//! The specification programs exactly as listed in the paper.
//!
//! These constructors transcribe, rule by rule, the programs the paper shows:
//!
//! * [`section31_program`] — the GAV-style choice program of Section 3.1
//!   (rules (4)–(9)) over a parametric instance of `R1`, `R2`, `S1`, `S2`;
//! * [`example4_program`] — the combined program of Example 4 (rules (4),
//!   (5), (7), (8), (10)–(13)) for the transitive scenario with peer `C`;
//! * [`appendix_lav_program`] — the three-layer LAV program of the appendix,
//!   with the annotation constants `td`, `ta`, `fa`, `tss` encoded as an
//!   extra argument position exactly as printed, and the choice operator
//!   already unfolded into its stable version (`chosen` / `diffchoice`).
//!
//! They serve a single purpose: validating that our answer-set engine
//! produces *exactly* the stable models the paper reports (the Section 3.1,
//! appendix and Example 4 checks of `tests/paper_examples.rs`). The
//! general-purpose generators live in [`crate::asp::annotated`] and
//! [`crate::asp::transitive`].

use crate::asp::encode::encode_tuple;
use datalog::{Atom, BodyItem, Builtin, BuiltinOp, ChoiceAtom, Program, Rule, Term};
use relalg::Tuple;

fn pos(p: &str, args: &[&str]) -> BodyItem {
    BodyItem::Pos(Atom::new(p, args))
}

fn naf(p: &str, args: &[&str]) -> BodyItem {
    BodyItem::Naf(Atom::new(p, args))
}

fn head(p: &str, args: &[&str]) -> Atom {
    Atom::new(p, args)
}

fn add_facts(program: &mut Program, relation: &str, tuples: &[Tuple]) {
    for t in tuples {
        program.add_fact(Atom::from_terms(relation, encode_tuple(t)));
    }
}

/// The Section 3.1 program: peer `P` owns `R1`, `R2`; peer `Q` owns `S1`,
/// `S2`; `(P, less, Q)`; DEC (3) `∀xyz∃w (R1(x,y) ∧ S1(z,y) → R2(x,w) ∧
/// S2(z,w))`. The primed relations are written `r1p` / `r2p`.
///
/// Rules (4)–(9) of the paper:
///
/// ```text
/// (4) R′1(x,y) ← R1(x,y), not ¬R′1(x,y)
/// (5) R′2(x,y) ← R2(x,y), not ¬R′2(x,y)
/// (6) ¬R′1(x,y) ← R1(x,y), S1(z,y), not aux1(x,z), not aux2(z)
/// (7) aux1(x,z) ← R2(x,w), S2(z,w)
/// (8) aux2(z)   ← S2(z,w)
/// (9) ¬R′1(x,y) ∨ R′2(x,w) ← R1(x,y), S1(z,y), not aux1(x,z), S2(z,w),
///                             choice((x,z), w)
/// ```
pub fn section31_program(r1: &[Tuple], r2: &[Tuple], s1: &[Tuple], s2: &[Tuple]) -> Program {
    let mut p = Program::new();
    add_facts(&mut p, "r1", r1);
    add_facts(&mut p, "r2", r2);
    add_facts(&mut p, "s1", s1);
    add_facts(&mut p, "s2", s2);

    // (4) and (5): copy rules with deletion exceptions.
    p.add_rule(Rule::new(
        vec![head("r1p", &["X", "Y"])],
        vec![
            pos("r1", &["X", "Y"]),
            BodyItem::Naf(Atom::new("r1p", &["X", "Y"]).strongly_negated()),
        ],
    ));
    p.add_rule(Rule::new(
        vec![head("r2p", &["X", "Y"])],
        vec![
            pos("r2", &["X", "Y"]),
            BodyItem::Naf(Atom::new("r2p", &["X", "Y"]).strongly_negated()),
        ],
    ));
    // (6): delete R1(x, y) when the violation cannot be fixed by insertion.
    p.add_rule(Rule::new(
        vec![head("r1p", &["X", "Y"]).strongly_negated()],
        vec![
            pos("r1", &["X", "Y"]),
            pos("s1", &["Z", "Y"]),
            naf("aux1", &["X", "Z"]),
            naf("aux2", &["Z"]),
        ],
    ));
    // (7) and (8): the auxiliary predicates.
    p.add_rule(Rule::new(
        vec![head("aux1", &["X", "Z"])],
        vec![pos("r2", &["X", "W"]), pos("s2", &["Z", "W"])],
    ));
    p.add_rule(Rule::new(
        vec![head("aux2", &["Z"])],
        vec![pos("s2", &["Z", "W"])],
    ));
    // (9): either delete R1(x, y) or insert R2(x, w) for a chosen witness w.
    p.add_rule(Rule::new(
        vec![
            head("r1p", &["X", "Y"]).strongly_negated(),
            head("r2p", &["X", "W"]),
        ],
        vec![
            pos("r1", &["X", "Y"]),
            pos("s1", &["Z", "Y"]),
            naf("aux1", &["X", "Z"]),
            pos("s2", &["Z", "W"]),
            BodyItem::Choice(ChoiceAtom::new(
                vec![Term::var("X"), Term::var("Z")],
                vec![Term::var("W")],
            )),
        ],
    ));
    p
}

/// The combined program of Example 4: the Section 3.1 rules with `S1`
/// replaced by its virtual version `s1p` (rules (10), (11)), plus peer `Q`'s
/// rules (12), (13) importing `C`'s relation `U` into `S1`.
pub fn example4_program(
    r1: &[Tuple],
    r2: &[Tuple],
    s1: &[Tuple],
    s2: &[Tuple],
    u: &[Tuple],
) -> Program {
    let mut p = Program::new();
    add_facts(&mut p, "r1", r1);
    add_facts(&mut p, "r2", r2);
    add_facts(&mut p, "s1", s1);
    add_facts(&mut p, "s2", s2);
    add_facts(&mut p, "u", u);

    // (4), (5): copy rules for P's relations.
    p.add_rule(Rule::new(
        vec![head("r1p", &["X", "Y"])],
        vec![
            pos("r1", &["X", "Y"]),
            BodyItem::Naf(Atom::new("r1p", &["X", "Y"]).strongly_negated()),
        ],
    ));
    p.add_rule(Rule::new(
        vec![head("r2p", &["X", "Y"])],
        vec![
            pos("r2", &["X", "Y"]),
            BodyItem::Naf(Atom::new("r2p", &["X", "Y"]).strongly_negated()),
        ],
    ));
    // (7), (8): auxiliary predicates (unchanged).
    p.add_rule(Rule::new(
        vec![head("aux1", &["X", "Z"])],
        vec![pos("r2", &["X", "W"]), pos("s2", &["Z", "W"])],
    ));
    p.add_rule(Rule::new(
        vec![head("aux2", &["Z"])],
        vec![pos("s2", &["Z", "W"])],
    ));
    // (10): like (6) but reading S1 through its virtual version s1p.
    p.add_rule(Rule::new(
        vec![head("r1p", &["X", "Y"]).strongly_negated()],
        vec![
            pos("r1", &["X", "Y"]),
            pos("s1p", &["Z", "Y"]),
            naf("aux1", &["X", "Z"]),
            naf("aux2", &["Z"]),
        ],
    ));
    // (11): like (9) but reading S1 through s1p.
    p.add_rule(Rule::new(
        vec![
            head("r1p", &["X", "Y"]).strongly_negated(),
            head("r2p", &["X", "W"]),
        ],
        vec![
            pos("r1", &["X", "Y"]),
            pos("s1p", &["Z", "Y"]),
            naf("aux1", &["X", "Z"]),
            pos("s2", &["Z", "W"]),
            BodyItem::Choice(ChoiceAtom::new(
                vec![Term::var("X"), Term::var("Z")],
                vec![Term::var("W")],
            )),
        ],
    ));
    // (12): S1's own tuples survive unless deleted.
    p.add_rule(Rule::new(
        vec![head("s1p", &["X", "Y"])],
        vec![
            pos("s1", &["X", "Y"]),
            BodyItem::Naf(Atom::new("s1p", &["X", "Y"]).strongly_negated()),
        ],
    ));
    // (13): Q imports C's relation U into S1.
    p.add_rule(Rule::new(
        vec![head("s1p", &["X", "Y"])],
        vec![pos("u", &["X", "Y"]), naf("s1", &["X", "Y"])],
    ));
    p
}

/// The appendix LAV program for the Section 3.1 instance, with annotation
/// constants as an extra argument and the choice operator already unfolded
/// into its stable version (`chosen` / `diffchoice`), exactly as printed.
pub fn appendix_lav_program(r1: &[Tuple], r2: &[Tuple], s1: &[Tuple], s2: &[Tuple]) -> Program {
    let mut p = Program::new();
    add_facts(&mut p, "r1", r1);
    add_facts(&mut p, "r2", r2);
    add_facts(&mut p, "s1", s1);
    add_facts(&mut p, "s2", s2);

    // Layer 1: preferred legal instances (td copies). The closure denial
    // constraints of the paper are vacuous for td atoms derived only from the
    // sources, so they are omitted here; the repair layer below is verbatim.
    for (prime, source) in [("r1p", "r1"), ("s1p", "s1"), ("r2p", "r2"), ("s2p", "s2")] {
        p.add_rule(Rule::new(
            vec![head(prime, &["X", "Y", "td"])],
            vec![pos(source, &["X", "Y"])],
        ));
    }

    // Layer 2: repairs with annotations. For each primed relation:
    //   R(X, Y, tss) ← R(X, Y, td), not R(X, Y, fa).
    //   R(X, Y, tss) ← R(X, Y, ta).
    //   ← R(X, Y, ta), R(X, Y, fa).
    for prime in ["r1p", "s1p", "r2p", "s2p"] {
        p.add_rule(Rule::new(
            vec![head(prime, &["X", "Y", "tss"])],
            vec![pos(prime, &["X", "Y", "td"]), naf(prime, &["X", "Y", "fa"])],
        ));
        p.add_rule(Rule::new(
            vec![head(prime, &["X", "Y", "tss"])],
            vec![pos(prime, &["X", "Y", "ta"])],
        ));
        p.add_constraint(vec![
            pos(prime, &["X", "Y", "ta"]),
            pos(prime, &["X", "Y", "fa"]),
        ]);
    }

    // Violation / repair rules of the appendix.
    //   R1(X, Y, fa) ← R1(X,Y,td), S1(Z,Y,td), not aux1(X,Z), not aux2(Z).
    p.add_rule(Rule::new(
        vec![head("r1p", &["X", "Y", "fa"])],
        vec![
            pos("r1p", &["X", "Y", "td"]),
            pos("s1p", &["Z", "Y", "td"]),
            naf("aux1", &["X", "Z"]),
            naf("aux2", &["Z"]),
        ],
    ));
    //   aux1(X, Z) ← R2(X, U, td), S2(Z, U, td).
    p.add_rule(Rule::new(
        vec![head("aux1", &["X", "Z"])],
        vec![pos("r2p", &["X", "U", "td"]), pos("s2p", &["Z", "U", "td"])],
    ));
    //   aux2(Z) ← S2(Z, W, td).
    p.add_rule(Rule::new(
        vec![head("aux2", &["Z"])],
        vec![pos("s2p", &["Z", "W", "td"])],
    ));
    //   R1(X,Y,fa) ∨ R2(X,W,ta) ← R1(X,Y,td), S1(Z,Y,td), not aux1(X,Z),
    //                              S2(Z,W,td), chosen(X,Z,W).
    p.add_rule(Rule::new(
        vec![
            head("r1p", &["X", "Y", "fa"]),
            head("r2p", &["X", "W", "ta"]),
        ],
        vec![
            pos("r1p", &["X", "Y", "td"]),
            pos("s1p", &["Z", "Y", "td"]),
            naf("aux1", &["X", "Z"]),
            pos("s2p", &["Z", "W", "td"]),
            pos("chosen", &["X", "Z", "W"]),
        ],
    ));
    //   chosen(X,Z,W) ← R1(X,Y,td), S1(Z,Y,td), not aux1(X,Z), S2(Z,W,td),
    //                   not diffchoice(X,Z,W).
    p.add_rule(Rule::new(
        vec![head("chosen", &["X", "Z", "W"])],
        vec![
            pos("r1p", &["X", "Y", "td"]),
            pos("s1p", &["Z", "Y", "td"]),
            naf("aux1", &["X", "Z"]),
            pos("s2p", &["Z", "W", "td"]),
            naf("diffchoice", &["X", "Z", "W"]),
        ],
    ));
    //   diffchoice(X,Z,W) ← chosen(X,Z,U), S2(Z,W,td), U ≠ W.
    p.add_rule(Rule::new(
        vec![head("diffchoice", &["X", "Z", "W"])],
        vec![
            pos("chosen", &["X", "Z", "U"]),
            pos("s2p", &["Z", "W", "td"]),
            BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("U"), Term::var("W"))),
        ],
    ));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::{AnswerSets, SolverConfig};
    use std::collections::BTreeSet;

    fn t(a: &str, b: &str) -> Tuple {
        Tuple::strs([a, b])
    }

    /// E3: the Section 3.1 program on the instance the paper discusses
    /// (r1 = {(a,b)}, s1 = {(c,b)}, r2 = {}, s2 = {(c,e),(c,f)}).
    #[test]
    fn section31_program_solutions() {
        let program = section31_program(
            &[t("a", "b")],
            &[],
            &[t("c", "b")],
            &[t("c", "e"), t("c", "f")],
        );
        let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
        // Four stable models: delete R1(a,b) (under either choice) or insert
        // R2(a,e) / R2(a,f).
        assert_eq!(sets.len(), 4);
        // Solutions = primed contents; collect the distinct (r1p, r2p) pairs.
        type RelationContents = Vec<Vec<String>>;
        let mut shapes: BTreeSet<(RelationContents, RelationContents)> = BTreeSet::new();
        for i in 0..sets.len() {
            let r1p: Vec<Vec<String>> = sets
                .tuples_in(i, "r1p")
                .into_iter()
                .map(|args| args.iter().map(|a| a.to_string()).collect())
                .collect();
            let r2p: Vec<Vec<String>> = sets
                .tuples_in(i, "r2p")
                .into_iter()
                .map(|args| args.iter().map(|a| a.to_string()).collect())
                .collect();
            shapes.insert((r1p, r2p));
        }
        assert_eq!(shapes.len(), 3);
        assert!(shapes.contains(&(vec![], vec![])));
        assert!(shapes.contains(&(
            vec![vec!["a".to_string(), "b".to_string()]],
            vec![vec!["a".to_string(), "e".to_string()]]
        )));
        assert!(shapes.contains(&(
            vec![vec!["a".to_string(), "b".to_string()]],
            vec![vec!["a".to_string(), "f".to_string()]]
        )));
    }

    /// When the DEC is already satisfied the only solution keeps everything.
    #[test]
    fn section31_program_consistent_instance() {
        let program = section31_program(
            &[t("a", "b")],
            &[t("a", "e")],
            &[t("c", "b")],
            &[t("c", "e")],
        );
        let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets.tuples_in(0, "r1p").len(), 1);
        assert_eq!(sets.tuples_in(0, "r2p").len(), 1);
    }

    /// E6: Example 4's combined program has exactly the three solutions the
    /// paper lists.
    #[test]
    fn example4_program_has_three_solutions() {
        let program = example4_program(
            &[t("a", "b")],
            &[],
            &[],
            &[t("c", "e"), t("c", "f")],
            &[t("c", "b")],
        );
        let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
        // Distinct solutions over (r1p, r2p, s1p):
        let mut shapes: BTreeSet<(usize, Vec<Vec<String>>, usize)> = BTreeSet::new();
        for i in 0..sets.len() {
            let r1p = sets.tuples_in(i, "r1p").len();
            let r2p: Vec<Vec<String>> = sets
                .tuples_in(i, "r2p")
                .into_iter()
                .map(|args| args.iter().map(|a| a.to_string()).collect())
                .collect();
            let s1p = sets.tuples_in(i, "s1p").len();
            shapes.insert((r1p, r2p, s1p));
        }
        assert_eq!(shapes.len(), 3);
        // Every solution imports U's tuple into S1.
        for i in 0..sets.len() {
            assert_eq!(sets.tuples_in(i, "s1p").len(), 1);
        }
        // The three solutions: {R1(a,b), R2(a,f)}, {} and {R1(a,b), R2(a,e)}.
        assert!(shapes.contains(&(0, vec![], 1)));
        assert!(shapes.contains(&(1, vec![vec!["a".into(), "e".into()]], 1)));
        assert!(shapes.contains(&(1, vec![vec!["a".into(), "f".into()]], 1)));
    }

    /// E4: the appendix LAV program has exactly the stable models M1–M4.
    #[test]
    fn appendix_lav_program_has_four_stable_models() {
        let program = appendix_lav_program(
            &[t("a", "b")],
            &[],
            &[t("c", "b")],
            &[t("c", "e"), t("c", "f")],
        );
        let sets = AnswerSets::compute(&program, SolverConfig::default()).unwrap();
        assert_eq!(sets.len(), 4);

        // Solutions are the tss-annotated tuples. The paper's four models
        // give rM1 = {…, R′1(a,b), R′2(a,f)}, rM2 = rM4 = {no R′1/R′2},
        // rM3 = {…, R′1(a,b), R′2(a,e)}.
        let mut kept_r1 = 0;
        let mut inserted: BTreeSet<String> = BTreeSet::new();
        for i in 0..sets.len() {
            let r1_tss: Vec<_> = sets
                .tuples_in(i, "r1p")
                .into_iter()
                .filter(|args| args.last().map(|a| a.as_ref() == "tss").unwrap_or(false))
                .collect();
            let r2_tss: Vec<_> = sets
                .tuples_in(i, "r2p")
                .into_iter()
                .filter(|args| args.last().map(|a| a.as_ref() == "tss").unwrap_or(false))
                .collect();
            // s1 and s2 keep their original tuples in every model.
            let s1_tss = sets
                .tuples_in(i, "s1p")
                .into_iter()
                .filter(|args| args.last().map(|a| a.as_ref() == "tss").unwrap_or(false))
                .count();
            let s2_tss = sets
                .tuples_in(i, "s2p")
                .into_iter()
                .filter(|args| args.last().map(|a| a.as_ref() == "tss").unwrap_or(false))
                .count();
            assert_eq!(s1_tss, 1);
            assert_eq!(s2_tss, 2);
            if r1_tss.is_empty() {
                assert!(r2_tss.is_empty());
            } else {
                kept_r1 += 1;
                assert_eq!(r2_tss.len(), 1);
                inserted.insert(r2_tss[0][1].to_string());
            }
        }
        assert_eq!(kept_r1, 2);
        assert_eq!(inserted, BTreeSet::from(["e".to_string(), "f".to_string()]));
    }
}
