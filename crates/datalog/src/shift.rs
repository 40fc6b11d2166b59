//! Shifting of head-cycle-free disjunctive programs into normal programs.
//!
//! Section 4.1 of the paper: "it is known that a disjunctive program can be
//! transformed into a non disjunctive program if the program is head-cycle
//! free" (Ben-Eliyahu & Dechter). The transformation replaces each rule
//!
//! ```text
//! a1 ∨ … ∨ ak ← body
//! ```
//!
//! by the k rules
//!
//! ```text
//! ai ← body, not a1, …, not a{i-1}, not a{i+1}, …, not ak      (1 ≤ i ≤ k)
//! ```
//!
//! For HCF programs the answer sets are preserved exactly; Example 3 shows
//! the transformation applied to rule (9) of the Section 3.1 program.
//!
//! The ground shift only rewrites rules: the shifted program keeps the
//! original's atom table — the atom ids and the symbol table they resolve
//! through — so the solver's models read against either program alike.

use crate::ground::{GroundProgram, RuleRef};
use crate::syntax::{BodyItem, Program, Rule};

/// Shift a ground disjunctive program into a ground normal program.
///
/// The caller is responsible for checking head-cycle-freeness (see
/// [`crate::graph::is_head_cycle_free`]); applying the shift to a non-HCF
/// program may lose answer sets.
pub fn shift_ground(program: &GroundProgram) -> GroundProgram {
    shift_owned(program.clone())
}

/// [`shift_ground`] on a program the caller gives up: its atom table (the
/// ids and the shared symbol table) is reused as it is, so atom ids keep
/// their meaning, and its rule table is re-emitted shifted from the taken
/// buffers.
pub(crate) fn shift_owned(mut program: GroundProgram) -> GroundProgram {
    for rule in program.take_rules().rules() {
        push_shifted(&mut program, rule);
    }
    program
}

/// Add `rule` to `program` shifted: one rule per head, in head order, each
/// with the other heads appended to its default-negated atoms. A rule with
/// at most one head is added as it is.
pub(crate) fn push_shifted(program: &mut GroundProgram, rule: RuleRef<'_>) {
    let RuleRef { heads, pos, neg } = rule;
    if heads.len() <= 1 {
        program.push_rule(heads, pos, &[neg]);
        return;
    }
    for (i, head) in heads.iter().enumerate() {
        program.push_rule(
            std::slice::from_ref(head),
            pos,
            &[neg, &heads[..i], &heads[i + 1..]],
        );
    }
}

/// Shift a non-ground disjunctive program into a normal program
/// (rule-by-rule, same construction as [`shift_ground`]).
pub fn shift_program(program: &Program) -> Program {
    let mut out = Program::new();
    for rule in program.rules() {
        if rule.head.len() <= 1 {
            out.add_rule(rule.clone());
            continue;
        }
        for (i, head) in rule.head.iter().enumerate() {
            let mut body = rule.body.clone();
            for (j, other) in rule.head.iter().enumerate() {
                if i != j {
                    body.push(BodyItem::Naf(other.clone()));
                }
            }
            out.add_rule(Rule::new(vec![head.clone()], body));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::syntax::Atom;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn normal_rules_pass_through() {
        let mut p = Program::new();
        p.add_fact(atom("a", &["x"]));
        p.add_rule(Rule::new(
            vec![atom("b", &["X"])],
            vec![BodyItem::Pos(atom("a", &["X"]))],
        ));
        let shifted = shift_program(&p);
        assert_eq!(shifted.len(), p.len());
        assert!(!shifted.is_disjunctive());
    }

    #[test]
    fn disjunctive_rule_becomes_k_normal_rules() {
        let mut p = Program::new();
        p.add_fact(atom("c", &["x"]));
        p.add_rule(Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        ));
        let shifted = shift_program(&p);
        assert_eq!(shifted.len(), 3);
        assert!(!shifted.is_disjunctive());
        let text = shifted.to_string();
        assert!(text.contains("a(X) :- c(X), not b(X)."));
        assert!(text.contains("b(X) :- c(X), not a(X)."));
    }

    #[test]
    fn example3_shape_shift_of_rule_9() {
        // ¬r1p(X,Y) ∨ r2p(X,W) ← r1(X,Y), s1(Z,Y), not aux1(X,Z), s2(Z,W).
        let mut p = Program::new();
        p.add_rule(Rule::new(
            vec![
                atom("r1p", &["X", "Y"]).strongly_negated(),
                atom("r2p", &["X", "W"]),
            ],
            vec![
                BodyItem::Pos(atom("r1", &["X", "Y"])),
                BodyItem::Pos(atom("s1", &["Z", "Y"])),
                BodyItem::Naf(atom("aux1", &["X", "Z"])),
                BodyItem::Pos(atom("s2", &["Z", "W"])),
            ],
        ));
        let shifted = shift_program(&p);
        assert_eq!(shifted.len(), 2);
        let text = shifted.to_string();
        // The two rules of Example 3 (modulo the choice literal, which the
        // paper carries along unchanged).
        assert!(text.contains(
            "-r1p(X, Y) :- r1(X, Y), s1(Z, Y), not aux1(X, Z), s2(Z, W), not r2p(X, W)."
        ));
        assert!(text.contains(
            "r2p(X, W) :- r1(X, Y), s1(Z, Y), not aux1(X, Z), s2(Z, W), not -r1p(X, Y)."
        ));
    }

    #[test]
    fn ground_shift_preserves_atom_table() {
        let mut p = Program::new();
        p.add_fact(atom("c", &["x"]));
        p.add_rule(Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        ));
        let ground = Grounder::new(&p).ground().unwrap();
        let shifted = shift_ground(&ground);
        assert_eq!(shifted.atom_count(), ground.atom_count());
        assert!(!shifted.is_disjunctive());
        // fact + two shifted rules
        assert_eq!(shifted.rule_count(), 3);
        for rule in shifted.rules() {
            assert!(rule.heads.len() <= 1);
        }
    }

    #[test]
    fn ground_shift_matches_the_rule_by_rule_construction() {
        use crate::ground::{AtomId, GroundAtom, GroundRule};
        let atoms = ["a", "b", "c", "d", "e"].map(|x| GroundAtom::new("p", &[x]));
        let rule = |heads: &[AtomId], pos: &[AtomId], neg: &[AtomId]| GroundRule {
            heads: heads.to_vec(),
            pos: pos.to_vec(),
            neg: neg.to_vec(),
        };
        let rules = vec![
            rule(&[0], &[], &[]),
            rule(&[1, 2, 3], &[0], &[4]),
            rule(&[4], &[0], &[1]),
            rule(&[], &[1, 2], &[]),
            rule(&[2, 3], &[], &[]),
        ];
        let program = |rules: &[GroundRule]| {
            let mut g = GroundProgram::default();
            for atom in &atoms {
                g.intern(atom.clone());
            }
            for r in rules {
                g.add_rule(r.clone());
            }
            g
        };
        // One rule per head, the other heads appended to the negated body.
        let mut want = Vec::new();
        for r in &rules {
            if r.heads.len() <= 1 {
                want.push(r.clone());
                continue;
            }
            for (i, &head) in r.heads.iter().enumerate() {
                let mut neg = r.neg.clone();
                neg.extend(r.heads[..i].iter().chain(&r.heads[i + 1..]));
                want.push(rule(&[head], &r.pos, &neg));
            }
        }
        let shifted = shift_ground(&program(&rules));
        let want = program(&want);
        assert_eq!(shifted.rules(), want.rules());
        assert_eq!(shifted.to_string(), want.to_string());
        assert!(!shifted.is_disjunctive());
        assert_eq!(shifted.atom_count(), atoms.len());
    }
}
