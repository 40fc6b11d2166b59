//! Abstract syntax of disjunctive logic programs with default negation,
//! classical (strong) negation, built-in comparisons and the `choice`
//! operator.
//!
//! The syntax mirrors what the paper's specification programs need
//! (Section 3.1 and the appendix):
//!
//! * rules with *disjunctive heads* — e.g. rule (9)
//!   `¬R′1(x,y) ∨ R′2(x,w) ← …`;
//! * *classical negation* in heads and bodies (`¬R′1`), written here as
//!   [`Atom::strongly_negated`];
//! * *default negation* (`not aux1(x,z)`) in bodies;
//! * built-in comparisons (`u ≠ w`);
//! * the non-deterministic `choice((x̄), (w))` operator of Giannotti et al.,
//!   which the `choice` module unfolds into its *stable version*.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A term: a variable or an (interned) constant symbol.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A variable, by name.
    Var(String),
    /// A constant symbol.
    Const(Arc<str>),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// A constant term.
    pub fn cnst(symbol: impl AsRef<str>) -> Term {
        Term::Const(Arc::from(symbol.as_ref()))
    }

    /// Parse a token: names beginning with an uppercase ASCII letter or `_`
    /// are variables, everything else is a constant.
    pub fn parse(token: &str) -> Term {
        match token.chars().next() {
            Some(c) if c.is_ascii_uppercase() || c == '_' => Term::var(token),
            _ => Term::cnst(token),
        }
    }

    /// True for variables.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The variable name, if any.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant symbol, if any.
    pub fn as_const(&self) -> Option<&str> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A (possibly strongly negated) relational atom `p(t̄)` or `¬p(t̄)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// Predicate name.
    pub predicate: String,
    /// `true` when the atom is classically negated (`¬p`).
    pub strong_neg: bool,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// A positive atom from token arguments ([`Term::parse`] convention).
    pub fn new<S: AsRef<str>>(predicate: impl Into<String>, tokens: &[S]) -> Atom {
        Atom {
            predicate: predicate.into(),
            strong_neg: false,
            terms: tokens.iter().map(|t| Term::parse(t.as_ref())).collect(),
        }
    }

    /// A positive atom from explicit terms.
    pub fn from_terms(predicate: impl Into<String>, terms: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            strong_neg: false,
            terms,
        }
    }

    /// The classically negated version of this atom.
    pub fn strongly_negated(mut self) -> Atom {
        self.strong_neg = !self.strong_neg;
        self
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// True when every term is a constant.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| !t.is_var())
    }

    /// The variables of the atom.
    pub fn variables(&self) -> BTreeSet<String> {
        self.terms
            .iter()
            .filter_map(|t| t.as_var().map(str::to_string))
            .collect()
    }

    /// The "signed predicate" key used to keep `p` and `¬p` apart.
    pub fn signed_predicate(&self) -> String {
        if self.strong_neg {
            format!("-{}", self.predicate)
        } else {
            self.predicate.clone()
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.strong_neg {
            write!(f, "-")?;
        }
        write!(f, "{}", self.predicate)?;
        if !self.terms.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Built-in comparison operators usable in rule bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BuiltinOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<` (lexicographic on constant symbols)
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
}

impl BuiltinOp {
    /// Evaluate the operator on two constant symbols.
    pub fn eval(self, left: &str, right: &str) -> bool {
        match self {
            BuiltinOp::Eq => left == right,
            BuiltinOp::Neq => left != right,
            BuiltinOp::Lt => left < right,
            BuiltinOp::Leq => left <= right,
            BuiltinOp::Gt => left > right,
            BuiltinOp::Geq => left >= right,
        }
    }
}

impl fmt::Display for BuiltinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BuiltinOp::Eq => "=",
            BuiltinOp::Neq => "!=",
            BuiltinOp::Lt => "<",
            BuiltinOp::Leq => "<=",
            BuiltinOp::Gt => ">",
            BuiltinOp::Geq => ">=",
        };
        write!(f, "{s}")
    }
}

/// A built-in comparison in a rule body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Builtin {
    /// Operator.
    pub op: BuiltinOp,
    /// Left term.
    pub left: Term,
    /// Right term.
    pub right: Term,
}

impl Builtin {
    /// Construct a builtin.
    pub fn new(op: BuiltinOp, left: Term, right: Term) -> Builtin {
        Builtin { op, left, right }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// The non-deterministic choice operator `choice((x̄), (w̄))`: for every value
/// of the grouping terms `x̄` (bound by the rest of the body), exactly one
/// value of the chosen terms `w̄` is selected among those satisfying the body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChoiceAtom {
    /// Grouping terms (the functional "key" of the choice).
    pub group: Vec<Term>,
    /// Chosen terms (functionally dependent on the group).
    pub chosen: Vec<Term>,
}

impl ChoiceAtom {
    /// Construct a choice atom.
    pub fn new(group: Vec<Term>, chosen: Vec<Term>) -> ChoiceAtom {
        ChoiceAtom { group, chosen }
    }
}

impl fmt::Display for ChoiceAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let group: Vec<String> = self.group.iter().map(|t| t.to_string()).collect();
        let chosen: Vec<String> = self.chosen.iter().map(|t| t.to_string()).collect();
        write!(f, "choice(({}), ({}))", group.join(", "), chosen.join(", "))
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BodyItem {
    /// A positive atom.
    Pos(Atom),
    /// A default-negated atom (`not p(t̄)`).
    Naf(Atom),
    /// A built-in comparison.
    Builtin(Builtin),
    /// A choice atom (must be unfolded before grounding).
    Choice(ChoiceAtom),
}

impl BodyItem {
    /// The terms of the body item, in order.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let (first, second): (&[Term], &[Term]) = match self {
            BodyItem::Pos(a) | BodyItem::Naf(a) => (&a.terms, &[]),
            BodyItem::Builtin(b) => (
                std::slice::from_ref(&b.left),
                std::slice::from_ref(&b.right),
            ),
            BodyItem::Choice(c) => (&c.group, &c.chosen),
        };
        first.iter().chain(second)
    }
}

impl fmt::Display for BodyItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyItem::Pos(a) => write!(f, "{a}"),
            BodyItem::Naf(a) => write!(f, "not {a}"),
            BodyItem::Builtin(b) => write!(f, "{b}"),
            BodyItem::Choice(c) => write!(f, "{c}"),
        }
    }
}

/// A rule: `h1 ∨ … ∨ hk ← body`. A rule with an empty head is a denial
/// constraint; a rule with an empty body is a fact (or a disjunctive fact).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Head atoms (disjunction). Empty for constraints.
    pub head: Vec<Atom>,
    /// Body items (conjunction).
    pub body: Vec<BodyItem>,
}

impl Rule {
    /// A fact.
    pub fn fact(atom: Atom) -> Rule {
        Rule {
            head: vec![atom],
            body: vec![],
        }
    }

    /// A normal or disjunctive rule.
    pub fn new(head: Vec<Atom>, body: Vec<BodyItem>) -> Rule {
        Rule { head, body }
    }

    /// A denial constraint `← body`.
    pub fn constraint(body: Vec<BodyItem>) -> Rule {
        Rule { head: vec![], body }
    }

    /// True when the rule has no body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.head.len() == 1
    }

    /// True when the rule has an empty head.
    pub fn is_constraint(&self) -> bool {
        self.head.is_empty()
    }

    /// True when the head has more than one atom.
    pub fn is_disjunctive(&self) -> bool {
        self.head.len() > 1
    }

    /// True when some body item is a choice atom.
    pub fn has_choice(&self) -> bool {
        self.body.iter().any(|b| matches!(b, BodyItem::Choice(_)))
    }

    /// A rule is *safe* when every variable it uses occurs in some positive
    /// body atom (choice-atom variables are checked against the rest of the
    /// body as well).
    pub fn is_safe(&self) -> bool {
        let bound = |v: &str| {
            self.body.iter().any(|b| match b {
                BodyItem::Pos(a) => a.terms.iter().any(|t| t.as_var() == Some(v)),
                _ => false,
            })
        };
        self.head
            .iter()
            .flat_map(|a| &a.terms)
            .chain(self.body.iter().flat_map(BodyItem::terms))
            .filter_map(Term::as_var)
            .all(bound)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, " v ")?;
            }
            write!(f, "{h}")?;
        }
        if !self.body.is_empty() {
            if !self.head.is_empty() {
                write!(f, " ")?;
            }
            write!(f, ":- ")?;
            for (i, b) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{b}")?;
            }
        }
        write!(f, ".")
    }
}

/// A logic program: a list of rules (facts are rules with empty bodies).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Add a rule.
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Add a fact.
    pub fn add_fact(&mut self, atom: Atom) -> &mut Self {
        self.rules.push(Rule::fact(atom));
        self
    }

    /// Add a denial constraint.
    pub fn add_constraint(&mut self, body: Vec<BodyItem>) -> &mut Self {
        self.rules.push(Rule::constraint(body));
        self
    }

    /// Append every rule of another program.
    pub fn extend(&mut self, other: &Program) -> &mut Self {
        self.rules.extend(other.rules.iter().cloned());
        self
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All predicate names used by the program (signed: `-p` for `¬p`).
    pub fn predicates(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            for a in &r.head {
                out.insert(a.signed_predicate());
            }
            for b in &r.body {
                match b {
                    BodyItem::Pos(a) | BodyItem::Naf(a) => {
                        out.insert(a.signed_predicate());
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// True when some rule has a disjunctive head.
    pub fn is_disjunctive(&self) -> bool {
        self.rules.iter().any(Rule::is_disjunctive)
    }

    /// True when some rule uses the choice operator.
    pub fn has_choice(&self) -> bool {
        self.rules.iter().any(Rule::has_choice)
    }

    /// The unsafe rules of the program (empty for well-formed programs).
    pub fn unsafe_rules(&self) -> Vec<&Rule> {
        self.rules.iter().filter(|r| !r.is_safe()).collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn term_parse_convention() {
        assert!(Term::parse("X").is_var());
        assert!(Term::parse("_g").is_var());
        assert!(!Term::parse("a").is_var());
        assert_eq!(Term::parse("abc").as_const(), Some("abc"));
    }

    #[test]
    fn atom_display_and_sign() {
        let a = atom("r1_p", &["X", "b"]);
        assert_eq!(a.to_string(), "r1_p(X, b)");
        let n = a.clone().strongly_negated();
        assert_eq!(n.to_string(), "-r1_p(X, b)");
        assert_eq!(n.signed_predicate(), "-r1_p");
        assert_eq!(n.clone().strongly_negated(), a);
        assert!(!a.is_ground());
        assert!(atom("p", &["a", "b"]).is_ground());
    }

    #[test]
    fn rule_classification() {
        let fact = Rule::fact(atom("r1", &["a", "b"]));
        assert!(fact.is_fact());
        assert!(!fact.is_constraint());

        let constraint = Rule::constraint(vec![
            BodyItem::Pos(atom("p", &["X"])),
            BodyItem::Pos(atom("q", &["X"])),
        ]);
        assert!(constraint.is_constraint());

        let disj = Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("c", &["X"]))],
        );
        assert!(disj.is_disjunctive());
    }

    #[test]
    fn safety_requires_positive_binding() {
        // p(X) :- not q(X).  -- unsafe
        let unsafe_rule = Rule::new(
            vec![atom("p", &["X"])],
            vec![BodyItem::Naf(atom("q", &["X"]))],
        );
        assert!(!unsafe_rule.is_safe());
        // p(X) :- r(X), not q(X).  -- safe
        let safe_rule = Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("r", &["X"])),
                BodyItem::Naf(atom("q", &["X"])),
            ],
        );
        assert!(safe_rule.is_safe());
        // builtin variable must be bound too.
        let unsafe_builtin = Rule::new(
            vec![atom("p", &["X"])],
            vec![
                BodyItem::Pos(atom("r", &["X"])),
                BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("X"), Term::var("Y"))),
            ],
        );
        assert!(!unsafe_builtin.is_safe());
    }

    #[test]
    fn builtin_eval_semantics() {
        assert!(BuiltinOp::Neq.eval("a", "b"));
        assert!(BuiltinOp::Eq.eval("a", "a"));
        assert!(BuiltinOp::Lt.eval("a", "b"));
        assert!(BuiltinOp::Geq.eval("b", "b"));
    }

    #[test]
    fn rule_display_matches_conventional_syntax() {
        let r = Rule::new(
            vec![
                atom("r1p", &["X", "Y"]).strongly_negated(),
                atom("r2p", &["X", "W"]),
            ],
            vec![
                BodyItem::Pos(atom("r1", &["X", "Y"])),
                BodyItem::Naf(atom("aux1", &["X", "Z"])),
                BodyItem::Builtin(Builtin::new(BuiltinOp::Neq, Term::var("U"), Term::var("W"))),
            ],
        );
        assert_eq!(
            r.to_string(),
            "-r1p(X, Y) v r2p(X, W) :- r1(X, Y), not aux1(X, Z), U != W."
        );
        let c = Rule::constraint(vec![BodyItem::Pos(atom("p", &["X"]))]);
        assert_eq!(c.to_string(), ":- p(X).");
        let f = Rule::fact(atom("p", &["a"]));
        assert_eq!(f.to_string(), "p(a).");
    }

    #[test]
    fn program_collects_predicates_and_flags() {
        let mut p = Program::new();
        p.add_fact(atom("r1", &["a", "b"]));
        p.add_rule(Rule::new(
            vec![atom("r1p", &["X", "Y"])],
            vec![
                BodyItem::Pos(atom("r1", &["X", "Y"])),
                BodyItem::Naf(atom("r1p", &["X", "Y"]).strongly_negated()),
            ],
        ));
        p.add_rule(Rule::new(
            vec![atom("a", &["X"]), atom("b", &["X"])],
            vec![BodyItem::Pos(atom("r1", &["X", "X"]))],
        ));
        assert!(p.is_disjunctive());
        assert!(!p.has_choice());
        let preds = p.predicates();
        assert!(preds.contains("r1"));
        assert!(preds.contains("-r1p"));
        assert!(preds.contains("r1p"));
        assert_eq!(p.len(), 3);
        assert!(p.unsafe_rules().is_empty());
    }

    #[test]
    fn choice_atom_display_and_detection() {
        let rule = Rule::new(
            vec![atom("r2p", &["X", "W"])],
            vec![
                BodyItem::Pos(atom("s2", &["Z", "W"])),
                BodyItem::Choice(ChoiceAtom::new(
                    vec![Term::var("X"), Term::var("Z")],
                    vec![Term::var("W")],
                )),
            ],
        );
        assert!(rule.has_choice());
        assert!(rule.to_string().contains("choice((X, Z), (W))"));
        let mut p = Program::new();
        p.add_rule(rule);
        assert!(p.has_choice());
    }

    #[test]
    fn program_extend_appends_rules() {
        let mut a = Program::new();
        a.add_fact(atom("p", &["x"]));
        let mut b = Program::new();
        b.add_fact(atom("q", &["y"]));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}
