//! The random formula generator of the plan oracle: seeded small
//! databases over `R`, `S` and `T`, and random formulas from `CqPlan`'s
//! fragment that record the shapes they use. Shared by
//! `tests/plan_oracle.rs` and `tests/world_set_oracle.rs`.

use relalg::query::{CompareOp, Formula, Term};
use relalg::{Database, Relation, RelationSchema, Tuple};

pub const DOMAIN: [&str; 4] = ["a", "b", "c", "d"];
/// A constant no database holds, so no symbol table ever mints it.
pub const UNSEEN: &str = "never_minted";
/// The stored relations and their arities.
pub const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 2), ("T", 1)];

/// Deterministic splitmix64 stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The formula shapes the oracle must see compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    ForallEq,
    ForallNeq,
    ForallAtom,
    NestedNotExists,
    NotOr,
    NotCompare,
    AndOverOr,
    Shadowing,
    UnseenConstant,
}

pub fn random_database(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    for (name, arity) in RELATIONS {
        let attributes: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        db.add_relation(Relation::new(RelationSchema::new(name, &attributes)));
        for _ in 0..rng.below(7) {
            let tuple: Vec<&str> = (0..arity).map(|_| *rng.pick(&DOMAIN)).collect();
            db.insert(name, Tuple::strs(tuple)).unwrap();
        }
    }
    db
}

/// Random formulas over `R`, `S` and `T`, recording the shapes they use.
pub struct Gen<'a> {
    pub rng: &'a mut Rng,
    pub shapes: Vec<Shape>,
    pub fresh: usize,
}

impl Gen<'_> {
    fn constant(&mut self) -> Term {
        if self.rng.below(5) == 0 {
            self.shapes.push(Shape::UnseenConstant);
            Term::cnst(UNSEEN)
        } else {
            Term::cnst(*self.rng.pick(&DOMAIN))
        }
    }

    fn term(&mut self, vars: &[String]) -> Term {
        if vars.is_empty() || self.rng.below(4) == 0 {
            self.constant()
        } else {
            Term::var(self.rng.pick(vars).clone())
        }
    }

    /// An atom over `vars` that mentions `must`. Under a negation it may
    /// name a relation the database lacks or use the wrong arity: both
    /// match nothing.
    fn atom(&mut self, vars: &[String], must: Option<&str>, negated: bool) -> Formula {
        let (mut relation, mut arity) = *self.rng.pick(&RELATIONS);
        if negated && self.rng.below(10) == 0 {
            match self.rng.below(2) {
                0 => relation = "U",
                _ => arity = 3 - arity,
            }
        }
        let mut terms: Vec<Term> = (0..arity).map(|_| self.term(vars)).collect();
        if let Some(var) = must {
            let at = self.rng.below(arity);
            terms[at] = Term::var(var);
        }
        Formula::atom_terms(relation, terms)
    }

    /// A quantified variable's name: usually fresh, sometimes one of the
    /// visible variables, which it then shadows.
    fn quantified(&mut self, vars: &[String]) -> (String, Vec<String>) {
        let name = if self.rng.below(3) == 0 {
            self.shapes.push(Shape::Shadowing);
            self.rng.pick(vars).clone()
        } else {
            self.fresh += 1;
            format!("Q{}", self.fresh)
        };
        let mut inner: Vec<String> = vars.iter().filter(|v| **v != name).cloned().collect();
        inner.push(name.clone());
        (name, inner)
    }

    fn compare(&mut self, left: Term, vars: &[String]) -> (CompareOp, Term, Term) {
        let op = *self
            .rng
            .pick(&[CompareOp::Eq, CompareOp::Neq, CompareOp::Lt, CompareOp::Geq]);
        (op, left, self.term(vars))
    }

    /// A filter over the bound `vars`: a guarded universal, a (nested)
    /// negated existential, a negated disjunction or a negated comparison.
    fn condition(&mut self, vars: &[String], depth: usize) -> Formula {
        match self.rng.below(if depth == 0 { 4 } else { 5 }) {
            0 => {
                let (q, inner) = self.quantified(vars);
                let mut guard = vec![self.atom(&inner, Some(&q), true)];
                if depth > 0 && self.rng.below(2) == 0 {
                    guard.push(self.condition(&inner, depth - 1));
                }
                let consequent = match self.rng.below(3) {
                    0 => {
                        self.shapes.push(Shape::ForallEq);
                        Formula::eq(Term::var(&q), self.term(&inner))
                    }
                    1 => {
                        self.shapes.push(Shape::ForallNeq);
                        Formula::compare(CompareOp::Neq, Term::var(&q), self.term(&inner))
                    }
                    _ => {
                        self.shapes.push(Shape::ForallAtom);
                        self.atom(&inner, Some(&q), true)
                    }
                };
                Formula::forall(vec![q], Formula::implies(Formula::and(guard), consequent))
            }
            1 => {
                self.shapes.push(Shape::NotOr);
                Formula::not(Formula::Or(vec![
                    self.atom(vars, None, true),
                    self.negated_body(vars),
                ]))
            }
            2 => {
                self.shapes.push(Shape::NotCompare);
                let left = Term::var(self.rng.pick(vars).clone());
                let (op, left, right) = self.compare(left, vars);
                Formula::not(Formula::compare(op, left, right))
            }
            3 => Formula::not(self.negated_body(vars)),
            _ => {
                // ¬∃Q (A ∧ ¬∃…): a negated existential with a nested one.
                self.shapes.push(Shape::NestedNotExists);
                let (q, inner) = self.quantified(vars);
                let atom = self.atom(&inner, Some(&q), true);
                let nested = self.condition(&inner, depth - 1);
                Formula::not(Formula::exists(vec![q], Formula::and(vec![atom, nested])))
            }
        }
    }

    /// `∃Q (A ∧ Q op t)` over the bound `vars`, to be negated.
    fn negated_body(&mut self, vars: &[String]) -> Formula {
        let (q, inner) = self.quantified(vars);
        let mut parts = vec![self.atom(&inner, Some(&q), true)];
        if self.rng.below(2) == 0 {
            let (op, left, right) = self.compare(Term::var(&q), &inner);
            parts.push(Formula::compare(op, left, right));
        }
        Formula::exists(vec![q], Formula::and(parts))
    }

    /// A query binding `X` and `Y` (and sometimes `W`) positively, with
    /// one or two filters, projected onto a non-empty subset of them.
    pub fn query(&mut self) -> (Formula, Vec<String>) {
        let xy = vec!["X".to_string(), "Y".to_string()];
        let scan = |relation: &str| Formula::atom(relation, vec!["X", "Y"]);
        let base = match self.rng.below(3) {
            0 => {
                let relation = *self.rng.pick(&["R", "S"]);
                scan(relation)
            }
            // The rewriting's shape: [R(X, Y) ∧ filter] ∨ S(X, Y).
            1 => Formula::Or(vec![
                Formula::and(vec![scan("R"), self.condition(&xy, 1)]),
                scan("S"),
            ]),
            _ => Formula::Or(vec![scan("R"), Formula::atom("S", vec!["Y", "X"])]),
        };
        let mut parts = vec![base];
        let mut vars = xy;
        if self.rng.below(2) == 0 {
            self.shapes.push(Shape::AndOverOr);
            parts.push(Formula::Or(vec![
                Formula::atom("R", vec!["Y", "W"]),
                Formula::and(vec![
                    Formula::atom("S", vec!["W", "Y"]),
                    self.condition(&["W".to_string(), "Y".to_string()], 1),
                ]),
            ]));
            vars.push("W".to_string());
        }
        for _ in 0..1 + self.rng.below(2) {
            parts.push(self.condition(&vars, 2));
        }
        let mut free: Vec<String> = vars
            .iter()
            .filter(|_| self.rng.below(3) > 0)
            .cloned()
            .collect();
        if free.is_empty() {
            free.push("X".to_string());
        }
        (Formula::And(parts), free)
    }
}
