//! Input generation: the seeded random stream, the generated systems of each
//! workload, and the query operations run against them.
//!
//! Every system comes from `workload::generate` at a fixed generator seed,
//! so its shape (DEC classes, world counts) never depends on the benchmark
//! seed; the benchmark seed picks the rotation order, the bound constants
//! and the update stream. That keeps a run's cost comparable across seeds.

use constraints::builders::{full_inclusion, key_agreement};
use constraints::ConstraintClass;
use pdes_core::{P2PSystem, PeerId, Query, QueryEngine, Strategy};
use relalg::query::{Formula, Term};
use relalg::{RelationSchema, Tuple};
use std::collections::BTreeSet;
use workload::{Topology, TrustMix, WorkloadSpec};

/// The certain answers of one query.
pub type Answer = BTreeSet<Tuple>;

/// Deterministic splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` keeps every
/// workload's shape at a size the self-tests run in about a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The generated systems, by role.
#[derive(Debug, Clone, Copy)]
pub struct Specs {
    /// `Mixed` star with key-agreement same-trust edges: few worlds per
    /// slice (cold-prepare, warm-read, commit-stream).
    pub star: WorkloadSpec,
    /// `AllLess` chain answered by the transitive program (cold-prepare).
    pub chain: WorkloadSpec,
    /// Same-trust star with one inclusion DEC: its hub slice has 2^k worlds
    /// (256 at full size; warm-read).
    pub wide: WorkloadSpec,
    /// Same-trust key agreement, which `Auto` answers by rewriting
    /// (warm-read).
    pub keyed: WorkloadSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Commit rate of the commit-stream writer, commits per second.
    pub commit_rate: f64,
}

impl Size {
    pub fn specs(self) -> Specs {
        let (tuples, violations, wide_tuples, setups) = match self {
            Size::Full => (40, 2, 6, 9),
            Size::Tiny => (6, 1, 2, 1),
        };
        let base = WorkloadSpec {
            peers: 4,
            tuples_per_relation: tuples,
            violations_per_dec: violations,
            topology: Topology::Star,
            trust_mix: TrustMix::Mixed,
            key_constraint_percent: 100,
            seed: 42,
        };
        Specs {
            star: base,
            chain: WorkloadSpec {
                topology: Topology::Chain,
                trust_mix: TrustMix::AllLess,
                ..base
            },
            wide: WorkloadSpec {
                peers: 3,
                tuples_per_relation: wide_tuples,
                violations_per_dec: 1,
                trust_mix: TrustMix::AllSame,
                key_constraint_percent: 50,
                ..base
            },
            keyed: WorkloadSpec {
                peers: 2,
                trust_mix: TrustMix::AllSame,
                ..base
            },
            setups,
            commit_rate: 12.0,
        }
    }
}

pub fn generate(spec: &WorkloadSpec) -> Result<workload::generator::GeneratedWorkload, String> {
    workload::generate(spec).map_err(|e| e.to_string())
}

/// The single relation a generated peer owns.
fn relation_of(system: &P2PSystem, peer: &PeerId) -> Result<String, String> {
    let data = system.peer(peer).map_err(|e| e.to_string())?;
    data.relation_names()
        .into_iter()
        .next()
        .ok_or_else(|| format!("generated peer {peer} owns no relation"))
}

/// Copy a generated system into `target`, prefixing every peer and relation
/// name with `prefix`. Several generated systems can so share one engine.
/// Only the two DEC classes the generator emits are supported.
pub fn merge_prefixed(
    target: &mut P2PSystem,
    source: &P2PSystem,
    prefix: &str,
) -> Result<(), String> {
    let err = |e: pdes_core::CoreError| e.to_string();
    let renamed = |p: &PeerId| PeerId::new(format!("{prefix}{}", p.name()));
    for peer in source.peers() {
        let id = renamed(&peer.id);
        target.add_peer(id.clone()).map_err(err)?;
        for relation in peer.instance.relations() {
            let name = format!("{prefix}{}", relation.name());
            let attributes: Vec<String> = (0..relation.arity()).map(|i| format!("a{i}")).collect();
            target
                .add_relation(&id, RelationSchema::new(name.clone(), &attributes))
                .map_err(err)?;
            for tuple in relation.iter() {
                target.insert(&id, &name, tuple.clone()).map_err(err)?;
            }
        }
    }
    for (who, level, whom) in source.trust().entries() {
        target
            .set_trust(&renamed(who), level, &renamed(whom))
            .map_err(err)?;
    }
    for (i, dec) in source.decs().iter().enumerate() {
        let owner_rel = format!("{prefix}{}", relation_of(source, &dec.owner)?);
        let other_rel = format!("{prefix}{}", relation_of(source, &dec.other)?);
        let name = format!("{prefix}dec_{i}");
        let constraint = match dec.constraint.class() {
            ConstraintClass::EqualityGenerating => key_agreement(name, &owner_rel, &other_rel),
            ConstraintClass::Universal => full_inclusion(name, &other_rel, &owner_rel, 2),
            other => return Err(format!("unsupported generated DEC class {other:?}")),
        }
        .map_err(|e| e.to_string())?;
        target
            .add_dec(&renamed(&dec.owner), &renamed(&dec.other), constraint)
            .map_err(err)?;
    }
    Ok(())
}

/// One query of a workload's rotation: which engine answers it, under
/// which strategy.
#[derive(Debug, Clone)]
pub struct QueryOp {
    pub engine: usize,
    pub strategy: Strategy,
    pub query: Query,
}

impl QueryOp {
    pub fn new(
        engine: usize,
        strategy: Strategy,
        peer: &str,
        query: Formula,
        vars: &[&str],
    ) -> Self {
        QueryOp {
            engine,
            strategy,
            query: Query::named(peer, query, vars),
        }
    }

    pub fn answer(&self, engine: &QueryEngine) -> Result<pdes_core::Answers, String> {
        engine
            .answer_with(
                self.strategy,
                &self.query.peer,
                &self.query.query,
                &self.query.free_vars,
            )
            .map_err(|e| e.to_string())
    }
}

/// `R(X, Y)`.
pub fn scan(relation: &str) -> Formula {
    Formula::atom(relation, vec!["X", "Y"])
}

/// `R(c, Y)`: the scan with its key bound to the constant `c`.
pub fn bound_scan(relation: &str, constant: &str) -> Formula {
    Formula::atom_terms(relation, vec![Term::cnst(constant), Term::var("Y")])
}

/// `∃Y R(X, Y)`.
pub fn projection(relation: &str) -> Formula {
    Formula::exists(vec!["Y"], scan(relation))
}

/// `R(X, Y) ∧ R(X, Z)`.
pub fn self_join(relation: &str) -> Formula {
    Formula::and(vec![
        scan(relation),
        Formula::atom(relation, vec!["X", "Z"]),
    ])
}

/// `R(X, Y) ∧ ¬R(Y, X)`: not a conjunctive query, so it is evaluated by the
/// first-order evaluator.
pub fn negated(relation: &str) -> Formula {
    Formula::and(vec![
        scan(relation),
        Formula::not(Formula::atom(relation, vec!["Y", "X"])),
    ])
}

/// A base key of `peer`'s relation, picked by the seeded stream (the
/// generator names them `k_<peer>_<j>`).
pub fn pick_key(
    rng: &mut Rng,
    system: &P2PSystem,
    peer: &str,
    relation: &str,
) -> Result<String, String> {
    let data = system.peer(&PeerId::new(peer)).map_err(|e| e.to_string())?;
    let keys: Vec<String> = data
        .instance
        .relation(relation)
        .into_iter()
        .flat_map(|r| r.iter())
        .filter_map(|t| t.get(0).map(|v| v.to_string()))
        .filter(|k| k.starts_with("k_"))
        .collect();
    if keys.is_empty() {
        return Err(format!("{peer} has no base key in {relation}"));
    }
    Ok(keys[rng.below(keys.len())].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_system_answers_like_the_original() {
        let specs = Size::Tiny.specs();
        let original = generate(&specs.star).unwrap().system;
        let mut merged = P2PSystem::new();
        merge_prefixed(&mut merged, &original, "B").unwrap();
        let a = QueryEngine::builder(original)
            .strategy(Strategy::Asp)
            .build();
        let b = QueryEngine::builder(merged).strategy(Strategy::Asp).build();
        for i in 0..specs.star.peers {
            let x = QueryOp::new(
                0,
                Strategy::Asp,
                &format!("P{i}"),
                scan(&format!("T{i}")),
                &["X", "Y"],
            );
            let y = QueryOp::new(
                0,
                Strategy::Asp,
                &format!("BP{i}"),
                scan(&format!("BT{i}")),
                &["X", "Y"],
            );
            assert_eq!(x.answer(&a).unwrap().tuples, y.answer(&b).unwrap().tuples);
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items = [1, 2, 3, 4, 5];
        Rng::new(3).shuffle(&mut items);
        let mut again = [1, 2, 3, 4, 5];
        Rng::new(3).shuffle(&mut again);
        assert_eq!(items, again);
    }
}
