//! `warm-read`: every query is a cache hit.
//!
//! One `Auto` engine over three generated systems merged under prefixes:
//!
//! * `A`: a same-trust star whose hub slice has 256 worlds (about 1 ms a
//!   hit), queried as a scan, a projection and a self-join;
//! * `B`: the few-world `Mixed` star of cold-prepare, answered with `Asp`
//!   (including seeded bound-constant variants, a projection and a
//!   self-join);
//! * `C`: same-trust key-agreement peers that `Auto` answers by first-order
//!   rewriting, plus one negated query that only the naive strategy serves
//!   and that the first-order evaluator answers.
//!
//! Set-up prepares every slice, so the measured loop exercises cache
//! lookup, `CqPlan` evaluation, materialization and the first-order
//! evaluators, and no prepare layer.

use crate::inputs::{
    bound_scan, generate, merge_prefixed, negated, pick_key, projection, scan, self_join, QueryOp,
    Rng,
};
use crate::reads::{self, ReadPlan};
use crate::stats::Checks;
use crate::trace::Tracer;
use crate::{Config, Measured};
use pdes_core::{P2PSystem, QueryEngine, Strategy};

pub fn run(config: &Config, tr: &mut Tracer) -> Result<(Measured, Checks), String> {
    let specs = config.size.specs();
    let mut system = P2PSystem::new();
    merge_prefixed(&mut system, &generate(&specs.wide)?.system, "A")?;
    merge_prefixed(&mut system, &generate(&specs.star)?.system, "B")?;
    merge_prefixed(&mut system, &generate(&specs.keyed)?.system, "C")?;
    let plan = ReadPlan {
        systems: vec![(system, Strategy::Auto)],
        rotation,
        cold: false,
    };
    reads::run(config, tr, plan)
}

fn rotation(engines: &[QueryEngine], rng: &mut Rng) -> Result<Vec<QueryOp>, String> {
    use Strategy::{Asp, Auto, Naive};
    let system = engines[0].snapshot_system().map_err(|e| e.to_string())?;
    let op =
        |strategy, peer: &str, query, vars: &[&str]| QueryOp::new(0, strategy, peer, query, vars);
    // 17 queries: with an odd count, the median of the pooled samples falls
    // inside one query's distribution instead of between two of them.
    let mut ops = vec![
        op(Auto, "AP0", scan("AT0"), &["X", "Y"]),
        op(Auto, "AP0", projection("AT0"), &["X"]),
        op(Auto, "AP0", self_join("AT0"), &["X", "Y", "Z"]),
        op(Auto, "AP1", scan("AT1"), &["X", "Y"]),
        op(Asp, "BP0", projection("BT0"), &["X"]),
        op(Asp, "BP0", self_join("BT0"), &["X", "Y", "Z"]),
        op(Auto, "CP0", scan("CT0"), &["X", "Y"]),
        op(Auto, "CP0", projection("CT0"), &["X"]),
        op(Auto, "CP1", scan("CT1"), &["X", "Y"]),
        op(Naive, "CP0", negated("CT0"), &["X", "Y"]),
    ];
    for i in 0..4 {
        let (peer, relation) = (format!("BP{i}"), format!("BT{i}"));
        ops.push(op(Asp, &peer, scan(&relation), &["X", "Y"]));
        if i > 0 {
            let key = pick_key(rng, &system, &peer, &relation)?;
            ops.push(op(Asp, &peer, bound_scan(&relation, &key), &["Y"]));
        }
    }
    rng.shuffle(&mut ops);
    Ok(ops)
}
