//! `cold-prepare`: every query prepares its slice from scratch.
//!
//! Two engines: a `Mixed`-trust star under `Asp` and an `AllLess` chain
//! under `TransitiveAsp`. The rotation holds each peer's `T<i>(X, Y)` plus a
//! bound-constant variant `T<i>(k, Y)` wherever the variant grounds a
//! different relevance slice. The cache is flushed before every query,
//! outside the timer, so the prepare layers (encode, relevance, ground,
//! solve, decode, index) do nearly all the work.

use crate::inputs::{bound_scan, generate, pick_key, scan, QueryOp, Rng};
use crate::reads::{self, ReadPlan};
use crate::replay::Replayer;
use crate::stats::Checks;
use crate::trace::Tracer;
use crate::{Config, Measured};
use pdes_core::{QueryEngine, Strategy};

pub fn run(config: &Config, tr: &mut Tracer) -> Result<(Measured, Checks), String> {
    let specs = config.size.specs();
    let plan = ReadPlan {
        systems: vec![
            (generate(&specs.star)?.system, Strategy::Asp),
            (generate(&specs.chain)?.system, Strategy::TransitiveAsp),
        ],
        rotation,
        cold: true,
    };
    reads::run(config, tr, plan)
}

fn rotation(engines: &[QueryEngine], rng: &mut Rng) -> Result<Vec<QueryOp>, String> {
    let mut ops = Vec::new();
    for (index, engine) in engines.iter().enumerate() {
        let strategy = engine.strategy();
        let replayer = Replayer::for_engine(engine)?;
        let system = engine.snapshot_system().map_err(|e| e.to_string())?;
        for i in 0..engine.topology().peer_count() {
            let (peer, relation) = (format!("P{i}"), format!("T{i}"));
            let unbound = QueryOp::new(index, strategy, &peer, scan(&relation), &["X", "Y"]);
            let constant = pick_key(rng, &system, &peer, &relation)?;
            let bound = QueryOp::new(
                index,
                strategy,
                &peer,
                bound_scan(&relation, &constant),
                &["Y"],
            );
            let new_slice =
                replayer.fingerprint(engine, &bound)? != replayer.fingerprint(engine, &unbound)?;
            ops.push(unbound);
            if new_slice {
                ops.push(bound);
            }
        }
    }
    rng.shuffle(&mut ops);
    Ok(ops)
}
