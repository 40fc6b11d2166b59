//! The experiment definitions (B1–B7 of DESIGN.md): which workloads each
//! table sweeps and which mechanisms run on each point.
//!
//! The paper itself reports no measurements — its evaluation consists of
//! worked examples — so these tables characterize the engineering behaviour
//! of the mechanisms the paper describes: first-order rewriting vs. the
//! answer-set specification vs. naive solution enumeration, the effect of
//! the HCF shifting optimization, the cost of the transitive (global)
//! semantics, and the relation to single-database CQA.

use crate::live::{run_live, LiveMeasurement, LiveMode};
use crate::runners::{
    run_asp, run_cqa_baseline, run_naive, run_rewriting, run_transitive_asp, Measurement,
};
use datalog::graph::is_head_cycle_free;
use datalog::solve::{solve_ground, DisjunctiveSolver, NormalSolver, SolverConfig};
use datalog::Grounder;
use pdes_core::asp::annotated::annotated_program;
use pdes_core::asp::paper::section31_program;
use relalg::Tuple;
use std::time::Instant;
use workload::{generate, generate_updates, Topology, TrustMix, UpdateSpec, WorkloadSpec};

/// B1 — PCA latency vs. tuples per relation (rewriting vs. ASP vs. naive).
pub fn table_b1(sizes: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &n in sizes {
        let spec = WorkloadSpec {
            peers: 2,
            tuples_per_relation: n,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let params = format!("tuples={n} violations=2 peers=2");
        rows.extend(run_rewriting(&w, &params));
        rows.extend(run_asp(&w, &params));
        if n <= 40 {
            rows.extend(run_naive(&w, &params));
        }
    }
    rows
}

/// B2 — PCA latency vs. number of peers (star topology).
pub fn table_b2(peer_counts: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &peers in peer_counts {
        let spec = WorkloadSpec {
            peers,
            tuples_per_relation: 10,
            violations_per_dec: 1,
            trust_mix: TrustMix::Mixed,
            topology: Topology::Star,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let params = format!("peers={peers} tuples=10 violations=1");
        rows.extend(run_asp(&w, &params));
        if peers <= 6 {
            rows.extend(run_naive(&w, &params));
        }
    }
    rows
}

/// B3 — PCA latency and number of solutions vs. planted violations.
pub fn table_b3(violation_counts: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &v in violation_counts {
        let spec = WorkloadSpec {
            peers: 2,
            tuples_per_relation: 12,
            violations_per_dec: v,
            trust_mix: TrustMix::AllSame,
            key_constraint_percent: 100,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let params = format!("violations={v} tuples=12 peers=2");
        rows.extend(run_asp(&w, &params));
        if v <= 4 {
            rows.extend(run_naive(&w, &params));
        }
    }
    rows
}

/// B4 — HCF shifting vs. the generic disjunctive solver on the Section 3.1
/// specification program (the optimization of Section 4.1 / Example 3).
pub fn table_b4(witness_counts: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &witnesses in witness_counts {
        // r1 = {(a, b)}, s1 = {(c, b)}, r2 = {}, s2 = {(c, w1) … (c, wk)}.
        let s2: Vec<Tuple> = (0..witnesses)
            .map(|i| Tuple::strs(["c", &format!("w{i}")]))
            .collect();
        let program = section31_program(
            &[Tuple::strs(["a", "b"])],
            &[],
            &[Tuple::strs(["c", "b"])],
            &s2,
        );
        let ground = Grounder::new(&program).ground().expect("groundable");
        assert!(is_head_cycle_free(&ground));
        let params = format!("section31 witnesses={witnesses}");

        let start = Instant::now();
        let shifted = solve_ground(ground.clone(), SolverConfig::default()).expect("solvable");
        rows.push(Measurement {
            mechanism: "hcf-shift",
            params: params.clone(),
            millis: start.elapsed().as_secs_f64() * 1e3,
            answers: 0,
            worlds: shifted.answer_sets.len(),
        });

        let start = Instant::now();
        let generic = DisjunctiveSolver::new(&ground, SolverConfig::default())
            .answer_sets()
            .expect("solvable");
        rows.push(Measurement {
            mechanism: "disjunctive",
            params,
            millis: start.elapsed().as_secs_f64() * 1e3,
            answers: 0,
            worlds: generic.0.len(),
        });
    }
    rows
}

/// B5 — direct vs. transitive answering over chains of peers.
pub fn table_b5(chain_lengths: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &len in chain_lengths {
        let spec = WorkloadSpec {
            peers: len,
            tuples_per_relation: 8,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Chain,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let params = format!("chain={len} tuples=8 violations=1");
        rows.extend(run_asp(&w, &params));
        rows.extend(run_transitive_asp(&w, &params));
    }
    rows
}

/// B6 — peer consistent answering vs. the single-database CQA baseline on
/// the same data and constraints.
pub fn table_b6(sizes: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &n in sizes {
        let spec = WorkloadSpec {
            peers: 2,
            tuples_per_relation: n,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let params = format!("tuples={n} violations=2 peers=2");
        rows.extend(run_asp(&w, &params));
        // The single-database baseline ignores peer boundaries and trust, so
        // *every* tuple of the other peer becomes an inclusion violation and
        // the repair space explodes; keep it to the small sizes (that blow-up
        // is exactly the observation the table records).
        if n <= 10 {
            rows.extend(run_cqa_baseline(&w, &params));
        }
    }
    rows
}

/// B7 — answer-set engine micro-benchmarks on the generated specification
/// programs: grounding time vs. solving time.
pub fn table_b7(sizes: &[usize]) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for &n in sizes {
        let spec = WorkloadSpec {
            peers: 2,
            tuples_per_relation: n,
            violations_per_dec: 2,
            trust_mix: TrustMix::AllLess,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let annotated = annotated_program(&w.system, &w.queried_peer).expect("spec");
        let params = format!("spec-program tuples={n}");

        let start = Instant::now();
        let ground = Grounder::new(&annotated.program).ground().expect("ground");
        rows.push(Measurement {
            mechanism: "grounding",
            params: params.clone(),
            millis: start.elapsed().as_secs_f64() * 1e3,
            answers: ground.atom_count(),
            worlds: ground.rule_count(),
        });

        let shifted_ground = ground.clone();
        let start = Instant::now();
        let result = if shifted_ground.is_disjunctive() {
            solve_ground(shifted_ground, SolverConfig::default()).expect("solve")
        } else {
            let (sets, nodes) = NormalSolver::new(&shifted_ground, SolverConfig::default())
                .answer_sets()
                .expect("solve");
            datalog::SolveResult {
                ground: shifted_ground,
                answer_sets: sets,
                branch_nodes: nodes,
                used_shift: false,
            }
        };
        rows.push(Measurement {
            mechanism: "solving",
            params,
            millis: start.elapsed().as_secs_f64() * 1e3,
            answers: result.branch_nodes,
            worlds: result.answer_sets.len(),
        });
    }
    rows
}

/// B8 — sustained query throughput under a mutation stream: fresh engines
/// vs. full cache flushes vs. closure-based incremental invalidation.
pub fn table_b8(stream_lengths: &[usize]) -> Vec<LiveMeasurement> {
    let mut rows = Vec::new();
    for &batches in stream_lengths {
        let spec = WorkloadSpec {
            peers: 4,
            tuples_per_relation: 10,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Star,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let stream = match generate_updates(
            &w,
            &UpdateSpec {
                batches,
                batch_size: 2,
                ..UpdateSpec::default()
            },
        ) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("skipping sweep point (batches={batches}): {e}");
                continue;
            }
        };
        let params = format!("peers=4 batches={batches} rate=2");
        for mode in [LiveMode::Cold, LiveMode::FullFlush, LiveMode::Incremental] {
            rows.extend(run_live(
                &w,
                &stream,
                pdes_core::engine::Strategy::Asp,
                mode,
                4,
                &params,
            ));
        }
    }
    rows
}

/// B11 — incremental commits on the star workload: cold engines vs. full
/// flushes vs. closure-based invalidation (drop + full slice re-ground) vs.
/// the delta-driven incremental patch, with the warm-after-commit
/// re-derivation counters.
pub fn table_b11(peer_counts: &[usize]) -> Vec<LiveMeasurement> {
    let mut rows = Vec::new();
    for &peers in peer_counts {
        let spec = WorkloadSpec {
            peers,
            tuples_per_relation: 10,
            violations_per_dec: 1,
            trust_mix: TrustMix::AllLess,
            topology: Topology::Star,
            ..WorkloadSpec::default()
        };
        let w = match generate(&spec) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("skipping sweep point ({spec}): {e}");
                continue;
            }
        };
        let stream = match generate_updates(
            &w,
            &UpdateSpec {
                batches: 8,
                batch_size: 2,
                ..UpdateSpec::default()
            },
        ) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("skipping sweep point (peers={peers}): {e}");
                continue;
            }
        };
        let params = format!("star peers={peers} batches=8 rate=2");
        for mode in [
            LiveMode::Cold,
            LiveMode::FullFlush,
            LiveMode::Invalidate,
            LiveMode::Incremental,
        ] {
            rows.extend(run_live(
                &w,
                &stream,
                pdes_core::engine::Strategy::Asp,
                mode,
                4,
                &params,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b1_rows_cover_all_mechanisms_for_small_sizes() {
        let rows = table_b1(&[6]);
        let mechanisms: Vec<&str> = rows.iter().map(|r| r.mechanism).collect();
        assert!(mechanisms.contains(&"rewriting"));
        assert!(mechanisms.contains(&"asp"));
        assert!(mechanisms.contains(&"naive-solutions"));
        // All mechanisms agree on the answer count.
        let answers: Vec<usize> = rows.iter().map(|r| r.answers).collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn b4_shift_and_disjunctive_agree_on_world_count() {
        let rows = table_b4(&[2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].worlds, rows[1].worlds);
    }

    #[test]
    fn b5_transitive_runs_on_short_chain() {
        let rows = table_b5(&[3]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn b8_covers_all_three_live_modes() {
        let rows = table_b8(&[3]);
        let modes: Vec<LiveMode> = rows.iter().map(|r| r.mode).collect();
        assert!(modes.contains(&LiveMode::Cold));
        assert!(modes.contains(&LiveMode::FullFlush));
        assert!(modes.contains(&LiveMode::Incremental));
        // Every mode answers the same number of queries on the same stream.
        let counts: Vec<usize> = rows.iter().map(|r| r.queries).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn b11_incremental_rederives_strictly_fewer_rules_than_the_full_slice() {
        let rows = table_b11(&[4]);
        assert_eq!(rows.len(), 4);
        let by_mode = |mode: LiveMode| rows.iter().find(|r| r.mode == mode).unwrap();
        let invalidate = by_mode(LiveMode::Invalidate);
        let incremental = by_mode(LiveMode::Incremental);
        assert!(incremental.patched > 0);
        // The acceptance bar: warm-after-commit patches re-derive strictly
        // fewer rules than full slice re-grounding on the star workload.
        assert!(incremental.regrounded_rules < invalidate.regrounded_rules);
        assert!(incremental.slice_rules > 0);
    }

    #[test]
    fn b7_reports_grounding_and_solving() {
        let rows = table_b7(&[6]);
        let mechanisms: Vec<&str> = rows.iter().map(|r| r.mechanism).collect();
        assert_eq!(mechanisms, vec!["grounding", "solving"]);
    }
}
