//! Prints the B1–B14 experiment tables (see DESIGN.md and EXPERIMENTS.md),
//! or runs the CI perf-smoke gate.
//!
//! Usage:
//!
//! * `cargo run -p pdes-bench --release --bin harness [--quick]` — the
//!   tables (`--quick` shrinks every sweep);
//! * `cargo run -p pdes-bench --release --bin harness -- --smoke
//!   [--out PATH] [--baseline PATH] [--trace PATH]` — run the small fixed
//!   smoke workload, write the metrics to `BENCH_smoke.json` (or `--out`),
//!   optionally write the traced sub-workload's Chrome trace-event JSON to
//!   `--trace` (open it in `chrome://tracing` / Perfetto), and exit
//!   non-zero if any metric tracked by the committed baseline regressed
//!   more than 2x. `--baseline` defaults to
//!   `crates/bench/baselines/BENCH_smoke.json`.

use pdes_bench::experiments;
use pdes_bench::smoke::{run_smoke_traced, SmokeReport};
use pdes_bench::{
    render_grounding_table, render_incremental_table, render_live_table, render_mvcc_table,
    render_obs_table, render_parallel_table, render_shard_table, render_table,
};
use std::path::PathBuf;
use std::process::ExitCode;

/// Sweep parameters of the eleven tables.
type Sweeps = (
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke_gate(&args);
    }
    let quick = args.iter().any(|a| a == "--quick");

    #[rustfmt::skip]
    let (b1_sizes, b2_peers, b3_viol, b4_wit, b5_chain, b6_sizes, b7_sizes, b8_batches, b9_workers, b10_peers, b11_peers): Sweeps =
        if quick {
            (
                vec![10, 20],
                vec![2, 4],
                vec![1, 2],
                vec![2, 4],
                vec![2, 3],
                vec![10, 20],
                vec![10, 20],
                vec![4],
                vec![1, 2],
                vec![2, 4],
                vec![4],
            )
        } else {
            (
                vec![10, 20, 40, 80, 160],
                vec![2, 4, 6, 8],
                vec![1, 2, 4, 6],
                vec![2, 4, 6, 8],
                vec![2, 3, 4, 5],
                vec![10, 20, 40, 80],
                vec![10, 20, 40, 80],
                vec![4, 8, 16],
                vec![1, 2, 4, 8],
                vec![2, 4, 6, 8],
                vec![4, 6, 8],
            )
        };

    println!("Peer-to-peer data exchange — experiment harness");
    println!("(one run per point)");

    print!(
        "{}",
        render_table(
            "B1: PCA latency vs. tuples per relation",
            &experiments::table_b1(&b1_sizes)
        )
    );
    print!(
        "{}",
        render_table(
            "B2: PCA latency vs. number of peers (star)",
            &experiments::table_b2(&b2_peers)
        )
    );
    print!(
        "{}",
        render_table(
            "B3: PCA latency vs. planted violations (key conflicts)",
            &experiments::table_b3(&b3_viol)
        )
    );
    print!(
        "{}",
        render_table(
            "B4: HCF shifting vs. generic disjunctive solving (Section 4.1)",
            &experiments::table_b4(&b4_wit)
        )
    );
    print!(
        "{}",
        render_table(
            "B5: direct vs. transitive answering (chain topology)",
            &experiments::table_b5(&b5_chain)
        )
    );
    print!(
        "{}",
        render_table(
            "B6: P2P answering vs. single-database CQA baseline",
            &experiments::table_b6(&b6_sizes)
        )
    );
    print!(
        "{}",
        render_table(
            "B7: answer-set engine micro-benchmarks (grounding / solving)",
            &experiments::table_b7(&b7_sizes)
        )
    );
    print!(
        "{}",
        render_live_table(
            "B8: query throughput under a mutation stream (cold / flush / incremental)",
            &experiments::table_b8(&b8_batches)
        )
    );
    print!(
        "{}",
        render_parallel_table(
            "B9: batched answering throughput vs. worker count (disjoint closures)",
            &pdes_bench::parallel::table_b9(&b9_workers)
        )
    );
    print!(
        "{}",
        render_grounding_table(
            "B10: full vs. relevance-pruned grounding (star topology)",
            &pdes_bench::grounding::table_b10(&b10_peers)
        )
    );
    print!(
        "{}",
        render_incremental_table(
            "B11: incremental commits (cold / flush / invalidate / patch, star topology)",
            &experiments::table_b11(&b11_peers)
        )
    );
    let (b12_peers, b12_warm) = if quick {
        (vec![2], 20)
    } else {
        (vec![2, 4], 100)
    };
    print!(
        "{}",
        render_obs_table(
            "B12: per-phase span latency percentiles (TraceRecorder histograms)",
            &pdes_bench::obs::table_b12(&b12_peers, b12_warm)
        )
    );
    let b13_closures = if quick { vec![2, 4] } else { vec![2, 4, 8] };
    print!(
        "{}",
        render_shard_table(
            "B13: cross-shard query latency vs. closure size (sharded store)",
            &pdes_bench::sharding::table_b13(&b13_closures, &[1, 2, 4])
        )
    );
    let (b14_readers, b14_window_ms) = if quick {
        (vec![1, 4], 150)
    } else {
        (vec![1, 2, 4, 8], 400)
    };
    print!(
        "{}",
        render_mvcc_table(
            "B14: reader latency/throughput under a sustained writer (MVCC epochs)",
            &pdes_bench::mvcc::table_b14(&b14_readers, b14_window_ms)
        )
    );
    ExitCode::SUCCESS
}

/// Value of a `--flag PATH` argument, if present.
fn flag_value(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

/// The `--smoke` mode: run, write the artifact, gate against the baseline.
fn smoke_gate(args: &[String]) -> ExitCode {
    let out = flag_value(args, "--out").unwrap_or_else(|| PathBuf::from("BENCH_smoke.json"));
    let baseline_path = flag_value(args, "--baseline").unwrap_or_else(|| {
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/baselines/BENCH_smoke.json"
        ))
    });

    println!("perf-smoke: running the fixed smoke workload…");
    let (report, trace_json) = match run_smoke_traced() {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perf-smoke: workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace_out) = flag_value(args, "--trace") {
        if let Err(e) = std::fs::write(&trace_out, &trace_json) {
            eprintln!("perf-smoke: cannot write {}: {e}", trace_out.display());
            return ExitCode::FAILURE;
        }
        println!("perf-smoke: wrote trace {}", trace_out.display());
    }
    for (name, value) in &report.metrics {
        println!("  {name} = {value:.3}");
    }
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("perf-smoke: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("perf-smoke: wrote {}", out.display());

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "perf-smoke: cannot read baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match SmokeReport::from_json(&baseline_text) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!(
                "perf-smoke: malformed baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let (lines, pass) = report.compare(&baseline);
    println!(
        "perf-smoke: comparing against {} (fail above {}x):",
        baseline_path.display(),
        pdes_bench::smoke::REGRESSION_FACTOR
    );
    for line in lines {
        println!("  {line}");
    }
    if pass {
        println!("perf-smoke: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf-smoke: FAIL — tracked metric regressed beyond the threshold");
        ExitCode::FAILURE
    }
}
