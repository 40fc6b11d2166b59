//! The repository benchmark: three workloads over the query engine, their
//! end-to-end metrics, and a traced run that attributes each operation to
//! the layers it passes through. See `README.md` in this directory.

pub mod inputs;
pub mod replay;
pub mod stats;
pub mod trace;

mod client;
mod cold_prepare;
mod commit_stream;
mod reads;
mod warm_read;

use inputs::Size;
use stats::{ratio, Checks, Metric, Outcome, Summary};
use std::path::PathBuf;
use std::time::Duration;
use trace::{Ledger, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["cold-prepare", "warm-read", "commit-stream"];

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("query_ms.p50", "ms"),
    ("query_ms.p95", "ms"),
    ("op_ms.p50", "ms"),
    ("op_ms.p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cache_bytes", "bytes"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A layer a
/// workload does not pass through reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("engine.answer_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_patched", "count"),
    ("store.pin_us", "us"),
    ("store.hydrate_ms", "ms"),
    ("store.epochs_published", "count"),
    ("store.pins", "count"),
    ("session.apply_ms", "ms"),
    ("session.lateness_ms", "ms"),
    ("asp.encode_ms", "ms"),
    ("asp.decode_ms", "ms"),
    ("asp.worlds", "count"),
    ("relevance.ms", "ms"),
    ("relevance.kept_ratio", "ratio"),
    ("ground.ms", "ms"),
    ("ground.rules", "count"),
    ("ground.atoms", "count"),
    ("patch.ms", "ms"),
    ("patch.reinstantiated_rules", "count"),
    ("patch.ratio", "ratio"),
    ("solve.ms", "ms"),
    ("solve.branch_nodes", "count"),
    ("solve.models_per_node", "ratio"),
    ("columnar.index_ms", "ms"),
    ("columnar.bytes", "bytes"),
    ("cq.compile_us", "us"),
    ("cq.eval_ms", "ms"),
    ("cq.rows_per_answer", "ratio"),
    ("cq.materialize_us", "us"),
    ("cq.materialized_bytes", "bytes"),
    ("fo_eval_ms", "ms"),
    ("rewrite.ms", "ms"),
    ("rewrite.eval_ms", "ms"),
    ("setup.analyze_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its spans and ledger (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What an untraced run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Query throughput and latency (the reader's, on commit-stream).
    pub queries: Summary,
    /// The workload's defining operation: a query, or a commit timed from
    /// its scheduled start on commit-stream.
    pub ops: Summary,
    pub setup_s: Vec<f64>,
    pub cache_bytes: usize,
}

impl Measured {
    fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.queries.rate,
            self.queries.p50_ms,
            self.queries.p95_ms,
            self.ops.p50_ms,
            self.ops.p95_ms,
            stats::median(&self.setup_s),
            stats::peak_rss_mb(),
            self.cache_bytes as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    }
}

/// Turn a traced run's spans, counts and samples into the per-layer metrics.
fn layer_metrics(tracer: &Tracer, ledger: &Ledger) -> Vec<Metric> {
    let span_median = |name: &str| {
        ledger
            .self_ms
            .get(name)
            .map(|v| stats::median(v))
            .unwrap_or(0.0)
    };
    let count = |name: &str| tracer.counts().get(name).copied().unwrap_or(0.0);
    let sample = |name: &str| {
        tracer
            .samples()
            .get(name)
            .map(|v| stats::median(v))
            .unwrap_or(0.0)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "engine.answer_ms" => span_median("engine.answer"),
                "engine.unattributed_ms" => stats::median(&ledger.unattributed_ms),
                "store.pin_us" => span_median("store.pin") * 1e3,
                "store.hydrate_ms" => span_median("store.hydrate"),
                "session.apply_ms" => span_median("session.apply"),
                "asp.encode_ms" => span_median("asp.encode"),
                "asp.decode_ms" => span_median("asp.decode"),
                "relevance.ms" => span_median("relevance"),
                "relevance.kept_ratio" => ratio(
                    count("relevance.kept_rules"),
                    count("relevance.total_rules"),
                ),
                "ground.ms" => span_median("ground"),
                "patch.ms" => span_median("patch"),
                "patch.ratio" => ratio(count("patch.reinstantiated_rules"), count("patch.rules")),
                "solve.ms" => span_median("solve"),
                "solve.models_per_node" => ratio(count("asp.worlds"), count("solve.branch_nodes")),
                "columnar.index_ms" => span_median("columnar.index"),
                "cq.compile_us" => span_median("cq.compile") * 1e3,
                "cq.eval_ms" => span_median("cq.eval"),
                "cq.rows_per_answer" => ratio(count("cq.rows"), count("cq.answers")),
                "cq.materialize_us" => span_median("cq.materialize") * 1e3,
                "fo_eval_ms" => span_median("fo.eval"),
                "rewrite.ms" => span_median("rewrite"),
                "rewrite.eval_ms" => span_median("rewrite.eval"),
                "asp.worlds"
                | "ground.rules"
                | "ground.atoms"
                | "patch.reinstantiated_rules"
                | "solve.branch_nodes"
                | "columnar.bytes"
                | "cq.materialized_bytes" => count(name),
                _ => sample(name),
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// A workload: fills the tracer (when enabled) and returns its untraced
/// measurements plus the tally of checked operations.
type Workload = fn(&Config, &mut Tracer) -> Result<(Measured, Checks), String>;

/// Run one workload and return its result.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let workload: Workload = match config.workload.as_str() {
        "cold-prepare" => cold_prepare::run,
        "warm-read" => warm_read::run,
        "commit-stream" => commit_stream::run,
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let mut tracer = Tracer::new(config.trace, std::time::Instant::now());
    let (measured, checks) = workload(config, &mut tracer)?;
    let metrics = if config.trace {
        let ledger = Ledger::build(&tracer);
        if let Some(dir) = &config.out_dir {
            write_trace(dir, config, &tracer, &ledger)?;
        }
        eprintln!("{}", ledger.render());
        layer_metrics(&tracer, &ledger)
    } else {
        measured.metrics()
    };
    Ok(Outcome {
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    })
}

/// Write the spans (Chrome trace format) and the ledger table of a traced
/// run.
fn write_trace(
    dir: &std::path::Path,
    config: &Config,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<(), String> {
    let stem = format!("{}-seed{}", config.workload, config.seed);
    std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.trace.json")), tracer.chrome_json()))
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.ledger.txt")), ledger.render()))
        .map_err(|e| e.to_string())
}
