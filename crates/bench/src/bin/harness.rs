//! Runs the CI perf-smoke gate.
//!
//! Usage: `cargo run -p pdes-bench --release --bin harness -- --smoke
//! [--out PATH] [--baseline PATH] [--trace PATH]`
//!
//! Runs the small fixed smoke workload, writes the metrics to
//! `BENCH_smoke.json` (or `--out`), optionally writes the traced
//! sub-workload's Chrome trace-event JSON to `--trace` (open it in
//! `chrome://tracing` / Perfetto), and exits 1 if any metric tracked by the
//! committed baseline regressed. `--baseline` defaults to
//! `crates/bench/baselines/BENCH_smoke.json`. A missing `--smoke`, an
//! unknown argument or a flag without its path prints the usage and exits 2.

use pdes_bench::smoke::{run_smoke_traced, SmokeReport};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: harness --smoke [--out PATH] [--baseline PATH] [--trace PATH]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Options {
    out: PathBuf,
    baseline: PathBuf,
    trace: Option<PathBuf>,
}

/// Parse the arguments after the program name. Every argument must be
/// known and every path flag must carry a path.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut smoke, mut out, mut baseline, mut trace) = (false, None, None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--out" => &mut out,
            "--baseline" => &mut baseline,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let path = args
            .next()
            .filter(|path| !path.starts_with("--"))
            .ok_or_else(|| format!("`{arg}` needs a path"))?;
        *slot = Some(PathBuf::from(path));
    }
    if !smoke {
        return Err("`--smoke` is required".to_string());
    }
    Ok(Options {
        out: out.unwrap_or_else(|| PathBuf::from("BENCH_smoke.json")),
        baseline: baseline.unwrap_or_else(|| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/baselines/BENCH_smoke.json"
            ))
        }),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(options) => smoke_gate(&options),
        Err(e) => {
            eprintln!("harness: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run the smoke workload, write the artifact, gate against the baseline.
fn smoke_gate(options: &Options) -> ExitCode {
    let Options {
        out,
        baseline: baseline_path,
        trace,
    } = options;

    println!("perf-smoke: running the fixed smoke workload…");
    let (report, trace_json) = match run_smoke_traced() {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perf-smoke: workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace_out) = trace {
        if let Err(e) = std::fs::write(trace_out, &trace_json) {
            eprintln!("perf-smoke: cannot write {}: {e}", trace_out.display());
            return ExitCode::FAILURE;
        }
        println!("perf-smoke: wrote trace {}", trace_out.display());
    }
    for (name, value) in &report.metrics {
        println!("  {name} = {value:.3}");
    }
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("perf-smoke: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("perf-smoke: wrote {}", out.display());

    let baseline_text = match std::fs::read_to_string(baseline_path) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn smoke_alone_takes_the_defaults() {
        let options = parse(&["--smoke"]).unwrap();
        assert_eq!(options.out, PathBuf::from("BENCH_smoke.json"));
        assert!(options.baseline.ends_with("baselines/BENCH_smoke.json"));
        assert_eq!(options.trace, None);
    }

    #[test]
    fn path_flags_are_read_in_any_order() {
        let options = parse(&[
            "--out",
            "a.json",
            "--smoke",
            "--trace",
            "t.json",
            "--baseline",
            "b.json",
        ])
        .unwrap();
        assert_eq!(
            options,
            Options {
                out: PathBuf::from("a.json"),
                baseline: PathBuf::from("b.json"),
                trace: Some(PathBuf::from("t.json")),
            }
        );
    }

    #[test]
    fn a_path_flag_without_its_path_is_an_error() {
        assert!(parse(&["--smoke", "--out"]).unwrap_err().contains("--out"));
        assert!(parse(&["--smoke", "--trace", "--out", "a.json"])
            .unwrap_err()
            .contains("--trace"));
    }

    #[test]
    fn unknown_arguments_and_a_missing_smoke_are_errors() {
        assert!(parse(&["--smoke", "--baselin", "x"])
            .unwrap_err()
            .contains("--baselin"));
        assert!(parse(&["--quick"]).unwrap_err().contains("--quick"));
        assert!(parse(&[]).unwrap_err().contains("--smoke"));
        assert!(parse(&["--out", "a.json"]).unwrap_err().contains("--smoke"));
    }
}
