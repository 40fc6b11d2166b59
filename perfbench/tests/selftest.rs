//! Self-tests of the benchmark at tiny input sizes: every workload answers
//! correctly, prints exactly the metrics `BENCHMARK.json` lists, and its
//! exact work counts repeat at a fixed seed.

use perfbench::inputs::Size;
use perfbench::stats::Outcome;
use perfbench::{run, Config, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let config = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        out_dir: None,
    };
    run(&config).unwrap_or_else(|e| panic!("{workload} failed: {e}"))
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_printed() {
    assert_eq!(listed_names("workloads"), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(listed_names("end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(listed_names("per_layer"), layers);
}

#[test]
fn tiny_runs_pass_and_print_exactly_the_listed_metrics() {
    for workload in WORKLOADS {
        for (trace, expected) in [
            (false, listed_names("end_to_end")),
            (true, listed_names("per_layer")),
        ] {
            let outcome = tiny(workload, 5, trace);
            assert!(outcome.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(
                outcome.failed, 0,
                "{workload} (trace {trace}) failed checks"
            );
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, expected, "{workload} (trace {trace})");
            let line = outcome.to_json();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let outcome = tiny(workload, 9, false);
        for metric in &outcome.metrics {
            assert!(
                metric.value > 0.0,
                "{workload}: {} is {}",
                metric.name,
                metric.value
            );
        }
    }
}

#[test]
fn exact_counts_repeat_at_a_fixed_seed() {
    let counts = [
        "ground.rules",
        "solve.branch_nodes",
        "asp.worlds",
        "patch.reinstantiated_rules",
    ];
    for workload in WORKLOADS {
        let (a, b) = (tiny(workload, 11, true), tiny(workload, 11, true));
        for name in counts {
            assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
        }
        assert!(
            value(&a, "ground.rules") > 0.0,
            "{workload}: nothing grounded"
        );
        let (a, b) = (tiny(workload, 11, false), tiny(workload, 11, false));
        assert_eq!(
            value(&a, "cache_bytes"),
            value(&b, "cache_bytes"),
            "{workload}"
        );
    }
    let commits = tiny("commit-stream", 11, true);
    assert!(value(&commits, "patch.reinstantiated_rules") > 0.0);
}
