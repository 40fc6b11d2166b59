//! Order statistics, the result line and process memory.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Time of one calibration pass on the reference host at full speed (a
/// 2.1 GHz virtual CPU), in milliseconds.
pub const REFERENCE_PASS_MS: f64 = 1.35;

/// One pass of the calibration kernel, in milliseconds: building and
/// probing an ordered map of string keys, the allocation and
/// pointer-chasing mix the engine's own structures do. The kernel is part
/// of the benchmark, so changes to the program under test never move it.
pub fn calibration_pass_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut map = std::collections::BTreeMap::new();
    for i in 0..2_000u32 {
        map.insert(format!("k_{}_{}", i % 97, i), vec![i; 4]);
    }
    let hits = (0..4_000u32)
        .filter(|i| map.contains_key(&format!("k_{}_{}", i % 97, i / 2)))
        .count();
    std::hint::black_box((map, hits));
    start.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host this one runs right now: the
/// fastest of three calibration passes over [`REFERENCE_PASS_MS`]. Shared
/// hosts change speed by up to half again over periods of seconds, for all
/// code alike; timings divided by this factor are in reference-host
/// milliseconds and stay comparable from run to run.
pub fn slowdown() -> f64 {
    (0..3)
        .map(|_| calibration_pass_ms())
        .fold(f64::INFINITY, f64::min)
        / REFERENCE_PASS_MS
}

/// Consecutive repetitions of the same operation that one latency sample
/// is the fastest of.
pub const REPEATS: usize = 5;

/// Throughput and latency over a set of latency samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Operations per second of time spent in them.
    pub rate: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
}

impl Summary {
    pub fn of(latencies_ms: &[f64]) -> Summary {
        Summary {
            rate: ratio(latencies_ms.len() as f64 * 1e3, latencies_ms.iter().sum()),
            p50_ms: quantile(latencies_ms, 0.5),
            p95_ms: quantile(latencies_ms, 0.95),
        }
    }
}

/// Fold repeated passes over the same operations into one sample per
/// operation and group: consecutive passes are grouped `group` at a time
/// (the last group may be shorter) and each operation keeps its fastest
/// time within the group. The host's speed varies from moment to moment
/// under other tenants' load; interference only ever slows an operation
/// down, so the fastest of several identical runs follows the code.
pub fn fastest_of(passes: &[Vec<f64>], group: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for chunk in passes.chunks(group.max(1)) {
        let width = chunk.iter().map(Vec::len).min().unwrap_or(0);
        out.extend((0..width).map(|i| chunk.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min)));
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The single-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; `ok` is false when it errored or its answer was
    /// wrong.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fastest_of_takes_the_minimum_per_operation_and_group() {
        let passes = vec![vec![3.0, 1.0], vec![2.0, 4.0], vec![5.0, 5.0]];
        assert_eq!(fastest_of(&passes, 2), vec![2.0, 1.0, 5.0, 5.0]);
        assert_eq!(Summary::of(&[1.0, 3.0]).rate, 500.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "query_ms.p50",
                unit: "ms",
                value: 1.234567891,
            }],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"query_ms.p50\": {\"value\": 1.234567891, \"unit\": \"ms\"}}}"
        );
    }
}
