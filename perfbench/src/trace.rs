//! In-memory spans, work counters and the per-layer ledger built from them.
//!
//! A [`Tracer`] records one span per call into a layer: its name, start, end,
//! parent span and operation id. Spans stay in memory until the run ends;
//! [`Ledger::build`] then turns them into per-layer self times. A disabled
//! tracer runs the same closures and records nothing, so the untraced run
//! and the traced run share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder plus the two other kinds of per-layer data: exact work
/// counts (summed) and direct samples (kept as a list).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counting: bool,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counting: false,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// An empty tracer for another thread, on the same clock; fold it back
    /// with [`Tracer::merge`].
    pub fn fork(&self) -> Tracer {
        let mut fork = Tracer::new(self.enabled, self.origin);
        fork.counting = self.counting;
        fork
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: later spans carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Work counts only accumulate while counting is on. The workloads turn
    /// it on for operations whose set is fixed by the seed alone (setup
    /// warm-up and the fixed commit stream), so counts repeat exactly.
    pub fn set_counting(&mut self, counting: bool) {
        self.counting = counting;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Add `value` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled && self.counting {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Record one direct sample of `name` (a duration measured outside a
    /// span, or a ratio computed at the end of the run).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Fold another thread's tracer into this one. Operation ids must not
    /// collide; span parents are re-indexed.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        for (name, value) in other.counts {
            *self.counts.entry(name).or_default() += value;
        }
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans named `name` were recorded so far.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    pub fn samples(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.samples
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op,
                span.parent.map(|p| p as i64).unwrap_or(-1),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Spans that wrap a whole operation rather than one layer: the engine or
/// session call being attributed, and the replay that attributes it.
const OP_SPANS: [&str; 2] = ["engine.answer", "session.apply"];
const REPLAY_ROOT: &str = "replay";

/// Per-layer self times, and the unattributed remainder of every replayed
/// operation.
pub struct Ledger {
    /// Self time of each span name, in milliseconds, one entry per span.
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per replayed operation: the operation span's duration minus the self
    /// time of the layer spans replayed for it, in milliseconds.
    pub unattributed_ms: Vec<f64>,
    /// Per replayed operation: the duration of its operation span.
    pub attributed_op_ms: Vec<f64>,
    /// Per replayed operation: the self time of its replayed layer spans.
    pub layer_ms: Vec<f64>,
}

impl Ledger {
    pub fn build(tracer: &Tracer) -> Ledger {
        let spans = tracer.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut self_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        // Per op: the operation span's duration, and the layer self time
        // replayed for it.
        let mut per_op: BTreeMap<u64, (Option<u64>, u64, bool)> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let own = span.duration_ns().saturating_sub(child_ns[i]);
            self_ms.entry(span.name).or_default().push(own as f64 / 1e6);
            let entry = per_op.entry(span.op).or_default();
            if OP_SPANS.contains(&span.name) {
                entry.0 = Some(span.duration_ns());
            } else if span.name == REPLAY_ROOT {
                entry.2 = true;
            } else if span.parent.is_some_and(|p| within_replay(spans, p)) {
                entry.1 += own;
            }
        }
        let mut unattributed_ms = Vec::new();
        let mut attributed_op_ms = Vec::new();
        let mut layer_ms = Vec::new();
        for (op_ns, layer_ns, replayed) in per_op.into_values() {
            if let (Some(op_ns), true) = (op_ns, replayed) {
                unattributed_ms.push((op_ns as f64 - layer_ns as f64) / 1e6);
                attributed_op_ms.push(op_ns as f64 / 1e6);
                layer_ms.push(layer_ns as f64 / 1e6);
            }
        }
        Ledger {
            self_ms,
            unattributed_ms,
            attributed_op_ms,
            layer_ms,
        }
    }

    /// A human-readable table: per span name the self-time median, quartile
    /// spread and count, then the unattributed line and the additivity check
    /// over replayed operations (mean operation time equals the mean layer
    /// time plus the mean unattributed remainder).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>11} {:>11} {:>11} {:>11}",
            "layer (self time)", "count", "median_ms", "p25_ms", "p75_ms", "mean_ms"
        );
        let mut row = |name: &str, values: &[f64]| {
            let _ = writeln!(
                out,
                "{:<22} {:>7} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
                name,
                values.len(),
                crate::stats::quantile(values, 0.5),
                crate::stats::quantile(values, 0.25),
                crate::stats::quantile(values, 0.75),
                crate::stats::mean(values),
            );
        };
        for (name, values) in &self.self_ms {
            row(name, values);
        }
        row("engine.unattributed", &self.unattributed_ms);
        if !self.attributed_op_ms.is_empty() {
            let n = self.attributed_op_ms.len() as f64;
            let op_mean = crate::stats::mean(&self.attributed_op_ms);
            let layers = crate::stats::mean(&self.layer_ms);
            let rest = crate::stats::mean(&self.unattributed_ms);
            let _ = writeln!(
                out,
                "additivity over {n} replayed ops: mean op {op_mean:.4} ms = layers {layers:.4} ms + unattributed {rest:.4} ms",
            );
        }
        out
    }
}

fn within_replay(spans: &[Span], mut index: usize) -> bool {
    loop {
        if spans[index].name == REPLAY_ROOT {
            return true;
        }
        match spans[index].parent {
            Some(parent) => index = parent,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_remainder_adds_up() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.begin_op(1);
        tracer.span("engine.answer", |_| {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        tracer.span(REPLAY_ROOT, |t| {
            t.span("ground", |t| {
                t.span("solve", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                })
            })
        });
        let ledger = Ledger::build(&tracer);
        let ground = ledger.self_ms["ground"][0];
        let solve = ledger.self_ms["solve"][0];
        assert!(solve >= 1.0 && ground < solve);
        let op = ledger.attributed_op_ms[0];
        let rest = ledger.unattributed_ms[0];
        assert!((op - (ground + solve + rest)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        tracer.set_counting(true);
        assert_eq!(tracer.span("ground", |_| 7), 7);
        tracer.count("ground.rules", 3.0);
        assert!(tracer.spans().is_empty() && tracer.counts().is_empty());
    }
}
