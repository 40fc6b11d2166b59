//! The closed-loop client of the two read workloads: one caller that sends
//! its next query only after the previous answer arrived.

use crate::inputs::{Answer, QueryOp};
use crate::replay::Replayer;
use crate::stats::{self, Checks};
use crate::trace::Tracer;
use pdes_core::QueryEngine;
use std::time::{Duration, Instant};

pub struct Client<'a> {
    engines: &'a [QueryEngine],
    /// One per engine; used to check answers and, when tracing, to
    /// attribute each operation to its layers.
    replayers: Vec<Replayer>,
    /// Flush the engine's cache before every query, outside the timer.
    cold: bool,
    next_op: u64,
}

impl<'a> Client<'a> {
    pub fn new(engines: &'a [QueryEngine], cold: bool) -> Result<Self, String> {
        let replayers = engines
            .iter()
            .map(Replayer::for_engine)
            .collect::<Result<_, _>>()?;
        Ok(Client {
            engines,
            replayers,
            cold,
            next_op: 0,
        })
    }

    /// A client over `engines` that keeps the worlds `replayers` prepared.
    pub fn resume(engines: &'a [QueryEngine], replayers: Vec<Replayer>, cold: bool) -> Self {
        Client {
            engines,
            replayers,
            cold,
            next_op: 0,
        }
    }

    /// Answer one operation and check it against `expected` when given, and
    /// against the replay when tracing. Returns the latency in milliseconds
    /// and the answer (`None` when the engine failed).
    pub fn step(
        &mut self,
        tr: &mut Tracer,
        op: &QueryOp,
        expected: Option<&Answer>,
        checks: &mut Checks,
    ) -> (f64, Option<Answer>) {
        let engine = &self.engines[op.engine];
        if self.cold {
            engine.flush_cache();
        }
        self.next_op += 1;
        tr.begin_op(self.next_op);
        let start = Instant::now();
        let result = tr.span("engine.answer", |_| op.answer(engine));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let answers = match result {
            Ok(answers) => answers,
            Err(e) => {
                eprintln!("query {:?} failed: {e}", op.query);
                checks.record(false);
                return (ms, None);
            }
        };
        let mut ok = expected.is_none_or(|want| *want == answers.tuples);
        if tr.enabled() {
            let hit = answers.stats.cache_hit;
            let replayed = tr.span("replay", |tr| {
                self.replayers[op.engine].answer(tr, engine, op, hit)
            });
            if replayed.as_ref() != Ok(&answers.tuples) {
                eprintln!(
                    "replay disagrees with the engine on {:?}: {replayed:?}",
                    op.query
                );
                ok = false;
            }
        }
        checks.record(ok);
        (ms, Some(answers.tuples))
    }

    /// Answer every operation once. Returns the total engine time in
    /// milliseconds and the answers.
    pub fn warm_up(
        &mut self,
        tr: &mut Tracer,
        rotation: &[QueryOp],
        checks: &mut Checks,
    ) -> (f64, Vec<Answer>) {
        let mut total_ms = 0.0;
        let mut answers = Vec::with_capacity(rotation.len());
        for op in rotation {
            let (ms, answer) = self.step(tr, op, None, checks);
            total_ms += ms;
            answers.push(answer.unwrap_or_default());
        }
        (total_ms, answers)
    }

    /// Check answers recorded untraced against a replay that prepares every
    /// slice afresh.
    pub fn validate(&mut self, rotation: &[QueryOp], answers: &[Answer], checks: &mut Checks) {
        let mut quiet = Tracer::new(false, Instant::now());
        for (op, answer) in rotation.iter().zip(answers) {
            let engine = &self.engines[op.engine];
            let replayed = self.replayers[op.engine].answer(&mut quiet, engine, op, false);
            let ok = replayed.as_ref() == Ok(answer);
            if !ok {
                eprintln!(
                    "replay disagrees with the engine on {:?}: {replayed:?}",
                    op.query
                );
            }
            checks.record(ok);
        }
    }

    /// Answer the rotation again and again until `window` has passed.
    /// Rotations run in groups of [`stats::REPEATS`], each group after a
    /// calibration; every query's sample is its fastest time within the
    /// group, in reference-host milliseconds. Returns the samples.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        rotation: &[QueryOp],
        expected: &[Answer],
        window: Duration,
        checks: &mut Checks,
    ) -> Vec<f64> {
        let start = Instant::now();
        let mut samples = Vec::new();
        while start.elapsed() < window {
            let slowdown = stats::slowdown();
            let group: Vec<Vec<f64>> = (0..stats::REPEATS)
                .map(|_| {
                    rotation
                        .iter()
                        .zip(expected)
                        .map(|(op, want)| self.step(tr, op, Some(want), checks).0 / slowdown)
                        .collect()
                })
                .collect();
            samples.extend(stats::fastest_of(&group, stats::REPEATS));
        }
        samples
    }

    /// The replayers, with every slice they prepared.
    pub fn into_replayers(self) -> Vec<Replayer> {
        self.replayers
    }
}
