//! A string-world reference for the engine's certain answers, built from
//! public APIs only: every world is a string `Database`, and the answer is
//! the intersection of `QueryEvaluator`'s answers over all worlds (the peer
//! consistent answers of Definition 5).
//!
//! * Naive: `solutions_for`, each solution restricted to the peer.
//! * ASP / transitive ASP: the full (unpruned) specification program,
//!   encoded without a symbol table, solved by `datalog`'s solver
//!   (`AnswerSets::compute`) and decoded by the spec's
//!   `solution_databases`.
//! * Rewriting: the rewritten query over the global instance.
//!
//! A strategy that cannot answer a query (a non-positive query on the ASP
//! or rewriting route, a peer outside the rewritable class) yields `None`,
//! where the engine returns an error.

use datalog::{AnswerSets, SolverConfig};
use pdes_core::asp::{annotated_program_with, transitive_program_with};
use pdes_core::engine::Strategy;
use pdes_core::rewriting::{rewrite_query, supports_query};
use pdes_core::{solutions_for, P2PSystem, PeerId, SolutionOptions};
use relalg::query::{Formula, QueryEvaluator};
use relalg::{Database, Tuple};
use std::collections::BTreeSet;

/// The reference certain answers of `query` posed to `peer` under one
/// built-in strategy (not `Auto`), or `None` where the engine errors.
pub fn reference_answers(
    system: &P2PSystem,
    strategy: Strategy,
    peer: &PeerId,
    query: &Formula,
    free_vars: &[String],
) -> Option<BTreeSet<Tuple>> {
    let worlds = match strategy {
        Strategy::Rewriting => {
            let rewritten = rewrite_query(system, peer, query).ok()?;
            let global = system.global_instance().ok()?;
            return QueryEvaluator::new(&global)
                .answers(&rewritten, free_vars)
                .ok();
        }
        Strategy::Naive => solutions_for(system, peer, SolutionOptions::default())
            .ok()?
            .iter()
            .map(|solution| system.restrict_to_peer(&solution.database, peer))
            .collect::<Result<Vec<Database>, _>>()
            .ok()?,
        Strategy::Asp | Strategy::TransitiveAsp if !supports_query(query) => return None,
        Strategy::Asp => {
            let spec = annotated_program_with(system, peer, None).ok()?;
            let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).ok()?;
            spec.solution_databases(&sets).ok()?
        }
        Strategy::TransitiveAsp => {
            let spec = transitive_program_with(system, peer, None).ok()?;
            let sets = AnswerSets::compute(&spec.program, SolverConfig::default()).ok()?;
            spec.solution_databases(system, &sets).ok()?
        }
        other => panic!("no reference for {other:?}"),
    };
    let mut certain: Option<BTreeSet<Tuple>> = None;
    for world in &worlds {
        let these = QueryEvaluator::new(world).answers(query, free_vars).ok()?;
        certain = Some(match certain {
            None => these,
            Some(acc) => acc.intersection(&these).cloned().collect(),
        });
    }
    Some(certain.unwrap_or_default())
}
