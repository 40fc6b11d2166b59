//! # repair — minimal-change database repairs
//!
//! Definition 1 of the paper (taken from Arenas, Bertossi & Chomicki, PODS
//! 1999) defines a *repair* of an instance `r` w.r.t. a set of integrity
//! constraints `IC` as a consistent instance `r'` whose symmetric difference
//! `Δ(r, r')` is minimal under set inclusion.
//!
//! [`RepairEngine`] enumerates the repairs of an instance w.r.t. a set of
//! [`constraints::Constraint`]s, with an optional set of **protected**
//! relations that may not change. Protected relations are what turns plain
//! repairs into the building block of the paper's peer *solutions*
//! (Definition 4): when a peer trusts another peer more than itself, the
//! other peer's relations are protected during the repair.
//!
//! The search is a conflict-driven exploration: pick a violation, branch on
//! its possible fixes (delete a flexible body tuple, or insert the missing
//! head tuples for some witness), never undo a change already made, and
//! filter the consistent leaves down to the `⊆`-minimal deltas.

#![warn(missing_docs)]

pub mod engine;

pub use engine::{Repair, RepairEngine, RepairError, RepairLimits, RepairOutcome};
