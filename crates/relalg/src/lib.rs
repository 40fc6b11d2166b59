//! # relalg — in-memory relational substrate
//!
//! This crate provides the relational machinery on which the peer-to-peer
//! data exchange semantics of Bertossi & Bravo (EDBT 2004) is built:
//!
//! * [`Value`], [`Tuple`] — the data model (shared, possibly infinite domain);
//! * [`RelationSchema`], [`Schema`] — relation signatures, per-peer schemas
//!   and their unions (the paper's `R(P)` and `R̄(P)`);
//! * [`Relation`], [`Database`] — finite instances as ordered tuple sets;
//! * [`delta::Delta`] — the symmetric difference `Δ(r1, r2)` of Definition 1
//!   together with the `≤_r` comparison used to define repairs and solutions;
//! * [`query`] — first-order queries and their active-domain evaluation;
//! * [`intern`], [`columnar`] — the interned, columnar data plane: a
//!   [`SymbolTable`] mapping distinct values and names to dense `u32`
//!   [`Symbol`]s, column-block relation storage, and hash-join / semi-join
//!   kernels ([`CqPlan`]) operating on ids with string materialization only
//!   at the answer boundary.
//!
//! The crate is deliberately free of any peer-to-peer notions: it only knows
//! about relations, instances and queries. Constraints live in the
//! `constraints` crate, repairs in `repair`, and the peer semantics in
//! `pdes-core`.
//!
//! ## Example
//!
//! ```
//! use relalg::{Database, Relation, RelationSchema, Tuple, Value};
//! use relalg::query::{Formula, QueryEvaluator};
//!
//! let schema = RelationSchema::new("R1", &["a", "b"]);
//! let mut db = Database::new();
//! db.add_relation(Relation::new(schema.clone()));
//! db.insert("R1", Tuple::from(vec![Value::str("a"), Value::str("b")])).unwrap();
//! db.insert("R1", Tuple::from(vec![Value::str("c"), Value::str("d")])).unwrap();
//!
//! // ∃y R1(x, y) — project the first column.
//! let q = Formula::exists(vec!["Y"], Formula::atom("R1", vec!["X", "Y"]));
//! let eval = QueryEvaluator::new(&db);
//! let answers = eval.answers(&q, &["X".to_string()]).unwrap();
//! assert_eq!(answers.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod columnar;
pub mod database;
pub mod delta;
pub mod error;
pub mod intern;
pub mod query;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use columnar::{ColumnarDatabase, ColumnarRelation, CqPlan, WorldSet};
pub use database::Database;
pub use delta::{Delta, DeltaOrdering};
pub use error::RelalgError;
pub use intern::{Symbol, SymbolTable};
pub use relation::Relation;
pub use schema::{RelationSchema, Schema};
pub use tuple::Tuple;
pub use value::Value;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, RelalgError>;
