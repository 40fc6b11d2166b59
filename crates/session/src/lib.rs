//! # pdes-session — live, versioned P2P data exchange sessions
//!
//! The paper's semantics (Definitions 4 and 5) is defined over a *snapshot*
//! of the peers' instances. This crate lifts the reproduction to peers whose
//! data changes over time, without changing the semantics: at any point, the
//! answers a [`Session`] returns are exactly the peer consistent answers of
//! the current snapshot.
//!
//! ## Model
//!
//! * A [`Session`] wraps a [`pdes_core::QueryEngine`] (and thus a
//!   [`pdes_core::P2PSystem`]) and assigns every peer a monotonically
//!   increasing [`Version`], starting at 0 for the construction-time
//!   instance.
//! * Reads take `&self` and answer against pinned MVCC epochs
//!   ([`pdes_core::Snapshot`]); they are the [`ReadHandle`] methods, which
//!   a [`Session`] reaches through `Deref`. Clone cheap [`ReadHandle`]s
//!   with [`Session::reader`] to query concurrently from any number of
//!   threads. Readers never block on a committing writer.
//! * Mutation goes through the session's single [`Writer`] handle
//!   ([`Session::writer`]): updates are staged in a [`Tx`]
//!   ([`Writer::begin`]) and committed by [`Tx::commit`], all or nothing:
//!   the store publishes one epoch per transaction, so a reader pins a
//!   multi-peer transaction whole or not at all, and the receipt's sequence
//!   number is that epoch. An
//!   update is expressed as a [`relalg::Delta`] — the currency of change
//!   the paper itself introduces in **Definition 1**, where the distance
//!   between two instances is the symmetric difference `Δ(r1, r2)` of their
//!   ground atoms, split here into insertions and deletions relative to the
//!   peer's current instance. Committing a delta moves the peer from one
//!   instance to another whose `Δ` is (at most) the committed one; the
//!   per-peer [`Version`] counts these moves.
//! * At commit, every touched peer's *local* integrity constraints `IC(P)`
//!   are validated against the post-commit instance first, and nothing is
//!   applied unless every check passes. DECs are deliberately **not**
//!   enforced at commit time — inter-peer inconsistency is the paper's
//!   subject matter, resolved virtually at query time, not an error state.
//! * Every effective commit is appended to an update log of
//!   [`CommittedTx`]s; [`ReadHandle::snapshot_at`] replays the log to
//!   reconstruct the system as of any commit sequence number as an
//!   immutable [`pdes_core::Snapshot`], which is also how a fresh reference
//!   engine is built in the equivalence tests.
//!
//! On commit, the session hands the transaction's effective per-peer deltas
//! to [`pdes_core::QueryEngine::commit`] in one call, which publishes one
//! store epoch and drives the engine's incremental invalidation in one
//! pass: only memoized artifacts whose *relevant-peer closure* (the
//! transitive closure of DEC ownership edges) intersects the touched peers
//! are affected at all; queries against peers outside the closure keep
//! their warm cache entries. Affected ASP artifacts are repaired once per
//! transaction *on the committing thread* — the grounding is patched by
//! re-deriving only the rules the deltas touched (`datalog::incremental`;
//! [`pdes_core::CacheMetrics`] counts the repairs in its `patched` field),
//! so post-commit reads are served warm.
//!
//! ## Quickstart
//!
//! ```
//! use pdes_core::system::{example1_system, PeerId};
//! use pdes_core::Query;
//! use pdes_session::Session;
//! use relalg::query::Formula;
//! use relalg::Tuple;
//!
//! let session = Session::new(example1_system());
//! let p2 = PeerId::new("P2");
//! let query = Query::named("P1", Formula::atom("R1", vec!["X", "Y"]), &["X", "Y"]);
//!
//! // Warm query against the initial snapshot — reads take `&self`.
//! let before = session.query(&query).unwrap();
//! assert_eq!(before.len(), 3);
//!
//! // Claim the single writer and commit an update to P2; P1 imports from
//! // P2, so its answers change.
//! let mut writer = session.writer().unwrap();
//! let mut tx = writer.begin();
//! tx.insert(&p2, "R2", Tuple::strs(["x", "y"])).unwrap();
//! let receipt = tx.commit().unwrap();
//! assert_eq!(receipt.seq, 1);
//!
//! let after = session.query(&query).unwrap();
//! assert_eq!(after.len(), 4);
//! assert!(after.contains(&Tuple::strs(["x", "y"])));
//! ```

pub mod error;
pub mod session;

pub use error::SessionError;
pub use session::{CommitReceipt, CommittedTx, ReadHandle, Session, Tx, Update, Version, Writer};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, SessionError>;
