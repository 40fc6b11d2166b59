//! The loopback transport between a [`ShardedStore`](crate::ShardedStore)
//! coordinator and its shard workers.
//!
//! The wire vocabulary is deliberately small and value-oriented: a
//! [`ShardRequest`] carries owned data down to a worker, and the worker
//! acknowledges it (or answers with the shard-local
//! [`CoreError`](pdes_core::CoreError)) through the per-request reply
//! channel in the [`Envelope`]; version stamps are the coordinator's alone.
//! Nothing here assumes the in-process channel pair — a networked transport
//! would serialize exactly these frames — but the reproduction ships only
//! the deterministic in-process loopback.
//!
//! [`ShardRequest`] is `#[non_exhaustive]`: the protocol can grow verbs
//! without a breaking release, so match it with a wildcard arm.

use pdes_core::system::PeerId;
use relalg::Delta;
use std::collections::BTreeMap;
use std::sync::mpsc::Sender;

/// A request from the coordinator to one shard worker.
///
/// Every peer named in a request is validated against the coordinator's
/// assignment *before* transport, so a worker only ever sees peers it owns
/// (a violation surfaces as the shard-local `UnknownPeer`, not a hang).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ShardRequest {
    /// Apply a transaction's part for this shard: a delta per peer it owns,
    /// already validated by the coordinator.
    ApplyDelta(BTreeMap<PeerId, Delta>),
    /// Drain-and-exit: the worker stops after this frame (sent by the
    /// coordinator's `Drop`).
    Shutdown,
}

/// One frame on a shard's request queue: the request plus the channel the
/// worker answers on. Each round-trip gets a fresh reply channel, so
/// replies can never cross between interleaved coordinator threads.
///
/// Domain failures travel *inside* the reply as the shard-local
/// [`CoreError`](pdes_core::CoreError); only a dead channel is a transport
/// failure.
pub struct Envelope {
    /// The request to serve.
    pub request: ShardRequest,
    /// Where the worker sends the (single) response.
    pub reply: Sender<pdes_core::Result<()>>,
}

impl Envelope {
    /// A [`ShardRequest::Shutdown`] frame with a reply channel nobody
    /// listens on (the worker exits instead of answering).
    pub fn shutdown() -> Self {
        let (reply, _discard) = std::sync::mpsc::channel();
        Envelope {
            request: ShardRequest::Shutdown,
            reply,
        }
    }
}
