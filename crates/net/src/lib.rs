//! # peerstripe-net — the networked deployment path
//!
//! Everything else in this workspace runs against the in-process simulator;
//! this crate turns the reproduction into a system.  It has three layers:
//!
//! * [`protocol`] — a small length-prefixed framed wire format for the
//!   paper's §3 primitives (`getCapacity` probes, block store/fetch) with a
//!   versioned header, a max-frame limit, and a fixed binary meta record
//!   per message kind;
//! * [`node`] + [`server`] — the `peerstripe-node` daemon: one node's
//!   contributed store served over TCP by a thread-per-connection server
//!   with per-connection timeouts and graceful shutdown;
//! * [`gateway`] — a [`RingGateway`] implementing the same cluster-facing
//!   traits as the simulator (`ClusterView` / `ProbeView` /
//!   `StorageBackend`), so the `PeerStripe` client — store, read and
//!   repair — and the placement strategies drive live daemons unchanged.
//!
//! [`ring`] spawns localhost rings of real daemon processes for experiments
//! and tests; `repro ring` stores and recovers a file across such a ring
//! through a real node kill.
//!
//! Observability runs end-to-end across the wire: the gateway and every
//! [`NodeService`] record each request in an `RpcAccount` (`account.rs`)
//! under their own [`AccountNames`], and every gateway RPC carries a request
//! id that the node echoes and logs, so the two op logs join on it.
//! [`RingGateway::get_stats`] is the one scrape of a node's account (`repro
//! ring` scrapes every daemon before the kill and after the repair); the
//! gateway is the crate's one client, so it is the one place that dials.
//!
//! The crate is deliberately *not* in the deterministic-simulation set: it
//! touches wall clocks and sockets, and says so via audited lint waivers
//! instead of a blanket exemption.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// This crate decodes bytes off the wire: no index may panic on them.
#![deny(clippy::indexing_slicing)]

mod account;
pub mod gateway;
pub mod node;
pub mod protocol;
pub mod ring;
pub mod server;

pub use account::AccountNames;
pub use gateway::{GatewayConfig, NodeEndpoint, RingGateway};
pub use node::{NodeConfig, NodeService};
pub use protocol::{
    NodeStats, OpLogEntry, RemoteError, Request, Response, WireError, MAX_FRAME, VERSION,
};
pub use ring::{node_binary, LocalRing};
pub use server::{NodeServer, RunningNode};

/// Lock `m` even if poisoned: poisoning only marks a thread that panicked
/// while holding it (a gateway RPC, a daemon's connection), and the maps and
/// the store it guards stay consistent enough to serve.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
