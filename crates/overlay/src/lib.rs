//! A Pastry-semantics structured p2p overlay simulator.
//!
//! The paper's storage system (and its PAST/CFS baselines) sit on top of the
//! Pastry distributed hash table: every participant gets a uniformly random
//! identifier, every stored object a key in the same circular space, and a key
//! is mapped to the live node with the numerically closest identifier.  This
//! crate reproduces the pieces of Pastry the evaluation depends on:
//!
//! * [`id::Id`] — the circular identifier space and hashing;
//! * [`ring::IdRing`] — the live-membership ring, a sorted id table with
//!   liveness marks and a radix index that finds a key's slot in one read:
//!   key-to-node routing (numerically closest live id), replica-set and
//!   failure-takeover queries;
//! * [`node`] — participants with synthetic network coordinates (the proximity
//!   metric behind Pastry's locality properties);
//! * [`network::OverlaySim`] — the node-population simulator with join/failure
//!   churn and lookup counts, standing in for FreePastry's simulator mode.
//!
//! Routing is modelled by its result, not its path: every experiment charges
//! a lookup by count, so no hop-by-hop prefix routing is simulated.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod id;
pub mod network;
pub mod node;
pub mod ring;

pub use id::{Id, IdHasher};
pub use network::{OverlaySim, OverlayStats};
pub use node::{Coord, NodeInfo};
pub use ring::{IdRing, NodeRef, Takeover};
