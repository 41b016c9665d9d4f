//! Failure-domain-aware block placement for contributory storage.
//!
//! The paper's desktop-grid setting is exactly the environment where nodes do
//! *not* fail independently: a lab powers down, a switch dies, a building
//! loses power.  Uniform DHT placement happily concentrates several blocks of
//! one chunk in the same lab — and the first whole-lab outage then costs more
//! blocks than the erasure code tolerates.  This crate provides the placement
//! subsystem that prevents that:
//!
//! * [`Topology`] — the rack/lab → node grouping with per-node domain
//!   lookup, built synthetically from a seed or derived from a session trace;
//!   clones share the domain list, so the failure detector in
//!   `peerstripe-repair` holds its own;
//! * [`PlacementStrategy`] — the pluggable target-selection policy, with
//!   [`OverlayRandom`] (the paper's oblivious DHT behaviour, extracted),
//!   [`DomainSpread`] (no chunk keeps more than its tolerable losses in any
//!   one domain, with a capacity-aware fallback), and [`CapacityWeighted`]
//!   implementations;
//! * [`SpreadReport`] — accounting of the diversity a deployment actually
//!   achieved (worst per-domain concentration, cap violations);
//! * [`ClusterView`] / [`ProbeView`] — the narrow cluster interface the
//!   strategies consult, implemented by `peerstripe_core::StorageCluster`;
//! * [`DomainIndex`] — per-node liveness and free room laid out by
//!   domain, with each domain's freest member at the root of a max tree,
//!   which a cluster keeps current and lends to [`DomainSpread`] so its
//!   decisions stop walking every node.
//!
//! `peerstripe-core` routes the client's chunk placement and recovery
//! re-placement through these strategies; `peerstripe-repair` routes the
//! maintenance engine's regeneration targets through them and draws
//! correlated whole-domain outages over the same [`Topology`]; the
//! `repro placement-sweep` experiment compares the strategies under grouped
//! churn.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod index;
pub mod report;
pub mod strategy;
pub mod topology;

pub use index::{DomainIndex, NodeState};
pub use report::SpreadReport;
pub use strategy::{
    CapacityWeighted, ClusterView, DomainSpread, OverlayRandom, PlacementStrategy, ProbeView,
    RepairRequest, StrategyKind,
};
pub use topology::{Domain, DomainId, Topology};
