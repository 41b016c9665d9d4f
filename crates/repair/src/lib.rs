//! Event-driven churn & repair: the maintenance lifecycle of a contributory
//! store.
//!
//! The paper's reliability story rests on one sentence — "failed participants
//! trigger regeneration of the lost blocks from surviving ones" — and this
//! crate is that sentence made continuous: a [`MaintenanceEngine`] drives a
//! stored deployment through time on the shared discrete-event queue, with
//!
//! * a **churn process** ([`ChurnProcess`]) drawing exponential node
//!   session/downtime lengths, with a configurable fraction of departures
//!   being permanent (the disk never returns);
//! * a **failure detector** ([`Detector`]) that notices departures at probe
//!   boundaries and decides when an absence becomes a permanent-death
//!   declaration: [`DetectionKind::PerNodeTimeout`] judges every node
//!   independently, while [`DetectionKind::OutageAware`] consults the churn
//!   topology and *holds* declarations while a failure domain's members
//!   vanished together — the correlated-absence signature of a lab powering
//!   down — cancelling them wholesale when the domain returns;
//! * a **repair scheduler** ([`RepairScheduler`]) that triggers regeneration
//!   *eagerly* (on first confirmed loss) or *lazily* (only when a chunk's
//!   surviving blocks sink to `needed + k_min`), and charges every transfer
//!   against per-node upload/download [`peerstripe_sim::RateLimiter`] budgets
//!   so concurrent repairs queue and interfere.
//!
//! The engine decides *when* blocks are rebuilt — detection, how many now,
//! from which uploaders, at what bandwidth cost, when to retry — in sizes.
//! *Which* chunks are rebuilt, written off or deferred, *where* a rebuilt
//! block may land and whether it is registered on arrival is one decision
//! owned by [`peerstripe_core::planner`], which the client's
//! `PeerStripe::handle_node_failure` (the one place block payloads are
//! rebuilt) and Table 3 call too.  Bookkeeping is shared through
//! [`peerstripe_core::DamageLedger`]: the engine tells it who went down, came
//! back or was written off and which targets were promised a block, and reads
//! files-unavailable back — the counts Figure 10 and Table 3 are drawn from.
//! The `repro repair-sweep` experiment sweeps policy × detection-timeout ×
//! bandwidth over this engine at up to the paper's 10 000-node scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod detection;
pub mod engine;
pub mod scheduler;

pub use config::{
    BandwidthBudget, ChurnProcess, DetectorConfig, GroupedChurn, RepairConfig, RepairPolicy,
    SessionModel,
};
pub use detection::{
    DeclarationVerdict, DetectionKind, Detector, OutageAwareConfig, PendingDeclaration,
};
pub use engine::{MaintenanceEngine, MaintenanceEvent, MaintenanceReport};
pub use scheduler::{PlannedRepair, RepairScheduler};
