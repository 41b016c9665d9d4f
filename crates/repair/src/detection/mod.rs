//! The pluggable failure-detection layer: policies that turn node absences
//! into (or hold back) permanent-death declarations.
//!
//! The maintenance engine does not own a concrete detector; it owns a
//! [`DetectionPolicy`] trait object and consults it at three moments:
//!
//! 1. **Departure** — [`DetectionPolicy::node_down`] records the absence and
//!    returns the [`PendingDeclaration`] to schedule (when the departure is
//!    noticed at a probe boundary, and when the permanence timeout expires).
//! 2. **Declaration** — when the scheduled declaration event fires,
//!    [`DetectionPolicy::decide`] returns a [`DeclarationVerdict`]: cancel a
//!    stale event, declare the node dead now, or *hold* the declaration and
//!    re-check later (the outage-aware path).
//! 3. **Return** — [`DetectionPolicy::node_up`] bumps the node's generation so
//!    every pending or held declaration of the finished down period dies.
//!
//! Two policies ship: [`PerNodeTimeout`], the classic per-node permanence
//! timeout (the pre-refactor `FailureDetector` behaviour, extracted verbatim —
//! fixed-seed runs are byte-identical), and [`OutageAware`], which consults a
//! shared [`peerstripe_placement::DomainView`] and holds declarations while
//! most of a failure domain is absent — the correlated-absence signature of a
//! lab powering down — instead of writing off every member independently.

use crate::config::DetectorConfig;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::DomainView;
use peerstripe_sim::SimTime;
use serde::{Deserialize, Serialize};

mod outage_aware;
mod per_node;

pub use outage_aware::{OutageAware, OutageAwareConfig};
pub use per_node::PerNodeTimeout;

/// A pending declaration handed back by [`DetectionPolicy::node_down`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDeclaration {
    /// The down generation this declaration belongs to.
    pub generation: u64,
    /// When the node is first noticed as down.
    pub detected_at: SimTime,
    /// When the node should be declared permanently dead if still away.
    pub declare_at: SimTime,
}

/// What to do when a scheduled declaration event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclarationVerdict {
    /// The event is stale (the node returned in the meantime); drop it.
    Cancel,
    /// Declare the node permanently dead now and write off its blocks.
    Declare,
    /// Correlated absence detected: hold the declaration and re-decide at
    /// `until`.  The engine reschedules the same declaration event; a return
    /// before then cancels it through the generation guard.
    Hold {
        /// When to re-evaluate the held declaration.
        until: SimTime,
    },
}

/// The failure-detection policy the maintenance engine drives.
///
/// Implementations must be deterministic functions of the call sequence (no
/// internal randomness): the engine's fixed-seed reproducibility depends on
/// it.
pub trait DetectionPolicy: std::fmt::Debug + Send {
    /// The detector's timing configuration.
    fn config(&self) -> &DetectorConfig;

    /// Record a departure at `now`; returns the declaration to schedule.
    fn node_down(&mut self, node: NodeRef, now: SimTime) -> PendingDeclaration;

    /// Record a return: invalidates every pending declaration of the down
    /// period that just ended.
    fn node_up(&mut self, node: NodeRef, now: SimTime);

    /// Decide the fate of a declaration event scheduled by [`node_down`]
    /// (or re-scheduled by an earlier [`DeclarationVerdict::Hold`]).
    ///
    /// [`node_down`]: DetectionPolicy::node_down
    fn decide(&mut self, node: NodeRef, generation: u64, now: SimTime) -> DeclarationVerdict;

    /// Short label for sweep tables and reports.
    fn label(&self) -> String;
}

/// Which [`DetectionPolicy`] a [`crate::RepairConfig`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DetectionKind {
    /// [`PerNodeTimeout`]: every absence runs its own permanence timeout.
    PerNodeTimeout,
    /// [`OutageAware`]: correlated absences within a failure domain hold the
    /// members' declarations until the domain returns or the hold cap expires.
    OutageAware(OutageAwareConfig),
}

impl DetectionKind {
    /// Short label for sweep tables and reports.
    pub fn label(&self) -> String {
        match self {
            DetectionKind::PerNodeTimeout => "per-node".to_string(),
            DetectionKind::OutageAware(cfg) => {
                format!("outage-aware(θ={:.2})", cfg.domain_absence_threshold)
            }
        }
    }

    /// Instantiate the policy for `nodes` participants.
    ///
    /// `view` carries the failure-domain membership the outage-aware policy
    /// correlates over; an [`DomainView::unaffiliated`] view degrades
    /// [`OutageAware`] to exact per-node-timeout behaviour (no correlation
    /// information means nothing can be classified as an outage).
    pub fn build(
        &self,
        nodes: usize,
        config: DetectorConfig,
        view: DomainView,
    ) -> Box<dyn DetectionPolicy> {
        match self {
            DetectionKind::PerNodeTimeout => Box::new(PerNodeTimeout::new(nodes, config)),
            DetectionKind::OutageAware(cfg) => {
                Box::new(OutageAware::new(nodes, config, view, *cfg))
            }
        }
    }
}

/// The per-node down/generation bookkeeping every policy shares: who is down
/// since when, and the generation counter that invalidates declarations of
/// finished down periods.
#[derive(Debug, Clone)]
pub(crate) struct DownTracker {
    generation: Vec<u64>,
    down_since: Vec<Option<SimTime>>,
}

impl DownTracker {
    pub(crate) fn new(nodes: usize) -> Self {
        DownTracker {
            generation: vec![0; nodes],
            down_since: vec![None; nodes],
        }
    }

    /// Record a departure; returns the generation the down period runs under.
    pub(crate) fn down(&mut self, node: NodeRef, now: SimTime) -> u64 {
        self.down_since[node] = Some(now);
        self.generation[node]
    }

    /// Record a return: bumps the generation so pending declarations die.
    pub(crate) fn up(&mut self, node: NodeRef) {
        self.down_since[node] = None;
        self.generation[node] += 1;
    }

    /// The start of the node's current down period, if it is still down
    /// *and* the declaration belongs to that period (not a stale event from
    /// before a return).
    pub(crate) fn confirm(&self, node: NodeRef, generation: u64) -> Option<SimTime> {
        self.down_since[node].filter(|_| self.generation[node] == generation)
    }

    pub(crate) fn down_since(&self, node: NodeRef) -> Option<SimTime> {
        self.down_since[node]
    }
}

/// The probe-aligned declaration timing shared by every policy: a departure at
/// `now` is noticed at the next probe boundary plus the detection lag, and
/// cannot be declared before both that moment and the permanence timeout.
pub(crate) fn schedule_declaration(
    config: &DetectorConfig,
    now: SimTime,
    generation: u64,
) -> PendingDeclaration {
    let t = now.as_secs_f64();
    let p = config.probe_period_secs;
    // The next probe strictly after the departure notices it.
    let detected = (t / p).floor() * p + p + config.detection_lag_secs;
    let declare = detected.max(t + config.permanence_timeout_secs);
    PendingDeclaration {
        generation,
        detected_at: SimTime::from_secs_f64(detected),
        declare_at: SimTime::from_secs_f64(declare),
    }
}
