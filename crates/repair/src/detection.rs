//! The failure detector: turns node absences into (or holds back)
//! permanent-death declarations.
//!
//! The maintenance engine owns one [`Detector`] and consults it at three
//! moments:
//!
//! 1. **Departure** — [`Detector::node_down`] records the absence and returns
//!    the [`PendingDeclaration`] to schedule (when the departure is noticed at
//!    a probe boundary, and when the permanence timeout expires).
//! 2. **Declaration** — when the scheduled declaration event fires,
//!    [`Detector::decide`] returns a [`DeclarationVerdict`]: cancel a stale
//!    event, declare the node dead now, or *hold* the declaration and re-check
//!    later.
//! 3. **Return** — [`Detector::node_up`] bumps the node's generation so every
//!    pending or held declaration of the finished down period dies.
//!
//! [`DetectionKind`] picks how a due declaration is judged.
//! [`DetectionKind::PerNodeTimeout`] declares every node whose down period is
//! still current: each absence runs its own permanence timeout.
//! [`DetectionKind::OutageAware`] first looks at the node's failure domain in
//! the churn topology.  Desktop grids fail in groups — a lab powers down
//! overnight, a switch dies — and the per-node timeout writes off every member
//! of a downed lab independently, a regeneration wave that is thrown away when
//! the lab returns.  When at least θ of the node's domain went down *within
//! one outage window* of the node's own departure, the absence is an outage
//! and the declaration is **held**: re-decided every hold period instead of
//! fired.  A held declaration resolves one of three ways:
//!
//! * the domain returns → the node's generation bumps and the held event
//!   cancels (no blocks written off, no repair traffic spent);
//! * enough of the domain returns that the absence stops looking correlated →
//!   the node is declared on its next re-decision (it really is gone);
//! * the hold cap expires → the node is declared regardless (a lab
//!   decommissioned, not rebooted, must still be repaired).  No declaration is
//!   ever delayed past `permanence_timeout + hold_cap` after the departure.
//!
//! With no topology, nothing can be classified as an outage, so the
//! outage-aware detector declares exactly when the per-node one does.

use crate::config::DetectorConfig;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::Topology;
use peerstripe_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A pending declaration handed back by [`Detector::node_down`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingDeclaration {
    /// The down generation this declaration belongs to.
    pub generation: u64,
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

/// Tuning of the outage classifier and its hold behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageAwareConfig {
    /// θ: the fraction of a domain that must be absent (with departures inside
    /// one outage window of each other) for the absence to classify as an
    /// outage.  At least two nodes must qualify regardless of θ — a one-node
    /// "domain outage" is just a down node.
    pub domain_absence_threshold: f64,
    /// How tightly clustered the departures must be (seconds) to count as one
    /// event.  A probe period or two: a lab breaker trips every member at
    /// once, so their departures land in the same probe window, while
    /// independent churn spreads out over hours.
    pub outage_window_secs: f64,
    /// How long a held declaration waits before re-evaluating (seconds).
    pub hold_period_secs: f64,
    /// Hard cap on total hold time past the permanence timeout (seconds): a
    /// node is always declared by `down_since + permanence_timeout +
    /// hold_cap_secs`, outage or not, so genuinely permanent mass departures
    /// still regenerate.
    pub hold_cap_secs: f64,
}

impl OutageAwareConfig {
    /// Half the domain gone within two default probe periods classifies an
    /// outage; held declarations re-check hourly and never extend past 24 h
    /// beyond the permanence timeout.
    pub fn default_desktop_grid() -> Self {
        OutageAwareConfig {
            domain_absence_threshold: 0.5,
            outage_window_secs: 600.0,
            hold_period_secs: 3_600.0,
            hold_cap_secs: 24.0 * 3_600.0,
        }
    }

    /// The same behaviour with a different absence threshold.
    pub fn with_threshold(mut self, theta: f64) -> Self {
        assert!((0.0..=1.0).contains(&theta), "θ must be a fraction");
        self.domain_absence_threshold = theta;
        self
    }
}

/// How a [`Detector`] judges a due declaration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DetectionKind {
    /// Every absence runs its own permanence timeout.
    PerNodeTimeout,
    /// Correlated absences within a failure domain hold the members'
    /// declarations until the domain returns or the hold cap expires.
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
}

/// The failure detector: who is down since when, the generation counter that
/// invalidates declarations of finished down periods, and the verdict on a
/// due declaration.
///
/// Deterministic in the call sequence (no internal randomness): the engine's
/// fixed-seed reproducibility depends on it.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
    kind: DetectionKind,
    /// The failure domains absences are correlated over; `None` where no
    /// topology is in play.
    topology: Option<Topology>,
    generation: Vec<u64>,
    down_since: Vec<Option<SimTime>>,
}

impl Detector {
    /// A detector for `nodes` participants over the churn topology, if any.
    pub fn new(
        nodes: usize,
        config: DetectorConfig,
        kind: DetectionKind,
        topology: Option<Topology>,
    ) -> Self {
        assert!(
            config.probe_period_secs > 0.0,
            "probe period must be positive"
        );
        if let DetectionKind::OutageAware(outage) = &kind {
            assert!(
                (0.0..=1.0).contains(&outage.domain_absence_threshold),
                "θ must be a fraction"
            );
            assert!(
                outage.hold_period_secs > 0.0,
                "hold period must be positive"
            );
            assert!(outage.hold_cap_secs >= 0.0, "hold cap must be non-negative");
        }
        Detector {
            config,
            kind,
            topology,
            generation: vec![0; nodes],
            down_since: vec![None; nodes],
        }
    }

    /// The detector's timing configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Short label for sweep tables and reports.
    pub fn label(&self) -> String {
        self.kind.label()
    }

    /// Record a departure at `now`; returns the declaration to schedule.
    ///
    /// The departure is noticed at the next probe boundary strictly after
    /// `now` plus the detection lag, and cannot be declared before both that
    /// moment and the permanence timeout.
    pub fn node_down(&mut self, node: NodeRef, now: SimTime) -> PendingDeclaration {
        self.down_since[node] = Some(now);
        let t = now.as_secs_f64();
        let p = self.config.probe_period_secs;
        let detected = (t / p).floor() * p + p + self.config.detection_lag_secs;
        let declare = detected.max(t + self.config.permanence_timeout_secs);
        PendingDeclaration {
            generation: self.generation[node],
            declare_at: SimTime::from_secs_f64(declare),
        }
    }

    /// Record a return: invalidates every pending declaration of the down
    /// period that just ended.
    pub fn node_up(&mut self, node: NodeRef) {
        self.down_since[node] = None;
        self.generation[node] += 1;
    }

    /// Decide the fate of a declaration event scheduled by
    /// [`Detector::node_down`] (or re-scheduled by an earlier
    /// [`DeclarationVerdict::Hold`]).
    pub fn decide(&self, node: NodeRef, generation: u64, now: SimTime) -> DeclarationVerdict {
        let Some(down_at) = self.down_since[node].filter(|_| self.generation[node] == generation)
        else {
            return DeclarationVerdict::Cancel;
        };
        match &self.kind {
            DetectionKind::PerNodeTimeout => DeclarationVerdict::Declare,
            DetectionKind::OutageAware(outage) => self.judge_outage(node, down_at, now, outage),
        }
    }

    /// The outage-aware verdict on `node`'s down period that began at
    /// `down_at`: hold while its domain looks like it suffered an outage, up
    /// to the hold cap.  Kept out of line so the per-node path of
    /// [`Detector::decide`] stays a few instructions: inlined, it cost the
    /// per-node `detector_decide` snapshot rows a third or more of their rate
    /// (2-vCPU VM, alternating runs).
    #[inline(never)]
    fn judge_outage(
        &self,
        node: NodeRef,
        down_at: SimTime,
        now: SimTime,
        outage: &OutageAwareConfig,
    ) -> DeclarationVerdict {
        let deadline = down_at
            + SimTime::from_secs_f64(self.config.permanence_timeout_secs)
            + SimTime::from_secs_f64(outage.hold_cap_secs);
        if now >= deadline || !self.outage_classified(node, down_at, outage) {
            // Past the hard cap, or the absence no longer looks correlated
            // (enough of the domain came back): the node really is gone.
            return DeclarationVerdict::Declare;
        }
        let until = (now + SimTime::from_secs_f64(outage.hold_period_secs)).min(deadline);
        DeclarationVerdict::Hold { until }
    }

    /// True if `node`, down since `down_at`, sits in a domain that classifies
    /// as being in an outage: at least θ of its members (and at least two) are
    /// absent with departures within one outage window of `down_at`.
    fn outage_classified(
        &self,
        node: NodeRef,
        down_at: SimTime,
        outage: &OutageAwareConfig,
    ) -> bool {
        let Some(topology) = &self.topology else {
            return false;
        };
        let Some(domain) = topology.domain_of(node) else {
            return false;
        };
        let members = topology.members(domain);
        let mine = down_at.as_secs_f64();
        let clustered = members
            .iter()
            .filter(|&&m| {
                self.down_since[m]
                    .is_some_and(|t| (t.as_secs_f64() - mine).abs() <= outage.outage_window_secs)
            })
            .count();
        // Epsilon-guarded ceiling: a mathematically integral θ·n can land a
        // hair above its true value in f64 (0.3 × 10 → 3.0000000000000004),
        // and a bare ceil() would then demand one member more than the
        // documented "≥ θ of the domain" threshold.
        let quorum =
            (outage.domain_absence_threshold * members.len() as f64 - 1e-9).ceil() as usize;
        clustered >= quorum.max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(timeout: f64) -> DetectorConfig {
        DetectorConfig {
            probe_period_secs: 100.0,
            detection_lag_secs: 10.0,
            permanence_timeout_secs: timeout,
        }
    }

    fn outage_config() -> OutageAwareConfig {
        OutageAwareConfig {
            domain_absence_threshold: 0.5,
            outage_window_secs: 200.0,
            hold_period_secs: 500.0,
            hold_cap_secs: 2_000.0,
        }
    }

    fn per_node(nodes: usize, timeout: f64) -> Detector {
        Detector::new(nodes, config(timeout), DetectionKind::PerNodeTimeout, None)
    }

    /// 12 nodes in domains of 4: {0..3}, {4..7}, {8..11}.
    fn outage_aware(timeout: f64) -> Detector {
        Detector::new(
            12,
            config(timeout),
            DetectionKind::OutageAware(outage_config()),
            Some(Topology::uniform_groups(12, 4)),
        )
    }

    /// Whether `node`'s current down period classifies as an outage.
    fn classified(d: &Detector, node: NodeRef) -> bool {
        let DetectionKind::OutageAware(outage) = &d.kind else {
            return false;
        };
        d.down_since[node].is_some_and(|at| d.outage_classified(node, at, outage))
    }

    #[test]
    fn a_lone_departure_is_declared_at_the_permanence_timeout() {
        for mut d in [per_node(4, 1_000.0), outage_aware(1_000.0)] {
            let pending = d.node_down(0, SimTime::from_secs(250));
            // Declaration waits for the permanence timeout (250 + 1000).
            assert_eq!(pending.declare_at, SimTime::from_secs(1250));
            assert!(!classified(&d, 0), "one node down is not an outage");
            assert_eq!(
                d.decide(0, pending.generation, pending.declare_at),
                DeclarationVerdict::Declare
            );
        }
    }

    #[test]
    fn short_timeout_is_dominated_by_detection() {
        let mut d = per_node(1, 5.0);
        let pending = d.node_down(0, SimTime::from_secs(250));
        // Down at 250 → probed at 300 → reported at 310.  The timeout expires
        // before the probe even notices the departure, so the declaration
        // cannot fire earlier than detection.
        assert_eq!(pending.declare_at, SimTime::from_secs(310));
    }

    #[test]
    fn returns_invalidate_pending_declarations() {
        let mut d = per_node(4, 1_000.0);
        let at = SimTime::from_secs(2_000);
        let pending = d.node_down(2, SimTime::from_secs(50));
        assert_eq!(
            d.decide(2, pending.generation, at),
            DeclarationVerdict::Declare
        );
        d.node_up(2);
        assert_eq!(
            d.decide(2, pending.generation, at),
            DeclarationVerdict::Cancel,
            "stale generation"
        );
        assert_eq!(
            d.decide(2, pending.generation + 1, at),
            DeclarationVerdict::Cancel,
            "an up node has no down period"
        );
        // A fresh down period gets a fresh generation.
        let second = d.node_down(2, SimTime::from_secs(500));
        assert_ne!(second.generation, pending.generation);
        assert_eq!(
            d.decide(2, second.generation, at),
            DeclarationVerdict::Declare
        );
        assert_eq!(
            d.decide(2, pending.generation, at),
            DeclarationVerdict::Cancel
        );
    }

    #[test]
    fn correlated_domain_absence_holds_declarations() {
        let mut d = outage_aware(1_000.0);
        // The whole of domain 1 vanishes at once.
        let mut pendings = Vec::new();
        for node in 4..8 {
            pendings.push((node, d.node_down(node, SimTime::from_secs(300))));
        }
        assert!(classified(&d, 4));
        let (node, p) = pendings[0];
        match d.decide(node, p.generation, p.declare_at) {
            DeclarationVerdict::Hold { until } => {
                assert_eq!(until, p.declare_at + SimTime::from_secs(500));
            }
            v => panic!("expected a hold, got {v:?}"),
        }
        // A node in a different (healthy) domain is still declared normally.
        let q = d.node_down(0, SimTime::from_secs(400));
        assert_eq!(
            d.decide(0, q.generation, q.declare_at),
            DeclarationVerdict::Declare
        );
    }

    #[test]
    fn quorum_at_exactly_theta_classifies() {
        // θ·n that is mathematically integral but inexact in f64: θ = 0.3
        // over a 10-member domain computes 3.0000000000000004, and a naive
        // ceil() would demand 4 members.  Exactly 3 clustered absences
        // (3/10 ≥ θ) must classify.
        let mut d = Detector::new(
            10,
            config(1_000.0),
            DetectionKind::OutageAware(OutageAwareConfig {
                domain_absence_threshold: 0.3,
                ..outage_config()
            }),
            Some(Topology::uniform_groups(10, 10)),
        );
        for node in 0..3 {
            d.node_down(node, SimTime::from_secs(300));
        }
        assert!(
            classified(&d, 0),
            "3 of 10 down meets the θ=0.3 threshold exactly"
        );
    }

    #[test]
    fn domain_return_cancels_held_declarations() {
        let mut d = outage_aware(1_000.0);
        let pendings: Vec<_> = (4..8)
            .map(|node| (node, d.node_down(node, SimTime::from_secs(300))))
            .collect();
        // The outage ends before the hold resolves: everyone returns.
        for node in 4..8 {
            d.node_up(node);
        }
        for (node, p) in pendings {
            assert_eq!(
                d.decide(node, p.generation, p.declare_at),
                DeclarationVerdict::Cancel,
                "node {node}: a finished outage must cancel"
            );
        }
    }

    #[test]
    fn partial_return_releases_the_survivors_declarations() {
        let mut d = outage_aware(1_000.0);
        let pendings: Vec<_> = (4..8)
            .map(|node| (node, d.node_down(node, SimTime::from_secs(300))))
            .collect();
        // Three of four return; the fourth really died with the outage.
        for node in 5..8 {
            d.node_up(node);
        }
        let (node, p) = pendings[0];
        assert!(!classified(&d, node), "only 1/4 absent now");
        assert_eq!(
            d.decide(node, p.generation, p.declare_at),
            DeclarationVerdict::Declare,
            "uncorrelated absence is a real loss"
        );
    }

    #[test]
    fn the_hold_cap_bounds_every_delay() {
        let mut d = outage_aware(1_000.0);
        let down_at = SimTime::from_secs(300);
        let pendings: Vec<_> = (4..8).map(|n| (n, d.node_down(n, down_at))).collect();
        let deadline = down_at + SimTime::from_secs(1_000 + 2_000);
        let (node, p) = pendings[0];
        let mut now = p.declare_at;
        let mut holds = 0;
        loop {
            match d.decide(node, p.generation, now) {
                DeclarationVerdict::Hold { until } => {
                    assert!(until > now, "holds must make progress");
                    assert!(until <= deadline, "no hold may pass the cap");
                    now = until;
                    holds += 1;
                    assert!(holds < 100, "hold chain must terminate");
                }
                DeclarationVerdict::Declare => break,
                DeclarationVerdict::Cancel => panic!("nothing returned"),
            }
        }
        assert!(holds > 1, "the outage must actually hold for a while");
        assert!(now <= deadline, "declared by the cap at the latest");
    }

    #[test]
    fn uncorrelated_slow_drain_is_not_an_outage() {
        let mut d = outage_aware(10_000.0);
        // All of domain 2 is down, but the departures are hours apart —
        // independent churn, not a breaker trip.
        let pendings: Vec<_> = (8..12)
            .map(|n| {
                let at = SimTime::from_secs(300 + (n as u64 - 8) * 5_000);
                (n, d.node_down(n, at))
            })
            .collect();
        let (node, p) = pendings[0];
        assert!(!classified(&d, node), "spread departures never cluster");
        assert_eq!(
            d.decide(node, p.generation, p.declare_at),
            DeclarationVerdict::Declare
        );
    }

    #[test]
    fn no_topology_degrades_to_per_node_behaviour() {
        let mut d = Detector::new(
            12,
            config(1_000.0),
            DetectionKind::OutageAware(outage_config()),
            None,
        );
        let pendings: Vec<_> = (0..12)
            .map(|n| (n, d.node_down(n, SimTime::from_secs(300))))
            .collect();
        for (node, p) in pendings {
            assert!(!classified(&d, node));
            assert_eq!(
                d.decide(node, p.generation, p.declare_at),
                DeclarationVerdict::Declare,
                "no topology, no holds"
            );
        }
    }
}
