//! The outage-aware policy: correlated absence within a failure domain is an
//! outage, not a wave of independent deaths.
//!
//! Desktop grids fail in groups — a lab powers down overnight, a switch dies,
//! a building loses power over a weekend.  The per-node timeout declares every
//! member of a downed lab dead independently, triggering a full-domain
//! regeneration wave that is thrown away when the lab returns.  This policy
//! consults a shared [`DomainView`] at declaration time: when at least θ of
//! the node's domain went down *within the same probe window*, the absence is
//! classified as an outage and the declaration is **held** — re-evaluated
//! every hold period instead of fired.  A held declaration resolves one of
//! three ways:
//!
//! * the domain returns → the node's generation bumps and the held event
//!   cancels (no blocks written off, no repair traffic spent);
//! * enough of the domain returns that the absence stops looking correlated →
//!   the node is declared on its next re-evaluation (it really is gone);
//! * the hold cap expires → the node is declared regardless (a genuinely
//!   permanent mass departure — a lab decommissioned, not rebooted — must
//!   still be repaired).  No declaration is ever delayed past
//!   `permanence_timeout + hold_cap` after the departure.

use super::{schedule_declaration, DeclarationVerdict, DetectionPolicy, DownTracker};
use crate::config::DetectorConfig;
use crate::detection::PendingDeclaration;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::DomainView;
use peerstripe_sim::SimTime;
use serde::{Deserialize, Serialize};

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

/// Holds declarations while the node's failure domain looks like it suffered
/// an outage; see the module docs for the full protocol.
#[derive(Debug, Clone)]
pub struct OutageAware {
    config: DetectorConfig,
    outage: OutageAwareConfig,
    view: DomainView,
    tracker: DownTracker,
}

impl OutageAware {
    /// Create a detector for `nodes` participants over the given domain view.
    ///
    /// An [`DomainView::unaffiliated`] view is legal and degrades the policy
    /// to exact per-node-timeout behaviour: with no membership information,
    /// nothing can ever be classified as an outage.
    pub fn new(
        nodes: usize,
        config: DetectorConfig,
        view: DomainView,
        outage: OutageAwareConfig,
    ) -> Self {
        assert!(
            config.probe_period_secs > 0.0,
            "probe period must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&outage.domain_absence_threshold),
            "θ must be a fraction"
        );
        assert!(
            outage.hold_period_secs > 0.0,
            "hold period must be positive"
        );
        assert!(outage.hold_cap_secs >= 0.0, "hold cap must be non-negative");
        OutageAware {
            config,
            outage,
            view,
            tracker: DownTracker::new(nodes),
        }
    }

    /// True if `node`'s domain currently classifies as being in an outage:
    /// at least θ of its members (and at least two) are absent with
    /// departures clustered within one outage window of `node`'s own.
    pub fn outage_classified(&self, node: NodeRef) -> bool {
        let Some(down_at) = self.tracker.down_since(node) else {
            return false;
        };
        let Some(domain) = self.view.domain_of(node) else {
            return false;
        };
        let members = self.view.members(domain);
        let window = self.outage.outage_window_secs;
        let mine = down_at.as_secs_f64();
        let clustered = members
            .iter()
            .filter(|&&m| {
                self.tracker
                    .down_since(m)
                    .is_some_and(|t| (t.as_secs_f64() - mine).abs() <= window)
            })
            .count();
        // Epsilon-guarded ceiling: a mathematically integral θ·n can land a
        // hair above its true value in f64 (0.3 × 10 → 3.0000000000000004),
        // and a bare ceil() would then demand one member more than the
        // documented "≥ θ of the domain" threshold.
        let quorum =
            (self.outage.domain_absence_threshold * members.len() as f64 - 1e-9).ceil() as usize;
        clustered >= quorum.max(2)
    }

    /// The latest moment `node`'s current down period may be declared at: the
    /// permanence timeout plus the hold cap after the departure.
    fn hold_deadline(&self, down_at: SimTime) -> SimTime {
        down_at
            + SimTime::from_secs_f64(self.config.permanence_timeout_secs)
            + SimTime::from_secs_f64(self.outage.hold_cap_secs)
    }
}

impl DetectionPolicy for OutageAware {
    fn config(&self) -> &DetectorConfig {
        &self.config
    }

    fn node_down(&mut self, node: NodeRef, now: SimTime) -> PendingDeclaration {
        let generation = self.tracker.down(node, now);
        schedule_declaration(&self.config, now, generation)
    }

    fn node_up(&mut self, node: NodeRef, _now: SimTime) {
        self.tracker.up(node);
    }

    fn decide(&mut self, node: NodeRef, generation: u64, now: SimTime) -> DeclarationVerdict {
        let Some(down_at) = self.tracker.confirm(node, generation) else {
            return DeclarationVerdict::Cancel;
        };
        let deadline = self.hold_deadline(down_at);
        if now >= deadline || !self.outage_classified(node) {
            // Past the hard cap, or the absence no longer looks correlated
            // (enough of the domain came back): the node really is gone.
            return DeclarationVerdict::Declare;
        }
        let until = (now + SimTime::from_secs_f64(self.outage.hold_period_secs)).min(deadline);
        DeclarationVerdict::Hold { until }
    }

    fn label(&self) -> String {
        format!(
            "outage-aware(θ={:.2})",
            self.outage.domain_absence_threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_placement::Topology;

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

    /// 12 nodes in domains of 4: {0..3}, {4..7}, {8..11}.
    fn detector(timeout: f64) -> OutageAware {
        let view = Topology::uniform_groups(12, 4).domain_view();
        OutageAware::new(12, config(timeout), view, outage_config())
    }

    #[test]
    fn lone_departures_are_declared_like_per_node() {
        let mut d = detector(1_000.0);
        let pending = d.node_down(0, SimTime::from_secs(250));
        assert_eq!(pending.detected_at, SimTime::from_secs(310));
        assert_eq!(pending.declare_at, SimTime::from_secs(1250));
        assert!(!d.outage_classified(0), "one node down is not an outage");
        assert_eq!(
            d.decide(0, pending.generation, pending.declare_at),
            DeclarationVerdict::Declare
        );
    }

    #[test]
    fn correlated_domain_absence_holds_declarations() {
        let mut d = detector(1_000.0);
        // The whole of domain 1 vanishes at once.
        let mut pendings = Vec::new();
        for node in 4..8 {
            pendings.push((node, d.node_down(node, SimTime::from_secs(300))));
        }
        assert!(d.outage_classified(4));
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
        let view = Topology::uniform_groups(10, 10).domain_view();
        let mut d = OutageAware::new(
            10,
            config(1_000.0),
            view,
            OutageAwareConfig {
                domain_absence_threshold: 0.3,
                ..outage_config()
            },
        );
        for node in 0..3 {
            d.node_down(node, SimTime::from_secs(300));
        }
        assert!(
            d.outage_classified(0),
            "3 of 10 down meets the θ=0.3 threshold exactly"
        );
    }

    #[test]
    fn domain_return_cancels_held_declarations() {
        let mut d = detector(1_000.0);
        let pendings: Vec<_> = (4..8)
            .map(|node| (node, d.node_down(node, SimTime::from_secs(300))))
            .collect();
        // The outage ends before the hold resolves: everyone returns.
        for node in 4..8 {
            d.node_up(node, SimTime::from_secs(900));
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
        let mut d = detector(1_000.0);
        let pendings: Vec<_> = (4..8)
            .map(|node| (node, d.node_down(node, SimTime::from_secs(300))))
            .collect();
        // Three of four return; the fourth really died with the outage.
        for node in 5..8 {
            d.node_up(node, SimTime::from_secs(900));
        }
        let (node, p) = pendings[0];
        assert!(!d.outage_classified(node), "only 1/4 absent now");
        assert_eq!(
            d.decide(node, p.generation, p.declare_at),
            DeclarationVerdict::Declare,
            "uncorrelated absence is a real loss"
        );
    }

    #[test]
    fn the_hold_cap_bounds_every_delay() {
        let mut d = detector(1_000.0);
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
        let mut d = detector(10_000.0);
        // All of domain 2 is down, but the departures are hours apart —
        // independent churn, not a breaker trip.
        let pendings: Vec<_> = (8..12)
            .map(|n| {
                let at = SimTime::from_secs(300 + (n as u64 - 8) * 5_000);
                (n, d.node_down(n, at))
            })
            .collect();
        let (node, p) = pendings[0];
        assert!(
            !d.outage_classified(node),
            "spread departures never cluster"
        );
        assert_eq!(
            d.decide(node, p.generation, p.declare_at),
            DeclarationVerdict::Declare
        );
    }

    #[test]
    fn unaffiliated_views_degrade_to_per_node_behaviour() {
        let mut d = OutageAware::new(
            12,
            config(1_000.0),
            DomainView::unaffiliated(),
            outage_config(),
        );
        let pendings: Vec<_> = (0..12)
            .map(|n| (n, d.node_down(n, SimTime::from_secs(300))))
            .collect();
        for (node, p) in pendings {
            assert!(!d.outage_classified(node));
            assert_eq!(
                d.decide(node, p.generation, p.declare_at),
                DeclarationVerdict::Declare,
                "no view, no holds"
            );
        }
    }
}
