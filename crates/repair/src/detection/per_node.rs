//! The per-node permanence-timeout policy: the classic failure detector.
//!
//! A departure at time `t` is *noticed* at the next probe boundary after `t`
//! plus the configured detection lag, and *declared permanent* once the node
//! has been away for the permanence timeout.  Declarations are guarded by a
//! per-node generation counter so that a node returning before its declaration
//! fires invalidates the stale event instead of being written off.  Every node
//! is judged independently — which is exactly the behaviour the outage-aware
//! policy exists to improve on when absences are correlated.

use super::{schedule_declaration, DeclarationVerdict, DetectionPolicy, DownTracker};
use crate::config::DetectorConfig;
use crate::detection::PendingDeclaration;
use peerstripe_overlay::NodeRef;
use peerstripe_sim::SimTime;

/// Tracks which nodes are down and validates declaration events, one node at
/// a time.
#[derive(Debug, Clone)]
pub struct PerNodeTimeout {
    config: DetectorConfig,
    tracker: DownTracker,
}

impl PerNodeTimeout {
    /// Create a detector for `nodes` participants.
    pub fn new(nodes: usize, config: DetectorConfig) -> Self {
        assert!(
            config.probe_period_secs > 0.0,
            "probe period must be positive"
        );
        PerNodeTimeout {
            config,
            tracker: DownTracker::new(nodes),
        }
    }

    /// True if the node is still down *and* the declaration belongs to the
    /// current down period (not a stale event from before a return).
    pub fn confirm(&self, node: NodeRef, generation: u64) -> bool {
        self.tracker.confirm(node, generation).is_some()
    }
}

impl DetectionPolicy for PerNodeTimeout {
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

    fn decide(&mut self, node: NodeRef, generation: u64, _now: SimTime) -> DeclarationVerdict {
        if self.confirm(node, generation) {
            DeclarationVerdict::Declare
        } else {
            DeclarationVerdict::Cancel
        }
    }

    fn label(&self) -> String {
        "per-node".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> PerNodeTimeout {
        PerNodeTimeout::new(
            4,
            DetectorConfig {
                probe_period_secs: 100.0,
                detection_lag_secs: 10.0,
                permanence_timeout_secs: 1_000.0,
            },
        )
    }

    #[test]
    fn detection_aligns_to_the_next_probe() {
        let mut d = detector();
        let pending = d.node_down(0, SimTime::from_secs(250));
        // Down at 250 → probed at 300 → reported at 310.
        assert_eq!(pending.detected_at, SimTime::from_secs(310));
        // Declaration waits for the permanence timeout (250 + 1000).
        assert_eq!(pending.declare_at, SimTime::from_secs(1250));
        assert_eq!(
            d.tracker.confirm(0, pending.generation),
            Some(SimTime::from_secs(250))
        );
    }

    #[test]
    fn short_timeout_is_dominated_by_detection() {
        let mut d = PerNodeTimeout::new(
            1,
            DetectorConfig {
                probe_period_secs: 100.0,
                detection_lag_secs: 10.0,
                permanence_timeout_secs: 5.0,
            },
        );
        let pending = d.node_down(0, SimTime::from_secs(250));
        // The timeout expires before the probe even notices the departure, so
        // the declaration cannot fire earlier than detection.
        assert_eq!(pending.declare_at, SimTime::from_secs(310));
    }

    #[test]
    fn returns_invalidate_pending_declarations() {
        let mut d = detector();
        let pending = d.node_down(2, SimTime::from_secs(50));
        assert!(d.confirm(2, pending.generation));
        d.node_up(2, SimTime::from_secs(60));
        assert!(!d.confirm(2, pending.generation), "stale generation");
        assert!(
            !d.confirm(2, pending.generation + 1),
            "an up node has no down period"
        );
        // A fresh down period gets a fresh generation.
        let second = d.node_down(2, SimTime::from_secs(500));
        assert_ne!(second.generation, pending.generation);
        assert!(d.confirm(2, second.generation));
        assert!(!d.confirm(2, pending.generation));
    }

    #[test]
    fn verdicts_mirror_confirmation() {
        let mut d = detector();
        let pending = d.node_down(1, SimTime::from_secs(10));
        assert_eq!(
            d.decide(1, pending.generation, pending.declare_at),
            DeclarationVerdict::Declare
        );
        d.node_up(1, SimTime::from_secs(20));
        assert_eq!(
            d.decide(1, pending.generation, pending.declare_at),
            DeclarationVerdict::Cancel,
            "a return cancels the held declaration"
        );
    }
}
