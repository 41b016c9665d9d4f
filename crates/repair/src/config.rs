//! Configuration of the churn process, failure detector, repair policies and
//! bandwidth budgets.

use crate::detection::DetectionKind;
use peerstripe_placement::Topology;
use peerstripe_sim::dist::{Distribution, Exponential};
use peerstripe_sim::{ByteSize, DetRng};

/// Where the churn process draws node session/downtime lengths from.
#[derive(Debug, Clone)]
pub enum SessionModel {
    /// Memoryless sessions and downtimes with the given means (seconds).
    Synthetic {
        /// Mean node uptime per session, in seconds.
        mean_session_secs: f64,
        /// Mean downtime between sessions, in seconds.
        mean_downtime_secs: f64,
    },
}

impl SessionModel {
    /// Draw one session (uptime) length in seconds.
    pub fn sample_session(&self, rng: &mut DetRng) -> f64 {
        let SessionModel::Synthetic {
            mean_session_secs, ..
        } = self;
        Exponential::new(1.0 / mean_session_secs).sample(rng)
    }

    /// Draw one downtime length in seconds.
    pub fn sample_downtime(&self, rng: &mut DetRng) -> f64 {
        let SessionModel::Synthetic {
            mean_downtime_secs, ..
        } = self;
        Exponential::new(1.0 / mean_downtime_secs).sample(rng)
    }
}

/// Correlated grouped churn: whole failure domains (labs, racks, buildings)
/// depart and return as units, alongside the independent per-node sessions.
///
/// Each domain of the topology draws outage events with exponential
/// inter-arrival times; an outage takes every live member down at once (a lab
/// powering down, a switch dying) and returns the *same* members when the
/// outage ends.  Group departures are transient — the disks come back — but
/// the failure detector does not know that, so a permanence timeout shorter
/// than the outage declares the whole domain dead and triggers a write-off
/// wave for every chunk that concentrated too many blocks there.
#[derive(Debug, Clone)]
pub struct GroupedChurn {
    /// The failure-domain topology whose domains fail as units.
    pub topology: Topology,
    /// Mean interval between outages, per domain, in seconds (measured from
    /// the end of the previous outage).
    pub mean_outage_interval_secs: f64,
    /// Mean duration of one outage, in seconds.
    pub mean_outage_downtime_secs: f64,
}

impl GroupedChurn {
    /// Grouped churn over a topology with the given mean outage interval and
    /// duration (hours).
    pub fn new(topology: Topology, mean_interval_hours: f64, mean_downtime_hours: f64) -> Self {
        assert!(mean_interval_hours > 0.0 && mean_downtime_hours > 0.0);
        GroupedChurn {
            topology,
            mean_outage_interval_secs: mean_interval_hours * 3_600.0,
            mean_outage_downtime_secs: mean_downtime_hours * 3_600.0,
        }
    }
}

/// The churn process: how nodes leave and return.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    /// Session/downtime length source.
    pub sessions: SessionModel,
    /// Probability that a departure is permanent (the disk never comes back).
    pub permanent_fraction: f64,
    /// Optional correlated grouped-churn mode: whole failure domains depart
    /// and return as units on top of the independent sessions.
    pub grouped: Option<GroupedChurn>,
}

impl ChurnProcess {
    /// Flattened `key = value` entries for a
    /// [`peerstripe_telemetry::RunManifest`].
    pub fn manifest_entries(&self) -> Vec<(String, String)> {
        let SessionModel::Synthetic {
            mean_session_secs,
            mean_downtime_secs,
        } = &self.sessions;
        let mut entries = vec![(
            "churn.sessions".to_string(),
            format!("synthetic(up={mean_session_secs}s,down={mean_downtime_secs}s)"),
        )];
        entries.push((
            "churn.permanent_fraction".to_string(),
            format!("{}", self.permanent_fraction),
        ));
        if let Some(grouped) = &self.grouped {
            entries.push((
                "churn.grouped.domains".to_string(),
                grouped.topology.domain_count().to_string(),
            ));
            entries.push((
                "churn.grouped.mean_outage_interval_secs".to_string(),
                format!("{}", grouped.mean_outage_interval_secs),
            ));
            entries.push((
                "churn.grouped.mean_outage_downtime_secs".to_string(),
                format!("{}", grouped.mean_outage_downtime_secs),
            ));
        }
        entries
    }
}

/// When regeneration is triggered for a damaged chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Regenerate every lost block as soon as its loss is confirmed.
    Eager,
    /// Regenerate only once the surviving blocks of a chunk drop to
    /// `needed + margin` or fewer, then restore full redundancy in one batch.
    /// Batching amortises the decode reads over several rebuilt blocks and
    /// skips repairs that a returning transient node would have made moot.
    Lazy {
        /// Safety margin above the decode threshold (`k_min`): 0 waits until
        /// the chunk has no slack left, 1 keeps one loss of slack, …
        margin: usize,
    },
}

impl RepairPolicy {
    /// Short label used in sweep tables.
    pub fn label(&self) -> String {
        match self {
            RepairPolicy::Eager => "eager".to_string(),
            RepairPolicy::Lazy { margin } => format!("lazy(k={margin})"),
        }
    }

    /// How many blocks to regenerate now for a chunk with `placed` registered
    /// blocks (plus `in_flight` being rebuilt), a decode threshold of `needed`,
    /// and an original placement of `target` blocks.
    pub fn blocks_wanted(
        &self,
        placed: usize,
        in_flight: usize,
        needed: usize,
        target: usize,
    ) -> usize {
        let effective = placed + in_flight;
        match self {
            RepairPolicy::Eager => target.saturating_sub(effective),
            RepairPolicy::Lazy { margin } => {
                if effective <= needed + margin {
                    target.saturating_sub(effective)
                } else {
                    0
                }
            }
        }
    }
}

/// Floor on the deferred-repair retry period, in seconds.  A repair that
/// cannot run (no decode sources or placement targets) retries after
/// `max(probe_period_secs, RETRY_FLOOR_SECS)`, so sub-minute probe
/// configurations do not flood the event queue with retries.
const RETRY_FLOOR_SECS: f64 = 60.0;

/// Failure-detector timing.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Seconds between liveness probes; a departure is noticed at the next
    /// probe boundary after it happens.
    pub probe_period_secs: f64,
    /// Additional lag between a probe observing the departure and the detector
    /// reporting it (probe timeouts, gossip propagation).
    pub detection_lag_secs: f64,
    /// How long a node must stay away before it is declared permanently dead
    /// and its blocks are written off for regeneration.  The knob that trades
    /// false-positive repair traffic against the window of reduced redundancy.
    pub permanence_timeout_secs: f64,
}

impl DetectorConfig {
    /// Probe every 5 minutes, 30 s lag, declare dead after 48 h away — well
    /// past the overnight/weekend downtimes of a desktop grid, so transient
    /// departures are almost never written off.
    pub fn default_desktop_grid() -> Self {
        DetectorConfig {
            probe_period_secs: 300.0,
            detection_lag_secs: 30.0,
            permanence_timeout_secs: 48.0 * 3_600.0,
        }
    }

    /// The same probing with a different permanence timeout.
    pub fn with_timeout(mut self, permanence_timeout_secs: f64) -> Self {
        self.permanence_timeout_secs = permanence_timeout_secs;
        self
    }

    /// The effective deferred-repair retry period: the probe period, floored.
    pub fn retry_period_secs(&self) -> f64 {
        self.probe_period_secs.max(RETRY_FLOOR_SECS)
    }

    /// Flattened `key = value` entries for a
    /// [`peerstripe_telemetry::RunManifest`].
    pub fn manifest_entries(&self) -> Vec<(String, String)> {
        vec![
            (
                "detector.probe_period_secs".to_string(),
                format!("{}", self.probe_period_secs),
            ),
            (
                "detector.detection_lag_secs".to_string(),
                format!("{}", self.detection_lag_secs),
            ),
            (
                "detector.permanence_timeout_secs".to_string(),
                format!("{}", self.permanence_timeout_secs),
            ),
            (
                "detector.retry_floor_secs".to_string(),
                format!("{RETRY_FLOOR_SECS}"),
            ),
        ]
    }
}

/// Per-node repair bandwidth budgets.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthBudget {
    /// Upload budget per node, bytes per second.
    pub upload: ByteSize,
    /// Download budget per node, bytes per second.
    pub download: ByteSize,
}

impl BandwidthBudget {
    /// A symmetric budget.
    pub fn symmetric(rate: ByteSize) -> Self {
        BandwidthBudget {
            upload: rate,
            download: rate,
        }
    }
}

/// Everything the maintenance engine needs besides the churn process.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Regeneration trigger policy.
    pub policy: RepairPolicy,
    /// Failure-detector timing.
    pub detector: DetectorConfig,
    /// How the failure detector judges absences (per-node timeout or the
    /// outage-aware correlated-absence classifier).
    pub detection: DetectionKind,
    /// Per-node repair bandwidth budgets.
    pub bandwidth: BandwidthBudget,
    /// Seconds between periodic availability/durability samples.
    pub sample_period_secs: f64,
}

impl RepairConfig {
    /// Eager repair, default per-node detector, 1 MB/s symmetric budgets,
    /// hourly samples.
    pub fn default_desktop_grid() -> Self {
        RepairConfig {
            policy: RepairPolicy::Eager,
            detector: DetectorConfig::default_desktop_grid(),
            detection: DetectionKind::PerNodeTimeout,
            bandwidth: BandwidthBudget::symmetric(ByteSize::mb(1)),
            sample_period_secs: 3_600.0,
        }
    }

    /// The effective configuration, flattened for a
    /// [`peerstripe_telemetry::RunManifest`] — the header record that makes
    /// every trace and sweep JSON self-describing.
    pub fn manifest_entries(&self) -> Vec<(String, String)> {
        let mut entries = vec![
            ("repair.policy".to_string(), self.policy.label()),
            ("repair.detection".to_string(), self.detection.label()),
            (
                "repair.bandwidth_up_bytes_per_sec".to_string(),
                self.bandwidth.upload.as_u64().to_string(),
            ),
            (
                "repair.bandwidth_down_bytes_per_sec".to_string(),
                self.bandwidth.download.as_u64().to_string(),
            ),
            (
                "repair.sample_period_secs".to_string(),
                format!("{}", self.sample_period_secs),
            ),
        ];
        entries.extend(self.detector.manifest_entries());
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sessions_match_their_mean() {
        let model = SessionModel::Synthetic {
            mean_session_secs: 1_000.0,
            mean_downtime_secs: 500.0,
        };
        let mut rng = DetRng::new(1);
        let n = 20_000;
        let mean_s: f64 = (0..n).map(|_| model.sample_session(&mut rng)).sum::<f64>() / n as f64;
        let mean_d: f64 = (0..n).map(|_| model.sample_downtime(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean_s - 1_000.0).abs() < 30.0, "mean session {mean_s}");
        assert!((mean_d - 500.0).abs() < 15.0, "mean downtime {mean_d}");
    }

    #[test]
    fn retry_period_is_the_probe_period_floored_at_a_minute() {
        let slow = DetectorConfig::default_desktop_grid();
        assert_eq!(slow.probe_period_secs, 300.0);
        assert_eq!(slow.retry_period_secs(), 300.0);
        let fast = DetectorConfig {
            probe_period_secs: 5.0,
            ..slow
        };
        assert_eq!(fast.retry_period_secs(), 60.0);
    }

    #[test]
    fn eager_policy_always_tops_up() {
        let p = RepairPolicy::Eager;
        assert_eq!(p.blocks_wanted(6, 0, 4, 6), 0);
        assert_eq!(p.blocks_wanted(5, 0, 4, 6), 1);
        assert_eq!(p.blocks_wanted(5, 1, 4, 6), 0, "in-flight counts");
        assert_eq!(p.blocks_wanted(3, 0, 4, 6), 3);
    }

    #[test]
    fn lazy_policy_waits_for_the_threshold() {
        let p = RepairPolicy::Lazy { margin: 0 };
        assert_eq!(p.blocks_wanted(5, 0, 4, 6), 0, "above threshold: wait");
        assert_eq!(p.blocks_wanted(4, 0, 4, 6), 2, "at threshold: full top-up");
        assert_eq!(p.blocks_wanted(3, 0, 4, 6), 3);
        assert_eq!(p.blocks_wanted(4, 2, 4, 6), 0, "in-flight counts");
        let p1 = RepairPolicy::Lazy { margin: 1 };
        assert_eq!(p1.blocks_wanted(5, 0, 4, 6), 1, "margin 1 repairs earlier");
        assert_eq!(p1.label(), "lazy(k=1)");
        assert_eq!(RepairPolicy::Eager.label(), "eager");
    }
}
