//! The `repair-sweep` experiment: durability over continuous churn.
//!
//! Sweeps the event-driven maintenance engine (`peerstripe-repair`) over
//! repair policy × permanence timeout × per-node bandwidth, at up to the
//! paper's 10 000-node scale, and reports what each configuration buys:
//! objects lost, availability over time, and — the maintenance bill — repair
//! bytes spent per useful byte protected.  The comparison the sweep exists
//! for: *lazy/threshold* repair spends measurably less than *eager* repair at
//! equal or better durability, because batching amortises decode reads and
//! aggressive timeouts stop costing traffic for nodes that were coming back
//! anyway.

use crate::deployment::{Cell, Deployment, SWEEP_CODING};
use crate::scale::Scale;
use peerstripe_repair::{
    BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, MaintenanceReport, RepairConfig,
    RepairPolicy, SessionModel,
};
use peerstripe_sim::{ByteSize, SimTime};

/// Configuration of the repair sweep.
#[derive(Debug, Clone)]
pub struct RepairSweepConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Number of files distributed before churn starts.
    pub files: usize,
    /// Virtual hours of churn to simulate per configuration.
    pub sim_hours: f64,
    /// Mean node session length, hours.
    pub mean_session_hours: f64,
    /// Mean node downtime, hours.
    pub mean_downtime_hours: f64,
    /// Probability a departure is permanent.
    pub permanent_fraction: f64,
    /// Repair policies to sweep.
    pub policies: Vec<RepairPolicy>,
    /// Permanence timeouts to sweep, hours.
    pub timeouts_hours: Vec<f64>,
    /// Symmetric per-node bandwidth budgets to sweep (bytes/second).
    pub bandwidths: Vec<ByteSize>,
    /// Base random seed.
    pub seed: u64,
}

impl RepairSweepConfig {
    /// Configuration for a given scale: desktop-grid churn (12 h sessions,
    /// 3 h downtimes — nodes up 80 % of the time — with 1 % permanent
    /// departures), eager vs. lazy repair, an aggressive and a conservative
    /// timeout, a thin and a comfortable pipe.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let nodes = scale.nodes();
        RepairSweepConfig {
            nodes,
            files: nodes * 8,
            sim_hours: match scale {
                Scale::Small => 48.0,
                Scale::Medium => 72.0,
                Scale::Paper => 96.0,
            },
            mean_session_hours: 12.0,
            mean_downtime_hours: 3.0,
            permanent_fraction: 0.01,
            policies: vec![
                RepairPolicy::Eager,
                RepairPolicy::Lazy { margin: 2 },
                RepairPolicy::Lazy { margin: 0 },
            ],
            timeouts_hours: vec![6.0, 24.0],
            bandwidths: vec![ByteSize::mb(1), ByteSize::mb(8)],
            seed,
        }
    }
}

/// One swept configuration's outcome.
#[derive(Debug, Clone)]
pub struct RepairSweepRow {
    /// Repair policy.
    pub policy: RepairPolicy,
    /// Permanence timeout, hours.
    pub timeout_hours: f64,
    /// Symmetric per-node bandwidth budget.
    pub bandwidth: ByteSize,
    /// What the maintenance engine reported at the horizon.
    pub report: MaintenanceReport,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct RepairSweep {
    /// One row per swept configuration, in sweep order
    /// (bandwidth-major, then timeout, then policy).
    pub rows: Vec<RepairSweepRow>,
    /// Nodes in the deployment.
    pub nodes: usize,
    /// Files tracked.
    pub files_total: u64,
    /// User bytes under maintenance.
    pub useful_bytes: ByteSize,
    /// Virtual hours simulated per configuration.
    pub sim_hours: f64,
}

impl RepairSweep {
    /// Matched eager/lazy pairs at the same timeout and bandwidth:
    /// `(eager, lazy)` row index pairs.
    pub fn matched_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, a) in self.rows.iter().enumerate() {
            if a.policy != RepairPolicy::Eager {
                continue;
            }
            for (j, b) in self.rows.iter().enumerate() {
                if matches!(b.policy, RepairPolicy::Lazy { .. })
                    && b.timeout_hours == a.timeout_hours
                    && b.bandwidth == a.bandwidth
                {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// True if some matched configuration shows the lazy policy spending
    /// strictly fewer repair bytes per useful byte at equal-or-better
    /// durability — the trade-off the sweep exists to demonstrate.
    pub fn lazy_beats_eager_somewhere(&self) -> bool {
        self.matched_pairs().iter().any(|&(e, l)| {
            let (eager, lazy) = (&self.rows[e].report, &self.rows[l].report);
            lazy.repair_per_useful_byte < eager.repair_per_useful_byte
                && lazy.files_lost <= eager.files_lost
        })
    }
}

/// One cell's repair configuration: the swept policy, permanence timeout and
/// symmetric bandwidth under per-node detection with hourly samples.
fn cell_repair(policy: RepairPolicy, timeout_hours: f64, bandwidth: ByteSize) -> RepairConfig {
    RepairConfig {
        policy,
        detector: DetectorConfig::default_desktop_grid().with_timeout(timeout_hours * 3_600.0),
        detection: DetectionKind::PerNodeTimeout,
        bandwidth: BandwidthBudget::symmetric(bandwidth),
        sample_period_secs: 3_600.0,
    }
}

/// Deploy the trace once, then run the engine over a copy of the deployment
/// per swept configuration, so every configuration faces the same initial
/// placement (and, with the same seed, the same churn process).
pub fn run_repair_sweep(config: &RepairSweepConfig) -> RepairSweep {
    let deployment = Deployment::oblivious(config.nodes, config.files, config.seed, SWEEP_CODING);
    let churn = ChurnProcess {
        sessions: SessionModel::Synthetic {
            mean_session_secs: config.mean_session_hours * 3_600.0,
            mean_downtime_secs: config.mean_downtime_hours * 3_600.0,
        },
        permanent_fraction: config.permanent_fraction,
        grouped: None,
    };
    let horizon = SimTime::from_secs_f64(config.sim_hours * 3_600.0);

    let mut rows = Vec::new();
    for &bandwidth in &config.bandwidths {
        for &timeout_hours in &config.timeouts_hours {
            for &policy in &config.policies {
                let cell = Cell {
                    churn: churn.clone(),
                    repair: cell_repair(policy, timeout_hours, bandwidth),
                    horizon,
                };
                rows.push(RepairSweepRow {
                    policy,
                    timeout_hours,
                    bandwidth,
                    report: deployment.run_cell(&cell),
                });
            }
        }
    }
    RepairSweep {
        rows,
        nodes: config.nodes,
        // What is under maintenance is a property of the deployment, not of
        // any swept configuration.
        files_total: deployment.manifests.len() as u64,
        useful_bytes: deployment.useful_bytes(),
        sim_hours: config.sim_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RepairSweepConfig {
        RepairSweepConfig {
            nodes: 150,
            files: 600,
            sim_hours: 36.0,
            mean_session_hours: 8.0,
            mean_downtime_hours: 4.0,
            permanent_fraction: 0.01,
            policies: vec![
                RepairPolicy::Eager,
                RepairPolicy::Lazy { margin: 2 },
                RepairPolicy::Lazy { margin: 0 },
            ],
            timeouts_hours: vec![24.0],
            bandwidths: vec![ByteSize::mb(4)],
            seed: 33,
        }
    }

    #[test]
    fn lazy_spends_less_at_equal_or_better_durability() {
        let sweep = run_repair_sweep(&small_config());
        assert_eq!(sweep.rows.len(), 3);
        assert!(sweep.files_total > 0);
        assert!(!sweep.matched_pairs().is_empty());
        for row in &sweep.rows {
            assert!(row.report.events > 0);
            assert!((0.0..=100.0).contains(&row.report.availability_mean_pct));
            // Eager repairs every confirmed loss, so with permanent failures in
            // the run it must spend traffic; a lazy row may legitimately spend
            // nothing (no chunk sank to its threshold).
            if row.policy == RepairPolicy::Eager {
                assert!(row.report.permanent_failures > 0, "{row:?}");
                assert!(row.report.repair_bytes > ByteSize::ZERO, "{row:?}");
            }
        }
        assert!(
            sweep.lazy_beats_eager_somewhere(),
            "lazy must beat eager somewhere: {:#?}",
            sweep.rows
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_repair_sweep(&small_config());
        let b = run_repair_sweep(&small_config());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.report.repair_bytes, rb.report.repair_bytes);
            assert_eq!(ra.report.files_lost, rb.report.files_lost);
            assert_eq!(ra.report.events, rb.report.events);
            assert_eq!(ra.report.false_declarations, rb.report.false_declarations);
        }
    }
}
