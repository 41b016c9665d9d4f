//! Fault-tolerance experiments: Figure 10 and Table 3.
//!
//! **Figure 10** distributes the trace over the cluster, then fails nodes one by
//! one (no recovery) and counts the files that become unavailable under three
//! coding policies (none, XOR, online).
//!
//! **Table 3** fails 10 % / 20 % of the nodes *with* recovery enabled and
//! reports the data lost and the data regenerated, per failure and in total.

use crate::deployment::Deployment;
use crate::scale::Scale;
use peerstripe_core::churn::{AvailabilityTracker, RegenerationSim};
use peerstripe_core::CodingPolicy;
use peerstripe_sim::stats::Figure;
use peerstripe_sim::{ByteSize, DetRng, Series};

/// Configuration of the churn experiments.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Number of files distributed before churn starts.
    pub files: usize,
    /// Number of single-node failures in the Figure 10 sweep.
    pub failures: usize,
    /// Number of sample points along the failure sweep.
    pub samples: usize,
    /// Base random seed.
    pub seed: u64,
}

impl ChurnConfig {
    /// Configuration for a given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        ChurnConfig {
            nodes: scale.nodes(),
            files: scale.churn_files(),
            failures: scale.availability_failures(),
            samples: scale.sample_points(),
            seed,
        }
    }
}

/// Result of the Figure 10 sweep.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// One curve per coding policy: (nodes failed, % unavailable files).
    pub curves: Vec<Series>,
    /// Final unavailable percentage per policy, in the order of `curves`.
    pub final_unavailable_pct: Vec<f64>,
}

impl AvailabilityResult {
    /// Figure 10.
    pub fn figure10(&self) -> Figure {
        let mut fig = Figure::new(
            "Figure 10: unavailable files vs. failed nodes",
            "failed nodes",
            "% unavailable files",
        );
        for c in &self.curves {
            fig.push_series(c.clone());
        }
        fig
    }
}

/// Run the Figure 10 experiment: fail `config.failures` nodes one by one under
/// each coding policy and track the unavailable-file percentage.
pub fn run_availability(config: &ChurnConfig) -> AvailabilityResult {
    let policies = [
        CodingPolicy::None,
        CodingPolicy::xor_2_3(),
        CodingPolicy::online_default(),
    ];
    let mut curves = Vec::new();
    let mut finals = Vec::new();
    for policy in policies {
        let mut deployed = Deployment::oblivious(config.nodes, config.files, config.seed, policy);
        let mut tracker = AvailabilityTracker::build(&deployed.manifests);
        // The same failure order is used for every policy (fresh RNG per policy).
        let mut rng = DetRng::new(config.seed ^ 0xfa11);
        let mut series = Series::new(policy.label());
        let sample_every = (config.failures / config.samples.max(1)).max(1);
        series.push(0.0, 0.0);
        for i in 0..config.failures {
            let Some(node) = deployed.cluster.overlay().random_alive(&mut rng) else {
                break;
            };
            deployed.cluster.fail_node(node);
            tracker.fail_node(node);
            if (i + 1) % sample_every == 0 || i + 1 == config.failures {
                series.push((i + 1) as f64, tracker.unavailable_pct());
            }
        }
        finals.push(tracker.unavailable_pct());
        curves.push(series);
    }
    AvailabilityResult {
        curves,
        final_unavailable_pct: finals,
    }
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Fraction of nodes failed (0.10 or 0.20).
    pub failed_fraction: f64,
    /// Number of nodes failed.
    pub nodes_failed: usize,
    /// Total user data lost.
    pub data_lost: ByteSize,
    /// Total data regenerated.
    pub data_regenerated: ByteSize,
    /// Mean regenerated bytes per failure.
    pub regen_per_failure_mean: ByteSize,
    /// Standard deviation of regenerated bytes per failure.
    pub regen_per_failure_sd: ByteSize,
    /// Total user data stored before the churn (for context).
    pub total_data: ByteSize,
}

/// Run the Table 3 experiment: fail 10 % and 20 % of the nodes with recovery.
pub fn run_regeneration(config: &ChurnConfig) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for fraction in [0.10, 0.20] {
        let mut deployed = Deployment::oblivious(
            config.nodes,
            config.files,
            config.seed,
            CodingPolicy::online_default(),
        );
        let total_data = deployed.useful_bytes();
        let mut rng = DetRng::new(config.seed ^ 0x7ab1e3);
        let mut sim = RegenerationSim::build(&deployed.manifests);
        let report = sim.fail_fraction(&mut deployed.cluster, fraction, &mut rng);
        rows.push(Table3Row {
            failed_fraction: fraction,
            nodes_failed: report.nodes_failed,
            data_lost: report.data_lost,
            data_regenerated: report.data_regenerated,
            regen_per_failure_mean: ByteSize::bytes(report.per_failure.mean().round() as u64),
            regen_per_failure_sd: ByteSize::bytes(report.per_failure.std_dev().round() as u64),
            total_data,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ChurnConfig {
        ChurnConfig {
            nodes: 200,
            files: 200 * 8,
            failures: 20,
            samples: 5,
            seed: 21,
        }
    }

    #[test]
    fn figure10_ordering_holds() {
        let result = run_availability(&small_config());
        assert_eq!(result.curves.len(), 3);
        let [none, xor, online] = &result.final_unavailable_pct[..] else {
            panic!("three policies expected");
        };
        assert!(
            none > xor,
            "no coding ({none}) must lose more than XOR ({xor})"
        );
        assert!(
            xor >= online,
            "XOR ({xor}) must lose at least as much as online ({online})"
        );
        assert!(*none > 0.0);
        // The figure carries the paper's legend labels.
        let fig = result.figure10();
        assert!(fig.series_named("No error code").is_some());
        assert!(fig.series_named("XOR code").is_some());
        assert!(fig.series_named("Online code").is_some());
    }

    #[test]
    fn figure10_curves_are_monotonic() {
        let result = run_availability(&small_config());
        for curve in &result.curves {
            for w in curve.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "unavailability never decreases");
            }
        }
    }

    #[test]
    fn table3_losses_are_small_relative_to_data() {
        let rows = run_regeneration(&small_config());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].failed_fraction, 0.10);
        assert_eq!(rows[1].failed_fraction, 0.20);
        for row in &rows {
            assert!(row.data_regenerated > ByteSize::ZERO);
            // The paper's headline: data lost is a tiny fraction of the total,
            // and regeneration per failure is small.
            assert!(row.data_lost.as_u64() < row.total_data.as_u64() / 5);
        }
        // Failing twice as many nodes regenerates more data.
        assert!(rows[1].data_regenerated >= rows[0].data_regenerated);
        assert!(rows[1].nodes_failed > rows[0].nodes_failed);
    }
}
