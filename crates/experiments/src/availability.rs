//! Fault-tolerance experiments: Figure 10 and Table 3.
//!
//! **Figure 10** distributes the trace over the cluster, then fails nodes one by
//! one (no recovery) and counts the files that become unavailable under three
//! coding policies (none, XOR, online).
//!
//! **Table 3** fails 10 % / 20 % of the nodes *with* recovery enabled and
//! reports the data lost and the data regenerated, per failure and in total.
//! What is lost, what is rebuilt and where it lands is decided by
//! [`peerstripe_core::planner`], the single owner of those rules.

use crate::deployment::Deployment;
use crate::scale::Scale;
use peerstripe_core::{commit_rebuilt, CodingPolicy, DamageLedger, Verdict};
use peerstripe_overlay::NodeRef;
use peerstripe_placement::OverlayRandom;
use peerstripe_sim::stats::Figure;
use peerstripe_sim::{ByteSize, DetRng, OnlineStats, Series};

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
        let mut ledger = DamageLedger::build(&deployed.manifests);
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
            ledger.node_down(node);
            if (i + 1) % sample_every == 0 || i + 1 == config.failures {
                series.push((i + 1) as f64, ledger.unavailable_pct());
            }
        }
        finals.push(ledger.unavailable_pct());
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
    [0.10, 0.20]
        .into_iter()
        .map(|fraction| {
            let mut deployed = Deployment::oblivious(
                config.nodes,
                config.files,
                config.seed,
                CodingPolicy::online_default(),
            );
            let mut ledger = DamageLedger::build(&deployed.manifests);
            let mut rng = DetRng::new(config.seed ^ 0x7ab1e3);
            fail_wave(&mut deployed, &mut ledger, fraction, &mut rng)
        })
        .collect()
}

/// Table 3's single wave: fail `fraction` of the live nodes one after another
/// with instantaneous recovery.  What is written off, which blocks are
/// rebuilt and where they land is the repair planner's decision
/// ([`peerstripe_core::planner`]), as for the maintenance engine and the
/// client; this loop removes the node, asks for one target per lost block,
/// commits and adds up.  A block with no target, or refused at commit, is not
/// re-drawn: the redundancy stays unrestored, the chunk is not lost.
fn fail_wave(
    deployed: &mut Deployment,
    ledger: &mut DamageLedger,
    fraction: f64,
    rng: &mut DetRng,
) -> Table3Row {
    let cluster = &mut deployed.cluster;
    let mut order: Vec<NodeRef> = cluster.overlay().alive_nodes().collect();
    let nodes_failed = ((order.len() as f64) * fraction).round() as usize;
    rng.shuffle(&mut order);
    order.truncate(nodes_failed);
    let mut data_lost = ByteSize::ZERO;
    let mut data_regenerated = ByteSize::ZERO;
    let mut per_failure = OnlineStats::new();
    let mut losses = Vec::new();
    for node in order {
        cluster.fail_node(node);
        let mut regenerated = ByteSize::ZERO;
        ledger.remove_node(node, &mut losses);
        for &loss in &losses {
            let damage = ledger.damage(loss.chunk);
            match damage.verdict(cluster) {
                Verdict::WriteOff => {
                    ledger.mark_lost(loss.chunk);
                    data_lost += ledger.chunk_size(loss.chunk);
                }
                Verdict::Defer => {}
                Verdict::Rebuild => {
                    let (strategy, size) = (&mut OverlayRandom::new(), damage.block_size);
                    for target in damage.targets(strategy, None, cluster, loss.blocks, &[], rng) {
                        if commit_rebuilt(ledger, cluster, loss.chunk, target) {
                            regenerated += size;
                        }
                    }
                }
            }
        }
        data_regenerated += regenerated;
        per_failure.push(regenerated.as_u64() as f64);
    }
    Table3Row {
        failed_fraction: fraction,
        nodes_failed,
        data_lost,
        data_regenerated,
        regen_per_failure_mean: ByteSize::bytes(per_failure.mean().round() as u64),
        regen_per_failure_sd: ByteSize::bytes(per_failure.std_dev().round() as u64),
        total_data: deployed.useful_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_placement::ClusterView;

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

    /// One wave over a 120-node deployment, with the ledger it leaves behind.
    fn wave(coding: CodingPolicy, fraction: f64) -> (Table3Row, DamageLedger, Deployment) {
        let mut deployed = Deployment::oblivious(120, 120 * 8, 6, coding);
        let mut ledger = DamageLedger::build(&deployed.manifests);
        let row = fail_wave(&mut deployed, &mut ledger, fraction, &mut DetRng::new(7));
        (row, ledger, deployed)
    }

    #[test]
    fn regeneration_limits_data_loss_and_the_ledger_accounts_for_it() {
        let (row, ledger, deployed) = wave(CodingPolicy::online_default(), 0.10);
        assert_eq!(row.nodes_failed, 12);
        assert!(row.data_regenerated > ByteSize::ZERO);
        // With 10% failures and a tolerance of two losses per chunk plus
        // regeneration, losses must be a small fraction of the data.
        assert!(
            row.data_lost.as_u64() < row.total_data.as_u64() / 10,
            "lost {} of {}",
            row.data_lost,
            row.total_data
        );
        // Failures write chunks off but never change what the ledger covers,
        // and the row's loss is exactly the chunks the ledger wrote off.
        assert_eq!(ledger.tracked_bytes(), row.total_data);
        let written_off: ByteSize = (0..ledger.chunk_count() as u32)
            .filter(|c| ledger.is_lost(*c))
            .map(|c| ledger.chunk_size(c))
            .sum();
        assert_eq!(written_off, row.data_lost);
        assert!(ledger.is_consistent(|n| deployed.cluster.overlay().is_alive(n)));
    }

    /// Regeneration plays by the rules of the real repair paths: every
    /// regenerated block is charged to its target's capacity, and none lands
    /// beside another block of its chunk.
    #[test]
    fn regenerated_blocks_are_charged_and_never_collocated() {
        let used = |d: &Deployment| -> ByteSize {
            let free: ByteSize = (0..d.cluster.node_count())
                .map(|n| d.cluster.report_of(n))
                .sum();
            d.cluster.total_capacity() - free
        };
        let before = Deployment::oblivious(120, 120 * 8, 6, CodingPolicy::online_default());
        let (row, ledger, after) = wave(CodingPolicy::online_default(), 0.20);
        assert_eq!(used(&after), used(&before) + row.data_regenerated);
        assert_eq!(
            ledger.collocated_since(&DamageLedger::build(&before.manifests)),
            0
        );
    }

    #[test]
    fn without_coding_regeneration_cannot_help() {
        let (row, _, _) = wave(CodingPolicy::None, 0.20);
        // A lost single-copy chunk cannot be regenerated, so every failed node's
        // data is simply gone.
        assert_eq!(row.data_regenerated, ByteSize::ZERO);
        assert!(row.data_lost > ByteSize::ZERO);
    }
}
