//! The file-insertion comparison: Figures 7, 8, 9 and Table 1.
//!
//! The three systems — PAST, CFS, and PeerStripe ("Our System") — are each run
//! on an identically seeded cluster (same node ids, same contributed
//! capacities) and fed the same synthetic trace.  As files are inserted we
//! sample:
//!
//! * the cumulative percentage of failed file stores (Figure 7),
//! * the cumulative percentage of data that failed to be stored (Figure 8),
//! * the overall storage utilization (Figure 9),
//!
//! and at the end we report the chunk-count / chunk-size statistics of CFS and
//! PeerStripe (Table 1).  The three systems run in parallel threads (one cluster
//! each) since they are completely independent.  The comparison reads only how
//! much each node holds, so its nodes keep no per-object records at any scale.

use crate::scale::Scale;
use peerstripe_baselines::{Cfs, Past};
use peerstripe_core::{ClusterConfig, PeerStripe, PeerStripeConfig, StorageCluster, StorageSystem};
use peerstripe_sim::stats::Figure;
use peerstripe_sim::{ByteSize, DetRng, Series};
use peerstripe_trace::{Trace, TraceConfig};

/// Which of the three systems a result row belongs to; the discriminant is
/// the row's index in [`StoreComparison::runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// PAST-style whole-file placement.
    Past,
    /// CFS-style fixed-size blocks.
    Cfs,
    /// PeerStripe (the paper's "Our System").
    PeerStripe,
}

impl SystemKind {
    /// Every system, in [`StoreComparison::runs`] order.
    pub const ALL: [SystemKind; 3] = [SystemKind::Past, SystemKind::Cfs, SystemKind::PeerStripe];

    /// Legend label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Past => "PAST",
            SystemKind::Cfs => "CFS",
            SystemKind::PeerStripe => "Our System",
        }
    }
}

/// Per-system outcome of the insertion sweep.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Which system this is.
    pub kind: SystemKind,
    /// (files inserted, % failed stores) samples — Figure 7.
    pub failed_stores: Series,
    /// (files inserted, % failed bytes) samples — Figure 8.
    pub failed_bytes: Series,
    /// (files inserted, % utilization) samples — Figure 9.
    pub utilization: Series,
    /// Mean / sd of chunks per file — Table 1.
    pub chunk_count_mean: f64,
    /// Standard deviation of chunks per file.
    pub chunk_count_sd: f64,
    /// Mean chunk size — Table 1.
    pub chunk_size_mean: ByteSize,
    /// Standard deviation of chunk size.
    pub chunk_size_sd: ByteSize,
    /// Final failed-store percentage.
    pub final_failed_pct: f64,
    /// Final failed-bytes percentage.
    pub final_failed_bytes_pct: f64,
    /// Final utilization percentage.
    pub final_utilization_pct: f64,
    /// Routed lookups the system charged its overlay over the whole sweep:
    /// a deterministic count of its placement work (CFS charges one per
    /// block placement attempt).
    pub lookups: u64,
}

/// The full result of the insertion comparison.
#[derive(Debug, Clone)]
pub struct StoreComparison {
    /// One run per system, in `[PAST, CFS, PeerStripe]` order.
    pub runs: [SystemRun; 3],
    /// Number of files offered.
    pub files_offered: usize,
    /// Total bytes offered.
    pub bytes_offered: ByteSize,
    /// Total cluster capacity.
    pub capacity: ByteSize,
}

impl StoreComparison {
    /// Look up a run by system kind.
    pub fn run(&self, kind: SystemKind) -> &SystemRun {
        &self.runs[kind as usize]
    }

    /// Figure 7: failed stores vs. files inserted.
    pub fn figure7(&self) -> Figure {
        self.figure(
            |r| r.failed_stores.clone(),
            "Figure 7: failed file stores",
            "% failed stores",
        )
    }

    /// Figure 8: failed bytes vs. files inserted.
    pub fn figure8(&self) -> Figure {
        self.figure(
            |r| r.failed_bytes.clone(),
            "Figure 8: failed store data",
            "% failed data",
        )
    }

    /// Figure 9: utilization vs. files inserted.
    pub fn figure9(&self) -> Figure {
        self.figure(
            |r| r.utilization.clone(),
            "Figure 9: system utilization",
            "% utilization",
        )
    }

    fn figure(&self, pick: impl Fn(&SystemRun) -> Series, title: &str, y: &str) -> Figure {
        let mut fig = Figure::new(title, "files inserted", y);
        for run in &self.runs {
            fig.push_series(pick(run));
        }
        fig
    }
}

/// Configuration of the insertion comparison.
#[derive(Debug, Clone)]
pub struct StoreSimConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Number of trace files inserted.
    pub files: usize,
    /// Number of sample points along the insertion.
    pub samples: usize,
    /// Base random seed.
    pub seed: u64,
}

impl StoreSimConfig {
    /// Configuration for a given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        StoreSimConfig {
            nodes: scale.nodes(),
            files: scale.trace_files(),
            samples: scale.sample_points(),
            seed,
        }
    }
}

/// Run the insertion comparison for all three systems.
pub fn run_store_comparison(config: &StoreSimConfig) -> StoreComparison {
    let trace = TraceConfig::scaled(config.files).generate(config.seed ^ 0x7ace);
    let bytes_offered = trace.total_size();

    let trace = &trace;
    let runs = std::thread::scope(|scope| {
        SystemKind::ALL
            .map(|kind| scope.spawn(move || run_single_system(kind, config, trace)))
            .map(|handle| {
                // A worker's panic is the caller's: re-raise it as it was.
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
    });
    // The three clusters are identically seeded; recompute the shared capacity once.
    let mut rng = DetRng::new(config.seed);
    let cluster = ClusterConfig::scaled(config.nodes).build(&mut rng);

    StoreComparison {
        runs,
        files_offered: config.files,
        bytes_offered,
        capacity: cluster.total_capacity(),
    }
}

/// Run the insertion sweep for one system.
pub fn run_single_system(kind: SystemKind, config: &StoreSimConfig, trace: &Trace) -> SystemRun {
    let cluster = ClusterConfig::scaled(config.nodes).build(&mut DetRng::new(config.seed));
    run_system_on(kind, cluster, config, trace)
}

/// Run the insertion sweep for one system on `cluster`, which stands for
/// the one [`run_single_system`] builds from `config`.
pub fn run_system_on(
    kind: SystemKind,
    cluster: StorageCluster,
    config: &StoreSimConfig,
    trace: &Trace,
) -> SystemRun {
    let mut system: Box<dyn StorageSystem> = match kind {
        SystemKind::Past => Box::new(Past::new(cluster)),
        // CFS retries are per 4 MB block, and a block only needs a node with
        // 4 MB free, so its effective retry budget is deeper than PAST's
        // whole-file placement.
        SystemKind::Cfs => Box::new(Cfs::new(cluster, 8)),
        SystemKind::PeerStripe => Box::new(PeerStripe::new(
            cluster,
            PeerStripeConfig {
                // Table 1 reports ~3.7 chunks of ~81 MB per 243 MB file, which
                // implies the per-probe report was effectively bounded around
                // 80–100 MB; we reproduce that by capping each chunk at 96 MB
                // (the Section 4.5 chunk-size knob).
                max_chunk_size: Some(ByteSize::mb(96)),
                track_manifests: false,
                ..PeerStripeConfig::default()
            },
        )),
    };

    let sample_every = (trace.len() / config.samples.max(1)).max(1);
    let mut failed_stores = Series::new(kind.label());
    let mut failed_bytes = Series::new(kind.label());
    let mut utilization = Series::new(kind.label());
    for (i, file) in trace.files.iter().enumerate() {
        let _ = system.store_file(file);
        let inserted = (i + 1) as f64;
        if (i + 1) % sample_every == 0 || i + 1 == trace.len() {
            let m = system.metrics();
            failed_stores.push(inserted, m.failed_store_pct());
            failed_bytes.push(inserted, m.failed_bytes_pct());
            utilization.push(inserted, system.utilization() * 100.0);
        }
    }

    let m = system.metrics();
    SystemRun {
        kind,
        final_failed_pct: m.failed_store_pct(),
        final_failed_bytes_pct: m.failed_bytes_pct(),
        final_utilization_pct: system.utilization() * 100.0,
        lookups: system.cluster().overlay().stats().lookups,
        chunk_count_mean: m.mean_chunks_per_file(),
        chunk_count_sd: m.sd_chunks_per_file(),
        chunk_size_mean: m.mean_chunk_size(),
        chunk_size_sd: m.sd_chunk_size(),
        failed_stores,
        failed_bytes,
        utilization,
    }
}

/// Table 1: chunk-count and chunk-size statistics of CFS vs. PeerStripe.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// `(scheme, chunk count mean, sd, chunk size mean, sd)` rows.
    pub rows: Vec<(String, f64, f64, ByteSize, ByteSize)>,
}

impl StoreComparison {
    /// Extract Table 1 from the comparison.
    pub fn table1(&self) -> Table1 {
        let mut rows = Vec::new();
        for kind in [SystemKind::Cfs, SystemKind::PeerStripe] {
            let run = self.run(kind);
            rows.push((
                kind.label().to_string(),
                run.chunk_count_mean,
                run.chunk_count_sd,
                run.chunk_size_mean,
                run.chunk_size_sd,
            ));
        }
        Table1 { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_comparison() -> StoreComparison {
        run_store_comparison(&StoreSimConfig {
            nodes: 150,
            files: 150 * 120,
            samples: 6,
            seed: 11,
        })
    }

    #[test]
    fn paper_orderings_hold_at_small_scale() {
        let cmp = small_comparison();
        let past = cmp.run(SystemKind::Past);
        let cfs = cmp.run(SystemKind::Cfs);
        let ours = cmp.run(SystemKind::PeerStripe);

        // Figure 7 ordering: PeerStripe fails least, PAST most.
        assert!(ours.final_failed_pct < cfs.final_failed_pct);
        assert!(cfs.final_failed_pct < past.final_failed_pct);
        assert!(past.final_failed_pct > 10.0, "PAST must fail substantially");
        assert!(ours.final_failed_pct < 15.0);

        // Figure 8 ordering: same for failed bytes.
        assert!(ours.final_failed_bytes_pct < cfs.final_failed_bytes_pct);
        assert!(cfs.final_failed_bytes_pct < past.final_failed_bytes_pct);

        // Figure 9 ordering: PeerStripe utilizes the system best.
        assert!(ours.final_utilization_pct > cfs.final_utilization_pct);
        assert!(cfs.final_utilization_pct > past.final_utilization_pct);

        // Table 1 shape: CFS creates an order of magnitude more, smaller chunks.
        assert!(cfs.chunk_count_mean > 10.0 * ours.chunk_count_mean);
        assert!(ours.chunk_size_mean > cfs.chunk_size_mean);
        assert!(cfs.chunk_size_mean <= ByteSize::mb(4));
    }

    #[test]
    fn curves_are_monotonic_in_failures() {
        let cmp = small_comparison();
        for run in &cmp.runs {
            for w in run.failed_stores.points.windows(2) {
                assert!(w[1].0 > w[0].0, "x increases");
            }
            for w in run.utilization.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "utilization never decreases");
            }
        }
    }

    #[test]
    fn figures_contain_all_three_series() {
        let cmp = small_comparison();
        for fig in [cmp.figure7(), cmp.figure8(), cmp.figure9()] {
            assert_eq!(fig.series.len(), 3);
            assert!(fig.series_named("PAST").is_some());
            assert!(fig.series_named("CFS").is_some());
            assert!(fig.series_named("Our System").is_some());
        }
        let t1 = cmp.table1();
        assert_eq!(t1.rows.len(), 2);
    }
}
