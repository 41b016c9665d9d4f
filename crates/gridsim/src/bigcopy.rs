//! The `bigCopy` case study (Section 6.4, Table 4).
//!
//! `bigCopy` is a trivially simple Condor job that copies a file of a given
//! size.  The paper runs it on a 32-machine pool under three storage back-ends:
//!
//! * **Whole file** — original Condor behaviour: the copy lives on a single
//!   machine's disk, so the job only works while some machine can hold it;
//! * **Fixed-size chunks** — a CFS-like back-end chopping the copy into 4 MB
//!   blocks, paying one p2p lookup per block;
//! * **Varying-size chunks** — PeerStripe, whose chunk count depends on node
//!   capacities rather than file size.
//!
//! [`run_bigcopy`] stores the copy through the corresponding storage system on a
//! freshly built pool (so chunk counts, retries, and lookups are *measured*, not
//! assumed) and converts them into wall-clock time with the pool's
//! [`NetworkModel`].  [`table4`] sweeps the paper's 1–128 GB file sizes.

use crate::network::NetworkModel;
use crate::pool::PoolConfig;
use peerstripe_baselines::{Cfs, CfsConfig};
use peerstripe_core::{PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe_sim::ByteSize;
use peerstripe_trace::FileRecord;
use serde::{Deserialize, Serialize};

/// The storage back-end used by a `bigCopy` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BigCopyScheme {
    /// Original Condor: the copy is stored whole on one machine.
    WholeFile,
    /// CFS-like fixed-size chunks (the paper uses 4 MB).
    FixedChunks,
    /// PeerStripe varying-size chunks.
    VaryingChunks,
}

impl BigCopyScheme {
    /// Column label used in Table 4.
    pub fn label(&self) -> &'static str {
        match self {
            BigCopyScheme::WholeFile => "Whole file",
            BigCopyScheme::FixedChunks => "Fixed size chunks",
            BigCopyScheme::VaryingChunks => "Varying size chunks",
        }
    }
}

/// Result of one `bigCopy` run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BigCopyResult {
    /// File size copied.
    pub size: ByteSize,
    /// Whether the copy could be stored at all (the whole-file scheme fails once
    /// the file exceeds the submit machine's disk).
    pub succeeded: bool,
    /// Wall-clock seconds for the copy (meaningless when `succeeded` is false).
    pub elapsed_secs: f64,
    /// Number of chunks/blocks the copy was stored as.
    pub chunks: u64,
    /// Number of overlay lookups issued while storing.
    pub lookups: u64,
}

impl BigCopyResult {
    /// Overhead relative to a whole-file baseline time, as a percentage.
    pub fn overhead_pct(&self, baseline_secs: f64) -> Option<f64> {
        if !self.succeeded || baseline_secs <= 0.0 {
            None
        } else {
            Some(100.0 * (self.elapsed_secs / baseline_secs - 1.0))
        }
    }
}

/// Run `bigCopy` for one file size under one scheme on a freshly built pool.
pub fn run_bigcopy(
    size: ByteSize,
    scheme: BigCopyScheme,
    pool_config: &PoolConfig,
    seed: u64,
) -> BigCopyResult {
    let net = pool_config.network;
    let file = FileRecord::new("bigCopy.out", size);

    match scheme {
        BigCopyScheme::WholeFile => {
            // Original Condor: the copy lands on the submission machine's disk.
            let fits = size <= pool_config.submit_machine_disk;
            BigCopyResult {
                size,
                succeeded: fits,
                elapsed_secs: if fits {
                    net.transfer_secs(size)
                } else {
                    f64::NAN
                },
                chunks: 1,
                lookups: 0,
            }
        }
        BigCopyScheme::FixedChunks => {
            let mut cfs = Cfs::new(
                pool_config.build(seed),
                CfsConfig {
                    // "enough retries were made … to ensure that all blocks can
                    // be stored" — give the baseline a deep retry budget.
                    retries_per_block: 64,
                    track_manifests: false,
                    ..CfsConfig::paper_simulation()
                },
            );
            let outcome = cfs.store_file(&file);
            let lookups = cfs.cluster().overlay().stats().lookups;
            let chunks = cfs.blocks_for(size);
            let elapsed = scheme_time(&net, size, chunks, lookups, false);
            BigCopyResult {
                size,
                succeeded: outcome.is_stored(),
                elapsed_secs: elapsed,
                chunks,
                lookups,
            }
        }
        BigCopyScheme::VaryingChunks => {
            let mut ps = PeerStripe::new(
                pool_config.build(seed),
                PeerStripeConfig {
                    zero_chunk_limit: 64,
                    track_manifests: true,
                    ..PeerStripeConfig::paper_simulation()
                },
            );
            let outcome = ps.store_file(&file);
            let lookups = ps.cluster().overlay().stats().lookups;
            let chunks = ps
                .manifest("bigCopy.out")
                .map(|m| m.chunks.iter().filter(|c| !c.size.is_zero()).count() as u64)
                .unwrap_or(0);
            let elapsed = scheme_time(&net, size, chunks, lookups, true);
            BigCopyResult {
                size,
                succeeded: outcome.is_stored(),
                elapsed_secs: elapsed,
                chunks,
                lookups,
            }
        }
    }
}

/// Convert measured placement activity into wall-clock seconds.
fn scheme_time(
    net: &NetworkModel,
    size: ByteSize,
    chunks: u64,
    lookups: u64,
    varying: bool,
) -> f64 {
    // In the 32-node pool every lookup resolves in one hop; lookups issued later
    // in the job contend with its own bulk transfer (see `lookup_sequence_secs`).
    let mut t = net.transfer_secs(size)
        + net.interposition_fixed_secs
        + net.lookup_sequence_secs(1, lookups);
    if varying {
        // getCapacity probing and CAT creation/replication.
        t += net.varying_setup_secs + net.message_secs(1) * chunks as f64;
    }
    t
}

/// One row of Table 4: the three schemes at one file size.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// File size for this row.
    pub size: ByteSize,
    /// Whole-file result.
    pub whole: BigCopyResult,
    /// Fixed-size-chunk result.
    pub fixed: BigCopyResult,
    /// Varying-size-chunk result.
    pub varying: BigCopyResult,
}

impl Table4Row {
    /// Overhead of the fixed-chunk scheme over the whole-file scheme (percent),
    /// `None` when the whole-file scheme could not store the file.
    pub fn fixed_overhead_pct(&self) -> Option<f64> {
        self.whole
            .succeeded
            .then(|| self.fixed.overhead_pct(self.whole.elapsed_secs))
            .flatten()
    }

    /// Overhead of the varying-chunk scheme over the whole-file scheme (percent).
    pub fn varying_overhead_pct(&self) -> Option<f64> {
        self.whole
            .succeeded
            .then(|| self.varying.overhead_pct(self.whole.elapsed_secs))
            .flatten()
    }
}

/// Reproduce Table 4: `bigCopy` for each file size under the three schemes.
pub fn table4(sizes: &[ByteSize], pool_config: &PoolConfig, seed: u64) -> Vec<Table4Row> {
    sizes
        .iter()
        .map(|&size| Table4Row {
            size,
            whole: run_bigcopy(size, BigCopyScheme::WholeFile, pool_config, seed),
            fixed: run_bigcopy(size, BigCopyScheme::FixedChunks, pool_config, seed),
            varying: run_bigcopy(size, BigCopyScheme::VaryingChunks, pool_config, seed),
        })
        .collect()
}

/// The file sizes of Table 4: 1, 2, 4, … 128 GB.
pub fn table4_sizes() -> Vec<ByteSize> {
    (0..8).map(|i| ByteSize::gb(1 << i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels() {
        assert_eq!(BigCopyScheme::WholeFile.label(), "Whole file");
        assert_eq!(BigCopyScheme::FixedChunks.label(), "Fixed size chunks");
        assert_eq!(BigCopyScheme::VaryingChunks.label(), "Varying size chunks");
    }

    #[test]
    fn whole_file_fails_past_submit_disk() {
        let cfg = PoolConfig::paper();
        let small = run_bigcopy(ByteSize::gb(1), BigCopyScheme::WholeFile, &cfg, 1);
        assert!(small.succeeded);
        let big = run_bigcopy(ByteSize::gb(16), BigCopyScheme::WholeFile, &cfg, 1);
        assert!(
            !big.succeeded,
            "16 GB exceeds any single machine, as in Table 4"
        );
    }

    #[test]
    fn chunked_schemes_store_what_whole_file_cannot() {
        let cfg = PoolConfig::paper();
        for scheme in [BigCopyScheme::FixedChunks, BigCopyScheme::VaryingChunks] {
            let r = run_bigcopy(ByteSize::gb(16), scheme, &cfg, 2);
            assert!(r.succeeded, "{:?} must store a 16 GB copy", scheme);
            assert!(r.elapsed_secs.is_finite());
        }
    }

    #[test]
    fn varying_chunks_create_far_fewer_chunks() {
        let cfg = PoolConfig::paper();
        let fixed = run_bigcopy(ByteSize::gb(8), BigCopyScheme::FixedChunks, &cfg, 3);
        let varying = run_bigcopy(ByteSize::gb(8), BigCopyScheme::VaryingChunks, &cfg, 3);
        assert!(fixed.chunks >= 2048);
        assert!(varying.chunks <= 64);
        assert!(fixed.lookups > varying.lookups * 10);
    }

    #[test]
    fn fixed_chunk_overhead_grows_with_size_varying_shrinks() {
        // The qualitative shape of Table 4.
        let cfg = PoolConfig::paper();
        let rows = table4(&[ByteSize::gb(1), ByteSize::gb(8)], &cfg, 4);
        let fixed_1 = rows[0].fixed_overhead_pct().unwrap();
        let fixed_8 = rows[1].fixed_overhead_pct().unwrap();
        let varying_1 = rows[0].varying_overhead_pct().unwrap();
        let varying_8 = rows[1].varying_overhead_pct().unwrap();
        assert!(
            fixed_8 > fixed_1,
            "fixed-chunk overhead must grow: {fixed_1:.1}% -> {fixed_8:.1}%"
        );
        assert!(
            varying_8 < varying_1,
            "varying-chunk overhead must shrink: {varying_1:.1}% -> {varying_8:.1}%"
        );
        assert!(varying_8 < fixed_8, "at 8 GB varying chunks must win");
    }

    #[test]
    fn per_size_times_increase_with_size() {
        let cfg = PoolConfig::paper();
        let rows = table4(
            &[ByteSize::gb(1), ByteSize::gb(2), ByteSize::gb(4)],
            &cfg,
            5,
        );
        for pair in rows.windows(2) {
            assert!(pair[1].fixed.elapsed_secs > pair[0].fixed.elapsed_secs);
            assert!(pair[1].varying.elapsed_secs > pair[0].varying.elapsed_secs);
        }
    }

    #[test]
    fn table4_sizes_match_paper() {
        let sizes = table4_sizes();
        assert_eq!(sizes.len(), 8);
        assert_eq!(sizes[0], ByteSize::gb(1));
        assert_eq!(sizes[7], ByteSize::gb(128));
    }
}
