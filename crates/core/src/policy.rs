//! Placement-level coding policies.
//!
//! The simulation experiments (Figures 7–10, Table 3) reason about chunks and
//! their erasure-coded blocks at *placement granularity*: how many block objects
//! a chunk turns into, how big each is, how many of them are needed to recover
//! the chunk, and how the `getCapacity` report of the target nodes translates
//! into a chunk size (Section 4.3).  [`CodingPolicy`] captures exactly that and
//! mirrors the three configurations evaluated in the paper:
//!
//! * [`CodingPolicy::None`] — no redundancy, one object per chunk (the Figure 7–9
//!   configuration);
//! * [`CodingPolicy::Xor`] — the (n, n+1) parity code; tolerates one lost block
//!   per chunk at `1/n` extra storage;
//! * [`CodingPolicy::Online`] — rateless online-code placement; a configurable
//!   number of placed blocks with ~3 % byte overhead and a tolerance of two lost
//!   blocks per chunk (the Figure 10 configuration);
//! * [`CodingPolicy::ReedSolomon`] — *optimal* (data, parity) placement: any
//!   `data` of the `data + parity` placed blocks recover the chunk with
//!   certainty, the baseline the paper's Section 4.2 trade-off discussion
//!   compares the online code against.
//!
//! The byte-level codecs behind these policies live in `peerstripe-erasure`;
//! [`CodingPolicy::codec`] builds the matching codec for the real-data path.

use peerstripe_erasure::{ErasureCode, NullCode, OnlineCode, ReedSolomonCode, XorCode};
use peerstripe_sim::ByteSize;

/// Placement-level description of how a chunk is erasure coded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CodingPolicy {
    /// Store each chunk as a single object (no redundancy).
    #[default]
    None,
    /// (group, group+1) parity-check code.
    Xor {
        /// Number of data blocks per parity group (the paper's default is 2).
        group: usize,
    },
    /// Online-code placement: `placed` check-block objects per chunk, of which
    /// any `placed - tolerable` suffice to recover the chunk.
    Online {
        /// Number of block objects placed per chunk.
        placed: usize,
        /// Number of lost blocks per chunk the placement tolerates.
        tolerable: usize,
        /// Byte overhead of the online code itself (≈ 1.03 for ε = 0.01, q = 3).
        overhead: f64,
    },
    /// Optimal GF(256) Reed–Solomon placement: `data + parity` block objects
    /// per chunk, of which **any** `data` recover the chunk (no probabilistic
    /// slack and no byte-level overhead beyond the parity blocks themselves).
    ReedSolomon {
        /// Number of data blocks per chunk.
        data: usize,
        /// Number of parity blocks per chunk (the tolerable losses).
        parity: usize,
    },
}

impl CodingPolicy {
    /// The paper's (2,3) XOR configuration.
    pub fn xor_2_3() -> Self {
        CodingPolicy::Xor { group: 2 }
    }

    /// The paper's online-code configuration: tolerates two simultaneous block
    /// losses per chunk (Section 6.2) at ~3 % storage overhead.
    pub fn online_default() -> Self {
        CodingPolicy::Online {
            placed: 6,
            tolerable: 2,
            overhead: 1.03,
        }
    }

    /// The default Reed–Solomon configuration: six placed blocks of which any
    /// four recover the chunk — the same 6-placed / 2-tolerable geometry as
    /// [`CodingPolicy::online_default`], but optimal (recovery from any
    /// minimal subset is certain, not probabilistic).
    pub fn rs_default() -> Self {
        CodingPolicy::ReedSolomon { data: 4, parity: 2 }
    }

    /// Short name used in figures and tables.
    pub fn label(&self) -> &'static str {
        match self {
            CodingPolicy::None => "No error code",
            CodingPolicy::Xor { .. } => "XOR code",
            CodingPolicy::Online { .. } => "Online code",
            CodingPolicy::ReedSolomon { .. } => "Reed-Solomon code",
        }
    }

    /// Number of block objects a chunk is placed as.
    pub fn placed_blocks(&self) -> usize {
        match *self {
            CodingPolicy::None => 1,
            CodingPolicy::Xor { group } => group + 1,
            CodingPolicy::Online { placed, .. } => placed,
            CodingPolicy::ReedSolomon { data, parity } => data + parity,
        }
    }

    /// Number of data-equivalent blocks used when translating a `getCapacity`
    /// report into a chunk size (Section 4.3: "if the maximum block size returned
    /// is 10 MB, under the above (2,3) XOR code, the chunk size can be 20 MB").
    pub fn data_blocks(&self) -> usize {
        match *self {
            CodingPolicy::None => 1,
            CodingPolicy::Xor { group } => group,
            CodingPolicy::Online {
                placed, tolerable, ..
            } => placed - tolerable,
            CodingPolicy::ReedSolomon { data, .. } => data,
        }
    }

    /// Number of lost blocks per chunk that still allow recovery.
    pub fn tolerable_losses(&self) -> usize {
        match *self {
            CodingPolicy::None => 0,
            CodingPolicy::Xor { .. } => 1,
            CodingPolicy::Online { tolerable, .. } => tolerable,
            CodingPolicy::ReedSolomon { parity, .. } => parity,
        }
    }

    /// Minimum number of surviving blocks needed to recover a chunk.
    pub fn min_blocks_needed(&self) -> usize {
        self.placed_blocks() - self.tolerable_losses()
    }

    /// Size of one placed block for a chunk of the given size.
    ///
    /// Every policy guarantees that any `min_blocks_needed()` surviving blocks
    /// carry enough bytes to reconstruct the chunk; for the online policy that
    /// means each placed block holds `chunk · overhead / (placed − tolerable)`
    /// bytes of check data.
    pub fn block_size(&self, chunk: ByteSize) -> ByteSize {
        match *self {
            CodingPolicy::None => chunk,
            CodingPolicy::Xor { group } => ByteSize::bytes(chunk.as_u64().div_ceil(group as u64)),
            CodingPolicy::Online {
                placed,
                tolerable,
                overhead,
            } => ByteSize::bytes(
                ((chunk.as_u64() as f64 * overhead) / (placed - tolerable) as f64).ceil() as u64,
            ),
            CodingPolicy::ReedSolomon { data, .. } => {
                ByteSize::bytes(chunk.as_u64().div_ceil(data as u64))
            }
        }
    }

    /// Total bytes stored for a chunk of the given size (all placed blocks).
    pub fn stored_size(&self, chunk: ByteSize) -> ByteSize {
        self.block_size(chunk) * self.placed_blocks() as u64
    }

    /// Storage overhead factor (stored bytes over chunk bytes) for large chunks.
    ///
    /// For the online policy this is the *placement-level* overhead — the cost of
    /// spreading the check data over `placed` node-sized blocks of which
    /// `tolerable` may fail — which is larger than the ~3 % byte-level overhead
    /// of the online code itself (Table 2).
    pub fn storage_overhead(&self) -> f64 {
        match *self {
            CodingPolicy::None => 1.0,
            CodingPolicy::Xor { group } => (group as f64 + 1.0) / group as f64,
            CodingPolicy::Online {
                placed,
                tolerable,
                overhead,
            } => overhead * placed as f64 / (placed - tolerable) as f64,
            CodingPolicy::ReedSolomon { data, parity } => (data + parity) as f64 / data as f64,
        }
    }

    /// Chunk size achievable when the probed target nodes report at most
    /// `report` bytes each (Section 4.3).
    pub fn chunk_size_for_report(&self, report: ByteSize) -> ByteSize {
        match *self {
            CodingPolicy::Online {
                placed,
                tolerable,
                overhead,
            } => ByteSize::bytes(
                (report.as_u64() as f64 * (placed - tolerable) as f64 / overhead).floor() as u64,
            ),
            _ => report * self.data_blocks() as u64,
        }
    }

    /// Build the matching byte-level codec for the real-data path.
    ///
    /// The Null, XOR and online codecs divide each chunk into `source_blocks`
    /// blocks (XOR rounds up to a multiple of its group size) and deal them
    /// over the policy's placed blocks.  Reed–Solomon codes at its native
    /// geometry whatever `source_blocks` says — `data` source rows and
    /// `parity` parity rows, one codec row per placed block — so any `data`
    /// of the `data + parity` placed blocks decode and a lost placed block
    /// is exactly one row to rebuild.
    pub fn codec(&self, source_blocks: usize) -> Box<dyn ErasureCode> {
        match *self {
            CodingPolicy::None => Box::new(NullCode::new(source_blocks)),
            CodingPolicy::Xor { group } => {
                // Round the block count up to a multiple of the group size.
                let n = source_blocks.div_ceil(group) * group;
                Box::new(XorCode::new(group, n))
            }
            CodingPolicy::Online {
                placed,
                tolerable,
                overhead,
            } => {
                // The byte path groups the codec's check blocks into `placed`
                // stored objects of which `tolerable` may be lost, so the codec
                // must produce enough check blocks that the surviving groups
                // alone exceed the decode threshold.
                let group_overhead = 1.05 * placed as f64 / (placed - tolerable) as f64;
                Box::new(OnlineCode::with_overhead(
                    source_blocks,
                    0.01,
                    3,
                    group_overhead.max(overhead).max(1.1),
                ))
            }
            CodingPolicy::ReedSolomon { data, parity } => {
                Box::new(ReedSolomonCode::new(data, parity))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_is_passthrough() {
        let p = CodingPolicy::None;
        assert_eq!(p.placed_blocks(), 1);
        assert_eq!(p.tolerable_losses(), 0);
        assert_eq!(p.min_blocks_needed(), 1);
        assert_eq!(p.block_size(ByteSize::mb(80)), ByteSize::mb(80));
        assert_eq!(p.storage_overhead(), 1.0);
        assert_eq!(p.chunk_size_for_report(ByteSize::mb(10)), ByteSize::mb(10));
    }

    #[test]
    fn xor_2_3_matches_paper_example() {
        // "if the maximum block size returned is 10 MB, under the above (2,3) XOR
        //  code, the chunk size can be 20 MB"
        let p = CodingPolicy::xor_2_3();
        assert_eq!(p.chunk_size_for_report(ByteSize::mb(10)), ByteSize::mb(20));
        assert_eq!(p.placed_blocks(), 3);
        assert_eq!(p.tolerable_losses(), 1);
        assert_eq!(p.min_blocks_needed(), 2);
        assert!((p.storage_overhead() - 1.5).abs() < 1e-12);
        assert_eq!(p.block_size(ByteSize::mb(20)), ByteSize::mb(10));
        assert_eq!(p.stored_size(ByteSize::mb(20)), ByteSize::mb(30));
    }

    #[test]
    fn online_default_tolerates_two_losses() {
        let p = CodingPolicy::online_default();
        assert_eq!(p.tolerable_losses(), 2);
        assert_eq!(p.min_blocks_needed(), 4);
        // Placement-level overhead: the byte-level code costs ~3 %, but spreading
        // it over 6 blocks of which 2 may fail multiplies that by 6/4.
        let expected = 1.03 * 6.0 / 4.0;
        assert!((p.storage_overhead() - expected).abs() < 1e-9);
        let chunk = ByteSize::mb(60);
        let stored = p.stored_size(chunk);
        let ratio = stored.as_u64() as f64 / chunk.as_u64() as f64;
        assert!((ratio - expected).abs() < 0.01, "ratio {ratio}");
        // The chunk-size calculation inverts the block-size calculation.
        let report = ByteSize::mb(10);
        let chunk = p.chunk_size_for_report(report);
        assert!(p.block_size(chunk) <= report);
        assert!(p.block_size(chunk + ByteSize::mb(1)) > report);
    }

    #[test]
    fn codecs_match_policies() {
        assert_eq!(CodingPolicy::None.codec(8).name(), "Null");
        assert_eq!(CodingPolicy::xor_2_3().codec(8).name(), "XOR");
        assert_eq!(CodingPolicy::online_default().codec(64).name(), "Online");
        assert_eq!(CodingPolicy::rs_default().codec(16).name(), "ReedSolomon");
        // XOR codec rounds the block count to a multiple of the group size.
        let codec = CodingPolicy::xor_2_3().codec(7);
        assert_eq!(codec.source_blocks(), 8);
        // Reed-Solomon is optimal: the codec decodes from exactly its data
        // blocks, with certainty — min_decode_blocks == source_blocks...
        let rs = CodingPolicy::rs_default().codec(16);
        assert_eq!(rs.source_blocks(), 4, "native geometry, not scaled");
        assert_eq!(rs.min_decode_blocks(), rs.source_blocks());
        assert_eq!(rs.encoded_blocks(), 6, "one codec row per placed block");
        // ...in contrast to the online code, whose (1 + ε)·n' decode bound
        // needs strictly more than n blocks (and only probabilistically).
        let online = CodingPolicy::online_default().codec(16);
        assert!(online.min_decode_blocks() > online.source_blocks());
        // The RS geometry is the policy's own for every `source_blocks`.
        for source_blocks in [1, 16, 1024] {
            let policy = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
            let rs = policy.codec(source_blocks);
            assert_eq!(rs.encoded_blocks(), policy.placed_blocks());
            assert_eq!(rs.min_decode_blocks(), policy.min_blocks_needed());
        }
    }

    #[test]
    fn rs_default_matches_online_geometry_but_optimally() {
        let rs = CodingPolicy::rs_default();
        let online = CodingPolicy::online_default();
        assert_eq!(rs.placed_blocks(), online.placed_blocks());
        assert_eq!(rs.tolerable_losses(), online.tolerable_losses());
        assert_eq!(rs.min_blocks_needed(), 4);
        // Optimality shows up as strictly lower placement-level overhead:
        // 6/4 = 1.5 vs the online placement's 1.03 · 6/4 ≈ 1.545.
        assert!((rs.storage_overhead() - 1.5).abs() < 1e-12);
        assert!(rs.storage_overhead() < online.storage_overhead());
        // Section 4.3 capacity translation: 10 MB reports → 40 MB chunks.
        assert_eq!(rs.chunk_size_for_report(ByteSize::mb(10)), ByteSize::mb(40));
        assert_eq!(rs.block_size(ByteSize::mb(40)), ByteSize::mb(10));
        assert_eq!(rs.stored_size(ByteSize::mb(40)), ByteSize::mb(60));
    }

    #[test]
    fn labels_match_figure_10_legend() {
        assert_eq!(CodingPolicy::None.label(), "No error code");
        assert_eq!(CodingPolicy::xor_2_3().label(), "XOR code");
        assert_eq!(CodingPolicy::online_default().label(), "Online code");
        assert_eq!(CodingPolicy::rs_default().label(), "Reed-Solomon code");
    }

    #[test]
    fn block_sizes_cover_the_chunk() {
        for policy in [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
            CodingPolicy::rs_default(),
        ] {
            let chunk = ByteSize::bytes(81_285_373);
            let per_block = policy.block_size(chunk);
            let recoverable = per_block * policy.min_blocks_needed() as u64;
            assert!(
                recoverable.as_u64() >= chunk.as_u64() / 100 * 99,
                "{}: {recoverable} cannot cover {chunk}",
                policy.label()
            );
        }
    }
}
