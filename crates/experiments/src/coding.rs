//! Erasure-code cost measurements: Table 2 and the Reed–Solomon sweep.
//!
//! Both are lists of cells — a codec at a chunk size — and every cell is
//! measured by [`measure_code`]: encode, decode from all blocks, decode from
//! an exactly minimal random subset, and the share of those subsets that
//! recovered the chunk.  The minimal subset separates optimal codecs
//! (Reed–Solomon: always succeeds) from sub-optimal ones (online: succeeds
//! only with high probability at its `(1 + ε)·n'` bound).
//!
//! Table 2 stores a 4 MB chunk (4 096 blocks) under the NULL, XOR, and online
//! codes and reports the encoded size and the encoding time, each with its
//! overhead relative to NULL.  [`run_table2`] adds the *optimal* GF(256)
//! Reed–Solomon code the paper's Section 4.2 trade-off discussion compares the
//! online code against.  [`run_rs_sweep`] measures Reed–Solomon over (data,
//! parity) geometries × chunk sizes; its minimal-subset recovery is always
//! 100 % — the optimality property the sub-optimal codecs cannot offer.  The
//! scalar / `nibble64` / worker-per-CPU encode comparison is
//! `bench_snapshot::run_rs_encode_snapshot`'s.

use crate::clock::timed;
use crate::scale::Scale;
use peerstripe_erasure::{ErasureCode, NullCode, OnlineCode, ReedSolomonCode, XorCode};
use peerstripe_sim::{ByteSize, DetRng, OnlineStats};

/// Measured cost of one erasure code on a fixed-size chunk.
#[derive(Debug, Clone)]
pub struct CodeCost {
    /// Codec name ("Null", "XOR", "Online", "ReedSolomon").
    pub name: &'static str,
    /// Size of the input chunk.
    pub chunk_size: ByteSize,
    /// Total size of the encoded blocks.
    pub encoded_size: ByteSize,
    /// Mean wall-clock encoding time in milliseconds.
    pub encode_ms: f64,
    /// Mean wall-clock decoding time in milliseconds (from all blocks).
    pub decode_ms: f64,
    /// Standard deviation of encoding time across runs.
    pub encode_ms_sd: f64,
    /// Standard deviation of decoding time across runs.
    pub decode_ms_sd: f64,
    /// Mean wall-clock time in milliseconds of decoding from a random subset
    /// of exactly [`ErasureCode::min_decode_blocks`] blocks (success or not).
    pub decode_min_ms: f64,
    /// Standard deviation of the minimal-subset decoding time across runs.
    pub decode_min_ms_sd: f64,
    /// Minimal-subset decode attempts (one per run).
    pub min_subset_attempts: usize,
    /// Minimal-subset decode attempts that recovered the chunk.
    pub min_subset_successes: usize,
}

impl CodeCost {
    /// Storage overhead relative to the original chunk, as a percentage
    /// (e.g. 50.0 for the (2,3) XOR code).
    pub fn size_overhead_pct(&self) -> f64 {
        if self.chunk_size.is_zero() {
            0.0
        } else {
            100.0 * (self.encoded_size.as_u64() as f64 / self.chunk_size.as_u64() as f64 - 1.0)
        }
    }

    /// Encoding-time overhead relative to a baseline (the NULL code), as a percentage.
    pub fn time_overhead_pct(&self, baseline: &CodeCost) -> f64 {
        if baseline.encode_ms <= 0.0 {
            0.0
        } else {
            100.0 * (self.encode_ms / baseline.encode_ms - 1.0)
        }
    }

    /// Fraction of minimal-subset decode attempts that recovered the chunk, as
    /// a percentage.  100 % characterises an optimal code; the online code's
    /// `(1 + ε)·n'` bound only holds with high probability.
    pub fn min_subset_recovery_pct(&self) -> f64 {
        if self.min_subset_attempts == 0 {
            0.0
        } else {
            100.0 * self.min_subset_successes as f64 / self.min_subset_attempts as f64
        }
    }
}

/// Measure encode/decode cost of `code` on a random chunk of `chunk_size`,
/// averaged over `runs` repetitions.
pub fn measure_code(
    code: &dyn ErasureCode,
    chunk_size: ByteSize,
    runs: usize,
    seed: u64,
) -> CodeCost {
    assert!(runs > 0, "at least one run required");
    let mut rng = DetRng::new(seed);
    let chunk: Vec<u8> = (0..chunk_size.as_u64())
        .map(|_| rng.next_u32() as u8)
        .collect();

    let mut encode_stats = OnlineStats::new();
    let mut decode_stats = OnlineStats::new();
    let mut decode_min_stats = OnlineStats::new();
    let mut encoded_size = ByteSize::ZERO;
    let mut min_subset_attempts = 0usize;
    let mut min_subset_successes = 0usize;
    for _ in 0..runs {
        let (blocks, encode_ms) = timed(|| code.encode(&chunk));
        encode_stats.push(encode_ms);
        encoded_size = ByteSize::bytes(blocks.iter().map(|b| b.len() as u64).sum());

        let (decoded, decode_ms) = timed(|| code.decode(&blocks, chunk.len()));
        decode_stats.push(decode_ms);
        #[expect(
            clippy::expect_used,
            reason = "measurement harness: a codec failing its own roundtrip must abort the run"
        )]
        let decoded = decoded.expect("decoding from the full block set must succeed");
        assert_eq!(decoded.len(), chunk.len());

        // Decode again from a random subset of exactly min_decode_blocks
        // blocks.  The subset is drawn (and cloned) outside the timed region.
        let min = code.min_decode_blocks().min(blocks.len());
        let subset: Vec<_> = rng
            .sample_indices(blocks.len(), min)
            .into_iter()
            .map(|i| blocks[i].clone())
            .collect();
        let (outcome, decode_min_ms) = timed(|| code.decode(&subset, chunk.len()));
        decode_min_stats.push(decode_min_ms);
        min_subset_attempts += 1;
        if outcome.map(|d| d == chunk).unwrap_or(false) {
            min_subset_successes += 1;
        }
    }

    CodeCost {
        name: code.name(),
        chunk_size,
        encoded_size,
        encode_ms: encode_stats.mean(),
        decode_ms: decode_stats.mean(),
        encode_ms_sd: encode_stats.sample_std_dev(),
        decode_ms_sd: decode_stats.sample_std_dev(),
        decode_min_ms: decode_min_stats.mean(),
        decode_min_ms_sd: decode_min_stats.sample_std_dev(),
        min_subset_attempts,
        min_subset_successes,
    }
}

/// Result of the Table 2 measurement.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Chunk size measured.
    pub chunk_size: ByteSize,
    /// Number of source blocks per chunk (Null, XOR and online rows).
    pub blocks: usize,
    /// Data blocks of the ReedSolomon row — GF(256) caps the code at 256
    /// blocks total, so it cannot run at the paper's 4096-block geometry and
    /// its row is measured at [`table2_rs_code`]'s (data, parity) instead.
    pub rs_data: usize,
    /// Parity blocks of the ReedSolomon row.
    pub rs_parity: usize,
    /// Rows in `[Null, XOR, Online, ReedSolomon]` order; encode overheads
    /// are relative to the first.
    pub rows: Vec<CodeCost>,
}

/// Configuration of the Table 2 measurement.
#[derive(Debug, Clone, Copy)]
pub struct CodingConfig {
    /// Chunk size to encode.
    pub chunk_size: ByteSize,
    /// Number of source blocks per chunk.
    pub blocks: usize,
    /// Number of timing repetitions.
    pub runs: usize,
    /// Random seed for the chunk contents.
    pub seed: u64,
}

impl CodingConfig {
    /// Configuration for a given scale (paper scale: 4 MB chunks, 4 096 blocks,
    /// 10 runs).
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        CodingConfig {
            chunk_size: scale.erasure_chunk(),
            blocks: scale.erasure_blocks(),
            runs: scale.timing_runs(),
            seed,
        }
    }
}

/// The Reed–Solomon configuration measured against the paper's codecs in
/// Table 2: as many data blocks as GF(256) allows (223, the classic RS(255)
/// data width) up to the configured block count, with ~3 % parity to match
/// the online code's storage overhead.
pub fn table2_rs_code(blocks: usize) -> ReedSolomonCode {
    let data = blocks.min(223);
    let parity = (data * 3).div_ceil(100).max(2);
    ReedSolomonCode::new(data, parity)
}

/// Run the Table 2 measurement.
pub fn run_table2(config: &CodingConfig) -> Table2 {
    let null = NullCode::new(config.blocks);
    let xor = XorCode::new(2, config.blocks);
    // q = 3, ε = 0.01 as in the paper; ~3 % extra check blocks at the paper's
    // 4 096-block configuration.  Small-scale runs use fewer blocks, where the
    // asymptotic (1 + ε) decode bound needs a proportionally larger safety
    // margin, hence the 8-block cushion.
    let overhead = 1.03 + 8.0 / config.blocks as f64;
    let online = OnlineCode::with_overhead(config.blocks, 0.01, 3, overhead);
    let rs = table2_rs_code(config.blocks);

    let cells: [&dyn ErasureCode; 4] = [&null, &xor, &online, &rs];
    // Every overhead is relative to the NULL row, which is measured first:
    // one discarded pass keeps the process's start-up (the heap's first
    // growth and trim) out of the baseline.
    measure_code(&null, config.chunk_size, 1, config.seed);
    Table2 {
        chunk_size: config.chunk_size,
        blocks: config.blocks,
        rs_data: rs.data(),
        rs_parity: rs.parity(),
        rows: cells
            .iter()
            .map(|c| measure_code(*c, config.chunk_size, config.runs, config.seed))
            .collect(),
    }
}

/// One measured (data, parity) × chunk-size cell of the Reed–Solomon sweep.
#[derive(Debug, Clone)]
pub struct RsSweepRow {
    /// Number of data blocks.
    pub data: usize,
    /// Number of parity blocks.
    pub parity: usize,
    /// The cell's measurement (its chunk size included).
    pub cost: CodeCost,
}

/// Result of the Reed–Solomon sweep.
#[derive(Debug, Clone)]
pub struct RsSweep {
    /// One row per (geometry, chunk size) pair.
    pub rows: Vec<RsSweepRow>,
}

/// Configuration of the Reed–Solomon sweep.
#[derive(Debug, Clone)]
pub struct RsSweepConfig {
    /// (data, parity) geometries to measure.
    pub geometries: Vec<(usize, usize)>,
    /// Chunk sizes to encode under each geometry.
    pub chunk_sizes: Vec<ByteSize>,
    /// Repetitions per cell; each decodes one random minimal subset.
    pub runs: usize,
    /// Random seed for chunk contents and subset choices.
    pub seed: u64,
}

impl RsSweepConfig {
    /// Sweep parameters for a given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (geometries, chunk_sizes, runs) = match scale {
            Scale::Small => (
                vec![(4, 2), (8, 4), (16, 8)],
                vec![ByteSize::kb(64), ByteSize::kb(256)],
                4,
            ),
            Scale::Medium => (
                vec![(4, 2), (16, 8), (32, 16), (64, 32)],
                vec![ByteSize::mb(1), ByteSize::mb(2)],
                8,
            ),
            Scale::Paper => (
                vec![(4, 2), (16, 8), (32, 16), (64, 32), (128, 64), (223, 32)],
                vec![ByteSize::mb(1), ByteSize::mb(4)],
                16,
            ),
        };
        RsSweepConfig {
            geometries,
            chunk_sizes,
            runs,
            seed,
        }
    }
}

/// Run the Reed–Solomon (data, parity) sweep.
pub fn run_rs_sweep(config: &RsSweepConfig) -> RsSweep {
    let rows = config
        .geometries
        .iter()
        .flat_map(|&(data, parity)| {
            let code = ReedSolomonCode::new(data, parity);
            config
                .chunk_sizes
                .iter()
                .map(move |&chunk_size| RsSweepRow {
                    data,
                    parity,
                    cost: measure_code(&code, chunk_size, config.runs, config.seed),
                })
        })
        .collect();
    RsSweep { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Table2 {
        run_table2(&CodingConfig {
            chunk_size: ByteSize::kb(256),
            blocks: 256,
            runs: 1,
            seed: 3,
        })
    }

    #[test]
    fn table2_shape_matches_paper() {
        let t = small();
        assert_eq!(t.rows.len(), 4);
        let null = &t.rows[0];
        let xor = &t.rows[1];
        let online = &t.rows[2];
        let rs = &t.rows[3];
        assert_eq!(null.name, "Null");
        assert_eq!(xor.name, "XOR");
        assert_eq!(online.name, "Online");
        assert_eq!(rs.name, "ReedSolomon");
        // Size overheads: NULL ~0%, XOR ~50%, online and RS a few percent.
        assert!(null.size_overhead_pct().abs() < 1.0);
        assert!((xor.size_overhead_pct() - 50.0).abs() < 2.0);
        assert!(online.size_overhead_pct() > 1.0 && online.size_overhead_pct() < 15.0);
        assert!(rs.size_overhead_pct() > 1.0 && rs.size_overhead_pct() < 15.0);
        // Time overheads: both codes cost more than NULL, online more than XOR.
        assert!(xor.time_overhead_pct(null) > 0.0);
        assert!(online.time_overhead_pct(null) > xor.time_overhead_pct(null));
        assert!(online.decode_ms >= xor.decode_ms);
        // NULL's own overhead relative to itself is zero.
        assert_eq!(null.time_overhead_pct(null), 0.0);
        // Optimal codecs recover from any minimal subset, with certainty.
        assert_eq!(null.min_subset_recovery_pct(), 100.0);
        assert_eq!(xor.min_subset_recovery_pct(), 100.0);
        assert_eq!(rs.min_subset_recovery_pct(), 100.0);
        assert!(online.min_subset_recovery_pct() <= 100.0);
    }

    #[test]
    fn encoded_sizes_scale_with_chunk() {
        let t = small();
        for row in &t.rows {
            assert!(row.encoded_size >= ByteSize::kb(250));
            assert!(row.encoded_size <= ByteSize::kb(420));
        }
    }

    #[test]
    fn table2_rs_geometry_respects_field_cap() {
        for blocks in [16, 256, 512, 4096] {
            let rs = table2_rs_code(blocks);
            assert!(rs.data() + rs.parity() <= 256, "blocks = {blocks}");
            assert_eq!(rs.data(), blocks.min(223));
            let overhead = rs.parity() as f64 / rs.data() as f64;
            assert!(overhead < 0.16, "blocks = {blocks}: {overhead}");
        }
    }

    #[test]
    fn rs_sweep_reports_full_recovery() {
        let sweep = run_rs_sweep(&RsSweepConfig {
            geometries: vec![(4, 2), (8, 4)],
            chunk_sizes: vec![ByteSize::kb(64)],
            runs: 3,
            seed: 11,
        });
        assert_eq!(sweep.rows.len(), 2);
        for row in &sweep.rows {
            let cost = &row.cost;
            assert_eq!(cost.min_subset_attempts, 3);
            assert_eq!(
                cost.min_subset_recovery_pct(),
                100.0,
                "RS({},{})",
                row.data,
                row.parity
            );
            assert_eq!(cost.chunk_size, ByteSize::kb(64));
        }
    }

    #[test]
    fn rs_sweep_scale_configs_are_valid_geometries() {
        for (scale, subsets) in [(Scale::Small, 4), (Scale::Medium, 8), (Scale::Paper, 16)] {
            let config = RsSweepConfig::at_scale(scale, 1);
            for (data, parity) in config.geometries {
                assert!(data + parity <= 256, "{scale}: ({data},{parity})");
            }
            assert!(!config.chunk_sizes.is_empty());
            assert!(config.runs >= subsets, "{scale}: {}", config.runs);
        }
    }

    #[test]
    fn null_code_has_no_size_overhead() {
        let cost = measure_code(&NullCode::new(64), ByteSize::kb(64), 2, 1);
        assert!(cost.size_overhead_pct().abs() < 1.0);
        assert!(cost.encode_ms >= 0.0);
    }

    #[test]
    fn xor_code_has_fifty_percent_overhead() {
        let cost = measure_code(&XorCode::new(2, 64), ByteSize::kb(64), 2, 2);
        assert!(
            (cost.size_overhead_pct() - 50.0).abs() < 1.0,
            "{}",
            cost.size_overhead_pct()
        );
    }

    #[test]
    fn online_code_has_small_overhead() {
        let code = OnlineCode::with_overhead(256, 0.01, 3, 1.10);
        let cost = measure_code(&code, ByteSize::kb(64), 1, 3);
        assert!(cost.size_overhead_pct() < 15.0);
        assert!(cost.size_overhead_pct() > 0.0);
    }

    #[test]
    fn time_overhead_relative_to_baseline() {
        let base = measure_code(&NullCode::new(16), ByteSize::kb(16), 1, 4);
        let xor = measure_code(&XorCode::new(2, 16), ByteSize::kb(16), 1, 4);
        // Only sanity: the helper computes a finite percentage.
        let pct = xor.time_overhead_pct(&base);
        assert!(pct.is_finite());
    }

    #[test]
    fn minimal_subset_decode_always_succeeds_for_optimal_codes() {
        for cost in [
            measure_code(&NullCode::new(32), ByteSize::kb(32), 3, 5),
            measure_code(&XorCode::new(2, 32), ByteSize::kb(32), 3, 5),
            measure_code(&ReedSolomonCode::new(24, 8), ByteSize::kb(32), 3, 5),
        ] {
            assert_eq!(cost.min_subset_attempts, 3, "{}", cost.name);
            assert_eq!(
                cost.min_subset_recovery_pct(),
                100.0,
                "{} must decode from any minimal subset",
                cost.name
            );
            assert!(cost.decode_min_ms >= 0.0);
        }
    }

    #[test]
    fn minimal_subset_rate_is_tracked_for_online() {
        let code = OnlineCode::with_overhead(128, 0.01, 3, 1.25);
        let cost = measure_code(&code, ByteSize::kb(32), 4, 6);
        assert_eq!(cost.min_subset_attempts, 4);
        assert!(cost.min_subset_successes <= 4);
        let pct = cost.min_subset_recovery_pct();
        assert!((0.0..=100.0).contains(&pct));
    }
}
