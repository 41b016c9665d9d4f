//! Erasure-code cost measurements: Table 2 and the Reed–Solomon sweep.
//!
//! Table 2 stores a 4 MB chunk (4 096 blocks) under the NULL, XOR, and online
//! codes and reports the encoded size and the encoding time, each with its
//! overhead relative to NULL.  [`run_table2`] performs the same measurement with
//! the real codecs from `peerstripe-erasure`, and adds the *optimal* GF(256)
//! Reed–Solomon code the paper's Section 4.2 trade-off discussion compares the
//! online code against, plus a decode-from-minimal-subset column that
//! separates optimal from sub-optimal codecs.
//!
//! [`run_rs_sweep`] sweeps Reed–Solomon (data, parity) geometries over chunk
//! sizes and reports encode throughput into caller-owned row buffers
//! ([`RowArena`]) side by side — the `scalar` reference kernel, the wide-lane
//! `nibble64` kernel, and `nibble64` with one column-span worker per CPU —
//! plus minimal-subset decode throughput and minimal-subset recovery rates
//! (always 100 % — the optimality property the sub-optimal codecs cannot
//! offer).  Every sweep point also cross-checks that all three emit
//! byte-identical blocks; [`run_rs_check`] packages that cross-check (plus
//! recovery) as a pass/fail gate for CI.

use crate::scale::Scale;
use peerstripe_erasure::{
    measure_code, CodeCost, EncodedBlock, ErasureCode, Gf256Kernel, NullCode, OnlineCode,
    ReedSolomonCode, XorCode,
};
use peerstripe_sim::{ByteSize, DetRng};
use std::time::Instant;

/// Caller-owned buffers for every encoded row of one chunk size — the store
/// path's shape: allocate once, then encode in place as often as wanted.
/// The sweep and the `rs_encode` snapshot both measure Reed–Solomon through
/// this one definition.
#[derive(Debug, Clone)]
pub struct RowArena {
    rows: Vec<u32>,
    bufs: Vec<Vec<u8>>,
}

impl RowArena {
    /// Buffers for all rows `code` makes of a chunk of `chunk_len` bytes.
    pub fn new(code: &dyn ErasureCode, chunk_len: usize) -> Self {
        let rows: Vec<u32> = (0..code.encoded_blocks() as u32).collect();
        // Stale bytes, not zeros: the encode must overwrite every one.
        let bufs = vec![vec![0xA5u8; code.block_size(chunk_len)]; rows.len()];
        RowArena { rows, bufs }
    }

    /// Encode every row of `chunk` into the arena through the tile loop
    /// with `workers` column-span workers.
    pub fn encode(&mut self, code: &ReedSolomonCode, chunk: &[u8], workers: usize) {
        let mut out: Vec<&mut [u8]> = self.bufs.iter_mut().map(Vec::as_mut_slice).collect();
        code.encode_with_workers(chunk, &self.rows, &mut out, workers);
    }

    /// True when the arena holds exactly `blocks`, in index order.
    pub fn holds(&self, blocks: &[EncodedBlock]) -> bool {
        self.bufs.len() == blocks.len() && self.bufs.iter().zip(blocks).all(|(a, b)| *a == b.data)
    }
}

/// One worker per CPU, 1 when the host cannot say.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Codec name.
    pub code: &'static str,
    /// Total encoded size.
    pub encoded_size: ByteSize,
    /// Size overhead relative to the chunk, percent.
    pub size_overhead_pct: f64,
    /// Mean encoding time, milliseconds.
    pub encode_ms: f64,
    /// Encoding-time overhead relative to the NULL code, percent.
    pub encode_overhead_pct: f64,
    /// Mean decoding time, milliseconds.
    pub decode_ms: f64,
    /// Mean decoding time from an exactly minimal block subset, milliseconds.
    pub decode_min_ms: f64,
    /// Share of minimal-subset decode attempts that recovered the chunk,
    /// percent (100 for optimal codes, probabilistic for the online code).
    pub min_recovery_pct: f64,
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
    /// Rows in `[Null, XOR, Online, ReedSolomon]` order.
    pub rows: Vec<Table2Row>,
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

    let codes: Vec<&dyn ErasureCode> = vec![&null, &xor, &online, &rs];
    // Every overhead below is relative to the NULL row, which is measured
    // first: one discarded pass keeps the process's start-up (the heap's
    // first growth and trim) out of the baseline.
    measure_code(&null, config.chunk_size, 1, config.seed);
    let costs: Vec<CodeCost> = codes
        .iter()
        .map(|c| measure_code(*c, config.chunk_size, config.runs, config.seed))
        .collect();
    let baseline_encode = costs[0].encode_ms;

    let rows = costs
        .iter()
        .map(|c| Table2Row {
            code: c.name,
            encoded_size: c.encoded_size,
            size_overhead_pct: c.size_overhead_pct(),
            encode_ms: c.encode_ms,
            encode_overhead_pct: if baseline_encode > 0.0 {
                100.0 * (c.encode_ms / baseline_encode - 1.0)
            } else {
                0.0
            },
            decode_ms: c.decode_ms,
            decode_min_ms: c.decode_min_ms,
            min_recovery_pct: c.min_subset_recovery_pct(),
        })
        .collect();

    Table2 {
        chunk_size: config.chunk_size,
        blocks: config.blocks,
        rs_data: rs.data(),
        rs_parity: rs.parity(),
        rows,
    }
}

/// One measured (data, parity) × chunk-size point of the Reed–Solomon sweep.
#[derive(Debug, Clone)]
pub struct RsSweepRow {
    /// Number of data blocks.
    pub data: usize,
    /// Number of parity blocks.
    pub parity: usize,
    /// Chunk size encoded.
    pub chunk_size: ByteSize,
    /// In-place encode throughput with the `scalar` reference kernel, MB/s of
    /// source data — the pre-vectorization baseline.
    pub scalar_mb_s: f64,
    /// In-place encode throughput with the wide-lane `nibble64` kernel, MB/s.
    pub encode_mb_s: f64,
    /// `nibble64` with one column-span worker per CPU, MB/s.
    pub parallel_encode_mb_s: f64,
    /// Decode throughput from exactly-minimal random subsets, MB/s.
    pub decode_mb_s: f64,
    /// Share of minimal-subset decodes that recovered the chunk, percent.
    pub recovery_pct: f64,
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
    /// Timing repetitions per point.
    pub runs: usize,
    /// Random exactly-minimal subsets decoded per point.
    pub subset_trials: usize,
    /// Random seed for chunk contents and subset choices.
    pub seed: u64,
}

impl RsSweepConfig {
    /// Sweep parameters for a given scale.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (geometries, chunk_sizes, runs, subset_trials) = match scale {
            Scale::Small => (
                vec![(4, 2), (8, 4), (16, 8)],
                vec![ByteSize::kb(64), ByteSize::kb(256)],
                1,
                4,
            ),
            Scale::Medium => (
                vec![(4, 2), (16, 8), (32, 16), (64, 32)],
                vec![ByteSize::mb(1), ByteSize::mb(2)],
                3,
                8,
            ),
            Scale::Paper => (
                vec![(4, 2), (16, 8), (32, 16), (64, 32), (128, 64), (223, 32)],
                vec![ByteSize::mb(1), ByteSize::mb(4)],
                5,
                16,
            ),
        };
        RsSweepConfig {
            geometries,
            chunk_sizes,
            runs,
            subset_trials,
            seed,
        }
    }
}

/// Run the Reed–Solomon (data, parity) sweep.
///
/// Every point encodes in place with the scalar reference kernel, the
/// wide-lane `nibble64` kernel, and `nibble64` with a worker per CPU, and
/// asserts all three emit the blocks [`ErasureCode::encode`] returns before
/// any throughput is reported.
pub fn run_rs_sweep(config: &RsSweepConfig) -> RsSweep {
    let mut rng = DetRng::new(config.seed);
    let mut rows = Vec::new();
    for &(data, parity) in &config.geometries {
        let scalar_code = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Scalar);
        let code = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Nibble64);
        for &chunk_size in &config.chunk_sizes {
            let chunk: Vec<u8> = (0..chunk_size.as_u64())
                .map(|_| rng.next_u32() as u8)
                .collect();
            let mb = chunk.len() as f64 / (1 << 20) as f64;
            let blocks = code.encode(&chunk);
            let mut arena = RowArena::new(&code, chunk.len());
            let mut best_s = [f64::INFINITY; 3];
            for _ in 0..config.runs.max(1) {
                let paths = [
                    (&scalar_code, 1, "scalar"),
                    (&code, 1, "nibble64"),
                    (&code, cpus(), "workers"),
                ];
                for (best, (code, workers, label)) in best_s.iter_mut().zip(paths) {
                    let start = Instant::now();
                    arena.encode(code, &chunk, workers);
                    *best = best.min(start.elapsed().as_secs_f64());
                    assert!(arena.holds(&blocks), "{label} differs from encode()");
                }
            }
            let [scalar_s, serial_s, parallel_s] = best_s;

            let mut recovered = 0usize;
            let mut decode_s_total = 0.0;
            for _ in 0..config.subset_trials.max(1) {
                let subset: Vec<_> = rng
                    .sample_indices(blocks.len(), code.min_decode_blocks())
                    .into_iter()
                    .map(|i| blocks[i].clone())
                    .collect();
                let start = Instant::now();
                let outcome = code.decode(&subset, chunk.len());
                decode_s_total += start.elapsed().as_secs_f64();
                if outcome.map(|d| d == chunk).unwrap_or(false) {
                    recovered += 1;
                }
            }
            let decode_s = decode_s_total / config.subset_trials.max(1) as f64;

            rows.push(RsSweepRow {
                data,
                parity,
                chunk_size,
                scalar_mb_s: mb / scalar_s.max(1e-9),
                encode_mb_s: mb / serial_s.max(1e-9),
                parallel_encode_mb_s: mb / parallel_s.max(1e-9),
                decode_mb_s: mb / decode_s.max(1e-9),
                recovery_pct: 100.0 * recovered as f64 / config.subset_trials.max(1) as f64,
            });
        }
    }
    RsSweep { rows }
}

/// The CI kernel-consistency gate behind `repro rs-check`.
///
/// For every geometry × chunk size of the scale's sweep: the `scalar` kernel
/// is the oracle; the `nibble64` kernel must return the same blocks from
/// [`ErasureCode::encode`], and [`ErasureCode::encode_rows_into`] over dirty
/// caller-owned buffers must write those same bytes for every worker count.
/// Then exactly-minimal random subsets are decoded under *both* kernels with
/// 100 % recovery required.  Every decode runs twice — the owning
/// [`ErasureCode::decode`] and the borrowed [`ErasureCode::decode_into`] over
/// a dirty buffer — and the two must agree; for the Null, XOR and online
/// codecs at every chunk size the same holds, and their
/// `encode_rows_into` must match `encode` as well.  `Ok` carries a
/// human-readable summary; `Err` names the first failing point.
pub fn run_rs_check(scale: Scale, seed: u64) -> Result<String, String> {
    let config = RsSweepConfig::at_scale(scale, seed);
    let mut rng = DetRng::new(seed ^ 0x5eed_c0de);
    let mut points = 0usize;
    let mut decodes = 0usize;
    for &(data, parity) in &config.geometries {
        let scalar_code = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Scalar);
        let fast_code = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Nibble64);
        for &chunk_size in &config.chunk_sizes {
            let label = format!("RS({data},{parity}) @ {chunk_size}");
            let chunk: Vec<u8> = (0..chunk_size.as_u64())
                .map(|_| rng.next_u32() as u8)
                .collect();
            let reference = scalar_code.encode(&chunk);
            if fast_code.encode(&chunk) != reference {
                return Err(format!("{label}: scalar vs nibble64 blocks differ"));
            }
            for workers in CHECKED_WORKERS {
                let mut arena = RowArena::new(&fast_code, chunk.len());
                arena.encode(&fast_code, &chunk, workers);
                if !arena.holds(&reference) {
                    return Err(format!(
                        "{label}: encode_rows_into with {workers} workers differs from encode"
                    ));
                }
            }
            for trial in 0..config.subset_trials.max(1) {
                let subset: Vec<_> = rng
                    .sample_indices(reference.len(), fast_code.min_decode_blocks())
                    .into_iter()
                    .map(|i| reference[i].clone())
                    .collect();
                for code in [&scalar_code, &fast_code] {
                    let kernel = code.kernel();
                    decode_into_agrees(code, &subset, chunk.len())
                        .map_err(|e| format!("{label}: {kernel} trial {trial}: {e}"))?;
                    match code.decode(&subset, chunk.len()) {
                        Ok(decoded) if decoded == chunk => decodes += 1,
                        Ok(_) => {
                            return Err(format!(
                                "{label}: {kernel} decode trial {trial} returned wrong bytes"
                            ));
                        }
                        Err(e) => {
                            return Err(format!(
                                "{label}: {kernel} decode trial {trial} failed: {e}"
                            ));
                        }
                    }
                }
            }
            points += 1;
        }
    }
    // The other codecs, each with one random block lost (the Null code
    // tolerates none): the borrowed decode must agree with the owning one
    // whatever the answer is.
    for &chunk_size in &config.chunk_sizes {
        let chunk: Vec<u8> = (0..chunk_size.as_u64())
            .map(|_| rng.next_u32() as u8)
            .collect();
        let codecs: [Box<dyn ErasureCode>; 3] = [
            Box::new(NullCode::new(16)),
            Box::new(XorCode::new(2, 16)),
            Box::new(OnlineCode::with_overhead(64, 0.01, 3, 1.25)),
        ];
        for code in &codecs {
            let mut blocks = code.encode(&chunk);
            let mut arena = RowArena::new(code.as_ref(), chunk.len());
            let mut out: Vec<&mut [u8]> = arena.bufs.iter_mut().map(Vec::as_mut_slice).collect();
            code.encode_rows_into(&chunk, &arena.rows, &mut out);
            if !arena.holds(&blocks) {
                return Err(format!(
                    "{} @ {chunk_size}: encode_rows_into differs from encode",
                    code.name()
                ));
            }
            if code.tolerable_losses() > 0 {
                blocks.swap_remove(rng.index(blocks.len()));
            }
            decode_into_agrees(code.as_ref(), &blocks, chunk.len())
                .map_err(|e| format!("{} @ {chunk_size}: {e}", code.name()))?;
        }
    }
    Ok(format!(
        "rs-check ok: {points} points × (scalar oracle, nibble64, {} worker counts in place) \
         byte-identical, {decodes} minimal-subset decodes recovered (scalar + nibble64, lane {}), \
         encode_rows_into == encode and decode_into == decode for every codec",
        CHECKED_WORKERS.len(),
        Gf256Kernel::Nibble64.lane_label()
    ))
}

/// Worker counts `rs-check` runs the in-place encode with.
const CHECKED_WORKERS: [usize; 3] = [1, 2, 4];

/// `decode_into` over a buffer full of stale bytes must give exactly what
/// `decode` gives: the same chunk or the same error.
fn decode_into_agrees(
    code: &dyn ErasureCode,
    blocks: &[EncodedBlock],
    chunk_len: usize,
) -> Result<(), String> {
    let views: Vec<_> = blocks.iter().map(EncodedBlock::view).collect();
    let mut dirty = vec![0xA5u8; chunk_len];
    let borrowed = code.decode_into(&views, &mut dirty).map(|()| dirty);
    if borrowed == code.decode(blocks, chunk_len) {
        Ok(())
    } else {
        Err("decode_into disagrees with decode".to_string())
    }
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
        assert_eq!(null.code, "Null");
        assert_eq!(xor.code, "XOR");
        assert_eq!(online.code, "Online");
        assert_eq!(rs.code, "ReedSolomon");
        // Size overheads: NULL ~0%, XOR ~50%, online and RS a few percent.
        assert!(null.size_overhead_pct.abs() < 1.0);
        assert!((xor.size_overhead_pct - 50.0).abs() < 2.0);
        assert!(online.size_overhead_pct > 1.0 && online.size_overhead_pct < 15.0);
        assert!(rs.size_overhead_pct > 1.0 && rs.size_overhead_pct < 15.0);
        // Time overheads: both codes cost more than NULL, online more than XOR.
        assert!(xor.encode_overhead_pct > 0.0);
        assert!(online.encode_overhead_pct > xor.encode_overhead_pct);
        assert!(online.decode_ms >= xor.decode_ms);
        // NULL's own overhead relative to itself is zero.
        assert_eq!(null.encode_overhead_pct, 0.0);
        // Optimal codecs recover from any minimal subset, with certainty.
        assert_eq!(null.min_recovery_pct, 100.0);
        assert_eq!(xor.min_recovery_pct, 100.0);
        assert_eq!(rs.min_recovery_pct, 100.0);
        assert!(online.min_recovery_pct <= 100.0);
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
            runs: 1,
            subset_trials: 3,
            seed: 11,
        });
        assert_eq!(sweep.rows.len(), 2);
        for row in &sweep.rows {
            assert_eq!(row.recovery_pct, 100.0, "RS({},{})", row.data, row.parity);
            assert!(row.scalar_mb_s > 0.0);
            assert!(row.encode_mb_s > 0.0);
            assert!(row.parallel_encode_mb_s > 0.0);
            assert!(row.decode_mb_s > 0.0);
        }
    }

    #[test]
    fn rs_check_passes_at_small_scale() {
        let summary = run_rs_check(Scale::Small, 7).expect("kernel consistency gate");
        assert!(summary.contains("rs-check ok"), "{summary}");
        assert!(summary.contains("byte-identical"), "{summary}");
    }

    #[test]
    fn rs_sweep_scale_configs_are_valid_geometries() {
        for scale in [Scale::Small, Scale::Medium, Scale::Paper] {
            let config = RsSweepConfig::at_scale(scale, 1);
            for (data, parity) in config.geometries {
                assert!(data + parity <= 256, "{scale}: ({data},{parity})");
            }
            assert!(!config.chunk_sizes.is_empty());
        }
    }
}
