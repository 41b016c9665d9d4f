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
//! sizes and reports scalar-serial / vectorized-serial / parallel encode
//! throughput side by side (the `scalar` reference kernel vs the wide-lane
//! `nibble64` kernel vs the column-stripe threaded path), minimal-subset
//! decode throughput, and minimal-subset recovery rates (always 100 % — the
//! optimality property the sub-optimal codecs cannot offer).  Every sweep
//! point also cross-checks that all three encode paths emit byte-identical
//! blocks; [`run_rs_check`] packages that cross-check (plus recovery) as a
//! pass/fail gate for CI.

use crate::scale::Scale;
use peerstripe_erasure::{
    measure_code, CodeCost, EncodedBlock, ErasureCode, Gf256Kernel, NullCode, OnlineCode,
    ReedSolomonCode, XorCode,
};
use peerstripe_sim::{ByteSize, DetRng};
use std::time::Instant;

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
    /// Serial encode throughput with the `scalar` reference kernel, MB/s of
    /// source data — the pre-vectorization baseline.
    pub scalar_mb_s: f64,
    /// Serial encode throughput with the wide-lane `nibble64` kernel, MB/s.
    pub encode_mb_s: f64,
    /// Parallel (column-stripe) encode throughput, `nibble64` kernel, MB/s.
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
/// Every point encodes with the scalar reference kernel, the wide-lane
/// `nibble64` kernel, and the column-stripe parallel path, and asserts all
/// three emit byte-identical blocks before any throughput is reported.
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

            let mut scalar_s = f64::INFINITY;
            let mut serial_s = f64::INFINITY;
            let mut parallel_s = f64::INFINITY;
            let mut blocks = Vec::new();
            for _ in 0..config.runs.max(1) {
                let start = Instant::now();
                let scalar_blocks = scalar_code.encode_serial(&chunk);
                scalar_s = scalar_s.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                blocks = code.encode_serial(&chunk);
                serial_s = serial_s.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                let par = code.parallel_encode(&chunk);
                parallel_s = parallel_s.min(start.elapsed().as_secs_f64());
                assert_eq!(scalar_blocks, blocks, "scalar vs nibble64 kernel mismatch");
                assert_eq!(par, blocks, "parallel vs serial encode mismatch");
            }

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
/// For every geometry × chunk size of the scale's sweep, encode with the
/// `scalar` kernel (serial), the `nibble64` kernel (serial and parallel), and
/// the streaming stripe pipeline, require all four block sets byte-identical,
/// then decode exactly-minimal random subsets under *both* kernels and
/// require 100 % recovery.  Every decode runs twice — the owning
/// [`ErasureCode::decode`] and the borrowed [`ErasureCode::decode_into`] over
/// a dirty buffer — and the two must agree; the same holds for the Null, XOR
/// and online codecs at every chunk size.  `Ok` carries a human-readable
/// summary; `Err` names the first failing point.
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
            let reference = scalar_code.encode_serial(&chunk);
            let fast = fast_code.encode_serial(&chunk);
            if fast != reference {
                return Err(format!("{label}: scalar vs nibble64 blocks differ"));
            }
            let parallel = fast_code.encode_with_workers(&chunk, 4);
            if parallel != reference {
                return Err(format!("{label}: parallel encode differs from serial"));
            }
            let striped = fast_code.encode_via_stripes(&chunk, 1 << 14, 3);
            if striped != reference {
                return Err(format!("{label}: stripe pipeline differs from serial"));
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
            if code.tolerable_losses() > 0 {
                blocks.swap_remove(rng.index(blocks.len()));
            }
            decode_into_agrees(code.as_ref(), &blocks, chunk.len())
                .map_err(|e| format!("{} @ {chunk_size}: {e}", code.name()))?;
        }
    }
    Ok(format!(
        "rs-check ok: {points} points × 4 encode paths byte-identical, \
         {decodes} minimal-subset decodes recovered (scalar + nibble64, lane {}), \
         decode_into == decode for every codec",
        Gf256Kernel::Nibble64.lane_label()
    ))
}

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
