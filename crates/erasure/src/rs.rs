//! Systematic Reed–Solomon erasure coding over GF(2⁸) — the *optimal* codec
//! the paper's Table 2 discussion compares the online code against.
//!
//! A chunk is split into `data` source blocks and `parity` extra blocks are
//! derived from them, for `m = data + parity ≤ 256` encoded blocks total.
//! **Any** `data` of the `m` blocks reconstruct the chunk — the
//! information-theoretic optimum — in contrast to the online code's
//! probabilistic `(1 + ε)·n'` bound.  The price is quadratic encode cost and a
//! matrix inversion on the decode path, exactly the trade-off that makes the
//! paper prefer online codes for very large block counts.
//!
//! The encode matrix is derived from a Vandermonde matrix put in systematic
//! form ([`GfMatrix::systematic`]): the first `data` encoded blocks are the
//! source blocks verbatim and every `data`-row submatrix stays invertible.
//!
//! # Encode engine
//!
//! Parity generation runs on the [`gf256`] slice kernels (selectable via
//! [`ReedSolomonCode::with_kernel`]; the wide-lane `nibble64` kernel is the
//! default) and is **cache-blocked**: every coefficient's kernel tables are
//! prepared once per encode ([`gf256::PreparedCoeff`]), then the parity
//! columns are walked in L1-sized tiles ([`TILE_BYTES`]) with the source tile
//! reused across all parity rows while it is hot.  Parallelism is
//! **chunk-granular** rather than parity-row-granular: workers own disjoint
//! *column stripes* of every parity block (so a single stripe touches each
//! cache line once, and the split does not degenerate when `parity <
//! workers`).  [`ReedSolomonCode::encode_with_workers`] exposes the worker
//! count; [`ReedSolomonCode::parallel_encode`] sizes it from
//! `available_parallelism()` and — on a 1-CPU host — takes the serial path
//! with **zero** thread spawns.  The streaming stage form of the same split
//! lives in [`crate::pipeline`].

use crate::code::{
    index_blocks, row_mut, split_into_blocks, DecodeError, EncodedBlock, ErasureCode,
};
use crate::gf256::{self, Gf256Kernel, PreparedCoeff};
use crate::matrix::GfMatrix;
use crate::pipeline;
use std::ops::Range;

/// Parity workloads at least this large (parity rows × block size) are sharded
/// over threads by the default [`ErasureCode::encode`] path.
pub const DEFAULT_PARALLEL_MIN_BYTES: usize = 1 << 20;

/// Tile width (in bytes) for cache-blocked parity application.  One source
/// tile plus one parity tile per row must fit in L1/L2 alongside the kernel
/// tables; 16 KiB keeps `tile × (1 + parity_rows_in_flight)` well under
/// typical 256 KiB L2 slices while amortising loop overhead.
pub(crate) const TILE_BYTES: usize = 16 * 1024;

/// Workers get at least this many parity columns each; below that the spawn
/// and join overhead outweighs the arithmetic.
const MIN_WORKER_SPAN_BYTES: usize = 4 * 1024;

/// Systematic Reed–Solomon code: `data` source blocks, `parity` parity blocks,
/// any `data` of the `data + parity` encoded blocks decode.
#[derive(Debug, Clone)]
pub struct ReedSolomonCode {
    data: usize,
    parity: usize,
    /// The bottom `parity × data` rows of the systematic encode matrix; the
    /// top `data` rows are the identity and are never materialised.
    coef: GfMatrix,
    parallel_min_bytes: usize,
    kernel: Gf256Kernel,
}

impl ReedSolomonCode {
    /// Create a Reed–Solomon code with `data` source and `parity` parity
    /// blocks.  Panics unless `data ≥ 1`, `parity ≥ 1` and
    /// `data + parity ≤ 256` (the field only has 256 evaluation points).
    pub fn new(data: usize, parity: usize) -> Self {
        assert!(data >= 1, "need at least one data block");
        assert!(parity >= 1, "need at least one parity block");
        assert!(
            data + parity <= 256,
            "GF(256) Reed-Solomon supports at most 256 blocks, got {}",
            data + parity
        );
        let enc = GfMatrix::vandermonde(data + parity, data)
            .systematic()
            .expect("top square of a Vandermonde matrix is invertible"); // lint:allow(panic) -- Vandermonde top square over distinct points is provably invertible
        let parity_rows: Vec<usize> = (data..data + parity).collect();
        ReedSolomonCode {
            data,
            parity,
            coef: enc.select_rows(&parity_rows),
            parallel_min_bytes: DEFAULT_PARALLEL_MIN_BYTES,
            kernel: Gf256Kernel::best(),
        }
    }

    /// Override the parity-workload size (in bytes) above which the default
    /// encode path goes parallel.  `usize::MAX` forces serial encoding.
    pub fn with_parallel_threshold(mut self, bytes: usize) -> Self {
        self.parallel_min_bytes = bytes;
        self
    }

    /// Pin the GF(256) slice kernel (default: [`Gf256Kernel::best`]).  The
    /// `scalar` kernel is the reference implementation; both produce
    /// byte-identical blocks.
    pub fn with_kernel(mut self, kernel: Gf256Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The GF(256) slice kernel this code encodes and decodes with.
    pub fn kernel(&self) -> Gf256Kernel {
        self.kernel
    }

    /// Number of data blocks (also the decode threshold).
    pub fn data(&self) -> usize {
        self.data
    }

    /// Number of parity blocks (the tolerable losses).
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Prepare every parity coefficient's kernel tables once, so the tiled
    /// loops below never rebuild them per tile.
    pub(crate) fn prepared_parity_matrix(&self) -> Vec<Vec<PreparedCoeff>> {
        (0..self.parity)
            .map(|r| {
                (0..self.data)
                    .map(|j| PreparedCoeff::new(self.kernel, self.coef.get(r, j)))
                    .collect()
            })
            .collect()
    }

    fn assemble(&self, sources: Vec<Vec<u8>>, parity: Vec<Vec<u8>>) -> Vec<EncodedBlock> {
        sources
            .into_iter()
            .chain(parity)
            .enumerate()
            .map(|(i, b)| EncodedBlock::new(i as u32, b))
            .collect()
    }

    /// Encode on the calling thread only.
    pub fn encode_serial(&self, chunk: &[u8]) -> Vec<EncodedBlock> {
        self.encode_with_workers(chunk, 1)
    }

    /// Encode with parity columns sharded over up to `workers`
    /// `std::thread::scope` workers (chunk-granular column stripes).
    ///
    /// Produces bit-identical output to [`ReedSolomonCode::encode_serial`]
    /// for every worker count.  `workers <= 1` runs entirely on the calling
    /// thread — zero spawns (pinned by a spawn-counting test) — and the
    /// effective worker count is capped so every stripe keeps at least a few
    /// KiB of parity columns.
    pub fn encode_with_workers(&self, chunk: &[u8], workers: usize) -> Vec<EncodedBlock> {
        let (sources, block_size) = split_into_blocks(chunk, self.data);
        let prepared = self.prepared_parity_matrix();
        let mut parity: Vec<Vec<u8>> = (0..self.parity).map(|_| vec![0u8; block_size]).collect();
        let workers = workers.clamp(1, block_size.div_ceil(MIN_WORKER_SPAN_BYTES).max(1));
        if workers <= 1 {
            let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            apply_parity_stripe(&prepared, &sources, 0..block_size, &mut outs);
            return self.assemble(sources, parity);
        }
        let spans = column_spans(block_size, workers);
        // Split every parity row at the span boundaries and regroup the
        // pieces per worker: job `w` owns columns `spans[w]` of ALL rows.
        let mut jobs: Vec<Vec<&mut [u8]>> = spans
            .iter()
            .map(|_| Vec::with_capacity(self.parity))
            .collect();
        for row in parity.iter_mut() {
            let mut rest: &mut [u8] = row.as_mut_slice();
            for (job, span) in jobs.iter_mut().zip(&spans) {
                let (piece, tail) = rest.split_at_mut(span.len());
                job.push(piece);
                rest = tail;
            }
        }
        let sources_ref = &sources;
        let prepared_ref = &prepared;
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .zip(spans)
                .map(|(mut outs, span)| {
                    pipeline::note_spawn();
                    s.spawn(move || apply_parity_stripe(prepared_ref, sources_ref, span, &mut outs))
                })
                .collect();
            for h in handles {
                h.join().expect("parity worker panicked"); // lint:allow(panic) -- worker panic is unrecoverable; propagate it to the caller
            }
        });
        self.assemble(sources, parity)
    }

    /// Encode with the worker count sized from `available_parallelism()`.
    ///
    /// On a single-CPU host this is exactly [`ReedSolomonCode::encode_serial`]
    /// — no threads are spawned.
    pub fn parallel_encode(&self, chunk: &[u8]) -> Vec<EncodedBlock> {
        self.encode_with_workers(chunk, available_workers())
    }
}

/// `available_parallelism()`, defaulting to 1 when the host cannot say.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..block_size` into `workers` contiguous column spans (the first
/// `block_size % workers` spans one byte larger).
pub(crate) fn column_spans(block_size: usize, workers: usize) -> Vec<Range<usize>> {
    let per = block_size / workers;
    let rem = block_size % workers;
    let mut spans = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = per + usize::from(w < rem);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Accumulate every parity row's coefficients over columns `cols` of the
/// source blocks, cache-blocked: tiles are outermost so one source tile is
/// streamed through all parity rows while it is hot in L1/L2.
///
/// `outs[r]` is the slice of parity row `r` covering exactly `cols` (workers
/// hand in disjoint `split_at_mut` views of the full rows); it must be
/// zero-initialised.
pub(crate) fn apply_parity_stripe(
    prepared: &[Vec<PreparedCoeff>],
    sources: &[Vec<u8>],
    cols: Range<usize>,
    outs: &mut [&mut [u8]],
) {
    debug_assert_eq!(prepared.len(), outs.len());
    let mut tile_start = cols.start;
    while tile_start < cols.end {
        let tile_end = (tile_start + TILE_BYTES).min(cols.end);
        for (row, out) in prepared.iter().zip(outs.iter_mut()) {
            let dst = &mut out[tile_start - cols.start..tile_end - cols.start];
            for (coeff, src) in row.iter().zip(sources) {
                coeff.mul_add(&src[tile_start..tile_end], dst);
            }
        }
        tile_start = tile_end;
    }
}

impl ErasureCode for ReedSolomonCode {
    fn name(&self) -> &'static str {
        "ReedSolomon"
    }

    fn source_blocks(&self) -> usize {
        self.data
    }

    fn encoded_blocks(&self) -> usize {
        self.data + self.parity
    }

    /// Exactly `data` — the optimal bound, with certainty (not probabilistic).
    fn min_decode_blocks(&self) -> usize {
        self.data
    }

    fn encode(&self, chunk: &[u8]) -> Vec<EncodedBlock> {
        let block_size = chunk.len().div_ceil(self.data);
        if self.parity >= 2 && self.parity * block_size >= self.parallel_min_bytes {
            self.parallel_encode(chunk)
        } else {
            self.encode_serial(chunk)
        }
    }

    /// Source rows are sliced straight out of the chunk and parity rows run
    /// only their own coefficient row — so repairing one lost block costs one
    /// row of GF multiply-adds, not a full encode.
    fn encode_rows(&self, chunk: &[u8], rows: &[u32]) -> Vec<EncodedBlock> {
        let block_size = chunk.len().div_ceil(self.data);
        // Source row `j` as stored in the chunk: short (or empty) where the
        // encoder would zero-pad, and zeros contribute nothing to a parity row.
        let source = |j: usize| {
            let start = (j * block_size).min(chunk.len());
            &chunk[start..((j + 1) * block_size).min(chunk.len())]
        };
        rows.iter()
            .map(|&r| r as usize)
            .filter(|&r| r < self.data + self.parity)
            .map(|r| {
                let mut out = vec![0u8; block_size];
                if r < self.data {
                    let src = source(r);
                    out[..src.len()].copy_from_slice(src);
                } else {
                    for j in 0..self.data {
                        let src = source(j);
                        let coeff = self.coef.get(r - self.data, j);
                        gf256::mul_add_slice_with(self.kernel, coeff, src, &mut out[..src.len()]);
                    }
                }
                EncodedBlock::new(r as u32, out)
            })
            .collect()
    }

    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
        if out.is_empty() {
            return Ok(());
        }
        let total = self.data + self.parity;
        let block_size = out.len().div_ceil(self.data);
        let have = index_blocks(blocks, total, block_size)?;
        let distinct = have.iter().flatten().count();
        if distinct < self.data {
            return Err(DecodeError::NotEnoughBlocks {
                have: distinct,
                need: self.data,
            });
        }
        // The code is systematic: surviving source rows are the chunk's own
        // bytes, copied into place with no field arithmetic.
        for (j, src) in have.iter().take(self.data).enumerate() {
            if let Some(src) = src {
                let dst = row_mut(out, j, block_size);
                dst.copy_from_slice(&src[..dst.len()]);
            }
        }
        let lost: Vec<usize> = (0..self.data).filter(|&j| have[j].is_none()).collect();
        if lost.is_empty() {
            return Ok(());
        }
        // Pick `data` surviving rows — source rows first (identity rows keep
        // the decode matrix sparse), then parity rows to fill up.
        let chosen: Vec<(usize, &[u8])> = have
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| b.map(|b| (idx, b)))
            .take(self.data)
            .collect();
        // Decode matrix: the chosen rows of the systematic encode matrix.
        let mut dec = GfMatrix::zero(self.data, self.data);
        for (r, &(idx, _)) in chosen.iter().enumerate() {
            if idx < self.data {
                dec.set(r, idx, 1);
            } else {
                for c in 0..self.data {
                    dec.set(r, c, self.coef.get(idx - self.data, c));
                }
            }
        }
        let Some(inv) = dec.invert() else {
            // Mathematically unreachable for a Vandermonde-derived code; kept
            // as a defensive error rather than a panic on corrupted input.
            return Err(DecodeError::Unrecoverable {
                missing: lost.len(),
            });
        };
        for j in lost {
            let dst = row_mut(out, j, block_size);
            dst.fill(0);
            for (i, (_, received)) in chosen.iter().enumerate() {
                let src = &received[..dst.len()];
                gf256::mul_add_slice_with(self.kernel, inv.get(j, i), src, dst);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    fn sample_chunk(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn round_trip_all_blocks() {
        let code = ReedSolomonCode::new(4, 2);
        let chunk = sample_chunk(10_000, 1);
        let blocks = code.encode(&chunk);
        assert_eq!(blocks.len(), 6);
        assert_eq!(code.decode(&blocks, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn decodes_from_every_minimal_subset() {
        // The optimality claim, exhaustively: all C(6,4) = 15 subsets work.
        let code = ReedSolomonCode::new(4, 2);
        let chunk = sample_chunk(4_321, 2);
        let blocks = code.encode(&chunk);
        let m = blocks.len();
        let mut subsets = 0;
        for mask in 0u32..1 << m {
            if mask.count_ones() as usize != code.min_decode_blocks() {
                continue;
            }
            let subset: Vec<EncodedBlock> = blocks
                .iter()
                .filter(|b| mask & (1 << b.index) != 0)
                .cloned()
                .collect();
            assert_eq!(
                code.decode(&subset, chunk.len()).unwrap(),
                chunk,
                "subset mask {mask:b} failed"
            );
            subsets += 1;
        }
        assert_eq!(subsets, 15);
    }

    #[test]
    fn below_threshold_is_not_enough() {
        let code = ReedSolomonCode::new(5, 3);
        let chunk = sample_chunk(1_000, 3);
        let blocks = code.encode(&chunk);
        let few: Vec<EncodedBlock> = blocks.into_iter().take(4).collect();
        match code.decode(&few, chunk.len()) {
            Err(DecodeError::NotEnoughBlocks { have: 4, need: 5 }) => {}
            other => panic!("expected NotEnoughBlocks, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let code = ReedSolomonCode::new(3, 2);
        let chunk = sample_chunk(500, 4);
        let blocks = code.encode(&chunk);
        let dups = vec![blocks[0].clone(), blocks[0].clone(), blocks[1].clone()];
        assert!(matches!(
            code.decode(&dups, chunk.len()),
            Err(DecodeError::NotEnoughBlocks { have: 2, need: 3 })
        ));
    }

    #[test]
    fn rejects_out_of_range_index() {
        let code = ReedSolomonCode::new(3, 2);
        let chunk = sample_chunk(100, 5);
        let mut blocks = code.encode(&chunk);
        blocks[1].index = 99;
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::CorruptBlock { index: 99 })
        ));
    }

    #[test]
    fn parallel_encode_matches_serial() {
        let code = ReedSolomonCode::new(16, 8);
        for len in [0usize, 1, 1_000, 100_000, 1 << 20] {
            let chunk = sample_chunk(len, 6);
            assert_eq!(
                code.parallel_encode(&chunk),
                code.encode_serial(&chunk),
                "len {len}"
            );
        }
    }

    #[test]
    fn every_worker_count_matches_serial() {
        // Column striping must be invisible in the output for any split,
        // including worker counts above the span cap and above block_size.
        let code = ReedSolomonCode::new(5, 3);
        let chunk = sample_chunk(300_000, 11);
        let serial = code.encode_serial(&chunk);
        for workers in [2usize, 3, 4, 7, 64] {
            assert_eq!(
                code.encode_with_workers(&chunk, workers),
                serial,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn single_worker_spawns_no_threads() {
        // The 1-CPU degenerate case: workers <= 1 must run entirely on the
        // calling thread.  The spawn counter is thread-local, so parallel
        // test execution cannot perturb it.
        let code = ReedSolomonCode::new(8, 4);
        let chunk = sample_chunk(1 << 20, 12);
        let before = pipeline::spawned_workers();
        let blocks = code.encode_with_workers(&chunk, 1);
        assert_eq!(pipeline::spawned_workers(), before, "serial path spawned");
        assert_eq!(blocks, code.encode_serial(&chunk));
        // And the threaded path does spawn (counted from this thread).
        let threaded = code.encode_with_workers(&chunk, 2);
        assert_eq!(pipeline::spawned_workers(), before + 2);
        assert_eq!(threaded, blocks);
    }

    #[test]
    fn tiny_blocks_do_not_spawn() {
        // The span cap folds sub-4KiB parity blocks back to the serial path
        // even when many workers are requested.
        let code = ReedSolomonCode::new(4, 2);
        let chunk = sample_chunk(1_000, 13);
        let before = pipeline::spawned_workers();
        let _ = code.encode_with_workers(&chunk, 8);
        assert_eq!(pipeline::spawned_workers(), before);
    }

    #[test]
    fn kernels_produce_identical_blocks() {
        let chunk = sample_chunk(200_000, 14);
        let reference = ReedSolomonCode::new(8, 4)
            .with_kernel(Gf256Kernel::Scalar)
            .encode_serial(&chunk);
        for kernel in Gf256Kernel::ALL {
            let code = ReedSolomonCode::new(8, 4).with_kernel(kernel);
            assert_eq!(code.kernel(), kernel);
            assert_eq!(code.encode_serial(&chunk), reference, "kernel {kernel}");
            assert_eq!(
                code.encode_with_workers(&chunk, 3),
                reference,
                "kernel {kernel} striped"
            );
        }
    }

    #[test]
    fn cross_kernel_decode_round_trip() {
        // Blocks encoded under one kernel decode under the other: the kernels
        // compute the same field, so artifacts are interchangeable.
        let chunk = sample_chunk(5_000, 15);
        let scalar = ReedSolomonCode::new(5, 3).with_kernel(Gf256Kernel::Scalar);
        let fast = ReedSolomonCode::new(5, 3).with_kernel(Gf256Kernel::Nibble64);
        let blocks = scalar.encode(&chunk);
        let subset: Vec<EncodedBlock> = blocks.into_iter().skip(3).collect();
        assert_eq!(fast.decode(&subset, chunk.len()).unwrap(), chunk);
        let blocks = fast.encode(&chunk);
        let subset: Vec<EncodedBlock> = blocks.into_iter().skip(3).collect();
        assert_eq!(scalar.decode(&subset, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn reencode_matches_across_kernels() {
        let chunk = sample_chunk(40_000, 16);
        let scalar = ReedSolomonCode::new(6, 3).with_kernel(Gf256Kernel::Scalar);
        let fast = ReedSolomonCode::new(6, 3).with_kernel(Gf256Kernel::Nibble64);
        let encoded = scalar.encode(&chunk);
        let surviving: Vec<EncodedBlock> = encoded.iter().skip(3).cloned().collect();
        let a = scalar.reencode(&surviving, chunk.len(), &[0, 7]).unwrap();
        let b = fast.reencode(&surviving, chunk.len(), &[0, 7]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn default_encode_goes_parallel_only_above_threshold() {
        // Identical results either way; this pins the dispatch boundary.
        let code = ReedSolomonCode::new(8, 4).with_parallel_threshold(usize::MAX);
        let chunk = sample_chunk(1 << 21, 7);
        assert_eq!(code.encode(&chunk), code.encode_serial(&chunk));
    }

    #[test]
    fn optimality_metadata() {
        let code = ReedSolomonCode::new(10, 4);
        assert_eq!(code.name(), "ReedSolomon");
        assert_eq!(code.source_blocks(), 10);
        assert_eq!(code.encoded_blocks(), 14);
        assert_eq!(code.min_decode_blocks(), 10, "optimal: exactly n of m");
        assert_eq!(code.tolerable_losses(), 4);
        assert!((code.storage_overhead() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn non_multiple_lengths_pad_and_truncate() {
        let code = ReedSolomonCode::new(7, 3);
        for len in [1usize, 6, 7, 8, 13, 4099] {
            let chunk = sample_chunk(len, len as u64);
            let blocks = code.encode(&chunk);
            // Drop the first three (data!) blocks: decode must still succeed.
            let subset: Vec<EncodedBlock> = blocks.into_iter().skip(3).collect();
            assert_eq!(code.decode(&subset, len).unwrap(), chunk, "len {len}");
        }
    }

    #[test]
    fn empty_chunk_round_trip() {
        let code = ReedSolomonCode::new(4, 2);
        let blocks = code.encode(&[]);
        assert_eq!(code.decode(&blocks, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn largest_supported_geometry() {
        let code = ReedSolomonCode::new(223, 33);
        let chunk = sample_chunk(8_192, 9);
        let blocks = code.encode(&chunk);
        // Lose every parity block plus none of the data: trivial; instead lose
        // 33 data blocks and decode from the rest.
        let subset: Vec<EncodedBlock> = blocks.into_iter().skip(33).collect();
        assert_eq!(code.decode(&subset, chunk.len()).unwrap(), chunk);
    }

    #[test]
    #[should_panic(expected = "at most 256 blocks")]
    fn rejects_too_many_blocks() {
        let _ = ReedSolomonCode::new(200, 100);
    }

    #[test]
    fn partial_reencode_matches_full_encode() {
        let code = ReedSolomonCode::new(5, 3);
        let chunk = sample_chunk(4_097, 10);
        let encoded = code.encode(&chunk);
        // Lose a data block and a parity block, keep a minimal mixed subset.
        let surviving: Vec<EncodedBlock> = encoded
            .iter()
            .filter(|b| b.index != 2 && b.index != 6)
            .cloned()
            .collect();
        let rebuilt = code
            .reencode(&surviving, chunk.len(), &[6, 2, 2, 99])
            .unwrap();
        // Deduplicated, ascending, out-of-range indices dropped.
        let indices: Vec<u32> = rebuilt.iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![2, 6]);
        for b in &rebuilt {
            let original = encoded.iter().find(|o| o.index == b.index).unwrap();
            assert_eq!(b, original, "row {} differs from full encode", b.index);
        }
        // Fewer than `data` survivors cannot re-encode anything.
        let too_few: Vec<EncodedBlock> = encoded[..4].to_vec();
        assert!(matches!(
            code.reencode(&too_few, chunk.len(), &[7]),
            Err(DecodeError::NotEnoughBlocks { have: 4, need: 5 })
        ));
    }
}
