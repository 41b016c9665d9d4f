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
//! # One tile loop
//!
//! Every byte Reed–Solomon produces — an encoded row on the store path, a
//! lost row on a degraded read, a regenerated row on repair — is a linear
//! combination of source rows, and all of them run through one loop,
//! `combine_span`: each coefficient's [`gf256`](crate::gf256) kernel tables
//! are prepared once per call ([`PreparedCoeff`]), then the output columns
//! are walked in L1-sized tiles (`TILE_BYTES`) with the source tiles reused
//! across all output rows while they are hot.  Source rows are read where
//! they lie (the caller's chunk, the fetched payloads) and output rows are
//! written where they are wanted (the caller's payload or read buffer):
//! nothing is split, copied aside or allocated per row.

use crate::code::{index_blocks, source_row, DecodeError, ErasureCode};
use crate::gf256::{Gf256Kernel, PreparedCoeff};
use crate::matrix::GfMatrix;

/// Tile width (in bytes) of the combine loop.  One source tile per data row
/// plus one output tile must fit in L1/L2 alongside the kernel tables; 16 KiB
/// keeps that well under typical 256 KiB L2 slices while amortising loop
/// overhead.
const TILE_BYTES: usize = 16 * 1024;

/// Systematic Reed–Solomon code: `data` source blocks, `parity` parity blocks,
/// any `data` of the `data + parity` encoded blocks decode.
#[derive(Debug, Clone)]
pub struct ReedSolomonCode {
    data: usize,
    parity: usize,
    /// The bottom `parity × data` rows of the systematic encode matrix; the
    /// top `data` rows are the identity and are never materialised.
    coef: GfMatrix,
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
        #[expect(
            clippy::expect_used,
            reason = "Vandermonde top square over distinct points is provably invertible"
        )]
        let enc = GfMatrix::vandermonde(data + parity, data)
            .systematic()
            .expect("top square of a Vandermonde matrix is invertible");
        let parity_rows: Vec<usize> = (data..data + parity).collect();
        ReedSolomonCode {
            data,
            parity,
            coef: enc.select_rows(&parity_rows),
            kernel: Gf256Kernel::best(),
        }
    }

    /// Pin the GF(256) slice kernel (default: [`Gf256Kernel::best`]).  The
    /// `scalar` kernel is the reference implementation; both produce
    /// byte-identical blocks.
    pub fn with_kernel(mut self, kernel: Gf256Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Number of data blocks (also the decode threshold).
    pub fn data(&self) -> usize {
        self.data
    }

    /// Number of parity blocks (the tolerable losses).
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Kernel tables for one row of coefficients over the data rows.
    fn prepare(&self, coeffs: impl Iterator<Item = u8>) -> Vec<PreparedCoeff> {
        coeffs.map(|c| PreparedCoeff::new(self.kernel, c)).collect()
    }

    /// Encoded row `r` as coefficients over the data rows: a unit vector for
    /// a source row (the code is systematic), the row's parity coefficients
    /// otherwise, all zeros for a row the code does not have.
    fn row_coeffs(&self, r: usize) -> Vec<PreparedCoeff> {
        if r < self.data {
            self.prepare((0..self.data).map(|j| u8::from(j == r)))
        } else if r < self.data + self.parity {
            self.prepare(self.coef.row(r - self.data).iter().copied())
        } else {
            self.prepare((0..self.data).map(|_| 0))
        }
    }

    /// Overwrite each `(j, dst)` of `lost` with source row `j` of the chunk,
    /// computed from the encoded rows in `have` (slotted by index) — the
    /// decode half of [`combine_span`], shared by a decode into a buffer of
    /// its own and a rebuild in place.  A `dst` shorter than `block_size`
    /// (the chunk's last, short row) is written to its end.
    fn rebuild(
        &self,
        have: &[Option<&[u8]>],
        lost: Vec<(usize, &mut [u8])>,
        block_size: usize,
    ) -> Result<(), DecodeError> {
        let distinct = have.iter().flatten().count();
        if distinct < self.data {
            return Err(DecodeError::NotEnoughBlocks {
                have: distinct,
                need: self.data,
            });
        }
        if let Some(&(j, _)) = lost.iter().find(|(j, _)| *j >= self.data) {
            return Err(DecodeError::CorruptBlock { index: j as u32 });
        }
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
                dec.row_mut(r)
                    .copy_from_slice(self.coef.row(idx - self.data));
            }
        }
        let Some(inv) = dec.invert() else {
            // Mathematically unreachable for a Vandermonde-derived code; kept
            // as a defensive error rather than a panic on corrupted input.
            return Err(DecodeError::Unrecoverable {
                missing: lost.len(),
            });
        };
        // Lost row `j` is row `j` of the inverse over the chosen rows.
        let sources: Vec<&[u8]> = chosen.iter().map(|&(_, b)| b).collect();
        let (coeffs, mut outs): (Vec<_>, Vec<&mut [u8]>) = lost
            .into_iter()
            .map(|(j, dst)| (self.prepare(inv.row(j).iter().copied()), dst))
            .unzip();
        combine_span(&coeffs, &sources, block_size, &mut outs);
        Ok(())
    }
}

/// The tile loop: overwrite the first `block_size` columns of every output
/// row with that row's combination `Σ coeffs[row][j] · sources[j]`,
/// cache-blocked — tiles are outermost, so the source tiles are streamed
/// through all output rows while they are hot in L1/L2.
///
/// Rows need not be full length on either side: a source shorter than
/// `block_size` is zero beyond its end (the encoder's padding), and an output
/// that ends early is simply not written past its end (the decoder's last,
/// short data row).
fn combine_span(
    coeffs: &[Vec<PreparedCoeff>],
    sources: &[&[u8]],
    block_size: usize,
    outs: &mut [&mut [u8]],
) {
    debug_assert_eq!(coeffs.len(), outs.len());
    let mut tile_start = 0;
    while tile_start < block_size {
        let tile_end = (tile_start + TILE_BYTES).min(block_size);
        for (row, out) in coeffs.iter().zip(outs.iter_mut()) {
            let lo = tile_start.min(out.len());
            let hi = tile_end.min(out.len());
            let dst = &mut out[lo..hi];
            let mut untouched = true;
            for (coeff, src) in row.iter().zip(sources) {
                if coeff.is_zero() {
                    continue;
                }
                let end = (tile_start + dst.len()).min(src.len());
                let src = &src[tile_start.min(end)..end];
                let (head, tail) = dst.split_at_mut(src.len());
                if untouched {
                    // The first term overwrites: no zero-fill pass, and a
                    // source row of the systematic part is a plain copy.
                    coeff.mul(src, head);
                    tail.fill(0);
                    untouched = false;
                } else {
                    coeff.mul_add(src, head);
                }
            }
            if untouched {
                dst.fill(0);
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

    /// Source rows are copied straight out of the chunk and parity rows run
    /// only their own coefficient row — so repairing one lost block costs one
    /// row of GF multiply-adds, not a full encode.
    fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]) {
        let block_size = self.block_size(chunk.len());
        let coeffs: Vec<_> = rows.iter().map(|&r| self.row_coeffs(r as usize)).collect();
        let sources: Vec<&[u8]> = (0..self.data)
            .map(|j| source_row(chunk, j, block_size))
            .collect();
        combine_span(&coeffs, &sources, block_size, out);
    }

    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
        if out.is_empty() {
            return Ok(());
        }
        let block_size = self.block_size(out.len());
        let have = index_blocks(blocks, self.data + self.parity, block_size)?;
        // The code is systematic: surviving source rows are the chunk's own
        // bytes, copied into place with no field arithmetic.  Rows that are
        // all padding have no place in `out` and are never rebuilt.
        let mut lost = Vec::new();
        for (j, dst) in out.chunks_mut(block_size).enumerate() {
            match have[j] {
                Some(src) => dst.copy_from_slice(&src[..dst.len()]),
                None => lost.push((j, dst)),
            }
        }
        self.rebuild(&have, lost, block_size)
    }

    /// Fetched source rows are `have` rows where they already lie: nothing is
    /// copied, and a lost row is combined straight into its hole.
    fn rebuild_rows(
        &self,
        first: usize,
        rows: &mut [u8],
        block_size: usize,
        holes: &[usize],
        others: &[(u32, &[u8])],
    ) -> Result<(), DecodeError> {
        let mut have = index_blocks(others, self.data + self.parity, block_size)?;
        let mut lost = Vec::with_capacity(holes.len());
        for (j, row) in (first..).zip(rows.chunks_mut(block_size)) {
            if holes.contains(&j) {
                lost.push((j, row));
            } else if let Some(slot) = have.get_mut(j) {
                *slot = Some(row);
            }
        }
        if let Some(&hole) = holes.iter().find(|h| lost.iter().all(|(j, _)| j != *h)) {
            return Err(DecodeError::CorruptBlock { index: hole as u32 });
        }
        self.rebuild(&have, lost, block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::EncodedBlock;
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
    fn kernels_produce_identical_blocks() {
        let chunk = sample_chunk(200_000, 14);
        let reference = ReedSolomonCode::new(8, 4)
            .with_kernel(Gf256Kernel::Scalar)
            .encode(&chunk);
        let rows: Vec<u32> = (0..reference.len() as u32).collect();
        for kernel in Gf256Kernel::ALL {
            let code = ReedSolomonCode::new(8, 4).with_kernel(kernel);
            assert_eq!(code.encode(&chunk), reference, "kernel {kernel}");
            // Into buffers full of stale bytes: every one must be overwritten.
            let mut bufs = vec![vec![0xA5u8; code.block_size(chunk.len())]; rows.len()];
            let mut out: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            code.encode_rows_into(&chunk, &rows, &mut out);
            assert!(
                bufs.iter().zip(&reference).all(|(a, b)| *a == b.data),
                "kernel {kernel} into dirty buffers"
            );
        }
    }

    #[test]
    fn source_rows_are_the_chunk_and_short_tails_are_zero_padded() {
        // 13 bytes over 5 rows of 3: rows 0..3 full, row 4 one byte + padding.
        let code = ReedSolomonCode::new(5, 3);
        let chunk = sample_chunk(13, 17);
        let blocks = code.encode(&chunk);
        for (j, b) in blocks.iter().take(5).enumerate() {
            let src = &chunk[(j * 3).min(13)..((j + 1) * 3).min(13)];
            assert_eq!(&b.data[..src.len()], src, "row {j}");
            assert!(
                b.data[src.len()..].iter().all(|&x| x == 0),
                "row {j} padding"
            );
        }
        // A chunk shorter than `data` bytes: one byte a row, the rest padding.
        let blocks = code.encode(&chunk[..2]);
        assert_eq!(blocks[0].data, [chunk[0]]);
        assert_eq!(blocks[1].data, [chunk[1]]);
        assert!(blocks[2..5].iter().all(|b| b.data == [0]));
        assert_eq!(code.decode(&blocks[3..], 2).unwrap(), &chunk[..2]);
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
