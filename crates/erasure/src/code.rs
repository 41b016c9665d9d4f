//! The erasure-code abstraction shared by all codecs.
//!
//! A chunk of a file is divided into `n` equal-size blocks and encoded into
//! `m ≥ n` blocks; the original chunk can be reconstructed from a subset of the
//! encoded blocks (Section 4.2 of the paper).  Different codecs trade storage
//! overhead (`m/n`), the number of blocks needed for decoding, and CPU time —
//! exactly the trade-off the paper's Table 2 quantifies.

use std::fmt;

/// One encoded block, identified by its index within the chunk's encoding.
///
/// The index corresponds to the paper's `ECB` number in the block-naming
/// convention `filename_chunkNo_ECB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlock {
    /// Index of the block within the chunk's encoding (0-based).
    pub index: u32,
    /// Encoded payload bytes.
    pub data: Vec<u8>,
}

impl EncodedBlock {
    /// Create an encoded block.
    pub fn new(index: u32, data: Vec<u8>) -> Self {
        EncodedBlock { index, data }
    }

    /// Size of the payload in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The borrowed `(index, bytes)` view [`ErasureCode::decode_into`] takes.
    pub fn view(&self) -> (u32, &[u8]) {
        (self.index, &self.data)
    }
}

/// Why a decode attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer blocks were supplied than the codec can possibly decode from.
    NotEnoughBlocks {
        /// Number of blocks supplied.
        have: usize,
        /// Minimum number of blocks the codec needs.
        need: usize,
    },
    /// The supplied blocks were sufficient in number but did not allow full
    /// recovery (e.g. an unlucky online-code neighbourhood); retrying with more
    /// blocks usually succeeds.
    Unrecoverable {
        /// Number of source blocks still missing after decoding stalled.
        missing: usize,
    },
    /// A block index was out of range or inconsistent with the codec parameters.
    CorruptBlock {
        /// The offending block index.
        index: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NotEnoughBlocks { have, need } => {
                write!(
                    f,
                    "not enough encoded blocks: have {have}, need at least {need}"
                )
            }
            DecodeError::Unrecoverable { missing } => {
                write!(
                    f,
                    "decoding stalled with {missing} source blocks unrecovered"
                )
            }
            DecodeError::CorruptBlock { index } => {
                write!(f, "corrupt or out-of-range block {index}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A chunk erasure codec.
///
/// Implementations are parameterised by the number of source blocks `n` the
/// chunk is divided into; [`ErasureCode::encode_rows_into`] reads the rows out
/// of the chunk and pads internally, so callers only handle whole chunks.
pub trait ErasureCode: Send + Sync {
    /// Human-readable codec name as used in the paper's tables ("Null", "XOR", "Online").
    fn name(&self) -> &'static str;

    /// Number of source blocks a chunk is divided into.
    fn source_blocks(&self) -> usize;

    /// Number of encoded blocks produced for a chunk.
    fn encoded_blocks(&self) -> usize;

    /// Minimum number of encoded blocks that guarantees successful decoding.
    ///
    /// For sub-optimal codes (online codes) this is the `(1 + ε)n` bound and is
    /// probabilistic — decoding from exactly this many blocks succeeds with high
    /// probability, not certainty.
    fn min_decode_blocks(&self) -> usize;

    /// Size of every encoded block of a chunk of `chunk_len` bytes: the chunk
    /// cut into [`ErasureCode::source_blocks`] equal rows, the last one padded.
    fn block_size(&self, chunk_len: usize) -> usize {
        chunk_len.div_ceil(self.source_blocks())
    }

    /// The one encode body of a codec: write encoded block `rows[i]` of
    /// `chunk` into `out[i]`, for every `i`.
    ///
    /// Source rows are read straight out of `chunk` — a short or absent tail
    /// row is implicit zero padding — and every byte of every `out[i]` is
    /// overwritten, so the caller may hand in dirty buffers (for instance the
    /// row slots of a wire payload).  Each `out[i]` must be
    /// [`ErasureCode::block_size`] bytes long and `out` as long as `rows`; an
    /// index the codec does not produce yields an all-zero row.
    fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]);

    /// Encode only the blocks whose indices are listed in `rows`, each into a
    /// buffer of its own.  Indices the codec does not produce are silently
    /// absent from the result.
    fn encode_rows(&self, chunk: &[u8], rows: &[u32]) -> Vec<EncodedBlock> {
        let block_size = self.block_size(chunk.len());
        let total = self.encoded_blocks() as u32;
        let rows: Vec<u32> = rows.iter().copied().filter(|&r| r < total).collect();
        let mut blocks: Vec<EncodedBlock> = rows
            .iter()
            .map(|&r| EncodedBlock::new(r, vec![0u8; block_size]))
            .collect();
        let mut out: Vec<&mut [u8]> = blocks.iter_mut().map(|b| b.data.as_mut_slice()).collect();
        self.encode_rows_into(chunk, &rows, &mut out);
        blocks
    }

    /// Encode a chunk into all of its blocks.
    fn encode(&self, chunk: &[u8]) -> Vec<EncodedBlock> {
        let rows: Vec<u32> = (0..self.encoded_blocks() as u32).collect();
        self.encode_rows(chunk, &rows)
    }

    /// Decode a chunk from borrowed `(index, bytes)` views of (a subset of)
    /// its blocks straight into `out`, whose length is the chunk's original
    /// length.  Every byte of `out` is overwritten on success; on error its
    /// contents are unspecified.
    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError>;

    /// Decode a chunk of original length `chunk_len` from (a subset of) its blocks.
    fn decode(&self, blocks: &[EncodedBlock], chunk_len: usize) -> Result<Vec<u8>, DecodeError> {
        let views: Vec<_> = blocks.iter().map(EncodedBlock::view).collect();
        let mut out = vec![0u8; chunk_len];
        self.decode_into(&views, &mut out)?;
        Ok(out)
    }

    /// Rebuild, in place, source rows of a chunk that a read has landed where
    /// the caller reads them — for a systematic codec, whose encoded blocks
    /// `0..source_blocks()` are the chunk's own rows.
    ///
    /// `rows` holds consecutive source rows of the chunk, each a whole
    /// `block_size` (non-zero) bytes, starting with row `first`; the rows
    /// listed in `holes` (chunk row numbers) could not be fetched and hold
    /// anything.  `others` are further blocks of the chunk: source rows that
    /// lie outside `rows`, and redundancy.  On success every hole holds its
    /// row, padding included, and no other byte of `rows` has changed.
    ///
    /// The provided body decodes the chunk aside and copies the holes out of
    /// it; a codec that can compute a lost row straight into its place
    /// overrides it.
    fn rebuild_rows(
        &self,
        first: usize,
        rows: &mut [u8],
        block_size: usize,
        holes: &[usize],
        others: &[(u32, &[u8])],
    ) -> Result<(), DecodeError> {
        let mut views = others.to_vec();
        for (row, bytes) in (first..).zip(rows.chunks(block_size)) {
            if !holes.contains(&row) {
                views.push((row as u32, bytes));
            }
        }
        let mut chunk = vec![0u8; self.source_blocks() * block_size];
        self.decode_into(&views, &mut chunk)?;
        for &hole in holes {
            let src = chunk.get(hole * block_size..(hole + 1) * block_size);
            let dst = hole
                .checked_sub(first)
                .and_then(|r| rows.get_mut(r * block_size..(r + 1) * block_size));
            match (src, dst) {
                (Some(src), Some(dst)) => dst.copy_from_slice(src),
                _ => return Err(DecodeError::CorruptBlock { index: hole as u32 }),
            }
        }
        Ok(())
    }

    /// Regenerate only the encoded blocks listed in `missing` from the
    /// `available` survivors — the block-level repair entry point (Section 4.4:
    /// a failed participant's blocks are recreated from the surviving ones).
    ///
    /// Decodes the chunk and re-encodes the requested indices through
    /// [`ErasureCode::encode_rows`], returning them in ascending order.
    fn reencode(
        &self,
        available: &[EncodedBlock],
        chunk_len: usize,
        missing: &[u32],
    ) -> Result<Vec<EncodedBlock>, DecodeError> {
        let chunk = self.decode(available, chunk_len)?;
        let mut wanted: Vec<u32> = missing.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        Ok(self.encode_rows(&chunk, &wanted))
    }
}

/// Source row `row` of a chunk cut into rows of `block_size`, as it lies in
/// the chunk: shorter than `block_size` for the last data-bearing row, empty
/// for rows that are all padding.
pub(crate) fn source_row(chunk: &[u8], row: usize, block_size: usize) -> &[u8] {
    let start = (row * block_size).min(chunk.len());
    let end = ((row + 1) * block_size).min(chunk.len());
    &chunk[start..end]
}

/// Overwrite `dst` with `src` followed by zero padding (`src` is no longer
/// than `dst`).
pub(crate) fn copy_padded(src: &[u8], dst: &mut [u8]) {
    let (head, tail) = dst.split_at_mut(src.len());
    head.copy_from_slice(src);
    tail.fill(0);
}

/// The part of `out` that source block `row` occupies when a chunk of
/// `out.len()` bytes is cut into blocks of `block_size`: shorter than
/// `block_size` for the last data-bearing row, empty for rows that are all
/// padding.
pub(crate) fn row_mut(out: &mut [u8], row: usize, block_size: usize) -> &mut [u8] {
    let start = (row * block_size).min(out.len());
    let end = ((row + 1) * block_size).min(out.len());
    &mut out[start..end]
}

/// Slot the supplied block views by index (first seen wins) for a codec of
/// `total` encoded blocks of `block_size` bytes each.  An out-of-range index
/// or a wrong-length payload is a corrupt block.
pub(crate) fn index_blocks<'a>(
    blocks: &[(u32, &'a [u8])],
    total: usize,
    block_size: usize,
) -> Result<Vec<Option<&'a [u8]>>, DecodeError> {
    let mut have = vec![None; total];
    for &(index, data) in blocks {
        match have.get_mut(index as usize) {
            Some(slot) if data.len() == block_size => {
                slot.get_or_insert(data);
            }
            _ => return Err(DecodeError::CorruptBlock { index }),
        }
    }
    Ok(have)
}

/// XOR `src` into `dst` in place (`dst ^= src`); both must have equal length.
#[inline]
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    // Process a word at a time; the tail is handled bytewise.
    let (dst_words, dst_tail) = dst.as_chunks_mut::<8>();
    let (src_words, src_tail) = src.as_chunks::<8>();
    for (d, s) in dst_words.iter_mut().zip(src_words) {
        *d = (u64::from_ne_bytes(*d) ^ u64::from_ne_bytes(*s)).to_ne_bytes();
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_rows_tile_the_chunk_and_pad_with_zeros() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for n in [1usize, 2, 3, 7, 16, 100, 1000, 1024] {
            let size = data.len().div_ceil(n);
            let mut joined = vec![0xA5u8; data.len()];
            for i in 0..n {
                let src = source_row(&data, i, size);
                let mut padded = vec![0xA5u8; size];
                copy_padded(src, &mut padded);
                assert_eq!(&padded[..src.len()], src);
                assert!(padded[src.len()..].iter().all(|&b| b == 0));
                row_mut(&mut joined, i, size).copy_from_slice(src);
            }
            assert_eq!(joined, data);
        }
        assert_eq!(source_row(&[1, 2, 3, 4, 5], 1, 3), &[4, 5]);
        assert!(source_row(&[], 3, 0).is_empty());
        assert!(row_mut(&mut [], 3, 0).is_empty());
    }

    #[test]
    fn encode_rows_into_overwrites_dirty_rows_and_matches_encode_for_every_codec() {
        let codecs: [Box<dyn ErasureCode>; 4] = [
            Box::new(crate::null::NullCode::new(8)),
            Box::new(crate::xor::XorCode::new(2, 8)),
            Box::new(crate::online::OnlineCode::with_overhead(64, 0.01, 3, 1.25)),
            Box::new(crate::rs::ReedSolomonCode::new(5, 3)),
        ];
        for code in &codecs {
            // Shorter than one byte a row, not divisible, and comfortable.
            for len in [0usize, 1, 3, 7, 999, 4096] {
                let data: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
                let encoded = code.encode(&data);
                assert_eq!(encoded.len(), code.encoded_blocks());
                let size = code.block_size(len);
                // Every other row, last first, plus one the codec lacks.
                let mut rows: Vec<u32> = (0..code.encoded_blocks() as u32).step_by(2).collect();
                rows.reverse();
                rows.push(u32::MAX);
                let mut bufs = vec![vec![0xA5u8; size]; rows.len()];
                let mut out: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                code.encode_rows_into(&data, &rows, &mut out);
                for (r, buf) in rows.iter().zip(&bufs) {
                    match encoded.get(*r as usize) {
                        Some(b) => assert_eq!(buf, &b.data, "{} row {r} at {len}", code.name()),
                        None => assert!(buf.iter().all(|&b| b == 0)),
                    }
                }
                let picked = code.encode_rows(&data, &rows);
                assert_eq!(picked.len(), rows.len() - 1, "unknown row absent");
                assert!(picked.iter().all(|b| *b == encoded[b.index as usize]));
            }
        }
    }

    #[test]
    fn xor_into_is_involutive() {
        let a: Vec<u8> = (0..37).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..37).map(|i| (i * 7 + 3) as u8).collect();
        let mut c = a.clone();
        xor_into(&mut c, &b);
        assert_ne!(c, a);
        xor_into(&mut c, &b);
        assert_eq!(c, a);
    }

    #[test]
    fn encoded_block_accessors() {
        let b = EncodedBlock::new(3, vec![1, 2, 3]);
        assert_eq!(b.index, 3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(EncodedBlock::new(0, vec![]).is_empty());
    }

    #[test]
    fn default_reencode_rebuilds_exactly_the_missing_blocks() {
        // Exercised through the XOR codec, which does not override the default.
        let code = crate::xor::XorCode::new(2, 4);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let encoded = code.encode(&data);
        // Lose one block per parity group (indices 1 and 2 here).
        let surviving: Vec<EncodedBlock> = encoded
            .iter()
            .filter(|b| b.index != 1 && b.index != 2)
            .cloned()
            .collect();
        let rebuilt = code.reencode(&surviving, data.len(), &[2, 1, 1]).unwrap();
        assert_eq!(rebuilt.len(), 2, "duplicates deduplicated");
        for b in &rebuilt {
            let original = encoded.iter().find(|o| o.index == b.index).unwrap();
            assert_eq!(b, original, "regenerated block {} differs", b.index);
        }
        // Not enough survivors propagates the decode error.
        let too_few: Vec<EncodedBlock> = encoded[..1].to_vec();
        assert!(code.reencode(&too_few, data.len(), &[5]).is_err());
    }

    #[test]
    fn index_blocks_slots_first_seen_and_rejects_corrupt_views() {
        let (a, b) = ([1u8, 2], [3u8, 4]);
        let have = index_blocks(&[(2, &a), (0, &b), (2, &b)], 3, 2).unwrap();
        assert_eq!(have, vec![Some(&b[..]), None, Some(&a[..])]);
        assert_eq!(
            index_blocks(&[(3, &a)], 3, 2),
            Err(DecodeError::CorruptBlock { index: 3 })
        );
        assert_eq!(
            index_blocks(&[(1, &a[..1])], 3, 2),
            Err(DecodeError::CorruptBlock { index: 1 }),
            "a block of the wrong length is corrupt, not padded"
        );
    }

    #[test]
    fn decode_into_overwrites_a_dirty_buffer_for_every_codec() {
        let codecs: [Box<dyn ErasureCode>; 5] = [
            Box::new(crate::null::NullCode::new(8)),
            Box::new(crate::xor::XorCode::new(2, 8)),
            Box::new(crate::online::OnlineCode::with_overhead(64, 0.01, 3, 1.25)),
            Box::new(crate::rs::ReedSolomonCode::new(5, 3)),
            Box::new(crate::rs::ReedSolomonCode::new(5, 3).with_kernel(crate::Gf256Kernel::Scalar)),
        ];
        for code in &codecs {
            for len in [0usize, 1, 7, 999, 4096] {
                let data: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
                let mut blocks = code.encode(&data);
                let redundant = code.encoded_blocks() > code.min_decode_blocks();
                if redundant {
                    blocks.remove(0);
                }
                let views: Vec<_> = blocks.iter().map(EncodedBlock::view).collect();
                let mut out = vec![0xA5u8; len];
                code.decode_into(&views, &mut out).unwrap();
                assert_eq!(out, data, "{} at {len}", code.name());
                assert_eq!(code.decode(&blocks, len).unwrap(), data);
                if redundant && len > 0 {
                    // Fewer blocks than sources decode under no codec: the
                    // borrowed decode fails exactly as the owning one does.
                    let few = &blocks[blocks.len() + 1 - code.source_blocks()..];
                    let views: Vec<_> = few.iter().map(EncodedBlock::view).collect();
                    let err = code.decode(few, len).unwrap_err();
                    assert_eq!(
                        code.decode_into(&views, &mut out),
                        Err(err),
                        "{} at {len}",
                        code.name()
                    );
                }
            }
        }
    }

    /// A codec seen through the trait's provided bodies only.
    struct Provided(Box<dyn ErasureCode>);

    impl ErasureCode for Provided {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn source_blocks(&self) -> usize {
            self.0.source_blocks()
        }
        fn encoded_blocks(&self) -> usize {
            self.0.encoded_blocks()
        }
        fn min_decode_blocks(&self) -> usize {
            self.0.min_decode_blocks()
        }
        fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]) {
            self.0.encode_rows_into(chunk, rows, out)
        }
        fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
            self.0.decode_into(blocks, out)
        }
    }

    #[test]
    fn rebuild_rows_fills_the_holes_of_every_window_and_touches_nothing_else() {
        // Reed–Solomon's in-place body, the provided body over the same
        // code, and the provided body over XOR (one loss a group).
        let codecs: [(Box<dyn ErasureCode>, usize); 3] = [
            (Box::new(crate::rs::ReedSolomonCode::new(5, 3)), 3),
            (
                Box::new(Provided(Box::new(crate::rs::ReedSolomonCode::new(5, 3)))),
                3,
            ),
            (
                Box::new(Provided(Box::new(crate::xor::XorCode::new(2, 6)))),
                1,
            ),
        ];
        for (code, most) in &codecs {
            let k = code.source_blocks();
            for len in [1usize, 4, 7, 999, 4096] {
                let data: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
                let blocks = code.encode(&data);
                let size = code.block_size(len);
                for first in 0..k {
                    for last in first..k {
                        let whole: Vec<u8> = blocks[first..=last]
                            .iter()
                            .flat_map(|b| b.data.iter().copied())
                            .collect();
                        let others: Vec<_> = blocks
                            .iter()
                            .filter(|b| !(first..=last).contains(&(b.index as usize)))
                            .map(EncodedBlock::view)
                            .collect();
                        // Holes: the leading 1..=most rows of the window.
                        for lose in 1..=(*most).min(last + 1 - first) {
                            let holes: Vec<usize> = (first..first + lose).collect();
                            let mut rows = whole.clone();
                            rows[..lose * size].fill(0xA5);
                            code.rebuild_rows(first, &mut rows, size, &holes, &others)
                                .unwrap();
                            assert_eq!(rows, whole, "{} rows {first}..={last}", code.name());
                        }
                    }
                }
                // Too few other blocks is the decoder's error, and a hole
                // outside the window is a corrupt request.
                let mut rows = blocks[0].data.clone();
                assert!(code.rebuild_rows(0, &mut rows, size, &[0], &[]).is_err());
                let others: Vec<_> = blocks[1..].iter().map(EncodedBlock::view).collect();
                assert_eq!(
                    code.rebuild_rows(0, &mut rows, size, &[1], &others),
                    Err(DecodeError::CorruptBlock { index: 1 })
                );
            }
        }
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::NotEnoughBlocks { have: 1, need: 2 };
        assert!(e.to_string().contains("have 1"));
        let e = DecodeError::Unrecoverable { missing: 5 };
        assert!(e.to_string().contains("5"));
        let e = DecodeError::CorruptBlock { index: 9 };
        assert!(e.to_string().contains("9"));
    }
}
