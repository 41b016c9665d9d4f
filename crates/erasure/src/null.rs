//! The NULL "code": a pass-through baseline.
//!
//! Table 2 of the paper compares XOR and online codes against a NULL code that
//! "simply copies the input data to the output".  It provides no redundancy —
//! losing any block loses data — but establishes the baseline cost of splitting
//! and copying a chunk.

use crate::code::{copy_padded, index_blocks, row_mut, source_row, DecodeError, ErasureCode};

/// Pass-through codec: the chunk is split into `n` blocks and stored verbatim.
#[derive(Debug, Clone, Copy)]
pub struct NullCode {
    n: usize,
}

impl NullCode {
    /// Create a NULL code over `n` source blocks (panics if `n` is zero).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "block count must be positive");
        NullCode { n }
    }
}

impl Default for NullCode {
    /// The paper's Table 2 configuration: 4096 blocks per chunk.
    fn default() -> Self {
        NullCode::new(4096)
    }
}

impl ErasureCode for NullCode {
    fn name(&self) -> &'static str {
        "Null"
    }

    fn source_blocks(&self) -> usize {
        self.n
    }

    fn encoded_blocks(&self) -> usize {
        self.n
    }

    fn min_decode_blocks(&self) -> usize {
        self.n
    }

    fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]) {
        let block_size = self.block_size(chunk.len());
        for (&r, dst) in rows.iter().zip(out.iter_mut()) {
            // Rows past `n` do not exist: an empty source, so all zeros.
            let row = (r as usize).min(self.n);
            copy_padded(source_row(chunk, row, block_size), dst);
        }
    }

    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
        let block_size = out.len().div_ceil(self.n);
        let have = index_blocks(blocks, self.n, block_size)?;
        let distinct = have.iter().flatten().count();
        if distinct < self.n {
            return Err(DecodeError::NotEnoughBlocks {
                have: distinct,
                need: self.n,
            });
        }
        for (i, src) in have.into_iter().flatten().enumerate() {
            let dst = row_mut(out, i, block_size);
            dst.copy_from_slice(&src[..dst.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::EncodedBlock;

    fn sample_chunk(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 256) as u8).collect()
    }

    #[test]
    fn round_trip() {
        let code = NullCode::new(16);
        let chunk = sample_chunk(10_000);
        let blocks = code.encode(&chunk);
        assert_eq!(blocks.len(), 16);
        let decoded = code.decode(&blocks, chunk.len()).unwrap();
        assert_eq!(decoded, chunk);
    }

    #[test]
    fn no_redundancy() {
        let code = NullCode::new(8);
        assert_eq!(code.encoded_blocks(), code.source_blocks());
        assert_eq!(code.min_decode_blocks(), code.encoded_blocks());
        let chunk = sample_chunk(999);
        let mut blocks = code.encode(&chunk);
        blocks.remove(3);
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::NotEnoughBlocks { .. })
        ));
    }

    #[test]
    fn encoded_size_equals_padded_input() {
        let code = NullCode::new(10);
        let chunk = sample_chunk(1001);
        let blocks = code.encode(&chunk);
        let total: usize = blocks.iter().map(EncodedBlock::len).sum();
        assert_eq!(total, 101 * 10, "only padding overhead");
    }

    #[test]
    fn rejects_out_of_range_index() {
        let code = NullCode::new(4);
        let chunk = sample_chunk(64);
        let mut blocks = code.encode(&chunk);
        blocks[0].index = 99;
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::CorruptBlock { index: 99 })
        ));
    }

    #[test]
    fn duplicate_blocks_do_not_substitute_for_missing_ones() {
        let code = NullCode::new(4);
        let chunk = sample_chunk(64);
        let mut blocks = code.encode(&chunk);
        blocks[1] = blocks[0].clone();
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::NotEnoughBlocks { have: 3, need: 4 })
        ));
    }

    #[test]
    fn default_matches_paper_table2() {
        let code = NullCode::default();
        assert_eq!(code.source_blocks(), 4096);
    }
}
