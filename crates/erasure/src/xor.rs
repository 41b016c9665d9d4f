//! XOR parity-check code (the RAID-5 style code of the paper).
//!
//! For every group of `n` source blocks an extra parity block containing their
//! XOR is produced, so a group can survive the loss of any *one* of its `n + 1`
//! blocks.  The paper's default is the "(2,3) XOR code": groups of two source
//! blocks plus one parity block, a 50 % storage overhead (Table 2).

use crate::code::{
    copy_padded, index_blocks, row_mut, source_row, xor_into, DecodeError, ErasureCode,
};

/// Parity-check erasure code over groups of `group` source blocks.
///
/// A chunk is divided into `source_blocks` blocks which are processed in groups
/// of `group`; each group contributes one parity block.  Encoded blocks are
/// numbered so that indices `< source_blocks` are the source blocks in order and
/// indices `>= source_blocks` are the parity blocks in group order, matching the
/// sequential `ECB` numbering of the paper's naming convention.
#[derive(Debug, Clone, Copy)]
pub struct XorCode {
    group: usize,
    source: usize,
}

impl XorCode {
    /// Create an XOR parity code with the given group size over `source_blocks`
    /// total source blocks.  Panics if either is zero or if the group size does
    /// not divide the block count (keeps group bookkeeping trivial).
    pub fn new(group: usize, source_blocks: usize) -> Self {
        assert!(group > 0, "group size must be positive");
        assert!(source_blocks > 0, "block count must be positive");
        assert!(
            source_blocks.is_multiple_of(group),
            "group size {group} must divide source block count {source_blocks}"
        );
        XorCode {
            group,
            source: source_blocks,
        }
    }

    /// The paper's (2,3) configuration over 4096 source blocks (Table 2).
    pub fn paper_default() -> Self {
        XorCode::new(2, 4096)
    }

    /// Number of parity groups.
    pub fn groups(&self) -> usize {
        self.source / self.group
    }

    /// Which parity group an encoded block (source or parity) belongs to.
    pub fn group_of(&self, index: usize) -> usize {
        if index < self.source {
            index / self.group
        } else {
            index - self.source
        }
    }
}

impl Default for XorCode {
    fn default() -> Self {
        XorCode::paper_default()
    }
}

impl ErasureCode for XorCode {
    fn name(&self) -> &'static str {
        "XOR"
    }

    fn source_blocks(&self) -> usize {
        self.source
    }

    fn encoded_blocks(&self) -> usize {
        self.source + self.groups()
    }

    fn min_decode_blocks(&self) -> usize {
        // Any single loss per group is tolerable; in the worst case all losses hit
        // the same group, so only one loss is guaranteed tolerable overall.
        self.encoded_blocks() - 1
    }

    fn encode_rows_into(&self, chunk: &[u8], rows: &[u32], out: &mut [&mut [u8]]) {
        let block_size = self.block_size(chunk.len());
        let source = |i: usize| source_row(chunk, i, block_size);
        for (&r, dst) in rows.iter().zip(out.iter_mut()) {
            let r = r as usize;
            if r < self.source {
                copy_padded(source(r), dst);
            } else if r < self.encoded_blocks() {
                // Parity of group `g`: its first member, then the rest XORed in.
                let first = (r - self.source) * self.group;
                copy_padded(source(first), dst);
                for i in first + 1..first + self.group {
                    let src = source(i);
                    xor_into(&mut dst[..src.len()], src);
                }
            } else {
                dst.fill(0);
            }
        }
    }

    fn decode_into(&self, blocks: &[(u32, &[u8])], out: &mut [u8]) -> Result<(), DecodeError> {
        let block_size = out.len().div_ceil(self.source);
        let have = index_blocks(blocks, self.encoded_blocks(), block_size)?;
        let distinct = have.iter().flatten().count();
        // Copy surviving source blocks into place and rebuild each group's
        // single missing one from the group's parity block.
        let mut missing_total = 0usize;
        for g in 0..self.groups() {
            let range = g * self.group..(g + 1) * self.group;
            for i in range.clone() {
                if let Some(src) = have[i] {
                    let dst = row_mut(out, i, block_size);
                    dst.copy_from_slice(&src[..dst.len()]);
                }
            }
            let lost: Vec<usize> = range.clone().filter(|&i| have[i].is_none()).collect();
            let parity = have.get(self.source + g).copied().flatten();
            match (lost.as_slice(), parity) {
                ([], _) => {}
                (&[lost], Some(parity)) => {
                    let dst = row_mut(out, lost, block_size);
                    dst.copy_from_slice(&parity[..dst.len()]);
                    for src in range.filter_map(|i| have[i]) {
                        xor_into(dst, &src[..dst.len()]);
                    }
                }
                (lost, _) => missing_total += lost.len(),
            }
        }
        if missing_total == 0 {
            Ok(())
        } else if distinct < self.min_decode_blocks() {
            Err(DecodeError::NotEnoughBlocks {
                have: distinct,
                need: self.min_decode_blocks(),
            })
        } else {
            Err(DecodeError::Unrecoverable {
                missing: missing_total,
            })
        }
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
        let code = XorCode::new(2, 8);
        let chunk = sample_chunk(10_000, 1);
        let blocks = code.encode(&chunk);
        assert_eq!(blocks.len(), 12);
        assert_eq!(code.decode(&blocks, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn recovers_one_loss_per_group() {
        let code = XorCode::new(2, 8);
        let chunk = sample_chunk(4321, 2);
        let blocks = code.encode(&chunk);
        // Remove one source block from every group (indices 0, 2, 4, 6).
        let surviving: Vec<EncodedBlock> = blocks
            .iter()
            .filter(|b| ![0u32, 2, 4, 6].contains(&b.index))
            .cloned()
            .collect();
        assert_eq!(code.decode(&surviving, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn losing_a_parity_block_is_harmless() {
        let code = XorCode::new(2, 4);
        let chunk = sample_chunk(100, 3);
        let blocks = code.encode(&chunk);
        let surviving: Vec<EncodedBlock> = blocks
            .iter()
            .filter(|b| (b.index as usize) < code.source_blocks())
            .cloned()
            .collect();
        assert_eq!(code.decode(&surviving, chunk.len()).unwrap(), chunk);
    }

    #[test]
    fn two_losses_in_one_group_fail() {
        let code = XorCode::new(2, 4);
        let chunk = sample_chunk(1000, 4);
        let blocks = code.encode(&chunk);
        // Group 0 consists of source blocks 0, 1 and parity block 4; drop 0 and 1.
        let surviving: Vec<EncodedBlock> = blocks
            .iter()
            .filter(|b| b.index != 0 && b.index != 1)
            .cloned()
            .collect();
        assert!(
            code.decode(&surviving, chunk.len()).is_err(),
            "two losses in the same (2,3) group must be unrecoverable"
        );
    }

    #[test]
    fn storage_overhead_matches_paper() {
        // (2,3) XOR: 50 % overhead, as reported in Table 2.
        let code = XorCode::paper_default();
        assert_eq!(code.source_blocks(), 4096);
        assert_eq!(code.encoded_blocks(), 6144);
        assert_eq!(code.encoded_blocks() - code.min_decode_blocks(), 1);
    }

    #[test]
    fn group_of_maps_blocks_correctly() {
        let code = XorCode::new(2, 8);
        assert_eq!(code.group_of(0), 0);
        assert_eq!(code.group_of(1), 0);
        assert_eq!(code.group_of(2), 1);
        assert_eq!(code.group_of(8), 0, "first parity block belongs to group 0");
        assert_eq!(code.group_of(11), 3);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn group_must_divide_block_count() {
        let _ = XorCode::new(3, 8);
    }

    #[test]
    fn rejects_out_of_range_index() {
        let code = XorCode::new(2, 4);
        let chunk = sample_chunk(100, 5);
        let mut blocks = code.encode(&chunk);
        blocks[0].index = 1000;
        assert!(matches!(
            code.decode(&blocks, chunk.len()),
            Err(DecodeError::CorruptBlock { .. })
        ));
    }

    #[test]
    fn empty_chunk_round_trip() {
        let code = XorCode::new(2, 4);
        let blocks = code.encode(&[]);
        assert_eq!(code.decode(&blocks, 0).unwrap(), Vec::<u8>::new());
    }
}
