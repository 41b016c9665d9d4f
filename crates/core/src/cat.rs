//! The chunk allocation table (CAT).
//!
//! Because PeerStripe chunks have varying sizes there is no arithmetic mapping
//! from a file offset to the chunk holding it.  The CAT records, per chunk, the
//! byte range of the file it contains (Figure 3 of the paper shows the textual
//! format).  The CAT is itself stored in the overlay under `filename.CAT` and
//! replicated on leaf-set neighbours; if all replicas are lost it can be
//! reconstructed by probing chunk names in order (Section 4.4), which
//! [`ChunkAllocationTable::from_chunk_sizes`] plus the client's probing loop
//! reproduce.

use peerstripe_sim::ByteSize;

/// One CAT row: the half-open byte range `[start, end)` of the file stored in a chunk.
///
/// Zero-sized chunks (failed placements that were retried under a new chunk
/// number, Section 4.3) are represented by `start == end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkExtent {
    /// Chunk number (position in the file's chunk sequence).
    pub chunk: u32,
    /// First byte of the file stored in this chunk.
    pub start: u64,
    /// One past the last byte stored in this chunk (`start` for empty chunks).
    pub end: u64,
}

impl ChunkExtent {
    /// Size of the chunk.
    pub fn size(&self) -> ByteSize {
        ByteSize::bytes(self.end - self.start)
    }

    /// True if this chunk holds no data (a placement retry placeholder).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the chunk contains the given file offset.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.start && offset < self.end
    }
}

/// The chunk allocation table of one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkAllocationTable {
    extents: Vec<ChunkExtent>,
}

impl ChunkAllocationTable {
    /// Create an empty CAT.
    pub fn new() -> Self {
        ChunkAllocationTable {
            extents: Vec::new(),
        }
    }

    /// Build a CAT from the sequence of chunk sizes produced while storing a file
    /// (zero sizes describe empty retry chunks).
    pub fn from_chunk_sizes(sizes: &[ByteSize]) -> Self {
        let mut cat = ChunkAllocationTable::new();
        for &size in sizes {
            cat.push(size);
        }
        cat
    }

    /// Append a chunk of the given size.
    pub fn push(&mut self, size: ByteSize) {
        let start = self.extents.last().map(|e| e.end).unwrap_or(0);
        let chunk = self.extents.len() as u32;
        self.extents.push(ChunkExtent {
            chunk,
            start,
            end: start + size.as_u64(),
        });
    }

    /// Number of chunks (including empty ones).
    pub fn chunk_count(&self) -> usize {
        self.extents.len()
    }

    /// Total file size described by the CAT.
    pub fn file_size(&self) -> ByteSize {
        ByteSize::bytes(self.extents.last().map(|e| e.end).unwrap_or(0))
    }

    /// All extents in chunk order.
    pub fn extents(&self) -> &[ChunkExtent] {
        &self.extents
    }

    /// The extent of a particular chunk number.
    pub fn extent(&self, chunk: u32) -> Option<&ChunkExtent> {
        self.extents.get(chunk as usize)
    }

    /// The chunk containing the given file offset (empty chunks never match).
    pub fn chunk_for_offset(&self, offset: u64) -> Option<&ChunkExtent> {
        // Binary search over ends (extents are ordered and non-overlapping).
        let idx = self.extents.partition_point(|e| e.end <= offset);
        self.extents.get(idx).filter(|e| e.contains(offset))
    }

    /// The chunks overlapping the byte range `[offset, offset + len)`, in order.
    ///
    /// This is the lookup performed when an application reads a portion of a file
    /// (Section 4: "only the chunk(s) containing that portion are retrieved").
    pub fn chunks_for_range(&self, offset: u64, len: u64) -> Vec<&ChunkExtent> {
        if len == 0 {
            return Vec::new();
        }
        let end = offset.saturating_add(len);
        self.extents
            .iter()
            .filter(|e| !e.is_empty() && e.start < end && e.end > offset)
            .collect()
    }

    /// Approximate the size of the serialised CAT object itself (it is stored in
    /// the overlay like any other object): one row per chunk, as in Figure 3.
    pub fn serialized_size(&self) -> ByteSize {
        // "(1) 0,5242880\n" — roughly 32 bytes per row.
        ByteSize::bytes(32 * self.extents.len() as u64)
    }

    /// Render the textual format of Figure 3: `(<chunk>) <start>,<end>` per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.extents {
            let _ = writeln!(out, "({}) {},{}", e.chunk + 1, e.start, e.end);
        }
        out
    }

    /// Parse the textual format produced by [`ChunkAllocationTable::render`].
    pub fn parse(text: &str) -> Option<Self> {
        let mut extents = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (_label, rest) = line.split_once(") ")?;
            let (start, end) = rest.split_once(',')?;
            let start: u64 = start.trim().parse().ok()?;
            let end: u64 = end.trim().parse().ok()?;
            if end < start {
                return None;
            }
            extents.push(ChunkExtent {
                chunk: extents.len() as u32,
                start,
                end,
            });
        }
        // Validate contiguity.
        let mut expected = 0u64;
        for e in &extents {
            if e.start != expected {
                return None;
            }
            expected = e.end;
        }
        Some(ChunkAllocationTable { extents })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cat() -> ChunkAllocationTable {
        ChunkAllocationTable::from_chunk_sizes(&[
            ByteSize::mb(5),
            ByteSize::mb(20),
            ByteSize::ZERO,
            ByteSize::mb(10),
        ])
    }

    #[test]
    fn push_builds_contiguous_extents() {
        let cat = sample_cat();
        assert_eq!(cat.chunk_count(), 4);
        assert_eq!(cat.file_size(), ByteSize::mb(35));
        let e = cat.extent(1).unwrap();
        assert_eq!(e.start, ByteSize::mb(5).as_u64());
        assert_eq!(e.end, ByteSize::mb(25).as_u64());
        assert!(cat.extent(2).unwrap().is_empty());
    }

    #[test]
    fn offset_lookup_skips_empty_chunks() {
        let cat = sample_cat();
        assert_eq!(cat.chunk_for_offset(0).unwrap().chunk, 0);
        assert_eq!(
            cat.chunk_for_offset(ByteSize::mb(5).as_u64())
                .unwrap()
                .chunk,
            1
        );
        // Offset right at the start of the data held by chunk 3 (after the empty chunk 2).
        assert_eq!(
            cat.chunk_for_offset(ByteSize::mb(25).as_u64())
                .unwrap()
                .chunk,
            3
        );
        // Past the end of the file.
        assert!(cat.chunk_for_offset(ByteSize::mb(35).as_u64()).is_none());
    }

    #[test]
    fn range_lookup_returns_overlapping_chunks() {
        let cat = sample_cat();
        let chunks = cat.chunks_for_range(ByteSize::mb(4).as_u64(), ByteSize::mb(2).as_u64());
        let nums: Vec<u32> = chunks.iter().map(|e| e.chunk).collect();
        assert_eq!(nums, vec![0, 1]);
        // A range entirely inside one chunk.
        let chunks = cat.chunks_for_range(ByteSize::mb(6).as_u64(), ByteSize::mb(1).as_u64());
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].chunk, 1);
        // Empty range.
        assert!(cat.chunks_for_range(0, 0).is_empty());
        // Whole file.
        assert_eq!(cat.chunks_for_range(0, u64::MAX).len(), 3);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let cat = sample_cat();
        let text = cat.render();
        assert!(text.lines().count() == 4);
        let parsed = ChunkAllocationTable::parse(&text).unwrap();
        assert_eq!(parsed, cat);
    }

    #[test]
    fn parse_rejects_non_contiguous_tables() {
        assert!(ChunkAllocationTable::parse("(1) 0,100\n(2) 200,300\n").is_none());
        assert!(ChunkAllocationTable::parse("(1) 100,50\n").is_none());
        assert!(ChunkAllocationTable::parse("garbage").is_none());
        // Empty text parses as an empty CAT.
        assert_eq!(ChunkAllocationTable::parse("").unwrap().chunk_count(), 0);
    }

    #[test]
    fn serialized_size_grows_with_chunks() {
        let cat = sample_cat();
        assert!(cat.serialized_size() > ByteSize::ZERO);
        assert!(cat.serialized_size() < ByteSize::kb(1));
    }

    #[test]
    fn figure3_example_shape() {
        // Mirror the structure of the paper's Figure 3: six chunks, ~100 MB file,
        // chunk #5 empty.
        let cat = ChunkAllocationTable::from_chunk_sizes(&[
            ByteSize::bytes(5_242_880),
            ByteSize::bytes(20_840_448),
            ByteSize::bytes(26_214_400),
            ByteSize::bytes(33_816_576),
            ByteSize::ZERO,
            ByteSize::bytes(18_742_272),
        ]);
        assert_eq!(cat.chunk_count(), 6);
        assert!(cat.extent(4).unwrap().is_empty());
        assert!((cat.file_size().as_mb() - 100.0).abs() < 1.0);
    }
}
