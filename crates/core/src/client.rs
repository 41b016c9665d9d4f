//! The PeerStripe storage system (the paper's contribution).
//!
//! [`PeerStripe`] implements the store/retrieve protocol of Section 4:
//!
//! 1. a file is split into **varying-size chunks**, each sized by what the
//!    prospective target nodes report through `getCapacity` probes (Section 4.3);
//! 2. every chunk is erasure coded into blocks named `file_chunk_ecb`, which the
//!    DHT scatters over independent nodes (Section 4.2);
//! 3. the chunk allocation table is stored (and replicated) under `file.CAT`;
//! 4. placement retries are expressed as zero-sized chunks, bounded by a
//!    consecutive-zero-chunk limit after which the store fails;
//! 5. on node failure, lost blocks are regenerated from the surviving blocks of
//!    their chunk and placed on the inheriting neighbour — or elsewhere if that
//!    neighbour is short on space (the paper's "drop and recreate" policy).
//!
//! Two data paths are provided: the *placement* path used by the large-scale
//! simulations (sizes only, no payload bytes) and the *byte* path used by the
//! examples and integration tests (real chunk payloads run through the real
//! erasure codecs of `peerstripe-erasure`).

use crate::backend::StorageBackend;
use crate::cat::ChunkAllocationTable;
use crate::cluster::StorageCluster;
use crate::metrics::StoreMetrics;
use crate::naming::ObjectName;
use crate::planner::{self, Damage, Verdict};
use crate::policy::CodingPolicy;
use crate::system::{
    BlockPlacement, ChunkPlacement, FileManifest, ManifestStore, StorageSystem, StoreOutcome,
};
use peerstripe_erasure::{DecodeError, EncodedBlock, ErasureCode};
use peerstripe_overlay::{Id, NodeRef, Takeover};
use peerstripe_placement::{OverlayRandom, PlacementStrategy, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::FileRecord;
use std::ops::Range;
use std::sync::Arc;

/// Total number of CAT copies kept: the primary at the CAT key's root and a
/// replica on its closest leaf-set neighbour (Section 4.4).
const CAT_REPLICAS: usize = 2;

/// Configuration of a PeerStripe instance.  Its default is the Figure 7–9
/// simulations' configuration: no coding, zero-chunk limit 5.
#[derive(Debug, Clone)]
pub struct PeerStripeConfig {
    /// Erasure-coding policy applied per chunk.
    pub coding: CodingPolicy,
    /// Maximum number of consecutive zero-sized chunks before a store fails
    /// (the paper's simulations use 5).
    pub zero_chunk_limit: u32,
    /// Optional upper bound on chunk size (the Section 4.5 trade-off knob).
    pub max_chunk_size: Option<ByteSize>,
    /// Whether to record per-file manifests (needed for availability/recovery
    /// experiments and for retrieval; disabled to bound memory in huge sweeps).
    pub track_manifests: bool,
    /// Number of source blocks per chunk the byte-level data path's Null, XOR
    /// and online codecs cut a chunk into (XOR rounds up to a multiple of its
    /// group).  Reed–Solomon ignores it and codes at the policy's native
    /// `(data, parity)`: one codec row per placed block.
    pub data_path_blocks: usize,
}

impl Default for PeerStripeConfig {
    fn default() -> Self {
        PeerStripeConfig {
            coding: CodingPolicy::None,
            zero_chunk_limit: 5,
            max_chunk_size: None,
            track_manifests: true,
            data_path_blocks: 16,
        }
    }
}

impl PeerStripeConfig {
    /// Use the given coding policy.
    pub fn with_coding(mut self, coding: CodingPolicy) -> Self {
        self.coding = coding;
        self
    }
}

/// Outcome of regenerating the blocks lost with a failed node (Section 4.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Number of encoded blocks regenerated.
    pub blocks_regenerated: u64,
    /// Bytes of encoded blocks regenerated.
    pub bytes_regenerated: ByteSize,
    /// Number of chunks that could not be recovered: too few live holders,
    /// or the blocks fetched from them did not decode.
    pub chunks_lost: u64,
    /// Bytes of user data in unrecoverable chunks.
    pub bytes_lost: ByteSize,
    /// Number of CAT replicas re-created.
    pub cats_replicated: u64,
}

/// The PeerStripe storage system.
///
/// Generic over its [`StorageBackend`]: the in-process [`StorageCluster`]
/// simulator by default (every existing experiment), or `peerstripe-net`'s
/// gateway to drive live `peerstripe-node` daemons over TCP — the store,
/// retrieve, and recovery paths are the same code either way.
pub struct PeerStripe<B: StorageBackend = StorageCluster> {
    backend: B,
    config: PeerStripeConfig,
    manifests: ManifestStore,
    metrics: StoreMetrics,
    placement: Box<dyn PlacementStrategy>,
    topology: Option<Topology>,
    byte_path: BytePath,
}

/// Parity work (bytes of the trailing, redundancy-bearing payloads of a
/// chunk) at and above which the store path encodes those payloads on a
/// scoped worker while the calling thread pushes the leading ones.
const OVERLAP_MIN_BYTES: usize = 1 << 20;

/// What the byte path needs of the coding policy, built once per client.
struct BytePath {
    codec: Box<dyn ErasureCode>,
    /// The codec rows each placed block carries ([`placed_block_of`]
    /// inverted, rows ascending).
    rows_of: Vec<Vec<u32>>,
    /// How many leading placed blocks a healthy read needs — in a systematic
    /// layout the chunk's own bytes; the blocks after them are its redundancy.
    lead: usize,
    /// Whether leading placed block `i` carries source row `i` and nothing
    /// else, for every `i`: the chunk's rows, whole and in order.
    rows_in_order: bool,
}

/// A rebuilt block: its size, and its payload unless it is stored as a size.
type Replacement = (ByteSize, Option<Vec<u8>>);

/// Bytes of the `[count][index][len]` words in front of a payload's first row.
const ROW_HEADER_BYTES: usize = 12;

/// The header of a payload that carries row `index`, `len` bytes long, alone.
fn row_header(index: usize, len: usize) -> [u8; ROW_HEADER_BYTES] {
    let mut header = [0u8; ROW_HEADER_BYTES];
    let words = [1, index as u32, len as u32];
    for (word, value) in header.chunks_exact_mut(4).zip(words) {
        word.copy_from_slice(&value.to_le_bytes());
    }
    header
}

impl BytePath {
    fn new(config: &PeerStripeConfig) -> Self {
        let codec = config.coding.codec(config.data_path_blocks);
        let total = codec.encoded_blocks();
        let mut rows_of = vec![Vec::new(); config.coding.placed_blocks()];
        for index in 0..total {
            if let Some(rows) = rows_of.get_mut(placed_block_of(&config.coding, total, index)) {
                rows.push(index as u32);
            }
        }
        let lead = config.coding.min_blocks_needed().min(rows_of.len());
        BytePath {
            rows_in_order: lead == codec.source_blocks()
                && rows_of[..lead].iter().zip(0u32..).all(|(r, i)| r == &[i]),
            codec,
            lead,
            rows_of,
        }
    }

    /// The row size of `chunk` if a read may land its rows in place: the
    /// layout puts the source rows, one each and in order, in the leading
    /// blocks, and the manifest says those blocks were stored with their
    /// bytes (a size-only block of the placement path is a row's size
    /// without its header).
    fn row_size_in_place(&self, chunk: &ChunkPlacement) -> Option<usize> {
        let block_size = self.codec.block_size(chunk.size.as_u64() as usize);
        let stored = ByteSize::bytes((ROW_HEADER_BYTES + block_size) as u64);
        let rows = chunk.blocks.get(..self.lead)?;
        (self.rows_in_order && rows.iter().all(|b| b.size == stored)).then_some(block_size)
    }

    /// Encode rows `rows_of[i]` of `chunk` straight into `payloads[i]`, in the
    /// [`pack_payload`] format: each payload is allocated once at its exact
    /// size, its `[count][index, len]` headers are written, and the codec
    /// fills the row slots in place.
    fn fill_payloads(&self, chunk: &[u8], rows_of: &[Vec<u32>], payloads: &mut [Vec<u8>]) {
        let block_size = self.codec.block_size(chunk.len());
        let mut rows: Vec<u32> = Vec::new();
        let mut slots: Vec<&mut [u8]> = Vec::new();
        for (block_rows, payload) in rows_of.iter().zip(payloads.iter_mut()) {
            *payload = vec![0u8; 4 + block_rows.len() * (8 + block_size)];
            let (count, records) = payload.split_at_mut(4);
            count.copy_from_slice(&(block_rows.len() as u32).to_le_bytes());
            for (&index, record) in block_rows
                .iter()
                .zip(records.chunks_exact_mut(8 + block_size))
            {
                let (header, slot) = record.split_at_mut(8);
                header[..4].copy_from_slice(&index.to_le_bytes());
                header[4..].copy_from_slice(&(block_size as u32).to_le_bytes());
                rows.push(index);
                slots.push(slot);
            }
        }
        self.codec.encode_rows_into(chunk, &rows, &mut slots);
    }

    /// Encode `chunk` into one payload per placed block and hand each, in
    /// placement order, to `push`; stops at the first refusal.
    ///
    /// When the trailing, redundancy-bearing payloads are `overlap_min_bytes`
    /// or more, one scoped worker computes them while this thread fills (a
    /// bounded copy for a systematic code) and pushes the leading blocks; the
    /// worker is joined before the first trailing block is pushed, and also
    /// when a leading push is refused.
    fn encode_and_push<E>(
        &self,
        chunk: &[u8],
        overlap_min_bytes: usize,
        mut push: impl FnMut(usize, Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (lead_rows, tail_rows) = self.rows_of.split_at(self.lead);
        let tail_bytes =
            tail_rows.iter().map(Vec::len).sum::<usize>() * self.codec.block_size(chunk.len());
        let mut payloads = vec![Vec::new(); self.rows_of.len()];
        let mut push_all = |first: usize, payloads: &mut [Vec<u8>]| {
            payloads
                .iter_mut()
                .enumerate()
                .try_for_each(|(i, p)| push(first + i, std::mem::take(p)))
        };
        if tail_bytes == 0 || tail_bytes < overlap_min_bytes {
            self.fill_payloads(chunk, &self.rows_of, &mut payloads);
            return push_all(0, &mut payloads);
        }
        let (lead_payloads, tail_payloads) = payloads.split_at_mut(self.lead);
        // Leaving the scope joins the worker (and re-raises its panic).
        std::thread::scope(|s| {
            s.spawn(|| self.fill_payloads(chunk, tail_rows, tail_payloads));
            self.fill_payloads(chunk, lead_rows, lead_payloads);
            push_all(0, lead_payloads)
        })?;
        push_all(self.lead, tail_payloads)
    }
}

impl<B: StorageBackend> PeerStripe<B> {
    /// Create a PeerStripe instance over an existing backend, placing blocks
    /// through the classic overlay routing (the paper's behaviour).
    pub fn new(backend: B, config: PeerStripeConfig) -> Self {
        Self::with_placement(backend, config, Box::new(OverlayRandom::new()), None)
    }

    /// Create a PeerStripe instance with an explicit placement strategy and
    /// (optionally) the failure-domain topology it consults.  Domain-aware
    /// strategies cap each chunk at the coding policy's tolerable losses per
    /// domain, and every placed block's domain is recorded in the manifest.
    pub fn with_placement(
        mut backend: B,
        config: PeerStripeConfig,
        placement: Box<dyn PlacementStrategy>,
        topology: Option<Topology>,
    ) -> Self {
        if let Some(topology) = &topology {
            backend.adopt_topology(topology);
        }
        PeerStripe {
            backend,
            byte_path: BytePath::new(&config),
            config,
            manifests: ManifestStore::new(),
            metrics: StoreMetrics::new(),
            placement,
            topology,
        }
    }

    /// The backend this instance drives.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The manifest of a stored file, if manifests are being tracked.
    pub fn manifest(&self, name: &str) -> Option<&FileManifest> {
        self.manifests.get(name)
    }

    /// All manifests (for availability sweeps).
    pub fn manifests(&self) -> &ManifestStore {
        &self.manifests
    }

    /// True if a previously stored file is still retrievable from the backend.
    pub fn is_file_available(&self, name: &str) -> bool {
        self.manifest(name)
            .map(|m| m.is_available(&self.backend))
            .unwrap_or(false)
    }

    /// The instance's configuration.
    pub fn config(&self) -> &PeerStripeConfig {
        &self.config
    }

    /// The failure-domain topology placement consults, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The per-domain block cap placement enforces for each chunk: with a
    /// topology, a single failure domain may never hold more blocks of a
    /// chunk than the coding policy tolerates losing (so losing a whole
    /// domain can never make the chunk unrecoverable).
    pub fn domain_cap(&self) -> usize {
        let coding = &self.config.coding;
        let (placed, needed) = (coding.placed_blocks(), coding.min_blocks_needed());
        planner::domain_cap(self.topology.as_ref(), placed, needed)
    }

    /// Object name for one placed block of a chunk under the current policy.
    fn block_name(&self, file: &str, chunk: u32, ecb: u32) -> ObjectName {
        if matches!(self.config.coding, CodingPolicy::None) && ecb == 0 {
            // Without coding a chunk is stored as a single object named after the
            // chunk itself, exactly as in the Figure 7–9 simulations.
            ObjectName::chunk(file, chunk)
        } else {
            ObjectName::block(file, chunk, ecb)
        }
    }

    /// Select the target nodes of the next chunk's blocks through the
    /// placement strategy and derive the chunk size from their capacity
    /// reports.
    ///
    /// Returns the selected `(name, key, node)` triples and the achievable
    /// chunk size, which is zero when any selected node reports no space — or
    /// when the strategy refuses the chunk outright (e.g. domain-aware
    /// placement cannot satisfy its spread constraint right now).
    fn plan_chunk(
        &mut self,
        file: &str,
        chunk: u32,
        remaining: ByteSize,
    ) -> (Vec<(ObjectName, Id, NodeRef)>, ByteSize) {
        let m = self.config.coding.placed_blocks();
        let names: Vec<ObjectName> = (0..m as u32)
            .map(|ecb| self.block_name(file, chunk, ecb))
            .collect();
        let keys: Vec<Id> = names.iter().map(ObjectName::key).collect();
        let cap = self.domain_cap();
        let Some(picks) =
            self.placement
                .plan_chunk(&mut self.backend, self.topology.as_ref(), &keys, cap)
        else {
            return (Vec::new(), ByteSize::ZERO);
        };
        debug_assert_eq!(picks.len(), names.len());
        let mut min_report = ByteSize(u64::MAX);
        let mut targets = Vec::with_capacity(m);
        for ((name, key), (node, report)) in names.into_iter().zip(keys).zip(picks) {
            min_report = min_report.min(report);
            targets.push((name, key, node));
        }
        let mut chunk_size = self.config.coding.chunk_size_for_report(min_report);
        if let Some(cap) = self.config.max_chunk_size {
            chunk_size = chunk_size.min(cap);
        }
        (targets, chunk_size.min(remaining))
    }

    /// Place the blocks of a chunk on their probed targets; on the byte path
    /// `data` is the chunk's bytes, encoded straight into the payloads that
    /// are pushed.  On any refusal the chunk is rolled back and treated as
    /// zero-sized (the capacity changed between the probe and the store,
    /// Section 4.3).
    fn place_chunk(
        &mut self,
        targets: &[(ObjectName, Id, NodeRef)],
        chunk: u32,
        chunk_size: ByteSize,
        data: Option<&[u8]>,
    ) -> Option<ChunkPlacement> {
        let block_size = self.config.coding.block_size(chunk_size);
        let mut placed: Vec<BlockPlacement> = Vec::with_capacity(targets.len());
        let (backend, topology) = (&mut self.backend, &self.topology);
        let mut push = |position: usize, payload: Option<Vec<u8>>| -> Result<(), ()> {
            let (name, key, node) = targets.get(position).ok_or(())?;
            let size = match &payload {
                Some(p) => ByteSize::bytes(p.len() as u64),
                None => block_size,
            };
            backend
                .store_block(*node, *key, name.clone(), size, payload)
                .map_err(|_| ())?;
            placed.push(BlockPlacement {
                name: name.clone(),
                node: *node,
                size,
                domain: topology.as_ref().and_then(|t| t.domain_of(*node)),
            });
            Ok(())
        };
        let outcome = match data {
            Some(bytes) => {
                self.byte_path
                    .encode_and_push(bytes, OVERLAP_MIN_BYTES, |position, payload| {
                        push(position, Some(payload))
                    })
            }
            None => (0..targets.len()).try_for_each(|position| push(position, None)),
        };
        if outcome.is_err() {
            // Roll back the blocks already placed for this chunk.
            for b in &placed {
                self.backend.rollback_block(b.node, &b.name, b.size);
            }
            return None;
        }
        Some(ChunkPlacement {
            chunk,
            size: chunk_size,
            blocks: placed,
            min_blocks_needed: self.config.coding.min_blocks_needed(),
        })
    }

    /// Roll back every block of a partially stored file.
    fn rollback(&mut self, chunks: &[ChunkPlacement]) {
        for c in chunks {
            for b in &c.blocks {
                self.backend.rollback_block(b.node, &b.name, b.size);
            }
        }
    }

    /// Store the CAT object and its replicas; returns the nodes holding copies.
    fn store_cat(&mut self, file: &str, cat: &ChunkAllocationTable) -> Vec<NodeRef> {
        let name = ObjectName::cat(file);
        let key = name.key();
        let size = cat.serialized_size();
        let mut nodes = Vec::new();
        // Primary copy at the key's root, replicas on the numerically closest
        // neighbours (the leaf-set replication of Section 4.4).
        let targets = self.backend.replica_targets(key, CAT_REPLICAS);
        for (i, (_, node)) in targets.into_iter().enumerate() {
            // Each copy is an independent object so per-node keys stay unique;
            // only the primary charge a lookup (the replicas ride the leaf set).
            if i == 0 {
                let _ = self.backend.route_lookup(key);
            }
            if self
                .backend
                .store_block(
                    node,
                    ObjectName::cat(format!("{file}#r{i}")).key(),
                    name.clone(),
                    size,
                    None,
                )
                .is_ok()
            {
                nodes.push(node);
            }
        }
        nodes
    }

    /// Core store loop shared by the placement path and the byte path.
    fn store_internal(&mut self, file: &FileRecord, data: Option<&[u8]>) -> StoreOutcome {
        let mut remaining = file.size;
        let mut offset: u64 = 0;
        let mut chunk_no: u32 = 0;
        let mut consecutive_zero: u32 = 0;
        let mut chunk_sizes: Vec<ByteSize> = Vec::new();
        let mut placements: Vec<ChunkPlacement> = Vec::new();
        let mut placed_bytes = ByteSize::ZERO;

        while !remaining.is_zero() {
            if consecutive_zero > self.config.zero_chunk_limit {
                self.rollback(&placements);
                self.metrics.record_failure(file.size);
                return StoreOutcome::Failed {
                    reason: format!(
                        "exceeded {} consecutive zero-sized chunks at chunk {}",
                        self.config.zero_chunk_limit, chunk_no
                    ),
                };
            }
            let (targets, chunk_size) = self.plan_chunk(&file.name, chunk_no, remaining);
            if chunk_size.is_zero() || targets.is_empty() {
                chunk_sizes.push(ByteSize::ZERO);
                placements.push(ChunkPlacement {
                    chunk: chunk_no,
                    size: ByteSize::ZERO,
                    blocks: Vec::new(),
                    min_blocks_needed: self.config.coding.min_blocks_needed(),
                });
                consecutive_zero += 1;
                chunk_no += 1;
                continue;
            }
            // Byte path: cut the actual chunk payload.
            let chunk_data = data.map(|bytes| {
                let start = offset as usize;
                let end = (offset + chunk_size.as_u64()) as usize;
                &bytes[start..end.min(bytes.len())]
            });
            match self.place_chunk(&targets, chunk_no, chunk_size, chunk_data) {
                Some(placement) => {
                    placed_bytes += placement.blocks.iter().map(|b| b.size).sum();
                    chunk_sizes.push(chunk_size);
                    placements.push(placement);
                    remaining -= chunk_size;
                    offset += chunk_size.as_u64();
                    consecutive_zero = 0;
                    chunk_no += 1;
                }
                None => {
                    chunk_sizes.push(ByteSize::ZERO);
                    placements.push(ChunkPlacement {
                        chunk: chunk_no,
                        size: ByteSize::ZERO,
                        blocks: Vec::new(),
                        min_blocks_needed: self.config.coding.min_blocks_needed(),
                    });
                    consecutive_zero += 1;
                    chunk_no += 1;
                }
            }
        }

        let cat = ChunkAllocationTable::from_chunk_sizes(&chunk_sizes);
        let cat_nodes = self.store_cat(&file.name, &cat);
        placed_bytes += cat.serialized_size() * cat_nodes.len() as u64;
        self.metrics
            .record_success(file.size, &chunk_sizes, placed_bytes);
        if self.config.track_manifests {
            self.manifests.insert(FileManifest {
                name: file.name.clone(),
                size: file.size,
                chunks: placements,
                cat_nodes,
            });
        }
        StoreOutcome::Stored
    }

    /// Store real bytes under a name; the returned outcome mirrors [`StorageSystem::store_file`].
    pub fn store_data(&mut self, name: &str, data: &[u8]) -> StoreOutcome {
        let record = FileRecord::new(name, ByteSize::bytes(data.len() as u64));
        self.store_internal(&record, Some(data))
    }

    /// Retrieve the full contents of a file previously stored with
    /// [`PeerStripe::store_data`], decoding chunks from whatever blocks survive.
    pub fn retrieve_data(&self, name: &str) -> Option<Vec<u8>> {
        let size = self.manifest(name)?.size;
        self.retrieve_range_data(name, 0, size.as_u64())
    }

    /// Retrieve a byte range `[offset, offset + len)` of a stored file,
    /// clamped to the file's end.
    ///
    /// Only the chunks overlapping the range are touched (Section 4.1: partial
    /// access retrieves only the chunks containing the requested portion).
    pub fn retrieve_range_data(&self, name: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
        let manifest = self.manifest(name)?;
        let end = offset.saturating_add(len).min(manifest.size.as_u64());
        if offset >= end {
            return Some(Vec::new());
        }
        // Allocated once and never grown: rows land whole, so a chunk's last
        // row may bring padding — fewer bytes than the chunk has rows, cut
        // off before the next chunk lands.
        let padding = self.byte_path.codec.source_blocks();
        let mut out = Vec::with_capacity((end - offset) as usize + padding);
        let mut chunk_start: u64 = 0;
        for chunk in &manifest.chunks {
            let chunk_end = chunk_start + chunk.size.as_u64();
            if !chunk.size.is_zero() && chunk_end > offset && chunk_start < end {
                let lo = offset.saturating_sub(chunk_start) as usize;
                let hi = (end.min(chunk_end) - chunk_start) as usize;
                // A read has no bytes to give for an undecodable chunk, nor
                // for a metadata-only one.
                if !self.read_chunk_into(chunk, lo..hi, &mut out).ok()? {
                    return None;
                }
            }
            chunk_start = chunk_end;
        }
        Some(out)
    }

    /// The one chunk reader: append bytes `range` (non-empty) of `chunk` to
    /// `out`, fetching in manifest order and no block twice.
    ///
    /// Where the layout allows ([`BytePath::row_size_in_place`]) only the
    /// rows the range overlaps are fetched, each landing where it is read
    /// ([`Self::land_rows`]); any other chunk is fetched and decoded whole
    /// ([`Self::decode_whole`]).  A whole chunk is written straight into
    /// `out`, which then needs spare room for the chunk and its last row's
    /// padding to stay where it is; part of one is cut out of a buffer of
    /// its own.
    ///
    /// `Ok(false)` is the metadata-only path and nothing else: holders answer
    /// and none of them carries a payload.  A chunk whose fetched blocks do
    /// not decode, or none of whose holders answers (an untracked simulator
    /// cluster answers for no object), is the decode error.  Either way
    /// `out` is as it was.
    fn read_chunk_into(
        &self,
        chunk: &ChunkPlacement,
        range: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<bool, DecodeError> {
        let land = |dst: &mut Vec<u8>| match self.byte_path.row_size_in_place(chunk) {
            Some(block_size) => self.land_rows(chunk, block_size, &range, dst).map(Some),
            None => Ok(self.decode_whole(chunk, dst)?.then_some(range.start)),
        };
        if range.len() as u64 == chunk.size.as_u64() {
            let base = out.len();
            let landed = land(out)?.is_some();
            out.truncate(base + if landed { range.len() } else { 0 });
            return Ok(landed);
        }
        let mut aside = Vec::new();
        let Some(skip) = land(&mut aside)? else {
            return Ok(false);
        };
        out.extend_from_slice(&aside[skip..skip + range.len()]);
        Ok(true)
    }

    /// Append to `dst` the rows of `chunk`, `block_size` bytes each, that
    /// `range` overlaps, and return how many of the appended bytes precede
    /// `range.start`.
    ///
    /// Each row is fetched into its place.  A miss — a dead or absent holder,
    /// a block that is not that row alone — leaves a hole and the remaining
    /// rows still land in place; then just as many of the chunk's other
    /// blocks are fetched as make up `min_blocks_needed`, and the holes are
    /// rebuilt where they are.  On an error `dst` is as it was.
    fn land_rows(
        &self,
        chunk: &ChunkPlacement,
        block_size: usize,
        range: &Range<usize>,
        dst: &mut Vec<u8>,
    ) -> Result<usize, DecodeError> {
        let base = dst.len();
        let (first, last) = (range.start / block_size, (range.end - 1) / block_size);
        let wanted = last + 1 - first;
        dst.reserve(wanted * block_size);
        let mut holes = Vec::new();
        for row in first..=last {
            // Zeros under the holes so far: the next row lands behind them.
            dst.resize(base + (row - first) * block_size, 0);
            let block = &chunk.blocks[row];
            let mut head = [0u8; ROW_HEADER_BYTES];
            let fetched = self
                .backend
                .fetch_block_into(block.node, &block.name, &mut head, dst);
            let end = base + (row + 1 - first) * block_size;
            if fetched.is_err() || head != row_header(row, block_size) || dst.len() != end {
                dst.truncate(end - block_size);
                holes.push(row);
            }
        }
        if !holes.is_empty() {
            dst.resize(base + wanted * block_size, 0);
            let short = (chunk.min_blocks_needed + holes.len()).saturating_sub(wanted);
            let unasked = chunk.blocks[..first]
                .iter()
                .chain(&chunk.blocks[last + 1..]);
            let mut others: Vec<Arc<Vec<u8>>> = Vec::with_capacity(short);
            for block in unasked {
                if others.len() == short {
                    break;
                }
                let fetched = self.backend.fetch_block(block.node, &block.name);
                others.extend(fetched.and_then(|object| object.payload));
            }
            let views: Vec<_> = others.iter().flat_map(|p| unpack_payload(p)).collect();
            let codec = &self.byte_path.codec;
            let rebuilt = codec.rebuild_rows(first, &mut dst[base..], block_size, &holes, &views);
            if let Err(e) = rebuilt {
                dst.truncate(base);
                return Err(e);
            }
        }
        Ok(range.start - first * block_size)
    }

    /// Append all of `chunk` to `dst`, whatever its layout: fetch only as
    /// many payload-bearing blocks as the chunk needs, decode, and — only if
    /// the decoder says that was not enough — go on to every remaining block.
    /// `Ok(false)` when holders answer and none carries a payload; `dst` is
    /// then, and on an error, as it was.
    fn decode_whole(&self, chunk: &ChunkPlacement, dst: &mut Vec<u8>) -> Result<bool, DecodeError> {
        let base = dst.len();
        let mut holders = chunk.blocks.iter();
        let mut payloads: Vec<Arc<Vec<u8>>> = Vec::new();
        let mut answered = false;
        let mut want = chunk.min_blocks_needed;
        loop {
            while payloads.len() < want {
                let Some(b) = holders.next() else { break };
                let fetched = self.backend.fetch_block(b.node, &b.name);
                answered |= fetched.is_some();
                payloads.extend(fetched.and_then(|obj| obj.payload));
            }
            if payloads.is_empty() {
                // Every holder has been asked by now.
                return if answered {
                    Ok(false)
                } else {
                    Err(DecodeError::NotEnoughBlocks {
                        have: 0,
                        need: chunk.min_blocks_needed,
                    })
                };
            }
            let views: Vec<_> = payloads.iter().flat_map(|p| unpack_payload(p)).collect();
            dst.resize(base + chunk.size.as_u64() as usize, 0);
            match self.byte_path.codec.decode_into(&views, &mut dst[base..]) {
                Ok(()) => return Ok(true),
                Err(DecodeError::NotEnoughBlocks { .. } | DecodeError::Unrecoverable { .. })
                    if holders.len() > 0 =>
                {
                    want = usize::MAX;
                }
                Err(e) => {
                    dst.truncate(base);
                    return Err(e);
                }
            }
        }
    }

    /// One replacement for each lost block at positions `lost` of `chunk`'s
    /// block list — its size, and its payload unless the chunk was stored as
    /// sizes (holders answer, none carries bytes) — from one read of the
    /// chunk: each payload re-encodes exactly the codec blocks the lost
    /// placement carried.  A chunk the survivors do not decode is the error
    /// [`Self::read_chunk_into`] gives, never a payload-less replacement.
    fn rebuild_blocks(
        &self,
        chunk: &ChunkPlacement,
        lost: &[usize],
    ) -> Result<Vec<Replacement>, DecodeError> {
        let mut bytes = Vec::new();
        if !self.read_chunk_into(chunk, 0..chunk.size.as_u64() as usize, &mut bytes)? {
            return Ok(lost.iter().map(|&p| (chunk.blocks[p].size, None)).collect());
        }
        let rows_of = |&p: &usize| {
            let rows = self.byte_path.rows_of.get(p).cloned();
            rows.ok_or(DecodeError::CorruptBlock { index: p as u32 })
        };
        let rows = lost.iter().map(rows_of).collect::<Result<Vec<_>, _>>()?;
        let mut payloads = vec![Vec::new(); lost.len()];
        self.byte_path.fill_payloads(&bytes, &rows, &mut payloads);
        let sized = |p: Vec<u8>| (ByteSize::bytes(p.len() as u64), Some(p));
        Ok(payloads.into_iter().map(sized).collect())
    }

    /// Handle the failure of a node: regenerate the encoded blocks it held from
    /// the surviving blocks of each affected chunk (Section 4.4).
    ///
    /// Which chunks can be rebuilt and where their blocks may go is the
    /// planner's decision ([`crate::planner`]); the bytes are this function's.
    /// Regenerated blocks get a fresh ECB number (the paper notes the recreated
    /// block "may not be exactly the same … but it is functionally equal") and
    /// the takeover inheritors of their keys are offered as preferred targets,
    /// with normal placement as the fall-back ("drop and recreate elsewhere").
    ///
    /// A chunk that has enough live holders but whose blocks cannot be fetched
    /// and decoded is not repaired: nothing is stored for it, its manifest
    /// entry stays as it was, and it is counted once in `chunks_lost` /
    /// `bytes_lost`, like a chunk with too few live holders.
    pub fn handle_node_failure(&mut self, failed: NodeRef, takeover: &Takeover) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut damaged: Vec<(String, usize)> = Vec::new();
        let mut cat_repairs: Vec<String> = Vec::new();
        for manifest in self.manifests.iter() {
            if manifest.cat_nodes.contains(&failed) {
                cat_repairs.push(manifest.name.clone());
            }
            for (index, chunk) in manifest.chunks.iter().enumerate() {
                if chunk.blocks_on(failed).next().is_some() {
                    damaged.push((manifest.name.clone(), index));
                }
            }
        }

        for (file, index) in damaged {
            let Some(chunk) = self.manifests.get(&file).map(|m| &m.chunks[index]) else {
                continue;
            };
            let lost: Vec<usize> = (0..chunk.blocks.len())
                .filter(|&position| chunk.blocks[position].node == failed)
                .collect();
            let mut damage = Damage::of_placement(chunk, failed);
            let rebuilt = match damage.verdict(&self.backend) {
                Verdict::Rebuild => self.rebuild_blocks(chunk, &lost).ok(),
                Verdict::WriteOff | Verdict::Defer => None,
            };
            let Some(replacements) = rebuilt else {
                report.chunks_lost += 1;
                report.bytes_lost += chunk.size;
                continue;
            };
            let largest = replacements.iter().map(|(size, _)| *size).max();
            damage.block_size = largest.unwrap_or(ByteSize::ZERO);
            let next_ecb = chunk
                .blocks
                .iter()
                .map(|b| match &b.name {
                    ObjectName::Block { ecb, .. } => *ecb + 1,
                    _ => 1,
                })
                .max()
                .unwrap_or(0)
                .max(self.config.coding.placed_blocks() as u32);
            let names: Vec<ObjectName> = (next_ecb..)
                .take(lost.len())
                .map(|ecb| ObjectName::block(file.clone(), chunk.chunk, ecb))
                .collect();
            let inheritors: Vec<NodeRef> = names
                .iter()
                .map(|name| takeover.inheritor_of(name.key()).1)
                .collect();
            // Inheritors are taken in name order, so whatever is left to draw
            // for includes the newest name: its key seeds the draws.
            let newest = names.last().map_or(0, |name| name.key().seed());
            let mut rng = DetRng::new(newest);
            let (strategy, topology) = (self.placement.as_mut(), self.topology.as_ref());
            let view = &self.backend;
            let targets =
                damage.targets(strategy, topology, view, lost.len(), &inheritors, &mut rng);

            let mut replaced: Vec<(usize, BlockPlacement)> = Vec::new();
            for (((position, name), (size, payload)), node) in
                lost.into_iter().zip(names).zip(replacements).zip(targets)
            {
                let beside = damage.holders.iter().copied();
                let stored = planner::commit(&mut self.backend, beside, node, |backend| {
                    let stored = backend.store_block(node, name.key(), name.clone(), size, payload);
                    stored.is_ok()
                });
                if stored {
                    report.blocks_regenerated += 1;
                    report.bytes_regenerated += size;
                    let domain = self.topology.as_ref().and_then(|t| t.domain_of(node));
                    let block = BlockPlacement {
                        name,
                        node,
                        size,
                        domain,
                    };
                    replaced.push((position, block));
                }
            }
            if let Some(m) = self.manifests.get_mut(&file) {
                // A replacement takes the lost block's place, so a chunk's
                // block list keeps its layout order.
                for (position, block) in replaced {
                    m.chunks[index].blocks[position] = block;
                }
            }
        }

        for file in cat_repairs {
            let cat_key = ObjectName::cat(&file).key();
            let candidates = self.backend.replica_targets(cat_key, CAT_REPLICAS + 1);
            if let Some(m) = self.manifests.get_mut(&file) {
                m.cat_nodes.retain(|n| *n != failed);
                for (_, node) in candidates {
                    if !m.cat_nodes.contains(&node) {
                        m.cat_nodes.push(node);
                        report.cats_replicated += 1;
                        break;
                    }
                }
            }
        }
        report
    }

    /// Reconstruct a file's CAT by probing chunk objects in order (Section 4.4:
    /// the CAT "can be re-created … by incrementally looking up chunks of a file
    /// and determining their size"), stopping after the configured number of
    /// consecutive misses.
    pub fn reconstruct_cat(&mut self, file: &str) -> ChunkAllocationTable {
        let mut sizes = Vec::new();
        let mut consecutive_missing = 0u32;
        let mut chunk_no = 0u32;
        while consecutive_missing <= self.config.zero_chunk_limit {
            let name = self.block_name(file, chunk_no, 0);
            let found = self
                .backend
                .route_lookup(name.key())
                .and_then(|node| self.backend.fetch_block(node, &name).map(|o| o.size));
            // With coding, the probed block holds only one of the chunk's placed
            // blocks; scale back up to the chunk's data size.
            match found {
                Some(block_size) => {
                    let chunk_size = if matches!(self.config.coding, CodingPolicy::None) {
                        block_size
                    } else {
                        ByteSize::bytes(
                            (block_size.as_u64() as f64 * self.config.coding.placed_blocks() as f64
                                / self.config.coding.storage_overhead())
                            .round() as u64,
                        )
                    };
                    sizes.push(chunk_size);
                    consecutive_missing = 0;
                }
                None => {
                    sizes.push(ByteSize::ZERO);
                    consecutive_missing += 1;
                }
            }
            chunk_no += 1;
        }
        // Trim the trailing run of misses that terminated the probe.
        while sizes.last().is_some_and(|s| s.is_zero()) {
            sizes.pop();
        }
        ChunkAllocationTable::from_chunk_sizes(&sizes)
    }
}

/// The position, in a chunk's block list, of the placed block that carries
/// codec block `index` of `codec_blocks` — the one definition of the on-node
/// layout, shared by the store path and by repair.
///
/// The layout preserves the policy's failure tolerance and keeps reads short:
/// Reed–Solomon codes at its native geometry, one row per placed block, so
/// the first `data` placed blocks are the chunk's own bytes in order; XOR
/// sends each parity group's members to distinct
/// positions and every parity block to the last one (losing one position
/// loses at most one block per group, and the leading positions hold all the
/// data); other policies deal round-robin.
fn placed_block_of(policy: &CodingPolicy, codec_blocks: usize, index: usize) -> usize {
    let placed = policy.placed_blocks();
    match *policy {
        CodingPolicy::Xor { group } => {
            // The codec numbers data blocks 0..n and parity blocks n.. .
            let n = codec_blocks * group / (group + 1);
            if index < n {
                index % group
            } else {
                group
            }
        }
        CodingPolicy::ReedSolomon { .. } => index,
        _ => index % placed,
    }
}

/// Serialise a group of encoded blocks into one payload: `[count][index, len, bytes]*`.
///
/// This is the on-node payload format of every block object PeerStripe places.
/// The store and repair paths write it in place (`BytePath::fill_payloads`);
/// this is the reference they are tested against.
pub fn pack_payload(blocks: &[EncodedBlock]) -> Vec<u8> {
    let bytes: usize = blocks.iter().map(|b| 8 + b.data.len()).sum();
    let mut out = Vec::with_capacity(4 + bytes);
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.index.to_le_bytes());
        out.extend_from_slice(&(b.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&b.data);
    }
    out
}

/// Inverse of [`pack_payload`]: borrowed `(index, bytes)` views of the codec
/// blocks in `payload`.  A payload cut short yields the blocks that are whole.
pub fn unpack_payload(payload: &[u8]) -> Vec<(u32, &[u8])> {
    let Some((count, mut rest)) = split_u32(payload) else {
        return Vec::new();
    };
    let records = std::iter::from_fn(|| {
        let (index, after) = split_u32(rest)?;
        let (len, after) = split_u32(after)?;
        let (data, after) = after.split_at_checked(len as usize)?;
        rest = after;
        Some((index, data))
    });
    records.take(count as usize).collect()
}

/// Split a little-endian `u32` off the front of `bytes`.
fn split_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

impl PeerStripe<StorageCluster> {
    /// Consume the system and return its cluster (for re-use between phases).
    pub fn into_cluster(self) -> StorageCluster {
        self.backend
    }
}

impl StorageSystem for PeerStripe<StorageCluster> {
    fn name(&self) -> &str {
        "Our System"
    }

    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        self.store_internal(file, None)
    }

    fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    fn cluster(&self) -> &StorageCluster {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::CapacityModel;

    fn cluster(nodes: usize, capacity: ByteSize, seed: u64) -> StorageCluster {
        let mut rng = DetRng::new(seed);
        ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(capacity),
            track_objects: true,
        }
        .build(&mut rng)
    }

    fn system(nodes: usize, capacity: ByteSize, seed: u64) -> PeerStripe {
        PeerStripe::new(cluster(nodes, capacity, seed), PeerStripeConfig::default())
    }

    #[test]
    fn stores_files_larger_than_any_single_node() {
        // 50 nodes × 1 GB each; a 10 GB file cannot fit on any one node but fits
        // in the aggregate — the headline capability of the paper.
        let mut ps = system(50, ByteSize::gb(1), 1);
        let file = FileRecord::new("huge-dataset", ByteSize::gb(10));
        assert!(ps.store_file(&file).is_stored());
        let manifest = ps.manifest("huge-dataset").unwrap();
        assert!(manifest.chunks.iter().filter(|c| !c.size.is_zero()).count() >= 10);
        let total: ByteSize = manifest.chunks.iter().map(|c| c.size).sum();
        assert_eq!(total, ByteSize::gb(10));
        assert!(ps.is_file_available("huge-dataset"));
        assert_eq!(ps.metrics().files_failed, 0);
    }

    #[test]
    fn chunk_sizes_follow_reported_capacity() {
        let mut ps = system(20, ByteSize::mb(500), 2);
        let file = FileRecord::new("data", ByteSize::gb(2));
        assert!(ps.store_file(&file).is_stored());
        let manifest = ps.manifest("data").unwrap();
        for c in &manifest.chunks {
            assert!(
                c.size <= ByteSize::mb(500),
                "chunk {} exceeds node capacity",
                c.chunk
            );
        }
    }

    #[test]
    fn store_fails_when_system_is_full() {
        // 4 nodes × 100 MB: a 1 GB file can never fit, so its store must fail —
        // and must not leak partially placed chunks.
        let mut ps = system(4, ByteSize::mb(100), 3);
        let used_before = ps.cluster().total_used();
        let outcome = ps.store_file(&FileRecord::new("b", ByteSize::gb(1)));
        assert!(!outcome.is_stored());
        assert_eq!(ps.metrics().files_failed, 1);
        assert!(ps.metrics().failed_store_pct() > 0.0);
        assert!(ps.manifest("b").is_none());
        assert_eq!(
            ps.cluster().total_used(),
            used_before,
            "rollback must free partial chunks"
        );
    }

    #[test]
    fn zero_chunk_limit_bounds_retries() {
        let mut ps = PeerStripe::new(
            cluster(4, ByteSize::mb(10), 4),
            PeerStripeConfig {
                zero_chunk_limit: 2,
                ..PeerStripeConfig::default()
            },
        );
        let outcome = ps.store_file(&FileRecord::new("big", ByteSize::gb(1)));
        match outcome {
            StoreOutcome::Failed { reason } => assert!(reason.contains("zero-sized")),
            StoreOutcome::Stored => panic!("store should have failed"),
        }
    }

    #[test]
    fn cat_is_replicated() {
        let mut ps = system(30, ByteSize::gb(1), 5);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let manifest = ps.manifest("f").unwrap();
        assert_eq!(manifest.cat_nodes.len(), CAT_REPLICAS);
        let unique: std::collections::BTreeSet<_> = manifest.cat_nodes.iter().collect();
        assert_eq!(
            unique.len(),
            manifest.cat_nodes.len(),
            "replicas on distinct nodes"
        );
    }

    #[test]
    fn erasure_coding_places_multiple_blocks_per_chunk() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::gb(1), 6),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        assert!(ps
            .store_file(&FileRecord::new("img", ByteSize::mb(600)))
            .is_stored());
        let manifest = ps.manifest("img").unwrap();
        for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
            assert_eq!(chunk.blocks.len(), 3);
            assert_eq!(chunk.min_blocks_needed, 2);
        }
        // Redundancy inflates placed bytes by ~50%.
        let placed = ps.metrics().bytes_placed.as_u64() as f64;
        let stored = ps.metrics().bytes_stored.as_u64() as f64;
        assert!(placed / stored > 1.4, "placed/stored = {}", placed / stored);
    }

    #[test]
    fn availability_degrades_only_past_coding_tolerance() {
        let mut ps = PeerStripe::new(
            cluster(60, ByteSize::gb(1), 7),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(400)))
            .is_stored());
        // Fail one node holding a block of some chunk: file must stay available.
        let victim = ps.manifest("f").unwrap().chunks[0].blocks[0].node;
        let takeover = ps.backend_mut().fail_node(victim).unwrap();
        assert!(ps.is_file_available("f"));
        // Regenerate, then fail another block of the same chunk: still available.
        let report = ps.handle_node_failure(victim, &takeover);
        assert!(report.blocks_regenerated > 0);
        assert_eq!(report.chunks_lost, 0);
    }

    #[test]
    fn recovery_regenerates_lost_blocks_elsewhere() {
        let mut ps = PeerStripe::new(
            cluster(30, ByteSize::gb(1), 8),
            PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
        );
        assert!(ps
            .store_file(&FileRecord::new("d", ByteSize::mb(300)))
            .is_stored());
        let victim = ps.manifest("d").unwrap().chunks[0].blocks[0].node;
        let lost_blocks: usize = ps
            .manifest("d")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.blocks_on(victim).count())
            .sum();
        let takeover = ps.backend_mut().fail_node(victim).unwrap();
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.blocks_regenerated as usize, lost_blocks);
        // After recovery no manifest block references the failed node.
        assert!(ps
            .manifest("d")
            .unwrap()
            .all_blocks()
            .all(|b| b.node != victim));
        assert!(ps.is_file_available("d"));
    }

    #[test]
    fn byte_path_round_trips_data() {
        let mut ps = system(25, ByteSize::mb(200), 9);
        let mut rng = DetRng::new(99);
        let data: Vec<u8> = (0..600_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("blob", &data).is_stored());
        assert_eq!(ps.retrieve_data("blob").unwrap(), data);
        // Range read.
        assert_eq!(
            ps.retrieve_range_data("blob", 1000, 5000).unwrap(),
            data[1000..6000].to_vec()
        );
        // Reads past the end clamp.
        assert_eq!(
            ps.retrieve_range_data("blob", 599_000, 10_000).unwrap(),
            data[599_000..].to_vec()
        );
        assert_eq!(
            ps.retrieve_range_data("blob", 0, 0).unwrap(),
            Vec::<u8>::new()
        );
        assert!(ps.retrieve_data("missing").is_none());
    }

    #[test]
    fn a_range_to_the_end_may_spell_its_length_as_far_as_it_likes() {
        // `offset + len` past `u64::MAX` is a range that ends with the file.
        let mut ps = system(25, ByteSize::mb(200), 9);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert!(ps.store_data("blob", &data).is_stored());
        for offset in [0usize, 1, 9_999] {
            assert_eq!(
                ps.retrieve_range_data("blob", offset as u64, u64::MAX),
                Some(data[offset..].to_vec())
            );
        }
        let past = ps.retrieve_range_data("blob", u64::MAX, u64::MAX);
        assert_eq!(past, Some(Vec::new()));
    }

    #[test]
    fn byte_path_survives_tolerable_failures_with_coding() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::mb(200), 10),
            PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
        );
        let mut rng = DetRng::new(5);
        let data: Vec<u8> = (0..200_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("img", &data).is_stored());
        // Fail one block-holding node per chunk's tolerance.
        let victim = ps.manifest("img").unwrap().chunks[0].blocks[2].node;
        ps.backend_mut().fail_node(victim);
        assert_eq!(ps.retrieve_data("img").unwrap(), data);
    }

    #[test]
    fn byte_path_round_trips_and_recovers_with_reed_solomon() {
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::mb(200), 21),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
        );
        let mut rng = DetRng::new(6);
        let data: Vec<u8> = (0..300_000).map(|_| rng.next_u32() as u8).collect();
        assert!(ps.store_data("volume", &data).is_stored());
        // Every chunk is placed as 6 block objects of which any 4 suffice.
        for chunk in ps.manifest("volume").unwrap().chunks.iter() {
            assert_eq!(chunk.blocks.len(), 6);
            assert_eq!(chunk.min_blocks_needed, 4);
        }
        // Fail a block-holding node: the payload reads back bit-for-bit and
        // recovery regenerates exactly the lost blocks.
        let victim = ps.manifest("volume").unwrap().chunks[0].blocks[0].node;
        let lost: usize = ps
            .manifest("volume")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.blocks_on(victim).count())
            .sum();
        let takeover = ps.backend_mut().fail_node(victim).unwrap();
        assert_eq!(ps.retrieve_data("volume").unwrap(), data);
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.blocks_regenerated as usize, lost);
        assert_eq!(report.chunks_lost, 0);
        assert_eq!(ps.retrieve_data("volume").unwrap(), data);
        assert!(ps.is_file_available("volume"));
    }

    #[test]
    fn payloads_unpack_to_borrowed_views_and_tolerate_truncation() {
        let blocks = vec![
            EncodedBlock::new(3, vec![1, 2, 3]),
            EncodedBlock::new(9, vec![]),
            EncodedBlock::new(4, vec![7; 5]),
        ];
        let packed = pack_payload(&blocks);
        let views = unpack_payload(&packed);
        let want: Vec<_> = blocks.iter().map(EncodedBlock::view).collect();
        assert_eq!(views, want);
        // Any prefix yields a prefix of the blocks: whole ones only.
        for cut in 0..packed.len() {
            let got = unpack_payload(&packed[..cut]);
            assert_eq!(got, want[..got.len()], "cut at {cut}");
        }
        // A count far beyond the bytes present is just an empty payload.
        assert!(unpack_payload(&u32::MAX.to_le_bytes()).is_empty());
    }

    #[test]
    fn leading_placed_blocks_carry_the_source_rows() {
        for policy in [
            CodingPolicy::xor_2_3(),
            CodingPolicy::rs_default(),
            CodingPolicy::ReedSolomon { data: 5, parity: 3 },
        ] {
            let codec = policy.codec(16);
            let total = codec.encoded_blocks();
            let position = |i| placed_block_of(&policy, total, i);
            assert!((0..total).all(|i| position(i) < policy.placed_blocks()));
            assert!(
                (0..codec.source_blocks()).all(|i| position(i) < policy.min_blocks_needed()),
                "{}: a healthy read of the first blocks needs no decoding",
                policy.label()
            );
        }
        // Whether a read may land rows in place is read off the same table:
        // Reed–Solomon's leading blocks are the source rows, one each and in
        // order; XOR and the rest deal several rows to a block.
        for (policy, in_order) in [
            (CodingPolicy::rs_default(), true),
            (CodingPolicy::ReedSolomon { data: 5, parity: 3 }, true),
            (CodingPolicy::xor_2_3(), false),
            (CodingPolicy::online_default(), false),
            (CodingPolicy::None, false),
        ] {
            let path = BytePath::new(&PeerStripeConfig::default().with_coding(policy));
            assert_eq!(path.rows_in_order, in_order, "{}", policy.label());
        }
        // Reed–Solomon codes natively: RS(5, 3) is 5 + 3 rows, one to a
        // placed block, whatever `data_path_blocks` says.
        let rs = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
        let positions: Vec<usize> = (0..8).map(|i| placed_block_of(&rs, 8, i)).collect();
        assert_eq!(positions, (0..8).collect::<Vec<_>>());
    }

    /// The payloads `encode_and_push` hands out for `chunk`, in push order.
    fn pushed_payloads(path: &BytePath, min: usize, chunk: &[u8]) -> Vec<Vec<u8>> {
        let mut pushed = Vec::new();
        let outcome: Result<(), ()> = path.encode_and_push(chunk, min, |position, p| {
            assert_eq!(position, pushed.len(), "placement order");
            pushed.push(p);
            Ok(())
        });
        assert!(outcome.is_ok());
        pushed
    }

    #[test]
    fn payloads_built_in_place_equal_packed_encode_with_the_worker_on_and_off() {
        let policies = [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
            CodingPolicy::rs_default(),
            CodingPolicy::ReedSolomon { data: 5, parity: 3 },
        ];
        // Shorter than `data` bytes, not divisible by it, around a tile
        // boundary, plus arbitrary lengths.
        let mut rng = DetRng::new(0x5eed);
        let mut lengths = vec![1usize, 2, 3, 4, 5, 7, 16, 17, 4096, 81_919, 81_920, 81_921];
        lengths.extend((0..24).map(|_| 1 + rng.index(200_000)));
        for policy in policies {
            let config = PeerStripeConfig::default().with_coding(policy);
            let path = BytePath::new(&config);
            let total = path.codec.encoded_blocks();
            for &len in &lengths {
                let chunk: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                // The reference: encode into owned blocks, group them by the
                // layout function, pack each group.
                let mut groups = vec![Vec::new(); policy.placed_blocks()];
                for b in path.codec.encode(&chunk) {
                    groups[placed_block_of(&policy, total, b.index as usize)].push(b);
                }
                let want: Vec<Vec<u8>> = groups.iter().map(|g| pack_payload(g)).collect();
                for (min, worker) in [(0, "on"), (usize::MAX, "off")] {
                    let got = pushed_payloads(&path, min, &chunk);
                    assert!(
                        got == want,
                        "{} at {len} bytes, worker {worker}",
                        policy.label()
                    );
                    assert!(got.iter().all(|p| p.len() == p.capacity()), "sized exactly");
                }
            }
        }
    }

    #[test]
    fn a_refused_push_stops_the_chunk_with_the_worker_on_and_off() {
        let config = PeerStripeConfig::default()
            .with_coding(CodingPolicy::ReedSolomon { data: 5, parity: 3 });
        let path = BytePath::new(&config);
        let chunk = vec![7u8; 50_000];
        for min in [0, usize::MAX] {
            // Refusals at a leading block (worker still running) and at the
            // first trailing one (worker already joined).
            for refuse_at in [2usize, 5] {
                let mut seen = Vec::new();
                let outcome = path.encode_and_push(&chunk, min, |position, _| {
                    seen.push(position);
                    if position == refuse_at {
                        Err(position)
                    } else {
                        Ok(())
                    }
                });
                assert_eq!(outcome, Err(refuse_at));
                assert_eq!(seen, (0..=refuse_at).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn cat_reconstruction_matches_original() {
        let mut ps = system(30, ByteSize::mb(300), 11);
        assert!(ps
            .store_file(&FileRecord::new("rebuild-me", ByteSize::gb(1)))
            .is_stored());
        let original: Vec<ByteSize> = ps
            .manifest("rebuild-me")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.size)
            .collect();
        let rebuilt = ps.reconstruct_cat("rebuild-me");
        let rebuilt_sizes: Vec<ByteSize> = rebuilt.extents().iter().map(|e| e.size()).collect();
        // Trailing zero chunks are trimmed by reconstruction; compare the data prefix.
        let original_trimmed: Vec<ByteSize> = {
            let mut v = original.clone();
            while v.last().is_some_and(|s| s.is_zero()) {
                v.pop();
            }
            v
        };
        assert_eq!(rebuilt_sizes, original_trimmed);
    }

    #[test]
    fn empty_file_stores_trivially() {
        let mut ps = system(10, ByteSize::mb(100), 12);
        assert!(ps
            .store_file(&FileRecord::new("empty", ByteSize::ZERO))
            .is_stored());
        assert!(ps.is_file_available("empty"));
        assert_eq!(ps.manifest("empty").unwrap().chunks.len(), 0);
    }

    #[test]
    fn domain_spread_respects_the_cap_and_records_domains() {
        use peerstripe_placement::{DomainSpread, SpreadReport, Topology};
        let topo = Topology::uniform_groups(40, 5);
        let mut ps = PeerStripe::with_placement(
            cluster(40, ByteSize::gb(1), 14),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
            Box::new(DomainSpread::new()),
            Some(topo.clone()),
        );
        assert_eq!(ps.domain_cap(), 2, "RS(4, 6) tolerates two losses");
        for i in 0..8 {
            assert!(ps
                .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(300)))
                .is_stored());
        }
        let mut spread = SpreadReport::new(ps.domain_cap());
        for i in 0..8 {
            let manifest = ps.manifest(&format!("f{i}")).unwrap();
            for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
                for b in &chunk.blocks {
                    assert_eq!(b.domain, topo.domain_of(b.node), "recorded domain");
                }
                spread.record_chunk(chunk.blocks.iter().map(|b| b.domain));
            }
        }
        assert_eq!(spread.cap_violations, 0, "no chunk exceeds the domain cap");
        assert!(spread.max_in_one_domain <= 2);
        assert!(spread.mean_distinct_domains() >= 3.0, "6 blocks, cap 2");
    }

    #[test]
    fn an_inheritor_in_a_domain_at_the_cap_is_passed_over() {
        use peerstripe_placement::{DomainSpread, Topology};
        // Four domains of ten, RS(4, 2): six blocks spread 2-2-1-1, cap 2.
        let topo = Topology::uniform_groups(40, 10);
        let mut ps = PeerStripe::with_placement(
            cluster(40, ByteSize::gb(1), 14),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
            Box::new(DomainSpread::new()),
            Some(topo.clone()),
        );
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let chunk = ps.manifest("f").unwrap().chunks[0].clone();
        let in_domain = |d| chunk.blocks.iter().filter(|b| b.domain == Some(d)).count();
        // Lose a block of a domain that holds one, so a domain holding two
        // stays at the cap; its members that hold nothing of the chunk would
        // pass every test but the cap.
        let alone = |b: &BlockPlacement| b.domain.is_some_and(|d| in_domain(d) == 1);
        let position = chunk.blocks.iter().position(alone).expect("2-2-1-1");
        let victim = chunk.blocks[position].node;
        let full = (0..4).find(|&d| in_domain(d) == 2).expect("2-2-1-1");
        let inheritor = *topo
            .members(full)
            .iter()
            .find(|&&n| chunk.blocks.iter().all(|b| b.node != n))
            .unwrap();
        ps.backend_mut().fail_node(victim).unwrap();
        let id = Id::hash("the inheritor");
        let takeover = Takeover {
            failed: id,
            predecessor: (id, inheritor),
            successor: (id, inheritor),
        };
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!((report.blocks_regenerated, report.chunks_lost), (1, 0));
        let rebuilt = &ps.manifest("f").unwrap().chunks[0].blocks[position];
        assert_ne!(rebuilt.node, victim);
        assert_ne!(rebuilt.node, inheritor, "its domain already holds two");
        assert_ne!(rebuilt.domain, Some(full));
        // The same inheritor is taken where the cap allows it: no topology.
        let mut ps = PeerStripe::new(
            cluster(40, ByteSize::gb(1), 14),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
        );
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let chunk = ps.manifest("f").unwrap().chunks[0].clone();
        let victim = chunk.blocks[0].node;
        let inheritor = (0..40)
            .find(|n| chunk.blocks.iter().all(|b| b.node != *n))
            .unwrap();
        ps.backend_mut().fail_node(victim).unwrap();
        let takeover = Takeover {
            failed: id,
            predecessor: (id, inheritor),
            successor: (id, inheritor),
        };
        ps.handle_node_failure(victim, &takeover);
        assert_eq!(
            ps.manifest("f").unwrap().chunks[0].blocks[0].node,
            inheritor
        );
    }

    #[test]
    fn oblivious_placement_leaves_domains_unrecorded() {
        let mut ps = system(30, ByteSize::gb(1), 15);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(200)))
            .is_stored());
        assert_eq!(ps.domain_cap(), usize::MAX);
        assert!(ps
            .manifest("f")
            .unwrap()
            .all_blocks()
            .all(|b| b.domain.is_none()));
    }

    #[test]
    fn rebuilt_blocks_never_collocate_with_live_blocks_of_their_chunk() {
        let mut ps = PeerStripe::new(
            cluster(30, ByteSize::gb(1), 16),
            PeerStripeConfig::default().with_coding(CodingPolicy::rs_default()),
        );
        assert!(ps
            .store_file(&FileRecord::new("d", ByteSize::mb(400)))
            .is_stored());
        // Chunks whose blocks start on distinct nodes must stay collocation-free
        // through repeated failure/recovery rounds.
        let distinct = |c: &ChunkPlacement, cluster: &StorageCluster| {
            let nodes: Vec<NodeRef> = c
                .blocks
                .iter()
                .map(|b| b.node)
                .filter(|&n| cluster.overlay().is_alive(n))
                .collect();
            let unique: std::collections::BTreeSet<_> = nodes.iter().collect();
            unique.len() == nodes.len()
        };
        let clean_before: Vec<u32> = ps
            .manifest("d")
            .unwrap()
            .chunks
            .iter()
            .filter(|c| distinct(c, ps.cluster()))
            .map(|c| c.chunk)
            .collect();
        assert!(!clean_before.is_empty());
        for round in 0..3 {
            let victim = ps.manifest("d").unwrap().chunks[0].blocks[round].node;
            let takeover = ps.backend_mut().fail_node(victim).unwrap();
            ps.handle_node_failure(victim, &takeover);
        }
        let manifest = ps.manifest("d").unwrap();
        for chunk in &manifest.chunks {
            if clean_before.contains(&chunk.chunk) {
                assert!(
                    distinct(chunk, ps.cluster()),
                    "chunk {} gained a collocated rebuilt block: {:?}",
                    chunk.chunk,
                    chunk.blocks.iter().map(|b| b.node).collect::<Vec<_>>()
                );
            }
        }
        assert!(ps.is_file_available("d"));
    }

    #[test]
    fn metrics_track_chunk_distribution() {
        let mut ps = system(50, ByteSize::gb(1), 13);
        for i in 0..20 {
            ps.store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(250)));
        }
        let m = ps.metrics();
        assert_eq!(m.files_attempted, 20);
        assert!(m.mean_chunks_per_file() >= 1.0);
        assert!(m.mean_chunk_size() > ByteSize::ZERO);
    }
}
