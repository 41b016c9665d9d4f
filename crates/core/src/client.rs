//! The PeerStripe storage system (the paper's contribution).
//!
//! [`PeerStripe`] implements the store/retrieve protocol of Section 4.  A
//! store is a [`StoreCursor`], advanced one step at a time:
//!
//! 1. a probe sizes the next **varying-size chunk** by what its prospective
//!    target nodes report through `getCapacity` (Section 4.3);
//! 2. the next step erasure codes the chunk into blocks named
//!    `file_chunk_ecb` and places all of them, scattered by the DHT over
//!    independent nodes (Section 4.2);
//! 3. the replies reserve nothing, so a placement refused since its probe is
//!    rolled back into a zero-sized chunk, as is a refused probe; past a
//!    consecutive-zero-chunk limit the whole store is rolled back and fails;
//! 4. the last step stores the chunk allocation table (and its replica) under
//!    `file.CAT`: its copies are size-only records of the manifest's chunk
//!    rows (the rows' payload is ROADMAP item 7);
//! 5. on node failure, lost blocks are regenerated chunk by chunk from the
//!    surviving blocks of their chunk and placed on the inheriting neighbour
//!    — or elsewhere if that neighbour is short on space (the paper's "drop
//!    and recreate" policy).
//!
//! Two data paths are provided: the *placement* path used by the large-scale
//! simulations (sizes only, no payload bytes) and the *byte* path used by the
//! examples and integration tests (real chunk payloads run through the real
//! erasure codecs of `peerstripe-erasure`).

use crate::backend::StorageBackend;
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

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
    /// Number of CAT copies stored afresh for those the failed node held.
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
/// chunk) at and above which the store path encodes those payloads on the
/// store's encode worker while the calling thread pushes the leading ones.
///
/// The threshold is load-bearing: below it, handing the work over costs more
/// than the overlap saves.  With both CPUs of a 2-vCPU VM held by the
/// benchmark harness's spinners, giving every chunk a worker of its own
/// moved `ring_node_loss`'s store p50 from 2.30 to 3.30 ms over 3 pairs of
/// runs.  So the worker is spawned once a store, at the first chunk that
/// reaches the threshold, and waits on its hand-off between chunks: its
/// start lag is paid once a file, not once a chunk.  Instrumented on
/// `ring_large_file` (3 passes a side, seed 42), a worker spawned for each
/// chunk first ran p50 1.98 ms (p90 3.92) after its spawn, a waiting one
/// p50 0.02 ms after its hand-off; the calling thread's wait for a chunk's
/// parity fell from a mean of 0.19 ms (p90 0.75) to 0.13 ms (p90 0.23).
const OVERLAP_MIN_BYTES: usize = 1 << 20;

/// A chunk's plan: each block's name, key and target node, and the size
/// the chunk may have.
type Plan = (Vec<(ObjectName, Id, NodeRef)>, ByteSize);

/// Zero padding a systematic row is sent with when the chunk ends inside or
/// before it: fewer than `k` bytes, `k` the source rows, and a layout whose
/// leading blocks are the source rows is GF(256) Reed–Solomon's, `k < 256`.
static ZERO_PAD: [u8; 256] = [0; 256];

/// What the byte path needs of the coding policy, built once per client, and
/// the payload buffers it keeps from chunk to chunk.
struct BytePath {
    codec: Arc<dyn ErasureCode>,
    /// The codec rows each placed block carries ([`placed_block_of`]
    /// inverted, rows ascending).
    rows_of: Arc<[Vec<u32>]>,
    /// How many leading placed blocks a healthy read needs — in a systematic
    /// layout the chunk's own bytes; the blocks after them are its redundancy.
    lead: usize,
    /// Whether leading placed block `i` carries source row `i` and nothing
    /// else, for every `i`: the chunk's rows, whole and in order, fewer than
    /// [`ZERO_PAD`] has bytes.  Such a block is sent from the chunk's own
    /// bytes, never computed.
    rows_in_order: bool,
    /// One buffer per computed leading payload (none when the leading blocks
    /// are sent from the chunk), kept from chunk to chunk.
    lead_kept: Vec<Vec<u8>>,
    /// One buffer per trailing payload, kept from chunk to chunk; they go to
    /// the store's encode worker and come back by value.
    tail_kept: Vec<Vec<u8>>,
}

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

/// Encode, for each `(rows, payload)` of `jobs`, rows `rows` of `chunk`
/// straight into `payload`, in the [`pack_payload`] format.  Each payload is
/// cut or grown to its size and never cleared: its `[count][index, len]`
/// headers are written, and the codec overwrites every byte of the row slots
/// in place.
fn fill_payloads<'a>(
    codec: &dyn ErasureCode,
    chunk: &[u8],
    jobs: impl Iterator<Item = (&'a [u32], &'a mut Vec<u8>)>,
) {
    let block_size = codec.block_size(chunk.len());
    let mut rows: Vec<u32> = Vec::new();
    let mut slots: Vec<&mut [u8]> = Vec::new();
    for (block_rows, payload) in jobs {
        payload.resize(4 + block_rows.len() * (8 + block_size), 0);
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
    codec.encode_rows_into(chunk, &rows, &mut slots);
}

/// What sits between a store and its encode worker: a job on its way over
/// (a chunk's bytes and the trailing payload buffers to fill from them), the
/// buffers on their way back, or neither.
enum Slot<'env> {
    Idle,
    Job(&'env [u8], Vec<Vec<u8>>),
    Filled(Vec<Vec<u8>>),
    /// The store is done with the worker, or the worker stopped (it
    /// panicked, which the store's scope re-raises at its end).
    Closed,
}

/// The hand-off between a store and its encode worker: one slot under a lock
/// and a condition variable both sides wait on.  Neither allocates, so what
/// a store allocates does not depend on which side waits for the other.
struct Handoff<'env> {
    slot: Mutex<Slot<'env>>,
    changed: Condvar,
}

impl<'env> Handoff<'env> {
    fn new() -> Self {
        Handoff {
            slot: Mutex::new(Slot::Idle),
            changed: Condvar::new(),
        }
    }

    /// The slot, locked.  Every update of it is one assignment, so a lock
    /// poisoned by a panic on the other side still guards a valid slot.
    fn lock(&self) -> MutexGuard<'_, Slot<'env>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Put `slot` in, unless the other side has closed, and wake it; whether
    /// it went in.
    fn put(&self, slot: Slot<'env>) -> bool {
        let mut held = self.lock();
        let open = !matches!(*held, Slot::Closed);
        if open {
            *held = slot;
            self.changed.notify_all();
        }
        open
    }

    /// Wait for what `take` accepts, leaving the slot idle; closed, `None`.
    fn wait<T>(&self, take: impl Fn(Slot<'env>) -> Result<T, Slot<'env>>) -> Option<T> {
        let mut held = self.lock();
        loop {
            if matches!(*held, Slot::Closed) {
                return None;
            }
            match take(std::mem::replace(&mut *held, Slot::Idle)) {
                Ok(taken) => return Some(taken),
                Err(other) => *held = other,
            }
            held = self
                .changed
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the hand-off for both sides.
    fn close(&self) {
        *self.lock() = Slot::Closed;
        self.changed.notify_all();
    }
}

/// Closes a hand-off when dropped: a worker that ends, however it ends,
/// never leaves the store waiting.
struct CloseOnDrop<'h, 'env>(&'h Handoff<'env>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The encode worker of one byte-path store: a scoped thread spawned at the
/// first chunk whose trailing payloads reach [`OVERLAP_MIN_BYTES`], waiting
/// on its [`Handoff`] between chunks, and told to stop, then joined, when the
/// store's scope ends.  It fills the trailing payload buffers it is handed
/// and hands them back by value.
struct EncodeWorker<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    /// The spawned worker's hand-off; `None` until the first job.
    handoff: Option<Arc<Handoff<'env>>>,
}

impl<'scope, 'env> EncodeWorker<'scope, 'env> {
    /// A worker of `scope`, not yet spawned.
    fn new(scope: &'scope std::thread::Scope<'scope, 'env>) -> Self {
        EncodeWorker {
            scope,
            handoff: None,
        }
    }

    /// Hand the worker `chunk` and `path`'s trailing buffers, spawning it on
    /// the first call.  False if the worker has stopped.
    fn start(&mut self, path: &mut BytePath, chunk: &'env [u8]) -> bool {
        let handoff = self.handoff.get_or_insert_with(|| {
            let handoff = Arc::new(Handoff::new());
            let (codec, rows_of) = (Arc::clone(&path.codec), Arc::clone(&path.rows_of));
            let (lead, ours) = (path.lead, Arc::clone(&handoff));
            self.scope.spawn(move || {
                let _closed = CloseOnDrop(&ours);
                let job = |slot| match slot {
                    Slot::Job(chunk, bufs) => Ok((chunk, bufs)),
                    other => Err(other),
                };
                while let Some((chunk, mut bufs)) = ours.wait(job) {
                    let rows = rows_of[lead..].iter().map(Vec::as_slice);
                    fill_payloads(&*codec, chunk, rows.zip(&mut bufs));
                    ours.put(Slot::Filled(bufs));
                }
            });
            handoff
        });
        let handed = handoff.put(Slot::Job(chunk, std::mem::take(&mut path.tail_kept)));
        if !handed {
            path.lose_tail();
        }
        handed
    }

    /// Wait for the job [`Self::start`] handed out and put its buffers back
    /// in `path`, filled.  False if the worker stopped on it.
    fn finish(&mut self, path: &mut BytePath) -> bool {
        let wait = |handoff: &Arc<Handoff<'env>>| {
            handoff.wait(|slot| match slot {
                Slot::Filled(bufs) => Ok(bufs),
                other => Err(other),
            })
        };
        let filled = self.handoff.as_ref().and_then(wait);
        let back = filled.is_some();
        match filled {
            Some(bufs) => path.tail_kept = bufs,
            None => path.lose_tail(),
        }
        back
    }
}

impl Drop for EncodeWorker<'_, '_> {
    /// Tell a spawned worker to stop, so the scope can join it.
    fn drop(&mut self) {
        if let Some(handoff) = &self.handoff {
            handoff.close();
        }
    }
}

impl BytePath {
    fn new(config: &PeerStripeConfig) -> Self {
        let codec: Arc<dyn ErasureCode> = config.coding.codec(config.data_path_blocks).into();
        let total = codec.encoded_blocks();
        let mut rows_of = vec![Vec::new(); config.coding.placed_blocks()];
        for index in 0..total {
            if let Some(rows) = rows_of.get_mut(placed_block_of(&config.coding, total, index)) {
                rows.push(index as u32);
            }
        }
        let lead = config.coding.min_blocks_needed().min(rows_of.len());
        let k = codec.source_blocks();
        let rows_in_order = lead == k
            && k <= ZERO_PAD.len()
            && rows_of[..lead].iter().zip(0u32..).all(|(r, i)| r == &[i]);
        BytePath {
            lead_kept: vec![Vec::new(); if rows_in_order { 0 } else { lead }],
            tail_kept: vec![Vec::new(); rows_of.len() - lead],
            rows_of: rows_of.into(),
            rows_in_order,
            codec,
            lead,
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

    /// Replace the trailing buffers a stopped worker kept with empty ones.
    fn lose_tail(&mut self) {
        self.tail_kept = vec![Vec::new(); self.rows_of.len() - self.lead];
    }

    /// Whether placed block `position` is sent from the chunk's own bytes.
    fn sends_row(&self, position: usize) -> bool {
        self.rows_in_order && position < self.lead
    }

    /// The payload length of placed block `position` for a chunk of
    /// `chunk_len` bytes.
    fn payload_len(&self, position: usize, chunk_len: usize) -> usize {
        let rows = self.rows_of.get(position).map_or(0, Vec::len);
        4 + rows * (8 + self.codec.block_size(chunk_len))
    }

    /// The largest chunk whose every payload ([`Self::payload_len`]) fits in
    /// `report` bytes: the byte path's chunk size for the probes' smallest
    /// report (Section 4.3).
    fn chunk_size_for_report(&self, report: ByteSize) -> ByteSize {
        let rows = self.rows_of.iter().map(Vec::len).max().unwrap_or(0).max(1) as u64;
        let block_size = (report.as_u64().saturating_sub(4) / rows).saturating_sub(8);
        ByteSize::bytes(block_size.saturating_mul(self.codec.source_blocks() as u64))
    }

    /// Call `send` with placed block `position`'s payload for `chunk`, as the
    /// parts it is written from: a row sent from the chunk is its header, its
    /// bytes where `chunk` holds them, and its zero padding; any other
    /// payload is its kept buffer, filled beforehand.
    fn with_parts<R>(&self, chunk: &[u8], position: usize, send: impl FnOnce(&[&[u8]]) -> R) -> R {
        if self.sends_row(position) {
            let block_size = self.codec.block_size(chunk.len());
            let start = (position * block_size).min(chunk.len());
            let row = &chunk[start..(start + block_size).min(chunk.len())];
            let pad = &ZERO_PAD[..block_size - row.len()];
            return send(&[&row_header(position, block_size), row, pad]);
        }
        let kept = match position.checked_sub(self.lead) {
            None => self.lead_kept.get(position),
            Some(tail) => self.tail_kept.get(tail),
        };
        send(&[kept.map_or(&[][..], Vec::as_slice)])
    }

    /// Compute into their kept buffers the payloads for `chunk` of the
    /// placed blocks `wanted` accepts (those sent from the chunk have none).
    fn fill_kept(&mut self, chunk: &[u8], wanted: impl Fn(usize) -> bool) {
        let BytePath {
            codec,
            rows_of,
            lead,
            lead_kept,
            tail_kept,
            ..
        } = self;
        let lead = *lead;
        let tail = tail_kept.iter_mut().enumerate();
        let kept = lead_kept.iter_mut().enumerate();
        let jobs = kept
            .chain(tail.map(|(i, buf)| (lead + i, buf)))
            .filter(|(position, _)| wanted(*position))
            .map(|(position, buf)| (rows_of[position].as_slice(), buf));
        fill_payloads(&**codec, chunk, jobs);
    }

    /// Encode `chunk` and hand each placed block's payload, in placement
    /// order, to `push` as the parts it is written from; stops at the first
    /// refusal.
    ///
    /// Leading rows of a systematic layout go from `chunk` itself; every
    /// other payload is computed into a kept buffer.  When the trailing,
    /// redundancy-bearing payloads are `overlap_min_bytes` or more, `worker`
    /// computes them while this thread pushes the leading blocks; their
    /// buffers are back before the first trailing block is pushed, and also
    /// when a leading push is refused.
    fn encode_and_push<'env, E>(
        &mut self,
        chunk: &'env [u8],
        worker: &mut EncodeWorker<'_, 'env>,
        overlap_min_bytes: usize,
        mut push: impl FnMut(usize, &[&[u8]]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (lead, placed) = (self.lead, self.rows_of.len());
        let tail_rows = self.rows_of[lead..].iter().map(Vec::len).sum::<usize>();
        let tail_bytes = tail_rows * self.codec.block_size(chunk.len());
        let overlap =
            tail_bytes > 0 && tail_bytes >= overlap_min_bytes && worker.start(self, chunk);
        self.fill_kept(chunk, |position| position < lead || !overlap);
        let mut push_from = |path: &Self, positions: Range<usize>| {
            positions.into_iter().try_for_each(|position| {
                path.with_parts(chunk, position, |parts| push(position, parts))
            })
        };
        let pushed = push_from(self, 0..lead);
        if overlap && !worker.finish(self) {
            self.fill_kept(chunk, |position| position >= lead);
        }
        pushed?;
        push_from(self, lead..placed)
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

    /// The per-domain block cap placement enforces for each chunk: with a
    /// topology, a single failure domain may never hold more blocks of a
    /// chunk than the coding policy tolerates losing (so losing a whole
    /// domain can never make the chunk unrecoverable).
    pub fn domain_cap(&self) -> usize {
        let coding = &self.config.coding;
        let (placed, needed) = (coding.placed_blocks(), coding.min_blocks_needed());
        planner::domain_cap(self.topology.as_ref(), placed, needed)
    }

    /// Object name for one placed block of a chunk under the current policy,
    /// sharing `file`'s allocation.
    fn block_name(&self, file: &Arc<str>, chunk: u32, ecb: u32) -> ObjectName {
        if matches!(self.config.coding, CodingPolicy::None) && ecb == 0 {
            // Without coding a chunk is stored as a single object named after the
            // chunk itself, exactly as in the Figure 7–9 simulations.
            ObjectName::chunk(Arc::clone(file), chunk)
        } else {
            ObjectName::block(Arc::clone(file), chunk, ecb)
        }
    }

    /// Select the target nodes of the next chunk's blocks through the
    /// placement strategy and derive the chunk size from their capacity
    /// reports: on the byte path (`bytes`) so that every payload fits the
    /// smallest report, on the placement path by the policy's block size.
    ///
    /// Returns the selected `(name, key, node)` triples and the achievable
    /// chunk size, which is zero when any selected node reports no space — or
    /// when the strategy refuses the chunk outright (e.g. domain-aware
    /// placement cannot satisfy its spread constraint right now).
    fn plan_chunk(
        &mut self,
        file: &Arc<str>,
        chunk: u32,
        remaining: ByteSize,
        bytes: bool,
    ) -> Plan {
        let m = self.config.coding.placed_blocks() as u32;
        let keys: Vec<Id> = (0..m)
            .map(|ecb| self.block_name(file, chunk, ecb).key())
            .collect();
        let cap = self.domain_cap();
        let Some(picks) =
            self.placement
                .plan_chunk(&mut self.backend, self.topology.as_ref(), &keys, cap)
        else {
            return (Vec::new(), ByteSize::ZERO);
        };
        debug_assert_eq!(picks.len(), keys.len());
        let mut min_report = ByteSize(u64::MAX);
        let mut targets = Vec::with_capacity(keys.len());
        for ((ecb, key), (node, report)) in (0..m).zip(keys).zip(picks) {
            min_report = min_report.min(report);
            targets.push((self.block_name(file, chunk, ecb), key, node));
        }
        let mut chunk_size = if bytes {
            self.byte_path.chunk_size_for_report(min_report)
        } else {
            self.config.coding.chunk_size_for_report(min_report)
        };
        if let Some(cap) = self.config.max_chunk_size {
            chunk_size = chunk_size.min(cap);
        }
        (targets, chunk_size.min(remaining))
    }

    /// Place every block of a planned chunk on its probed target: on the
    /// byte path `data` is the chunk's bytes, each block's payload sent from
    /// them or from a buffer the chunk was encoded into, and the store's
    /// encode worker.  `None` for a refused plan, and for a placement refused
    /// since its probe (the capacity changed in between, Section 4.3), whose
    /// blocks already placed are rolled back.
    fn place_chunk<'env>(
        &mut self,
        targets: &[(ObjectName, Id, NodeRef)],
        chunk_size: ByteSize,
        data: Option<(&'env [u8], &mut EncodeWorker<'_, 'env>)>,
    ) -> Option<Vec<BlockPlacement>> {
        if chunk_size.is_zero() || targets.is_empty() {
            return None;
        }
        let block_size = self.config.coding.block_size(chunk_size);
        let mut placed: Vec<BlockPlacement> = Vec::with_capacity(targets.len());
        let (backend, topology) = (&mut self.backend, self.topology.as_ref());
        let mut put = |position: usize, parts: Option<&[&[u8]]>| {
            let (name, key, node) = targets.get(position).ok_or(())?;
            let target = (name.clone(), *key, *node);
            placed.push(put_block(backend, topology, target, block_size, parts).ok_or(())?);
            Ok(())
        };
        let outcome: Result<(), ()> = match data {
            Some((bytes, worker)) => {
                let push = |position, parts: &[&[u8]]| put(position, Some(parts));
                self.byte_path
                    .encode_and_push(bytes, worker, OVERLAP_MIN_BYTES, push)
            }
            None => (0..targets.len()).try_for_each(|position| put(position, None)),
        };
        if outcome.is_err() {
            self.roll_back(&placed);
            return None;
        }
        Some(placed)
    }

    /// Roll back `blocks`, each as it was placed.
    fn roll_back<'a>(&mut self, blocks: impl IntoIterator<Item = &'a BlockPlacement>) {
        for b in blocks {
            self.backend.rollback_block(b.node, &b.name, b.size);
        }
    }

    /// Store real bytes under a name; the returned outcome mirrors [`StorageSystem::store_file`].
    pub fn store_data(&mut self, name: &str, data: &[u8]) -> StoreOutcome {
        std::thread::scope(|scope| StoreCursor::with_bytes(name, data, scope).run(self))
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

    /// Handle the failure of a node: regenerate the encoded blocks it held from
    /// the surviving blocks of each affected chunk, one chunk a step
    /// (`rebuild_chunk`), then re-home the CAT copies it held on the
    /// first leaf-set candidate that holds none (Section 4.4).
    pub fn handle_node_failure(&mut self, failed: NodeRef, takeover: &Takeover) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut damaged: Vec<(Arc<str>, usize)> = Vec::new();
        for manifest in self.manifests.iter() {
            for (index, chunk) in manifest.chunks.iter().enumerate() {
                if chunk.blocks_on(failed).next().is_some() {
                    damaged.push((Arc::clone(&manifest.name), index));
                }
            }
        }
        for (file, index) in damaged {
            self.rebuild_chunk(&file, index, failed, takeover, &mut report);
        }
        for manifest in self.manifests.iter_mut() {
            if manifest.cat_nodes.contains(&failed) {
                manifest.cat_nodes.retain(|&n| n != failed);
                report.cats_replicated += store_cats(&mut self.backend, manifest, false);
            }
        }
        report
    }

    /// One step of a failure's repair: rebuild the blocks `failed` held of
    /// chunk `index` of `file` from one read of the chunk, each in its lost
    /// block's place in the manifest.  Whether the chunk can be rebuilt and
    /// where its blocks may go is the planner's decision ([`crate::planner`]).
    ///
    /// A replacement re-encodes the codec blocks the lost one carried
    /// ([`BytePath::with_parts`] sends it), or keeps its size if the chunk
    /// was stored as sizes, under a fresh ECB number: "functionally equal"
    /// to the lost block.  The takeover inheritors of the new names are the
    /// preferred targets, with normal placement as the fall-back ("drop and
    /// recreate elsewhere").  A chunk whose blocks cannot be fetched and
    /// decoded stores nothing and, like one with too few live holders,
    /// counts once in `chunks_lost` / `bytes_lost`.
    fn rebuild_chunk(
        &mut self,
        file: &Arc<str>,
        index: usize,
        failed: NodeRef,
        takeover: &Takeover,
        report: &mut RecoveryReport,
    ) {
        let Some(chunk) = self.manifests.get(file).map(|m| &m.chunks[index]) else {
            return;
        };
        let lost: Vec<usize> = (0..chunk.blocks.len())
            .filter(|&position| chunk.blocks[position].node == failed)
            .collect();
        let mut damage = Damage::of_placement(chunk, failed);
        let mut bytes = Vec::new();
        let rebuild = damage.verdict(&self.backend) == Verdict::Rebuild;
        let whole = 0..chunk.size.as_u64() as usize;
        let read = rebuild
            .then(|| self.read_chunk_into(chunk, whole, &mut bytes).ok())
            .flatten();
        let path = &self.byte_path;
        let size_of = |&p: &usize| match read {
            Some(true) => (p < path.rows_of.len()).then(|| path.payload_len(p, bytes.len()) as u64),
            _ => Some(chunk.blocks[p].size.as_u64()),
        };
        let sizes = read.and_then(|_| lost.iter().map(size_of).collect::<Option<Vec<_>>>());
        let Some(sizes) = sizes else {
            report.chunks_lost += 1;
            report.bytes_lost += chunk.size;
            return;
        };
        let bytes = (read == Some(true)).then_some(bytes);
        if let Some(bytes) = &bytes {
            self.byte_path.fill_kept(bytes, |p| lost.contains(&p));
        }
        let largest = sizes.iter().copied().max();
        damage.block_size = ByteSize::bytes(largest.unwrap_or(0));
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
            .map(|ecb| ObjectName::block(Arc::clone(file), chunk.chunk, ecb))
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
        let targets = damage.targets(strategy, topology, view, lost.len(), &inheritors, &mut rng);

        let mut replaced: Vec<(usize, BlockPlacement)> = Vec::new();
        for (((position, name), size), node) in lost.into_iter().zip(names).zip(sizes).zip(targets)
        {
            let (beside, size) = (damage.holders.iter().copied(), ByteSize::bytes(size));
            let (path, topology) = (&self.byte_path, self.topology.as_ref());
            let mut block = None;
            planner::commit(&mut self.backend, beside, node, |backend| {
                let key = name.key();
                let target = (name, key, node);
                block = match &bytes {
                    Some(bytes) => path.with_parts(bytes, position, |parts| {
                        put_block(backend, topology, target, size, Some(parts))
                    }),
                    None => put_block(backend, topology, target, size, None),
                };
                block.is_some()
            });
            if let Some(block) = block {
                report.blocks_regenerated += 1;
                report.bytes_regenerated += size;
                replaced.push((position, block));
            }
        }
        if let Some(m) = self.manifests.get_mut(file) {
            // A replacement takes the lost block's place, so a chunk's
            // block list keeps its layout order.
            for (position, block) in replaced {
                m.chunks[index].blocks[position] = block;
            }
        }
    }

    /// Reconstruct a file's CAT by probing chunk objects in order (Section 4.4:
    /// the CAT "can be re-created … by incrementally looking up chunks of a file
    /// and determining their size"), stopping after the configured number of
    /// consecutive misses.  Returns the chunk sizes in order, the trailing
    /// misses trimmed.
    pub fn reconstruct_cat(&mut self, file: &str) -> Vec<ByteSize> {
        let file: Arc<str> = Arc::from(file);
        let mut sizes = Vec::new();
        let mut consecutive_missing = 0u32;
        let mut chunk_no = 0u32;
        while consecutive_missing <= self.config.zero_chunk_limit {
            let name = self.block_name(&file, chunk_no, 0);
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
        sizes
    }
}

/// Store one block on `node` — from `parts` on the byte path, as large as
/// they are together, or as `size` on the placement path — and return its
/// manifest record, or `None` if the node refused it.
fn put_block<B: StorageBackend>(
    backend: &mut B,
    topology: Option<&Topology>,
    (name, key, node): (ObjectName, Id, NodeRef),
    size: ByteSize,
    parts: Option<&[&[u8]]>,
) -> Option<BlockPlacement> {
    let size = parts.map_or(size, |p| {
        ByteSize::bytes(p.iter().map(|b| b.len() as u64).sum())
    });
    match parts {
        Some(parts) => backend.store_block_from(node, key, &name, size, parts),
        None => backend.store_block(node, key, name.clone(), size, None),
    }
    .ok()?;
    Some(BlockPlacement {
        domain: topology.and_then(|t| t.domain_of(node)),
        name,
        node,
        size,
    })
}

/// Store CAT copies of `manifest` under `file.CAT`'s own key on the ring
/// members closest to it that hold none, adding each node that takes one to
/// `cat_nodes`; returns how many did.  A `fresh` CAT tries each of the
/// [`CAT_REPLICAS`] closest and charges one route lookup, the primary's (the
/// replicas ride the leaf set, Section 4.4); a re-homed copy tries the first
/// of the `CAT_REPLICAS + 1` closest that holds none.
fn store_cats<B: StorageBackend>(backend: &mut B, manifest: &mut FileManifest, fresh: bool) -> u64 {
    let name = ObjectName::cat(Arc::clone(&manifest.name));
    let (key, size) = (name.key(), manifest.cat_size());
    let mut targets = backend.replica_targets(key, CAT_REPLICAS + usize::from(!fresh));
    if fresh && !targets.is_empty() {
        let _ = backend.route_lookup(key);
    }
    targets.retain(|(_, node)| !manifest.cat_nodes.contains(node));
    targets.truncate(if fresh { CAT_REPLICAS } else { 1 });
    let held = manifest.cat_nodes.len();
    for (_, node) in targets {
        let stored = backend.store_block(node, key, name.clone(), size, None);
        if stored.is_ok() {
            manifest.cat_nodes.push(node);
        }
    }
    (manifest.cat_nodes.len() - held) as u64
}

/// What one [`StoreCursor::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreStep {
    /// The next chunk's targets were probed: the chunk may be this large
    /// (zero: a target reported no room or the strategy refused the chunk).
    Probed(ByteSize),
    /// The probed chunk was placed at this size, or — its plan refused, or
    /// its placement refused since the probe and rolled back — recorded as a
    /// zero-sized chunk (Section 4.3).
    Placed(ByteSize),
    /// The store is over: stored, with its CAT copies and metrics recorded,
    /// or failed, with every block it placed rolled back.
    Done(StoreOutcome),
}

/// One store in progress, advanced one step at a time by whoever holds the
/// [`PeerStripe`] it stores through: a probe of the next chunk's targets
/// ([`StoreStep::Probed`]); that chunk's placement, every block of it at
/// once, or its rollback as a zero-sized chunk ([`StoreStep::Placed`]); and
/// a last step that stores the CAT copies and records the metrics
/// ([`StoreStep::Done`]).  The probes' capacity replies reserve nothing, so
/// another cursor's placement between a probe and its placement can make the
/// chunk zero-sized.  Past the consecutive-zero-chunk limit every block the
/// store placed is rolled back and it fails.
///
/// A byte-path cursor ([`Self::with_bytes`]) lives inside the
/// `std::thread::scope` its encode worker may be spawned in, and the worker
/// stops when the cursor is dropped; a size-only cursor ([`Self::new`])
/// needs no scope.
pub struct StoreCursor<'scope, 'env> {
    /// The file's name, shared by every chunk, block and CAT name of it;
    /// `None` once the store is done.
    file: Option<Arc<str>>,
    remaining: ByteSize,
    /// Bytes stored so far: the next chunk's offset in the file.
    offset: u64,
    consecutive_zero: u32,
    chunks: Vec<ChunkPlacement>,
    /// The probed chunk's targets and size, until its placement.
    probed: Option<Plan>,
    /// The file's bytes and the store's encode worker (the byte path).
    data: Option<(&'env [u8], EncodeWorker<'scope, 'env>)>,
}

impl<'scope, 'env> StoreCursor<'scope, 'env> {
    /// A size-only store of `size` bytes under `name` (the placement path).
    pub fn new(name: &str, size: ByteSize) -> Self {
        StoreCursor {
            file: Some(Arc::from(name)),
            remaining: size,
            offset: 0,
            consecutive_zero: 0,
            chunks: Vec::new(),
            probed: None,
            data: None,
        }
    }

    /// A store of `data` under `name` (the byte path), whose encode worker
    /// is spawned in `scope` if a chunk needs one.
    pub fn with_bytes(name: &str, data: &'env [u8], scope: &'scope Scope<'scope, 'env>) -> Self {
        let mut cursor = Self::new(name, ByteSize::bytes(data.len() as u64));
        cursor.data = Some((data, EncodeWorker::new(scope)));
        cursor
    }

    /// Advance the store by one step through `ps`.  Stepped again once
    /// done, the cursor does nothing and answers with a failure.
    pub fn step<B: StorageBackend>(&mut self, ps: &mut PeerStripe<B>) -> StoreStep {
        let Some(file) = &self.file else {
            let reason = "the store is already done".to_string();
            return StoreStep::Done(StoreOutcome::Failed { reason });
        };
        if let Some(plan) = self.probed.take() {
            return StoreStep::Placed(self.place(ps, plan));
        }
        let chunk_no = self.chunks.len() as u32;
        if !self.remaining.is_zero() && self.consecutive_zero <= ps.config.zero_chunk_limit {
            let plan = ps.plan_chunk(file, chunk_no, self.remaining, self.data.is_some());
            let probed = self.probed.insert(plan);
            return StoreStep::Probed(probed.1);
        }
        // Done: every byte placed, or too many zero-sized chunks in a row.
        let size = self.remaining + ByteSize::bytes(self.offset);
        let chunks = std::mem::take(&mut self.chunks);
        let Some(name) = self.file.take().filter(|_| self.remaining.is_zero()) else {
            ps.roll_back(chunks.iter().flat_map(|c| &c.blocks));
            ps.metrics.record_failure(size);
            let limit = ps.config.zero_chunk_limit;
            let reason =
                format!("exceeded {limit} consecutive zero-sized chunks at chunk {chunk_no}");
            return StoreStep::Done(StoreOutcome::Failed { reason });
        };
        let mut manifest = FileManifest {
            name,
            size,
            chunks,
            cat_nodes: Vec::new(),
        };
        let placed = manifest.all_blocks().map(|b| b.size).sum::<ByteSize>();
        let cats = manifest.cat_size() * store_cats(&mut ps.backend, &mut manifest, true);
        let sizes = manifest.chunks.iter().map(|c| c.size);
        ps.metrics.record_success(size, sizes, placed + cats);
        if ps.config.track_manifests {
            ps.manifests.insert(manifest);
        }
        StoreStep::Done(StoreOutcome::Stored)
    }

    /// Place the probed chunk and record it: at its size, or — refused — as
    /// a zero-sized chunk.  Returns the size recorded.
    fn place<B: StorageBackend>(
        &mut self,
        ps: &mut PeerStripe<B>,
        (targets, size): Plan,
    ) -> ByteSize {
        let start = self.offset as usize;
        let data = self.data.as_mut().map(|(bytes, worker)| {
            let bytes: &'env [u8] = bytes;
            (
                &bytes[start..(start + size.as_u64() as usize).min(bytes.len())],
                worker,
            )
        });
        let blocks = ps.place_chunk(&targets, size, data);
        let (size, blocks) = blocks.map_or((ByteSize::ZERO, Vec::new()), |b| (size, b));
        self.chunks.push(ChunkPlacement {
            chunk: self.chunks.len() as u32,
            size,
            blocks,
            min_blocks_needed: ps.config.coding.min_blocks_needed(),
        });
        self.consecutive_zero = if size.is_zero() {
            self.consecutive_zero + 1
        } else {
            0
        };
        self.remaining -= size;
        self.offset += size.as_u64();
        size
    }

    /// Step until done.
    fn run<B: StorageBackend>(mut self, ps: &mut PeerStripe<B>) -> StoreOutcome {
        loop {
            if let StoreStep::Done(outcome) = self.step(ps) {
                return outcome;
            }
        }
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
/// The store and repair paths write it in place (`fill_payloads`), or send a
/// systematic row as its header, its bytes and its padding; this is the
/// reference they are tested against.
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
    fn store_file(&mut self, file: &FileRecord) -> StoreOutcome {
        StoreCursor::new(&file.name, file.size).run(self)
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
    fn every_cat_copy_answers_to_its_name_and_rolls_back_by_it() {
        let mut ps = system(30, ByteSize::gb(1), 5);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let manifest = ps.manifest("f").unwrap().clone();
        let size = manifest.cat_size();
        assert!(!size.is_zero());
        let name = ObjectName::cat("f");
        for &node in &manifest.cat_nodes {
            let copy = ps.backend().fetch_block(node, &name).map(|b| b.size);
            assert_eq!(copy, Some(size), "node {node} answers to {name}");
        }
        let used = ps.cluster().total_used();
        for &node in &manifest.cat_nodes {
            ps.backend_mut().rollback_block(node, &name, size);
            assert!(ps.backend().fetch_block(node, &name).is_none());
        }
        let copies = manifest.cat_nodes.len() as u64;
        assert_eq!(ps.cluster().total_used(), used - size * copies);
    }

    #[test]
    fn a_files_manifest_and_block_names_share_one_allocation() {
        let file_of = |name: &ObjectName| match name {
            ObjectName::Chunk { file, .. }
            | ObjectName::Block { file, .. }
            | ObjectName::Cat { file }
            | ObjectName::WholeFile { file, .. } => Arc::clone(file),
        };
        for coding in [CodingPolicy::None, CodingPolicy::xor_2_3()] {
            let mut ps = PeerStripe::new(
                cluster(40, ByteSize::gb(1), 6),
                PeerStripeConfig::default().with_coding(coding),
            );
            assert!(ps
                .store_file(&FileRecord::new("shared", ByteSize::gb(3)))
                .is_stored());
            let manifest = ps.manifest("shared").unwrap();
            assert_eq!(&*manifest.name, "shared");
            let blocks: Vec<&BlockPlacement> = manifest.all_blocks().collect();
            assert!(blocks.len() > 1, "{coding:?}");
            for block in blocks {
                let (name, file) = (&block.name, file_of(&block.name));
                assert!(Arc::ptr_eq(&file, &manifest.name), "{name} in {coding:?}");
            }
        }
    }

    #[test]
    fn a_cat_holders_failure_stores_a_fresh_copy() {
        let mut ps = system(30, ByteSize::gb(1), 5);
        assert!(ps
            .store_file(&FileRecord::new("f", ByteSize::mb(100)))
            .is_stored());
        let victim = ps.manifest("f").unwrap().cat_nodes[0];
        let takeover = ps.backend_mut().fail_node(victim).unwrap();
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.cats_replicated, 1);
        let manifest = ps.manifest("f").unwrap();
        assert_eq!(manifest.cat_nodes.len(), CAT_REPLICAS);
        assert!(!manifest.cat_nodes.contains(&victim));
        for &node in &manifest.cat_nodes {
            let copy = ps.backend().fetch_block(node, &ObjectName::cat("f"));
            assert_eq!(copy.map(|b| b.size), Some(manifest.cat_size()));
        }
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
        // The same table says which blocks are sent from the chunk: the
        // source rows, as a header, the row where the chunk holds it and
        // its padding — row 4 of a chunk five does not divide is one byte
        // short, row 3 of a 6-byte chunk is padding alone.
        let mut path = BytePath::new(&PeerStripeConfig::default().with_coding(rs));
        let sent: Vec<bool> = (0..8).map(|p| path.sends_row(p)).collect();
        assert_eq!(sent, [true, true, true, true, true, false, false, false]);
        for (len, row, want) in [(4usize << 20, 4usize, 1usize), (6, 3, 2), (6, 2, 0)] {
            let chunk = vec![7u8; len];
            let block_size = path.codec.block_size(len);
            let (header, at, pad) = path.with_parts(&chunk, row, |parts| {
                let at = offset_in(&chunk, parts[1]).unwrap_or(usize::MAX);
                (parts[0].to_vec(), at, parts[2].len())
            });
            assert_eq!(header, row_header(row, block_size));
            assert_eq!(pad, want, "row {row} of {len} bytes");
            if pad < block_size {
                assert_eq!(at, row * block_size);
            }
            std::thread::scope(|scope| {
                let mut worker = EncodeWorker::new(scope);
                let got = pushed_payloads(&mut path, &mut worker, 0, &chunk);
                assert_eq!(got.len(), 8);
            });
        }
    }

    /// Where `part` lies in `chunk`, if it is a view of `chunk`'s bytes.
    fn offset_in(chunk: &[u8], part: &[u8]) -> Option<usize> {
        let start = (part.as_ptr() as usize).checked_sub(chunk.as_ptr() as usize)?;
        (!part.is_empty() && start + part.len() <= chunk.len()).then_some(start)
    }

    /// The payloads `encode_and_push` hands out for `chunk` through
    /// `worker`, in push order, each checked for how it is sent: a row sent
    /// from the chunk is its header, its bytes where `chunk` holds them and
    /// fewer zero bytes than the chunk has rows; a computed payload is one
    /// part, a buffer of the path's own.
    fn pushed_payloads<'env>(
        path: &mut BytePath,
        worker: &mut EncodeWorker<'_, 'env>,
        min: usize,
        chunk: &'env [u8],
    ) -> Vec<Vec<u8>> {
        let block_size = path.codec.block_size(chunk.len());
        let k = path.codec.source_blocks();
        let sends: Vec<bool> = (0..path.rows_of.len()).map(|p| path.sends_row(p)).collect();
        let mut pushed = Vec::new();
        let outcome: Result<(), ()> =
            path.encode_and_push(chunk, worker, min, |position, parts| {
                assert_eq!(position, pushed.len(), "placement order");
                if sends[position] {
                    let [header, row, pad] = parts else {
                        panic!("row {position} in {} parts", parts.len());
                    };
                    assert_eq!(*header, row_header(position, block_size));
                    if !row.is_empty() {
                        assert_eq!(offset_in(chunk, row), Some(position * block_size));
                    }
                    assert!(pad.len() < k && pad.iter().all(|&b| b == 0));
                } else {
                    assert_eq!(parts.len(), 1, "a computed payload is one buffer");
                    assert_eq!(offset_in(chunk, parts[0]), None);
                }
                pushed.push(parts.concat());
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
        // boundary, plus arbitrary lengths: one path, so its kept buffers
        // grow and shrink from chunk to chunk and are never cleared.
        let mut rng = DetRng::new(0x5eed);
        let mut lengths = vec![1usize, 2, 3, 4, 5, 7, 16, 17, 4096, 81_919, 81_920, 81_921];
        lengths.extend((0..24).map(|_| 1 + rng.index(200_000)));
        let chunks: Vec<Vec<u8>> = lengths
            .iter()
            .map(|&len| (0..len).map(|_| rng.next_u32() as u8).collect())
            .collect();
        for policy in policies {
            let config = PeerStripeConfig::default().with_coding(policy);
            let mut path = BytePath::new(&config);
            let total = path.codec.encoded_blocks();
            // The reference: encode into owned blocks, group them by the
            // layout function, pack each group.
            let want: Vec<Vec<Vec<u8>>> = chunks
                .iter()
                .map(|chunk| {
                    let mut groups = vec![Vec::new(); policy.placed_blocks()];
                    for b in path.codec.encode(chunk) {
                        groups[placed_block_of(&policy, total, b.index as usize)].push(b);
                    }
                    groups.iter().map(|g| pack_payload(g)).collect()
                })
                .collect();
            // One worker serves every chunk of a store, waiting in between.
            for (min, worker) in [(0, "on"), (usize::MAX, "off")] {
                std::thread::scope(|scope| {
                    let mut encoder = EncodeWorker::new(scope);
                    for (chunk, want) in chunks.iter().zip(&want) {
                        let got = pushed_payloads(&mut path, &mut encoder, min, chunk);
                        assert!(
                            &got == want,
                            "{} at {} bytes, worker {worker}",
                            policy.label(),
                            chunk.len()
                        );
                    }
                    let spawned = encoder.handoff.is_some();
                    let trailing = path.rows_of.len() > path.lead;
                    assert_eq!(spawned, min == 0 && trailing, "{}", policy.label());
                });
            }
        }
    }

    #[test]
    fn a_refused_push_stops_the_chunk_with_the_worker_on_and_off() {
        let policy = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
        let mut path = BytePath::new(&PeerStripeConfig::default().with_coding(policy));
        let chunk: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let want: Vec<Vec<u8>> = path
            .codec
            .encode(&chunk)
            .iter()
            .map(|b| pack_payload(std::slice::from_ref(b)))
            .collect();
        for min in [0, usize::MAX] {
            std::thread::scope(|scope| {
                let mut worker = EncodeWorker::new(scope);
                // Refusals at a leading block (worker still running) and at
                // the first trailing one (buffers already back).
                for refuse_at in [2usize, 5] {
                    let mut seen = Vec::new();
                    let outcome = path.encode_and_push(&chunk, &mut worker, min, |position, _| {
                        seen.push(position);
                        if position == refuse_at {
                            Err(position)
                        } else {
                            Ok(())
                        }
                    });
                    assert_eq!(outcome, Err(refuse_at));
                    assert_eq!(seen, (0..=refuse_at).collect::<Vec<_>>());
                    // The trailing buffers came back from the worker, filled.
                    let filled = want[5..].iter().map(Vec::len);
                    let back = path.tail_kept.iter().map(Vec::len);
                    assert!(back.eq(filled), "refused at {refuse_at}");
                }
                // The next chunk goes through the same worker whole.
                let got = pushed_payloads(&mut path, &mut worker, min, &chunk);
                assert_eq!(got, want, "after the refusals, min {min}");
            });
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
        // Trailing zero chunks are trimmed by reconstruction; compare the data prefix.
        let original_trimmed: Vec<ByteSize> = {
            let mut v = original.clone();
            while v.last().is_some_and(|s| s.is_zero()) {
                v.pop();
            }
            v
        };
        assert_eq!(rebuilt, original_trimmed);
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
