//! The block ledger: which nodes hold which blocks, which of them are up,
//! and what that leaves unavailable or lost.
//!
//! The paper's fault-tolerance evaluation (Section 4.4) asks one question at
//! three time scales — after this node failed, which chunks still have
//! enough blocks, and which files does that leave unavailable:
//!
//! * **Figure 10** fails 1 000 random nodes one by one with no recovery and
//!   plots the unavailable-file percentage ([`DamageLedger::node_down`], then
//!   [`DamageLedger::unavailable_pct`]);
//! * **Table 3** fails 10 % / 20 % of the nodes in one wave *with* recovery,
//!   regenerating what [`DamageLedger::remove_node`] reports onto live nodes
//!   (`peerstripe-experiments`' `availability` module);
//! * the continuous-time engine in `peerstripe-repair` drives departures,
//!   returns, declarations and repairs through the same calls.
//!
//! [`DamageLedger`] answers all three.  Every count is kept incrementally —
//! a failure costs one step per block the node holds — and
//! [`DamageLedger::is_consistent`] recomputes them from the holder lists,
//! which is the oracle the property tests compare against.
//!
//! The ledger keeps the books and decides nothing: what is written off,
//! deferred or rebuilt, and where a rebuilt block may land, are the rules of
//! [`crate::planner`], their single owner, which reads a chunk here through
//! [`DamageLedger::damage`] and writes back through [`DamageLedger::promise`]
//! and [`crate::planner::commit_rebuilt`].

use crate::planner::Damage;
use crate::system::ManifestStore;
use peerstripe_overlay::NodeRef;
use peerstripe_sim::ByteSize;
use std::borrow::Cow;

/// The blocks a chunk lost with one failed node, as reported by
/// [`DamageLedger::remove_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLoss {
    /// The affected chunk's index in the ledger.
    pub chunk: u32,
    /// Number of blocks the chunk held on the failed node.
    pub blocks: usize,
}

/// What the ledger knows about one node.
#[derive(Debug, Clone, Default)]
struct Holder {
    /// Chunks with a block on the node, repeated per block.
    chunks: Vec<u32>,
    /// True while the node is down: its blocks are not counted live.
    down: bool,
}

/// Per-chunk block bookkeeping shared by every maintenance layer.
///
/// The ledger tracks, for every non-empty chunk of every stored file, which
/// nodes hold its encoded blocks, how many of those holders are up, and how
/// many the chunk needs to stay recoverable; from that it keeps, per file,
/// the number of chunks below their threshold and, in total, the number of
/// files with at least one such chunk (the availability criterion of Section
/// 6.2: a file is available only if all its chunks can be retrieved).
#[derive(Debug, Clone, Default)]
pub struct DamageLedger {
    /// Per chunk: the holder of each registered block.
    chunk_holders: Vec<Vec<NodeRef>>,
    chunk_needed: Vec<usize>,
    /// Per chunk: how many blocks it was stored with, and the size of one.
    chunk_geometry: Vec<(u32, ByteSize)>,
    /// Per chunk: the targets of its rebuilds still in flight, one per block.
    chunk_promised: Vec<Vec<NodeRef>>,
    chunk_size: Vec<ByteSize>,
    chunk_file: Vec<u32>,
    chunk_lost: Vec<bool>,
    /// Per chunk: registered blocks whose holder is up.  Frozen once the
    /// chunk is lost (nothing can change what a lost chunk costs).
    chunk_live: Vec<u32>,
    file_sizes: Vec<ByteSize>,
    /// Per file: chunks below their decode threshold, lost ones included.
    file_failed_chunks: Vec<u32>,
    /// Per file: chunks written off.
    file_lost_chunks: Vec<u32>,
    files_unavailable: usize,
    /// Indexed by node reference, like every per-node table of the engine,
    /// and grown to the largest reference the ledger was given.
    node_index: Vec<Holder>,
}

impl DamageLedger {
    /// Build the ledger from the manifests of a fully stored system, every
    /// node up.
    pub fn build(manifests: &ManifestStore) -> Self {
        let mut ledger = DamageLedger::default();
        for manifest in manifests.iter() {
            let file_idx = ledger.file_sizes.len() as u32;
            ledger.file_sizes.push(manifest.size);
            for chunk in &manifest.chunks {
                if chunk.size.is_zero() {
                    continue;
                }
                let chunk_idx = ledger.chunk_holders.len() as u32;
                let holders: Vec<NodeRef> = chunk.blocks.iter().map(|b| b.node).collect();
                for &node in &holders {
                    ledger.holder_mut(node).chunks.push(chunk_idx);
                }
                ledger.chunk_live.push(holders.len() as u32);
                let size = chunk.blocks.first().map_or(ByteSize::bytes(1), |b| b.size);
                ledger.chunk_geometry.push((holders.len() as u32, size));
                ledger.chunk_promised.push(Vec::new());
                ledger.chunk_holders.push(holders);
                ledger.chunk_needed.push(chunk.min_blocks_needed);
                ledger.chunk_size.push(chunk.size);
                ledger.chunk_file.push(file_idx);
                ledger.chunk_lost.push(false);
            }
        }
        ledger.file_failed_chunks = vec![0; ledger.file_sizes.len()];
        ledger.file_lost_chunks = vec![0; ledger.file_sizes.len()];
        ledger
    }

    /// Number of tracked (non-empty) chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_holders.len()
    }

    /// Number of tracked files.
    pub fn file_count(&self) -> usize {
        self.file_sizes.len()
    }

    /// Total user bytes across all tracked chunks (lost chunks included).
    pub fn tracked_bytes(&self) -> ByteSize {
        self.chunk_size.iter().copied().sum()
    }

    /// The holder of every block currently registered for a chunk, one per
    /// block.
    pub fn holders(&self, chunk: u32) -> &[NodeRef] {
        &self.chunk_holders[chunk as usize]
    }

    /// Minimum number of surviving blocks the chunk needs.
    pub fn needed(&self, chunk: u32) -> usize {
        self.chunk_needed[chunk as usize]
    }

    /// What the repair planner reads of the chunk, borrowed from the ledger.
    pub fn damage(&self, chunk: u32) -> Damage<'_> {
        Damage {
            holders: Cow::Borrowed(self.holders(chunk)),
            promised: self.promised(chunk),
            needed: self.needed(chunk),
            placed: self.placed(chunk),
            block_size: self.block_size(chunk),
        }
    }

    /// Rebuilt blocks of `chunk` are on their way to `targets`.
    pub fn promise(&mut self, chunk: u32, targets: &[NodeRef]) {
        self.chunk_promised[chunk as usize].extend_from_slice(targets);
    }

    /// The block of `chunk` promised to `target` arrived, or never will.
    pub fn withdraw(&mut self, chunk: u32, target: NodeRef) {
        let promised = &mut self.chunk_promised[chunk as usize];
        if let Some(at) = promised.iter().position(|n| *n == target) {
            promised.remove(at);
        }
    }

    /// How many blocks the chunk was stored with.
    pub fn placed(&self, chunk: u32) -> usize {
        self.chunk_geometry[chunk as usize].0 as usize
    }

    /// The targets of the chunk's rebuilds still in flight.
    pub fn promised(&self, chunk: u32) -> &[NodeRef] {
        &self.chunk_promised[chunk as usize]
    }

    /// Size of one block of the chunk, as it was stored.
    pub fn block_size(&self, chunk: u32) -> ByteSize {
        self.chunk_geometry[chunk as usize].1
    }

    /// User bytes covered by the chunk.
    pub fn chunk_size(&self, chunk: u32) -> ByteSize {
        self.chunk_size[chunk as usize]
    }

    /// Index of the file the chunk belongs to.
    pub fn file_of(&self, chunk: u32) -> u32 {
        self.chunk_file[chunk as usize]
    }

    /// True if the chunk has been written off as unrecoverable.
    pub fn is_lost(&self, chunk: u32) -> bool {
        self.chunk_lost[chunk as usize]
    }

    /// Number of files with at least one chunk below its decode threshold.
    pub fn files_unavailable(&self) -> usize {
        self.files_unavailable
    }

    /// Unavailable files as a percentage of all tracked files (Figure 10's
    /// y-axis).
    pub fn unavailable_pct(&self) -> f64 {
        if self.file_sizes.is_empty() {
            0.0
        } else {
            100.0 * self.files_unavailable as f64 / self.file_sizes.len() as f64
        }
    }

    /// The chunks with at least one block on `node` (one entry **per block**, so
    /// a node holding two blocks of a chunk lists it twice).
    pub fn chunks_on(&self, node: NodeRef) -> &[u32] {
        self.node_index
            .get(node)
            .map_or(&[], |holder| holder.chunks.as_slice())
    }

    /// `node` went down: every block it holds stops counting as live.  A node
    /// already down changes nothing; one the ledger has never seen changes no
    /// count, and is remembered as down should a block be placed on it.
    pub fn node_down(&mut self, node: NodeRef) {
        if !self.holder_mut(node).down {
            self.node_moved(node, true);
        }
    }

    /// `node` came back with what it held: the inverse of
    /// [`DamageLedger::node_down`], and a no-op for a node that is not down.
    pub fn node_up(&mut self, node: NodeRef) {
        if self.node_index.get(node).is_some_and(|holder| holder.down) {
            self.node_moved(node, false);
        }
    }

    /// Write a chunk off as unrecoverable: it counts against its file from
    /// now on whatever happens to its holders.  Returns true when this is the
    /// first chunk its file loses.
    pub fn mark_lost(&mut self, chunk: u32) -> bool {
        let ci = chunk as usize;
        if self.chunk_lost[ci] {
            return false;
        }
        let was_ok = self.chunk_ok(ci);
        self.chunk_lost[ci] = true;
        self.settle(ci, was_ok);
        let lost = &mut self.file_lost_chunks[self.chunk_file[ci] as usize];
        *lost += 1;
        *lost == 1
    }

    /// Register a freshly placed (regenerated) block; it counts as live unless
    /// its holder is down.  Whether it may land there is for
    /// [`crate::planner::commit_rebuilt`] to say, the one caller outside tests.
    pub fn place_block(&mut self, chunk: u32, node: NodeRef) {
        self.chunk_holders[chunk as usize].push(node);
        let holder = self.holder_mut(node);
        holder.chunks.push(chunk);
        if !holder.down {
            self.block_moved(chunk, true);
        }
    }

    /// Remove every block `node` held and report the damage per affected chunk
    /// into `losses` (cleared first), in first-placement order.  Chunks already
    /// written off are skipped (their loss has been accounted; nothing further
    /// can change it).  A caller that removes many nodes passes the same
    /// buffer each time, and the removal allocates nothing.
    pub fn remove_node(&mut self, node: NodeRef, losses: &mut Vec<NodeLoss>) {
        losses.clear();
        let Some(holder) = self.node_index.get_mut(node) else {
            return;
        };
        let was_up = !holder.down;
        let chunks = std::mem::take(&mut holder.chunks);
        for chunk_idx in chunks {
            let ci = chunk_idx as usize;
            if self.chunk_lost[ci] {
                continue;
            }
            let before = self.chunk_holders[ci].len();
            self.chunk_holders[ci].retain(|&n| n != node);
            let blocks = before - self.chunk_holders[ci].len();
            // A node can hold several blocks of one chunk: the first of its
            // entries removes them all, and the others find none left.
            if blocks == 0 {
                continue;
            }
            if was_up {
                (0..blocks).for_each(|_| self.block_moved(chunk_idx, false));
            }
            losses.push(NodeLoss {
                chunk: chunk_idx,
                blocks,
            });
        }
    }

    /// Recompute every count from the holder lists, with `alive` saying which
    /// holders are up, and compare: per-chunk live blocks, per-file failed and
    /// lost chunks and the unavailable-file total must all balance.
    /// O(blocks); the oracle for the incremental bookkeeping.
    pub fn is_consistent(&self, alive: impl Fn(NodeRef) -> bool) -> bool {
        let mut failed = vec![0u32; self.file_sizes.len()];
        let mut lost = vec![0u32; self.file_sizes.len()];
        for ci in 0..self.chunk_holders.len() {
            let fi = self.chunk_file[ci] as usize;
            if self.chunk_lost[ci] {
                // Lost chunks freeze their live count; they stay failed forever.
                failed[fi] += 1;
                lost[fi] += 1;
                continue;
            }
            let live = self.chunk_holders[ci].iter().filter(|&&n| alive(n)).count();
            if live != self.chunk_live[ci] as usize {
                return false;
            }
            if live < self.chunk_needed[ci] {
                failed[fi] += 1;
            }
        }
        failed == self.file_failed_chunks
            && lost == self.file_lost_chunks
            && failed.iter().filter(|&&c| c > 0).count() == self.files_unavailable
    }

    /// Blocks that regeneration put on a node beside another block of their
    /// chunk: those a node holds beyond one, or beyond what it held in
    /// `stored` — the ledger as built — where the store itself had put more
    /// there.  The planner keeps this at zero; O(blocks), an oracle like
    /// [`DamageLedger::is_consistent`].
    pub fn collocated_since(&self, stored: &DamageLedger) -> usize {
        let held =
            |holders: &[NodeRef], node: NodeRef| holders.iter().filter(|&&n| n == node).count();
        let mut gained = 0;
        for (now, then) in self.chunk_holders.iter().zip(&stored.chunk_holders) {
            let over = |i: &usize| held(&now[..=*i], now[*i]) > held(then, now[*i]).max(1);
            gained += (0..now.len()).filter(over).count();
        }
        gained
    }

    fn chunk_ok(&self, ci: usize) -> bool {
        !self.chunk_lost[ci] && self.chunk_live[ci] as usize >= self.chunk_needed[ci]
    }

    /// `node` went down or came back, and every block it holds with it.
    fn node_moved(&mut self, node: NodeRef, down: bool) {
        let holder = &mut self.node_index[node];
        holder.down = down;
        let chunks = std::mem::take(&mut holder.chunks);
        for &chunk in &chunks {
            self.block_moved(chunk, !down);
        }
        self.node_index[node].chunks = chunks;
    }

    /// The ledger's entry for `node`, made on first mention: a node it has
    /// never seen holds nothing and is up.
    fn holder_mut(&mut self, node: NodeRef) -> &mut Holder {
        if node >= self.node_index.len() {
            self.node_index.resize_with(node + 1, Holder::default);
        }
        &mut self.node_index[node]
    }

    /// One live block more or less for `chunk`.
    fn block_moved(&mut self, chunk: u32, up: bool) {
        let ci = chunk as usize;
        if self.chunk_lost[ci] {
            return;
        }
        let was_ok = self.chunk_ok(ci);
        if up {
            self.chunk_live[ci] += 1;
        } else {
            self.chunk_live[ci] -= 1;
        }
        self.settle(ci, was_ok);
    }

    /// Carry a chunk's crossing of its decode threshold, in either direction,
    /// into its file's failed-chunk count and the unavailable-file total.
    fn settle(&mut self, ci: usize, was_ok: bool) {
        let now_ok = self.chunk_ok(ci);
        if was_ok == now_ok {
            return;
        }
        let failed = &mut self.file_failed_chunks[self.chunk_file[ci] as usize];
        if was_ok {
            *failed += 1;
            if *failed == 1 {
                self.files_unavailable += 1;
            }
        } else {
            *failed -= 1;
            if *failed == 0 {
                self.files_unavailable -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{PeerStripe, PeerStripeConfig};
    use crate::cluster::ClusterConfig;
    use crate::policy::CodingPolicy;
    use crate::system::StorageSystem;
    use peerstripe_sim::DetRng;
    use peerstripe_trace::{CapacityModel, FileRecord};

    /// `files` 200 MB files on `nodes` 2 GB contributors.
    fn loaded_system(coding: CodingPolicy, seed: u64, nodes: usize, files: usize) -> PeerStripe {
        let mut rng = DetRng::new(seed);
        let cluster = ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(ByteSize::gb(2)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        for i in 0..files {
            assert!(ps
                .store_file(&FileRecord::new(format!("file-{i}"), ByteSize::mb(200)))
                .is_stored());
        }
        ps
    }

    #[test]
    fn ledger_matches_direct_recomputation() {
        let mut ps = loaded_system(CodingPolicy::xor_2_3(), 1, 120, 40);
        let mut ledger = DamageLedger::build(ps.manifests());
        assert_eq!(ledger.file_count(), 40);
        assert_eq!(ledger.files_unavailable(), 0);
        let mut rng = DetRng::new(2);
        for _ in 0..30 {
            let node = ps.cluster().overlay().random_alive(&mut rng).unwrap();
            ps.backend_mut().fail_node(node);
            ledger.node_down(node);
            // Ground truth: recompute availability from the manifests.
            let direct = ps
                .manifests()
                .iter()
                .filter(|m| !m.is_available(ps.cluster()))
                .count();
            assert_eq!(ledger.files_unavailable(), direct);
            assert!(ledger.is_consistent(|n| ps.cluster().overlay().is_alive(n)));
        }
    }

    #[test]
    fn coding_reduces_unavailability() {
        // Fail 10% of the nodes (the regime of Figure 10) under the three
        // policies; stronger coding must never be worse.  The larger
        // population is there because sample size matters for the ordering.
        let mut unavailable = Vec::new();
        for coding in [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
        ] {
            let mut ps = loaded_system(coding, 3, 400, 300);
            let mut ledger = DamageLedger::build(ps.manifests());
            let mut rng = DetRng::new(4);
            let victims = ps.backend_mut().fail_random(40, &mut rng);
            for (node, _) in victims {
                ledger.node_down(node);
            }
            unavailable.push(ledger.files_unavailable());
        }
        assert!(
            unavailable[1] <= unavailable[0],
            "XOR worse than no coding: {unavailable:?}"
        );
        assert!(
            unavailable[2] <= unavailable[1],
            "online worse than XOR: {unavailable:?}"
        );
        assert!(unavailable[0] > 0, "with no coding some files must be lost");
    }

    #[test]
    fn unknown_and_repeated_node_references_are_noops() {
        let ps = loaded_system(CodingPolicy::None, 5, 120, 40);
        let mut ledger = DamageLedger::build(ps.manifests());
        let unknown = ps.cluster().node_count() + 1_000;
        ledger.node_up(unknown);
        ledger.node_down(unknown);
        ledger.node_down(unknown);
        ledger.node_up(unknown);
        ledger.node_up(0);
        let mut losses = vec![NodeLoss {
            chunk: 0,
            blocks: 1,
        }];
        ledger.remove_node(unknown + 1, &mut losses);
        assert!(losses.is_empty(), "the buffer is cleared");
        assert!(ledger.is_consistent(|_| true));
        assert_eq!(ledger.files_unavailable(), 0);
        let holder = ledger.holders(0)[0];
        ledger.node_down(holder);
        let after_one = ledger.files_unavailable();
        assert!(after_one > 0, "a single-copy chunk's only holder went down");
        ledger.node_down(holder);
        assert_eq!(ledger.files_unavailable(), after_one);
        ledger.node_up(holder);
        assert_eq!(ledger.files_unavailable(), 0);
    }

    #[test]
    fn damage_ledger_mirrors_manifests() {
        let ps = loaded_system(CodingPolicy::xor_2_3(), 31, 120, 40);
        let ledger = DamageLedger::build(ps.manifests());
        assert_eq!(ledger.file_count(), 40);
        let manifest_chunks: usize = ps
            .manifests()
            .iter()
            .map(|m| m.chunks.iter().filter(|c| !c.size.is_zero()).count())
            .sum();
        assert_eq!(ledger.chunk_count(), manifest_chunks);
        let manifest_bytes: ByteSize = ps.manifests().iter().map(|m| m.size).sum();
        assert_eq!(ledger.tracked_bytes(), manifest_bytes);
        // Every (2,3) chunk needs 2 of its 3 blocks.
        for chunk in 0..ledger.chunk_count() as u32 {
            assert_eq!(ledger.needed(chunk), 2);
            assert_eq!(ledger.holders(chunk).len(), 3);
            assert!(!ledger.is_lost(chunk));
            assert!(ledger.file_sizes[ledger.file_of(chunk) as usize] > ByteSize::ZERO);
        }
    }

    #[test]
    fn damage_ledger_removal_and_placement_round_trip() {
        let ps = loaded_system(CodingPolicy::xor_2_3(), 32, 120, 40);
        let mut ledger = DamageLedger::build(ps.manifests());
        // Pick a node that holds at least one block.
        let node = (0..ps.cluster().node_count())
            .find(|n| !ledger.chunks_on(*n).is_empty())
            .expect("some node holds blocks");
        let held = ledger.chunks_on(node).to_vec();
        let mut losses = Vec::new();
        ledger.remove_node(node, &mut losses);
        assert!(!losses.is_empty());
        let removed_blocks: usize = losses.iter().map(|l| l.blocks).sum();
        assert_eq!(removed_blocks, held.len(), "one loss entry per held block");
        for loss in &losses {
            assert!(!ledger.holders(loss.chunk).contains(&node));
        }
        // The removed blocks no longer count as live, wherever the node is.
        assert!(ledger.is_consistent(|_| true));
        // Removing again is a no-op; re-placing restores the index.
        let chunk = losses[0].chunk;
        ledger.remove_node(node, &mut losses);
        assert!(losses.is_empty());
        ledger.place_block(chunk, node);
        assert_eq!(ledger.chunks_on(node), &[chunk]);
        assert!(ledger.holders(chunk).contains(&node));
        assert!(ledger.is_consistent(|_| true));
        // A chunk written off makes its file unavailable for good, once, and
        // is skipped by removal (its loss is already accounted).
        assert_eq!(ledger.files_unavailable(), 0);
        assert!(ledger.mark_lost(chunk), "the file's first lost chunk");
        assert!(!ledger.mark_lost(chunk));
        assert!(ledger.is_lost(chunk));
        assert_eq!(ledger.files_unavailable(), 1);
        ledger.remove_node(node, &mut losses);
        assert!(losses.is_empty());
        assert!(ledger.is_consistent(|_| true));
    }
}
