//! Churn experiments: availability under failures and block regeneration.
//!
//! Two of the paper's experiments stress the system with participant churn:
//!
//! * **Figure 10** fails 1 000 random nodes one by one (no recovery) and counts
//!   how many stored files become unavailable under no coding, XOR coding, and
//!   online coding.  [`AvailabilityTracker`] answers that incrementally — a
//!   per-chunk surviving-block counter indexed by node — so the sweep is linear
//!   in the number of placed blocks rather than quadratic.
//! * **Table 3** fails 10 % / 20 % of the nodes *with* recovery: the neighbours
//!   that inherit a failed node's key space regenerate its lost blocks.
//!   [`RegenerationSim`] accounts regenerated and lost bytes per failure.

use crate::cluster::StorageCluster;
use crate::system::ManifestStore;
use peerstripe_overlay::NodeRef;
use peerstripe_sim::{ByteSize, DetRng, OnlineStats};
use std::collections::BTreeMap;

/// Incremental tracker of file availability as nodes fail (no recovery).
#[derive(Debug, Clone)]
pub struct AvailabilityTracker {
    /// Per chunk: surviving block count and the minimum needed.
    chunk_alive: Vec<u32>,
    chunk_needed: Vec<u32>,
    chunk_file: Vec<u32>,
    /// Per file: number of chunks currently unrecoverable.
    file_failed_chunks: Vec<u32>,
    /// node -> indices of chunks with one block on that node (repeated per block).
    node_index: BTreeMap<NodeRef, Vec<u32>>,
    files_total: usize,
    files_unavailable: usize,
}

impl AvailabilityTracker {
    /// Build the tracker from the manifests of a fully stored system.
    pub fn build(manifests: &ManifestStore) -> Self {
        let mut tracker = AvailabilityTracker {
            chunk_alive: Vec::new(),
            chunk_needed: Vec::new(),
            chunk_file: Vec::new(),
            file_failed_chunks: Vec::new(),
            node_index: BTreeMap::new(),
            files_total: 0,
            files_unavailable: 0,
        };
        for manifest in manifests.iter() {
            let file_idx = tracker.file_failed_chunks.len() as u32;
            tracker.file_failed_chunks.push(0);
            tracker.files_total += 1;
            for chunk in &manifest.chunks {
                if chunk.size.is_zero() {
                    continue;
                }
                let chunk_idx = tracker.chunk_alive.len() as u32;
                tracker.chunk_alive.push(chunk.blocks.len() as u32);
                tracker.chunk_needed.push(chunk.min_blocks_needed as u32);
                tracker.chunk_file.push(file_idx);
                for block in &chunk.blocks {
                    tracker
                        .node_index
                        .entry(block.node)
                        .or_default()
                        .push(chunk_idx);
                }
            }
        }
        tracker
    }

    /// Total number of tracked files.
    pub fn files_total(&self) -> usize {
        self.files_total
    }

    /// Number of files currently unavailable.
    pub fn files_unavailable(&self) -> usize {
        self.files_unavailable
    }

    /// Unavailable files as a percentage of all tracked files (Figure 10's y-axis).
    pub fn unavailable_pct(&self) -> f64 {
        if self.files_total == 0 {
            0.0
        } else {
            100.0 * self.files_unavailable as f64 / self.files_total as f64
        }
    }

    /// Process the failure of a node (all blocks it held are lost, no recovery).
    pub fn fail_node(&mut self, node: NodeRef) {
        let Some(chunks) = self.node_index.remove(&node) else {
            return;
        };
        for chunk_idx in chunks {
            let ci = chunk_idx as usize;
            let was_ok = self.chunk_alive[ci] >= self.chunk_needed[ci];
            self.chunk_alive[ci] = self.chunk_alive[ci].saturating_sub(1);
            let now_ok = self.chunk_alive[ci] >= self.chunk_needed[ci];
            if was_ok && !now_ok {
                let fi = self.chunk_file[ci] as usize;
                self.file_failed_chunks[fi] += 1;
                if self.file_failed_chunks[fi] == 1 {
                    self.files_unavailable += 1;
                }
            }
        }
    }
}

/// The blocks a chunk lost with one failed node, as reported by
/// [`DamageLedger::remove_node`].
#[derive(Debug, Clone)]
pub struct NodeLoss {
    /// The affected chunk's index in the ledger.
    pub chunk: u32,
    /// Sizes of the blocks the chunk held on the failed node.
    pub lost: Vec<ByteSize>,
    /// Number of blocks the chunk still has registered after the removal.
    pub survivors: usize,
}

/// Per-chunk block bookkeeping shared by every maintenance layer.
///
/// The ledger tracks, for every non-empty chunk of every stored file, which
/// nodes hold its encoded blocks and how many of them the chunk needs to stay
/// recoverable.  [`RegenerationSim`] (the single-wave Table 3 sweep) and the
/// event-driven engine in `peerstripe-repair` both drive their damage
/// assessment through this structure, so "what did this failure cost" is
/// answered the same way at every time scale.
#[derive(Debug, Clone, Default)]
pub struct DamageLedger {
    chunk_blocks: Vec<Vec<(NodeRef, ByteSize)>>,
    chunk_needed: Vec<usize>,
    chunk_size: Vec<ByteSize>,
    chunk_file: Vec<u32>,
    chunk_lost: Vec<bool>,
    file_sizes: Vec<ByteSize>,
    node_index: BTreeMap<NodeRef, Vec<u32>>,
}

impl DamageLedger {
    /// Build the ledger from the manifests of a fully stored system.
    pub fn build(manifests: &ManifestStore) -> Self {
        let mut ledger = DamageLedger::default();
        for manifest in manifests.iter() {
            let file_idx = ledger.file_sizes.len() as u32;
            ledger.file_sizes.push(manifest.size);
            for chunk in &manifest.chunks {
                if chunk.size.is_zero() {
                    continue;
                }
                let chunk_idx = ledger.chunk_blocks.len() as u32;
                let blocks: Vec<(NodeRef, ByteSize)> =
                    chunk.blocks.iter().map(|b| (b.node, b.size)).collect();
                for (node, _) in &blocks {
                    ledger.node_index.entry(*node).or_default().push(chunk_idx);
                }
                ledger.chunk_blocks.push(blocks);
                ledger.chunk_needed.push(chunk.min_blocks_needed);
                ledger.chunk_size.push(chunk.size);
                ledger.chunk_file.push(file_idx);
                ledger.chunk_lost.push(false);
            }
        }
        ledger
    }

    /// Number of tracked (non-empty) chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_blocks.len()
    }

    /// Number of tracked files.
    pub fn file_count(&self) -> usize {
        self.file_sizes.len()
    }

    /// Total user bytes across all tracked chunks (lost chunks included).
    pub fn tracked_bytes(&self) -> ByteSize {
        self.chunk_size.iter().copied().sum()
    }

    /// The blocks currently registered for a chunk.
    pub fn blocks(&self, chunk: u32) -> &[(NodeRef, ByteSize)] {
        &self.chunk_blocks[chunk as usize]
    }

    /// Minimum number of surviving blocks the chunk needs.
    pub fn needed(&self, chunk: u32) -> usize {
        self.chunk_needed[chunk as usize]
    }

    /// User bytes covered by the chunk.
    pub fn chunk_size(&self, chunk: u32) -> ByteSize {
        self.chunk_size[chunk as usize]
    }

    /// Index of the file the chunk belongs to.
    pub fn file_of(&self, chunk: u32) -> u32 {
        self.chunk_file[chunk as usize]
    }

    /// Size of a tracked file.
    pub fn file_size(&self, file: u32) -> ByteSize {
        self.file_sizes[file as usize]
    }

    /// True if the chunk has been written off as unrecoverable.
    pub fn is_lost(&self, chunk: u32) -> bool {
        self.chunk_lost[chunk as usize]
    }

    /// Write a chunk off as unrecoverable.
    pub fn mark_lost(&mut self, chunk: u32) {
        self.chunk_lost[chunk as usize] = true;
    }

    /// The chunks with at least one block on `node` (one entry **per block**, so
    /// a node holding two blocks of a chunk lists it twice).
    pub fn chunks_on(&self, node: NodeRef) -> &[u32] {
        self.node_index.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Register a freshly placed (regenerated) block.
    pub fn place_block(&mut self, chunk: u32, node: NodeRef, size: ByteSize) {
        self.chunk_blocks[chunk as usize].push((node, size));
        self.node_index.entry(node).or_default().push(chunk);
    }

    /// Remove every block `node` held and report the damage per affected chunk,
    /// in first-placement order.  Chunks already written off are skipped (their
    /// loss has been accounted; nothing further can change it).
    pub fn remove_node(&mut self, node: NodeRef) -> Vec<NodeLoss> {
        let Some(chunks) = self.node_index.remove(&node) else {
            return Vec::new();
        };
        let mut dedup = std::collections::BTreeSet::new();
        let mut losses = Vec::new();
        for chunk_idx in chunks {
            let ci = chunk_idx as usize;
            if self.chunk_lost[ci] || !dedup.insert(chunk_idx) {
                // Either already written off, or already handled for this
                // removal (a node can hold several blocks of one chunk).
                continue;
            }
            let lost: Vec<ByteSize> = self.chunk_blocks[ci]
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|(_, s)| *s)
                .collect();
            self.chunk_blocks[ci].retain(|(n, _)| *n != node);
            losses.push(NodeLoss {
                chunk: chunk_idx,
                lost,
                survivors: self.chunk_blocks[ci].len(),
            });
        }
        losses
    }
}

/// Per-failure accounting produced by [`RegenerationSim`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FailureAccount {
    /// Bytes of encoded blocks regenerated in response to this failure.
    pub regenerated: ByteSize,
    /// Bytes of user data that became unrecoverable at this failure.
    pub lost: ByteSize,
}

/// Aggregate result of a regeneration sweep (one row of Table 3).
#[derive(Debug, Clone)]
pub struct RegenerationReport {
    /// Number of nodes failed.
    pub nodes_failed: usize,
    /// Total bytes of user data lost (chunks that could not be recovered).
    pub data_lost: ByteSize,
    /// Total bytes of encoded blocks regenerated.
    pub data_regenerated: ByteSize,
    /// Distribution of regenerated bytes per failure.
    pub per_failure: OnlineStats,
}

/// Simulation of failure-driven block regeneration (Section 4.4 / Table 3).
///
/// A thin adapter over [`DamageLedger`]: each failure removes the node's blocks
/// from the ledger, writes off chunks that fall below their decode threshold,
/// and regenerates the rest onto live nodes.  Recovery is instantaneous: the
/// continuous-time engine in `peerstripe-repair` is where repairs take time
/// and bandwidth; this adapter remains the single-wave Table 3 accounting.
pub struct RegenerationSim {
    ledger: DamageLedger,
}

impl RegenerationSim {
    /// Build the simulation from stored manifests.
    pub fn build(manifests: &ManifestStore) -> Self {
        RegenerationSim {
            ledger: DamageLedger::build(manifests),
        }
    }

    /// Total user bytes tracked.
    pub fn tracked_bytes(&self) -> ByteSize {
        self.ledger.tracked_bytes()
    }

    /// The underlying block ledger (current placements, losses, damage).
    pub fn ledger(&self) -> &DamageLedger {
        &self.ledger
    }

    /// Fail one node: regenerate what can be regenerated onto live nodes chosen
    /// through the cluster, and account what is lost.
    pub fn fail_node(
        &mut self,
        node: NodeRef,
        cluster: &mut StorageCluster,
        rng: &mut DetRng,
    ) -> FailureAccount {
        let mut account = FailureAccount::default();
        let mut regen_batch: Vec<(u32, ByteSize)> = Vec::new();
        for loss in self.ledger.remove_node(node) {
            if loss.survivors >= self.ledger.needed(loss.chunk) {
                for size in loss.lost {
                    regen_batch.push((loss.chunk, size));
                }
            } else {
                self.ledger.mark_lost(loss.chunk);
                account.lost += self.ledger.chunk_size(loss.chunk);
            }
        }
        // Place the regenerated blocks on live nodes (the takeover inheritors are
        // the numerically closest survivors, which `k_closest` of a random probe
        // near the failed node approximates; any live node with space works for
        // the accounting in Table 3).
        for (chunk_idx, size) in regen_batch {
            let target = cluster
                .overlay()
                .route_quiet(peerstripe_overlay::Id::random(rng))
                .filter(|n| cluster.node(*n).can_store(size));
            if let Some(target) = target {
                self.ledger.place_block(chunk_idx, target, size);
                account.regenerated += size;
            } else {
                // Nowhere to put it right now: the redundancy is not restored,
                // but the chunk is not lost either (online codes let us retry).
            }
        }
        account
    }

    /// Fail a fraction of the currently live nodes and return the aggregate report.
    pub fn fail_fraction(
        &mut self,
        cluster: &mut StorageCluster,
        fraction: f64,
        rng: &mut DetRng,
    ) -> RegenerationReport {
        let live: Vec<NodeRef> = cluster.overlay().alive_nodes().collect();
        let count = ((live.len() as f64) * fraction).round() as usize;
        let mut order = live;
        rng.shuffle(&mut order);
        order.truncate(count);
        let mut report = RegenerationReport {
            nodes_failed: count,
            data_lost: ByteSize::ZERO,
            data_regenerated: ByteSize::ZERO,
            per_failure: OnlineStats::new(),
        };
        for node in order {
            cluster.fail_node(node);
            let account = self.fail_node(node, cluster, rng);
            report.data_lost += account.lost;
            report.data_regenerated += account.regenerated;
            report.per_failure.push(account.regenerated.as_u64() as f64);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{PeerStripe, PeerStripeConfig};
    use crate::cluster::ClusterConfig;
    use crate::policy::CodingPolicy;
    use crate::system::StorageSystem;
    use peerstripe_trace::{CapacityModel, FileRecord};

    fn loaded_system(coding: CodingPolicy, seed: u64) -> PeerStripe {
        let mut rng = DetRng::new(seed);
        let cluster = ClusterConfig {
            nodes: 120,
            capacity: CapacityModel::Fixed(ByteSize::gb(2)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        for i in 0..40 {
            assert!(ps
                .store_file(&FileRecord::new(format!("file-{i}"), ByteSize::mb(200)))
                .is_stored());
        }
        ps
    }

    /// Like `loaded_system` but with a larger population and workload, used by
    /// the availability-ordering test where sample size matters.
    fn large_loaded_system(coding: CodingPolicy, seed: u64) -> PeerStripe {
        let mut rng = DetRng::new(seed);
        let cluster = ClusterConfig {
            nodes: 400,
            capacity: CapacityModel::Fixed(ByteSize::gb(2)),
            report_fraction: 1.0,
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        for i in 0..300 {
            assert!(ps
                .store_file(&FileRecord::new(format!("file-{i}"), ByteSize::mb(200)))
                .is_stored());
        }
        ps
    }

    #[test]
    fn tracker_matches_direct_recomputation() {
        let mut ps = loaded_system(CodingPolicy::xor_2_3(), 1);
        let mut tracker = AvailabilityTracker::build(ps.manifests());
        assert_eq!(tracker.files_total(), 40);
        assert_eq!(tracker.files_unavailable(), 0);
        let mut rng = DetRng::new(2);
        for _ in 0..30 {
            let node = ps.cluster().overlay().random_alive(&mut rng).unwrap();
            ps.cluster_mut().fail_node(node);
            tracker.fail_node(node);
            // Ground truth: recompute availability from the manifests.
            let direct = ps
                .manifests()
                .iter()
                .filter(|m| !m.is_available(ps.cluster()))
                .count();
            assert_eq!(tracker.files_unavailable(), direct);
        }
    }

    #[test]
    fn coding_reduces_unavailability() {
        // Fail 10% of the nodes (the regime of Figure 10) under the three
        // policies; stronger coding must never be worse.
        let mut unavailable = Vec::new();
        for coding in [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
        ] {
            let mut ps = large_loaded_system(coding, 3);
            let mut tracker = AvailabilityTracker::build(ps.manifests());
            let mut rng = DetRng::new(4);
            let victims = ps.cluster_mut().fail_random(40, &mut rng);
            for (node, _) in victims {
                tracker.fail_node(node);
            }
            unavailable.push(tracker.files_unavailable());
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
    fn unknown_node_failure_is_a_noop() {
        let ps = loaded_system(CodingPolicy::None, 5);
        let mut tracker = AvailabilityTracker::build(ps.manifests());
        tracker.fail_node(999_999);
        assert_eq!(tracker.files_unavailable(), 0);
    }

    #[test]
    fn damage_ledger_mirrors_manifests() {
        let ps = loaded_system(CodingPolicy::xor_2_3(), 31);
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
            assert_eq!(ledger.blocks(chunk).len(), 3);
            assert!(!ledger.is_lost(chunk));
            assert!(ledger.file_size(ledger.file_of(chunk)) > ByteSize::ZERO);
        }
    }

    #[test]
    fn damage_ledger_removal_and_placement_round_trip() {
        let ps = loaded_system(CodingPolicy::xor_2_3(), 32);
        let mut ledger = DamageLedger::build(ps.manifests());
        // Pick a node that holds at least one block.
        let node = (0..ps.cluster().node_count())
            .find(|n| !ledger.chunks_on(*n).is_empty())
            .expect("some node holds blocks");
        let held = ledger.chunks_on(node).to_vec();
        let losses = ledger.remove_node(node);
        assert!(!losses.is_empty());
        let removed_blocks: usize = losses.iter().map(|l| l.lost.len()).sum();
        assert_eq!(removed_blocks, held.len(), "one loss entry per held block");
        for loss in &losses {
            assert_eq!(loss.survivors, ledger.blocks(loss.chunk).len());
            assert!(ledger.blocks(loss.chunk).iter().all(|(n, _)| *n != node));
        }
        // Removing again is a no-op; re-placing restores the index.
        assert!(ledger.remove_node(node).is_empty());
        let chunk = losses[0].chunk;
        ledger.place_block(chunk, node, ByteSize::mb(1));
        assert_eq!(ledger.chunks_on(node), &[chunk]);
        assert!(ledger.blocks(chunk).contains(&(node, ByteSize::mb(1))));
        // Lost chunks are skipped by removal (their loss is already accounted).
        ledger.mark_lost(chunk);
        assert!(ledger.is_lost(chunk));
        assert!(ledger.remove_node(node).is_empty());
    }

    #[test]
    fn regeneration_limits_data_loss() {
        let mut ps = loaded_system(CodingPolicy::online_default(), 6);
        let mut rng = DetRng::new(7);
        let mut sim = RegenerationSim::build(ps.manifests());
        let tracked = sim.tracked_bytes();
        let report = sim.fail_fraction(ps.cluster_mut(), 0.10, &mut rng);
        assert_eq!(report.nodes_failed, 12);
        assert!(report.data_regenerated > ByteSize::ZERO);
        // With 10% failures and a tolerance of two losses per chunk plus
        // regeneration, losses must be a small fraction of the data.
        assert!(
            report.data_lost.as_u64() < tracked.as_u64() / 10,
            "lost {} of {}",
            report.data_lost,
            tracked
        );
        assert_eq!(report.per_failure.count(), 12);
    }

    #[test]
    fn without_coding_regeneration_cannot_help() {
        let mut ps = loaded_system(CodingPolicy::None, 8);
        let mut rng = DetRng::new(9);
        let mut sim = RegenerationSim::build(ps.manifests());
        let report = sim.fail_fraction(ps.cluster_mut(), 0.20, &mut rng);
        // A lost single-copy chunk cannot be regenerated, so every failed node's
        // data is simply gone.
        assert_eq!(report.data_regenerated, ByteSize::ZERO);
        assert!(report.data_lost > ByteSize::ZERO);
    }
}
