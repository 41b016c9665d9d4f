//! The repair planner: which lost blocks are rebuilt, and where.
//!
//! "Failed participants trigger regeneration of the lost blocks" (Section
//! 4.4) is one decision, made here for everything that repairs — the
//! continuous-time engine of `peerstripe-repair`, the client's
//! [`handle_node_failure`], and Table 3's failure wave.  Four rules, each
//! stated once:
//!
//! 1. **The threshold** ([`Damage::verdict`]).  A chunk with fewer registered
//!    blocks than it needs to decode is written off; one with enough
//!    registered but too few of them on live nodes waits; any other is
//!    rebuilt.
//! 2. **The exclusion set** ([`RepairPlanner::targets`]).  A rebuilt block
//!    goes to no node that holds a registered block of its chunk, nor to one
//!    already promised a block of it by a rebuild still in flight.
//! 3. **The domain cap** ([`domain_cap`]).  Under a topology no failure
//!    domain may hold more blocks of a chunk than the chunk can lose.
//! 4. **The commit** ([`commit`]).  A rebuilt block is registered only if its
//!    target is alive, holds no block of the chunk, and accepts the charge;
//!    otherwise it is skipped — never re-drawn.
//!
//! *Where* within those rules is the [`PlacementStrategy`]'s choice; the
//! planner builds the one [`RepairRequest`] and hands it over.  A caller may
//! offer preferred candidates (the client's takeover inheritors); they ride
//! in the request and pass the test a drawn target passes.  *When* a repair
//! runs, what it costs in bandwidth and what bytes it moves stay with the
//! callers.
//!
//! [`handle_node_failure`]: crate::client::PeerStripe::handle_node_failure

use crate::cluster::StorageCluster;
use crate::ledger::DamageLedger;
use crate::system::ChunkPlacement;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::{ClusterView, PlacementStrategy, RepairRequest, Topology};
use peerstripe_sim::{ByteSize, DetRng};

/// What the planner reads of one damaged chunk, whoever keeps its books: a
/// [`DamageLedger`] ([`DamageLedger::damage`]) or a client's manifest
/// ([`Damage::of_placement`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Damage {
    /// The holder of every block still registered, one entry per block (the
    /// failed node's are gone; a holder that is merely down is listed).
    pub holders: Vec<NodeRef>,
    /// The targets of rebuilds still in flight, one entry per promised block.
    pub promised: Vec<NodeRef>,
    /// Blocks the chunk needs to decode.
    pub needed: usize,
    /// Blocks the chunk was stored with.
    pub placed: usize,
    /// Size a target must have room for.
    pub block_size: ByteSize,
}

/// Rule 1's answer for a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fewer registered blocks than the chunk needs: the data is gone.
    WriteOff,
    /// Enough registered blocks, too few of them on live nodes: not
    /// decodable now, may be again when a holder returns.
    Defer,
    /// Decodable: lost blocks can be rebuilt.
    Rebuild,
}

impl Damage {
    /// `chunk` as its manifest entry records it, with `failed`'s blocks gone.
    pub fn of_placement(chunk: &ChunkPlacement, failed: NodeRef) -> Self {
        let holders = chunk.blocks.iter().map(|b| b.node);
        Damage {
            holders: holders.filter(|&n| n != failed).collect(),
            promised: Vec::new(),
            needed: chunk.min_blocks_needed,
            placed: chunk.blocks.len(),
            block_size: chunk.blocks.first().map_or(ByteSize::ZERO, |b| b.size),
        }
    }

    /// Rule 1: the threshold.
    pub fn verdict<V: ClusterView + ?Sized>(&self, view: &V) -> Verdict {
        let live = || self.holders.iter().filter(|&&n| view.is_alive(n)).count();
        if self.holders.len() < self.needed {
            Verdict::WriteOff
        } else if live() < self.needed {
            Verdict::Defer
        } else {
            Verdict::Rebuild
        }
    }
}

/// Rule 3: the most blocks of one chunk a failure domain may hold — what the
/// chunk can lose and still decode, so that losing a whole domain never
/// loses the chunk.  Without a topology there are no domains to cap.
pub fn domain_cap(topology: Option<&Topology>, placed: usize, needed: usize) -> usize {
    match topology {
        Some(_) => placed.saturating_sub(needed).max(1),
        None => usize::MAX,
    }
}

/// The strategy and topology rebuilt blocks are placed with.
pub struct RepairPlanner<'a> {
    /// Where, within the rules.
    pub strategy: &'a mut dyn PlacementStrategy,
    /// The failure domains the cap is counted over, if any.
    pub topology: Option<&'a Topology>,
}

impl RepairPlanner<'_> {
    /// Rules 2 and 3: up to `want` targets for rebuilt blocks of a chunk
    /// whose verdict is [`Verdict::Rebuild`], `preferred` candidates first.
    /// The only draws are the strategy's, on `rng`.
    pub fn targets(
        &mut self,
        view: &dyn ClusterView,
        damage: &Damage,
        want: usize,
        preferred: &[NodeRef],
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        // As the engine always drew: promised targets are not yet excluded.
        let excluded = damage.holders.clone();
        let request = RepairRequest {
            want,
            size: damage.block_size,
            holders: &excluded,
            preferred,
            domain_cap: domain_cap(self.topology, damage.placed, damage.needed),
        };
        self.strategy
            .repair_targets(view, self.topology, &request, rng)
    }
}

/// Rule 4: a rebuilt block lands on `target` only if the node is alive,
/// is not among the chunk's `holders`, and accepts the `charge`.
pub fn commit<V: ClusterView>(
    view: &mut V,
    mut holders: impl Iterator<Item = NodeRef>,
    target: NodeRef,
    charge: impl FnOnce(&mut V) -> bool,
) -> bool {
    // As the engine always committed: the holder test is not yet asked.
    let _ = &mut holders;
    view.is_alive(target) && charge(view)
}

/// Rule 4 over a ledger and the simulated cluster: the block of `chunk`
/// promised to `target` arrives.  Registered and charged to the node's
/// capacity if [`commit`] lets it; dropped if not, or if the chunk was
/// written off while the block was on its way.
pub fn commit_rebuilt(
    ledger: &mut DamageLedger,
    cluster: &mut StorageCluster,
    chunk: u32,
    target: NodeRef,
) -> bool {
    ledger.withdraw(chunk, target);
    let size = ledger.block_size(chunk);
    let holders = ledger.blocks(chunk).iter().map(|(node, _)| *node);
    let landed = !ledger.is_lost(chunk)
        && commit(cluster, holders, target, |cluster| {
            cluster.reserve(target, size).is_ok()
        });
    if landed {
        ledger.place_block(chunk, target, size);
    }
    landed
}
