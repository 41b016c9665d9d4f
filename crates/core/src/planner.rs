//! The repair planner: which lost blocks are rebuilt, and where.
//!
//! "Failed participants trigger regeneration of the lost blocks" (Section
//! 4.4) is one decision, made here for everything that repairs: the engine
//! of `peerstripe-repair`, the client's per-chunk repair step (`rebuild_chunk`,
//! which [`handle_node_failure`] runs once per damaged chunk) and Table 3's
//! failure wave.  Four rules, each stated once:
//!
//! 1. **Threshold** ([`Damage::verdict`]): fewer registered blocks than the
//!    chunk needs — written off; too few of them on live nodes — deferred;
//!    otherwise rebuilt.
//! 2. **Exclusion** ([`Damage::targets`]): no rebuilt block goes to a holder
//!    of a registered block of its chunk, nor to a node a rebuild still in
//!    flight has promised one.
//! 3. **Domain cap** ([`domain_cap`]): under a topology no failure domain
//!    holds more blocks of a chunk than the chunk can lose.
//! 4. **Commit** ([`commit`]): a rebuilt block is registered only if its
//!    target is alive, holds no block of the chunk and accepts the charge;
//!    otherwise it is skipped — never re-drawn.
//!
//! *Where* within those rules is the [`PlacementStrategy`]'s choice, made on
//! the one [`RepairRequest`] built here.  *When* a repair runs, what it costs
//! and what bytes it moves stay with the callers.
//!
//! [`handle_node_failure`]: crate::client::PeerStripe::handle_node_failure

use crate::cluster::StorageCluster;
use crate::ledger::DamageLedger;
use crate::system::ChunkPlacement;
use peerstripe_overlay::NodeRef;
use peerstripe_placement::{ClusterView, PlacementStrategy, RepairRequest, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use std::borrow::Cow;

/// What the planner reads of one damaged chunk, from a ledger
/// ([`DamageLedger::damage`], borrowed) or a client's manifest
/// ([`Damage::of_placement`], owned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Damage<'a> {
    /// The holder of every block still registered, down or up, one per block.
    pub holders: Cow<'a, [NodeRef]>,
    /// The targets of rebuilds still in flight, one per promised block.
    pub promised: &'a [NodeRef],
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
    /// Too few of the registered blocks are on live nodes right now.
    Defer,
    /// Decodable: lost blocks can be rebuilt.
    Rebuild,
}

impl Damage<'_> {
    /// `chunk` as its manifest entry records it, with `failed`'s blocks gone.
    pub fn of_placement(chunk: &ChunkPlacement, failed: NodeRef) -> Damage<'static> {
        let holders = chunk.blocks.iter().map(|b| b.node);
        Damage {
            holders: holders.filter(|&n| n != failed).collect(),
            promised: &[],
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

    /// Rules 2 and 3: up to `want` targets for rebuilt blocks of a chunk
    /// whose verdict is [`Verdict::Rebuild`].  `preferred` candidates come
    /// first, each taken only if it passes what a drawn target must — alive,
    /// room, outside the exclusion set, its domain under the cap; `strategy`
    /// draws the rest, and its draws on `rng` are the only ones.  A preferred
    /// candidate taken joins a copy of the promised targets, made only then.
    pub fn targets(
        &self,
        strategy: &mut dyn PlacementStrategy,
        topology: Option<&Topology>,
        view: &dyn ClusterView,
        want: usize,
        preferred: &[NodeRef],
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let cap = domain_cap(topology, self.placed, self.needed);
        let domain = |node: NodeRef| topology.and_then(|t| t.domain_of(node));
        let mut promised = Cow::Borrowed(self.promised);
        for &candidate in preferred {
            let excluded = || self.holders.iter().chain(promised.iter());
            let beside = |n: &&NodeRef| domain(**n).is_some() && domain(**n) == domain(candidate);
            if promised.len() - self.promised.len() < want
                && view.is_alive(candidate)
                && !excluded().any(|&n| n == candidate)
                && excluded().filter(beside).count() < cap
                && view.can_store(candidate, self.block_size)
            {
                promised.to_mut().push(candidate);
            }
        }
        let taken = &promised[self.promised.len()..];
        if taken.len() == want {
            return taken.to_vec();
        }
        let request = RepairRequest {
            want: want - taken.len(),
            size: self.block_size,
            holders: &self.holders,
            promised: &promised,
            domain_cap: cap,
        };
        let mut targets = strategy.repair_targets(view, topology, &request, rng);
        targets.splice(0..0, taken.iter().copied());
        targets
    }
}

/// Rule 3: the most blocks of one chunk a failure domain may hold — what the
/// chunk can lose and still decode.  No topology, no domains to cap.
pub fn domain_cap(topology: Option<&Topology>, placed: usize, needed: usize) -> usize {
    topology.map_or(usize::MAX, |_| placed.saturating_sub(needed).max(1))
}

/// Rule 4: a rebuilt block lands on `target` only if the node is alive, is
/// not among the chunk's `holders`, and accepts the `charge`.
pub fn commit<V: ClusterView>(
    view: &mut V,
    mut holders: impl Iterator<Item = NodeRef>,
    target: NodeRef,
    charge: impl FnOnce(&mut V) -> bool,
) -> bool {
    view.is_alive(target) && !holders.any(|holder| holder == target) && charge(view)
}

/// Rule 4 over a ledger and the simulated cluster: the block of `chunk`
/// promised to `target` arrives, and is registered and charged to the node if
/// [`commit`] lets it and the chunk was not written off on the way.
pub fn commit_rebuilt(
    ledger: &mut DamageLedger,
    cluster: &mut StorageCluster,
    chunk: u32,
    target: NodeRef,
) -> bool {
    ledger.withdraw(chunk, target);
    let size = ledger.block_size(chunk);
    let holders = ledger.holders(chunk).iter().copied();
    let reserve = |cluster: &mut StorageCluster| cluster.reserve(target, size).is_ok();
    let landed = !ledger.is_lost(chunk) && commit(cluster, holders, target, reserve);
    if landed {
        ledger.place_block(chunk, target);
    }
    landed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{PeerStripe, PeerStripeConfig};
    use crate::cluster::ClusterConfig;
    use crate::policy::CodingPolicy;
    use crate::system::StorageSystem;
    use peerstripe_placement::{Domain, StrategyKind};
    use peerstripe_trace::{CapacityModel, FileRecord};

    const NODES: usize = 36;
    const CODINGS: [CodingPolicy; 5] = [
        CodingPolicy::None,
        CodingPolicy::Xor { group: 2 },
        CodingPolicy::Online {
            placed: 6,
            tolerable: 2,
            overhead: 1.03,
        },
        CodingPolicy::ReedSolomon { data: 4, parity: 2 },
        CodingPolicy::ReedSolomon { data: 5, parity: 3 },
    ];

    /// Twelve 60 MB files on `nodes` 1 GB contributors, and their ledger.
    fn stored(coding: CodingPolicy, nodes: usize, seed: u64) -> (PeerStripe, DamageLedger) {
        let cluster = ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            track_objects: true,
        }
        .build(&mut DetRng::new(seed));
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        for i in 0..12 {
            let file = FileRecord::new(format!("f{i}"), ByteSize::mb(60));
            assert!(ps.store_file(&file).is_stored());
        }
        let ledger = DamageLedger::build(ps.manifests());
        (ps, ledger)
    }

    /// Every seed, coding, strategy and topology choice the properties walk.
    fn cases() -> impl Iterator<Item = (u64, CodingPolicy, StrategyKind, Option<Topology>)> {
        (0..6u64).flat_map(|seed| {
            CODINGS.into_iter().flat_map(move |coding| {
                StrategyKind::ALL.into_iter().flat_map(move |kind| {
                    let grouped = Topology::uniform_groups(NODES, 3 + (seed as usize % 4) * 3);
                    [None, Some(grouped)].map(|topology| (seed, coding, kind, topology))
                })
            })
        })
    }

    /// Knock a deployment about: some nodes merely down, some declared and
    /// removed, some targets promised, one node filled to the brim.
    fn damaged(
        coding: CodingPolicy,
        seed: u64,
        topology: Option<&Topology>,
    ) -> (StorageCluster, DamageLedger, DetRng) {
        let (ps, mut ledger) = stored(coding, NODES, seed);
        let mut cluster = ps.into_cluster();
        if let Some(topology) = topology {
            cluster.adopt_topology(topology);
        }
        let mut rng = DetRng::new(seed ^ 0x9e37);
        for _ in 0..2 + rng.index(6) {
            let node = rng.index(NODES);
            cluster.fail_node(node);
            if rng.chance(0.5) {
                ledger.node_down(node);
            } else {
                ledger.remove_node(node, &mut Vec::new());
            }
        }
        for _ in 0..rng.index(12) {
            let chunk = rng.index(ledger.chunk_count()) as u32;
            ledger.promise(chunk, &[rng.index(NODES)]);
        }
        let full = rng.index(NODES);
        let free = cluster.report_of(full);
        cluster.reserve(full, free).unwrap();
        (cluster, ledger, rng)
    }

    #[test]
    fn the_verdict_is_the_threshold_and_nothing_else() {
        let mut seen = [0usize; 3];
        for (seed, coding, _, _) in cases() {
            let (cluster, ledger, _) = damaged(coding, seed, None);
            for chunk in 0..ledger.chunk_count() as u32 {
                let registered = ledger.holders(chunk).len();
                let alive = |n: &&NodeRef| cluster.is_alive(**n);
                let live = ledger.holders(chunk).iter().filter(alive).count();
                let needed = ledger.needed(chunk);
                let verdict = ledger.damage(chunk).verdict(&cluster);
                assert_eq!(verdict == Verdict::WriteOff, registered < needed);
                assert_eq!(
                    verdict == Verdict::Defer,
                    live < needed && needed <= registered
                );
                seen[verdict as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 20), "each verdict met: {seen:?}");
    }

    #[test]
    fn no_target_is_dead_a_holder_promised_or_over_the_cap() {
        let mut drawn = 0;
        let mut preferred_taken = 0;
        for (seed, coding, kind, topology) in cases() {
            let (cluster, ledger, mut rng) = damaged(coding, seed, topology.as_ref());
            let mut strategy = kind.build(seed);
            // Only a strategy that spreads over domains caps what it draws.
            let caps = topology.is_some() && kind != StrategyKind::OverlayRandom;
            for chunk in 0..ledger.chunk_count() as u32 {
                let damage = ledger.damage(chunk);
                if damage.verdict(&cluster) != Verdict::Rebuild {
                    continue;
                }
                let want = 1 + rng.index(3);
                let preferred: Vec<NodeRef> = (0..rng.index(4)).map(|_| rng.index(NODES)).collect();
                let targets = damage.targets(
                    strategy.as_mut(),
                    topology.as_ref(),
                    &cluster,
                    want,
                    &preferred,
                    &mut rng,
                );
                assert!(targets.len() <= want);
                let taken = targets.iter().take_while(|t| preferred.contains(t)).count();
                let cap = domain_cap(topology.as_ref(), damage.placed, damage.needed);
                let in_domain_of = |node: NodeRef, nodes: &[NodeRef]| {
                    let domain = |n: NodeRef| topology.as_ref().and_then(|t| t.domain_of(n));
                    let same = |n: &&NodeRef| domain(**n) == domain(node);
                    nodes.iter().filter(same).count()
                };
                for (i, &target) in targets.iter().enumerate() {
                    let label = format!("{} / {} / seed {seed}", coding.label(), kind.label());
                    assert!(cluster.is_alive(target), "{label}: dead target");
                    assert!(cluster.can_store(target, damage.block_size), "{label}");
                    assert!(!damage.holders.contains(&target), "{label}: a holder");
                    assert!(!damage.promised.contains(&target), "{label}: promised");
                    assert!(!targets[..i].contains(&target), "{label}: drawn twice");
                    if caps {
                        let held = in_domain_of(target, &damage.holders)
                            + in_domain_of(target, damage.promised)
                            + in_domain_of(target, &targets[..i]);
                        assert!(
                            held < cap,
                            "{label}: {held} blocks in its domain, cap {cap}"
                        );
                    }
                }
                preferred_taken += taken;
                drawn += targets.len() - taken;
            }
        }
        assert!(
            drawn > 500 && preferred_taken > 200,
            "{drawn} / {preferred_taken}"
        );
    }

    #[test]
    fn a_preferred_candidate_that_passes_is_taken_first() {
        let (ps, ledger) = stored(CodingPolicy::rs_default(), NODES, 1);
        let mut cluster = ps.into_cluster();
        let victim = ledger.holders(0)[0];
        cluster.fail_node(victim);
        let mut ledger = ledger;
        ledger.remove_node(victim, &mut Vec::new());
        let damage = ledger.damage(0);
        let good = (0..NODES)
            .find(|n| cluster.is_alive(*n) && !damage.holders.contains(n))
            .unwrap();
        for kind in StrategyKind::ALL {
            let mut strategy = kind.build(1);
            // The dead victim and a holder are passed over, the good one taken.
            let preferred = [victim, damage.holders[0], good];
            let mut rng = DetRng::new(2);
            let targets =
                damage.targets(strategy.as_mut(), None, &cluster, 1, &preferred, &mut rng);
            assert_eq!(targets, vec![good], "{}", kind.label());
            assert_eq!(rng.next_u64(), DetRng::new(2).next_u64(), "nothing drawn");
            // Under a topology that puts it beside two holders — RS(4, 2)'s
            // cap — it is passed over, whatever the strategy caps itself.
            let crowded = vec![damage.holders[0], damage.holders[1], good];
            let rest = (0..NODES).filter(|n| !crowded.contains(n)).collect();
            let domain = |label: &str, members| Domain {
                label: label.to_string(),
                members,
            };
            let topology =
                Topology::from_domains(vec![domain("crowded", crowded), domain("rest", rest)]);
            let topology = Some(&topology);
            let targets =
                damage.targets(strategy.as_mut(), topology, &cluster, 1, &[good], &mut rng);
            assert!(!targets.contains(&good), "{}", kind.label());
        }
    }

    #[test]
    fn a_refused_commit_changes_nothing() {
        let (ps, mut ledger) = stored(CodingPolicy::rs_default(), NODES, 2);
        let mut cluster = ps.into_cluster();
        let holder = ledger.holders(0)[0];
        let dead = (0..NODES).find(|n| !ledger.damage(0).holders.contains(n));
        let dead = dead.unwrap();
        cluster.fail_node(dead);
        ledger.node_down(dead);
        let full = (0..NODES)
            .find(|n| *n != dead && !ledger.damage(0).holders.contains(n))
            .unwrap();
        let free = cluster.report_of(full);
        cluster.reserve(full, free).unwrap();
        ledger.mark_lost(1);
        let lost_target = (0..NODES)
            .find(|n| cluster.is_alive(*n) && !ledger.damage(1).holders.contains(n))
            .unwrap();
        for (chunk, target, why) in [
            (0, holder, "a holder"),
            (0, dead, "a dead node"),
            (0, full, "a full node"),
            (1, lost_target, "a written-off chunk"),
        ] {
            ledger.promise(chunk, &[target]);
            let holders = ledger.holders(chunk).to_vec();
            let free = cluster.report_of(target);
            assert!(
                !commit_rebuilt(&mut ledger, &mut cluster, chunk, target),
                "{why} took a block"
            );
            assert_eq!(ledger.holders(chunk), &holders[..], "{why}");
            assert_eq!(cluster.report_of(target), free, "{why}");
            assert!(
                ledger.damage(chunk).promised.is_empty(),
                "the promise is settled"
            );
            assert!(ledger.is_consistent(|n| cluster.is_alive(n)));
        }
        // And one that is let through is registered and charged.
        let holders = ledger.damage(0).holders.into_owned();
        let good = (0..NODES).find(|n| {
            cluster.is_alive(*n) && cluster.can_store(*n, ByteSize::mb(64)) && !holders.contains(n)
        });
        let good = good.expect("a live non-holder with room");
        let free = cluster.report_of(good);
        assert!(commit_rebuilt(&mut ledger, &mut cluster, 0, good));
        assert_eq!(ledger.holders(0).last(), Some(&good));
        assert_eq!(cluster.report_of(good), free - ledger.block_size(0));
    }

    #[test]
    fn a_ledger_and_a_manifest_write_off_the_same_chunks() {
        // Eight nodes: the store collocates blocks often enough that one
        // failure takes some chunks under their threshold.
        let mut written_off = 0;
        for coding in CODINGS {
            for seed in 0..4 {
                let (mut ps, mut ledger) = stored(coding, 8, seed);
                let victim = DetRng::new(seed).index(8);
                ps.backend_mut().fail_node(victim);
                // Chunks in ledger order: every non-empty chunk of every file.
                let chunks = ps.manifests().iter().flat_map(|m| &m.chunks);
                let chunks: Vec<&ChunkPlacement> = chunks.filter(|c| !c.size.is_zero()).collect();
                let from_manifest: Vec<u32> = (0u32..)
                    .zip(&chunks)
                    .filter(|(_, c)| c.blocks_on(victim).next().is_some())
                    .filter(|(_, c)| {
                        Damage::of_placement(c, victim).verdict(ps.cluster()) == Verdict::WriteOff
                    })
                    .map(|(index, _)| index)
                    .collect();
                let mut losses = Vec::new();
                ledger.remove_node(victim, &mut losses);
                let from_ledger: Vec<u32> = losses
                    .iter()
                    .map(|loss| loss.chunk)
                    .filter(|&c| ledger.damage(c).verdict(ps.cluster()) == Verdict::WriteOff)
                    .collect();
                assert_eq!(from_ledger, from_manifest, "{} seed {seed}", coding.label());
                for loss in &losses {
                    let of_placement = Damage::of_placement(chunks[loss.chunk as usize], victim);
                    assert_eq!(ledger.damage(loss.chunk), of_placement);
                }
                written_off += from_ledger.len();
            }
        }
        assert!(written_off > 10, "only {written_off} write-offs compared");
    }
}
