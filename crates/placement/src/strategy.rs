//! Placement strategies: who gets the next block.
//!
//! The client's store path and every repair re-placement path route their
//! target selection through a [`PlacementStrategy`]:
//!
//! * [`OverlayRandom`] — the classic DHT behaviour (and the paper's): each
//!   block's name hashes to a key, the key routes to the numerically closest
//!   live node, and a `getCapacity` probe sizes the chunk.  Oblivious to
//!   failure domains.
//! * [`DomainSpread`] — failure-domain-aware, PAST-style replica diversity:
//!   the routed candidate is accepted only while its domain stays under the
//!   chunk's per-domain block cap; otherwise the strategy round-robins across
//!   the under-used domains, capacity-aware (the fullest domains are skipped,
//!   the freest node of the least-used domain wins).  With the cap set to the
//!   coding policy's tolerable losses, losing any single domain can never make
//!   a chunk unrecoverable.
//! * [`CapacityWeighted`] — targets drawn with probability proportional to
//!   reported free space, trading placement balance for domain obliviousness.
//!
//! Strategies see the cluster through the [`ClusterView`] / [`ProbeView`]
//! traits (implemented by `peerstripe_core::StorageCluster`), so this crate
//! stays below `core` in the dependency order.
//!
//! The store path asks for a chunk's `getCapacity` probes all at once
//! ([`ProbeView::probe_all`]) before it makes any decision, so a view that
//! can overlap them — the networked gateway — pays about one round trip a
//! chunk instead of one a block.  A decision reads only the answers, never
//! the order they arrived in.

use crate::index::DomainIndex;
use crate::topology::Topology;
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::{ByteSize, DetRng};

/// Read-only view of the cluster a placement strategy consults.
pub trait ClusterView {
    /// Route a key to the live node numerically closest to it, without
    /// charging protocol traffic.
    fn route_quiet(&self, key: Id) -> Option<NodeRef>;
    /// True if the node is currently live.
    fn is_alive(&self, node: NodeRef) -> bool;
    /// True if an object of the given size fits on the node right now.
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool;
    /// The node's current `getCapacity` report (free space it advertises).
    /// Direct per-node reports travel over IP, not the overlay, so they are
    /// not charged as lookups (Section 4.1 of the paper).
    fn report_of(&self, node: NodeRef) -> ByteSize;
    /// Number of nodes (live and failed).
    fn node_count(&self) -> usize;
    /// The currently live nodes.
    fn alive_nodes(&self) -> Vec<NodeRef>;
    /// The per-domain index this view keeps current, if it keeps one.  A view
    /// that answers each question from somewhere else — the gateway asks a
    /// daemon — has none, and strategies then walk it node by node; either
    /// way a decision comes out the same.
    fn domain_index(&self) -> Option<&DomainIndex> {
        None
    }
}

/// A [`ClusterView`] that can also issue routed `getCapacity` probes, which
/// are charged as overlay lookups (the client store path).
///
/// A store asks for a chunk's probes together, through
/// [`ProbeView::probe_all`], before deciding anything.  The simulator keeps
/// the provided body, one [`ProbeView::probe`] a key in key order; the
/// networked gateway overrides it to put every probe on the wire before it
/// reads the first reply.
pub trait ProbeView: ClusterView {
    /// Route a key and probe the responsible node's capacity (one lookup).
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)>;

    /// Probe every key's responsible node: one answer per key, in key
    /// order, each what [`ProbeView::probe`] would have answered for it.
    /// `None` is a key that routes nowhere or a node that did not answer.
    fn probe_all(&mut self, keys: &[Id]) -> Vec<Option<(NodeRef, ByteSize)>> {
        keys.iter().map(|&key| self.probe(key)).collect()
    }
}

/// What a repair re-placement asks of a strategy.
#[derive(Debug, Clone)]
pub struct RepairRequest<'a> {
    /// Number of targets wanted.
    pub want: usize,
    /// Size each target must be able to store.
    pub size: ByteSize,
    /// Holders of the chunk's registered blocks: a rebuilt block never
    /// collocates with another block of its chunk.
    pub holders: &'a [NodeRef],
    /// Targets already promised a block of the chunk, excluded like the
    /// holders.
    pub promised: &'a [NodeRef],
    /// Maximum blocks of this chunk any single failure domain may hold
    /// (`usize::MAX` disables the constraint).
    pub domain_cap: usize,
}

impl RepairRequest<'_> {
    /// The nodes no target may be: the holders, then the promised targets.
    pub fn excluded(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.holders.iter().chain(self.promised).copied()
    }
}

/// A pluggable target-selection policy for chunk placement and repair.
pub trait PlacementStrategy {
    /// Short name used in sweep tables.
    fn name(&self) -> &'static str;

    /// Choose one target per block key for a fresh chunk, returning each
    /// target with its capacity report (the minimum report sizes the chunk).
    /// `None` means the chunk cannot be placed under the strategy's
    /// constraints right now — a loud failure the caller surfaces as a
    /// zero-sized chunk retry, never a silently violated constraint.
    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>>;

    /// Choose up to `request.want` targets for rebuilt blocks of an existing
    /// chunk, excluding current holders and domains at their block cap.
    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef>;
}

/// Today's oblivious behaviour, extracted: route every block key through the
/// overlay and take whatever live node answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayRandom;

impl OverlayRandom {
    /// Create the strategy.
    pub fn new() -> Self {
        OverlayRandom
    }
}

impl PlacementStrategy for OverlayRandom {
    fn name(&self) -> &'static str {
        "overlay-random"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        _topology: Option<&Topology>,
        keys: &[Id],
        _domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        view.probe_all(keys).into_iter().collect()
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        _topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        // Random-key probes to live nodes with space that do not already hold
        // a block of the chunk (keeping the failure independence of the
        // original spread).
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        let mut attempts = 0;
        while targets.len() < request.want && attempts < request.want * 8 {
            attempts += 1;
            let Some(candidate) = view.route_quiet(Id::random(rng)) else {
                break;
            };
            if !request.excluded().any(|n| n == candidate)
                && !targets.contains(&candidate)
                && view.can_store(candidate, request.size)
            {
                targets.push(candidate);
            }
        }
        targets
    }
}

/// Failure-domain-aware spread: no chunk keeps more than its per-domain cap
/// of blocks in any one domain, with a capacity-aware round-robin fallback
/// when the routed domain is already at its cap (or out of space).
///
/// The strategy keeps its working vectors from one decision to the next
/// instead of allocating them per decision.
#[derive(Debug, Clone, Default)]
pub struct DomainSpread {
    /// Blocks of the chunk per domain.
    counts: Vec<usize>,
    /// The store path's targets so far.
    chosen: Vec<NodeRef>,
    /// The index slots a repair pick passes over ([`DomainIndex::bar`]).
    barred: Vec<usize>,
}

impl DomainSpread {
    /// Create the strategy.
    pub fn new() -> Self {
        DomainSpread::default()
    }

    /// The best store-path target outside the saturated domains: domains with
    /// the fewest blocks of this chunk first (round-robin), the freest
    /// eligible node within, ties broken by domain order and then member
    /// order for determinism.  The greedy freest-node pick self-balances here
    /// because every placed block charges its node's capacity immediately.
    fn fallback(
        view: &dyn ClusterView,
        topology: &Topology,
        counts: &[usize],
        chosen: &[NodeRef],
        cap: usize,
    ) -> Option<(NodeRef, ByteSize)> {
        if let Some(index) = view.domain_index().filter(|index| index.serves(topology)) {
            return Self::fallback_indexed(index, counts, chosen, cap);
        }
        let mut best: Option<(usize, ByteSize, NodeRef)> = None;
        for (d, domain) in topology.domains() {
            let used = counts[d as usize];
            if used >= cap {
                continue;
            }
            for &node in &domain.members {
                if !view.is_alive(node) || chosen.contains(&node) {
                    continue;
                }
                let report = view.report_of(node);
                if report.is_zero() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bu, br, _)) => used < bu || (used == bu && report > br),
                };
                if better {
                    best = Some((used, report, node));
                }
            }
        }
        best.map(|(_, report, node)| (node, report))
    }

    /// [`DomainSpread::fallback`] over each domain's indexed freest member
    /// instead of its members: the least-used tier that has any candidate
    /// decides, the largest report within it, the first domain on a tie.
    fn fallback_indexed(
        index: &DomainIndex,
        counts: &[usize],
        chosen: &[NodeRef],
        cap: usize,
    ) -> Option<(NodeRef, ByteSize)> {
        tiers(counts, cap).find_map(|used| {
            let mut best: Option<(NodeRef, ByteSize)> = None;
            for d in domains_at(counts, used) {
                if let Some((node, report)) = index.freest_in(d, chosen) {
                    if best.is_none_or(|(_, br)| report > br) {
                        best = Some((node, report));
                    }
                }
            }
            best
        })
    }

    /// One repair-path target: a uniformly random eligible node of the
    /// least-used domains.  Random within the domain tier — unlike the store
    /// path, repair reservations only charge capacity at transfer completion,
    /// so a deterministic freest-node pick would funnel every concurrent
    /// rebuild into one target and serialise repair on its bandwidth pipe.
    fn repair_pick(
        view: &dyn ClusterView,
        topology: &Topology,
        counts: &[usize],
        chosen: &[NodeRef],
        request: &RepairRequest<'_>,
        cap: usize,
        rng: &mut DetRng,
    ) -> Option<NodeRef> {
        let mut best_used = usize::MAX;
        let mut pool: Vec<NodeRef> = Vec::new();
        for (d, domain) in topology.domains() {
            let used = counts[d as usize];
            if used >= cap || used > best_used {
                continue;
            }
            let eligible = domain.members.iter().copied().filter(|&node| {
                view.is_alive(node)
                    && !request.excluded().any(|n| n == node)
                    && !chosen.contains(&node)
                    && view.can_store(node, request.size)
            });
            let mut eligible = eligible.peekable();
            if eligible.peek().is_none() {
                continue;
            }
            if used < best_used {
                best_used = used;
                pool.clear();
            }
            pool.extend(eligible);
        }
        rng.choose(&pool).copied()
    }

    /// [`DomainSpread::repair_pick`] without building the pool: count the
    /// eligible members of the least-used tier that has any, draw one position
    /// (the draw `rng.choose` makes over the pool), and find the member there
    /// by a second walk over the tier's domains.  `barred` holds the slots of
    /// the excluded nodes and of the targets chosen so far.  The count stays
    /// inside one tier unless that tier is wholly down, full, or holding the
    /// chunk already; see [`DomainIndex::eligible_in`] for what one domain's
    /// count costs.
    fn repair_pick_indexed(
        index: &DomainIndex,
        counts: &[usize],
        barred: &[usize],
        size: ByteSize,
        cap: usize,
        rng: &mut DetRng,
    ) -> Option<NodeRef> {
        let eligible = |d: usize| index.eligible_in(d, size, barred);
        let (tier, total) = tiers(counts, cap).find_map(|used| {
            let total: usize = domains_at(counts, used).map(eligible).sum();
            (total > 0).then_some((used, total))
        })?;
        let mut k = rng.index(total);
        for d in domains_at(counts, tier) {
            let eligible = eligible(d);
            if k < eligible {
                return index.nth_eligible_in(d, size, barred, k);
            }
            k -= eligible;
        }
        None
    }
}

/// The distinct per-domain block counts below `cap`, least first: the tiers a
/// round-robin over the domains works through.  Each tier is the least count
/// above the one before, found by a pass over `counts`, so the walk allocates
/// nothing; a walk rarely goes past its first tier or two.
fn tiers(counts: &[usize], cap: usize) -> impl Iterator<Item = usize> + '_ {
    let least_from = move |floor: usize| {
        counts
            .iter()
            .copied()
            .filter(|&used| floor <= used && used < cap)
            .min()
    };
    std::iter::successors(least_from(0), move |&tier| least_from(tier + 1))
}

/// The domains of one tier, in domain order.
fn domains_at(counts: &[usize], used: usize) -> impl Iterator<Item = usize> + '_ {
    counts
        .iter()
        .enumerate()
        .filter(move |&(_, &count)| count == used)
        .map(|(d, _)| d)
}

impl PlacementStrategy for DomainSpread {
    fn name(&self) -> &'static str {
        "domain-spread"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        // Spreading over domains is impossible without a topology: refuse
        // loudly rather than silently degrade to oblivious placement.
        let topology = topology?;
        let cap = domain_cap.max(1);
        let (counts, chosen) = (&mut self.counts, &mut self.chosen);
        counts.clear();
        counts.resize(topology.domain_count(), 0);
        chosen.clear();
        let mut out = Vec::with_capacity(keys.len());
        for routed in view.probe_all(keys) {
            // Prefer the overlay's own answer (it keeps the DHT's lookup
            // semantics and load spread) while it lands in a least-used
            // domain: true round-robin, so a chunk's blocks balance over the
            // domains instead of merely staying under the cap — which keeps
            // chunks recoverable even through *overlapping* domain outages.
            let min_used = counts.iter().copied().min().unwrap_or(0);
            let pick = match routed {
                Some((node, report))
                    if !report.is_zero()
                        && !chosen.contains(&node)
                        && topology.domain_of(node).is_none_or(|d| {
                            counts[d as usize] <= min_used && counts[d as usize] < cap
                        }) =>
                {
                    (node, report)
                }
                _ => Self::fallback(view, topology, counts, chosen, cap)?,
            };
            if let Some(d) = topology.domain_of(pick.0) {
                counts[d as usize] += 1;
            }
            chosen.push(pick.0);
            out.push(pick);
        }
        Some(out)
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let Some(topology) = topology else {
            // No topology to spread over: degrade to the oblivious behaviour
            // (the collocation exclusion still applies).
            return OverlayRandom.repair_targets(view, None, request, rng);
        };
        let cap = request.domain_cap.max(1);
        let (counts, barred) = (&mut self.counts, &mut self.barred);
        counts.clear();
        counts.resize(topology.domain_count(), 0);
        for excluded in request.excluded() {
            if let Some(d) = topology.domain_of(excluded) {
                counts[d as usize] += 1;
            }
        }
        let index = view.domain_index().filter(|index| index.serves(topology));
        barred.clear();
        if let Some(index) = index {
            index.bar(request.size, request.excluded(), barred);
        }
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        while targets.len() < request.want {
            let pick = match index {
                Some(index) => {
                    Self::repair_pick_indexed(index, counts, barred, request.size, cap, rng)
                }
                None => Self::repair_pick(view, topology, counts, &targets, request, cap, rng),
            };
            let Some(node) = pick else {
                break;
            };
            if let Some(d) = topology.domain_of(node) {
                counts[d as usize] += 1;
            }
            if let Some(index) = index {
                index.bar(request.size, [node], barred);
            }
            targets.push(node);
        }
        targets
    }
}

/// Targets drawn with probability proportional to reported free space.
#[derive(Debug, Clone)]
pub struct CapacityWeighted {
    rng: DetRng,
}

impl CapacityWeighted {
    /// Create the strategy; `seed` drives the weighted draws of the store path
    /// (repair draws use the caller's stream).
    pub fn new(seed: u64) -> Self {
        CapacityWeighted {
            rng: DetRng::new(seed).fork("capacity-weighted"),
        }
    }

    /// One weighted draw over the eligible nodes: those in no `exclude`
    /// list (the plan's picks so far first) and under `cap` in their domain.
    fn draw(
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        counts: &mut [usize],
        exclude: [&[NodeRef]; 3],
        cap: usize,
        min_size: ByteSize,
        rng: &mut DetRng,
    ) -> Option<(NodeRef, ByteSize)> {
        let mut eligible: Vec<(NodeRef, ByteSize)> = Vec::new();
        let mut total = 0u128;
        for node in view.alive_nodes() {
            if exclude.iter().any(|nodes| nodes.contains(&node)) {
                continue;
            }
            if let (Some(t), true) = (topology, cap != usize::MAX) {
                if let Some(d) = t.domain_of(node) {
                    if counts[d as usize] >= cap {
                        continue;
                    }
                }
            }
            let report = view.report_of(node);
            if report.is_zero() || report < min_size {
                continue;
            }
            total += report.as_u64() as u128;
            eligible.push((node, report));
        }
        // Float rounding can push x to (or past) the exact weight sum, so the
        // walk may run off the end; the last eligible node is the fallback,
        // and the domain bookkeeping below covers both outcomes.
        let mut pick = *eligible.last()?;
        let mut x = (rng.next_f64() * total as f64) as u128;
        for &(node, report) in &eligible {
            let w = report.as_u64() as u128;
            if x < w {
                pick = (node, report);
                break;
            }
            x -= w;
        }
        if let Some(t) = topology {
            if let Some(d) = t.domain_of(pick.0) {
                counts[d as usize] += 1;
            }
        }
        Some(pick)
    }
}

impl PlacementStrategy for CapacityWeighted {
    fn name(&self) -> &'static str {
        "capacity-weighted"
    }

    fn plan_chunk(
        &mut self,
        view: &mut dyn ProbeView,
        topology: Option<&Topology>,
        keys: &[Id],
        domain_cap: usize,
    ) -> Option<Vec<(NodeRef, ByteSize)>> {
        let mut counts = vec![0usize; topology.map(Topology::domain_count).unwrap_or(0)];
        let mut chosen: Vec<NodeRef> = Vec::with_capacity(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        for _ in keys {
            let (node, report) = Self::draw(
                view,
                topology,
                &mut counts,
                [&chosen, &[], &[]],
                domain_cap,
                ByteSize::ZERO,
                &mut self.rng,
            )?;
            chosen.push(node);
            out.push((node, report));
        }
        Some(out)
    }

    fn repair_targets(
        &mut self,
        view: &dyn ClusterView,
        topology: Option<&Topology>,
        request: &RepairRequest<'_>,
        rng: &mut DetRng,
    ) -> Vec<NodeRef> {
        let mut counts = vec![0usize; topology.map(Topology::domain_count).unwrap_or(0)];
        for excluded in request.excluded() {
            if let Some(d) = topology.and_then(|t| t.domain_of(excluded)) {
                counts[d as usize] += 1;
            }
        }
        let mut targets: Vec<NodeRef> = Vec::with_capacity(request.want);
        while targets.len() < request.want {
            let Some((node, _)) = Self::draw(
                view,
                topology,
                &mut counts,
                [&targets, request.holders, request.promised],
                request.domain_cap,
                request.size,
                rng,
            ) else {
                break;
            };
            targets.push(node);
        }
        targets
    }
}

/// The strategies a sweep can instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// [`OverlayRandom`].
    OverlayRandom,
    /// [`DomainSpread`].
    DomainSpread,
    /// [`CapacityWeighted`].
    CapacityWeighted,
}

impl StrategyKind {
    /// All kinds, in comparison order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::OverlayRandom,
        StrategyKind::DomainSpread,
        StrategyKind::CapacityWeighted,
    ];

    /// The strategy's table label.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::OverlayRandom => "overlay-random",
            StrategyKind::DomainSpread => "domain-spread",
            StrategyKind::CapacityWeighted => "capacity-weighted",
        }
    }

    /// Instantiate the strategy (the seed only matters for draws the strategy
    /// makes on its own stream).
    pub fn build(&self, seed: u64) -> Box<dyn PlacementStrategy> {
        match self {
            StrategyKind::OverlayRandom => Box::new(OverlayRandom::new()),
            StrategyKind::DomainSpread => Box::new(DomainSpread::new()),
            StrategyKind::CapacityWeighted => Box::new(CapacityWeighted::new(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy cluster: node i is live unless failed, free space per node, and
    /// routing maps a key to `key % nodes` (live-adjusted by linear probing).
    /// It lends an index once [`MockView::lend_index`] has built one, and
    /// with `wave` set answers `probe_all` the way the gateway does.
    struct MockView {
        free: Vec<ByteSize>,
        alive: Vec<bool>,
        probes: u64,
        index: Option<DomainIndex>,
        /// `probe_all` probes each distinct routed node once, in reverse
        /// node order, instead of key by key.
        wave: bool,
        /// `probe_all` calls so far.
        waves: u64,
    }

    impl MockView {
        fn new(free: Vec<ByteSize>) -> Self {
            let n = free.len();
            MockView {
                free,
                alive: vec![true; n],
                probes: 0,
                index: None,
                wave: false,
                waves: 0,
            }
        }

        fn lend_index(&mut self, topology: &Topology) {
            self.index = DomainIndex::build(topology, self.free.len(), |n| crate::NodeState {
                alive: self.alive[n],
                free: self.free[n],
            });
        }
    }

    impl ClusterView for MockView {
        fn route_quiet(&self, key: Id) -> Option<NodeRef> {
            let n = self.free.len();
            (0..n)
                .map(|i| ((key.0 as usize) + i) % n)
                .find(|&c| self.alive[c])
        }
        fn is_alive(&self, node: NodeRef) -> bool {
            self.alive[node]
        }
        fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
            size <= self.free[node]
        }
        fn report_of(&self, node: NodeRef) -> ByteSize {
            self.free[node]
        }
        fn node_count(&self) -> usize {
            self.free.len()
        }
        fn alive_nodes(&self) -> Vec<NodeRef> {
            (0..self.free.len()).filter(|&n| self.alive[n]).collect()
        }
        fn domain_index(&self) -> Option<&DomainIndex> {
            self.index.as_ref()
        }
    }

    impl ProbeView for MockView {
        fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
            self.probes += 1;
            self.route_quiet(key).map(|n| (n, self.free[n]))
        }

        fn probe_all(&mut self, keys: &[Id]) -> Vec<Option<(NodeRef, ByteSize)>> {
            self.waves += 1;
            if !self.wave {
                return keys.iter().map(|&key| self.probe(key)).collect();
            }
            let routed: Vec<Option<NodeRef>> = keys.iter().map(|&k| self.route_quiet(k)).collect();
            let mut nodes: Vec<NodeRef> = routed.iter().flatten().copied().collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut replies = std::collections::BTreeMap::new();
            for &node in nodes.iter().rev() {
                self.probes += 1;
                replies.insert(node, self.free[node]);
            }
            routed
                .into_iter()
                .map(|node| node.map(|n| (n, replies[&n])))
                .collect()
        }
    }

    fn keys(n: usize) -> Vec<Id> {
        (0..n as u128).map(Id).collect()
    }

    /// The placed-block counts of every coding: none, XOR(2,3), online and
    /// RS(4,2), RS(5,3).
    const PLACED_BLOCKS: [usize; 4] = [1, 3, 6, 8];

    /// Chunk `chunk`'s block keys, hashed so that some share a node.
    fn chunk_keys(chunk: usize, blocks: usize) -> Vec<Id> {
        (0..blocks)
            .map(|b| Id::hash(&format!("file/{chunk}/{b}")))
            .collect()
    }

    /// 12 nodes in 4 domains of 3: one failed, some full, the rest uneven.
    fn uneven_view() -> MockView {
        let free = [0, 40, 3, 0, 0, 9, 12, 1, 0, 25, 6, 0].map(ByteSize::mb);
        let mut view = MockView::new(free.to_vec());
        view.alive[6] = false;
        view
    }

    #[test]
    fn a_chunk_plan_does_not_depend_on_the_order_probe_replies_arrive_in() {
        let topo = Topology::uniform_groups(12, 3);
        let strategies = [StrategyKind::OverlayRandom, StrategyKind::DomainSpread];
        let topologies = [None, Some(&topo)];
        let mut planned = 0;
        for (kind, blocks, topology) in strategies
            .iter()
            .flat_map(|k| PLACED_BLOCKS.map(|b| (k, b)))
            .flat_map(|(k, b)| topologies.map(|t| (k, b, t)))
        {
            for (cap, indexed, chunk) in [1, 2, usize::MAX]
                .into_iter()
                .flat_map(|cap| [false, true].map(|i| (cap, i)))
                .flat_map(|(cap, i)| (0..16).map(move |c| (cap, i, c)))
            {
                let keys = chunk_keys(chunk, blocks);
                let mut serial = uneven_view();
                let mut wave = uneven_view();
                wave.wave = true;
                if let (Some(t), true) = (topology, indexed) {
                    serial.lend_index(t);
                    wave.lend_index(t);
                }
                let expected = kind.build(1).plan_chunk(&mut serial, topology, &keys, cap);
                let got = kind.build(1).plan_chunk(&mut wave, topology, &keys, cap);
                let case = format!("{} {blocks} blocks, chunk {chunk}, cap {cap}", kind.label());
                assert_eq!(got, expected, "{case}");
                planned += usize::from(expected.is_some());

                let mut routed: Vec<NodeRef> =
                    keys.iter().filter_map(|&k| wave.route_quiet(k)).collect();
                routed.sort_unstable();
                routed.dedup();
                // One wave a planned chunk (none when refused up front): a
                // probe a key by default, a probe a distinct node in a wave.
                assert_eq!(wave.waves, serial.waves, "{case}");
                assert_eq!(serial.probes, serial.waves * keys.len() as u64, "{case}");
                assert_eq!(wave.probes, wave.waves * routed.len() as u64, "{case}");
            }
        }
        // Every overlay-random chunk places; so do some domain-spread ones.
        assert!(planned > 768, "{planned} chunks placed");
    }

    #[test]
    fn a_chunk_plan_asks_for_its_probes_once() {
        let topo = Topology::uniform_groups(12, 3);
        for kind in [StrategyKind::OverlayRandom, StrategyKind::DomainSpread] {
            let mut strategy = kind.build(1);
            let mut view = uneven_view();
            for chunk in 0..10 {
                strategy.plan_chunk(&mut view, Some(&topo), &chunk_keys(chunk, 8), 2);
            }
            assert_eq!(view.waves, 10, "{}", kind.label());
            // The default answers key by key: one lookup a key, as ever.
            assert_eq!(view.probes, 80, "{}", kind.label());
        }
        // Without a topology domain spreading refuses before it probes.
        let mut view = uneven_view();
        assert!(DomainSpread::new()
            .plan_chunk(&mut view, None, &chunk_keys(0, 8), 2)
            .is_none());
        assert_eq!((view.waves, view.probes), (0, 0));
    }

    #[test]
    fn overlay_random_routes_every_key_and_charges_probes() {
        let mut view = MockView::new(vec![ByteSize::mb(10); 8]);
        let picks = OverlayRandom::new()
            .plan_chunk(&mut view, None, &keys(4), usize::MAX)
            .unwrap();
        assert_eq!(picks.len(), 4);
        assert_eq!(view.probes, 4);
        assert_eq!(
            picks.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "keys route straight through"
        );
    }

    #[test]
    fn overlay_random_repair_excludes_holders() {
        let view = MockView::new(vec![ByteSize::mb(10); 6]);
        let mut rng = DetRng::new(3);
        let holders = vec![0, 1, 2, 3, 4];
        let targets = OverlayRandom::new().repair_targets(
            &view,
            None,
            &RepairRequest {
                want: 1,
                size: ByteSize::mb(1),
                holders: &holders,
                promised: &[],
                domain_cap: usize::MAX,
            },
            &mut rng,
        );
        assert_eq!(targets, vec![5], "only the non-holder is eligible");
    }

    #[test]
    fn domain_spread_respects_the_cap() {
        // 12 nodes in 4 domains of 3; cap 1: a 4-block chunk must use all four
        // domains even though routing concentrates on low node refs.
        let mut view = MockView::new(vec![ByteSize::mb(10); 12]);
        let topo = Topology::uniform_groups(12, 3);
        let picks = DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(4), 1)
            .unwrap();
        let domains: std::collections::BTreeSet<_> = picks
            .iter()
            .map(|(n, _)| topo.domain_of(*n).unwrap())
            .collect();
        assert_eq!(domains.len(), 4, "one block per domain: {picks:?}");
    }

    #[test]
    fn domain_spread_fails_loudly_when_domains_run_out() {
        // 2 domains, cap 1 → at most 2 blocks placeable; a 3-block chunk must
        // be refused outright, not silently concentrated.
        let mut view = MockView::new(vec![ByteSize::mb(10); 6]);
        let topo = Topology::uniform_groups(6, 3);
        assert!(DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(3), 1)
            .is_none());
        // And without a topology it refuses everything.
        assert!(DomainSpread::new()
            .plan_chunk(&mut view, None, &keys(1), 1)
            .is_none());
    }

    #[test]
    fn domain_spread_fallback_is_capacity_aware() {
        // Domain 0 is full; the store-path fallback must pick the freest
        // node of the open domain.
        let mut free = vec![ByteSize::ZERO; 3];
        free.extend([ByteSize::mb(1), ByteSize::mb(50), ByteSize::mb(5)]);
        let mut view = MockView::new(free);
        let topo = Topology::uniform_groups(6, 3);
        let picks = DomainSpread::new()
            .plan_chunk(&mut view, Some(&topo), &keys(1), 2)
            .unwrap();
        assert_eq!(picks[0].0, 4, "freest node of the open domain");
        // The repair path scatters instead (capacity at completion time, so
        // greedy freest-node picks would serialise concurrent rebuilds), but
        // still lands only in the open domain.
        let targets = DomainSpread::new().repair_targets(
            &view,
            Some(&topo),
            &RepairRequest {
                want: 1,
                size: ByteSize::kb(1),
                holders: &[],
                promised: &[],
                domain_cap: 2,
            },
            &mut DetRng::new(1),
        );
        assert_eq!(targets.len(), 1);
        assert_eq!(topo.domain_of(targets[0]), Some(1), "full domain skipped");
    }

    #[test]
    fn domain_spread_repair_counts_existing_holders() {
        // Holders already fill domain 0 to the cap; the rebuilt block must
        // land in domain 1.
        let view = MockView::new(vec![ByteSize::mb(10); 6]);
        let topo = Topology::uniform_groups(6, 3);
        let holders = vec![0, 1];
        let targets = DomainSpread::new().repair_targets(
            &view,
            Some(&topo),
            &RepairRequest {
                want: 2,
                size: ByteSize::mb(1),
                holders: &holders,
                promised: &[],
                domain_cap: 2,
            },
            &mut DetRng::new(1),
        );
        assert_eq!(targets.len(), 2);
        for t in &targets {
            assert_eq!(topo.domain_of(*t), Some(1), "domain 0 is at cap");
        }
    }

    #[test]
    fn domain_spread_indexed_repair_draws_nothing_when_nothing_is_eligible() {
        // Domain 1 is wholly down and domain 0's live members all hold the
        // chunk: every tier counts zero, so no position is drawn.
        let topo = Topology::uniform_groups(6, 3);
        let mut view = MockView::new(vec![ByteSize::mb(10); 6]);
        view.alive[3..].fill(false);
        view.lend_index(&topo);
        assert!(view.domain_index().is_some_and(|index| index.serves(&topo)));
        let mut rng = DetRng::new(4);
        let targets = DomainSpread::new().repair_targets(
            &view,
            Some(&topo),
            &RepairRequest {
                want: 2,
                size: ByteSize::mb(1),
                holders: &[0, 1, 2],
                promised: &[],
                domain_cap: usize::MAX,
            },
            &mut rng,
        );
        assert!(targets.is_empty());
        assert_eq!(rng.next_u64(), DetRng::new(4).next_u64(), "no draw");
    }

    #[test]
    fn tiers_are_the_sorted_distinct_counts_below_the_cap() {
        let mut rng = DetRng::new(11);
        for _ in 0..2_000 {
            let domains = rng.index(12);
            let counts: Vec<usize> = (0..domains).map(|_| rng.index(6)).collect();
            let cap = rng.index(8);
            let mut oracle: Vec<usize> = counts.iter().copied().filter(|&c| c < cap).collect();
            oracle.sort_unstable();
            oracle.dedup();
            let walked: Vec<usize> = tiers(&counts, cap).collect();
            assert_eq!(walked, oracle, "counts {counts:?}, cap {cap}");
        }
        assert_eq!(tiers(&[usize::MAX - 1, 0], usize::MAX).count(), 2);
    }

    #[test]
    fn capacity_weighted_prefers_free_nodes_and_skips_full_ones() {
        let mut free = vec![ByteSize::ZERO; 4];
        free.extend([ByteSize::gb(100), ByteSize::kb(1)]);
        let mut view = MockView::new(free);
        let mut strategy = CapacityWeighted::new(9);
        let mut hits = [0u32; 6];
        for _ in 0..50 {
            let picks = strategy
                .plan_chunk(&mut view, None, &keys(1), usize::MAX)
                .unwrap();
            hits[picks[0].0] += 1;
        }
        assert_eq!(hits[..4].iter().sum::<u32>(), 0, "full nodes never chosen");
        assert!(hits[4] > hits[5], "free space dominates the draw: {hits:?}");
    }

    #[test]
    fn strategy_kind_builds_every_strategy() {
        for kind in StrategyKind::ALL {
            let s = kind.build(1);
            assert_eq!(s.name(), kind.label());
        }
    }
}
