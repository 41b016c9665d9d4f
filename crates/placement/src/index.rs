//! The per-domain placement index a cluster keeps current.
//!
//! [`DomainSpread`](crate::DomainSpread) asks two questions per decision: on
//! the store path, "which live member of this domain has the most free
//! space?", and on the repair path, "which live members of these domains have
//! room for a block?".  Answered through [`ClusterView`](crate::ClusterView)
//! one node at a time, either costs a walk over the whole cluster.  A
//! [`DomainIndex`] holds the answers instead: every node of the topology has a
//! slot — liveness and free room — laid out domain by domain in the topology's own member order.  The cluster that owns the
//! index calls [`DomainIndex::update`] wherever a node's space or liveness
//! changes; strategies borrow it through `ClusterView::domain_index`.
//!
//! A domain's freest member is the root of a max tree over the domain's slots
//! in member order.  A leaf packs a live member's free room above its inverted
//! slot, `(free << 64) | (u64::MAX - slot)`, and is zero for a member that is
//! down or full; so the largest leaf is the most free room, and on a tie the
//! first member, exactly what a scan over the domain picks.  An
//! update climbs from its leaf while an entry changes: O(log d) at most for a
//! domain of `d`, and about two levels on a simulated day of churn.  A store
//! that fills a domain's freest member, which every fallback pick does, costs
//! that climb instead of a rescan of the domain.
//!
//! The repair path needs no walk either while every live member of a domain
//! has room for the block, which each domain's cached *tightest* member (the
//! least free room) tells at once.  That cache is re-derived over the domain
//! when its member grows or leaves, which happens about fifty times a
//! simulated day and never on the store path, so it keeps a plain cache
//! rather than charge every update a second climb.  Domains are contiguous
//! runs of slots, so one Fenwick tree over the slots' liveness (Fenwick, *A
//! new data structure for cumulative frequency tables*, SP&E 1994) counts a
//! domain's live members with two prefix sums and finds its `k`-th by one
//! descent, each O(log n).  A domain with a member too full for the block is
//! counted by a pass over its slots, as before.
//!
//! The index answers exactly what the scan over the same cluster answers —
//! same node, same free room, same order within a pool — so a decision does not
//! depend on whether a view keeps one.

use crate::topology::{Domain, Topology};
use peerstripe_overlay::NodeRef;
use peerstripe_sim::ByteSize;
use std::ops::Range;
use std::sync::Arc;

/// What the index records about one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeState {
    /// Whether the node is live.
    pub alive: bool,
    /// Its free room: what a `getCapacity` probe answers, what the store path
    /// ranks by, and what `can_store` compares a block size against.
    pub free: ByteSize,
}

/// Per-node state laid out by failure domain, with each domain's freest member
/// at the root of a max tree and its tightest member cached.  See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainIndex {
    /// The indexed topology's domain list: its identity, and the member
    /// order the slots follow.
    domains: Arc<Vec<Domain>>,
    /// Per node: its domain and its slot.
    home: Vec<(usize, usize)>,
    /// Per domain: its members' slots, contiguous and in member order.
    spans: Vec<Range<usize>>,
    // Per slot.
    alive: Vec<bool>,
    free: Vec<ByteSize>,
    /// Fenwick tree over `alive`, one-based: entry `i` counts the live slots
    /// in `i - lowbit(i)..i`; entry 0 is unused.
    live: Vec<usize>,
    /// Per domain: a max tree over its slots' [`leaf`](Self::leaf)s, one-based
    /// (entry 1 is the root, entry `i` the larger of `2i` and `2i + 1`), its
    /// leaves from entry `len / 2` on in member order, zero-padded to a power
    /// of two; entry 0 is unused.
    freest: Vec<Vec<u128>>,
    /// Per domain: the slot of its live member with the least free room, the
    /// first in member order on ties.
    tightest: Vec<Option<usize>>,
}

impl DomainIndex {
    /// Index a cluster of `nodes` nodes under `topology`, reading each node's
    /// state from `state`.  `None` unless the topology's domains partition
    /// exactly the nodes `0..nodes`: a cluster with nodes outside the
    /// hierarchy, or smaller than the topology, is served by the scan.
    pub fn build(
        topology: &Topology,
        nodes: usize,
        state: impl Fn(NodeRef) -> NodeState,
    ) -> Option<Self> {
        if topology.node_count() != nodes || (0..nodes).any(|n| topology.domain_of(n).is_none()) {
            return None;
        }
        Self::fill(Arc::clone(&topology.domains), nodes, state)
    }

    /// This index as it would be built from scratch now: what a maintained
    /// index must equal.
    pub fn rebuilt(&self, state: impl Fn(NodeRef) -> NodeState) -> Option<Self> {
        Self::fill(Arc::clone(&self.domains), self.home.len(), state)
    }

    fn fill(
        domains: Arc<Vec<Domain>>,
        nodes: usize,
        state: impl Fn(NodeRef) -> NodeState,
    ) -> Option<Self> {
        let mut index = DomainIndex {
            home: vec![(0, 0); nodes],
            spans: Vec::with_capacity(domains.len()),
            alive: Vec::with_capacity(nodes),
            free: Vec::with_capacity(nodes),
            live: Vec::new(),
            freest: Vec::with_capacity(domains.len()),
            tightest: Vec::with_capacity(domains.len()),
            domains,
        };
        for d in 0..index.domains.len() {
            let start = index.alive.len();
            for &node in &index.domains[d].members {
                let NodeState { alive, free } = state(node);
                *index.home.get_mut(node)? = (d, index.alive.len());
                index.alive.push(alive);
                index.free.push(free);
            }
            index.spans.push(start..index.alive.len());
            index.freest.push(index.max_tree(d));
            index.tightest.push(index.scan_tightest(d));
        }
        // The tree in one pass: each entry, once complete, adds itself to the
        // next entry whose range covers it.
        let slots = index.alive.len();
        index.live = vec![0; slots + 1];
        for i in 1..=slots {
            index.live[i] += usize::from(index.alive[i - 1]);
            let up = i + lowbit(i);
            if up <= slots {
                index.live[up] += index.live[i];
            }
        }
        Some(index)
    }

    /// True if this index was built for `topology` (or a clone of it).
    pub fn serves(&self, topology: &Topology) -> bool {
        Arc::ptr_eq(&self.domains, &topology.domains)
    }

    /// Record a node's new state.  O(1), plus O(log n) when its liveness
    /// flips, plus a climb of its domain's max tree that stops at the first
    /// entry that does not change (O(log d) at most for a domain of `d`).  A
    /// domain's tightest member is re-derived over the domain when that very
    /// member leaves or grows.
    pub fn update(&mut self, node: NodeRef, state: NodeState) {
        let Some(&(d, slot)) = self.home.get(node) else {
            return;
        };
        let was_free = self.free[slot];
        if self.alive[slot] != state.alive {
            self.count_live(slot, state.alive);
        }
        self.alive[slot] = state.alive;
        self.free[slot] = state.free;
        let free = state.free;
        match self.tightest[d] {
            Some(least) if least == slot => {
                if !state.alive || free > was_free {
                    self.tightest[d] = self.scan_tightest(d);
                }
            }
            least => {
                let ahead = |b: usize| free < self.free[b] || (free == self.free[b] && slot < b);
                if state.alive && least.is_none_or(ahead) {
                    self.tightest[d] = Some(slot);
                }
            }
        }
        let leaf = self.leaf(slot);
        let tree = &mut self.freest[d];
        let mut i = tree.len() / 2 + (slot - self.spans[d].start);
        if tree[i] == leaf {
            return;
        }
        tree[i] = leaf;
        while i > 1 {
            i /= 2;
            let most = tree[2 * i].max(tree[2 * i + 1]);
            if tree[i] == most {
                break;
            }
            tree[i] = most;
        }
    }

    /// The freest live member of `domain` outside `chosen`, with its free
    /// room; `None` when no such member has any.  The domain tree's root,
    /// unless that member is itself in `chosen`: then the best of the rest,
    /// by a walk over the domain.
    pub fn freest_in(&self, domain: usize, chosen: &[NodeRef]) -> Option<(NodeRef, ByteSize)> {
        let root = self.freest[domain][1];
        if root == 0 {
            return None;
        }
        let at = (u64::MAX - root as u64) as usize - self.spans[domain].start;
        let best = *self.domains[domain].members.get(at)?;
        if !chosen.contains(&best) {
            return Some((best, ByteSize((root >> 64) as u64)));
        }
        let mut rest: Option<(NodeRef, ByteSize)> = None;
        for (slot, &node) in self.spans[domain]
            .clone()
            .zip(&self.domains[domain].members)
        {
            let free = self.free[slot];
            if self.alive[slot]
                && !free.is_zero()
                && rest.is_none_or(|(_, most)| free > most)
                && !chosen.contains(&node)
            {
                rest = Some((node, free));
            }
        }
        rest
    }

    /// A slot's leaf in its domain's max tree: the free room above the
    /// inverted slot for a live member that has any, so that the more room
    /// and then the earlier slot win; zero otherwise.
    fn leaf(&self, slot: usize) -> u128 {
        if self.alive[slot] && !self.free[slot].is_zero() {
            (u128::from(self.free[slot].as_u64()) << 64) | u128::from(u64::MAX - slot as u64)
        } else {
            0
        }
    }

    /// Build a domain's max tree from its slots.
    fn max_tree(&self, domain: usize) -> Vec<u128> {
        let span = self.spans[domain].clone();
        let leaves = span.len().next_power_of_two();
        let mut tree = vec![0; 2 * leaves];
        for (at, slot) in span.enumerate() {
            tree[leaves + at] = self.leaf(slot);
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        tree
    }

    /// Derive a domain's tightest member from its slots (`min_by_key` keeps
    /// the first of equal keys, as the tie rule asks).
    fn scan_tightest(&self, domain: usize) -> Option<usize> {
        self.spans[domain]
            .clone()
            .filter(|&slot| self.alive[slot])
            .min_by_key(|&slot| self.free[slot])
    }

    /// Add a slot that came up to the live-slot tree, or take one that went
    /// down out of it.
    fn count_live(&mut self, slot: usize, alive: bool) {
        let mut i = slot + 1;
        while i < self.live.len() {
            if alive {
                self.live[i] += 1;
            } else {
                self.live[i] -= 1;
            }
            i += lowbit(i);
        }
    }

    /// How many of the slots before `slot` are live.
    fn live_before(&self, slot: usize) -> usize {
        let (mut i, mut live) = (slot, 0);
        while i > 0 {
            live += self.live[i];
            i -= lowbit(i);
        }
        live
    }

    /// The slot of the `rank`-th live slot (from zero), or the slot count if
    /// fewer are live.
    fn nth_live(&self, rank: usize) -> usize {
        let slots = self.live.len() - 1;
        let (mut at, mut rest) = (0, rank);
        let mut step = slots.checked_ilog2().map_or(0, |bits| 1 << bits);
        while step > 0 {
            if at + step <= slots && self.live[at + step] <= rest {
                at += step;
                rest -= self.live[at];
            }
            step >>= 1;
        }
        at
    }

    /// True if every live member of `domain` has room for a block of `size`:
    /// then its live members are exactly the ones that can take the block.
    fn all_fit(&self, domain: usize, size: ByteSize) -> bool {
        self.tightest[domain].is_none_or(|slot| size <= self.free[slot])
    }

    /// Add to `barred`, a buffer the caller keeps, the slots of `nodes` that
    /// [`DomainIndex::eligible_in`] would otherwise count for a block of
    /// `size`, each once however often its node repeats or if it is there.
    pub fn bar(
        &self,
        size: ByteSize,
        nodes: impl IntoIterator<Item = NodeRef>,
        barred: &mut Vec<usize>,
    ) {
        for node in nodes {
            if let Some(&(_, slot)) = self.home.get(node) {
                if self.has_room(slot, size) && !barred.contains(&slot) {
                    barred.push(slot);
                }
            }
        }
    }

    /// How many members of `domain` are live with room for a block of `size`,
    /// not counting the `barred` slots (from [`DomainIndex::bar`] for the
    /// same `size`).  Two prefix sums while every live member has room, a
    /// pass over the domain's slots otherwise.
    pub fn eligible_in(&self, domain: usize, size: ByteSize, barred: &[usize]) -> usize {
        let span = self.spans[domain].clone();
        let open: usize = if self.all_fit(domain, size) {
            self.live_before(span.end) - self.live_before(span.start)
        } else {
            self.alive[span.clone()]
                .iter()
                .zip(&self.free[span.clone()])
                .map(|(&alive, &free)| usize::from(alive & (size <= free)))
                .sum()
        };
        open - barred.iter().filter(|slot| span.contains(slot)).count()
    }

    /// The `k`-th (from zero, in member order) of the members
    /// [`DomainIndex::eligible_in`] counts.  While every live member has
    /// room, the `k + b`-th live member of the domain, where `b` counts the
    /// barred slots at or before it: one descent per barred slot it passes.
    pub fn nth_eligible_in(
        &self,
        domain: usize,
        size: ByteSize,
        barred: &[usize],
        k: usize,
    ) -> Option<NodeRef> {
        let span = self.spans[domain].clone();
        let members = &self.domains[domain].members;
        if !self.all_fit(domain, size) {
            return span
                .zip(members)
                .filter(|(slot, _)| self.has_room(*slot, size) && !barred.contains(slot))
                .nth(k)
                .map(|(_, &node)| node);
        }
        // `passed` only grows, and stops at the least fixed point: the count
        // of barred slots before the answer, which is then not barred itself.
        let first = self.live_before(span.start) + k;
        let mut passed = 0;
        loop {
            let slot = self.nth_live(first + passed);
            let through = barred
                .iter()
                .filter(|&&b| span.start <= b && b <= slot)
                .count();
            if through == passed {
                return members.get(slot.checked_sub(span.start)?).copied();
            }
            passed = through;
        }
    }

    fn has_room(&self, slot: usize, size: ByteSize) -> bool {
        self.alive[slot] && size <= self.free[slot]
    }
}

/// The lowest set bit of `i`: how many slots a Fenwick entry `i` covers.
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(alive: bool, free_mb: u64) -> NodeState {
        NodeState {
            alive,
            free: ByteSize::mb(free_mb),
        }
    }

    #[test]
    fn only_a_topology_that_partitions_the_nodes_is_indexed() {
        let topology = Topology::uniform_groups(12, 4);
        let all_up = |_| state(true, 10);
        assert!(DomainIndex::build(&topology, 12, all_up).is_some());
        assert!(
            DomainIndex::build(&topology, 10, all_up).is_none(),
            "a cluster smaller than the topology"
        );
        assert!(
            DomainIndex::build(&topology, 14, all_up).is_none(),
            "nodes outside the hierarchy"
        );
    }

    #[test]
    fn an_index_serves_its_topology_and_clones_of_it_only() {
        let topology = Topology::uniform_groups(12, 4);
        let index = DomainIndex::build(&topology, 12, |_| state(true, 10)).unwrap();
        assert!(index.serves(&topology));
        assert!(index.serves(&topology.clone()));
        let twin = Topology::uniform_groups(12, 4);
        assert_eq!(twin, topology);
        assert!(!index.serves(&twin), "equal is not the same");
    }

    #[test]
    fn the_freest_member_follows_every_update() {
        // One domain of four, shuffled so member order is not node order.
        let topology = Topology::from_domains(vec![Domain {
            label: "lab".into(),
            members: vec![2, 0, 3, 1],
        }]);
        let mut index = DomainIndex::build(&topology, 4, |_| state(true, 10)).unwrap();
        let freest = |index: &DomainIndex| index.freest_in(0, &[]);
        assert_eq!(freest(&index), Some((2, ByteSize::mb(10))), "first member");
        index.update(3, state(true, 12));
        assert_eq!(freest(&index), Some((3, ByteSize::mb(12))));
        index.update(3, state(true, 10));
        assert_eq!(
            freest(&index),
            Some((2, ByteSize::mb(10))),
            "tie: member order"
        );
        index.update(2, state(false, 10));
        assert_eq!(freest(&index), Some((0, ByteSize::mb(10))), "the best left");
        assert_eq!(index.freest_in(0, &[0, 3]), Some((1, ByteSize::mb(10))));
        for node in [0, 1, 3] {
            index.update(node, state(true, 0));
        }
        assert_eq!(freest(&index), None, "a full member is no target");
        assert_eq!(
            index.eligible_in(0, ByteSize::ZERO, &[]),
            3,
            "yet fits nothing"
        );
        let rebuilt = index.rebuilt(|node| state(node != 2, if node == 2 { 10 } else { 0 }));
        assert_eq!(rebuilt.as_ref(), Some(&index));
    }

    /// Three domains of six, member order shuffled against node order, and
    /// the node states kept beside the index so the queries can be checked
    /// against their definition.
    struct Fixture {
        topology: Topology,
        states: Vec<NodeState>,
        index: DomainIndex,
    }

    impl Fixture {
        fn new(free_mb: impl Fn(NodeRef) -> u64) -> Self {
            let members = [
                vec![5, 0, 12, 3, 9, 7],
                vec![1, 14, 2, 17, 6, 10],
                vec![4, 8, 11, 13, 15, 16],
            ];
            let topology = Topology::from_domains(
                members
                    .into_iter()
                    .map(|members| Domain {
                        label: "lab".into(),
                        members,
                    })
                    .collect(),
            );
            let states: Vec<NodeState> = (0..18).map(|n| state(true, free_mb(n))).collect();
            let index = DomainIndex::build(&topology, 18, |n| states[n]).unwrap();
            Fixture {
                topology,
                states,
                index,
            }
        }

        fn set(&mut self, node: NodeRef, state: NodeState) {
            self.states[node] = state;
            self.index.update(node, state);
            assert_eq!(
                self.index.rebuilt(|n| self.states[n]).as_ref(),
                Some(&self.index),
                "maintained == rebuilt after updating node {node}"
            );
        }

        fn down(&mut self, node: NodeRef) {
            let was = self.states[node];
            self.set(
                node,
                NodeState {
                    alive: false,
                    ..was
                },
            );
        }

        /// `eligible_in` and every `nth_eligible_in`, for each domain, equal
        /// the brute-force list: members in member order that are live, have
        /// room, and are not `barred_nodes`.
        fn check(&self, size: ByteSize, barred_nodes: &[NodeRef]) {
            let mut barred = Vec::new();
            self.index
                .bar(size, barred_nodes.iter().copied(), &mut barred);
            // Barring in two calls, as a repair decision does pick by pick,
            // bars the same slots in the same order.
            let (first, then) = barred_nodes.split_at(barred_nodes.len() / 2);
            let mut stepwise = Vec::new();
            self.index.bar(size, first.iter().copied(), &mut stepwise);
            self.index.bar(size, then.iter().copied(), &mut stepwise);
            assert_eq!(stepwise, barred, "size {size}, barred {barred_nodes:?}");
            for (d, domain) in self.topology.domains() {
                let d = d as usize;
                let want: Vec<NodeRef> = domain
                    .members
                    .iter()
                    .copied()
                    .filter(|n| {
                        let s = self.states[*n];
                        s.alive && size <= s.free && !barred_nodes.contains(n)
                    })
                    .collect();
                assert_eq!(
                    self.index.eligible_in(d, size, &barred),
                    want.len(),
                    "domain {d}, size {size}, barred {barred_nodes:?}"
                );
                for k in 0..want.len() + 2 {
                    assert_eq!(
                        self.index.nth_eligible_in(d, size, &barred, k),
                        want.get(k).copied(),
                        "domain {d}, k {k}, size {size}, barred {barred_nodes:?}"
                    );
                }
            }
        }

        fn tightest(&self, domain: usize) -> Option<NodeRef> {
            let slot = self.index.tightest[domain]?;
            Some(self.topology.members(domain as u32)[slot - self.index.spans[domain].start])
        }
    }

    #[test]
    fn barred_edges_and_runs_are_skipped() {
        let fixture = Fixture::new(|n| 10 + n as u64);
        let size = ByteSize::mb(1);
        assert!((0..3).all(|d| fixture.index.all_fit(d, size)), "fast arm");
        fixture.check(size, &[]);
        // Both edges of domain 0, an adjacent run of three in domain 1, and
        // domain 2's first member with its last two; nodes repeat.
        fixture.check(size, &[5, 7, 14, 2, 17, 4, 15, 16, 2, 5]);
        // Everything but the middle of domain 2, and all but the last of 0.
        fixture.check(size, &[4, 8, 11, 15, 16, 5, 0, 12, 3, 9]);
    }

    #[test]
    fn empty_and_wholly_barred_domains_yield_nothing() {
        let mut fixture = Fixture::new(|_| 10);
        for node in [5, 0, 12, 3, 9, 7] {
            fixture.down(node);
        }
        fixture.down(14);
        fixture.down(6);
        let size = ByteSize::mb(1);
        assert!((0..3).all(|d| fixture.index.all_fit(d, size)), "fast arm");
        // Domain 0 is wholly down; domain 1's live members are all barred.
        let barred_nodes = [1, 2, 17, 10];
        fixture.check(size, &barred_nodes);
        let mut barred = vec![];
        fixture.index.bar(size, barred_nodes, &mut barred);
        for d in 0..2 {
            assert_eq!(fixture.index.eligible_in(d, size, &barred), 0);
            assert_eq!(fixture.index.nth_eligible_in(d, size, &barred, 0), None);
        }
    }

    #[test]
    fn a_member_without_room_takes_the_scan() {
        let mut fixture = Fixture::new(|n| if n == 17 { 2 } else { 10 });
        // Too full for the block, but down: it does not count.
        fixture.set(0, state(false, 0));
        let size = ByteSize::mb(3);
        assert!(fixture.index.all_fit(0, size));
        assert!(!fixture.index.all_fit(1, size), "node 17 is live and full");
        fixture.check(size, &[]);
        fixture.check(size, &[1, 10, 17, 5, 7]);
        fixture.check(ByteSize::mb(2), &[1, 10]);
    }

    #[test]
    fn room_exactly_the_size_takes_the_fast_arm() {
        let fixture = Fixture::new(|n| if n == 2 { 4 } else { 10 });
        let exact = ByteSize::mb(4);
        assert_eq!(fixture.tightest(1), Some(2));
        assert!(fixture.index.all_fit(1, exact), "size <= room");
        fixture.check(exact, &[14, 17]);
        let over = exact + ByteSize::bytes(1);
        assert!(!fixture.index.all_fit(1, over));
        fixture.check(over, &[14, 17]);
    }

    #[test]
    fn the_tightest_member_follows_every_update() {
        let mut fixture = Fixture::new(|_| 10);
        assert_eq!(fixture.tightest(2), Some(4), "tie: member order");
        fixture.set(13, state(true, 6));
        assert_eq!(fixture.tightest(2), Some(13), "shrinks past the rest");
        fixture.set(13, state(true, 3));
        assert_eq!(fixture.tightest(2), Some(13), "shrinks further");
        fixture.set(15, state(true, 3));
        assert_eq!(fixture.tightest(2), Some(13), "tie: the earlier member");
        fixture.set(13, state(true, 5));
        assert_eq!(fixture.tightest(2), Some(15), "grows past another");
        fixture.set(15, state(true, 3));
        assert_eq!(fixture.tightest(2), Some(15), "a no-op update");
        fixture.down(15);
        assert_eq!(fixture.tightest(2), Some(13), "leaves");
        fixture.set(15, state(true, 3));
        assert_eq!(fixture.tightest(2), Some(15), "rejoins");
        fixture.check(ByteSize::mb(3), &[8, 15]);
        fixture.check(ByteSize::mb(4), &[8]);
        for node in [4, 8, 11, 13, 15, 16] {
            fixture.down(node);
        }
        assert_eq!(fixture.tightest(2), None, "the domain is down");
        fixture.check(ByteSize::mb(1), &[]);
    }
}
