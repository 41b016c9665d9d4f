//! The per-domain placement index a cluster keeps current.
//!
//! [`DomainSpread`](crate::DomainSpread) asks two questions per decision: on
//! the store path, "which live member of this domain reports the most free
//! space?", and on the repair path, "which live members of these domains have
//! room for a block?".  Answered through [`ClusterView`](crate::ClusterView)
//! one node at a time, either costs a walk over the whole cluster.  A
//! [`DomainIndex`] holds the answers instead: every node of the topology has a
//! slot — liveness, current `getCapacity` report, free room — laid out domain
//! by domain in the topology's own member order, and each domain caches its
//! freest member.  The cluster that owns the index calls
//! [`DomainIndex::update`] wherever a node's space or liveness changes;
//! strategies borrow it through `ClusterView::domain_index`.
//!
//! The index answers exactly what the scan over the same cluster answers —
//! same node, same report, same order within a pool — so a decision does not
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
    /// Its current `getCapacity` report (what the store path ranks by).
    pub report: ByteSize,
    /// Its free room (what `can_store` compares a block size against).  Not
    /// the report: a node may advertise only a fraction of its free space.
    pub free: ByteSize,
}

/// A domain's freest live member with a non-zero report; the first member in
/// member order wins ties, as in the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Freest {
    slot: usize,
    node: NodeRef,
    report: ByteSize,
}

/// Per-node state laid out by failure domain, with each domain's freest
/// member cached.  See the [module docs](self).
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
    report: Vec<ByteSize>,
    free: Vec<ByteSize>,
    /// Per domain.
    freest: Vec<Option<Freest>>,
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
            report: Vec::with_capacity(nodes),
            free: Vec::with_capacity(nodes),
            freest: Vec::with_capacity(domains.len()),
            domains,
        };
        for d in 0..index.domains.len() {
            let start = index.alive.len();
            for &node in &index.domains[d].members {
                let NodeState {
                    alive,
                    report,
                    free,
                } = state(node);
                *index.home.get_mut(node)? = (d, index.alive.len());
                index.alive.push(alive);
                index.report.push(report);
                index.free.push(free);
            }
            index.spans.push(start..index.alive.len());
            index.freest.push(index.scan_freest(d));
        }
        Some(index)
    }

    /// True if this index was built for `topology` (or a clone of it).
    pub fn serves(&self, topology: &Topology) -> bool {
        Arc::ptr_eq(&self.domains, &topology.domains)
    }

    /// Record a node's new state.  O(1), except that a domain's cached
    /// freest member is re-derived over the domain when that very member
    /// shrinks or leaves.
    pub fn update(&mut self, node: NodeRef, state: NodeState) {
        let Some(&(d, slot)) = self.home.get(node) else {
            return;
        };
        self.alive[slot] = state.alive;
        self.report[slot] = state.report;
        self.free[slot] = state.free;
        let report = state.report;
        let counts = state.alive && !report.is_zero();
        match self.freest[d] {
            Some(best) if best.slot == slot => {
                self.freest[d] = if counts && report >= best.report {
                    Some(Freest { report, ..best })
                } else {
                    self.scan_freest(d)
                };
            }
            best => {
                let ahead = |b: Freest| report > b.report || (report == b.report && slot < b.slot);
                if counts && best.is_none_or(ahead) {
                    self.freest[d] = Some(Freest { slot, node, report });
                }
            }
        }
    }

    /// The freest live member of `domain` outside `chosen`, with its report;
    /// `None` when no such member reports any space.  The cached answer,
    /// unless the cached member is itself in `chosen`: then the best of the
    /// rest, by a walk over the domain.
    pub fn freest_in(&self, domain: usize, chosen: &[NodeRef]) -> Option<(NodeRef, ByteSize)> {
        let best = self.freest[domain]?;
        if !chosen.contains(&best.node) {
            return Some((best.node, best.report));
        }
        let mut rest: Option<(NodeRef, ByteSize)> = None;
        for (slot, &node) in self.spans[domain]
            .clone()
            .zip(&self.domains[domain].members)
        {
            let report = self.report[slot];
            if self.alive[slot]
                && !report.is_zero()
                && rest.is_none_or(|(_, most)| report > most)
                && !chosen.contains(&node)
            {
                rest = Some((node, report));
            }
        }
        rest
    }

    /// Derive a domain's freest member from its slots: the largest report
    /// among the live members (a branch-free pass, this runs whenever the
    /// cached member shrinks), then the first member that has it.
    fn scan_freest(&self, domain: usize) -> Option<Freest> {
        let span = self.spans[domain].clone();
        let alive = &self.alive[span.clone()];
        let reports = &self.report[span.clone()];
        let report = alive
            .iter()
            .zip(reports)
            .map(|(&alive, &report)| if alive { report } else { ByteSize::ZERO })
            .max()
            .filter(|most| !most.is_zero())?;
        let at = (0..alive.len()).find(|&at| alive[at] && reports[at] == report)?;
        Some(Freest {
            slot: span.start + at,
            node: *self.domains[domain].members.get(at)?,
            report,
        })
    }

    /// The slots of `nodes` that [`DomainIndex::eligible_in`] would otherwise
    /// count for a block of `size`, each once however often its node repeats.
    pub fn barred(&self, size: ByteSize, nodes: impl IntoIterator<Item = NodeRef>) -> Vec<usize> {
        let mut slots = Vec::new();
        for node in nodes {
            if let Some(&(_, slot)) = self.home.get(node) {
                if self.has_room(slot, size) && !slots.contains(&slot) {
                    slots.push(slot);
                }
            }
        }
        slots
    }

    /// How many members of `domain` are live with room for a block of `size`,
    /// not counting the `barred` slots.
    pub fn eligible_in(&self, domain: usize, size: ByteSize, barred: &[usize]) -> usize {
        let span = self.spans[domain].clone();
        let open: usize = self.alive[span.clone()]
            .iter()
            .zip(&self.free[span.clone()])
            .map(|(&alive, &free)| usize::from(alive & (size <= free)))
            .sum();
        open - barred.iter().filter(|slot| span.contains(slot)).count()
    }

    /// The `k`-th (from zero, in member order) of the members
    /// [`DomainIndex::eligible_in`] counts.
    pub fn nth_eligible_in(
        &self,
        domain: usize,
        size: ByteSize,
        barred: &[usize],
        k: usize,
    ) -> Option<NodeRef> {
        self.spans[domain]
            .clone()
            .zip(&self.domains[domain].members)
            .filter(|(slot, _)| self.has_room(*slot, size) && !barred.contains(slot))
            .nth(k)
            .map(|(_, &node)| node)
    }

    fn has_room(&self, slot: usize, size: ByteSize) -> bool {
        self.alive[slot] && size <= self.free[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(alive: bool, report_mb: u64) -> NodeState {
        NodeState {
            alive,
            report: ByteSize::mb(report_mb),
            free: ByteSize::mb(report_mb),
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
            site: 0,
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
        assert_eq!(freest(&index), None, "a zero report is no target");
        assert_eq!(
            index.eligible_in(0, ByteSize::ZERO, &[]),
            3,
            "yet fits nothing"
        );
        let rebuilt = index.rebuilt(|node| state(node != 2, if node == 2 { 10 } else { 0 }));
        assert_eq!(rebuilt.as_ref(), Some(&index));
    }
}
