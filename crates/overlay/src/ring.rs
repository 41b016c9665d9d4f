//! The circular identifier ring and its proximity queries.
//!
//! [`IdRing`] maintains the set of *live* node identifiers and answers the
//! queries the storage systems need:
//!
//! * `route(key)` — the live node numerically closest to a key (Pastry/PAST
//!   placement semantics, Section 4.1 of the paper);
//! * `k_closest(key, k)` — the `k` numerically closest live nodes (the CAT's
//!   leaf-set replica placement);
//! * `successor(key)` — the first node at or after the key clockwise (CFS
//!   places a block on the successor of its key);
//! * `remove_with_takeover(id)` — a failed node leaves, and the answer says
//!   which neighbour inherits which part of its key range (Section 4.4).
//!
//! The ring is one sorted table: every id ever inserted, beside its
//! [`NodeRef`] and a liveness mark.  Removing a node clears its mark and
//! re-inserting a known id sets it again, which is all churn does: a
//! simulated node rejoins with its old id.
//!
//! A radix index over the sorted ids finds a key's slot.  With `n` slots it
//! has 2^⌈log₂ n⌉ + 1 entries; entry `j` is the first slot whose id's top
//! ⌈log₂ n⌉ bits are at least `j`.  Node ids are uniform, so the slots
//! between entries `j` and `j + 1` hold about one id, and a search reads two
//! entries and compares the key with the ids between them.  The costs:
//!
//! * a query is one index read plus a walk over the dead slots next to the
//!   key;
//! * `remove_with_takeover` is one index read plus the walks from the failed
//!   slot to its nearest live neighbour on either side;
//! * re-inserting a known id is one index read;
//! * inserting a new id is an O(n) shift and an O(n) rebuild of the index;
//!   [`IdRing::from_members`] is one sort and one build.
//!
//! Dead slots are never compacted: no workload removes most of a ring, and
//! the networked gateway's ring of a few daemons only shrinks.

use crate::id::Id;

/// A reference to a node registered in the ring (index into the owner's node table).
pub type NodeRef = usize;

/// The set of live node identifiers, ordered on the circular id space.
#[derive(Debug, Clone, Default)]
pub struct IdRing {
    /// Every id ever inserted, sorted.
    ids: Vec<Id>,
    /// The node of each slot of `ids`.
    nodes: Vec<NodeRef>,
    /// Whether each slot of `ids` is a live member.
    live: Vec<bool>,
    /// The number of `true` marks in `live`.
    len: usize,
    /// The radix index over `ids`: entry `j` is the first slot whose id's
    /// top `bits` bits are at least `j`, and the last entry is `ids.len()`.
    /// Slot numbers fit in a `u32`: no ring holds 2^32 ids.
    starts: Vec<u32>,
    /// ⌈log₂ ids.len()⌉: the number of leading id bits `starts` indexes.
    bits: u32,
}

impl IdRing {
    /// Create an empty ring.
    pub fn new() -> Self {
        IdRing::default()
    }

    /// A ring whose members, all live, are `members`, built in one sort.
    /// `None` if two members share an id.
    pub fn from_members(mut members: Vec<(Id, NodeRef)>) -> Option<Self> {
        members.sort_unstable_by_key(|&(id, _)| id);
        if members.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        let mut ring = IdRing {
            ids: members.iter().map(|&(id, _)| id).collect(),
            nodes: members.iter().map(|&(_, node)| node).collect(),
            live: vec![true; members.len()],
            len: members.len(),
            starts: Vec::new(),
            bits: 0,
        };
        ring.index();
        Some(ring)
    }

    /// Rebuild `starts` for the current `ids`: count the ids of each bucket
    /// into the entry after it, then sum the counts up.  Both passes are
    /// branch-free.
    fn index(&mut self) {
        self.bits = self.ids.len().next_power_of_two().trailing_zeros();
        self.starts.clear();
        self.starts.resize((1 << self.bits) + 1, 0);
        for &id in &self.ids {
            self.starts[bucket(id, self.bits) + 1] += 1;
        }
        for j in 1..self.starts.len() {
            self.starts[j] += self.starts[j - 1];
        }
    }

    /// The first slot of `key`'s bucket, and the slots of that bucket: every
    /// slot before them holds an id below `key`, and every slot after them
    /// one above it.
    fn bucket_of(&self, key: Id) -> (usize, &[Id]) {
        let j = bucket(key, self.bits);
        // An empty ring's index is empty.
        let (Some(&lo), Some(&hi)) = (self.starts.get(j), self.starts.get(j + 1)) else {
            return (0, &[]);
        };
        (lo as usize, &self.ids[lo as usize..hi as usize])
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of slots whose id is below `key`.
    fn below(&self, key: Id) -> usize {
        let (lo, bucket) = self.bucket_of(key);
        lo + bucket.partition_point(|&id| id < key)
    }

    /// The number of slots whose id is at most `key`.
    fn up_to(&self, key: Id) -> usize {
        let (lo, bucket) = self.bucket_of(key);
        lo + bucket.partition_point(|&id| id <= key)
    }

    /// The slot of `id` if it has one, else the slot it would be inserted at.
    fn search(&self, id: Id) -> Result<usize, usize> {
        let (lo, bucket) = self.bucket_of(id);
        bucket
            .binary_search(&id)
            .map(|slot| lo + slot)
            .map_err(|slot| lo + slot)
    }

    /// The slot of a live member `id`.
    fn live_slot(&self, id: Id) -> Option<usize> {
        self.search(id).ok().filter(|&slot| self.live[slot])
    }

    /// Live members clockwise from slot `from` on (wrapping), each once.
    fn clockwise_from(&self, from: usize) -> impl Iterator<Item = (Id, NodeRef)> + '_ {
        (from..self.ids.len())
            .chain(0..from)
            .filter(|&slot| self.live[slot])
            .map(|slot| (self.ids[slot], self.nodes[slot]))
    }

    /// Live members counter-clockwise from the slot before `from` on
    /// (wrapping), each once.
    fn counter_clockwise_from(&self, from: usize) -> impl Iterator<Item = (Id, NodeRef)> + '_ {
        (0..from)
            .rev()
            .chain((from..self.ids.len()).rev())
            .filter(|&slot| self.live[slot])
            .map(|slot| (self.ids[slot], self.nodes[slot]))
    }

    /// Insert a node. Returns `false` (and leaves the ring unchanged) if the id
    /// is already present — node ids must be unique.
    pub fn insert(&mut self, id: Id, node: NodeRef) -> bool {
        match self.search(id) {
            Ok(slot) if self.live[slot] => return false,
            Ok(slot) => {
                self.nodes[slot] = node;
                self.live[slot] = true;
            }
            Err(slot) => {
                self.ids.insert(slot, id);
                self.nodes.insert(slot, node);
                self.live.insert(slot, true);
                self.index();
            }
        }
        self.len += 1;
        true
    }

    /// Remove the live member `failed`, returning its node reference and
    /// which neighbours inherit its key range; `None` if `failed` is not a
    /// live member, and no takeover when it was the last one.
    ///
    /// In Pastry the identifier space mapped to a failed node is split between
    /// its two immediate neighbours: keys counter-clockwise of the failed id
    /// (up to the old midpoint with the predecessor) now map to the
    /// predecessor, keys clockwise map to the successor.  The [`Takeover`]
    /// describes both inheritors; they are the nodes that must regenerate the
    /// failed node's lost blocks.  One index read finds the slot: both
    /// walks start beside it and would reach it last, so with another member
    /// live neither does.
    pub fn remove_with_takeover(&mut self, failed: Id) -> Option<(NodeRef, Option<Takeover>)> {
        let slot = self.live_slot(failed)?;
        let takeover = if self.len > 1 {
            let predecessor = self.counter_clockwise_from(slot).next();
            let successor = self.clockwise_from(slot + 1).next();
            predecessor
                .zip(successor)
                .map(|(predecessor, successor)| Takeover {
                    failed,
                    predecessor,
                    successor,
                })
        } else {
            None
        };
        self.live[slot] = false;
        self.len -= 1;
        Some((self.nodes[slot], takeover))
    }

    /// True if the id is a live member.
    pub fn contains(&self, id: Id) -> bool {
        self.live_slot(id).is_some()
    }

    /// Iterate over `(id, node)` pairs in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, NodeRef)> + '_ {
        self.clockwise_from(0)
    }

    /// The first member at or after `key` (wrapping to the smallest id).
    pub fn successor(&self, key: Id) -> Option<(Id, NodeRef)> {
        self.clockwise_from(self.below(key)).next()
    }

    /// The last member strictly before `key` (wrapping to the largest id).
    pub fn predecessor(&self, key: Id) -> Option<(Id, NodeRef)> {
        self.counter_clockwise_from(self.below(key)).next()
    }

    /// The live node numerically closest to `key` on the circular space.
    ///
    /// Ties (exactly equidistant neighbours) resolve to the clockwise successor,
    /// which keeps the mapping deterministic.
    pub fn route(&self, key: Id) -> Option<(Id, NodeRef)> {
        // A member equal to the key is its successor, at distance 0.
        let slot = self.below(key);
        let succ = self.clockwise_from(slot).next()?;
        let pred = self.counter_clockwise_from(slot).next()?;
        Some(if key.distance(succ.0) <= key.distance(pred.0) {
            succ
        } else {
            pred
        })
    }

    /// The `k` live nodes numerically closest to `key`, ordered by circular distance.
    pub fn k_closest(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        let k = k.min(self.len);
        // Walk outward from the key in both directions, taking the nearer
        // head each step (clockwise on a tie).  Both walks see every member,
        // and the two together reach `k <= len` distinct ones before they meet.
        let slot = self.below(key);
        let mut up = self.clockwise_from(slot).peekable();
        let mut down = self.counter_clockwise_from(slot).peekable();
        let mut result = Vec::with_capacity(k);
        while result.len() < k {
            let (Some(&u), Some(&d)) = (up.peek(), down.peek()) else {
                break;
            };
            if key.distance(u.0) <= key.distance(d.0) {
                up.next();
                result.push(u);
            } else {
                down.next();
                result.push(d);
            }
        }
        result
    }

    /// The member immediately clockwise of `id` (excluding `id` itself), wrapping.
    pub fn next_clockwise(&self, id: Id) -> Option<(Id, NodeRef)> {
        self.clockwise_from(self.up_to(id))
            .next()
            .filter(|_| self.len > 1)
    }
}

/// The bucket of `id` in an index over its top `bits` bits (at most 64).
fn bucket(id: Id, bits: u32) -> usize {
    // Shifting the top half right by 64 - bits keeps its top `bits` bits;
    // with no bits the shift would be 64, out of range, and every id is in
    // bucket 0.
    ((id.0 >> 64) as u64).checked_shr(64 - bits).unwrap_or(0) as usize
}

/// Result of a node failure: which neighbours inherit the failed node's key range.
#[derive(Debug, Clone, Copy)]
pub struct Takeover {
    /// The id of the failed node.
    pub failed: Id,
    /// The immediate counter-clockwise neighbour (inherits the counter-clockwise half).
    pub predecessor: (Id, NodeRef),
    /// The immediate clockwise neighbour (inherits the clockwise half).
    pub successor: (Id, NodeRef),
}

impl Takeover {
    /// Which of the two inheritors a particular key (previously mapped to the
    /// failed node) now belongs to, by numerically-closest routing among the two.
    pub fn inheritor_of(&self, key: Id) -> (Id, NodeRef) {
        let dp = key.distance(self.predecessor.0);
        let ds = key.distance(self.successor.0);
        if ds <= dp {
            self.successor
        } else {
            self.predecessor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_sim::DetRng;

    fn ring_with(ids: &[u128]) -> IdRing {
        let mut ring = IdRing::new();
        for (i, &v) in ids.iter().enumerate() {
            assert!(ring.insert(Id(v), i));
        }
        ring
    }

    #[test]
    fn insert_remove_contains() {
        let mut ring = ring_with(&[10, 20, 30]);
        assert_eq!(ring.len(), 3);
        assert!(ring.contains(Id(20)));
        assert!(!ring.insert(Id(20), 9), "duplicate ids rejected");
        assert_eq!(
            ring.remove_with_takeover(Id(20)).map(|(node, _)| node),
            Some(1)
        );
        assert!(!ring.contains(Id(20)));
        assert!(ring.remove_with_takeover(Id(20)).is_none());
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn from_members_sorts_and_rejects_a_duplicate_id() {
        let ring = IdRing::from_members(vec![(Id(30), 0), (Id(10), 1), (Id(20), 2)]).unwrap();
        let members: Vec<_> = ring.iter().collect();
        assert_eq!(members, [(Id(10), 1), (Id(20), 2), (Id(30), 0)]);
        assert_eq!(ring.len(), 3);
        assert!(IdRing::from_members(vec![(Id(7), 0), (Id(9), 1), (Id(7), 2)]).is_none());
        assert!(IdRing::from_members(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn a_removed_id_keeps_its_slot_and_rejoins_under_a_new_node() {
        let mut ring = ring_with(&[10, 20, 30]);
        let remove = |ring: &mut IdRing, id| ring.remove_with_takeover(Id(id)).map(|(n, _)| n);
        assert_eq!(remove(&mut ring, 20), Some(1));
        assert!(!ring.contains(Id(20)));
        assert_eq!(
            ring.route(Id(21)),
            Some((Id(30), 2)),
            "dead slots are skipped"
        );
        assert_eq!(ring.k_closest(Id(20), 5), [(Id(30), 2), (Id(10), 0)]);
        assert!(ring.insert(Id(20), 7));
        assert_eq!(ring.route(Id(20)), Some((Id(20), 7)));
        assert_eq!(ring.len(), 3);
        assert_eq!(remove(&mut ring, 10), Some(0));
        assert_eq!(remove(&mut ring, 30), Some(2));
        assert_eq!(
            ring.successor(Id(25)),
            Some((Id(20), 7)),
            "wraps past dead slots"
        );
        assert_eq!(ring.predecessor(Id(15)), Some((Id(20), 7)));
        assert!(ring.next_clockwise(Id(20)).is_none(), "one live member");
    }

    #[test]
    fn route_picks_numerically_closest() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.route(Id(100)).unwrap().0, Id(100));
        assert_eq!(ring.route(Id(140)).unwrap().0, Id(100));
        assert_eq!(ring.route(Id(160)).unwrap().0, Id(200));
        assert_eq!(
            ring.route(Id(150)).unwrap().0,
            Id(200),
            "tie resolves clockwise"
        );
        // Wrap-around: a key near the top of the space is closest to Id(100).
        assert_eq!(ring.route(Id(u128::MAX - 5)).unwrap().0, Id(100));
    }

    #[test]
    fn a_member_id_routes_to_that_member() {
        let ring = ring_with(&[100, 200, 300, u128::MAX]);
        for (node, id) in [100, 200, 300, u128::MAX].into_iter().enumerate() {
            assert_eq!(ring.route(Id(id)), Some((Id(id), node)));
        }
        // Equidistant from two members, also across the wrap: clockwise wins.
        assert_eq!(ring.route(Id(150)), Some((Id(200), 1)));
        let ring = ring_with(&[u128::MAX, 1]);
        assert_eq!(ring.route(Id(0)), Some((Id(1), 1)));
        assert_eq!(ring_with(&[7]).route(Id(7)), Some((Id(7), 0)));
    }

    #[test]
    fn route_matches_brute_force() {
        let mut rng = DetRng::new(42);
        let ids: Vec<Id> = (0..200).map(|_| Id::random(&mut rng)).collect();
        let mut ring = IdRing::new();
        for (i, id) in ids.iter().enumerate() {
            ring.insert(*id, i);
        }
        for _ in 0..500 {
            let key = Id::random(&mut rng);
            let (got, _) = ring.route(key).unwrap();
            let best = ids
                .iter()
                .copied()
                .min_by_key(|id| (key.distance(*id), id.0))
                .unwrap();
            assert_eq!(
                key.distance(got),
                key.distance(best),
                "route distance must equal brute-force minimum"
            );
        }
    }

    #[test]
    fn successor_predecessor_wrap() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.successor(Id(250)).unwrap().0, Id(300));
        assert_eq!(ring.successor(Id(301)).unwrap().0, Id(100), "wraps");
        assert_eq!(ring.predecessor(Id(250)).unwrap().0, Id(200));
        assert_eq!(ring.predecessor(Id(50)).unwrap().0, Id(300), "wraps");
    }

    #[test]
    fn k_closest_ordering_and_size() {
        let ring = ring_with(&[100, 200, 300, 400, 500]);
        let close = ring.k_closest(Id(310), 3);
        let ids: Vec<u128> = close.iter().map(|(i, _)| i.0).collect();
        assert_eq!(ids, vec![300, 400, 200]);
        assert_eq!(ring.k_closest(Id(310), 10).len(), 5, "capped at ring size");
        assert!(ring.k_closest(Id(310), 0).is_empty());
    }

    #[test]
    fn clockwise_and_counter_clockwise_neighbours() {
        let ring = ring_with(&[100, 200, 300]);
        assert_eq!(ring.next_clockwise(Id(100)).unwrap().0, Id(200));
        assert_eq!(ring.next_clockwise(Id(300)).unwrap().0, Id(100));
        assert_eq!(ring.predecessor(Id(100)).unwrap().0, Id(300));
        assert_eq!(ring.predecessor(Id(300)).unwrap().0, Id(200));
        let singleton = ring_with(&[42]);
        assert!(singleton.next_clockwise(Id(42)).is_none());
    }

    #[test]
    fn takeover_assigns_keys_to_nearest_survivor() {
        let mut ring = ring_with(&[100, 200, 300]);
        assert!(ring.remove_with_takeover(Id(999)).is_none());
        let (node, t) = ring.remove_with_takeover(Id(200)).unwrap();
        let t = t.unwrap();
        assert_eq!(node, 1);
        assert_eq!(t.predecessor.0, Id(100));
        assert_eq!(t.successor.0, Id(300));
        // A key that used to map to 200 but is nearer 100 goes to the predecessor.
        assert_eq!(t.inheritor_of(Id(180)).0, Id(100));
        assert_eq!(t.inheritor_of(Id(260)).0, Id(300));
        // Across the wrap, and down to the last member, which has no heirs.
        let (_, t) = ring.remove_with_takeover(Id(300)).unwrap();
        assert_eq!(
            t.map(|t| (t.predecessor.0, t.successor.0)),
            Some((Id(100), Id(100)))
        );
        assert_eq!(
            ring.remove_with_takeover(Id(100)).map(|(_, t)| t.is_none()),
            Some(true)
        );
        assert!(ring.is_empty());
    }

    /// Rings of 0 to 3 members index 0, 0, 1 and 2 leading bits.  Built in
    /// one sort or joined id by id, each answers every query at its bucket
    /// edges, and at and beside its members, as a scan of its members would.
    #[test]
    fn rings_of_up_to_three_members_index_their_buckets() {
        let ids = [1 << 127, u128::MAX, 5];
        let indexes: [(u32, &[u32]); 4] = [
            (0, &[0, 0]),
            (0, &[0, 1]),
            (1, &[0, 0, 2]),
            (2, &[0, 1, 1, 2, 3]),
        ];
        for (n, (bits, starts)) in indexes.into_iter().enumerate() {
            let members: Vec<(Id, NodeRef)> = ids[..n].iter().map(|&v| Id(v)).zip(0..).collect();
            let built = IdRing::from_members(members.clone()).unwrap();
            assert_eq!(
                (built.bits, &built.starts[..]),
                (bits, starts),
                "{n} members"
            );
            let joined = ring_with(&ids[..n]);
            if n > 0 {
                assert_eq!(
                    (joined.bits, &joined.starts[..]),
                    (bits, starts),
                    "{n} joined"
                );
            }
            let mut sorted = members;
            sorted.sort_unstable();
            let successor = |key: Id| sorted.iter().find(|m| m.0 >= key).or(sorted.first());
            let predecessor = |key: Id| sorted.iter().rev().find(|m| m.0 < key).or(sorted.last());
            let mut keys = vec![0, u128::MAX];
            for j in 0..1u128 << bits {
                let edge = j.checked_shl(128 - bits).unwrap_or(0);
                keys.extend([edge, edge.wrapping_sub(1)]);
            }
            for &v in &ids[..n] {
                keys.extend([v.wrapping_sub(1), v, v.wrapping_add(1)]);
            }
            for ring in [&built, &joined] {
                for key in keys.iter().map(|&v| Id(v)) {
                    let route = successor(key).zip(predecessor(key)).map(|(s, p)| {
                        if key.distance(s.0) <= key.distance(p.0) {
                            *s
                        } else {
                            *p
                        }
                    });
                    let next = sorted.iter().find(|m| m.0 > key).or(sorted.first());
                    assert_eq!(ring.contains(key), sorted.iter().any(|m| m.0 == key));
                    assert_eq!(ring.successor(key), successor(key).copied(), "{key:?}");
                    assert_eq!(ring.predecessor(key), predecessor(key).copied(), "{key:?}");
                    assert_eq!(ring.route(key), route, "{n} members: route {key:?}");
                    assert_eq!(
                        ring.next_clockwise(key),
                        next.copied().filter(|_| n > 1),
                        "{key:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_ring_queries() {
        let ring = IdRing::new();
        assert!(ring.is_empty());
        assert!(ring.route(Id(1)).is_none());
        assert!(ring.successor(Id(1)).is_none());
        assert!(ring.k_closest(Id(1), 3).is_empty());
    }
}
