//! The byte path, judged from outside the client: a backend wrapper that
//! records every `fetch_block` call, can make chosen blocks unreadable and can
//! refuse a chosen `store_block` shows which blocks a read pulls — the rows
//! it overlaps, each once, and past a miss only as many more as make up the
//! chunk — that every loss pattern a policy tolerates still reads back the
//! stored bytes, whole and in part (and one more loss reads nothing, never
//! wrong bytes), that repair hands each replacement exactly the lost
//! placement's codec blocks, in its place, that a repair which cannot
//! rebuild a chunk says so and stores nothing, that a chunk refused
//! part-way is rolled back whole, and that a chunk sized by the probes'
//! reports fits every node it goes to.  The wrapper implements `fetch_block` and
//! `store_block` only, so the read path's `fetch_block_into` and the store
//! path's `store_block_from` reach it through the provided bodies.
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe::core::client::unpack_payload;
use peerstripe::core::{
    ChunkPlacement, ClusterConfig, ClusterStoreError, CodingPolicy, FetchedBlock, ObjectName,
    PeerStripe, PeerStripeConfig, StorageBackend, StorageCluster, StorageSystem,
};
use peerstripe::overlay::{Id, NodeRef};
use peerstripe::placement::{ClusterView, ProbeView};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The simulator behind a wrapper that records the key of every `fetch_block`
/// call, answers `None` for every block whose key is in `lost`, refuses the
/// `refuse_store`-th payload-carrying `store_block` (counted from 1), and
/// while `payloads_only` is set fails on any `store_block` without a payload.
struct Probe {
    inner: StorageCluster,
    fetched: RefCell<Vec<Id>>,
    lost: BTreeSet<Id>,
    payload_stores: usize,
    refuse_store: Option<usize>,
    payloads_only: bool,
    rolled_back: Vec<ObjectName>,
}

impl ClusterView for Probe {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.inner.route_quiet(key)
    }
    fn is_alive(&self, node: NodeRef) -> bool {
        self.inner.is_alive(node)
    }
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.inner.can_store(node, size)
    }
    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.inner.report_of(node)
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.inner.alive_nodes()
    }
}

impl ProbeView for Probe {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.inner.probe(key)
    }
}

impl StorageBackend for Probe {
    fn route_lookup(&mut self, key: Id) -> Option<NodeRef> {
        self.inner.route_lookup(key)
    }
    fn store_block(
        &mut self,
        node: NodeRef,
        key: Id,
        name: ObjectName,
        size: ByteSize,
        payload: Option<Vec<u8>>,
    ) -> Result<NodeRef, ClusterStoreError> {
        assert!(
            payload.is_some() || !self.payloads_only,
            "{name}: a byte-path repair stored a block without its payload"
        );
        self.payload_stores += usize::from(payload.is_some());
        if payload.is_some() && self.refuse_store == Some(self.payload_stores) {
            return Err(ClusterStoreError::NoLiveNodes);
        }
        self.inner.store_block(node, key, name, size, payload)
    }
    fn fetch_block(&self, node: NodeRef, name: &ObjectName) -> Option<FetchedBlock> {
        self.fetched.borrow_mut().push(name.key());
        if self.lost.contains(&name.key()) {
            return None;
        }
        self.inner.fetch_block(node, name)
    }
    fn rollback_block(&mut self, node: NodeRef, name: &ObjectName, size: ByteSize) {
        self.rolled_back.push(name.clone());
        self.inner.rollback_block(node, name, size)
    }
    fn replica_targets(&self, key: Id, k: usize) -> Vec<(Id, NodeRef)> {
        self.inner.replica_targets(key, k)
    }
}

const POLICIES: [CodingPolicy; 5] = [
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

/// A client over `nodes` simulated nodes that cuts files into chunks of at
/// most 16 KiB, so modest files span several chunks.
fn client(coding: CodingPolicy, nodes: usize, seed: u64) -> PeerStripe<Probe> {
    client_with_chunks(coding, nodes, seed, Some(ByteSize::kb(16)))
}

fn cluster(nodes: usize, capacity: ByteSize, seed: u64) -> StorageCluster {
    ClusterConfig {
        nodes,
        capacity: CapacityModel::Fixed(capacity),
        track_objects: true,
    }
    .build(&mut DetRng::new(seed))
}

/// A client over `nodes` simulated nodes of 64 MB: room to spare, so a
/// chunk is bounded by `max_chunk_size` or by the file, never by a report.
fn client_with_chunks(
    coding: CodingPolicy,
    nodes: usize,
    seed: u64,
    max_chunk_size: Option<ByteSize>,
) -> PeerStripe<Probe> {
    client_over(
        coding,
        cluster(nodes, ByteSize::mb(64), seed),
        max_chunk_size,
    )
}

fn client_over(
    coding: CodingPolicy,
    inner: StorageCluster,
    max_chunk_size: Option<ByteSize>,
) -> PeerStripe<Probe> {
    let probe = Probe {
        inner,
        fetched: RefCell::new(Vec::new()),
        lost: BTreeSet::new(),
        payload_stores: 0,
        refuse_store: None,
        payloads_only: false,
        rolled_back: Vec::new(),
    };
    let config = PeerStripeConfig {
        coding,
        max_chunk_size,
        ..PeerStripeConfig::default()
    };
    PeerStripe::new(probe, config)
}

fn seeded(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// Make exactly the placed blocks at `positions` of every chunk unreadable.
fn lose_positions(ps: &mut PeerStripe<Probe>, file: &str, positions: &[usize]) {
    let lost: BTreeSet<Id> = ps
        .manifest(file)
        .expect("stored")
        .chunks
        .iter()
        .flat_map(|c| positions.iter().filter_map(|&p| c.blocks.get(p)))
        .map(|b| b.name.key())
        .collect();
    ps.backend_mut().lost = lost;
}

/// What one read asked the backend for: how many blocks, and how many of
/// those were unreadable.  No block may be asked for twice.
struct Asked {
    fetches: usize,
    misses: usize,
}

/// Run `read` and report the `fetch_block` calls it issued.
fn asked<T>(ps: &PeerStripe<Probe>, read: impl FnOnce(&PeerStripe<Probe>) -> T) -> (T, Asked) {
    ps.backend().fetched.borrow_mut().clear();
    let got = read(ps);
    let fetched = ps.backend().fetched.borrow();
    let distinct: BTreeSet<&Id> = fetched.iter().collect();
    assert_eq!(distinct.len(), fetched.len(), "a block was fetched twice");
    let misses = fetched
        .iter()
        .filter(|key| ps.backend().lost.contains(key))
        .count();
    let asked = Asked {
        fetches: fetched.len(),
        misses,
    };
    (got, asked)
}

/// `fetch_block` calls one full read of `file` issues.
fn fetches_of_read(ps: &PeerStripe<Probe>, file: &str, want: &[u8]) -> usize {
    let (got, asked) = asked(ps, |ps| ps.retrieve_data(file));
    assert_eq!(got.as_deref(), Some(want));
    asked.fetches
}

/// Every subset of `0..n` with exactly `k` members.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| (0..n).filter(|i| mask & (1 << i) != 0).collect())
        .collect()
}

/// The file sizes a policy's reads are walked over: around the number of
/// rows a chunk is cut into (a chunk with fewer bytes than rows), around one
/// 16 KiB chunk, and several chunks.
fn sizes(coding: CodingPolicy) -> Vec<usize> {
    let (k, chunk) = (coding.data_blocks(), ByteSize::kb(16).as_u64() as usize);
    let mut sizes = vec![
        1,
        k - 1,
        k,
        k + 1,
        chunk - 1,
        chunk,
        chunk + 1,
        2 * chunk + 4321,
    ];
    sizes.retain(|&len| len > 0);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// What reading bytes `from..to` of the stored file costs in `fetch_block`
/// calls when every block answers, and the most it may cost, misses aside,
/// when some do not.  Per chunk touched: Reed–Solomon's rows lie one to a
/// block, in order, so a healthy read fetches the rows its bytes overlap;
/// every other layout fetches `min_blocks_needed` blocks and decodes.  Past
/// a miss either fetches on until it holds `min_blocks_needed` blocks.
fn read_costs(
    ps: &PeerStripe<Probe>,
    coding: CodingPolicy,
    from: usize,
    to: usize,
) -> (usize, usize) {
    let (mut healthy, mut most, mut start) = (0, 0, 0);
    for chunk in &ps.manifest("f").expect("stored").chunks {
        let len = chunk.size.as_u64() as usize;
        let (lo, hi) = (from.max(start), to.min(start + len));
        if lo < hi {
            healthy += match coding {
                CodingPolicy::ReedSolomon { data, .. } => {
                    let row = len.div_ceil(data);
                    (hi - start - 1) / row - (lo - start) / row + 1
                }
                _ => coding.min_blocks_needed(),
            };
            most += coding.min_blocks_needed();
        }
        start += len;
    }
    (healthy, most)
}

proptest! {
    // Each case walks every loss pattern of every policy over eight files.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For file sizes around a chunk's row count and around a chunk, every
    /// loss pattern a policy tolerates reads back the stored bytes — whole
    /// and over an arbitrary range — asking for no block twice, for exactly
    /// the blocks a healthy read needs when nothing is lost, and for at most
    /// `min_blocks_needed` a chunk plus the misses when something is.  Every
    /// pattern one loss beyond that reads nothing — or, where the bytes asked
    /// for lie clear of the lost rows, the right bytes — never anything wrong.  The online code's recovery is probabilistic (at the
    /// byte path's 16 source blocks, weakly so): under loss it may read
    /// nothing and may fetch on, but what it reads must still be right.
    #[test]
    fn reads_survive_exactly_the_losses_the_policy_tolerates(
        offset_frac in 0.0f64..1.0,
        range_len in 1u64..30_000,
        seed in any::<u64>(),
    ) {
        for coding in POLICIES {
            let online = matches!(coding, CodingPolicy::Online { .. });
            for len in sizes(coding) {
                let data = seeded(len, seed ^ len as u64);
                let from = (offset_frac * len as f64) as usize;
                let to = (from + range_len as usize).min(len);
                let mut ps = client(coding, 24, 77);
                prop_assert!(ps.store_data("f", &data).is_stored());
                let whole_costs = read_costs(&ps, coding, 0, len);
                let part_costs = read_costs(&ps, coding, from, to);
                let placed = coding.placed_blocks();
                for losses in 0..=coding.tolerable_losses() {
                    for pattern in subsets(placed, losses) {
                        lose_positions(&mut ps, "f", &pattern);
                        let whole = asked(&ps, |ps| ps.retrieve_data("f"));
                        let part = asked(&ps, |ps| {
                            ps.retrieve_range_data("f", from as u64, range_len)
                        });
                        let reads = [
                            (whole, &data[..], whole_costs),
                            (part, &data[from..to], part_costs),
                        ];
                        for ((got, asked), want, (healthy, most)) in reads {
                            let context = format!(
                                "{} at {len} bytes, lost {pattern:?}, {} bytes read",
                                coding.label(),
                                want.len()
                            );
                            prop_assert!(
                                got.as_deref() == Some(want)
                                    || (online && losses > 0 && got.is_none()),
                                "{}", context
                            );
                            if !online {
                                prop_assert!(losses > 0 || asked.fetches == healthy, "{}", context);
                                prop_assert!(asked.fetches <= most + asked.misses, "{}", context);
                            }
                        }
                    }
                }
                for pattern in subsets(placed, coding.tolerable_losses() + 1) {
                    lose_positions(&mut ps, "f", &pattern);
                    // A chunk too short to fill all its rows is clear of the
                    // ones that are all padding: its healthy read skips them.
                    let whole = ps.retrieve_data("f");
                    let clear = whole_costs.0 < whole_costs.1 && whole.as_deref() == Some(&data[..]);
                    prop_assert!(
                        whole.is_none() || clear,
                        "{} at {} bytes, lost {:?}", coding.label(), len, &pattern
                    );
                    let part = ps.retrieve_range_data("f", from as u64, range_len);
                    prop_assert!(part.is_none() || part.as_deref() == Some(&data[from..to]));
                }
            }
        }
    }
}

#[test]
fn a_range_read_fetches_the_rows_it_overlaps() {
    // One RS(5, 3) chunk of 50 000 bytes: five rows of 10 000, one to a block.
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    let mut ps = client_with_chunks(coding, 24, 82, None);
    let data = seeded(50_000, 4);
    assert!(ps.store_data("f", &data).is_stored());
    assert_eq!(ps.manifest("f").unwrap().chunks.len(), 1);
    let range = |ps: &PeerStripe<Probe>, from: usize, len: usize| {
        let (got, asked) = asked(ps, |ps| {
            ps.retrieve_range_data("f", from as u64, len as u64)
        });
        assert_eq!(
            got.as_deref(),
            Some(&data[from..from + len]),
            "{from}+{len}"
        );
        asked.fetches
    };
    assert_eq!(range(&ps, 24_000, 100), 1, "inside row 2");
    assert_eq!(range(&ps, 19_999, 2), 2, "across the rows 1 | 2 boundary");
    assert_eq!(range(&ps, 1, 49_998), 5, "spanning the chunk");
    // Row 2 unreadable: the same 100 bytes cost the miss and a chunk's worth
    // of other blocks, and a range clear of row 2 costs what it did.
    lose_positions(&mut ps, "f", &[2]);
    assert_eq!(range(&ps, 24_000, 100), 1 + 5);
    assert_eq!(range(&ps, 30_000, 100), 1);
    // To the end of the file, however the length is spelled.
    let tail = ps.retrieve_range_data("f", 49_000, u64::MAX);
    assert_eq!(tail.as_deref(), Some(&data[49_000..]));
}

#[test]
fn a_healthy_read_fetches_only_the_blocks_a_chunk_needs() {
    let data = seeded(50_000, 1);
    for coding in POLICIES {
        let mut ps = client(coding, 24, 78);
        assert!(ps.store_data("f", &data).is_stored());
        let chunks = ps.manifest("f").unwrap().chunks.len();
        assert!(chunks >= 3, "several chunks");
        let healthy = fetches_of_read(&ps, "f", &data);
        if matches!(coding, CodingPolicy::Online { .. }) {
            // Probabilistic: the first `min_blocks_needed` blocks may not
            // decode, and then the read goes on to the rest.
            assert!(healthy >= chunks * coding.min_blocks_needed());
            assert!(healthy <= chunks * coding.placed_blocks());
            continue;
        }
        assert_eq!(
            healthy,
            chunks * coding.min_blocks_needed(),
            "{}: healthy read",
            coding.label()
        );
        // With dead holders inside the tolerance a read may go on to the
        // remaining blocks, but never asks for a block twice.
        for losses in 1..=coding.tolerable_losses() {
            for pattern in subsets(coding.placed_blocks(), losses) {
                lose_positions(&mut ps, "f", &pattern);
                let fetches = fetches_of_read(&ps, "f", &data);
                assert!(
                    fetches <= chunks * coding.placed_blocks(),
                    "{}: {fetches} fetches with {pattern:?} lost",
                    coding.label()
                );
            }
        }
    }
}

#[test]
fn a_chunk_the_probes_size_fits_every_holder() {
    // Nodes of 32–128 KB and no chunk cap: every chunk of the file but its
    // last is as large as the smallest report of its targets allows, and
    // each of its payloads — rows, their headers and their padding — must
    // still fit that target.
    let data = seeded(300_000, 6);
    for coding in POLICIES {
        let nodes = ClusterConfig {
            nodes: 64,
            capacity: CapacityModel::Uniform {
                lo: ByteSize::kb(32),
                hi: ByteSize::kb(128),
            },
            track_objects: true,
        };
        let inner = nodes.build(&mut DetRng::new(83));
        let capacity: Vec<ByteSize> = (0..64).map(|n| inner.report_of(n)).collect();
        let mut ps = client_over(coding, inner, None);
        let outcome = ps.store_data("f", &data);
        assert!(outcome.is_stored(), "{}: {outcome:?}", coding.label());
        let manifest = ps.manifest("f").expect("stored");
        assert!(manifest.chunks.len() > 1, "{}: one chunk", coding.label());
        for block in manifest.all_blocks() {
            let object = ps.backend().inner.fetch_from(block.node, &block.name);
            let payload = object.and_then(|o| o.payload.as_ref()).expect("byte path");
            assert!(
                payload.len() as u64 <= capacity[block.node].as_u64(),
                "{}: {} holds a {} byte payload",
                coding.label(),
                block.name,
                payload.len()
            );
        }
        assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));
        let (from, len) = (70_001, 150_000);
        let range = ps.retrieve_range_data("f", from as u64, len as u64);
        assert_eq!(range.as_deref(), Some(&data[from..from + len]));
    }
}

/// The codec-block indices stored under `name` on `node`.
fn stored_rows(ps: &PeerStripe<Probe>, node: NodeRef, name: &ObjectName) -> Vec<u32> {
    let object = ps.backend().inner.fetch_from(node, name).expect("stored");
    let payload = object.payload.as_ref().expect("byte path");
    unpack_payload(payload).iter().map(|&(i, _)| i).collect()
}

/// A node of the nine that holds as many blocks of some chunk as `coding`
/// tolerates losing, and of no chunk more.
fn victim_at_the_tolerance(ps: &PeerStripe<Probe>, coding: CodingPolicy) -> NodeRef {
    let chunks = &ps.manifest("f").expect("stored").chunks;
    let held = |n: NodeRef| chunks.iter().map(move |c| c.blocks_on(n).count());
    let most = coding.tolerable_losses();
    (0..9)
        .find(|&n| held(n).any(|h| h == most) && held(n).all(|h| h <= most))
        .expect("some node holds exactly the tolerable number of blocks of a chunk")
}

#[test]
fn repair_rebuilds_each_lost_placement_in_its_place() {
    // Nine nodes.  RS(4, 2): six blocks a chunk, and the victim holds two
    // blocks of one chunk — the case in which a repair used to pack both
    // placements' codec blocks into one replacement and leave the other empty.
    // XOR(2, 3): each placed block carries eight of the 24 codec blocks.  The
    // online arm waits for ROADMAP's "The paper's own code must work": its
    // byte path does not decode every single loss the policy tolerates.
    for (coding, seed) in [
        (CodingPolicy::rs_default(), 79),
        (CodingPolicy::xor_2_3(), 81),
    ] {
        let mut ps = client(coding, 9, seed);
        let data = seeded(60_000, 2);
        assert!(ps.store_data("f", &data).is_stored());
        let before = ps.manifest("f").unwrap().clone();
        let victim = victim_at_the_tolerance(&ps, coding);
        let rows_before: Vec<Vec<Vec<u32>>> = before
            .chunks
            .iter()
            .map(|c| {
                c.blocks
                    .iter()
                    .map(|b| stored_rows(&ps, b.node, &b.name))
                    .collect()
            })
            .collect();

        let takeover = ps.backend_mut().inner.fail_node(victim).unwrap();
        let lost = before.all_blocks().filter(|b| b.node == victim).count();
        ps.backend_mut().payloads_only = true;
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(report.blocks_regenerated as usize, lost);
        assert_eq!(report.chunks_lost, 0);

        let after = ps.manifest("f").unwrap().clone();
        for ((was, now), rows) in before.chunks.iter().zip(&after.chunks).zip(&rows_before) {
            assert_eq!(
                was.blocks.len(),
                now.blocks.len(),
                "no block added or dropped"
            );
            for ((old, new), rows) in was.blocks.iter().zip(&now.blocks).zip(rows) {
                assert_eq!(old.size, new.size, "a replacement is one block's worth");
                assert_eq!(
                    &stored_rows(&ps, new.node, &new.name),
                    rows,
                    "same codec blocks"
                );
                if old.node == victim {
                    assert_ne!(new.node, victim);
                    assert_ne!(new.name, old.name, "a replacement gets a fresh name");
                } else {
                    assert_eq!((new.node, &new.name), (old.node, &old.name));
                }
            }
        }
        // The layout order survived, so a healthy read is still a short read.
        assert_eq!(
            fetches_of_read(&ps, "f", &data),
            after.chunks.len() * coding.min_blocks_needed(),
            "{}",
            coding.label()
        );
    }
}

#[test]
fn a_repair_reads_a_damaged_chunk_once() {
    // RS(5, 3) on nine nodes: the victim holds two blocks of some chunk.
    // Rebuilding both costs one read of that chunk — its five rows plus one
    // more block for each row that was on the victim — not one read a block.
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    let mut ps = client(coding, 9, 79);
    let data = seeded(60_000, 4);
    assert!(ps.store_data("f", &data).is_stored());
    let before = ps.manifest("f").unwrap().clone();
    let held = |n: NodeRef| before.chunks.iter().map(move |c| c.blocks_on(n).count());
    let victim = (0..9)
        .find(|&n| held(n).any(|h| h == 2) && held(n).all(|h| h <= 3))
        .expect("some node holds two blocks of a chunk");

    let takeover = ps.backend_mut().inner.fail_node(victim).unwrap();
    ps.backend().fetched.borrow_mut().clear();
    let report = ps.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    assert!(report.blocks_regenerated >= 2);
    let fetched = ps.backend().fetched.borrow().clone();
    for chunk in &before.chunks {
        let on_victim = chunk.blocks_on(victim).count();
        let asked = chunk.blocks.iter().map(|b| b.name.key());
        let asked = asked.filter(|key| fetched.contains(key)).count();
        let fetches = fetched
            .iter()
            .filter(|key| chunk.blocks.iter().any(|b| b.name.key() == **key))
            .count();
        assert_eq!(
            fetches, asked,
            "chunk {}: a block fetched twice",
            chunk.chunk
        );
        let most = if on_victim == 0 {
            0
        } else {
            coding.min_blocks_needed() + on_victim
        };
        assert!(
            fetches <= most,
            "chunk {}: {fetches} fetches to rebuild {on_victim} block(s)",
            chunk.chunk
        );
    }
    assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));
}

/// Bytes held by the live nodes.
fn live_bytes(ps: &PeerStripe<Probe>) -> ByteSize {
    ps.backend().inner.total_used()
}

#[test]
fn a_repair_that_cannot_rebuild_says_so_and_stores_nothing() {
    // RS(4, 2): the victim takes two blocks of one chunk with it, and one
    // live holder of that chunk fails its fetch — three blocks out of reach,
    // one past the tolerance, though enough holders are alive.
    let coding = CodingPolicy::rs_default();
    let mut ps = client(coding, 9, 79);
    let data = seeded(60_000, 3);
    assert!(ps.store_data("f", &data).is_stored());
    let before = ps.manifest("f").unwrap().clone();
    let victim = victim_at_the_tolerance(&ps, coding);
    let stuck = before
        .chunks
        .iter()
        .find(|c| c.blocks_on(victim).count() == 2)
        .expect("the victim holds two blocks of a chunk");
    let refusing = stuck.blocks.iter().find(|b| b.node != victim).unwrap();
    let lost = before.all_blocks().filter(|b| b.node == victim).count() as u64;

    let takeover = ps.backend_mut().inner.fail_node(victim).unwrap();
    ps.backend_mut().lost = BTreeSet::from([refusing.name.key()]);
    ps.backend_mut().payloads_only = true;
    let bytes = live_bytes(&ps);
    let report = ps.handle_node_failure(victim, &takeover);
    // The stuck chunk: counted once although two of its blocks were due,
    // nothing stored for it, its manifest entry untouched.  The others:
    // repaired as ever.
    assert_eq!(report.blocks_regenerated, lost - 2);
    assert_eq!((report.chunks_lost, report.bytes_lost), (1, stuck.size));
    assert_eq!(live_bytes(&ps), bytes + report.bytes_regenerated);
    let placed = |c: &ChunkPlacement| -> Vec<(ObjectName, NodeRef, ByteSize)> {
        let blocks = c.blocks.iter();
        blocks.map(|b| (b.name.clone(), b.node, b.size)).collect()
    };
    let entry =
        |ps: &PeerStripe<Probe>| placed(&ps.manifest("f").unwrap().chunks[stuck.chunk as usize]);
    assert_eq!(entry(&ps), placed(stuck));
    assert_eq!(ps.retrieve_data("f"), None);

    // The holder answers again: the same call now rebuilds both blocks.
    ps.backend_mut().lost.clear();
    let report = ps.handle_node_failure(victim, &takeover);
    assert_eq!((report.blocks_regenerated, report.chunks_lost), (2, 0));
    assert!(entry(&ps).iter().all(|&(_, node, _)| node != victim));
    assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));

    // Too few live holders reads the same in the report: three more nodes
    // down, and the chunk is a loss, not a repair.
    let holders: BTreeSet<NodeRef> = entry(&ps).iter().map(|&(_, node, _)| node).collect();
    let mut last = None;
    for &node in holders.iter().take(3) {
        last = Some((node, ps.backend_mut().inner.fail_node(node).unwrap()));
    }
    let (node, takeover) = last.expect("three holders");
    let bytes = live_bytes(&ps);
    let report = ps.handle_node_failure(node, &takeover);
    assert!(report.chunks_lost >= 1 && report.bytes_lost >= stuck.size);
    assert_eq!(live_bytes(&ps), bytes + report.bytes_regenerated);
    assert!(entry(&ps).iter().any(|&(_, at, _)| at == node));
}

#[test]
fn a_placement_only_repair_stores_sizes_and_counts_them() {
    // The other way to rebuild no payload: holders answer and none carries
    // one.  That is no loss — the replacement is a size, and it is counted.
    let config = PeerStripeConfig::default().with_coding(CodingPolicy::rs_default());
    let mut ps = PeerStripe::new(cluster(9, ByteSize::mb(64), 79), config);
    assert!(ps
        .store_file(&FileRecord::new("f", ByteSize::kb(60)))
        .is_stored());
    let before = ps.manifest("f").unwrap().clone();
    let victim = before.chunks[0].blocks[0].node;
    let lost = before.all_blocks().filter(|b| b.node == victim).count();

    let takeover = ps.backend_mut().fail_node(victim).unwrap();
    let report = ps.handle_node_failure(victim, &takeover);
    assert_eq!(report.blocks_regenerated as usize, lost);
    assert_eq!((report.chunks_lost, report.bytes_lost), (0, ByteSize::ZERO));
    let after = ps.manifest("f").unwrap();
    for (old, new) in before.all_blocks().zip(after.all_blocks()) {
        assert_eq!(old.size, new.size);
        assert_eq!(old.node == victim, new.name != old.name);
        let object = ps
            .cluster()
            .fetch_from(new.node, &new.name)
            .expect("stored");
        assert_eq!((object.size, object.payload.is_none()), (new.size, true));
    }
}

#[test]
fn a_chunk_refused_after_the_first_is_rolled_back_and_the_next_store_works() {
    // RS(5, 3) in 2 MiB chunks: every chunk computes its 1.2 MiB of parity
    // on the store's one encode worker.  The 11th payload push — the third
    // of chunk 1 — is refused while the worker holds that chunk's parity
    // buffers; the store collects them, rolls the chunk back and goes on.
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    let mut ps = client_with_chunks(coding, 24, 81, Some(ByteSize::mb(2)));
    ps.backend_mut().refuse_store = Some(coding.placed_blocks() + 3);
    let data = seeded(5 << 20, 9);
    assert!(ps.store_data("f", &data).is_stored());
    let rolled_back: Vec<ObjectName> = (0..2).map(|ecb| ObjectName::block("f", 1, ecb)).collect();
    assert_eq!(ps.backend().rolled_back, rolled_back);
    let manifest = ps.manifest("f").expect("stored");
    let sizes: Vec<u64> = manifest.chunks.iter().map(|c| c.size.as_u64()).collect();
    assert_eq!(sizes, [2 << 20, 0, 2 << 20, 1 << 20]);
    assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));

    // `store_data` returned, so its scope joined that worker; the next
    // store spawns a worker of its own and stores every chunk.
    let next = seeded(5 << 20, 10);
    assert!(ps.store_data("g", &next).is_stored());
    let manifest = ps.manifest("g").expect("stored");
    assert!(manifest.chunks.iter().all(|c| !c.size.is_zero()));
    assert_eq!(ps.retrieve_data("g").as_deref(), Some(&next[..]));
}

#[test]
fn a_chunk_refused_part_way_is_rolled_back_whole_and_stored_again() {
    // RS(5, 3), one chunk a file.  The small file encodes on the calling
    // thread; the 4 MiB one computes its three parity blocks on the store's
    // encode worker while the five data blocks are pushed.  Refusing the 3rd push
    // catches that worker mid-flight, refusing the 6th — the first parity
    // block — comes right after it was joined.
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    for len in [20_000usize, 4 << 20] {
        for refuse_at in [3usize, 6] {
            let mut ps = client_with_chunks(coding, 24, 80, None);
            ps.backend_mut().refuse_store = Some(refuse_at);
            let data = seeded(len, refuse_at as u64);
            assert!(ps.store_data("f", &data).is_stored());

            // Chunk 0 was refused: the blocks placed before the refusal —
            // exactly those, in order — were rolled back, and the chunk is
            // recorded as zero-sized.
            let placed_before: Vec<ObjectName> = (0..refuse_at as u32 - 1)
                .map(|ecb| ObjectName::block("f", 0, ecb))
                .collect();
            assert_eq!(ps.backend().rolled_back, placed_before);
            let manifest = ps.manifest("f").unwrap().clone();
            assert!(manifest.chunks[0].size.is_zero() && manifest.chunks[0].blocks.is_empty());
            // Chunk 1 carries the file; nothing of chunk 0 is left behind.
            assert_eq!(manifest.chunks[1].blocks.len(), coding.placed_blocks());
            // Besides the placed blocks, the cluster holds the CAT copies
            // alone: 32 bytes a chunk row, the zero-sized chunk 0 included.
            let held: u64 = manifest.all_blocks().map(|b| b.size.as_u64()).sum();
            let cats = manifest.cat_nodes.len() as u64;
            let used = ps.backend().inner.total_used().as_u64();
            let rows = manifest.chunks.len() as u64;
            assert_eq!(
                used,
                held + cats * 32 * rows,
                "{held} bytes in placed blocks"
            );
            assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));
            // No offset maps into the zero-sized chunk: a read from the first
            // byte, the middle or the last one to the end is the file's own.
            for offset in [0, len / 2, len - 1] {
                let read = ps.retrieve_range_data("f", offset as u64, len as u64);
                assert_eq!(read.as_deref(), Some(&data[offset..]), "from {offset}");
            }
        }
    }
}
