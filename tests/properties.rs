//! Property-based tests (proptest) over the public API: invariants that must
//! hold for arbitrary inputs, not just the hand-picked cases of the unit tests.

use peerstripe::core::{
    ClusterConfig, CodingPolicy, DamageLedger, ObjectName, PeerStripe, PeerStripeConfig,
    StorageCluster, StorageSystem,
};
use peerstripe::erasure::{ErasureCode, NullCode, OnlineCode, ReedSolomonCode, XorCode};
use peerstripe::experiments::availability::{run_regeneration, ChurnConfig};
use peerstripe::overlay::{Id, IdRing, NodeRef};
use peerstripe::placement::{
    ClusterView, Domain, DomainIndex, DomainSpread, NodeState, PlacementStrategy, ProbeView,
    RepairRequest, StrategyKind, Topology,
};
use peerstripe::repair::{
    ChurnProcess, DeclarationVerdict, DetectionKind, Detector, DetectorConfig, GroupedChurn,
    MaintenanceEngine, OutageAwareConfig, RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe::sim::{ByteSize, DetRng, EventQueue, OnlineStats, SimTime};
use peerstripe::trace::{CapacityModel, FileRecord, SessionTrace};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Twenty 150 MB files under XOR(2,3) on fifty 1 GB contributors: the
/// deployment the ledger properties run over.
fn ledger_fixture() -> PeerStripe {
    let mut rng = DetRng::new(92);
    let cluster = ClusterConfig {
        nodes: 50,
        capacity: CapacityModel::Fixed(ByteSize::gb(1)),
        track_objects: true,
    }
    .build(&mut rng);
    let mut ps = PeerStripe::new(
        cluster,
        PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
    );
    for i in 0..20 {
        assert!(ps
            .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(150)))
            .is_stored());
    }
    ps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- erasure codes -------------------------------------------------------

    /// The XOR parity code decodes the original chunk from any survivor set that
    /// loses at most one block per parity group.
    #[test]
    fn xor_code_round_trips_with_one_loss_per_group(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        group in 2usize..5,
        drop_choice in any::<u64>(),
    ) {
        let blocks = group * 4;
        let code = XorCode::new(group, blocks);
        let encoded = code.encode(&data);
        // Drop one block from every group, chosen by the fuzzed seed.
        let mut rng = DetRng::new(drop_choice);
        let mut dropped = std::collections::BTreeSet::new();
        for g in 0..code.groups() {
            let members: Vec<u32> = encoded
                .iter()
                .map(|b| b.index)
                .filter(|&i| code.group_of(i as usize) == g)
                .collect();
            dropped.insert(*rng.choose(&members).unwrap());
        }
        let surviving: Vec<_> = encoded.iter().filter(|b| !dropped.contains(&b.index)).cloned().collect();
        prop_assert_eq!(code.decode(&surviving, data.len()).unwrap(), data);
    }

    /// The NULL code is an exact pass-through for arbitrary data and block counts.
    #[test]
    fn null_code_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..8192),
        blocks in 1usize..64,
    ) {
        let code = NullCode::new(blocks);
        let encoded = code.encode(&data);
        prop_assert_eq!(encoded.len(), blocks);
        prop_assert_eq!(code.decode(&encoded, data.len()).unwrap(), data);
    }

    /// The online code decodes arbitrary data from its full check-block set.
    #[test]
    fn online_code_round_trips(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
    ) {
        let code = OnlineCode::with_overhead(128, 0.01, 3, 1.15);
        let encoded = code.encode(&data);
        prop_assert_eq!(code.decode(&encoded, data.len()).unwrap(), data);
    }

    /// Every codec encode/decode round-trips from the full block set at
    /// arbitrary chunk sizes, including lengths that are not a multiple of the
    /// source-block count (exercising the zero-padding path).
    #[test]
    fn every_codec_round_trips_at_arbitrary_sizes(
        data in proptest::collection::vec(any::<u8>(), 1..6000),
        pick in 0usize..4,
    ) {
        let codecs: [Box<dyn ErasureCode>; 4] = [
            Box::new(NullCode::new(7)),
            Box::new(XorCode::new(2, 8)),
            Box::new(OnlineCode::with_overhead(64, 0.01, 3, 1.25)),
            Box::new(ReedSolomonCode::new(11, 4)),
        ];
        let code = &codecs[pick];
        let encoded = code.encode(&data);
        prop_assert_eq!(encoded.len(), code.encoded_blocks());
        prop_assert_eq!(code.decode(&encoded, data.len()).unwrap(), data);
    }

    /// Reed-Solomon optimality, exhaustively: for arbitrary data and geometry,
    /// *every* subset of exactly `min_decode_blocks()` = `data` blocks decodes
    /// the original chunk — the any-n-of-m guarantee no sub-optimal codec in
    /// this workspace can make.
    #[test]
    fn rs_recovers_from_every_minimal_subset(
        data in proptest::collection::vec(any::<u8>(), 1..2048),
        n in 2usize..6,
        parity in 1usize..4,
    ) {
        let code = ReedSolomonCode::new(n, parity);
        let encoded = code.encode(&data);
        let m = code.encoded_blocks();
        prop_assert_eq!(code.min_decode_blocks(), n);
        for mask in 0u32..1 << m {
            if mask.count_ones() as usize != n {
                continue;
            }
            let subset: Vec<_> = encoded
                .iter()
                .filter(|b| mask & (1 << b.index) != 0)
                .cloned()
                .collect();
            prop_assert_eq!(
                code.decode(&subset, data.len()).unwrap(),
                data.clone(),
                "RS({}, {}) failed on subset {:b}", n, m, mask
            );
        }
    }

    /// The wide-lane `nibble64` GF(256) kernel is byte-identical to the scalar
    /// reference kernel for **all** 256 coefficients over arbitrary slice
    /// lengths — including empty slices and non-multiple-of-8/16/32 tails,
    /// which exercise every lane's scalar tail path.
    #[test]
    fn nibble64_kernel_matches_scalar_for_all_coefficients(
        src in proptest::collection::vec(any::<u8>(), 0..1024),
        acc in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        use peerstripe::erasure::gf256::{mul_add_slice_with, mul_slice_with};
        use peerstripe::erasure::Gf256Kernel;
        let len = src.len().min(acc.len());
        let (src, acc) = (&src[..len], &acc[..len]);
        for c in 0..=255u8 {
            let mut scalar = vec![0u8; len];
            mul_slice_with(Gf256Kernel::Scalar, c, src, &mut scalar);
            let mut fast = vec![0xA5u8; len];
            mul_slice_with(Gf256Kernel::Nibble64, c, src, &mut fast);
            prop_assert_eq!(&scalar, &fast, "mul c = {}", c);

            let mut scalar_acc = acc.to_vec();
            mul_add_slice_with(Gf256Kernel::Scalar, c, src, &mut scalar_acc);
            let mut fast_acc = acc.to_vec();
            mul_add_slice_with(Gf256Kernel::Nibble64, c, src, &mut fast_acc);
            prop_assert_eq!(&scalar_acc, &fast_acc, "mul_add c = {}", c);
        }
    }

    /// Reed–Solomon blocks are kernel-independent: the wide kernel encodes
    /// the bytes the scalar oracle does, each kernel decodes the other's
    /// blocks from an arbitrary minimal subset, and `encode_rows_into` over
    /// dirty caller-owned buffers writes what `encode` returns — so stored
    /// artifacts never depend on the encoding host.
    #[test]
    fn rs_round_trips_identically_across_kernels(
        // Long enough that a row can span two of the encode loop's 16 KiB tiles.
        data in proptest::collection::vec(any::<u8>(), 1..40_000),
        n in 2usize..7,
        parity in 1usize..4,
        subset_seed in any::<u64>(),
    ) {
        use peerstripe::erasure::Gf256Kernel;
        let scalar = ReedSolomonCode::new(n, parity).with_kernel(Gf256Kernel::Scalar);
        let fast = ReedSolomonCode::new(n, parity).with_kernel(Gf256Kernel::Nibble64);
        let encoded = scalar.encode(&data);
        prop_assert_eq!(&encoded, &fast.encode(&data));
        let rows: Vec<u32> = (0..encoded.len() as u32).collect();
        let mut bufs = vec![vec![0xA5u8; fast.block_size(data.len())]; rows.len()];
        let mut out: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        fast.encode_rows_into(&data, &rows, &mut out);
        prop_assert!(bufs.iter().zip(&encoded).all(|(a, b)| *a == b.data));
        // An arbitrary minimal subset decodes under both kernels.
        let mut rng = DetRng::new(subset_seed);
        let subset: Vec<_> = rng
            .sample_indices(encoded.len(), n)
            .into_iter()
            .map(|i| encoded[i].clone())
            .collect();
        prop_assert_eq!(scalar.decode(&subset, data.len()).unwrap(), data.clone());
        prop_assert_eq!(fast.decode(&subset, data.len()).unwrap(), data);
    }

    // ---- identifier ring -----------------------------------------------------

    /// Ring routing always returns the live node at minimum circular distance.
    #[test]
    fn ring_route_matches_brute_force(
        ids in proptest::collection::hash_set(any::<u128>(), 1..64),
        key in any::<u128>(),
    ) {
        let mut ring = IdRing::new();
        for (i, &id) in ids.iter().enumerate() {
            ring.insert(Id(id), i);
        }
        let key = Id(key);
        let (routed, _) = ring.route(key).unwrap();
        let best = ids.iter().map(|&id| key.distance(Id(id))).min().unwrap();
        prop_assert_eq!(routed.distance(key), best);
    }

    /// k_closest returns distinct members sorted by circular distance, and its
    /// first element agrees with route().
    #[test]
    fn k_closest_is_sorted_and_distinct(
        ids in proptest::collection::hash_set(any::<u128>(), 2..64),
        key in any::<u128>(),
        k in 1usize..16,
    ) {
        let mut ring = IdRing::new();
        for (i, &id) in ids.iter().enumerate() {
            ring.insert(Id(id), i);
        }
        let key = Id(key);
        let closest = ring.k_closest(key, k);
        prop_assert_eq!(closest.len(), k.min(ids.len()));
        for w in closest.windows(2) {
            prop_assert!(key.distance(w[0].0) <= key.distance(w[1].0));
        }
        let unique: std::collections::BTreeSet<_> = closest.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(unique.len(), closest.len());
        prop_assert_eq!(closest[0].0, ring.route(key).unwrap().0);
    }

    // ---- naming --------------------------------------------------------------

    /// Object names render/parse round-trip for any file name without the
    /// reserved separators, non-ASCII ones included.
    #[test]
    fn object_names_round_trip(
        file in "[a-zA-Zé λ][a-zA-Z0-9.é λ-]{0,24}",
        chunk in 0u32..10_000,
        ecb in 0u32..10_000,
    ) {
        let names = [
            ObjectName::chunk(file.as_str(), chunk),
            ObjectName::block(file.as_str(), chunk, ecb),
            ObjectName::cat(file.as_str()),
            ObjectName::whole_file(file.as_str(), ecb),
        ];
        for n in names {
            prop_assert_eq!(ObjectName::parse(&n.render()), Some(n));
        }
    }

    /// A name built from a shared `Arc<str>` is the name built from the same
    /// `&str`, whatever the file name (non-ASCII, reserved separators, a
    /// `_<digits>` suffix): equal, hashed, keyed and rendered alike, and
    /// parsed back exactly when the `&str` one is.
    #[test]
    fn shared_and_borrowed_file_names_make_the_same_object_name(
        file in "[a-zA-Z0-9_.#é λ-]{0,12}_?[0-9]{0,3}",
        chunk in any::<u32>(),
        ecb in any::<u32>(),
    ) {
        use std::hash::{BuildHasher, RandomState};
        let shared: std::sync::Arc<str> = file.as_str().into();
        let borrowed = file.as_str();
        let pairs = [
            (ObjectName::chunk(shared.clone(), chunk), ObjectName::chunk(borrowed, chunk)),
            (ObjectName::block(shared.clone(), chunk, ecb), ObjectName::block(borrowed, chunk, ecb)),
            (ObjectName::cat(shared.clone()), ObjectName::cat(borrowed)),
            (ObjectName::whole_file(shared, ecb), ObjectName::whole_file(borrowed, ecb)),
        ];
        let state = RandomState::new();
        for (from_arc, from_str) in pairs {
            prop_assert_eq!(&from_arc, &from_str);
            prop_assert_eq!(state.hash_one(&from_arc), state.hash_one(&from_str));
            prop_assert_eq!(from_arc.key(), from_str.key());
            prop_assert_eq!(from_arc.render(), from_str.render());
            prop_assert_eq!(from_arc.to_string(), from_str.to_string());
            prop_assert_eq!(from_arc.key(), Id::hash(&from_str.render()));
            let parsed = ObjectName::parse(&from_arc.render());
            prop_assert_eq!(&parsed, &ObjectName::parse(&from_str.render()));
            prop_assert_eq!(parsed == Some(from_arc.clone()), parsed == Some(from_str));
        }
    }

    // ---- statistics ----------------------------------------------------------

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..200)) {
        let mut stats = OnlineStats::new();
        for &v in &values {
            stats.push(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        prop_assert!((stats.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((stats.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    // ---- byte sizes ----------------------------------------------------------

    /// ByteSize arithmetic is saturating and ordering-consistent.
    #[test]
    fn bytesize_arithmetic(a in any::<u64>(), b in any::<u64>()) {
        let x = ByteSize::bytes(a);
        let y = ByteSize::bytes(b);
        prop_assert_eq!((x + y).as_u64(), a.saturating_add(b));
        prop_assert_eq!((x - y).as_u64(), a.saturating_sub(b));
        prop_assert_eq!(x.min(y).as_u64(), a.min(b));
        prop_assert_eq!(x.max(y).as_u64(), a.max(b));
        prop_assert_eq!(x < y, a < b);
    }
}

proptest! {
    // Store/retrieve round trips run a full system per case, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any payload stored through the byte path reads back identically, both in
    /// full and over arbitrary sub-ranges.
    #[test]
    fn store_retrieve_round_trips(
        data in proptest::collection::vec(any::<u8>(), 1..200_000),
        offset_frac in 0.0f64..1.0,
        len in 0u64..50_000,
        coding_pick in 0usize..4,
    ) {
        let coding = [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
            CodingPolicy::rs_default(),
        ][coding_pick];
        let mut rng = DetRng::new(77);
        let cluster = ClusterConfig {
            nodes: 24,
            capacity: CapacityModel::Fixed(ByteSize::mb(64)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        prop_assert!(ps.store_data("payload", &data).is_stored());
        prop_assert_eq!(ps.retrieve_data("payload").unwrap(), data.clone());
        let offset = (offset_frac * data.len() as f64) as u64;
        let expected_end = (offset + len).min(data.len() as u64) as usize;
        let expected = &data[offset.min(data.len() as u64) as usize..expected_end];
        prop_assert_eq!(ps.retrieve_range_data("payload", offset, len).unwrap(), expected.to_vec());
    }

    /// For arbitrary seeds and deployment sizes, Table 3's regeneration wave
    /// conserves what it tracks: both rows cover the same user bytes, losses
    /// never exceed them, the stated share of the nodes failed, and the
    /// per-failure accounts sum to the total.  (That the loss is exactly the
    /// chunks the ledger wrote off is checked next to the wave itself, in
    /// `experiments::availability`.)
    #[test]
    fn regeneration_conserves_tracked_bytes(
        seed in any::<u64>(),
        nodes in 40usize..80,
        files_per_node in 2usize..8,
    ) {
        let rows = run_regeneration(&ChurnConfig {
            nodes,
            files: nodes * files_per_node,
            failures: 0,
            samples: 0,
            seed,
        });
        prop_assert_eq!(rows.len(), 2);
        prop_assert_eq!(rows[0].total_data, rows[1].total_data);
        for row in &rows {
            let failed = (nodes as f64 * row.failed_fraction).round() as u64;
            prop_assert_eq!(row.nodes_failed as u64, failed);
            prop_assert!(row.data_lost <= row.total_data);
            // The mean is rounded to a byte, so it sums back to the total
            // within one byte a failure.
            let summed = row.regen_per_failure_mean.as_u64() * failed;
            prop_assert!(
                summed.abs_diff(row.data_regenerated.as_u64()) <= failed,
                "mean x failures = {summed}, total = {}",
                row.data_regenerated
            );
        }
    }

    /// The ledger's unavailable percentage stays inside [0, 100] and never
    /// decreases under arbitrary failure sequences (including repeated and
    /// unknown node references).
    #[test]
    fn unavailable_pct_is_bounded_and_monotone(
        failures in proptest::collection::vec(any::<u16>(), 1..60),
    ) {
        let mut ps = ledger_fixture();
        let mut ledger = DamageLedger::build(ps.manifests());
        let mut last_pct = ledger.unavailable_pct();
        prop_assert_eq!(last_pct, 0.0);
        for f in failures {
            // Arbitrary node references: in-range ones fail real nodes
            // (possibly repeatedly), out-of-range ones must be no-ops.
            let node = f as usize;
            if node < ps.cluster().node_count() {
                ps.backend_mut().fail_node(node);
            }
            ledger.node_down(node);
            let pct = ledger.unavailable_pct();
            prop_assert!((0.0..=100.0).contains(&pct), "pct {pct}");
            prop_assert!(pct >= last_pct - 1e-12, "pct must not decrease");
            prop_assert!(ledger.files_unavailable() <= ledger.file_count());
            last_pct = pct;
        }
    }

    /// After any interleaving of departures, returns, removals, placements
    /// and write-offs (unknown and repeated node references included), the
    /// ledger's incremental counts equal a recomputation from its holder
    /// lists, and a node going down and coming straight back changes nothing.
    #[test]
    fn ledger_counts_survive_any_interleaving(
        ops in proptest::collection::vec(any::<u64>(), 1..80),
        probe in any::<u16>(),
    ) {
        let ps = ledger_fixture();
        let mut ledger = DamageLedger::build(ps.manifests());
        let nodes = ps.cluster().node_count();
        let mut down = std::collections::BTreeSet::new();
        let mut losses = Vec::new();
        for word in ops {
            // One word picks the call, the node and the chunk; a few node
            // references lie past the cluster, where the ledger never saw any.
            let op = word % 5;
            let node = (word >> 8) as usize % (nodes + 5);
            let chunk = (word >> 32) as u32 % ledger.chunk_count() as u32;
            match op {
                0 => {
                    down.insert(node);
                    ledger.node_down(node);
                }
                1 => {
                    down.remove(&node);
                    ledger.node_up(node);
                }
                2 => {
                    // One loss per chunk the node held, in first-seen order,
                    // counting its blocks there; written-off chunks skipped.
                    let mut want: Vec<(u32, usize)> = Vec::new();
                    for &c in ledger.chunks_on(node).iter().filter(|&&c| !ledger.is_lost(c)) {
                        match want.iter_mut().find(|(seen, _)| *seen == c) {
                            Some((_, blocks)) => *blocks += 1,
                            None => want.push((c, 1)),
                        }
                    }
                    ledger.remove_node(node, &mut losses);
                    let got: Vec<(u32, usize)> = losses.iter().map(|l| (l.chunk, l.blocks)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert!(ledger.chunks_on(node).is_empty());
                }
                3 => ledger.place_block(chunk, node),
                _ => {
                    ledger.mark_lost(chunk);
                }
            }
            prop_assert!(ledger.is_consistent(|n| !down.contains(&n)), "after op {op}");
            prop_assert!(ledger.files_unavailable() <= ledger.file_count());
        }
        let node = probe as usize % nodes;
        let before = ledger.files_unavailable();
        if down.contains(&node) {
            ledger.node_up(node);
            ledger.node_down(node);
        } else {
            ledger.node_down(node);
            ledger.node_up(node);
        }
        prop_assert_eq!(ledger.files_unavailable(), before);
        prop_assert!(ledger.is_consistent(|n| !down.contains(&n)));
    }

    /// Failure-domain invariant: under the `DomainSpread` strategy, for
    /// arbitrary topologies (grouped or hierarchical) and every coding policy,
    /// no stored chunk ever keeps more blocks in one domain than the policy
    /// tolerates losing — and when the constraint cannot be met, the store
    /// fails loudly instead of silently violating it.
    #[test]
    fn domain_spread_never_exceeds_the_cap(
        group_size in 2usize..10,
        hierarchical in any::<bool>(),
        coding_pick in 0usize..4,
        topo_seed in any::<u64>(),
        files in 3usize..8,
    ) {
        let nodes = 48;
        let coding = [
            CodingPolicy::None,
            CodingPolicy::xor_2_3(),
            CodingPolicy::online_default(),
            CodingPolicy::rs_default(),
        ][coding_pick];
        let topo = if hierarchical {
            Topology::synthetic(nodes, 2, (nodes / group_size / 2).max(1), topo_seed)
        } else {
            Topology::uniform_groups(nodes, group_size)
        };
        let mut rng = DetRng::new(topo_seed ^ 0x51ab);
        let cluster = ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::with_placement(
            cluster,
            PeerStripeConfig::default().with_coding(coding),
            Box::new(DomainSpread::new()),
            Some(topo.clone()),
        );
        let cap = ps.domain_cap();
        prop_assert_eq!(cap, coding.tolerable_losses().max(1));
        for i in 0..files {
            let outcome = ps.store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(120)));
            if !outcome.is_stored() {
                // The loud path: refused outright, nothing partial recorded.
                prop_assert!(ps.manifest(&format!("f{i}")).is_none());
                continue;
            }
            let manifest = ps.manifest(&format!("f{i}")).unwrap();
            for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
                let mut counts = std::collections::BTreeMap::new();
                for b in &chunk.blocks {
                    prop_assert_eq!(b.domain, topo.domain_of(b.node), "recorded domain");
                    if let Some(d) = b.domain {
                        *counts.entry(d).or_insert(0usize) += 1;
                    }
                }
                let worst = counts.values().copied().max().unwrap_or(0);
                prop_assert!(
                    worst <= cap,
                    "chunk {} holds {} blocks in one domain (cap {}) under {}",
                    chunk.chunk, worst, cap, coding.label()
                );
            }
        }
    }

    /// Storing arbitrary file sizes never loses accounting: placed bytes are at
    /// least the stored user bytes, and failed stores leave utilization unchanged.
    #[test]
    fn store_accounting_invariants(sizes in proptest::collection::vec(1u64..5_000_000_000u64, 1..12)) {
        let mut rng = DetRng::new(88);
        let cluster = ClusterConfig {
            nodes: 30,
            capacity: CapacityModel::Fixed(ByteSize::gb(1)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default());
        for (i, size) in sizes.iter().enumerate() {
            let before = ps.cluster().total_used();
            let outcome = ps.store_file(&FileRecord::new(format!("f{i}"), ByteSize::bytes(*size)));
            let after = ps.cluster().total_used();
            if outcome.is_stored() {
                prop_assert!(after >= before);
            } else {
                prop_assert_eq!(after, before, "failed stores must roll back completely");
            }
        }
        let m = ps.metrics();
        prop_assert!(m.bytes_placed >= m.bytes_stored);
        prop_assert_eq!(m.bytes_attempted, m.bytes_stored + m.bytes_failed);
    }

    /// Grouped-churn conservation: whole-domain outage events touch exactly
    /// the members of their domain (every down node sits in a domain whose
    /// outage is still active), nothing is lost or repaired when nothing is
    /// ever declared dead, and the engine's incremental availability
    /// accounting balances against a full recomputation after arbitrary
    /// outage schedules.
    #[test]
    fn grouped_churn_conserves_and_touches_only_members(
        group_size in 3usize..12,
        interval_hours in 4.0f64..10.0,
        downtime_hours in 2.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let nodes = 48;
        let mut rng = DetRng::new(seed ^ 0x6a09);
        let cluster = ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(ByteSize::gb(2)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(
            cluster,
            PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
        );
        for i in 0..20 {
            prop_assert!(ps
                .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(100)))
                .is_stored());
        }
        let manifests = ps.manifests().clone();
        let topo = Topology::uniform_groups(nodes, group_size);
        let churn = ChurnProcess {
            // Individual sessions far beyond the horizon: every departure in
            // this run is a group event.
            sessions: SessionModel::Synthetic {
                mean_session_secs: 1e12,
                mean_downtime_secs: 3_600.0,
            },
            permanent_fraction: 0.0,
            grouped: Some(GroupedChurn::new(
                topo.clone(),
                interval_hours,
                downtime_hours,
            )),
        };
        let config = RepairConfig {
            policy: RepairPolicy::Eager,
            // Permanence timeout beyond any outage: nothing is declared dead.
            detector: DetectorConfig::default_desktop_grid().with_timeout(1e9),
            detection: DetectionKind::PerNodeTimeout,
            bandwidth: peerstripe::repair::BandwidthBudget::symmetric(ByteSize::mb(4)),
            sample_period_secs: 3_600.0,
        };
        let cluster = ps.into_cluster();
        let mut engine = MaintenanceEngine::new(
            cluster.clone(),
            &manifests,
            churn.clone(),
            config.clone(),
            seed,
        );
        engine.run_for(SimTime::from_secs(48 * 3_600));
        let report = engine.report();
        prop_assert!(report.group_outages > 0, "outages must fire: {report:?}");
        prop_assert_eq!(report.transient_departures, 0);
        prop_assert_eq!(report.permanent_failures, 0);
        // Conservation: transient group churn with no declarations loses
        // nothing and moves no repair bytes.
        prop_assert_eq!(report.files_lost, 0);
        prop_assert_eq!(report.repair_bytes, ByteSize::ZERO);
        prop_assert!(engine.accounting_is_consistent(), "accounting must balance");
        // Group events touch exactly their members: any node down right now
        // belongs to a domain whose outage is still active.
        for node in 0..nodes {
            if !engine.cluster().overlay().is_alive(node) {
                let domain = topo.domain_of(node).expect("topology is total");
                prop_assert!(
                    engine.group_outage_active(domain),
                    "node {} down outside an outage of domain {}",
                    node,
                    domain
                );
            }
        }

        // The same churn with every outage declared, rebuilds that outlast
        // the next outage, and any strategy and policy: every block the
        // engine registers lands on a node that held no block of its chunk.
        let strategy = StrategyKind::ALL[(seed % 3) as usize];
        let config = RepairConfig {
            policy: [RepairPolicy::Eager, RepairPolicy::Lazy { margin: 1 }][(seed >> 8) as usize % 2],
            detector: DetectorConfig::default_desktop_grid().with_timeout(1_800.0),
            bandwidth: peerstripe::repair::BandwidthBudget::symmetric(ByteSize::kb(256)),
            ..config
        };
        let mut engine = MaintenanceEngine::new(cluster, &manifests, churn, config, seed)
            .with_placement(strategy.build(seed), None);
        engine.run_for(SimTime::from_secs(48 * 3_600));
        prop_assert!(engine.report().false_declarations > 0, "outages must be declared");
        prop_assert_eq!(
            engine.ledger().collocated_since(&DamageLedger::build(&manifests)),
            0,
            "{} put a rebuilt block beside another block of its chunk",
            strategy.label()
        );
        prop_assert!(engine.accounting_is_consistent(), "accounting must balance");
    }

    /// Outage-aware liveness bound: however the topology, threshold and hold
    /// tuning are chosen, a genuinely permanent departure (nobody ever
    /// returns) is declared no later than `permanence_timeout + hold_cap`
    /// after it happened — and the hold chain always terminates.
    #[test]
    fn outage_aware_declares_by_the_hold_cap(
        nodes in 6usize..40,
        group_size in 2usize..10,
        theta in 0.05f64..1.0,
        timeout_hours in 0.5f64..24.0,
        hold_cap_hours in 0.0f64..48.0,
        hold_period_hours in 0.1f64..6.0,
        down_at_secs in 0.0f64..100_000.0,
    ) {
        let topo = Topology::uniform_groups(nodes, group_size);
        let config = DetectorConfig::default_desktop_grid()
            .with_timeout(timeout_hours * 3_600.0);
        let mut detector = Detector::new(
            nodes,
            config,
            DetectionKind::OutageAware(OutageAwareConfig {
                domain_absence_threshold: theta,
                outage_window_secs: 600.0,
                hold_period_secs: hold_period_hours * 3_600.0,
                hold_cap_secs: hold_cap_hours * 3_600.0,
            }),
            Some(topo),
        );
        // The worst case for outage classification: the entire population
        // departs at one instant and nobody ever returns.
        let down_at = SimTime::from_secs_f64(down_at_secs);
        let pendings: Vec<_> = (0..nodes).map(|n| (n, detector.node_down(n, down_at))).collect();
        let deadline = down_at
            + SimTime::from_secs_f64(timeout_hours * 3_600.0)
            + SimTime::from_secs_f64(hold_cap_hours * 3_600.0);
        for (node, p) in pendings {
            let mut now = p.declare_at;
            let mut steps = 0;
            loop {
                match detector.decide(node, p.generation, now) {
                    DeclarationVerdict::Hold { until } => {
                        prop_assert!(until > now, "node {}: hold must advance", node);
                        prop_assert!(
                            until <= deadline,
                            "node {}: hold to {:?} passes the cap {:?}",
                            node, until, deadline
                        );
                        now = until;
                        steps += 1;
                        prop_assert!(steps < 2_000, "node {}: unbounded hold chain", node);
                    }
                    DeclarationVerdict::Declare => break,
                    DeclarationVerdict::Cancel => {
                        prop_assert!(false, "node {}: nothing ever returned", node);
                    }
                }
            }
            prop_assert!(
                now <= deadline,
                "node {} declared at {:?}, after permanence_timeout + hold_cap ({:?})",
                node, now, deadline
            );
        }
    }

    /// Equivalence of the two detection kinds without a topology: with no
    /// domain information, the outage-aware detector can never classify an
    /// outage, so an engine running it must reproduce the per-node engine
    /// event for event — same declarations, same repair bill, same losses.
    #[test]
    fn unaffiliated_outage_aware_matches_per_node(
        seed in any::<u64>(),
        permanent_fraction in 0.0f64..0.1,
    ) {
        let run = |detection: DetectionKind| {
            let mut rng = DetRng::new(seed ^ 0x0f0f);
            let cluster = ClusterConfig {
                nodes: 40,
                capacity: CapacityModel::Fixed(ByteSize::gb(2)),
                track_objects: true,
            }
            .build(&mut rng);
            let mut ps = PeerStripe::new(
                cluster,
                PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
            );
            for i in 0..16 {
                assert!(ps
                    .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(100)))
                    .is_stored());
            }
            let manifests = ps.manifests().clone();
            let churn = ChurnProcess {
                sessions: SessionModel::Synthetic {
                    mean_session_secs: 4.0 * 3_600.0,
                    mean_downtime_secs: 3.0 * 3_600.0,
                },
                permanent_fraction,
                // No grouped churn: the engine's detector has no topology.
                grouped: None,
            };
            let config = RepairConfig {
                policy: RepairPolicy::Eager,
                // Aggressive timeout so declarations actually happen.
                detector: DetectorConfig::default_desktop_grid().with_timeout(3_600.0),
                detection,
                bandwidth: peerstripe::repair::BandwidthBudget::symmetric(ByteSize::mb(4)),
                sample_period_secs: 3_600.0,
            };
            let mut engine =
                MaintenanceEngine::new(ps.into_cluster(), &manifests, churn, config, seed);
            engine.run_for(SimTime::from_secs(36 * 3_600));
            engine.report()
        };
        let per_node = run(DetectionKind::PerNodeTimeout);
        let aware = run(DetectionKind::OutageAware(
            OutageAwareConfig::default_desktop_grid(),
        ));
        prop_assert_eq!(per_node.events, aware.events);
        prop_assert_eq!(per_node.repair_bytes, aware.repair_bytes);
        prop_assert_eq!(per_node.wasted_repair_bytes, aware.wasted_repair_bytes);
        prop_assert_eq!(per_node.files_lost, aware.files_lost);
        prop_assert_eq!(per_node.false_declarations, aware.false_declarations);
        prop_assert_eq!(aware.declarations_held, 0);
        prop_assert_eq!(aware.held_cancelled, 0);
    }

    /// Held declarations cancelled by a domain return leak nothing: pure
    /// grouped churn under an outage-aware detector with an unbounded hold
    /// cap never writes a block off, never spends a repair byte, and never
    /// loses a file — every hold either cancels on the domain's return or is
    /// still pending at the horizon.
    #[test]
    fn cancelled_holds_leak_no_repair_traffic(
        group_size in 3usize..12,
        interval_hours in 4.0f64..10.0,
        downtime_hours in 2.0f64..8.0,
        theta in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let nodes = 48;
        let mut rng = DetRng::new(seed ^ 0x77aa);
        let cluster = ClusterConfig {
            nodes,
            capacity: CapacityModel::Fixed(ByteSize::gb(2)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut ps = PeerStripe::new(
            cluster,
            PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
        );
        for i in 0..20 {
            prop_assert!(ps
                .store_file(&FileRecord::new(format!("f{i}"), ByteSize::mb(100)))
                .is_stored());
        }
        let manifests = ps.manifests().clone();
        let topo = Topology::uniform_groups(nodes, group_size);
        let churn = ChurnProcess {
            // Individual sessions far beyond the horizon: every departure is
            // a group event, and every absence is outage-correlated.
            sessions: SessionModel::Synthetic {
                mean_session_secs: 1e12,
                mean_downtime_secs: 3_600.0,
            },
            permanent_fraction: 0.0,
            grouped: Some(GroupedChurn::new(topo, interval_hours, downtime_hours)),
        };
        let config = RepairConfig {
            policy: RepairPolicy::Eager,
            // A 10-minute permanence timeout: the per-node policy would write
            // whole domains off on every outage.
            detector: DetectorConfig::default_desktop_grid().with_timeout(600.0),
            detection: DetectionKind::OutageAware(OutageAwareConfig {
                domain_absence_threshold: theta,
                outage_window_secs: 600.0,
                hold_period_secs: 1_800.0,
                // Unbounded hold cap: every declaration is held until its
                // domain returns.
                hold_cap_secs: 1e12,
            }),
            bandwidth: peerstripe::repair::BandwidthBudget::symmetric(ByteSize::mb(4)),
            sample_period_secs: 3_600.0,
        };
        let cluster = ps.into_cluster();
        let mut engine = MaintenanceEngine::new(
            cluster.clone(),
            &manifests,
            churn.clone(),
            config.clone(),
            seed,
        );
        engine.run_for(SimTime::from_secs(48 * 3_600));
        let report = engine.report();
        prop_assert!(report.group_outages > 0, "outages must fire: {report:?}");
        prop_assert!(
            report.declarations_held > 0,
            "10-minute timeout vs multi-hour outages must hold: {report:?}"
        );
        // The leak-freedom claim: no write-offs, no repair traffic, no loss.
        prop_assert_eq!(report.false_declarations, 0);
        prop_assert_eq!(report.repair_bytes, ByteSize::ZERO);
        prop_assert_eq!(report.wasted_repair_bytes, ByteSize::ZERO);
        prop_assert_eq!(report.files_lost, 0);
        prop_assert!(
            report.held_cancelled <= report.declarations_held,
            "cancellations cannot exceed holds: {report:?}"
        );
        prop_assert!(engine.accounting_is_consistent(), "accounting must balance");
    }
}

// ---- placement index ------------------------------------------------------

/// A cluster seen through the `ClusterView` questions alone: it lends no
/// index, so `DomainSpread` walks it node by node.  That walk is the
/// reference the indexed decisions must equal.
struct Walked(StorageCluster);

impl ClusterView for Walked {
    fn route_quiet(&self, key: Id) -> Option<NodeRef> {
        self.0.route_quiet(key)
    }
    fn is_alive(&self, node: NodeRef) -> bool {
        self.0.is_alive(node)
    }
    fn can_store(&self, node: NodeRef, size: ByteSize) -> bool {
        self.0.can_store(node, size)
    }
    fn report_of(&self, node: NodeRef) -> ByteSize {
        self.0.report_of(node)
    }
    fn node_count(&self) -> usize {
        ClusterView::node_count(&self.0)
    }
    fn alive_nodes(&self) -> Vec<NodeRef> {
        self.0.alive_nodes()
    }
}

impl ProbeView for Walked {
    fn probe(&mut self, key: Id) -> Option<(NodeRef, ByteSize)> {
        self.0.probe(key)
    }
}

/// One store-path and one repair-path decision on `cluster`, through its
/// index and through the walk; both must agree on everything observable.
fn assert_decisions_match(cluster: &mut StorageCluster, topology: &Topology, rng: &mut DetRng) {
    let nodes = ClusterView::node_count(cluster);
    prop_assert!(
        cluster
            .domain_index()
            .is_some_and(|index| index.serves(topology)),
        "the adopted topology is served from the index"
    );
    let mut walked = Walked(cluster.clone());
    // Caps from "one block a domain" (saturates at once) to "no cap".
    let cap = [1, 2, 3, usize::MAX][rng.index(4)];

    let keys: Vec<Id> = (0..1 + rng.index(8)).map(|_| Id::random(rng)).collect();
    let indexed = DomainSpread::new().plan_chunk(cluster, Some(topology), &keys, cap);
    let scanned = DomainSpread::new().plan_chunk(&mut walked, Some(topology), &keys, cap);
    prop_assert_eq!(
        indexed,
        scanned,
        "plan_chunk, {} keys, cap {}",
        keys.len(),
        cap
    );

    // Holders: dead, repeated and plain ones alike.
    let mut holders: Vec<NodeRef> = (0..rng.index(9)).map(|_| rng.index(nodes)).collect();
    if let (Some(&first), true) = (holders.first(), rng.chance(0.3)) {
        holders.push(first);
    }
    let size = [
        ByteSize::ZERO,
        ByteSize::kb(1),
        ByteSize::mb(1 + rng.index(40) as u64),
        ByteSize::gb(100),
    ][rng.index(4)];
    let request = RepairRequest {
        want: 1 + rng.index(4),
        size,
        holders: &holders,
        promised: &[],
        domain_cap: cap,
    };
    let seed = rng.next_u64();
    let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
    let indexed = DomainSpread::new().repair_targets(&*cluster, Some(topology), &request, &mut a);
    let scanned = DomainSpread::new().repair_targets(&walked, Some(topology), &request, &mut b);
    prop_assert_eq!(indexed, scanned, "repair_targets for {:?}", request);
    prop_assert_eq!(a.next_u64(), b.next_u64(), "the draws consumed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `DomainSpread` decides the same with and without the cluster's index —
    /// targets, reports and the caller's random stream — across every way a
    /// node's space or liveness can change, and after every step the index the
    /// cluster maintained equals one rebuilt from scratch.
    #[test]
    fn indexed_decisions_equal_the_scan(
        topology_kind in 0usize..3,
        equal_disks in any::<bool>(),
        seed in any::<u64>(),
        steps in 20usize..80,
    ) {
        let nodes = 72;
        let topology = match topology_kind {
            0 => Topology::uniform_groups(nodes, 2 + (seed % 11) as usize),
            1 => Topology::synthetic(nodes, 2, 1 + (seed % 5) as usize, seed),
            _ => Topology::from_sessions(
                &SessionTrace::synthetic_desktop_grid(nodes, seed),
                1 + (seed % 4) as usize,
            ),
        };
        let mut rng = DetRng::new(seed ^ 0x1d3);
        let mut cluster = ClusterConfig {
            nodes,
            capacity: if equal_disks {
                CapacityModel::Fixed(ByteSize::mb(48))
            } else {
                CapacityModel::Uniform { lo: ByteSize::mb(1), hi: ByteSize::mb(96) }
            },
            track_objects: true,
        }
        .build(&mut rng);
        cluster.adopt_topology(&topology);

        // What the sequence has put on the nodes, so it can take it off again.
        let mut objects: Vec<(NodeRef, ObjectName, ByteSize)> = Vec::new();
        let mut reserved: Vec<(NodeRef, ByteSize)> = Vec::new();
        // Half the sequence lands on one domain, so that it is often wholly
        // down or wholly full while its neighbours are not.
        let busy: Vec<NodeRef> = topology
            .domains()
            .map(|(_, domain)| domain.members.clone())
            .find(|members| !members.is_empty())
            .unwrap_or_default();
        for step in 0..steps {
            let node = match rng.choose(&busy) {
                Some(&member) if rng.chance(0.5) => member,
                _ => rng.index(nodes),
            };
            match rng.index(11) {
                0..=1 => {
                    let name = ObjectName::block("f", step as u32, 0);
                    let size = ByteSize::mb(1 + rng.index(32) as u64);
                    if cluster.store_object_at(node, name.key(), size, None).is_ok() {
                        objects.push((node, name, size));
                    }
                }
                2 => {
                    // To the last byte: a full node reports zero (no
                    // store-path target) yet still has room for nothing.
                    let size = cluster.node(node).free();
                    if cluster.reserve(node, size).is_ok() {
                        reserved.push((node, size));
                    }
                }
                3 if !objects.is_empty() => {
                    let (node, name, size) = objects.swap_remove(rng.index(objects.len()));
                    if rng.chance(0.5) {
                        prop_assert_eq!(cluster.remove_from(node, &name), Some(size));
                    } else {
                        cluster.rollback_object(node, &name, size);
                    }
                }
                4 => {
                    let size = ByteSize::mb(1 + rng.index(32) as u64);
                    if cluster.reserve(node, size).is_ok() {
                        reserved.push((node, size));
                    }
                }
                5 if !reserved.is_empty() => {
                    let (node, size) = reserved.swap_remove(rng.index(reserved.len()));
                    cluster.release_at(node, size);
                }
                6 => {
                    cluster.wipe(node);
                    objects.retain(|(n, ..)| *n != node);
                    reserved.retain(|(n, _)| *n != node);
                }
                7 => {
                    if rng.chance(0.7) {
                        cluster.fail_node(node);
                    } else {
                        cluster.fail_random(1 + rng.index(6), &mut rng);
                    }
                }
                8 if rng.chance(0.3) => {
                    // A whole domain goes down.
                    let domain = rng.index(topology.domain_count()) as u32;
                    for &member in topology.members(domain) {
                        cluster.fail_node(member);
                    }
                }
                9 => {
                    // A whole domain goes down, is decided over while its
                    // span is empty, and comes back.
                    let domain = rng.index(topology.domain_count()) as u32;
                    for &member in topology.members(domain) {
                        cluster.fail_node(member);
                    }
                    prop_assert!(cluster.index_is_consistent(), "step {} (domain down)", step);
                    assert_decisions_match(&mut cluster, &topology, &mut rng);
                    for &member in topology.members(domain) {
                        cluster.rejoin(member);
                    }
                }
                _ => {
                    if !cluster.is_alive(node) {
                        cluster.rejoin(node);
                    }
                }
            }
            prop_assert!(cluster.index_is_consistent(), "maintained index == rebuilt index, step {}", step);
            assert_decisions_match(&mut cluster, &topology, &mut rng);
        }
    }
}

/// A domain's freest member by its definition: the live member with the
/// most free room, the first in member order on ties, none of `chosen`, and
/// not full.
fn freest_by_scan(
    domain: &Domain,
    states: &[NodeState],
    chosen: &[NodeRef],
) -> Option<(NodeRef, ByteSize)> {
    let mut best: Option<(NodeRef, ByteSize)> = None;
    for &node in &domain.members {
        let NodeState { alive, free } = states[node];
        if alive
            && !free.is_zero()
            && !chosen.contains(&node)
            && best.is_none_or(|(_, most)| free > most)
        {
            best = Some((node, free));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each domain's freest member, read off its max tree, is the scan's
    /// answer after every update: liveness flips, free room that grows,
    /// shrinks, equals another's or runs out (a full node).  So is the best of the rest once that
    /// member is chosen, and the maintained index equals a rebuild.
    #[test]
    fn the_freest_member_is_the_scan_after_every_update(
        nodes in 1usize..90,
        group in 1usize..40,
        seed in any::<u64>(),
        steps in 1usize..120,
    ) {
        let topology = Topology::uniform_groups(nodes, group);
        let mut rng = DetRng::new(seed);
        // Few levels of free room, so ties are common.
        let draw = |rng: &mut DetRng| {
            let free = ByteSize::mb([0, 1, 2, 5][rng.index(4)]);
            NodeState { alive: rng.chance(0.8), free }
        };
        let mut states: Vec<NodeState> = (0..nodes).map(|_| draw(&mut rng)).collect();
        let mut index = DomainIndex::build(&topology, nodes, |n| states[n]).unwrap();
        for step in 0..steps {
            let node = rng.index(nodes);
            let was = states[node];
            states[node] = match rng.index(4) {
                0 => NodeState { alive: !was.alive, ..was },
                1 => NodeState { free: ByteSize::ZERO, ..was },
                2 => {
                    let other = states[rng.index(nodes)];
                    NodeState { free: other.free, ..was }
                }
                _ => draw(&mut rng),
            };
            index.update(node, states[node]);
            for (d, domain) in topology.domains() {
                let freest = freest_by_scan(domain, &states, &[]);
                prop_assert_eq!(index.freest_in(d as usize, &[]), freest, "step {}, domain {}", step, d);
                if let Some((best, _)) = freest {
                    prop_assert_eq!(
                        index.freest_in(d as usize, &[best]),
                        freest_by_scan(domain, &states, &[best]),
                        "step {}, domain {} without {}", step, d, best
                    );
                }
            }
            prop_assert_eq!(index.rebuilt(|n| states[n]).as_ref(), Some(&index), "step {}", step);
        }
    }
}

// ---- identifier ring under churn -------------------------------------------

/// A ring member: its id and node.
type Member = (Id, NodeRef);

/// The identifier ring as a `BTreeMap` of its live members: the reference
/// `IdRing` is checked against.  Each query is the ring's definition written
/// with the map's range lookups.
#[derive(Default)]
struct RingModel(BTreeMap<Id, NodeRef>);

impl RingModel {
    fn first(&self) -> Option<Member> {
        self.0.iter().next().map(|(k, v)| (*k, *v))
    }

    fn last(&self) -> Option<Member> {
        self.0.iter().next_back().map(|(k, v)| (*k, *v))
    }

    fn insert(&mut self, id: Id, node: NodeRef) -> bool {
        if self.0.contains_key(&id) {
            return false;
        }
        self.0.insert(id, node);
        true
    }

    fn successor(&self, key: Id) -> Option<Member> {
        let at_or_after = self.0.range(key..).next().map(|(k, v)| (*k, *v));
        at_or_after.or_else(|| self.first())
    }

    fn predecessor(&self, key: Id) -> Option<Member> {
        let before = self.0.range(..key).next_back().map(|(k, v)| (*k, *v));
        before.or_else(|| self.last())
    }

    fn route(&self, key: Id) -> Option<Member> {
        let succ = self.successor(key)?;
        let pred = self.predecessor(key)?;
        if succ.0 == pred.0 {
            return Some(succ);
        }
        Some(if key.distance(succ.0) <= key.distance(pred.0) {
            succ
        } else {
            pred
        })
    }

    fn next_clockwise(&self, id: Id) -> Option<Member> {
        if self.0.len() <= 1 {
            return None;
        }
        self.successor(Id(id.0.wrapping_add(1)))
            .filter(|(k, _)| *k != id)
    }

    fn next_counter_clockwise(&self, id: Id) -> Option<Member> {
        if self.0.len() <= 1 {
            return None;
        }
        self.predecessor(id).filter(|(k, _)| *k != id)
    }

    /// Two cursors walking outward from the key, the nearer taken first
    /// (clockwise on a tie), each member at most once.
    fn k_closest(&self, key: Id, k: usize) -> Vec<Member> {
        let n = self.0.len();
        let k = k.min(n);
        let mut result = Vec::new();
        let mut taken = BTreeSet::new();
        let (mut up, mut down) = (self.successor(key), self.predecessor(key));
        while result.len() < k {
            let du = up.map_or(u128::MAX, |(id, _)| key.distance(id));
            let dd = down.map_or(u128::MAX, |(id, _)| key.distance(id));
            let pick_up = du <= dd;
            let Some((id, node)) = (if pick_up { up } else { down }) else {
                break;
            };
            if taken.insert(id) {
                result.push((id, node));
            } else if taken.len() >= n {
                break;
            }
            let next = if pick_up {
                self.next_clockwise(id)
            } else {
                self.next_counter_clockwise(id)
            };
            let next = next.filter(|(nid, _)| !taken.contains(nid));
            if pick_up {
                up = next;
            } else {
                down = next;
            }
            if up.is_none() && down.is_none() {
                break;
            }
        }
        result
    }

    /// `(clockwise, counter-clockwise)`: each side walks neighbour by
    /// neighbour and stops at the owner or at a member already taken.
    fn leaf_set(&self, id: Id, l: usize) -> (Vec<Member>, Vec<Member>) {
        let mut cw: Vec<Member> = Vec::new();
        let mut cursor = id;
        for _ in 0..l / 2 {
            match self.next_clockwise(cursor) {
                Some((next, node)) if next != id && !cw.iter().any(|(i, _)| *i == next) => {
                    cw.push((next, node));
                    cursor = next;
                }
                _ => break,
            }
        }
        let mut ccw: Vec<Member> = Vec::new();
        cursor = id;
        for _ in 0..l / 2 {
            match self.next_counter_clockwise(cursor) {
                Some((next, node))
                    if next != id && !ccw.iter().chain(&cw).any(|(i, _)| *i == next) =>
                {
                    ccw.push((next, node));
                    cursor = next;
                }
                _ => break,
            }
        }
        (cw, ccw)
    }

    /// `(failed, predecessor, successor)`.
    fn takeover(&self, failed: Id) -> Option<(Id, Member, Member)> {
        if !self.0.contains_key(&failed) || self.0.len() < 2 {
            return None;
        }
        let pred = self.next_counter_clockwise(failed)?;
        let succ = self.next_clockwise(failed)?;
        Some((failed, pred, succ))
    }
}

/// Every query of `ring` equals the model's, at each of `keys` and each id
/// of `pool` (members, dead members and never-inserted ids alike); the
/// `k_closest` sweep over every `k` up to `len + 2` runs at `keys`.
fn assert_ring_is_model(ring: &IdRing, model: &RingModel, pool: &[Id], keys: &[Id], at: &str) {
    assert_eq!(ring.len(), model.0.len(), "{at}: len");
    assert_eq!(ring.is_empty(), model.0.is_empty(), "{at}: is_empty");
    let members: Vec<_> = model.0.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(ring.iter().collect::<Vec<_>>(), members, "{at}: iter");
    for &key in keys.iter().chain(pool) {
        assert_eq!(
            ring.contains(key),
            model.0.contains_key(&key),
            "{at}: contains {key:?}"
        );
        assert_eq!(
            ring.get(key),
            model.0.get(&key).copied(),
            "{at}: get {key:?}"
        );
        assert_eq!(ring.route(key), model.route(key), "{at}: route {key:?}");
        assert_eq!(
            ring.successor(key),
            model.successor(key),
            "{at}: successor {key:?}"
        );
        assert_eq!(
            ring.predecessor(key),
            model.predecessor(key),
            "{at}: predecessor {key:?}"
        );
        assert_eq!(
            ring.next_clockwise(key),
            model.next_clockwise(key),
            "{at}: cw {key:?}"
        );
        for l in [1, 2, 5, 2 * ring.len() + 4] {
            let leaves = ring.leaf_set(key, l);
            assert_eq!(leaves.owner, key, "{at}: leaf_set owner");
            let (cw, ccw) = model.leaf_set(key, l);
            assert_eq!(leaves.clockwise, cw, "{at}: leaf_set {key:?} {l} clockwise");
            assert_eq!(
                leaves.counter_clockwise, ccw,
                "{at}: leaf_set {key:?} {l} counter-clockwise"
            );
        }
        // Removing a member hands its range to the neighbours the ring named
        // before the removal; removing anything else changes nothing.
        let mut after = ring.clone();
        let removed = after
            .remove_with_takeover(key)
            .map(|(node, t)| (node, t.map(|t| (t.failed, t.predecessor, t.successor))));
        let expected = model.0.get(&key).map(|&node| (node, model.takeover(key)));
        assert_eq!(removed, expected, "{at}: remove_with_takeover {key:?}");
        if let Some((_, Some((_, predecessor, successor)))) = removed {
            assert_eq!(
                Some(predecessor),
                ring.predecessor(key),
                "{at}: heir {key:?}"
            );
            assert_eq!(
                Some(successor),
                ring.next_clockwise(key),
                "{at}: heir {key:?}"
            );
        }
        let gone = usize::from(removed.is_some());
        assert_eq!(
            after.len(),
            ring.len() - gone,
            "{at}: len after removing {key:?}"
        );
        assert!(!after.contains(key), "{at}: {key:?} removed");
    }
    // The k sweep is the costly check: at the keys only.
    for &key in keys {
        for k in 0..=ring.len() + 2 {
            assert_eq!(
                ring.k_closest(key, k),
                model.k_closest(key, k),
                "{at}: k_closest {key:?} {k}"
            );
        }
    }
}

/// An id near one of the ring's edges or anywhere: small and near-maximal
/// ids make equidistant pairs and wrap-around neighbours common.
fn ring_id(rng: &mut DetRng) -> Id {
    match rng.index(3) {
        0 => Id(rng.index(64) as u128),
        1 => Id(u128::MAX - rng.index(64) as u128),
        _ => Id::random(rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `IdRing` answers every query exactly as the `BTreeMap` model after each
    /// insert, remove and re-insert of a churned id pool.  Each case then
    /// kills the whole pool but one member, passing through rings at least
    /// 90 % dead and rings of two and one, and brings some of it back under
    /// new node refs.  At every step, removing each key from a copy of the
    /// ring names the heirs the ring named before.
    #[test]
    fn the_ring_is_its_model_under_churn(
        pool_size in 1usize..40,
        seed in any::<u64>(),
        steps in 1usize..60,
        kill_bias in 0usize..4,
    ) {
        let mut rng = DetRng::new(seed);
        let mut pool: Vec<Id> = (0..pool_size).map(|_| ring_id(&mut rng)).collect();
        pool.sort_unstable();
        pool.dedup();
        // Random keys, and member ids (which may die and come back).
        let mut keys: Vec<Id> = (0..4).map(|_| ring_id(&mut rng)).collect();
        keys.extend((0..3).map(|_| pool[rng.index(pool.len())]));
        let (mut ring, mut model) = (IdRing::new(), RingModel::default());
        let remove = |ring: &mut IdRing, id| ring.remove_with_takeover(id).map(|(node, _)| node);
        let mut next_node = 0;
        assert_ring_is_model(&ring, &model, &pool, &keys, "empty");

        for step in 0..steps {
            let id = pool[rng.index(pool.len())];
            // The higher the bias, the more removes: rings run mostly dead.
            if rng.index(4) < kill_bias {
                prop_assert_eq!(remove(&mut ring, id), model.0.remove(&id), "step {}: remove", step);
            } else {
                next_node += 1;
                prop_assert_eq!(
                    ring.insert(id, next_node),
                    model.insert(id, next_node),
                    "step {}: insert", step
                );
            }
            assert_ring_is_model(&ring, &model, &pool, &keys, &format!("step {step}"));
        }

        for &id in &pool {
            next_node += 1;
            prop_assert_eq!(ring.insert(id, next_node), model.insert(id, next_node));
        }
        assert_ring_is_model(&ring, &model, &pool, &keys, "full");
        let survivor = pool[rng.index(pool.len())];
        for &id in pool.iter().filter(|&&id| id != survivor) {
            prop_assert_eq!(remove(&mut ring, id), model.0.remove(&id));
            assert_ring_is_model(&ring, &model, &pool, &keys, &format!("removed {id:?}"));
        }
        prop_assert_eq!(ring.len(), 1);
        for _ in 0..pool.len().min(3) {
            let id = pool[rng.index(pool.len())];
            next_node += 1;
            prop_assert_eq!(ring.insert(id, next_node), model.insert(id, next_node));
            assert_ring_is_model(&ring, &model, &pool, &keys, &format!("rejoined {id:?}"));
        }
    }
}

// ---- event queue -------------------------------------------------------------

/// The follow-up the handler schedules for event `e` popped at `t`, if any:
/// at the same time, a little later, or in the past (clamped to now).  Only
/// the first few hundred events have one, so every run drains.
fn follow_up(e: u64, t: SimTime) -> Option<SimTime> {
    match e % 4 {
        _ if e >= 400 => None,
        0 => Some(t),
        1 => Some(t + SimTime(1_000 * (e % 3))),
        2 => Some(SimTime(t.as_nanos().saturating_sub(5_000))),
        _ => None,
    }
}

/// The queue's model: the pending `(time, seq)` pairs, each event's payload
/// its seq, and the clock.
#[derive(Default)]
struct QueueModel {
    pending: Vec<(SimTime, u64)>,
    now: SimTime,
    next: u64,
}

impl QueueModel {
    fn schedule_at(&mut self, at: SimTime) {
        self.pending.push((at.max(self.now), self.next));
        self.next += 1;
    }

    /// `run_until` over a sorted vector: the least `(time, seq)` pops while
    /// its time is at most `deadline`, and schedules its follow-up.
    fn run_until(&mut self, deadline: SimTime) -> Vec<(SimTime, u64)> {
        let mut popped = Vec::new();
        loop {
            self.pending.sort_unstable();
            match self.pending.first() {
                Some(&(t, e)) if t <= deadline => {
                    self.pending.remove(0);
                    self.now = t;
                    popped.push((t, e));
                    if let Some(at) = follow_up(e, t) {
                        self.schedule_at(at);
                    }
                }
                _ => return popped,
            }
        }
    }
}

/// A delay like the maintenance engine's, log-uniform from one second to
/// about eleven days, or now and then one that saturates the clock at
/// `u64::MAX` nanoseconds.
fn deep_delay(rng: &mut DetRng) -> SimTime {
    if rng.chance(0.01) {
        SimTime(u64::MAX - rng.next_below(1 << 40))
    } else {
        SimTime::from_secs_f64(10f64.powf(rng.range_f64(0.0, 6.0)))
    }
}

/// Schedule event `next` after `delay` on both the queue and its model, the
/// set of pending `(time, seq)` pairs.
fn schedule_deep(
    queue: &mut EventQueue<u64>,
    model: &mut BTreeSet<(SimTime, u64)>,
    next: &mut u64,
    delay: SimTime,
) {
    queue.schedule_after(delay, *next);
    model.insert((queue.now() + delay, *next));
    *next += 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `EventQueue::run_until` pops in `(time, seq)` order, as a sorted
    /// vector does, over random interleavings of schedules and runs:
    /// schedules in the past (clamped to now), many at equal times,
    /// follow-ups scheduled from inside the handler, and deadlines that fall
    /// exactly on a pending event, on now, or before it.
    #[test]
    fn the_event_queue_pops_in_time_then_insertion_order(
        seed in any::<u64>(),
        rounds in 1usize..16,
    ) {
        let mut rng = DetRng::new(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = QueueModel::default();
        for round in 0..rounds {
            for _ in 0..rng.index(24) {
                let now = queue.now().as_nanos();
                let at = match rng.index(4) {
                    0 => now.saturating_sub(1_000 * rng.index(8) as u64),
                    _ => now + 1_000 * rng.index(12) as u64,
                };
                queue.schedule_at(SimTime(at), model.next);
                model.schedule_at(SimTime(at));
            }
            let now = queue.now().as_nanos();
            let deadline = SimTime(match rng.index(4) {
                0 if !model.pending.is_empty() => {
                    model.pending[rng.index(model.pending.len())].0.as_nanos()
                }
                1 => now,
                2 => now.saturating_sub(1_000),
                _ => now + 1_000 * rng.index(16) as u64,
            });
            let mut popped = Vec::new();
            let mut next = model.next;
            let ran = queue.run_until(deadline, |q, t, e| {
                popped.push((t, e));
                if let Some(at) = follow_up(e, t) {
                    q.schedule_at(at, next);
                    next += 1;
                }
            });
            let want = model.run_until(deadline);
            prop_assert_eq!(&popped, &want, "round {}, deadline {:?}", round, deadline);
            prop_assert_eq!(ran as usize, popped.len());
            prop_assert_eq!(queue.now(), model.now);
            prop_assert_eq!(queue.len(), model.pending.len());
            let first = model.pending.iter().min().map(|&(t, _)| t);
            prop_assert_eq!(queue.peek_time(), first);
        }
        let mut rest = Vec::new();
        queue.run_until(SimTime(u64::MAX), |_, t, e| rest.push((t, e)));
        model.pending.sort_unstable();
        prop_assert_eq!(rest, model.pending);
        prop_assert!(queue.is_empty());
    }

    /// The same order with thousands of events pending (a 4-ary heap six or
    /// seven levels deep), against a `BTreeSet` model: a fill, a hold phase
    /// of one pop and about one push at a time, then a drain whose pops
    /// schedule fewer and fewer follow-ups.  Delays run from a second to
    /// days, and some saturate the clock, so the drain schedules ties at
    /// `u64::MAX` nanoseconds.
    #[test]
    fn a_deep_event_queue_pops_in_time_then_insertion_order(
        seed in any::<u64>(),
        pending in 2_000usize..6_000,
    ) {
        let mut rng = DetRng::new(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = BTreeSet::new();
        let mut next = 0u64;
        for _ in 0..pending {
            schedule_deep(&mut queue, &mut model, &mut next, deep_delay(&mut rng));
        }
        for hold in 0..2 * pending {
            prop_assert_eq!(queue.pop(), model.pop_first());
            for _ in 0..rng.index(3) {
                schedule_deep(&mut queue, &mut model, &mut next, deep_delay(&mut rng));
            }
            prop_assert_eq!(queue.len(), model.len(), "hold {}", hold);
            prop_assert_eq!(queue.peek_time(), model.first().map(|&(t, _)| t));
        }
        while let Some(want) = model.pop_first() {
            prop_assert_eq!(queue.pop(), Some(want));
            prop_assert_eq!(queue.now(), want.0);
            if rng.chance(0.25) {
                schedule_deep(&mut queue, &mut model, &mut next, deep_delay(&mut rng));
            }
        }
        prop_assert!(queue.is_empty());
        prop_assert_eq!(queue.processed(), next);
    }
}
