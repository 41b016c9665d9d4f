//! Allocation budget of the simulator's store and repair paths, pinned with
//! the counting global allocator of `counting_alloc`: the `sim_churn_10k`
//! benchmark cell (domain-spread placement, `Online{8,4,1.03}`, grouped
//! churn, eager repair) at a tenth of its size.  A file's chunk, block and
//! CAT names share one allocation of its name, the domain walk of a
//! placement decision builds no vectors, and a repair decision reads the
//! ledger in place and works in buffers its engine and strategy keep, so a
//! change that allocates per block, per tier or per decision fails here.
//! The small bytes a store allocates are pinned too.  The cell's nodes keep
//! no per-object records; a second deploy on nodes that do, as a daemon's
//! node does, pins what a record costs and its size at 16 bytes, so a
//! change that widens a record or its node's table fails here as well.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside it would be counted too.

mod counting_alloc;

use counting_alloc::{counted, Counting};
use peerstripe::core::{
    ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem, StoredObject,
};
use peerstripe::placement::{StrategyKind, Topology};
use peerstripe::repair::{
    BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, GroupedChurn, MaintenanceEngine,
    RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe::sim::{ByteSize, DetRng, SimTime};
use peerstripe::trace::TraceConfig;

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: usize = 1_000;
const GROUP: usize = 100;
const FILES: usize = 200;
const HOURS: usize = 6;

/// Ceilings just above what an untracked deploy and the allocation-free
/// repair decision reach: 9.18 per file stored and 2.51 per block
/// regenerated (2.56 in a debug build, whose consistency checks allocate).
/// What is left of a repair is the targets its completion event keeps and
/// the amortised growth of the ledger's and the queue's tables.  The paper
/// population's nodes keep no record of a size-only object; while they
/// did, a store also paid for its share of the nodes' B-tree leaves (13.0).
/// A file's manifest and its catalogue key are the one allocation of its
/// name, and a chunk's plan builds no vector of names; before, they were
/// three more copies of the name and one more vector a chunk (16.0).
/// Before that, every repair decision copied the chunk's holders,
/// concatenated them with its promised targets and built per-domain counts
/// and barred slots (18.0 and 11.4); before that, every name built its own
/// copy of the file name and every tier walk collected the tiers into a
/// vector (52.4 and 15.5).
const STORE_CEILING: f64 = 9.2;
const REPAIR_CEILING: f64 = 2.58;

/// Ceiling just above the small bytes a file stored allocates, 1 894: its
/// names, manifest and CAT.  Before, its share of the nodes' object tables
/// came on top (3 313), and before that a record also carried its object's
/// name and a file's name was copied three more times (4 974).
const STORE_BYTES_CEILING: f64 = 1_930.0;

/// Ceiling just above the small bytes a tracked deploy allocates beyond the
/// untracked one, per object record: 141.9.  A node that holds anything owns
/// at least one B-tree leaf of 11 keys of 16 bytes and 11 records of 16
/// (368 bytes); most nodes of this deploy hold two or three records, so a
/// record costs well above its 32 bytes.  Daemons and the byte path pay it.
const RECORD_BYTES_CEILING: f64 = 145.0;

/// Every allocation `f` makes on this thread, large or small.
fn allocations(f: impl FnOnce()) -> usize {
    counted(f).3
}

#[test]
fn the_simulator_allocates_within_its_budget() {
    let seed = 42;
    let trace = TraceConfig::scaled(FILES).generate(seed ^ 0xd0a7);
    let topology = Topology::uniform_groups(NODES, GROUP);
    let cluster = ClusterConfig::scaled(NODES).build(&mut DetRng::new(seed));
    let coding = CodingPolicy::Online {
        placed: 8,
        tolerable: 4,
        overhead: 1.03,
    };
    let mut ps = PeerStripe::with_placement(
        cluster,
        PeerStripeConfig::default().with_coding(coding),
        StrategyKind::DomainSpread.build(0),
        Some(topology.clone()),
    );

    let mut stored = 0;
    let (_, _, store_bytes, store) = counted(|| {
        for file in &trace.files {
            stored += usize::from(ps.store_file(file).is_stored());
        }
    });
    assert_eq!(stored, FILES, "every file of the trace is stored");

    // The same deploy on nodes that record every object, as a daemon's
    // node does: what it allocates beyond the untracked deploy is the
    // nodes' object tables.
    let tracked = ClusterConfig {
        track_objects: true,
        ..ClusterConfig::scaled(NODES)
    };
    let mut tracked = PeerStripe::with_placement(
        tracked.build(&mut DetRng::new(seed)),
        PeerStripeConfig::default().with_coding(coding),
        StrategyKind::DomainSpread.build(0),
        Some(topology.clone()),
    );
    let (_, _, tracked_bytes, _) = counted(|| {
        for file in &trace.files {
            assert!(tracked.store_file(file).is_stored());
        }
    });
    let cluster = tracked.cluster();
    let records: u64 = (0..NODES).map(|n| cluster.node(n).object_count()).sum();
    let table_bytes = tracked_bytes.saturating_sub(store_bytes);

    let manifests = ps.manifests().clone();
    let churn = ChurnProcess {
        sessions: SessionModel::Synthetic {
            mean_session_secs: 24.0 * 3_600.0,
            mean_downtime_secs: 2.0 * 3_600.0,
        },
        permanent_fraction: 0.002,
        grouped: Some(GroupedChurn::new(topology.clone(), 48.0, 12.0)),
    };
    let repair = RepairConfig {
        policy: RepairPolicy::Eager,
        detector: DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0),
        detection: DetectionKind::PerNodeTimeout,
        bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
        sample_period_secs: 1_800.0,
    };
    let mut engine = MaintenanceEngine::new(ps.into_cluster(), &manifests, churn, repair, 42)
        .with_placement(StrategyKind::DomainSpread.build(0), Some(topology));
    let hours = SimTime::from_secs_f64(HOURS as f64 * 3_600.0);
    let run = allocations(|| engine.run_for(hours));
    let regenerated = engine.report().blocks_regenerated;
    assert!(
        regenerated > 100,
        "the churn regenerates blocks: {regenerated}"
    );

    let per_store = store as f64 / FILES as f64;
    let bytes_per_store = store_bytes as f64 / FILES as f64;
    let per_block = run as f64 / regenerated as f64;
    let engine_run = format!("{HOURS} h of engine repair");
    println!("| path                  | allocations | per op |");
    println!("|-----------------------|-------------|--------|");
    println!("| {:<21} | {store:>11} | {per_store:>6.1} |", "store_file");
    println!("store_file: {bytes_per_store:.0} small bytes allocated per file");
    let bytes_per_record = table_bytes as f64 / records as f64;
    println!(
        "tracked nodes: {table_bytes} more small bytes for {records} object records, \
         {bytes_per_record:.1} a record"
    );
    println!("| {engine_run:<21} | {run:>11} | {per_block:>6.1} |");
    println!(
        "{FILES} files on {NODES} nodes in domains of {GROUP}; \
         per op: per file stored, per block regenerated ({regenerated})"
    );
    assert!(
        per_store <= STORE_CEILING,
        "{per_store:.1} allocations per store_file, ceiling {STORE_CEILING}"
    );
    assert!(
        bytes_per_store <= STORE_BYTES_CEILING,
        "{bytes_per_store:.0} small bytes allocated per store_file, ceiling {STORE_BYTES_CEILING}"
    );
    assert!(
        bytes_per_record <= RECORD_BYTES_CEILING,
        "{bytes_per_record:.1} small bytes per object record, ceiling {RECORD_BYTES_CEILING}"
    );
    assert!(
        size_of::<StoredObject>() <= 16,
        "a node's object record is its size and payload, 16 bytes"
    );
    assert!(
        per_block <= REPAIR_CEILING,
        "{per_block:.1} allocations per regenerated block, ceiling {REPAIR_CEILING}"
    );
}
