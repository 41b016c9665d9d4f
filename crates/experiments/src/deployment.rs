//! What every maintenance experiment does before its cells start to differ:
//! load a file trace onto a fresh cluster, keep what was placed, and start a
//! maintenance engine over a copy of it.  The sweeps, the `repro trace`
//! scenarios, Fig 10 / Table 3 and the `repair_schedule` snapshot all deploy
//! through [`Deployment`], so a call site states only its own cell.  A cell's
//! outcome is its engine's [`MaintenanceReport`].

use peerstripe_core::{
    ClusterConfig, CodingPolicy, ManifestStore, PeerStripe, PeerStripeConfig, StorageCluster,
    StorageSystem,
};
use peerstripe_placement::{StrategyKind, Topology};
use peerstripe_repair::{
    BandwidthBudget, ChurnProcess, DetectorConfig, MaintenanceEngine, MaintenanceReport,
    RepairConfig, SessionModel,
};
use peerstripe_sim::{ByteSize, DetRng, SimTime};
use peerstripe_trace::{Trace, TraceConfig};

/// The redundancy the sweeps and traced scenarios deploy with: 8 placed
/// blocks per chunk of which any 4 recover it.  Four tolerable losses give
/// lazy repair slack to batch within (the paper's default 6/4 geometry leaves
/// a margin-0 policy nothing to wait with) and make the per-domain cap 4, so
/// a domain-spread chunk survives any single-domain outage by construction.
pub(crate) const SWEEP_CODING: CodingPolicy = CodingPolicy::Online {
    placed: 8,
    tolerable: 4,
    overhead: 1.03,
};

/// What one engine run needs besides the deployment it runs over; the thing
/// a sweep varies from cell to cell.
pub(crate) struct Cell {
    pub(crate) churn: ChurnProcess,
    pub(crate) repair: RepairConfig,
    pub(crate) horizon: SimTime,
}

impl Cell {
    /// Independent churn only — 8 h sessions, 4 h downtimes — under eager
    /// per-node repair at 4 MB/s with hourly samples: the fixed cell the
    /// `repair-mini` golden trace and the `repair_schedule` snapshot share up
    /// to what they pass here.
    pub(crate) fn independent(permanent_fraction: f64, timeout_hours: f64, hours: f64) -> Self {
        Cell {
            churn: ChurnProcess {
                sessions: SessionModel::Synthetic {
                    mean_session_secs: 8.0 * 3_600.0,
                    mean_downtime_secs: 4.0 * 3_600.0,
                },
                permanent_fraction,
                grouped: None,
            },
            repair: RepairConfig {
                detector: DetectorConfig::default_desktop_grid()
                    .with_timeout(timeout_hours * 3_600.0),
                bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
                ..RepairConfig::default_desktop_grid()
            },
            horizon: SimTime::from_secs_f64(hours * 3_600.0),
        }
    }
}

/// A trace placed on a cluster, with the strategy and topology that placed it.
pub(crate) struct Deployment {
    pub(crate) cluster: StorageCluster,
    pub(crate) manifests: ManifestStore,
    kind: StrategyKind,
    topology: Option<Topology>,
    seed: u64,
}

impl Deployment {
    /// Store every file of `trace` on a fresh `nodes`-node cluster built from
    /// `seed`, placing with `kind` over `topology`.  Files that do not fit
    /// are skipped, as in the paper's insertion experiments.
    pub(crate) fn place(
        nodes: usize,
        seed: u64,
        coding: CodingPolicy,
        kind: StrategyKind,
        topology: Option<&Topology>,
        trace: &Trace,
    ) -> Self {
        let mut rng = DetRng::new(seed);
        let cluster = ClusterConfig::scaled(nodes).build(&mut rng);
        let mut ps = PeerStripe::with_placement(
            cluster,
            PeerStripeConfig::default().with_coding(coding),
            kind.build(seed),
            topology.cloned(),
        );
        for file in &trace.files {
            let _ = ps.store_file(file);
        }
        let manifests = ps.manifests().clone();
        Deployment {
            cluster: ps.into_cluster(),
            manifests,
            kind,
            topology: topology.cloned(),
            seed,
        }
    }

    /// The paper's own deployment: a `files`-file trace drawn from the seed,
    /// placed by overlay routing alone.
    pub(crate) fn oblivious(nodes: usize, files: usize, seed: u64, coding: CodingPolicy) -> Self {
        let trace = TraceConfig::scaled(files).generate(seed ^ 0xc0de);
        Self::place(
            nodes,
            seed,
            coding,
            StrategyKind::OverlayRandom,
            None,
            &trace,
        )
    }

    /// User bytes the deployment stored.
    pub(crate) fn useful_bytes(&self) -> ByteSize {
        self.manifests.iter().map(|m| m.size).sum()
    }

    /// A maintenance engine for `cell` over a copy of the deployment, not yet
    /// run.  Rebuilt blocks are placed by the strategy that deployed the data,
    /// over the same topology, and the engine draws from the deployment's
    /// seed, so every cell of one deployment faces the same churn schedule.
    pub(crate) fn engine(&self, cell: &Cell) -> MaintenanceEngine {
        MaintenanceEngine::new(
            self.cluster.clone(),
            &self.manifests,
            cell.churn.clone(),
            cell.repair.clone(),
            self.seed,
        )
        .with_placement(self.kind.build(self.seed), self.topology.clone())
    }

    /// Run `cell` to its horizon.
    pub(crate) fn run_cell(&self, cell: &Cell) -> MaintenanceReport {
        let mut engine = self.engine(cell);
        engine.run_for(cell.horizon);
        engine.report()
    }
}
