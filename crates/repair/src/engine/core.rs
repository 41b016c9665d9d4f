//! The [`MaintenanceEngine`] itself: state, construction, the run loop,
//! repair triggering, and the summary report.

use super::accounting::WriteOffAccounting;
use super::events::MaintenanceEvent;
use crate::config::{ChurnProcess, RepairConfig};
use crate::detection::DetectionPolicy;
use crate::scheduler::RepairScheduler;
use peerstripe_core::{DamageLedger, ManifestStore, StorageCluster, Verdict};
use peerstripe_overlay::NodeRef;
use peerstripe_placement::{DomainView, OverlayRandom, PlacementStrategy, Topology};
use peerstripe_sim::dist::{Distribution, Exponential};
use peerstripe_sim::{ByteSize, DetRng, EventQueue, OnlineStats, SimTime};
use peerstripe_telemetry::{NullTracer, TraceEvent, TraceOutput, TraceRecord, Tracer};

/// Aggregate outcome of a maintenance run: the engine's one account of it.
/// The engine tallies the counters onto its own copy as events happen;
/// [`MaintenanceEngine::report`] fills in the rest from the queue, the
/// ledger and the availability samples.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Virtual time the engine has reached.
    pub sim_time: SimTime,
    /// Events processed.
    pub events: u64,
    /// Files tracked.
    pub files_total: u64,
    /// Files permanently lost.
    pub files_lost: u64,
    /// Files unavailable at the end of the run.
    pub files_unavailable: u64,
    /// Mean sampled availability percentage.
    pub availability_mean_pct: f64,
    /// Lowest sampled availability percentage.
    pub availability_min_pct: f64,
    /// Total repair traffic.
    pub repair_bytes: ByteSize,
    /// Repair traffic spent regenerating blocks of nodes that later returned
    /// — traffic a smarter detector would not have spent.
    pub wasted_repair_bytes: ByteSize,
    /// Individual blocks regenerated.
    pub blocks_regenerated: u64,
    /// User bytes under maintenance.
    pub useful_bytes: ByteSize,
    /// Repair traffic per useful byte protected.
    pub repair_per_useful_byte: f64,
    /// Permanent departures drawn by the churn process.
    pub permanent_failures: u64,
    /// Transient departures drawn by the churn process.
    pub transient_departures: u64,
    /// Whole-group outage events drawn by the grouped churn mode.
    pub group_outages: u64,
    /// Node departures caused by group outages.
    pub group_departures: u64,
    /// Nodes declared dead that later returned.
    pub false_declarations: u64,
    /// Down periods whose declaration the detector held at least once
    /// (outage-aware policy classifying correlated absence).
    pub declarations_held: u64,
    /// Held declarations cancelled by the node returning — each one a
    /// write-off (and its regeneration wave) that never happened.
    pub held_cancelled: u64,
    /// The failure-detection policy's label.
    pub detector: String,
}

impl MaintenanceReport {
    /// Wasted repair traffic as a fraction of all repair traffic (0 when no
    /// repairs ran).
    pub fn wasted_repair_fraction(&self) -> f64 {
        if self.repair_bytes.is_zero() {
            0.0
        } else {
            self.wasted_repair_bytes.as_u64() as f64 / self.repair_bytes.as_u64() as f64
        }
    }
}

/// The event-driven churn & repair engine.
pub struct MaintenanceEngine {
    pub(super) cluster: StorageCluster,
    pub(super) ledger: DamageLedger,
    pub(super) queue: EventQueue<MaintenanceEvent>,
    pub(super) detector: Box<dyn DetectionPolicy>,
    pub(super) scheduler: RepairScheduler,
    pub(super) churn: ChurnProcess,
    pub(super) sample_period: SimTime,
    pub(super) rng: DetRng,
    /// Per chunk, indexed like the ledger: a deferred-repair retry is queued.
    pub(super) retry_pending: Vec<bool>,
    // Per node.
    pub(super) permanent: Vec<bool>,
    pub(super) declared: Vec<bool>,
    /// True while the node's declaration is being held by the detector.
    pub(super) hold_active: Vec<bool>,
    /// Session generation per node; bumped when a group outage cuts a session
    /// short so the node's stale Depart/Return chain is invalidated.
    pub(super) session_gen: Vec<u64>,
    // Grouped churn (indexed by churn-topology domain).
    pub(super) group_down_until: Vec<SimTime>,
    pub(super) grouped_rng: DetRng,
    // Placement of rebuilt blocks.
    pub(super) placement: Box<dyn PlacementStrategy>,
    pub(super) topology: Option<Topology>,
    pub(super) writeoffs: WriteOffAccounting,
    /// The run's counters, tallied as events happen; [`Self::report`] adds
    /// the derived fields.
    pub(super) report: MaintenanceReport,
    /// Sampled availability percentages.
    pub(super) availability: OnlineStats,
    pub(super) horizon: SimTime,
    /// Structured trace sink.
    pub(super) tracer: Box<dyn Tracer>,
    /// Per node: the outage id of the group outage that took it down, `None`
    /// for individual departures — links declarations (and the losses they
    /// cause) back to their causal outage in the trace.
    pub(super) down_outage: Vec<Option<u64>>,
    /// Per group: the id of its current (or most recent) outage.
    pub(super) group_outage_id: Vec<u64>,
    pub(super) next_outage_id: u64,
}

impl MaintenanceEngine {
    /// Build the engine over a loaded deployment.
    ///
    /// `cluster` and `manifests` describe the system at time zero (every node
    /// up); `seed` makes the whole run — churn draws, permanence coin flips,
    /// placement probes — reproducible.  The failure-detection policy comes
    /// from `config.detection`; the outage-aware policy correlates over the
    /// grouped-churn topology's [`DomainView`] when one is configured
    /// (override with [`MaintenanceEngine::with_detector`]).
    pub fn new(
        cluster: StorageCluster,
        manifests: &ManifestStore,
        churn: ChurnProcess,
        config: RepairConfig,
        seed: u64,
    ) -> Self {
        let ledger = DamageLedger::build(manifests);
        let nodes = cluster.node_count();
        let chunks = ledger.chunk_count();
        let mut rng = DetRng::new(seed).fork("maintenance");
        let group_count = churn
            .grouped
            .as_ref()
            .map(|g| g.topology.domain_count())
            .unwrap_or(0);
        // The grouped mode's topology doubles as the default placement
        // topology, so repair re-placement is domain-aware whenever the churn
        // is (override with [`MaintenanceEngine::with_placement`]); its
        // domain view likewise feeds the outage-aware detector.
        let topology = churn.grouped.as_ref().map(|g| g.topology.clone());
        let view = topology
            .as_ref()
            .map(|t| t.domain_view())
            .unwrap_or_else(DomainView::unaffiliated);
        let mut engine = MaintenanceEngine {
            detector: config.detection.build(nodes, config.detector, view),
            scheduler: RepairScheduler::new(nodes, config.bandwidth, config.policy),
            sample_period: SimTime::from_secs_f64(config.sample_period_secs),
            queue: EventQueue::new(),
            retry_pending: vec![false; chunks],
            permanent: vec![false; nodes],
            declared: vec![false; nodes],
            hold_active: vec![false; nodes],
            session_gen: vec![0; nodes],
            group_down_until: vec![SimTime::ZERO; group_count],
            grouped_rng: DetRng::new(seed).fork("grouped-churn"),
            placement: Box::new(OverlayRandom::new()),
            topology,
            writeoffs: WriteOffAccounting::new(chunks, nodes),
            report: MaintenanceReport::default(),
            availability: OnlineStats::new(),
            horizon: SimTime::ZERO,
            tracer: Box::new(NullTracer),
            down_outage: vec![None; nodes],
            group_outage_id: vec![0; group_count],
            next_outage_id: 0,
            cluster,
            ledger,
            churn,
            rng: rng.fork("engine"),
        };
        // Every node starts up, already partway through a session: the first
        // departure lands at a uniformly random *residual* of a sampled
        // session length, so time zero is a steady-state snapshot rather than
        // a synchronised wave of fresh sessions all expiring together.
        for node in 0..nodes {
            let session = engine.churn.sessions.sample_session(&mut rng);
            let residual = session * rng.next_f64();
            engine.queue.schedule_at(
                SimTime::from_secs_f64(residual),
                MaintenanceEvent::Depart { node, session: 0 },
            );
        }
        // Grouped mode: every domain's first outage arrives after an
        // exponential wait on its own stream, so the independent-session draws
        // above are byte-identical with and without grouping.
        if let Some(grouped) = &engine.churn.grouped {
            let rate = 1.0 / grouped.mean_outage_interval_secs;
            for group in 0..group_count as u32 {
                let wait = Exponential::new(rate).sample(&mut engine.grouped_rng);
                engine.queue.schedule_at(
                    SimTime::from_secs_f64(wait),
                    MaintenanceEvent::GroupDepart { group },
                );
            }
        }
        engine
            .queue
            .schedule_at(engine.sample_period, MaintenanceEvent::Sample);
        engine.adopt_topology();
        engine
    }

    /// Hand the placement topology to the cluster, which indexes its nodes by
    /// domain for it and keeps that index current through the churn.
    fn adopt_topology(&mut self) {
        if let Some(topology) = &self.topology {
            self.cluster.adopt_topology(topology);
        }
    }

    /// Route rebuilt-block placement through an explicit strategy (and
    /// optionally a different topology than the churn's).  The default is
    /// [`OverlayRandom`] over the grouped-churn topology, if any.
    pub fn with_placement(
        mut self,
        strategy: Box<dyn PlacementStrategy>,
        topology: Option<Topology>,
    ) -> Self {
        self.placement = strategy;
        if topology.is_some() {
            self.topology = topology;
            self.adopt_topology();
        }
        self
    }

    /// Replace the failure-detection policy with an explicitly constructed
    /// one — e.g. an [`crate::detection::OutageAware`] over a different
    /// [`DomainView`] than the grouped-churn topology's.  Call before running:
    /// detection state (who is down since when) does not carry over.
    pub fn with_detector(mut self, detector: Box<dyn DetectionPolicy>) -> Self {
        assert_eq!(
            self.queue.processed(),
            0,
            "detector must be swapped before the run starts"
        );
        self.detector = detector;
        self
    }

    /// Route trace records into an explicit [`Tracer`] backend.  The default
    /// is [`NullTracer`]; tracing never changes simulation results, only what
    /// is observed about them.
    pub fn with_tracer(mut self, tracer: Box<dyn Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Take the accumulated trace, swapping a [`NullTracer`] back in.
    pub fn finish_trace(&mut self) -> TraceOutput {
        std::mem::replace(&mut self.tracer, Box::new(NullTracer)).finish()
    }

    /// Whether trace records are being collected — emission sites check this
    /// before constructing a record, so the null backend pays nothing.
    #[inline]
    pub(super) fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Stamp and emit one trace record at sim time `now`.
    pub(super) fn trace(&mut self, now: SimTime, record: TraceRecord) {
        self.tracer.record(TraceEvent {
            t_ns: now.as_nanos(),
            record,
        });
    }

    /// Advance the simulation by `duration` of virtual time.
    pub fn run_for(&mut self, duration: SimTime) {
        self.horizon += duration;
        let deadline = self.horizon;
        let mut queue = std::mem::take(&mut self.queue);
        queue.run_until(deadline, |q, now, event| self.handle(q, now, event));
        self.queue = queue;
        debug_assert!(
            self.cluster.index_is_consistent(),
            "the cluster's placement index drifted from its nodes"
        );
    }

    /// The block ledger (current placements and losses).
    pub fn ledger(&self) -> &DamageLedger {
        &self.ledger
    }

    /// The cluster under maintenance.
    pub fn cluster(&self) -> &StorageCluster {
        &self.cluster
    }

    /// Summarise the run: the tallied counters, plus what the queue, the
    /// ledger and the availability samples say (100 % before any sample).
    pub fn report(&self) -> MaintenanceReport {
        let useful = self.ledger.tracked_bytes();
        let repair_per_useful_byte = if useful.is_zero() {
            0.0
        } else {
            self.report.repair_bytes.as_u64() as f64 / useful.as_u64() as f64
        };
        let availability_mean_pct = if self.availability.count() == 0 {
            100.0
        } else {
            self.availability.mean()
        };
        MaintenanceReport {
            sim_time: self.queue.now(),
            events: self.queue.processed(),
            files_total: self.ledger.file_count() as u64,
            files_unavailable: self.ledger.files_unavailable() as u64,
            availability_mean_pct,
            availability_min_pct: self.availability.min().unwrap_or(100.0),
            useful_bytes: useful,
            repair_per_useful_byte,
            detector: self.detector.label(),
            ..self.report.clone()
        }
    }

    /// True if the grouped-churn domain is currently in an outage.
    pub fn group_outage_active(&self, group: u32) -> bool {
        self.group_down_until
            .get(group as usize)
            .is_some_and(|&until| self.queue.now() < until)
    }

    /// The topology rebuilt blocks are placed against, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Decide whether (and how much) to regenerate for `chunk`, and charge the
    /// transfers: what may be rebuilt and where is the planner's call
    /// ([`peerstripe_core::planner`]); how many blocks now, from which
    /// uploaders and at what cost is decided here.  Defers silently when
    /// decode sources or targets are not available — the next return,
    /// declaration or completion touching the chunk retries.
    pub(super) fn maybe_repair(
        &mut self,
        q: &mut EventQueue<MaintenanceEvent>,
        now: SimTime,
        chunk: u32,
    ) {
        if self.ledger.is_lost(chunk) {
            return;
        }
        let want = self.scheduler.policy().blocks_wanted(
            self.ledger.blocks(chunk).len(),
            self.ledger.promised(chunk).len(),
            self.ledger.needed(chunk),
            self.ledger.placed(chunk),
        );
        if want == 0 {
            return;
        }
        let damage = self.ledger.damage(chunk);
        // Decode sources.  The scheduler's transfer model reads one block
        // from each uploader, so beyond the planner's threshold it wants
        // `needed` *distinct* live holders.
        let mut sources: Vec<NodeRef> = Vec::with_capacity(damage.needed);
        if damage.verdict(&self.cluster) == Verdict::Rebuild {
            for node in &damage.holders {
                if self.cluster.overlay().is_alive(*node) && !sources.contains(node) {
                    sources.push(*node);
                    if sources.len() == damage.needed {
                        break;
                    }
                }
            }
        }
        if sources.len() < damage.needed {
            // Not decodable right now: retry at the next probe boundary (a
            // holder returning earlier also retries).
            self.schedule_retry(q, chunk);
            return;
        }
        let (strategy, topology) = (self.placement.as_mut(), self.topology.as_ref());
        let targets = damage.targets(strategy, topology, &self.cluster, want, &[], &mut self.rng);
        if self.tracing() {
            let strategy = self.placement.name().to_string();
            self.trace(
                now,
                TraceRecord::PlacementDecision {
                    chunk,
                    strategy,
                    want,
                    got: targets.len(),
                },
            );
        }
        if targets.is_empty() {
            self.schedule_retry(q, chunk);
            return;
        }
        let plan = self
            .scheduler
            .schedule(damage.block_size, &sources, &targets, now);
        self.ledger.promise(chunk, &targets);
        if self.tracing() {
            self.trace(
                now,
                TraceRecord::RepairScheduled {
                    chunk,
                    blocks: targets.len(),
                    traffic: plan.traffic.as_u64(),
                    done_at_ns: plan.done_at.as_nanos(),
                },
            );
        }
        q.schedule_at(
            plan.done_at,
            MaintenanceEvent::RepairDone {
                chunk,
                targets,
                traffic: plan.traffic,
            },
        );
    }

    /// Queue a deferred-repair retry for `chunk` one retry period out (at most
    /// one pending retry per chunk, so deferrals cannot flood the queue).  The
    /// period is the probe period floored by the configured
    /// [`crate::DetectorConfig::retry_floor_secs`].
    pub(super) fn schedule_retry(&mut self, q: &mut EventQueue<MaintenanceEvent>, chunk: u32) {
        let ci = chunk as usize;
        if self.retry_pending[ci] {
            return;
        }
        self.retry_pending[ci] = true;
        let period = SimTime::from_secs_f64(self.detector.config().retry_period_secs());
        q.schedule_after(period, MaintenanceEvent::RetryRepair(chunk));
    }
}
