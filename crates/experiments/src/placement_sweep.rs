//! The `placement-sweep` experiment: domain-aware vs. oblivious placement
//! under correlated grouped churn.
//!
//! Desktop grids fail in groups — a lab powers down, a switch dies, a
//! building loses power over a weekend — and uniform DHT placement happily
//! concentrates several blocks of one chunk in a single lab.  This sweep
//! quantifies what that concentration costs: for every placement strategy ×
//! failure-domain size × outage rate, it deploys the same trace, measures the
//! achieved spread, drives the maintenance engine through grouped churn with
//! an aggressive permanence timeout (so an outage longer than the timeout
//! becomes a domain-wide declaration wave), and reports durability (files
//! lost), availability over time, and the repair bill — all at equal repair
//! bandwidth.  The headline: `domain-spread` caps every chunk at its
//! tolerable losses per domain, so a whole-domain outage can never push a
//! chunk below its decode threshold, while `overlay-random` loses files at
//! exactly the chunks its placement over-concentrated.

use crate::deployment::{Cell, Deployment, SWEEP_CODING};
use crate::scale::Scale;
use peerstripe_core::ManifestStore;
use peerstripe_placement::{SpreadReport, StrategyKind, Topology};
use peerstripe_repair::{
    BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, GroupedChurn, MaintenanceReport,
    OutageAwareConfig, RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe_sim::{ByteSize, SimTime};
use peerstripe_trace::{SessionTrace, Trace, TraceConfig};

/// Configuration of the placement sweep.
#[derive(Debug, Clone)]
pub struct PlacementSweepConfig {
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Number of files distributed before churn starts.
    pub files: usize,
    /// Virtual hours of churn to simulate per configuration.
    pub sim_hours: f64,
    /// Failure-domain sizes to sweep (nodes per lab/rack).
    pub group_sizes: Vec<usize>,
    /// Mean intervals between outages per domain, hours (the
    /// correlated-departure rate axis; smaller = more correlated churn).
    pub outage_interval_hours: Vec<f64>,
    /// Mean outage duration, hours.
    pub outage_downtime_hours: f64,
    /// Mean individual node session length, hours.
    pub mean_session_hours: f64,
    /// Mean individual node downtime, hours.
    pub mean_downtime_hours: f64,
    /// Probability an individual departure is permanent.
    pub permanent_fraction: f64,
    /// Failure-detector permanence timeout, hours.  Set *below* the outage
    /// duration, as an operator tuning for quick repair would: the detector
    /// cannot tell a lab outage from real loss, so every long outage becomes
    /// a domain-wide declaration wave — the regime that punishes placement
    /// concentration.
    pub timeout_hours: f64,
    /// Symmetric per-node repair bandwidth (identical across strategies).
    pub bandwidth: ByteSize,
    /// Placement strategies to compare.
    pub strategies: Vec<StrategyKind>,
    /// Domain-absence thresholds (θ) for the outage-aware detector on the
    /// detector axis; the per-node baseline always runs.  Empty disables the
    /// detector axis.
    pub detector_thetas: Vec<f64>,
    /// Domains per machine class for the trace-derived
    /// [`Topology::from_sessions`] topology the detector axis adds next to
    /// the synthetic grouped one.
    pub session_domains_per_class: usize,
    /// Base random seed.
    pub seed: u64,
}

impl PlacementSweepConfig {
    /// Configuration for a given scale: labs of ~1/10th and ~1/5th of the
    /// population (where oblivious placement measurably over-concentrates an
    /// 8-block chunk), outages every ~2 and ~4 days per lab (mostly
    /// non-overlapping, so the single-domain loss the cap guards against
    /// dominates), 12 h outages against a 4 h permanence timeout, light
    /// independent churn.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let nodes = scale.nodes();
        PlacementSweepConfig {
            nodes,
            files: nodes * 6,
            sim_hours: match scale {
                Scale::Small => 60.0,
                Scale::Medium => 72.0,
                Scale::Paper => 96.0,
            },
            group_sizes: vec![nodes.div_ceil(10), nodes.div_ceil(5)],
            outage_interval_hours: vec![48.0, 96.0],
            outage_downtime_hours: 12.0,
            mean_session_hours: 24.0,
            mean_downtime_hours: 2.0,
            permanent_fraction: 0.002,
            timeout_hours: 4.0,
            bandwidth: ByteSize::mb(4),
            strategies: StrategyKind::ALL.to_vec(),
            // θ = 0.5 classifies every whole-domain outage; θ = 0.9 is the
            // strict end, where members individually down at outage start can
            // push the clustered fraction below quorum.
            detector_thetas: vec![0.5, 0.9],
            session_domains_per_class: 3,
            seed,
        }
    }

    /// The files every cell deploys.
    pub(crate) fn trace(&self) -> Trace {
        TraceConfig::scaled(self.files).generate(self.seed ^ 0xd0a7)
    }

    /// The trace placed by `kind` over `topology`: the same cluster build and
    /// the same files for every strategy, only the placement decisions differ.
    pub(crate) fn deploy(
        &self,
        trace: &Trace,
        kind: StrategyKind,
        topology: &Topology,
    ) -> Deployment {
        Deployment::place(
            self.nodes,
            self.seed,
            SWEEP_CODING,
            kind,
            Some(topology),
            trace,
        )
    }

    /// The (group size, outage interval) of the sweep's first cell — the one
    /// the detector axis and the `placement-outage` trace scenario run at.
    pub(crate) fn first_cell(&self) -> (usize, f64) {
        (
            self.group_sizes.first().copied().unwrap_or(25),
            self.outage_interval_hours.first().copied().unwrap_or(48.0),
        )
    }

    /// The cell at (`topology`, `interval_hours`, `detection`): the sweep's
    /// light independent churn plus whole-domain outages of `topology` every
    /// `interval_hours` on average, under eager repair.
    pub(crate) fn cell(
        &self,
        topology: &Topology,
        interval_hours: f64,
        detection: DetectionKind,
    ) -> Cell {
        Cell {
            churn: ChurnProcess {
                sessions: SessionModel::Synthetic {
                    mean_session_secs: self.mean_session_hours * 3_600.0,
                    mean_downtime_secs: self.mean_downtime_hours * 3_600.0,
                },
                permanent_fraction: self.permanent_fraction,
                grouped: Some(GroupedChurn::new(
                    topology.clone(),
                    interval_hours,
                    self.outage_downtime_hours,
                )),
            },
            repair: self.repair(detection),
            horizon: SimTime::from_secs_f64(self.sim_hours * 3_600.0),
        }
    }

    /// The repair configuration every cell runs with; only the detection
    /// policy differs, and only on the detector axis.
    fn repair(&self, detection: DetectionKind) -> RepairConfig {
        RepairConfig {
            policy: RepairPolicy::Eager,
            detector: DetectorConfig::default_desktop_grid()
                .with_timeout(self.timeout_hours * 3_600.0),
            detection,
            bandwidth: BandwidthBudget::symmetric(self.bandwidth),
            sample_period_secs: 1_800.0,
        }
    }
}

/// One swept configuration's outcome.
#[derive(Debug, Clone)]
pub struct PlacementSweepRow {
    /// Placement strategy.
    pub strategy: StrategyKind,
    /// Nodes per failure domain.
    pub group_size: usize,
    /// Mean hours between outages per domain.
    pub outage_interval_hours: f64,
    /// What the maintenance engine reported at the horizon (strategies may
    /// fail different stores, so `files_total` differs between rows).
    pub report: MaintenanceReport,
    /// Worst per-domain block concentration of any chunk at deploy time.
    pub max_in_one_domain: usize,
    /// Chunks whose placement exceeded the domain cap — each one is a chunk a
    /// single outage can make unrecoverable.
    pub cap_violations: u64,
    /// Mean distinct domains per chunk at deploy time.
    pub mean_distinct_domains: f64,
}

/// One detector-axis configuration's outcome: a detection kind (named by
/// `report.detector`: `per-node` or `outage-aware(θ=…)`) driven over a
/// grouped topology at fixed (domain-spread) placement.
#[derive(Debug, Clone)]
pub struct DetectorSweepRow {
    /// Topology label (`groups(n)` synthetic or `sessions(n)` trace-derived).
    pub topology: String,
    /// What the maintenance engine reported at the horizon.
    pub report: MaintenanceReport,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct PlacementSweep {
    /// One row per swept configuration (group-size-major, then outage rate,
    /// then strategy in [`StrategyKind::ALL`] order).
    pub rows: Vec<PlacementSweepRow>,
    /// The detector axis: per grouped topology (synthetic and trace-derived),
    /// the per-node baseline followed by every outage-aware θ, at fixed
    /// domain-spread placement and equal repair bandwidth.
    pub detector_rows: Vec<DetectorSweepRow>,
    /// Nodes in the deployment.
    pub nodes: usize,
    /// User bytes under maintenance (oblivious deployment's, for reference).
    pub useful_bytes: ByteSize,
    /// Virtual hours simulated per configuration.
    pub sim_hours: f64,
    /// The per-domain block cap domain-aware strategies enforced.
    pub domain_cap: usize,
}

impl PlacementSweep {
    /// Matched `(oblivious, domain-spread)` row index pairs at the same group
    /// size and outage rate.
    pub fn matched_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, a) in self.rows.iter().enumerate() {
            if a.strategy != StrategyKind::OverlayRandom {
                continue;
            }
            for (j, b) in self.rows.iter().enumerate() {
                if b.strategy == StrategyKind::DomainSpread
                    && b.group_size == a.group_size
                    && b.outage_interval_hours == a.outage_interval_hours
                {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// True if `domain-spread` beats `overlay-random` across the matched
    /// configurations: strictly fewer files lost in total (or, with losses
    /// tied, strictly less unavailable time) at equal repair bandwidth — the
    /// claim the sweep exists to demonstrate.  Aggregated over the pairs so a
    /// zero-outage control row's noise cannot mask the outage-regime deltas.
    pub fn domain_spread_beats_oblivious(&self) -> bool {
        let pairs = self.matched_pairs();
        if pairs.is_empty() {
            return false;
        }
        let (mut lost_o, mut lost_d) = (0u64, 0u64);
        let (mut unavail_o, mut unavail_d) = (0.0f64, 0.0f64);
        for &(o, d) in &pairs {
            lost_o += self.rows[o].report.files_lost;
            lost_d += self.rows[d].report.files_lost;
            unavail_o += 100.0 - self.rows[o].report.availability_mean_pct;
            unavail_d += 100.0 - self.rows[d].report.availability_mean_pct;
        }
        lost_d < lost_o || (lost_d == lost_o && unavail_d < unavail_o)
    }

    /// Matched `(per-node, outage-aware)` detector-row index pairs on the
    /// same topology.
    pub fn detector_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (i, base) in self.detector_rows.iter().enumerate() {
            if base.report.detector != "per-node" {
                continue;
            }
            for (j, aware) in self.detector_rows.iter().enumerate() {
                if aware.report.detector.starts_with("outage-aware")
                    && aware.topology == base.topology
                {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// True if outage-aware detection demonstrably pays for itself: on
    /// *every* swept topology some θ cuts total repair bytes at least in half
    /// versus the per-node baseline while losing no additional files — the
    /// claim the detector axis exists to demonstrate.
    pub fn outage_aware_beats_per_node(&self) -> bool {
        let pairs = self.detector_pairs();
        if pairs.is_empty() {
            return false;
        }
        let mut topologies: Vec<&str> = Vec::new();
        for &(base, _) in &pairs {
            let t = self.detector_rows[base].topology.as_str();
            if !topologies.contains(&t) {
                topologies.push(t);
            }
        }
        topologies.iter().all(|topology| {
            pairs.iter().any(|&(base, aware)| {
                let (b, a) = (&self.detector_rows[base], &self.detector_rows[aware]);
                b.topology == *topology
                    && a.report.repair_bytes.as_u64().saturating_mul(2)
                        <= b.report.repair_bytes.as_u64()
                    && a.report.files_lost <= b.report.files_lost
            })
        })
    }
}

/// Measure the spread a deployment achieved, chunk by chunk, from the domains
/// recorded in its manifests.
fn measure_spread(manifests: &ManifestStore, cap: usize) -> SpreadReport {
    let mut spread = SpreadReport::new(cap);
    for manifest in manifests.iter() {
        for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
            spread.record_chunk(chunk.blocks.iter().map(|b| b.domain));
        }
    }
    spread
}

/// Run the detector axis: per grouped topology — the synthetic uniform
/// grouping and a trace-derived [`Topology::from_sessions`] one — deploy once
/// with domain-spread placement, then drive the identical deployment and
/// churn schedule through every detection kind.  Placement and bandwidth
/// are held fixed so the only variable is *when the detector declares*, and
/// the repair bill (total and wasted) isolates what correlated-absence
/// awareness saves.
fn run_detector_axis(config: &PlacementSweepConfig, trace: &Trace) -> Vec<DetectorSweepRow> {
    if config.detector_thetas.is_empty() {
        return Vec::new();
    }
    let (group_size, interval_hours) = config.first_cell();
    let session_trace = SessionTrace::synthetic_desktop_grid(config.nodes, config.seed ^ 0x5e55);
    let session_topology =
        Topology::from_sessions(&session_trace, config.session_domains_per_class);
    // Two grouped-topology shapes under the sweep's synthetic individual
    // churn: the uniform synthetic grouping, and the trace-derived
    // from_sessions one (machine classes inferred from observed
    // session/downtime lengths — unequal domain sizes, class-correlated
    // outages) that ROADMAP calls out.  The individual-churn model is held
    // fixed so the detector comparison stays outage-dominated on both.
    let topologies: Vec<(String, Topology)> = vec![
        (
            format!("groups({group_size})"),
            Topology::uniform_groups(config.nodes, group_size),
        ),
        (
            format!("sessions({})", session_topology.domain_count()),
            session_topology,
        ),
    ];
    let mut detectors = vec![DetectionKind::PerNodeTimeout];
    for &theta in &config.detector_thetas {
        detectors.push(DetectionKind::OutageAware(
            OutageAwareConfig::default_desktop_grid().with_threshold(theta),
        ));
    }

    let mut rows = Vec::new();
    for (label, topology) in topologies {
        // One domain-spread deployment per topology, shared by every detector.
        let deployment = config.deploy(trace, StrategyKind::DomainSpread, &topology);
        for &detection in &detectors {
            rows.push(DetectorSweepRow {
                topology: label.clone(),
                report: deployment.run_cell(&config.cell(&topology, interval_hours, detection)),
            });
        }
    }
    rows
}

/// Run the sweep.  Per group size and strategy the trace is deployed once;
/// per outage rate the maintenance engine runs over a copy of that
/// deployment, seeded identically across strategies so every configuration
/// faces the same outage schedule and the same independent churn.
pub fn run_placement_sweep(config: &PlacementSweepConfig) -> PlacementSweep {
    let cap = SWEEP_CODING.tolerable_losses();
    let trace = config.trace();
    let mut rows = Vec::new();
    let mut useful_bytes = ByteSize::ZERO;

    for &group_size in &config.group_sizes {
        let topology = Topology::uniform_groups(config.nodes, group_size);
        for &kind in &config.strategies {
            let deployment = config.deploy(&trace, kind, &topology);
            let spread = measure_spread(&deployment.manifests, cap);
            if kind == StrategyKind::OverlayRandom {
                useful_bytes = deployment.useful_bytes();
            }
            for &interval_hours in &config.outage_interval_hours {
                let report = deployment.run_cell(&config.cell(
                    &topology,
                    interval_hours,
                    DetectionKind::PerNodeTimeout,
                ));
                rows.push(PlacementSweepRow {
                    strategy: kind,
                    group_size,
                    outage_interval_hours: interval_hours,
                    report,
                    max_in_one_domain: spread.max_in_one_domain,
                    cap_violations: spread.cap_violations,
                    mean_distinct_domains: spread.mean_distinct_domains(),
                });
            }
        }
    }
    // Rows were produced strategy-major per group size; re-order to
    // group-size → rate → strategy for the rendered table.
    rows.sort_by(|a, b| {
        a.group_size
            .cmp(&b.group_size)
            .then(a.outage_interval_hours.total_cmp(&b.outage_interval_hours))
            .then(
                StrategyKind::ALL
                    .iter()
                    .position(|k| *k == a.strategy)
                    .cmp(&StrategyKind::ALL.iter().position(|k| *k == b.strategy)),
            )
    });
    PlacementSweep {
        rows,
        detector_rows: run_detector_axis(config, &trace),
        nodes: config.nodes,
        useful_bytes,
        sim_hours: config.sim_hours,
        domain_cap: cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PlacementSweepConfig {
        PlacementSweepConfig {
            nodes: 150,
            files: 750,
            sim_hours: 60.0,
            group_sizes: vec![30],
            outage_interval_hours: vec![48.0],
            outage_downtime_hours: 12.0,
            mean_session_hours: 24.0,
            mean_downtime_hours: 2.0,
            permanent_fraction: 0.002,
            timeout_hours: 4.0,
            bandwidth: ByteSize::mb(4),
            strategies: StrategyKind::ALL.to_vec(),
            detector_thetas: Vec::new(),
            session_domains_per_class: 3,
            seed: 11,
        }
    }

    #[test]
    fn domain_spread_beats_oblivious_under_grouped_churn() {
        let sweep = run_placement_sweep(&small_config());
        assert_eq!(sweep.rows.len(), 3);
        let by_kind = |k: StrategyKind| {
            sweep
                .rows
                .iter()
                .find(|r| r.strategy == k)
                .unwrap_or_else(|| panic!("{} row missing", k.label()))
        };
        let oblivious = by_kind(StrategyKind::OverlayRandom);
        let spread = by_kind(StrategyKind::DomainSpread);
        // The causal chain: oblivious placement concentrates blocks beyond
        // the cap somewhere, domain-spread never does...
        assert!(oblivious.cap_violations > 0, "{oblivious:?}");
        assert_eq!(spread.cap_violations, 0, "{spread:?}");
        assert!(spread.max_in_one_domain <= sweep.domain_cap);
        // ...and under whole-domain outages with an aggressive timeout that
        // concentration is exactly what loses files.
        assert!(oblivious.report.group_outages > 0);
        assert!(
            sweep.domain_spread_beats_oblivious(),
            "domain-spread must not lose more than oblivious: {:#?}",
            sweep.rows
        );
        for row in &sweep.rows {
            assert!(row.report.files_total > 0);
            assert!((0.0..=100.0).contains(&row.report.availability_mean_pct));
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut config = small_config();
        config.files = 300;
        config.sim_hours = 24.0;
        config.detector_thetas = vec![0.5];
        let a = run_placement_sweep(&config);
        let b = run_placement_sweep(&config);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.strategy, rb.strategy);
            assert_eq!(ra.report.files_lost, rb.report.files_lost);
            assert_eq!(ra.report.repair_bytes, rb.report.repair_bytes);
            assert_eq!(ra.report.group_outages, rb.report.group_outages);
            assert_eq!(ra.cap_violations, rb.cap_violations);
        }
        for (ra, rb) in a.detector_rows.iter().zip(&b.detector_rows) {
            assert_eq!(ra.report.detector, rb.report.detector);
            assert_eq!(ra.report.repair_bytes, rb.report.repair_bytes);
            assert_eq!(ra.report.wasted_repair_bytes, rb.report.wasted_repair_bytes);
            assert_eq!(ra.report.files_lost, rb.report.files_lost);
        }
    }

    #[test]
    fn outage_awareness_halves_the_repair_bill_on_both_topology_kinds() {
        let mut config = small_config();
        config.detector_thetas = vec![0.5];
        let sweep = run_placement_sweep(&config);
        // per-node + one θ, over a synthetic and a trace-derived topology.
        assert_eq!(sweep.detector_rows.len(), 4, "{:#?}", sweep.detector_rows);
        assert!(
            sweep
                .detector_rows
                .iter()
                .any(|r| r.topology.starts_with("sessions(")),
            "the trace-derived from_sessions topology must be swept"
        );
        for row in &sweep.detector_rows {
            assert!(row.report.group_outages > 0, "outages must fire: {row:?}");
        }
        let per_node = &sweep.detector_rows[0];
        assert_eq!(per_node.report.detector, "per-node");
        assert!(
            per_node.report.wasted_repair_bytes > ByteSize::ZERO,
            "the aggressive timeout must waste traffic: {per_node:?}"
        );
        assert!(
            sweep.outage_aware_beats_per_node(),
            "outage awareness must at least halve repair bytes at equal \
             durability on every topology: {:#?}",
            sweep.detector_rows
        );
    }
}
