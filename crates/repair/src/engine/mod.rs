//! The continuous-time maintenance engine.
//!
//! Drives a stored deployment through churn on the shared
//! [`peerstripe_sim::EventQueue`]: nodes depart and return on sampled
//! session/downtime lengths, the [`crate::Detector`] turns
//! long absences into permanent-death declarations (or holds them while a
//! failure domain looks like it suffered an outage), and the
//! [`crate::RepairScheduler`] regenerates the declared-lost blocks under
//! per-node bandwidth budgets, placing them through the overlay placement
//! path.  Availability (live blocks above the decode threshold) and
//! durability (registered blocks above it) are tracked incrementally per
//! event, so a 10 000-node run costs O(blocks touched) per event rather than
//! a scan per sample.
//!
//! The engine is split along its three concerns:
//!
//! * [`core`](self) — the [`MaintenanceEngine`] itself: construction, the
//!   run loop, repair triggering, and the summary [`MaintenanceReport`];
//! * `events` — the [`MaintenanceEvent`] alphabet and the per-event handlers
//!   (departures, returns, group outages, declaration verdicts, repair
//!   completions);
//! * `accounting` — the incremental availability bookkeeping, the
//!   wasted-repair attribution ledger, and the full-recomputation consistency
//!   check the property tests lean on.

mod accounting;
mod core;
mod events;

pub use self::core::{MaintenanceEngine, MaintenanceReport};
pub use events::MaintenanceEvent;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        BandwidthBudget, ChurnProcess, DetectorConfig, RepairConfig, RepairPolicy, SessionModel,
    };
    use crate::detection::{DetectionKind, OutageAwareConfig};
    use peerstripe_core::{
        ClusterConfig, CodingPolicy, DamageLedger, PeerStripe, PeerStripeConfig, StorageSystem,
    };
    use peerstripe_sim::{ByteSize, DetRng, SimTime};
    use peerstripe_trace::{CapacityModel, FileRecord};

    fn loaded(nodes: usize, files: usize, seed: u64) -> PeerStripe {
        let mut rng = DetRng::new(seed);
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
        for i in 0..files {
            assert!(ps
                .store_file(&FileRecord::new(format!("file-{i}"), ByteSize::mb(200)))
                .is_stored());
        }
        ps
    }

    #[test]
    fn an_event_is_four_words() {
        // The variable-length payloads are boxed slices, so a pending event
        // costs the queue one 16-byte key plus one slab slot of four words.
        assert_eq!(std::mem::size_of::<MaintenanceEvent>(), 32);
        assert_eq!(std::mem::size_of::<Option<MaintenanceEvent>>(), 32);
    }

    fn config(policy: RepairPolicy, timeout_secs: f64) -> RepairConfig {
        RepairConfig {
            policy,
            detector: DetectorConfig {
                probe_period_secs: 60.0,
                detection_lag_secs: 10.0,
                permanence_timeout_secs: timeout_secs,
            },
            detection: DetectionKind::PerNodeTimeout,
            bandwidth: BandwidthBudget::symmetric(ByteSize::mb(8)),
            sample_period_secs: 1_800.0,
        }
    }

    fn churn(permanent_fraction: f64) -> ChurnProcess {
        ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 4.0 * 3_600.0,
                mean_downtime_secs: 2.0 * 3_600.0,
            },
            permanent_fraction,
            grouped: None,
        }
    }

    fn engine(policy: RepairPolicy, permanent_fraction: f64, seed: u64) -> MaintenanceEngine {
        let ps = loaded(80, 60, seed);
        let manifests = ps.manifests().clone();
        MaintenanceEngine::new(
            ps.into_cluster(),
            &manifests,
            churn(permanent_fraction),
            // Permanence timeout well past the 2 h mean downtime, as a sanely
            // operated deployment would set it.
            config(policy, 12.0 * 3_600.0),
            seed,
        )
    }

    #[test]
    fn pure_transient_churn_loses_nothing_without_declarations() {
        // Permanence timeout far beyond every downtime and no permanent
        // departures: the engine must ride out the churn with zero loss and
        // zero repair traffic.
        let ps = loaded(60, 40, 5);
        let manifests = ps.manifests().clone();
        let mut engine = MaintenanceEngine::new(
            ps.into_cluster(),
            &manifests,
            churn(0.0),
            config(RepairPolicy::Eager, 1e9),
            5,
        );
        engine.run_for(SimTime::from_secs(48 * 3_600));
        let report = engine.report();
        assert!(report.events > 100, "churn must actually happen");
        assert_eq!(report.files_lost, 0);
        assert_eq!(report.repair_bytes, ByteSize::ZERO);
        assert_eq!(report.permanent_failures, 0);
        assert!(report.transient_departures > 0);
        assert!(report.availability_mean_pct <= 100.0);
        assert!(report.availability_min_pct >= 0.0);
    }

    #[test]
    fn permanent_failures_trigger_bandwidth_charged_repairs() {
        let mut engine = engine(RepairPolicy::Eager, 0.05, 7);
        engine.run_for(SimTime::from_secs(48 * 3_600));
        let report = engine.report();
        assert!(report.permanent_failures > 0);
        assert!(
            report.blocks_regenerated > 0,
            "declared losses must be repaired: {report:?}"
        );
        assert!(report.repair_bytes > ByteSize::ZERO);
        assert!(report.repair_per_useful_byte > 0.0);
        // Eager repair keeps durability high under moderate permanent churn.
        assert!(
            report.files_lost < report.files_total / 2,
            "repair must save most files: {report:?}"
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let mut a = engine(RepairPolicy::Lazy { margin: 1 }, 0.05, 11);
        let mut b = engine(RepairPolicy::Lazy { margin: 1 }, 0.05, 11);
        a.run_for(SimTime::from_secs(24 * 3_600));
        b.run_for(SimTime::from_secs(24 * 3_600));
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.events, rb.events);
        assert_eq!(ra.repair_bytes, rb.repair_bytes);
        assert_eq!(ra.files_lost, rb.files_lost);
        assert_eq!(ra.false_declarations, rb.false_declarations);
        assert_eq!(ra.transient_departures, rb.transient_departures);
    }

    #[test]
    fn aggressive_timeouts_cause_false_declarations() {
        // A 5-minute permanence timeout against multi-hour downtimes: nearly
        // every transient departure is falsely declared dead.
        let ps = loaded(60, 40, 13);
        let manifests = ps.manifests().clone();
        let mut engine = MaintenanceEngine::new(
            ps.into_cluster(),
            &manifests,
            churn(0.0),
            config(RepairPolicy::Eager, 300.0),
            13,
        );
        engine.run_for(SimTime::from_secs(48 * 3_600));
        let report = engine.report();
        assert!(
            report.false_declarations > 0,
            "short timeout must misfire: {report:?}"
        );
        assert!(
            report.repair_bytes > ByteSize::ZERO,
            "false declarations cost repair traffic"
        );
        assert!(
            report.wasted_repair_bytes > ByteSize::ZERO,
            "repairs for nodes that returned are accounted wasted: {report:?}"
        );
        assert!(report.wasted_repair_bytes <= report.repair_bytes);
    }

    #[test]
    fn group_outages_take_whole_domains_down_and_bring_them_back() {
        use peerstripe_placement::Topology;
        // Individual sessions so long they never expire inside the run: every
        // departure in this simulation is a group outage.
        let ps = loaded(60, 40, 21);
        let manifests = ps.manifests().clone();
        let topology = Topology::uniform_groups(60, 10);
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 1e12,
                mean_downtime_secs: 3_600.0,
            },
            permanent_fraction: 0.0,
            grouped: Some(crate::GroupedChurn::new(topology.clone(), 8.0, 3.0)),
        };
        let mut engine = MaintenanceEngine::new(
            ps.into_cluster(),
            &manifests,
            churn,
            // Timeout far beyond every outage: nothing is ever declared dead.
            config(RepairPolicy::Eager, 1e9),
            21,
        );
        engine.run_for(SimTime::from_secs(72 * 3_600));
        let report = engine.report();
        assert!(report.group_outages > 0, "outages must fire: {report:?}");
        assert!(report.group_departures > 0);
        assert_eq!(report.transient_departures, 0, "sessions never expire");
        assert_eq!(report.permanent_failures, 0);
        assert_eq!(report.files_lost, 0, "outages are transient");
        assert_eq!(report.repair_bytes, ByteSize::ZERO, "nothing declared dead");
        assert!(
            report.availability_min_pct < 100.0,
            "outages hurt availability"
        );
        assert!(engine.accounting_is_consistent());
        // Every down node sits in a domain currently in outage: group events
        // touch exactly their members.
        for node in 0..60 {
            if !engine.cluster().overlay().is_alive(node) {
                let domain = topology.domain_of(node).unwrap();
                assert!(
                    engine.group_outage_active(domain),
                    "node {node} is down outside an outage of its domain"
                );
            }
        }
    }

    #[test]
    fn aggressive_timeouts_turn_group_outages_into_declaration_waves() {
        use peerstripe_placement::Topology;
        let ps = loaded(60, 40, 23);
        let manifests = ps.manifests().clone();
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 1e12,
                mean_downtime_secs: 3_600.0,
            },
            permanent_fraction: 0.0,
            // 12 h outages against a 2 h permanence timeout: every outage
            // writes the whole domain off and triggers a regeneration wave.
            grouped: Some(crate::GroupedChurn::new(
                Topology::uniform_groups(60, 10),
                24.0,
                12.0,
            )),
        };
        let mut engine = MaintenanceEngine::new(
            ps.into_cluster(),
            &manifests,
            churn,
            config(RepairPolicy::Eager, 2.0 * 3_600.0),
            23,
        );
        engine.run_for(SimTime::from_secs(72 * 3_600));
        let report = engine.report();
        assert!(report.group_outages > 0);
        assert!(
            report.false_declarations > 0,
            "returning domains were written off: {report:?}"
        );
        assert!(report.repair_bytes > ByteSize::ZERO);
        assert!(
            report.wasted_repair_bytes > ByteSize::ZERO,
            "thrown-away regeneration waves must be measured: {report:?}"
        );
        assert!(engine.accounting_is_consistent());
    }

    #[test]
    fn outage_aware_detection_rides_out_declaration_waves() {
        use peerstripe_placement::Topology;
        // The exact scenario of the previous test, but with the outage-aware
        // policy: every declaration of a downed domain is held, the domain
        // returns before the hold cap, and no repair traffic is ever spent.
        let build = |detection: DetectionKind| {
            let ps = loaded(60, 40, 23);
            let manifests = ps.manifests().clone();
            let churn = ChurnProcess {
                sessions: SessionModel::Synthetic {
                    mean_session_secs: 1e12,
                    mean_downtime_secs: 3_600.0,
                },
                permanent_fraction: 0.0,
                grouped: Some(crate::GroupedChurn::new(
                    Topology::uniform_groups(60, 10),
                    24.0,
                    12.0,
                )),
            };
            MaintenanceEngine::new(
                ps.into_cluster(),
                &manifests,
                churn,
                RepairConfig {
                    detection,
                    ..config(RepairPolicy::Eager, 2.0 * 3_600.0)
                },
                23,
            )
        };
        let mut aware = build(DetectionKind::OutageAware(OutageAwareConfig {
            // Hold cap beyond any outage this run draws: holds always cancel.
            hold_cap_secs: 1e9,
            ..OutageAwareConfig::default_desktop_grid()
        }));
        aware.run_for(SimTime::from_secs(72 * 3_600));
        let report = aware.report();
        assert!(report.group_outages > 0);
        assert!(
            report.declarations_held > 0,
            "outages must be classified and held: {report:?}"
        );
        assert!(
            report.held_cancelled > 0,
            "returning domains must cancel their holds: {report:?}"
        );
        assert_eq!(report.false_declarations, 0, "nothing is written off");
        assert_eq!(report.repair_bytes, ByteSize::ZERO, "no wave, no traffic");
        assert_eq!(report.wasted_repair_bytes, ByteSize::ZERO);
        assert_eq!(report.files_lost, 0);
        assert!(aware.accounting_is_consistent());

        // And the per-node policy on the identical run wastes real traffic.
        let mut naive = build(DetectionKind::PerNodeTimeout);
        naive.run_for(SimTime::from_secs(72 * 3_600));
        let naive_report = naive.report();
        assert!(naive_report.repair_bytes > ByteSize::ZERO);
        assert!(naive_report.false_declarations > 0);
    }

    #[test]
    fn outage_aware_still_declares_permanent_mass_departures() {
        use crate::detection::{DeclarationVerdict, Detector};
        use peerstripe_placement::Topology;
        // A whole domain departs permanently (decommissioned, not rebooted):
        // the hold cap must eventually release the declarations so the data
        // is regenerated.  Driven at the detector level for precision, and at
        // the engine level by the property tests.
        let mut detector = Detector::new(
            20,
            DetectorConfig {
                probe_period_secs: 300.0,
                detection_lag_secs: 30.0,
                permanence_timeout_secs: 4.0 * 3_600.0,
            },
            DetectionKind::OutageAware(OutageAwareConfig {
                domain_absence_threshold: 0.5,
                outage_window_secs: 600.0,
                hold_period_secs: 3_600.0,
                hold_cap_secs: 12.0 * 3_600.0,
            }),
            Some(Topology::uniform_groups(20, 10)),
        );
        let down_at = SimTime::from_secs(1_000);
        let pendings: Vec<_> = (0..10)
            .map(|n| (n, detector.node_down(n, down_at)))
            .collect();
        let deadline = down_at + SimTime::from_secs((4 + 12) * 3_600);
        for (node, p) in pendings {
            let mut now = p.declare_at;
            loop {
                match detector.decide(node, p.generation, now) {
                    DeclarationVerdict::Hold { until } => now = until,
                    DeclarationVerdict::Declare => break,
                    DeclarationVerdict::Cancel => {
                        panic!("node {node}: nothing returned")
                    }
                }
            }
            assert!(
                now <= deadline,
                "node {node} declared at {now:?}, after the cap {deadline:?}"
            );
        }
    }

    #[test]
    fn grouped_runs_are_deterministic_and_stack_with_individual_churn() {
        use peerstripe_placement::{ClusterView, DomainSpread, Topology};
        let build = || {
            let ps = loaded(80, 60, 29);
            let manifests = ps.manifests().clone();
            let topology = Topology::uniform_groups(80, 8);
            let churn = ChurnProcess {
                sessions: SessionModel::Synthetic {
                    mean_session_secs: 6.0 * 3_600.0,
                    mean_downtime_secs: 2.0 * 3_600.0,
                },
                permanent_fraction: 0.02,
                grouped: Some(crate::GroupedChurn::new(topology.clone(), 16.0, 6.0)),
            };
            MaintenanceEngine::new(
                ps.into_cluster(),
                &manifests,
                churn,
                config(RepairPolicy::Eager, 12.0 * 3_600.0),
                29,
            )
            .with_placement(Box::new(DomainSpread::new()), None)
        };
        let mut a = build();
        let mut b = build();
        a.run_for(SimTime::from_secs(48 * 3_600));
        b.run_for(SimTime::from_secs(48 * 3_600));
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.events, rb.events);
        assert_eq!(ra.repair_bytes, rb.repair_bytes);
        assert_eq!(ra.group_outages, rb.group_outages);
        assert_eq!(ra.files_lost, rb.files_lost);
        // Both churn processes actually ran.
        assert!(ra.transient_departures > 0);
        assert!(ra.group_departures > 0);
        assert!(
            a.cluster().domain_index().is_some(),
            "grouped topology auto-wires placement"
        );
        assert!(a.accounting_is_consistent());
    }

    #[test]
    fn the_cluster_index_survives_grouped_churn() {
        use peerstripe_placement::{ClusterView, DomainSpread, Topology};
        // The `sim_churn_10k` benchmark cell at its smoke scale: domain-spread
        // placement of 8-of-4 online-coded chunks, 48 h between a domain's
        // outages, 12 h outages, a 4 h permanence timeout.
        let nodes = 1_000;
        let topology = Topology::uniform_groups(nodes, 100);
        let cluster = ClusterConfig::scaled(nodes).build(&mut DetRng::new(42));
        let coding = CodingPolicy::Online {
            placed: 8,
            tolerable: 4,
            overhead: 1.03,
        };
        let mut ps = PeerStripe::with_placement(
            cluster,
            PeerStripeConfig::default().with_coding(coding),
            Box::new(DomainSpread::new()),
            Some(topology.clone()),
        );
        for i in 0..200 {
            let _ = ps.store_file(&FileRecord::new(format!("file-{i}"), ByteSize::gb(2)));
        }
        assert!(ps.cluster().index_is_consistent(), "after the deployment");
        let manifests = ps.manifests().clone();
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 24.0 * 3_600.0,
                mean_downtime_secs: 2.0 * 3_600.0,
            },
            permanent_fraction: 0.002,
            grouped: Some(crate::GroupedChurn::new(topology.clone(), 48.0, 12.0)),
        };
        let mut cfg = config(RepairPolicy::Eager, 4.0 * 3_600.0);
        cfg.bandwidth = BandwidthBudget::symmetric(ByteSize::mb(4));
        let mut engine = MaintenanceEngine::new(ps.into_cluster(), &manifests, churn, cfg, 42)
            .with_placement(Box::new(DomainSpread::new()), Some(topology.clone()));
        engine.run_for(SimTime::from_secs(6 * 3_600));
        let report = engine.report();
        assert!(report.group_outages > 0 && report.blocks_regenerated > 0);
        let cluster = engine.cluster();
        assert!(
            cluster
                .domain_index()
                .is_some_and(|ix| ix.serves(&topology)),
            "repair targets came from the index"
        );
        assert!(cluster.index_is_consistent(), "after the churn");
    }

    /// Slow pipes, quick declarations and fourteen nodes for six-block
    /// chunks: a second declaration routinely hits a chunk while its first
    /// rebuild is still in flight, and there are few nodes to put a block on.
    fn crowded(policy: RepairPolicy, seed: u64) -> (MaintenanceEngine, DamageLedger) {
        let ps = loaded(14, 12, seed);
        let manifests = ps.manifests().clone();
        let mut config = config(policy, 1_800.0);
        config.bandwidth = BandwidthBudget::symmetric(ByteSize::kb(64));
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 6.0 * 3_600.0,
                mean_downtime_secs: 3_600.0,
            },
            permanent_fraction: 0.0,
            grouped: None,
        };
        let engine = MaintenanceEngine::new(ps.into_cluster(), &manifests, churn, config, seed);
        (engine, DamageLedger::build(&manifests))
    }

    #[test]
    fn overlapping_rebuilds_of_a_chunk_never_share_a_node() {
        // Before the planner excluded promised targets and its commit asked
        // whether the target holds a block, this run registered rebuilt
        // blocks beside each other and beside registered ones.
        for policy in [RepairPolicy::Eager, RepairPolicy::Lazy { margin: 1 }] {
            let mut rebuilt = 0;
            for seed in [3, 4, 5] {
                let (mut engine, stored) = crowded(policy, seed);
                engine.run_for(SimTime::from_secs(72 * 3_600));
                let report = engine.report();
                rebuilt += report.blocks_regenerated;
                assert!(report.false_declarations > 0, "{report:?}");
                assert_eq!(
                    engine.ledger().collocated_since(&stored),
                    0,
                    "{} seed {seed}: a rebuilt block landed beside another block of its chunk",
                    policy.label()
                );
                assert!(engine.accounting_is_consistent());
            }
            assert!(rebuilt > 50, "{}: only {rebuilt} blocks", policy.label());
        }
    }

    #[test]
    fn run_for_composes() {
        let mut a = engine(RepairPolicy::Eager, 0.05, 17);
        let mut b = engine(RepairPolicy::Eager, 0.05, 17);
        a.run_for(SimTime::from_secs(36 * 3_600));
        b.run_for(SimTime::from_secs(12 * 3_600));
        b.run_for(SimTime::from_secs(24 * 3_600));
        assert_eq!(a.report().events, b.report().events);
        assert_eq!(a.report().repair_bytes, b.report().repair_bytes);
    }
}
