//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 6).
//!
//! | Paper artefact | Driver | `repro` sub-command |
//! |---|---|---|
//! | Figure 7 (failed stores)       | [`storesim::run_store_comparison`] | `fig7` |
//! | Figure 8 (failed data)         | [`storesim::run_store_comparison`] | `fig8` |
//! | Figure 9 (utilization)         | [`storesim::run_store_comparison`] | `fig9` |
//! | Table 1 (chunk statistics)     | [`storesim::StoreComparison::table1`] | `table1` |
//! | Figure 10 (availability)       | [`availability::run_availability`] | `fig10` |
//! | Table 2 (erasure-code cost)    | [`coding::run_table2`] (cells through `measure_code`) | `table2` |
//! | RS (n, m) sweep (optimal code) | [`coding::run_rs_sweep`] (cells through `measure_code`) | `rs-sweep` |
//! | Table 3 (churn regeneration)   | [`availability::run_regeneration`] | `table3` |
//! | Continuous churn & repair policies | [`repair_sweep::run_repair_sweep`] | `repair-sweep` |
//! | Grouped churn & placement strategies | [`placement_sweep::run_placement_sweep`] | `placement-sweep` |
//! | Figure 11 (RanSub sweep)       | [`multicast_fig::run_ransub_sweep`] | `fig11` |
//! | Figure 12 (packet spread)      | [`multicast_fig::run_spread`] | `fig12` |
//! | Table 4 (Condor bigCopy)       | [`condor::run_table4`] | `table4` |
//!
//! Every driver is parameterised by [`scale::Scale`]: `small` for tests and
//! CI, `medium` for the default `repro` run, `paper` for the published
//! parameters (10 000 nodes, 1.2 M files).
//!
//! Beyond the paper's figures, [`ring_cmd`] (`repro ring`) drives the same
//! client/placement/erasure stack against a localhost ring of real
//! `peerstripe-node` daemon processes over TCP, and reports the ring's
//! cluster health from a scrape before the kill and one after the repair.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod availability;
pub mod bench_snapshot;
pub mod cli;
pub mod coding;
pub mod condor;
mod deployment;
pub mod multicast_fig;
pub mod placement_sweep;
pub mod repair_sweep;
pub mod report;
pub mod ring_cmd;
pub mod scale;
pub mod storesim;
pub mod trace_cmd;

pub use scale::Scale;
