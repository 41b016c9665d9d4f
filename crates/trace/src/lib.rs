//! Workload synthesis: file traces and contributed-capacity distributions.
//!
//! The paper drives its 10 000-node simulations with (a) a large-file trace
//! (1.2 M files ≥ 50 MB, mean 243 MB, σ 55 MB) and (b) node capacities drawn
//! from N(45 GB, 10 GB); the Condor case study uses a 32-node pool contributing
//! Uniform(2 GB, 15 GB) each.  Only the aggregate statistics of the original
//! trace are published, so this crate synthesises workloads with matching
//! statistics.
//!
//! * [`filetrace`] — [`TraceConfig`]/[`Trace`] generation and statistics;
//! * [`capacity`] — [`CapacityModel`] for per-node contributed storage;
//! * [`sessions`] — [`SessionTrace`] synthetic session/downtime durations,
//!   from which `Topology::from_sessions` derives failure domains.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod filetrace;
pub mod sessions;

pub use capacity::{total_capacity, CapacityModel};
pub use filetrace::{FileRecord, Trace, TraceConfig};
pub use sessions::SessionTrace;
