//! Desktop-grid (Condor) integration case study.
//!
//! The paper's Section 6.4 interfaces the proposed storage system with Condor
//! through an LD_PRELOAD I/O interposition library and measures a `bigCopy` job
//! over a 32-machine pool (Table 4).  This crate simulates that setting:
//!
//! * [`network::NetworkModel`] — bulk-transfer, per-lookup and interposition
//!   cost model for the 100 Mb/s pool;
//! * [`pool`] — the Condor-like pool ([`pool::PoolConfig`]), which builds the
//!   workers' contributed storage;
//! * [`bigcopy`] — the `bigCopy` application and the Table 4 driver comparing
//!   whole-file, fixed-chunk, and varying-chunk back-ends.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bigcopy;
pub mod network;
pub mod pool;

pub use bigcopy::{run_bigcopy, table4, table4_sizes, BigCopyResult, BigCopyScheme, Table4Row};
pub use network::NetworkModel;
pub use pool::PoolConfig;
