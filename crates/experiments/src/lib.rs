//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 6).
//!
//! [`cli::DRIVERS`] is the one list of them: each driver, the paper artefact
//! of each section it renders and the `repro` sub-command that prints it.
//! [`cli::TOOLS`] lists `repro`'s other commands.
//!
//! Every driver is parameterised by [`scale::Scale`]: `small` for tests and
//! CI, `medium` for the default `repro` run, `paper` for the published
//! parameters (10 000 nodes, 1.2 M files).
//!
//! Beyond the paper's figures, [`ring_cmd`] (`repro ring`) drives the same
//! client/placement/erasure stack against a localhost ring of real
//! `peerstripe-node` daemon processes over TCP, and reports each phase's
//! work and the ring's cluster health from a scrape before the kill and one
//! after the repair.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod availability;
pub mod bench_snapshot;
pub mod cli;
mod clock;
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
