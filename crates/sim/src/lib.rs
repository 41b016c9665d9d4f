//! Simulation substrate shared by every PeerStripe crate.
//!
//! The paper evaluates the proposed contributory-storage system entirely through
//! simulation (a 10 000-node Pastry simulator driven by a file-system trace) plus a
//! small Condor case study.  This crate provides the building blocks those
//! simulations need and that the rest of the workspace builds on:
//!
//! * [`rng::DetRng`] — a deterministic, forkable random-number generator so every
//!   experiment is exactly reproducible from a single seed.
//! * [`dist`] — the statistical distributions used to synthesise workloads
//!   (normal, truncated normal, uniform, exponential).
//! * [`bytesize::ByteSize`] — saturating byte-size arithmetic with human-readable
//!   formatting, used for every capacity, file size, and transfer amount.
//! * [`event`] — a discrete-event queue with virtual time, used by the repair
//!   subsystem's maintenance engine.
//! * [`rate`] — FIFO bandwidth budgets over virtual time, used by the repair
//!   subsystem to make concurrent regenerations queue and interfere.
//! * [`stats`] — online statistics (Welford), x/y series and formatted tables
//!   used to report the paper's figures and tables.
//!
//! Nothing in this crate knows about storage or overlays; it is a pure substrate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bytesize;
pub mod dist;
pub mod event;
pub mod rate;
pub mod rng;
pub mod stats;

pub use bytesize::ByteSize;
pub use event::{EventQueue, SimTime};
pub use rate::{RateLimiter, Reservation};
pub use rng::DetRng;
pub use stats::{OnlineStats, Series, TableBuilder};
