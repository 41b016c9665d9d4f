//! `peerstripe-telemetry` — the workspace's shared observability substrate.
//!
//! Every sim-facing crate may depend on this one; it depends only on the
//! vendored serde.  Two pillars:
//!
//! * [`metrics`] — the records an RPC account exports over the wire:
//!   [`CounterExport`]s and fixed-bucket [`HistogramExport`]s in a
//!   [`RegistryExport`].  The ring gateway and each `peerstripe-node` daemon
//!   keep the account itself (`peerstripe-net`'s `RpcAccount`).
//! * [`trace`] — sim-time structured event tracing.  Engines emit typed
//!   [`TraceRecord`]s through a [`Tracer`]; [`NullTracer`] is the zero-cost
//!   default (`enabled()` is `false`, so call sites skip record construction
//!   entirely) and [`JsonlTracer`] renders one JSON line per event.
//!
//! Nothing in this crate touches simulation state: a tracer can be bolted
//! onto any engine without changing its results, and the determinism tests
//! assert exactly that.  The engine's account of a run is its
//! `MaintenanceReport`.

pub mod metrics;
pub mod trace;

pub use metrics::{CounterExport, HistogramExport, RegistryExport};
pub use trace::{
    JsonlTracer, NullTracer, RunManifest, TraceEvent, TraceOutput, TraceRecord, Tracer,
};
