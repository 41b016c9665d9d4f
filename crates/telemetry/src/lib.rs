//! `peerstripe-telemetry` — the workspace's shared observability substrate.
//!
//! Every sim-facing crate may depend on this one; it depends only on the
//! vendored serde.  Two pillars:
//!
//! * [`metrics`] — a deterministic [`MetricsRegistry`] of counters and
//!   fixed-bucket histograms keyed by `(name, ordered label set)`.  Handles
//!   are plain indices, so hot-path increments are an array write; the key map
//!   is `BTreeMap`-backed so exports are byte-stable across runs.  A
//!   `peerstripe-node` daemon and the ring gateway keep one each.
//! * [`trace`] — sim-time structured event tracing.  Engines emit typed
//!   [`TraceRecord`]s through a [`Tracer`]; [`NullTracer`] is the zero-cost
//!   default (`enabled()` is `false`, so call sites skip record construction
//!   entirely) and [`JsonlTracer`] renders one JSON line per event.
//!
//! Nothing in this crate touches simulation state: a tracer can be bolted
//! onto any engine without changing its results, and the determinism tests
//! assert exactly that.  The engine's account of a run is its
//! `MaintenanceReport`, not a registry.

pub mod metrics;
pub mod trace;

pub use metrics::{
    CounterExport, CounterHandle, HistogramExport, HistogramHandle, MetricsRegistry, RegistryExport,
};
pub use trace::{
    JsonlTracer, NullTracer, RunManifest, TraceEvent, TraceOutput, TraceRecord, Tracer,
};
