//! `peerstripe-telemetry` — the workspace's shared observability substrate.
//!
//! Every sim-facing crate may depend on this one; it depends only on the
//! vendored serde.  Two pillars:
//!
//! * [`metrics`] — a deterministic [`MetricsRegistry`] of counters, gauges and
//!   fixed-bucket histograms keyed by `(name, ordered label set)`.  Handles
//!   are plain indices, so hot-path increments are an array write; the key map
//!   is `BTreeMap`-backed so JSON exports are byte-stable across runs.
//! * [`trace`] — sim-time structured event tracing.  Engines emit typed
//!   [`TraceRecord`]s through a [`Tracer`]; [`NullTracer`] is the zero-cost
//!   default (`enabled()` is `false`, so call sites skip record construction
//!   entirely) and [`JsonlTracer`] renders one JSON line per event.
//!
//! Nothing in this crate touches simulation state: a registry or tracer can
//! be bolted onto any engine without changing its results, and the
//! determinism tests assert exactly that.

pub mod metrics;
pub mod trace;

pub use metrics::{
    CounterExport, CounterHandle, GaugeHandle, Histogram, HistogramExport, HistogramHandle,
    MetricsRegistry, RegistryExport,
};
pub use trace::{
    JsonlTracer, NullTracer, RunManifest, TraceEvent, TraceOutput, TraceRecord, Tracer,
};
