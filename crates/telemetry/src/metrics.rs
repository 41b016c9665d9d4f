//! A deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by `(name, ordered label set)`.
//!
//! Registration is the slow path: the key map is a `BTreeMap`, so lookups are
//! `O(log n)` and iteration order — hence JSON export order — is stable across
//! runs and platforms.  The hot path never touches the map: registration
//! returns a copyable handle that indexes straight into a slot vector, so an
//! increment is a bounds-checked array write.  Handles from one registry used
//! against another (or against the wrong metric kind) are silently ignored
//! rather than panicking — the engine must never die for its instruments.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle to a registered counter; an index, cheap to copy and store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// A fixed-bucket histogram: `bounds` are inclusive upper edges, plus an
/// implicit overflow bucket, so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges (must be
    /// sorted ascending; an unsorted slice still counts totals correctly but
    /// buckets observations at the first edge that fits).
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.count += 1;
        self.sum += value;
    }

    /// Fold `other` into `self`.  Fails (leaving `self` untouched) when the
    /// bucket edges differ — merging histograms of different shapes would
    /// silently misbucket.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bucket edges differ: {:?} vs {:?}",
                self.bounds, other.bounds
            ));
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Metric kinds share one namespace map; the discriminant keeps a counter and
/// a gauge of the same name from colliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
    kind: Kind,
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// The registry: `BTreeMap` for deterministic registration/export order, a
/// slot vector for handle-indexed hot-path updates.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<MetricKey, usize>,
    slots: Vec<(MetricKey, Slot)>,
}

/// Canonicalise a label set: sorted by key, so `[("a","1"),("b","2")]` and
/// `[("b","2"),("a","1")]` name the same metric.
fn canon_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, key: MetricKey, slot: Slot) -> usize {
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = self.slots.len();
        self.index.insert(key.clone(), idx);
        self.slots.push((key, slot));
        idx
    }

    /// Get or create the counter `(name, labels)`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Counter,
        };
        CounterHandle(self.register(key, Slot::Counter(0)))
    }

    /// Get or create the gauge `(name, labels)`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Gauge,
        };
        GaugeHandle(self.register(key, Slot::Gauge(0.0)))
    }

    /// Get or create the histogram `(name, labels)` with the given bucket
    /// edges (ignored if the histogram already exists).
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Histogram,
        };
        HistogramHandle(self.register(key, Slot::Histogram(Histogram::new(bounds))))
    }

    /// Add `by` to a counter.
    pub fn inc(&mut self, handle: CounterHandle, by: u64) {
        if let Some((_, Slot::Counter(v))) = self.slots.get_mut(handle.0) {
            *v += by;
        }
    }

    /// Set a gauge.
    pub fn set(&mut self, handle: GaugeHandle, value: f64) {
        if let Some((_, Slot::Gauge(v))) = self.slots.get_mut(handle.0) {
            *v = value;
        }
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, handle: HistogramHandle, value: f64) {
        if let Some((_, Slot::Histogram(h))) = self.slots.get_mut(handle.0) {
            h.observe(value);
        }
    }

    /// Current value of a counter (0 for a foreign handle).
    pub fn counter_value(&self, handle: CounterHandle) -> u64 {
        match self.slots.get(handle.0) {
            Some((_, Slot::Counter(v))) => *v,
            _ => 0,
        }
    }

    /// Current value of a gauge (0 for a foreign handle).
    pub fn gauge_value(&self, handle: GaugeHandle) -> f64 {
        match self.slots.get(handle.0) {
            Some((_, Slot::Gauge(v))) => *v,
            _ => 0.0,
        }
    }

    /// The histogram behind a handle, if any.
    pub fn histogram_value(&self, handle: HistogramHandle) -> Option<&Histogram> {
        match self.slots.get(handle.0) {
            Some((_, Slot::Histogram(h))) => Some(h),
            _ => None,
        }
    }

    /// Look a counter up by name/labels without registering it.
    pub fn find_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Counter,
        };
        match self.index.get(&key).and_then(|&i| self.slots.get(i)) {
            Some((_, Slot::Counter(v))) => Some(*v),
            _ => None,
        }
    }

    /// Look a gauge up by name/labels without registering it.
    pub fn find_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Gauge,
        };
        match self.index.get(&key).and_then(|&i| self.slots.get(i)) {
            Some((_, Slot::Gauge(v))) => Some(*v),
            _ => None,
        }
    }

    /// Look a histogram up by name/labels without registering it.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        let key = MetricKey {
            name: name.to_string(),
            labels: canon_labels(labels),
            kind: Kind::Histogram,
        };
        match self.index.get(&key).and_then(|&i| self.slots.get(i)) {
            Some((_, Slot::Histogram(h))) => Some(h),
            _ => None,
        }
    }

    /// Registered metrics of all kinds.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Snapshot the registry into serializable export records, in key order.
    pub fn export(&self) -> RegistryExport {
        let mut export = RegistryExport::default();
        for (key, &idx) in &self.index {
            let Some((_, slot)) = self.slots.get(idx) else {
                continue;
            };
            let labels = key.labels.clone();
            match slot {
                Slot::Counter(v) => export.counters.push(CounterExport {
                    name: key.name.clone(),
                    labels,
                    value: *v,
                }),
                Slot::Gauge(v) => export.gauges.push(GaugeExport {
                    name: key.name.clone(),
                    labels,
                    value: *v,
                }),
                Slot::Histogram(h) => export.histograms.push(HistogramExport {
                    name: key.name.clone(),
                    labels,
                    count: h.count,
                    sum: h.sum,
                    bounds: h.bounds.clone(),
                    bucket_counts: h.counts.clone(),
                }),
            }
        }
        export
    }

    /// The export as one line of deterministic JSON.
    pub fn render_json(&self) -> String {
        serde_json::to_string(&self.export()).unwrap_or_default()
    }
}

/// Exported counter state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterExport {
    /// Metric name.
    pub name: String,
    /// Canonicalised (sorted) label set.
    pub labels: Vec<(String, String)>,
    /// Accumulated count.
    pub value: u64,
}

/// Exported gauge state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeExport {
    /// Metric name.
    pub name: String,
    /// Canonicalised (sorted) label set.
    pub labels: Vec<(String, String)>,
    /// Last set value.
    pub value: f64,
}

/// Exported histogram state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramExport {
    /// Metric name.
    pub name: String,
    /// Canonicalised (sorted) label set.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Inclusive upper bucket edges.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the last entry is the overflow bucket.
    pub bucket_counts: Vec<u64>,
}

impl HistogramExport {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts: the
    /// inclusive upper edge of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`.  Observations in the overflow bucket report the last
    /// finite edge (the estimate saturates rather than inventing a value).
    /// Returns 0 for an empty histogram.  Upper-edge reporting is coarse but
    /// deterministic — exactly what a reproducible health report needs.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.bucket_counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = self.bounds.get(i).or_else(|| self.bounds.last());
                return edge.copied().unwrap_or(0.0);
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// A whole-registry snapshot, serializable via the vendored serde.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryExport {
    /// All counters, in `(name, labels)` order.
    pub counters: Vec<CounterExport>,
    /// All gauges, in `(name, labels)` order.
    pub gauges: Vec<GaugeExport>,
    /// All histograms, in `(name, labels)` order.
    pub histograms: Vec<HistogramExport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip_through_handles() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("events_total", &[("kind", "depart")]);
        let g = reg.gauge("files_unavailable", &[]);
        reg.inc(c, 3);
        reg.inc(c, 2);
        reg.set(g, 7.0);
        assert_eq!(reg.counter_value(c), 5);
        assert_eq!(reg.gauge_value(g), 7.0);
        // Re-registration returns the same slot.
        let c2 = reg.counter("events_total", &[("kind", "depart")]);
        assert_eq!(c, c2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
        reg.inc(a, 1);
        assert_eq!(reg.find_counter("m", &[("b", "2"), ("a", "1")]), Some(1));
    }

    #[test]
    fn kinds_do_not_collide_and_foreign_handles_are_ignored() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("x", &[]);
        let g = reg.gauge("x", &[]);
        reg.inc(c, 1);
        reg.set(g, 2.0);
        assert_eq!(reg.counter_value(c), 1);
        assert_eq!(reg.gauge_value(g), 2.0);

        let mut other = MetricsRegistry::new();
        let h = other.histogram("h", &[], &[1.0]);
        // `h` indexes slot 0 of `other`; in `reg` slot 0 is a counter.
        reg.observe(h, 5.0);
        assert_eq!(reg.counter_value(c), 1, "wrong-kind write is a no-op");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // inclusive upper edge
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-9);
        assert!((h.mean() - 26.625).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_requires_matching_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        assert!(a.merge(&b).is_ok());
        assert_eq!(a.count(), 2);
        assert_eq!(a.bucket_counts(), &[1, 1, 0]);
        let c = Histogram::new(&[1.0]);
        assert!(a.merge(&c).is_err());
        assert_eq!(a.count(), 2, "failed merge leaves self untouched");
    }

    #[test]
    fn export_is_deterministic_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        // Register in one order...
        let z = reg.counter("z_last", &[]);
        let a = reg.counter("a_first", &[]);
        reg.inc(z, 1);
        reg.inc(a, 2);
        let json = reg.render_json();
        // ...export comes out in key order regardless.
        assert!(json.find("a_first").unwrap() < json.find("z_last").unwrap());

        let back: RegistryExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, reg.export());
    }

    #[test]
    fn histogram_export_quantiles_report_bucket_upper_edges() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(5.0);
        }
        h.observe(50.0);
        let he = HistogramExport {
            name: "h".into(),
            labels: vec![],
            count: h.count(),
            sum: h.sum(),
            bounds: h.bounds().to_vec(),
            bucket_counts: h.bucket_counts().to_vec(),
        };
        assert_eq!(he.quantile(0.5), 1.0);
        assert_eq!(he.quantile(0.99), 10.0);
        assert_eq!(he.quantile(1.0), 100.0);

        let empty = HistogramExport {
            name: "e".into(),
            labels: vec![],
            count: 0,
            sum: 0.0,
            bounds: vec![1.0],
            bucket_counts: vec![0, 0],
        };
        assert_eq!(empty.quantile(0.99), 0.0);

        // Overflow observations saturate at the last finite edge.
        let overflow = HistogramExport {
            name: "o".into(),
            labels: vec![],
            count: 1,
            sum: 500.0,
            bounds: vec![1.0],
            bucket_counts: vec![0, 1],
        };
        assert_eq!(overflow.quantile(0.5), 1.0);
    }
}
