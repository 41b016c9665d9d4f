//! The metrics records that cross the wire: an RPC account's counters and
//! fixed-bucket histograms, keyed by `(name, label set)`.  A
//! `peerstripe-node` daemon carries its export inside its `NodeStats`; the
//! ring gateway hands out its own.

use serde::{Deserialize, Serialize};

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

/// A whole account's snapshot, serializable via the vendored serde.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryExport {
    /// All counters, in `(name, labels)` order.
    pub counters: Vec<CounterExport>,
    /// All histograms, in `(name, labels)` order.
    pub histograms: Vec<HistogramExport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(count: u64, bounds: &[f64], bucket_counts: &[u64]) -> HistogramExport {
        HistogramExport {
            name: "h".into(),
            labels: vec![("op".into(), "ping".into())],
            count,
            sum: 0.0,
            bounds: bounds.to_vec(),
            bucket_counts: bucket_counts.to_vec(),
        }
    }

    #[test]
    fn an_export_round_trips_through_json() {
        let export = RegistryExport {
            counters: vec![CounterExport {
                name: "a_first".into(),
                labels: vec![("kind".into(), "io".into()), ("op".into(), "ping".into())],
                value: 2,
            }],
            histograms: vec![histogram(3, &[1.0, 10.0], &[1, 1, 1])],
        };
        let json = serde_json::to_string(&export).unwrap();
        let back: RegistryExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn histogram_export_quantiles_report_bucket_upper_edges() {
        // 90 observations up to 1, 9 up to 10, 1 up to 100.
        let he = histogram(100, &[1.0, 10.0, 100.0], &[90, 9, 1, 0]);
        assert_eq!(he.quantile(0.5), 1.0);
        assert_eq!(he.quantile(0.99), 10.0);
        assert_eq!(he.quantile(1.0), 100.0);

        let empty = histogram(0, &[1.0], &[0, 0]);
        assert_eq!(empty.quantile(0.99), 0.0);

        // Overflow observations saturate at the last finite edge.
        let overflow = histogram(1, &[1.0], &[0, 1]);
        assert_eq!(overflow.quantile(0.5), 1.0);
    }
}
