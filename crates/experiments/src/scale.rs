//! Experiment scales.
//!
//! The paper's simulations use 10 000 nodes and a 1.2 M-file trace.  Running at
//! that scale takes minutes and a few gigabytes of memory, which is fine for the
//! `repro` binary but not for `cargo test` or CI.  [`Scale`] selects a
//! consistent set of population sizes: the capacity and file-size distributions
//! are identical at every scale, and the ratio of offered data to total capacity
//! (the quantity that drives the failure and utilization curves) is preserved,
//! so the qualitative shape of every figure is scale-invariant.

/// Predefined experiment scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for unit tests and CI (hundreds of nodes).
    Small,
    /// Medium runs for the default `repro` invocation (a thousand nodes).
    Medium,
    /// The paper's published parameters (10 000 nodes, 1.2 M files).
    Paper,
}

impl Scale {
    /// Parse a command-line scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Number of overlay nodes.
    pub fn nodes(&self) -> usize {
        match self {
            Scale::Small => 250,
            Scale::Medium => 1_000,
            Scale::Paper => 10_000,
        }
    }

    /// Number of files inserted in the store experiments (Figures 7–9, Table 1).
    ///
    /// The paper inserts 1.2 M files into 10 000 nodes — 120 files per node,
    /// which corresponds to an offered load of ~64 % of the total capacity;
    /// the smaller scales keep the same per-node ratio.
    pub fn trace_files(&self) -> usize {
        self.nodes() * 120
    }

    /// Number of files stored before the churn experiments (Figure 10, Table 3).
    ///
    /// Availability experiments track per-block placement, so they use a lighter
    /// load (about a quarter of the store-experiment load) to bound memory while
    /// still distributing files over every node.
    pub fn churn_files(&self) -> usize {
        self.nodes() * 30
    }

    /// Number of nodes failed one-by-one in the Figure 10 sweep (10 % of nodes,
    /// matching the paper's 1 000 failures out of 10 000 nodes).
    pub fn availability_failures(&self) -> usize {
        self.nodes() / 10
    }

    /// Number of measurement points sampled along an insertion sweep.
    pub fn sample_points(&self) -> usize {
        match self {
            Scale::Small => 12,
            Scale::Medium => 24,
            Scale::Paper => 60,
        }
    }

    /// Packets per chunk in the multicast experiments (the paper uses 1 000).
    pub fn multicast_packets(&self) -> usize {
        match self {
            Scale::Small => 250,
            Scale::Medium => 500,
            Scale::Paper => 1_000,
        }
    }

    /// Chunk size for the erasure-code measurements of Table 2.
    pub fn erasure_chunk(&self) -> peerstripe_sim::ByteSize {
        match self {
            Scale::Small => peerstripe_sim::ByteSize::kb(256),
            Scale::Medium => peerstripe_sim::ByteSize::mb(1),
            Scale::Paper => peerstripe_sim::ByteSize::mb(4),
        }
    }

    /// Number of source blocks per chunk for Table 2 (the paper uses 4 096).
    pub fn erasure_blocks(&self) -> usize {
        match self {
            Scale::Small => 512,
            Scale::Medium => 1_024,
            Scale::Paper => 4_096,
        }
    }

    /// Number of repetitions for timing measurements (the paper averages 10 runs).
    pub fn timing_runs(&self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Medium => 5,
            Scale::Paper => 10,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Small => write!(f, "small"),
            Scale::Medium => write!(f, "medium"),
            Scale::Paper => write!(f, "paper"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [Scale::Small, Scale::Medium, Scale::Paper] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("FULL"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn paper_scale_matches_published_parameters() {
        assert_eq!(Scale::Paper.nodes(), 10_000);
        assert_eq!(Scale::Paper.trace_files(), 1_200_000);
        assert_eq!(Scale::Paper.availability_failures(), 1_000);
        assert_eq!(Scale::Paper.erasure_blocks(), 4_096);
        assert_eq!(Scale::Paper.multicast_packets(), 1_000);
        assert_eq!(Scale::Paper.timing_runs(), 10);
    }

    #[test]
    fn offered_load_ratio_is_scale_invariant() {
        // files/node identical at every scale.
        let ratio = |s: Scale| s.trace_files() as f64 / s.nodes() as f64;
        assert_eq!(ratio(Scale::Small), ratio(Scale::Paper));
        assert_eq!(ratio(Scale::Medium), ratio(Scale::Paper));
    }
}
