//! Synthetic large-file traces.
//!
//! The paper drives its simulations with a file-system trace collected from
//! video-hosting sites, Linux mirrors, and departmental servers, filtered to
//! files of at least 50 MB: about 1.2 million files with a mean size of 243 MB
//! and a standard deviation of 55 MB, 278.7 TB in total (Section 6.1).  Since
//! only those aggregate statistics are published, we synthesise traces from a
//! truncated normal with the same parameters; the generator is deterministic in
//! its seed and its statistics are validated by tests against the published
//! numbers.

use peerstripe_sim::dist::{Distribution, TruncatedNormal};
use peerstripe_sim::{ByteSize, DetRng, OnlineStats};

/// One file in a workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// Unique file name (the paper assumes globally unique names).
    pub name: String,
    /// File size.
    pub size: ByteSize,
}

impl FileRecord {
    /// Create a record.
    pub fn new(name: impl Into<String>, size: ByteSize) -> Self {
        FileRecord {
            name: name.into(),
            size,
        }
    }
}

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of files to generate.
    pub file_count: usize,
    /// Mean file size.
    pub mean_size: ByteSize,
    /// Standard deviation of the file size.
    pub std_dev: ByteSize,
    /// Minimum file size (the paper filters files below 50 MB).
    pub min_size: ByteSize,
    /// Maximum file size (truncates the normal's tail; keeps single files from
    /// dwarfing the system).
    pub max_size: ByteSize,
    /// Prefix for generated file names.
    pub name_prefix: String,
}

impl TraceConfig {
    /// The paper's trace parameters at full scale: 1.2 M files, mean 243 MB,
    /// σ 55 MB, minimum 50 MB.
    pub fn paper() -> Self {
        TraceConfig {
            file_count: 1_200_000,
            mean_size: ByteSize::mb(243),
            std_dev: ByteSize::mb(55),
            min_size: ByteSize::mb(50),
            max_size: ByteSize::gb(2),
            name_prefix: "trace".to_string(),
        }
    }

    /// The paper's distribution but a smaller population, for quick experiments
    /// and tests: statistics (mean/σ/min) are preserved, only the count shrinks.
    pub fn scaled(file_count: usize) -> Self {
        TraceConfig {
            file_count,
            ..TraceConfig::paper()
        }
    }

    /// Generate the trace deterministically from a seed.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = DetRng::new(seed).fork("file-trace");
        let dist = TruncatedNormal::new(
            self.mean_size.as_u64() as f64,
            self.std_dev.as_u64() as f64,
            self.min_size.as_u64() as f64,
            self.max_size.as_u64() as f64,
        );
        let mut files = Vec::with_capacity(self.file_count);
        for i in 0..self.file_count {
            let size = ByteSize::bytes(dist.sample(&mut rng).round() as u64);
            files.push(FileRecord::new(
                format!("{}-{i:07}", self.name_prefix),
                size,
            ));
        }
        Trace { files }
    }
}

/// A workload trace: an ordered list of files to insert into the storage system.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The files, in insertion order.
    pub files: Vec<FileRecord>,
}

/// Aggregate statistics of a trace, for comparison with the paper's numbers.
#[derive(Debug, Clone, Copy)]
pub struct TraceStats {
    /// Number of files.
    pub count: usize,
    /// Total bytes across all files.
    pub total: ByteSize,
    /// Mean file size.
    pub mean: ByteSize,
    /// Standard deviation of file size.
    pub std_dev: ByteSize,
    /// Smallest file.
    pub min: ByteSize,
    /// Largest file.
    pub max: ByteSize,
}

impl Trace {
    /// Number of files in the trace.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total size of all files.
    pub fn total_size(&self) -> ByteSize {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let mut acc = OnlineStats::new();
        for f in &self.files {
            acc.push(f.size.as_u64() as f64);
        }
        TraceStats {
            count: self.files.len(),
            total: self.total_size(),
            mean: ByteSize::bytes(acc.mean().round() as u64),
            std_dev: ByteSize::bytes(acc.std_dev().round() as u64),
            min: ByteSize::bytes(acc.min().unwrap_or(0.0) as u64),
            max: ByteSize::bytes(acc.max().unwrap_or(0.0) as u64),
        }
    }

    /// The first `n` files (prefix workload), cloned.
    pub fn take(&self, n: usize) -> Trace {
        Trace {
            files: self.files.iter().take(n).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_matches_paper_statistics() {
        // 20 000 files keep the test fast while pinning the distribution.
        let trace = TraceConfig::scaled(20_000).generate(7);
        let stats = trace.stats();
        assert_eq!(stats.count, 20_000);
        let mean_mb = stats.mean.as_mb();
        let sd_mb = stats.std_dev.as_mb();
        assert!((mean_mb - 243.0).abs() < 5.0, "mean {mean_mb} MB");
        assert!((sd_mb - 55.0).abs() < 5.0, "sd {sd_mb} MB");
        assert!(stats.min >= ByteSize::mb(50));
        assert!(stats.max <= ByteSize::gb(2));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TraceConfig::scaled(500).generate(3);
        let b = TraceConfig::scaled(500).generate(3);
        assert_eq!(a.files, b.files);
        let c = TraceConfig::scaled(500).generate(4);
        assert_ne!(a.files, c.files);
    }

    #[test]
    fn names_are_unique() {
        let trace = TraceConfig::scaled(5_000).generate(1);
        let mut names: Vec<&str> = trace.files.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5_000);
    }

    #[test]
    fn total_size_scales_with_count() {
        // The paper's full trace totals 278.7 TB for 1.2 M files; a proportional
        // slice should total ~0.232 TB per 1000 files.
        let trace = TraceConfig::scaled(10_000).generate(2);
        let per_file_mb = trace.total_size().as_mb() / 10_000.0;
        assert!(
            (per_file_mb - 243.0).abs() < 5.0,
            "per-file {per_file_mb} MB"
        );
    }

    #[test]
    fn take_is_a_prefix() {
        let trace = TraceConfig::scaled(3).generate(5);
        let prefix = trace.take(2);
        assert_eq!(prefix.files[..], trace.files[..2]);
        assert_eq!(trace.take(100).len(), 3);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.total, ByteSize::ZERO);
    }
}
