//! Store metrics collected by every storage system.
//!
//! The evaluation reports, as files are inserted: the number and the total size
//! of failed stores (Figures 7 and 8), the overall capacity utilization
//! (Figure 9), and the distribution of chunk counts and chunk sizes (Table 1).
//! [`StoreMetrics`] accumulates all of these in one pass.  A churn run's
//! account — repair traffic, losses, availability over time — is the repair
//! engine's `MaintenanceReport`.

use peerstripe_sim::{ByteSize, OnlineStats};

/// Counters and distributions describing a sequence of file stores.
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Files whose store was attempted.
    pub files_attempted: u64,
    /// Files whose store failed.
    pub files_failed: u64,
    /// Total bytes across attempted files.
    pub bytes_attempted: ByteSize,
    /// Total bytes across failed files.
    pub bytes_failed: ByteSize,
    /// Bytes of user data successfully stored (excluding redundancy).
    pub bytes_stored: ByteSize,
    /// Bytes physically placed on nodes (including coding redundancy and replicas).
    pub bytes_placed: ByteSize,
    /// Distribution of the number of (non-empty) chunks per successfully stored file.
    pub chunks_per_file: OnlineStats,
    /// Distribution of (non-empty) chunk sizes in bytes.
    pub chunk_sizes: OnlineStats,
    /// Number of chunk-placement retries that produced zero-sized chunks.
    pub zero_chunks: u64,
}

impl StoreMetrics {
    /// Create empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successful file store: its chunk sizes in order, zero-sized
    /// retries included.
    pub fn record_success(
        &mut self,
        file_size: ByteSize,
        chunk_sizes: impl IntoIterator<Item = ByteSize>,
        placed: ByteSize,
    ) {
        self.files_attempted += 1;
        self.bytes_attempted += file_size;
        self.bytes_stored += file_size;
        self.bytes_placed += placed;
        let mut data_chunks = 0u64;
        for size in chunk_sizes {
            if size.is_zero() {
                self.zero_chunks += 1;
            } else {
                data_chunks += 1;
                self.chunk_sizes.push(size.as_u64() as f64);
            }
        }
        self.chunks_per_file.push(data_chunks as f64);
    }

    /// Record a failed file store.
    pub fn record_failure(&mut self, file_size: ByteSize) {
        self.files_attempted += 1;
        self.files_failed += 1;
        self.bytes_attempted += file_size;
        self.bytes_failed += file_size;
    }

    /// Failed stores as a percentage of attempted stores (Figure 7's y-axis).
    pub fn failed_store_pct(&self) -> f64 {
        if self.files_attempted == 0 {
            0.0
        } else {
            100.0 * self.files_failed as f64 / self.files_attempted as f64
        }
    }

    /// Failed bytes as a percentage of attempted bytes (Figure 8's y-axis).
    pub fn failed_bytes_pct(&self) -> f64 {
        if self.bytes_attempted.is_zero() {
            0.0
        } else {
            100.0 * self.bytes_failed.as_u64() as f64 / self.bytes_attempted.as_u64() as f64
        }
    }

    /// Mean number of data chunks per stored file (Table 1).
    pub fn mean_chunks_per_file(&self) -> f64 {
        self.chunks_per_file.mean()
    }

    /// Standard deviation of chunks per stored file (Table 1).
    pub fn sd_chunks_per_file(&self) -> f64 {
        self.chunks_per_file.std_dev()
    }

    /// Mean chunk size (Table 1).
    pub fn mean_chunk_size(&self) -> ByteSize {
        ByteSize::bytes(self.chunk_sizes.mean().round() as u64)
    }

    /// Standard deviation of chunk size (Table 1).
    pub fn sd_chunk_size(&self) -> ByteSize {
        ByteSize::bytes(self.chunk_sizes.std_dev().round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_and_failure_percentages() {
        let mut m = StoreMetrics::new();
        m.record_success(
            ByteSize::mb(100),
            [ByteSize::mb(60), ByteSize::ZERO, ByteSize::mb(40)],
            ByteSize::mb(100),
        );
        m.record_failure(ByteSize::mb(300));
        assert_eq!(m.files_attempted, 2);
        assert_eq!(m.files_failed, 1);
        assert_eq!(m.failed_store_pct(), 50.0);
        assert_eq!(m.bytes_attempted, ByteSize::mb(400));
        assert_eq!(m.bytes_failed, ByteSize::mb(300));
        assert_eq!(m.failed_bytes_pct(), 75.0);
        assert_eq!(m.zero_chunks, 1);
    }

    #[test]
    fn chunk_statistics_ignore_empty_chunks() {
        let mut m = StoreMetrics::new();
        m.record_success(
            ByteSize::mb(100),
            [ByteSize::mb(50), ByteSize::mb(50), ByteSize::ZERO],
            ByteSize::mb(100),
        );
        m.record_success(ByteSize::mb(80), [ByteSize::mb(80)], ByteSize::mb(80));
        assert!((m.mean_chunks_per_file() - 1.5).abs() < 1e-12);
        assert_eq!(m.chunk_sizes.count(), 3);
        assert!((m.mean_chunk_size().as_mb() - 60.0).abs() < 0.1);
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = StoreMetrics::new();
        assert_eq!(m.failed_store_pct(), 0.0);
        assert_eq!(m.failed_bytes_pct(), 0.0);
        assert_eq!(m.mean_chunks_per_file(), 0.0);
        assert_eq!(m.mean_chunk_size(), ByteSize::ZERO);
    }

    #[test]
    fn placed_bytes_include_redundancy() {
        let mut m = StoreMetrics::new();
        m.record_success(ByteSize::mb(100), [ByteSize::mb(100)], ByteSize::mb(150));
        assert_eq!(m.bytes_stored, ByteSize::mb(100));
        assert_eq!(m.bytes_placed, ByteSize::mb(150));
    }
}
