//! One account of a request at both ends of the wire: the gateway records
//! every RPC it issues, and each daemon every request it handles, in an
//! [`RpcAccount`] — per-op calls and latency over [`crate::Request::op`],
//! errors by op and kind, and an op log joined across the wire by request
//! id.  The two sides differ only in the [`AccountNames`] they record under.

use crate::protocol::OpLogEntry;
use peerstripe_telemetry::{CounterHandle, HistogramHandle, MetricsRegistry, RegistryExport};
use std::collections::VecDeque;

/// Latency histogram bucket bounds, in milliseconds: localhost RPCs sit in
/// the sub-millisecond buckets, WAN deployments in the tail.
const LATENCY_BUCKETS_MS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// The ops an account counts: all but `get_stats`, which is never recorded
/// — a stats scrape must not perturb the stats it reads.
const OPS: &[&str] = &[
    "ping",
    "get_capacity",
    "store_block",
    "fetch_block",
    "remove_block",
    "shutdown",
];

/// The metric names one side of the wire records under, and how many
/// finished requests its op log keeps (the newest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountNames {
    /// Calls, by `op`.
    pub calls: &'static str,
    /// Failed calls, by `op` and `kind`.
    pub errors: &'static str,
    /// Latency histogram in milliseconds, by `op`.
    pub latency: &'static str,
    /// Op-log bound.
    pub log_capacity: usize,
}

impl AccountNames {
    /// The gateway's account: every RPC it issued, round trip included.
    pub const GATEWAY: AccountNames = AccountNames {
        calls: "gateway_rpc_total",
        errors: "gateway_rpc_errors",
        latency: "gateway_rpc_latency_ms",
        log_capacity: 4096,
    };

    /// A daemon's account: every request it handled, handling time only.
    pub const NODE: AccountNames = AccountNames {
        calls: "node_requests_total",
        errors: "node_errors_total",
        latency: "node_request_latency_ms",
        log_capacity: 1024,
    };
}

/// When a request began, on either side of the wire.
pub struct Started(std::time::Instant);

impl Started {
    /// Start the clock.
    pub fn now() -> Started {
        #[expect(
            clippy::disallowed_methods,
            reason = "real request latency on the network path is what the RPC account records"
        )]
        Started(std::time::Instant::now())
    }

    /// Milliseconds since the clock started.
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }
}

/// One side's record of its requests: counters, histograms and op log.
#[derive(Debug)]
pub struct RpcAccount {
    names: AccountNames,
    metrics: MetricsRegistry,
    /// Each of [`OPS`] with its call counter and latency histogram.
    ops: Vec<(&'static str, CounterHandle, HistogramHandle)>,
    /// Recent requests, oldest first, bounded at `names.log_capacity`.
    log: VecDeque<OpLogEntry>,
}

impl RpcAccount {
    /// An empty account, every op's calls and latency registered up front
    /// so the export's shape does not depend on which ops a run issued.
    pub fn new(names: AccountNames) -> RpcAccount {
        let mut metrics = MetricsRegistry::new();
        let ops = OPS
            .iter()
            .map(|&op| {
                let labels = [("op", op)];
                let calls = metrics.counter(names.calls, &labels);
                let latency = metrics.histogram(names.latency, &labels, LATENCY_BUCKETS_MS);
                (op, calls, latency)
            })
            .collect();
        RpcAccount {
            names,
            metrics,
            ops,
            log: VecDeque::new(),
        }
    }

    /// Record one finished request: `op` took `elapsed_ms` and failed with
    /// `error` (a kind label), or succeeded when `error` is `None`.
    ///
    /// `shutdown` is counted but never logged: the server answers it before
    /// the service sees it, so no daemon-side entry could join a gateway one.
    pub fn record(
        &mut self,
        op: &'static str,
        request_id: Option<u64>,
        elapsed_ms: f64,
        error: Option<&'static str>,
    ) {
        if let Some(&(_, calls, latency)) = self.ops.iter().find(|h| h.0 == op) {
            self.metrics.inc(calls, 1);
            self.metrics.observe(latency, elapsed_ms);
        }
        if let Some(kind) = error {
            // Registered on first use: the kind space is open-ended, so
            // eager registration would pin down kinds that never occur.
            let labels = [("op", op), ("kind", kind)];
            let errors = self.metrics.counter(self.names.errors, &labels);
            self.metrics.inc(errors, 1);
        }
        if op == "shutdown" {
            return;
        }
        if self.log.len() == self.names.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back(OpLogEntry {
            request_id,
            op: op.to_string(),
            duration_ms: elapsed_ms,
            outcome: error.unwrap_or("ok").to_string(),
        });
    }

    /// Snapshot of the counters and histograms.
    pub fn export(&self) -> RegistryExport {
        self.metrics.export()
    }

    /// Snapshot of the op log, oldest first.
    pub fn log(&self) -> Vec<OpLogEntry> {
        self.log.iter().cloned().collect()
    }

    /// Calls recorded, across ops.
    pub fn calls(&self) -> u64 {
        let calls = self.ops.iter().map(|h| self.metrics.counter_value(h.1));
        calls.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_op_log_keeps_the_newest_requests() {
        let mut account = RpcAccount::new(AccountNames::NODE);
        let capacity = AccountNames::NODE.log_capacity;
        let total = capacity as u64 + 5;
        for rid in 0..total {
            account.record("ping", Some(rid), 0.01, None);
        }
        let log = account.log();
        assert_eq!(log.len(), capacity);
        let kept: Vec<Option<u64>> = log.iter().map(|e| e.request_id).collect();
        let newest: Vec<Option<u64>> = (5..total).map(Some).collect();
        assert_eq!(kept, newest, "oldest first, the first five evicted");
        assert_eq!(account.calls(), total);
    }

    #[test]
    fn shutdown_is_counted_but_not_logged() {
        let mut account = RpcAccount::new(AccountNames::GATEWAY);
        account.record("ping", Some(1), 0.01, None);
        account.record("shutdown", Some(2), 0.01, Some("io"));
        assert_eq!(account.calls(), 2);
        let log = account.log();
        let logged: Vec<&str> = log.iter().map(|e| e.op.as_str()).collect();
        assert_eq!(logged, ["ping"]);
        let export = account.export();
        let shutdown_errors: Vec<u64> = export
            .counters
            .iter()
            .filter(|c| c.name == "gateway_rpc_errors")
            .filter(|c| {
                c.labels
                    .contains(&("op".to_string(), "shutdown".to_string()))
            })
            .map(|c| c.value)
            .collect();
        assert_eq!(shutdown_errors, [1]);
    }
}
