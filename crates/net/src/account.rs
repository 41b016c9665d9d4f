//! One account of a request at both ends of the wire: the gateway records
//! every RPC it issues, and each daemon every request it handles, in an
//! [`RpcAccount`] — per-op calls and latency over [`crate::Request::op`],
//! errors by op and kind, and an op log joined across the wire by request
//! id.  The two sides differ only in the [`AccountNames`] they record under.

use crate::protocol::OpLogEntry;
use peerstripe_overlay::NodeRef;
use peerstripe_telemetry::{CounterExport, HistogramExport, RegistryExport};
use std::collections::{BTreeMap, VecDeque};

/// Latency histogram bucket bounds, in milliseconds, each an inclusive upper
/// edge: localhost RPCs sit in the sub-millisecond buckets, WAN deployments
/// in the tail, and anything slower in one overflow bucket past the last.
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

/// One op's calls and their latency histogram: a count per bucket of
/// [`LATENCY_BUCKETS_MS`], the overflow bucket last, and the sum.
#[derive(Debug, Clone, Copy, Default)]
struct OpRecord {
    calls: u64,
    buckets: [u64; LATENCY_BUCKETS_MS.len() + 1],
    sum_ms: f64,
}

/// An op-log entry as recorded: [`OpLogEntry`]'s fields, unallocated.
type LogRecord = (
    Option<u64>,
    Option<NodeRef>,
    &'static str,
    f64,
    &'static str,
);

/// One side's record of its requests: per-op calls and latency, errors and
/// the op log.
#[derive(Debug)]
pub struct RpcAccount {
    names: AccountNames,
    /// Each of [`OPS`]' record, in the same order.
    ops: [OpRecord; OPS.len()],
    /// Failed calls by `(kind, op)`, the order of their exported labels.
    errors: BTreeMap<(&'static str, &'static str), u64>,
    /// Recent requests, oldest first, bounded at `names.log_capacity`: the
    /// request id, node, op, milliseconds and outcome of an [`OpLogEntry`],
    /// which [`RpcAccount::log`] builds, so that recording one allocates
    /// nothing.
    log: VecDeque<LogRecord>,
}

impl RpcAccount {
    /// An empty account.  Every op's calls and latency are exported, even at
    /// zero, so the export's shape does not depend on which ops a run
    /// issued; an error counter appears with its first error.
    pub fn new(names: AccountNames) -> RpcAccount {
        RpcAccount {
            names,
            ops: [OpRecord::default(); OPS.len()],
            errors: BTreeMap::new(),
            log: VecDeque::new(),
        }
    }

    /// Record one finished request: `op`, sent to `node` (the gateway's
    /// side; a daemon records `None`), took `elapsed_ms` and failed with
    /// `error` (a kind label), or succeeded when `error` is `None`.
    ///
    /// `shutdown` is counted but never logged: the server answers it before
    /// the service sees it, so no daemon-side entry could join a gateway one.
    pub fn record(
        &mut self,
        op: &'static str,
        request_id: Option<u64>,
        node: Option<NodeRef>,
        elapsed_ms: f64,
        error: Option<&'static str>,
    ) {
        if let Some((_, record)) = OPS.iter().zip(&mut self.ops).find(|(o, _)| **o == op) {
            let bucket = LATENCY_BUCKETS_MS.iter().position(|b| elapsed_ms <= *b);
            let overflow = LATENCY_BUCKETS_MS.len();
            if let Some(count) = record.buckets.get_mut(bucket.unwrap_or(overflow)) {
                *count += 1;
            }
            record.calls += 1;
            record.sum_ms += elapsed_ms;
        }
        if let Some(kind) = error {
            *self.errors.entry((kind, op)).or_default() += 1;
        }
        if op == "shutdown" {
            return;
        }
        if self.log.len() == self.names.log_capacity {
            self.log.pop_front();
        }
        let outcome = error.unwrap_or("ok");
        self.log
            .push_back((request_id, node, op, elapsed_ms, outcome));
    }

    /// Snapshot of the counters and histograms, each list in `(name,
    /// labels)` order with labels sorted by key.
    pub fn export(&self) -> RegistryExport {
        let label = |key: &str, value: &str| (key.to_string(), value.to_string());
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for (op, record) in OPS.iter().zip(&self.ops) {
            counters.push(CounterExport {
                name: self.names.calls.to_string(),
                labels: vec![label("op", op)],
                value: record.calls,
            });
            histograms.push(HistogramExport {
                name: self.names.latency.to_string(),
                labels: vec![label("op", op)],
                count: record.calls,
                sum: record.sum_ms,
                bounds: LATENCY_BUCKETS_MS.to_vec(),
                bucket_counts: record.buckets.to_vec(),
            });
        }
        for (&(kind, op), &value) in &self.errors {
            counters.push(CounterExport {
                name: self.names.errors.to_string(),
                labels: vec![label("kind", kind), label("op", op)],
                value,
            });
        }
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| a.labels.cmp(&b.labels));
        RegistryExport {
            counters,
            histograms,
        }
    }

    /// Snapshot of the op log, oldest first.
    pub fn log(&self) -> Vec<OpLogEntry> {
        self.log
            .iter()
            .map(|&(request_id, node, op, duration_ms, outcome)| OpLogEntry {
                request_id,
                node,
                op: op.to_string(),
                duration_ms,
                outcome: outcome.to_string(),
            })
            .collect()
    }

    /// Calls recorded, across ops.
    pub fn calls(&self) -> u64 {
        self.ops.iter().map(|r| r.calls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NodeStats;

    #[test]
    fn the_op_log_keeps_the_newest_requests() {
        let mut account = RpcAccount::new(AccountNames::NODE);
        let capacity = AccountNames::NODE.log_capacity;
        let total = capacity as u64 + 5;
        for rid in 0..total {
            account.record("ping", Some(rid), None, 0.01, None);
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
        account.record("ping", Some(1), Some(0), 0.01, None);
        account.record("shutdown", Some(2), Some(0), 0.01, Some("io"));
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

    #[test]
    fn latency_lands_on_its_inclusive_edge_and_overflows_past_the_last() {
        let mut account = RpcAccount::new(AccountNames::NODE);
        for ms in [0.05, 0.06, 250.0, 250.5] {
            account.record("ping", None, None, ms, None);
        }
        let export = account.export();
        let ping = vec![("op".to_string(), "ping".to_string())];
        let histogram = export.histograms.iter().find(|h| h.labels == ping);
        let histogram = histogram.unwrap();
        assert_eq!(
            histogram.bucket_counts,
            [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]
        );
        assert_eq!(histogram.count, 4);
        assert!((histogram.sum - 500.61).abs() < 1e-9);
    }

    /// One scripted run: every op, six error kinds (one on `shutdown`), a
    /// latency on an inclusive bucket edge and one past the last edge, and
    /// requests with and without a node.
    fn scripted(names: AccountNames) -> RpcAccount {
        let mut account = RpcAccount::new(names);
        type Step<'a> = (&'a str, Option<u64>, Option<NodeRef>, f64, Option<&'a str>);
        let script: &[Step<'_>] = &[
            ("ping", Some(1), Some(0), 0.03, None),
            ("get_capacity", Some(2), Some(1), 0.1, None),
            ("store_block", Some(3), Some(2), 0.42, None),
            (
                "store_block",
                Some(4),
                Some(2),
                0.07,
                Some("insufficient_space"),
            ),
            ("fetch_block", Some(5), Some(3), 0.2, None),
            ("fetch_block", Some(6), Some(4), 3.0, Some("io")),
            ("remove_block", Some(7), None, 1.0, None),
            ("store_block", None, Some(2), 0.5, Some("already_stored")),
            ("get_capacity", Some(9), None, 300.0, Some("version")),
            ("shutdown", Some(10), Some(5), 0.01, Some("truncated")),
            ("remove_block", Some(11), Some(5), 0.02, Some("bad_request")),
        ];
        for &(op, rid, node, ms, error) in script {
            account.record(op, rid, node, ms, error);
        }
        account
    }

    /// The export, log and call count of [`scripted`], one per line.
    fn pinned_lines(names: AccountNames) -> String {
        let account = scripted(names);
        let export = serde_json::to_string(&account.export()).unwrap();
        let log = serde_json::to_string(&account.log()).unwrap();
        format!("{export}\n{log}\n{}\n", account.calls())
    }

    /// What a daemon's `NodeStats` and the gateway's `export_metrics` carry
    /// for [`scripted`]: a harness built against either side of a change
    /// parses these bytes, so they move only with the record itself.  A
    /// reader ignores a field it does not know, but needs every field it
    /// does: a harness that knows the op log's `node` cannot read a daemon
    /// built before it.
    const PINNED_GATEWAY: &str = include_str!("../tests/golden/account_gateway.txt");
    const PINNED_NODE: &str = include_str!("../tests/golden/account_node.txt");

    #[test]
    fn the_export_log_and_calls_match_their_pinned_bytes() {
        assert_eq!(pinned_lines(AccountNames::GATEWAY), PINNED_GATEWAY);
        assert_eq!(pinned_lines(AccountNames::NODE), PINNED_NODE);
    }

    #[test]
    fn a_pinned_node_export_parses_as_a_scrape() {
        let account = scripted(AccountNames::NODE);
        let export = PINNED_NODE.lines().next().unwrap();
        let stats = NodeStats {
            node: peerstripe_overlay::Id::hash("node-0"),
            capacity: peerstripe_sim::ByteSize::mb(8),
            used: peerstripe_sim::ByteSize::bytes(0),
            objects: 0,
            metrics: serde_json::from_str(export).unwrap(),
            op_log: account.log(),
        };
        assert_eq!(stats.metrics, account.export());
    }
}
