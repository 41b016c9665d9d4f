//! The per-node daemon's service logic: a [`NodeService`] owns one
//! [`StorageNode`](peerstripe_core::StorageNode) — the same node-local store
//! the simulator gives every cluster member — and answers the wire
//! protocol's requests against it.
//!
//! Keeping the service separate from the TCP plumbing means the exact same
//! request handling is exercised in-process by unit tests and over real
//! sockets by the daemon.
//!
//! A node's one account of itself is its [`NodeStats`]: capacity, used and
//! objects from the store, and its `RpcAccount` under
//! [`AccountNames::NODE`] — per-op request counters and latency histograms,
//! error counters by op and kind, and a bounded op log whose per-request
//! durations are the record of slow requests.

use crate::account::{AccountNames, RpcAccount};
use crate::protocol::{NodeStats, RemoteError, Request, Response};
use peerstripe_core::{NodeStoreError, StoredObject};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::Started;
use std::sync::Arc;

/// Configuration of one node daemon.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's overlay identifier.
    pub id: Id,
    /// Contributed capacity.
    pub capacity: ByteSize,
}

impl NodeConfig {
    /// A node named by hashing `name` into the id space — the convention the
    /// localhost ring harness and the daemon CLI share, so a gateway can
    /// recompute every daemon's id from its index.
    pub fn named(name: &str, capacity: ByteSize) -> Self {
        NodeConfig {
            id: Id::hash(name),
            capacity,
        }
    }
}

/// The request handler a daemon serves: one node's storage and identity,
/// plus the account of every request it handled.
#[derive(Debug)]
pub struct NodeService {
    id: Id,
    store: peerstripe_core::StorageNode,
    account: RpcAccount,
}

impl NodeService {
    /// Create a service with an empty store.
    pub fn new(config: &NodeConfig) -> Self {
        NodeService {
            id: config.id,
            store: peerstripe_core::StorageNode::new(config.capacity, true),
            account: RpcAccount::new(AccountNames::NODE),
        }
    }

    /// Snapshot the node's observability state (the `Stats` reply body).
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            node: self.id,
            capacity: self.store.capacity(),
            used: self.store.used(),
            objects: self.store.object_count(),
            metrics: self.account.export(),
            op_log: self.account.log(),
        }
    }

    /// Answer one request (untraced).
    pub fn handle(&mut self, req: Request) -> Response {
        self.handle_traced(req, None)
    }

    /// Answer one request carrying an optional request id, recording it in
    /// the node's account.  `GetStats` is answered without touching the
    /// account, so a scrape observes the node instead of perturbing it.
    /// Never fails: malformed or refused operations produce typed
    /// [`Response::Error`] replies.
    pub fn handle_traced(&mut self, req: Request, rid: Option<u64>) -> Response {
        if matches!(req, Request::GetStats) {
            return Response::Stats {
                stats: Box::new(self.stats()),
            };
        }
        let op = req.op();
        let started = Started::now();
        let resp = self.handle_inner(req);
        let error = match &resp {
            Response::Error(refusal) => Some(refusal.kind_label()),
            _ => None,
        };
        self.account
            .record(op, rid, None, started.elapsed_ms(), error);
        resp
    }

    /// The storage semantics of each request, free of instrumentation.
    fn handle_inner(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong { node: self.id },
            Request::GetCapacity => Response::Capacity {
                free: self.store.free(),
            },
            // A block under any key but its name's is one no fetch or
            // remove could reach: refused, nothing stored or charged.
            Request::StoreBlock { key, name, .. } if key != name.key() => {
                Response::Error(RemoteError::BadRequest {
                    detail: format!("{name} is stored under its own key, not {key}"),
                })
            }
            Request::StoreBlock {
                key, size, payload, ..
            } => {
                let payload = payload.map(Arc::new);
                match self.store.store(key, StoredObject { size, payload }) {
                    Ok(()) => Response::Stored,
                    Err(NodeStoreError::InsufficientSpace) => {
                        Response::Error(RemoteError::InsufficientSpace)
                    }
                    Err(NodeStoreError::AlreadyStored) => {
                        Response::Error(RemoteError::AlreadyStored)
                    }
                }
            }
            Request::FetchBlock { name } => Response::Block {
                block: self
                    .store
                    .get(name.key())
                    .map(|obj| (obj.size, obj.payload.clone())),
            },
            // The store tracks every object it holds, so a remove of one it
            // does not hold — a resend of a remove already applied — frees
            // nothing.
            Request::RemoveBlock { name, .. } => {
                self.store.remove(name.key());
                Response::Removed
            }
            // The server layer intercepts Shutdown before dispatch; answering
            // here keeps the service total.
            Request::Shutdown => Response::ShuttingDown,
            // `handle_traced` answers GetStats before dispatch (a scrape must
            // not instrument itself); answering here keeps the match total.
            Request::GetStats => Response::Stats {
                stats: Box::new(self.stats()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_core::ObjectName;

    fn service() -> NodeService {
        NodeService::new(&NodeConfig::named("node-0", ByteSize::mb(10)))
    }

    #[test]
    fn capacity_store_fetch_remove_cycle() {
        let mut svc = service();
        assert_eq!(
            svc.handle(Request::GetCapacity),
            Response::Capacity {
                free: ByteSize::mb(10)
            }
        );
        let name = ObjectName::block("f", 0, 1);
        let store = Request::StoreBlock {
            key: name.key(),
            name: name.clone(),
            size: ByteSize::mb(2),
            payload: Some(vec![5, 6]),
        };
        assert_eq!(svc.handle(store.clone()), Response::Stored);
        assert_eq!(
            svc.handle(store),
            Response::Error(RemoteError::AlreadyStored)
        );
        assert_eq!(
            svc.handle(Request::FetchBlock { name: name.clone() }),
            Response::Block {
                block: Some((ByteSize::mb(2), Some(Arc::new(vec![5, 6]))))
            }
        );
        assert_eq!(
            svc.handle(Request::RemoveBlock {
                name: name.clone(),
                size: ByteSize::mb(2)
            }),
            Response::Removed
        );
        assert_eq!(
            svc.handle(Request::FetchBlock { name }),
            Response::Block { block: None }
        );
        assert_eq!(svc.stats().used, ByteSize::ZERO);
    }

    #[test]
    fn oversized_store_is_refused_with_a_typed_error() {
        let mut svc = service();
        let name = ObjectName::block("f", 0, 0);
        assert_eq!(
            svc.handle(Request::StoreBlock {
                key: name.key(),
                name,
                size: ByteSize::mb(100),
                payload: None,
            }),
            Response::Error(RemoteError::InsufficientSpace)
        );
    }

    #[test]
    fn a_block_under_another_names_key_is_refused() {
        let mut svc = service();
        let name = ObjectName::block("f", 0, 1);
        let other = ObjectName::block("f", 0, 2).key();
        let reply = svc.handle(Request::StoreBlock {
            key: other,
            name: name.clone(),
            size: ByteSize::mb(2),
            payload: Some(vec![5, 6]),
        });
        assert!(
            matches!(reply, Response::Error(RemoteError::BadRequest { .. })),
            "{reply:?}"
        );
        let stats = svc.stats();
        assert_eq!((stats.objects, stats.used), (0, ByteSize::ZERO));
        assert_eq!(
            svc.handle(Request::FetchBlock { name }),
            Response::Block { block: None }
        );
        let refused = stats
            .op_log
            .iter()
            .map(|e| (e.op.as_str(), e.outcome.as_str()));
        assert!(refused.eq([("store_block", "bad_request")]));
    }

    #[test]
    fn removing_a_block_the_node_does_not_hold_frees_nothing() {
        let mut svc = service();
        let sizes = [ByteSize::mb(1), ByteSize::mb(2), ByteSize::mb(3)];
        let names: Vec<ObjectName> = (0..3).map(|i| ObjectName::block("f", 0, i)).collect();
        for (name, &size) in names.iter().zip(&sizes) {
            let store = Request::StoreBlock {
                key: name.key(),
                name: name.clone(),
                size,
                payload: None,
            };
            assert_eq!(svc.handle(store), Response::Stored);
        }
        // Block 0 removed twice (a resent rollback), then a name never stored.
        let removes = [
            (names[0].clone(), sizes[0]),
            (names[0].clone(), sizes[0]),
            (ObjectName::block("other", 0, 0), ByteSize::mb(4)),
        ];
        for (name, size) in removes {
            let reply = svc.handle(Request::RemoveBlock { name, size });
            assert_eq!(reply, Response::Removed);
        }
        let stats = svc.stats();
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.used, sizes[1] + sizes[2]);
    }
}
