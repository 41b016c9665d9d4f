//! The daemon's TCP front: a small thread-per-connection server with
//! per-connection read/write timeouts and graceful shutdown.
//!
//! Each accepted connection gets its own thread that reads framed requests,
//! dispatches them to the shared [`NodeService`], and writes framed replies.
//! A `Shutdown` request (or [`RunningNode::stop`]) raises the shutdown flag;
//! the accept loop observes it on its next wakeup — a self-connection is made
//! to unblock `accept` immediately — finishes in-flight connections, and
//! exits.

use crate::lock;
use crate::node::NodeService;
use crate::protocol::{
    read_request_traced, write_response, write_response_traced, RemoteError, Request, Response,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a connection may sit idle before its read fails and the
/// connection is dropped (the gateway reconnects transparently).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one framed write.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-running node server.
pub struct NodeServer {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<Mutex<NodeService>>,
    shutdown: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread (in-process rings and
/// tests; the daemon binary calls [`NodeServer::run`] on its main thread).
pub struct RunningNode {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl NodeServer {
    /// Bind to `addr` (use port 0 to let the OS pick) and prepare to serve.
    pub fn bind(addr: impl ToSocketAddrs, service: NodeService) -> io::Result<NodeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(NodeServer {
            listener,
            addr,
            service: Arc::new(Mutex::new(service)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until shut down. Blocks the calling thread.
    pub fn run(self) -> io::Result<()> {
        let NodeServer {
            listener,
            addr,
            service,
            shutdown,
        } = self;
        let mut workers = Vec::new();
        // Open connections, keyed so each worker can deregister its own on
        // exit (a lingering clone would hold the peer's fd open past the
        // worker and hide the close from the client).
        let peers: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let mut next_conn: u64 = 0;
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let conn_id = next_conn;
            next_conn += 1;
            if let Ok(clone) = stream.try_clone() {
                lock(&peers).insert(conn_id, clone);
            }
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let peers = Arc::clone(&peers);
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, addr, &service, &shutdown);
                lock(&peers).remove(&conn_id);
            }));
        }
        // Sever every still-open connection so workers blocked in a read
        // return at once, then reap them.
        for peer in lock(&peers).values() {
            let _ = peer.shutdown(std::net::Shutdown::Both);
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Run on a background thread, returning a [`RunningNode`] handle.
    pub fn spawn(self) -> RunningNode {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shutdown);
        let handle = std::thread::spawn(move || self.run());
        RunningNode {
            addr,
            shutdown,
            handle,
        }
    }
}

impl RunningNode {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the shutdown flag, unblock the accept loop, and join the server
    /// thread.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Serve one connection until the peer closes, errors, or asks for shutdown.
fn serve_connection(
    mut stream: TcpStream,
    server_addr: SocketAddr,
    service: &Mutex<NodeService>,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    loop {
        match read_request_traced(&mut stream) {
            Ok((Request::Shutdown, rid)) => {
                shutdown.store(true, Ordering::SeqCst);
                let _ = write_response_traced(&mut stream, &Response::ShuttingDown, rid);
                // Unblock the accept loop so it observes the flag now.
                let _ = TcpStream::connect(server_addr);
                break;
            }
            Ok((req, rid)) => {
                // Echo the caller's request id so the reply is correlatable.
                let resp = lock(service).handle_traced(req, rid);
                if write_response_traced(&mut stream, &resp, rid).is_err() {
                    break;
                }
            }
            Err(e) if e.is_transport() => break,
            Err(e) => {
                // A protocol violation: tell the peer why, then drop the
                // connection — the stream may no longer be frame-aligned.
                let _ = write_response(
                    &mut stream,
                    &Response::Error(RemoteError::BadRequest {
                        detail: e.to_string(),
                    }),
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use crate::protocol::WireError;
    use peerstripe_core::ObjectName;
    use peerstripe_overlay::Id;
    use peerstripe_sim::ByteSize;

    fn start() -> RunningNode {
        let service = NodeService::new(&NodeConfig::named("node-0", ByteSize::mb(64)));
        NodeServer::bind("127.0.0.1:0", service).unwrap().spawn()
    }

    /// One round-trip RPC over an existing stream.
    fn call(stream: &mut TcpStream, req: &Request) -> Result<Response, WireError> {
        crate::protocol::write_request(stream, req)?;
        crate::protocol::read_response(stream)
    }

    #[test]
    fn serves_ping_and_store_fetch_over_tcp() {
        let node = start();
        let mut conn = TcpStream::connect(node.local_addr()).unwrap();
        assert_eq!(
            call(&mut conn, &Request::Ping).unwrap(),
            Response::Pong {
                node: Id::hash("node-0")
            }
        );
        let name = ObjectName::block("f", 0, 0);
        assert_eq!(
            call(
                &mut conn,
                &Request::StoreBlock {
                    key: name.key(),
                    name: name.clone(),
                    size: ByteSize::mb(1),
                    payload: Some(vec![42; 16]),
                }
            )
            .unwrap(),
            Response::Stored
        );
        assert_eq!(
            call(&mut conn, &Request::FetchBlock { name }).unwrap(),
            Response::Block {
                block: Some((ByteSize::mb(1), Some(Arc::new(vec![42; 16]))))
            }
        );
        node.stop().unwrap();
    }

    #[test]
    fn concurrent_connections_share_one_store() {
        let node = start();
        let addr = node.local_addr();
        let mut threads = Vec::new();
        for t in 0..4 {
            threads.push(std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                for b in 0..4u32 {
                    let name = ObjectName::block(format!("file-{t}"), 0, b);
                    let resp = call(
                        &mut conn,
                        &Request::StoreBlock {
                            key: name.key(),
                            name,
                            size: ByteSize::kb(1),
                            payload: None,
                        },
                    )
                    .unwrap();
                    assert_eq!(resp, Response::Stored);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut conn = TcpStream::connect(addr).unwrap();
        let Response::Stats { stats } = call(&mut conn, &Request::GetStats).unwrap() else {
            panic!("expected Stats");
        };
        assert_eq!(stats.objects, 16);
        node.stop().unwrap();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let node = start();
        let addr = node.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(
            call(&mut conn, &Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        node.stop().unwrap();
        // The listener is gone (give the OS a beat to tear it down).
        let gone = (0..50).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            TcpStream::connect(addr).is_err()
        });
        assert!(gone, "listener still accepting after shutdown");
    }

    #[test]
    fn request_ids_echo_through_a_live_server_and_land_in_the_op_log() {
        let node = start();
        let mut conn = TcpStream::connect(node.local_addr()).unwrap();
        let mut rpc = |req: &Request, rid: Option<u64>| {
            crate::protocol::write_request_traced(&mut conn, req, rid).unwrap();
            crate::protocol::read_response_traced(&mut conn).unwrap()
        };
        let (resp, rid) = rpc(&Request::Ping, Some(7));
        assert_eq!(rid, Some(7));
        assert!(matches!(resp, Response::Pong { .. }));
        // Untraced calls stay untraced.
        let (_, rid) = rpc(&Request::Ping, None);
        assert_eq!(rid, None);
        // The scrape sees both pings, attributed exactly as sent.
        let (resp, rid) = rpc(&Request::GetStats, Some(8));
        assert_eq!(rid, Some(8));
        let Response::Stats { stats } = resp else {
            panic!("expected Stats");
        };
        assert_eq!(stats.node, Id::hash("node-0"));
        let pings: Vec<_> = stats.op_log.iter().filter(|e| e.op == "ping").collect();
        assert_eq!(pings.len(), 2);
        assert_eq!(pings[0].request_id, Some(7));
        assert_eq!(pings[1].request_id, None);
        // The scrape itself never appears in its own log or counters.
        assert!(stats.op_log.iter().all(|e| e.op != "get_stats"));
        node.stop().unwrap();
    }

    #[test]
    fn malformed_frames_get_a_typed_error_reply() {
        use std::io::{Read, Write};
        let node = start();
        let mut conn = TcpStream::connect(node.local_addr()).unwrap();
        // Valid header with an unknown kind byte and empty body.
        let mut header = [0u8; crate::protocol::HEADER_LEN];
        header[0..2].copy_from_slice(&crate::protocol::MAGIC.to_le_bytes());
        header[2] = crate::protocol::VERSION;
        header[3] = 0x60;
        conn.write_all(&header).unwrap();
        let resp = crate::protocol::read_response(&mut conn).unwrap();
        assert!(matches!(
            resp,
            Response::Error(RemoteError::BadRequest { .. })
        ));
        // The server closed the connection after the error reply.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        node.stop().unwrap();
    }

    #[test]
    fn a_request_of_another_protocol_version_gets_a_typed_error_reply() {
        use std::io::{Read, Write};
        let node = start();
        let mut conn = TcpStream::connect(node.local_addr()).unwrap();
        // An untraced protocol-v1 `Ping`: a header and no meta.
        let mut header = [0u8; crate::protocol::HEADER_LEN];
        header[0..2].copy_from_slice(&crate::protocol::MAGIC.to_le_bytes());
        header[2] = 1;
        header[3] = crate::protocol::kind::PING;
        conn.write_all(&header).unwrap();
        let Response::Error(RemoteError::BadRequest { detail }) =
            crate::protocol::read_response(&mut conn).unwrap()
        else {
            panic!("expected a BadRequest reply");
        };
        assert!(detail.contains("version 1"), "{detail}");
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "the connection closed after the reply");
        node.stop().unwrap();
    }
}
