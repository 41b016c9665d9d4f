//! The daemon's TCP front: one thread per connection, with per-connection
//! read/write timeouts and graceful shutdown.
//!
//! The accept loop keeps one worker started and parked on a channel, hands
//! it each accepted connection, and only then starts the next: while other
//! processes keep the CPUs busy, a thread just created can wait a scheduler
//! tick (~4 ms) before it first runs. A worker reads framed requests through
//! one buffer per connection (one `read` for a request that fits it),
//! dispatches them to the shared [`NodeService`], and writes each framed
//! reply beneath the buffer in one call. A `Shutdown` request raises the
//! shutdown flag; the accept loop observes it on its next wakeup — a
//! self-connection is made to unblock `accept` immediately — finishes
//! in-flight connections, releases the parked worker, and exits.

use crate::lock;
use crate::node::NodeService;
use crate::protocol::{
    read_request_traced, write_response, write_response_traced, RemoteError, Request, Response,
};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    ///
    /// If the OS refuses a connection worker, the server stops accepting,
    /// closes and joins what is open as on shutdown, and returns that error.
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
        // Start the worker for connection `id`, parked until it is handed
        // its stream (or its sender is dropped).
        let park = |id: u64| {
            let (hand, parked) = mpsc::channel::<TcpStream>();
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let peers = Arc::clone(&peers);
            std::thread::Builder::new()
                .name(format!("conn-{id}"))
                .spawn(move || {
                    if let Ok(stream) = parked.recv() {
                        serve_connection(stream, addr, &service, &shutdown);
                        lock(&peers).remove(&id);
                    }
                })
                .map(|worker| (hand, worker))
        };
        let mut next_conn: u64 = 0;
        let mut waiting = park(next_conn)?;
        let mut refused = Ok(());
        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if let Ok(clone) = stream.try_clone() {
                lock(&peers).insert(next_conn, clone);
            }
            let _ = waiting.0.send(stream);
            next_conn += 1;
            match park(next_conn) {
                Ok(next) => workers.push(std::mem::replace(&mut waiting, next).1),
                Err(e) => {
                    refused = Err(e);
                    break;
                }
            }
        }
        // Release the parked worker, sever every still-open connection so
        // workers blocked in a read return at once, then reap them all.
        drop(waiting.0);
        workers.push(waiting.1);
        for peer in lock(&peers).values() {
            let _ = peer.shutdown(std::net::Shutdown::Both);
        }
        for w in workers {
            let _ = w.join();
        }
        refused
    }
}

/// Serve one TCP connection; after a `Shutdown`, unblock the accept loop so
/// it observes the flag now.
fn serve_connection(
    stream: TcpStream,
    server_addr: SocketAddr,
    service: &Mutex<NodeService>,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    if serve_frames(&stream, &stream, service, shutdown) {
        let _ = TcpStream::connect(server_addr);
    }
}

/// Answer requests read through one buffer, each reply in one write, until
/// the peer closes, errors, or asks for shutdown (true).
fn serve_frames(
    requests: impl Read,
    mut replies: impl Write,
    service: &Mutex<NodeService>,
    shutdown: &AtomicBool,
) -> bool {
    let mut requests = BufReader::new(requests);
    loop {
        if let Some(shut_down) = serve_request(&mut requests, &mut replies, service, shutdown) {
            return shut_down;
        }
    }
}

/// Answer one request: the step server connections and the in-memory wire
/// share.  `Some` once the connection ends, `true` if by a `Shutdown`.
pub(crate) fn serve_request(
    requests: &mut impl Read,
    replies: &mut impl Write,
    service: &Mutex<NodeService>,
    shutdown: &AtomicBool,
) -> Option<bool> {
    match read_request_traced(requests) {
        Ok((Request::Shutdown, rid)) => {
            shutdown.store(true, Ordering::SeqCst);
            let _ = write_response_traced(replies, &Response::ShuttingDown, rid);
            Some(true)
        }
        Ok((req, rid)) => {
            // Echo the caller's request id so the reply is correlatable.
            let resp = lock(service).handle_traced(req, rid);
            let written = write_response_traced(replies, &resp, rid);
            written.is_err().then_some(false)
        }
        Err(e) if e.is_transport() => Some(false),
        Err(e) => {
            // A protocol violation: tell the peer why, then drop the
            // connection — the stream may no longer be frame-aligned.
            let bad = RemoteError::BadRequest {
                detail: e.to_string(),
            };
            let _ = write_response(replies, &Response::Error(bad));
            Some(false)
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

    /// A daemon serving on a thread of its own.
    struct Running {
        addr: SocketAddr,
        serving: std::thread::JoinHandle<io::Result<()>>,
    }

    fn start() -> Running {
        let service = NodeService::new(&NodeConfig::named("node-0", ByteSize::mb(64)));
        let server = NodeServer::bind("127.0.0.1:0", service).unwrap();
        let addr = server.local_addr();
        let serving = std::thread::spawn(move || server.run());
        Running { addr, serving }
    }

    impl Running {
        /// Ask the daemon to shut down, and wait for its server to return.
        fn stop(self) -> io::Result<()> {
            let reply = call(&mut dial(self.addr), &Request::Shutdown);
            assert_eq!(reply.unwrap(), Response::ShuttingDown);
            self.serving.join().unwrap()
        }
    }

    /// Connect with a read timeout, so an unserved connection fails its
    /// test instead of hanging it.
    fn dial(addr: SocketAddr) -> TcpStream {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn
    }

    /// One round-trip RPC over an existing stream.
    fn call(stream: &mut TcpStream, req: &Request) -> Result<Response, WireError> {
        crate::protocol::write_request(stream, req)?;
        crate::protocol::read_response(stream)
    }

    #[test]
    fn serves_ping_and_store_fetch_over_tcp() {
        let node = start();
        let mut conn = TcpStream::connect(node.addr).unwrap();
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
        let addr = node.addr;
        let threads: Vec<_> = (0..16)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut conn = dial(addr);
                    let name = ObjectName::block(format!("file-{t}"), 0, 0);
                    let store = Request::StoreBlock {
                        key: name.key(),
                        name: name.clone(),
                        size: ByteSize::kb(1),
                        payload: Some(vec![t; 8]),
                    };
                    assert_eq!(call(&mut conn, &store).unwrap(), Response::Stored);
                    assert_eq!(
                        call(&mut conn, &Request::FetchBlock { name }).unwrap(),
                        Response::Block {
                            block: Some((ByteSize::kb(1), Some(Arc::new(vec![t; 8]))))
                        }
                    );
                })
            })
            .collect();
        // A connection that closes without sending a byte takes a worker
        // and gives it back.
        drop(TcpStream::connect(addr).unwrap());
        for t in threads {
            t.join().unwrap();
        }
        let mut conn = dial(addr);
        let Response::Stats { stats } = call(&mut conn, &Request::GetStats).unwrap() else {
            panic!("expected Stats");
        };
        assert_eq!(stats.objects, 16);
        // `stop` returns only once every worker, the parked one included,
        // has been joined.
        node.stop().unwrap();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let node = start();
        let addr = node.addr;
        // Every sequential connection is served, each by its own worker.
        for _ in 0..32 {
            let mut conn = dial(addr);
            assert!(matches!(
                call(&mut conn, &Request::Ping).unwrap(),
                Response::Pong { .. }
            ));
        }
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
        let mut conn = TcpStream::connect(node.addr).unwrap();
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
        let mut conn = TcpStream::connect(node.addr).unwrap();
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
        let mut conn = TcpStream::connect(node.addr).unwrap();
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

    /// A peer that hands the daemon one whole scripted frame per `read` — as
    /// loopback does with a frame written in one call — then the end of the
    /// stream.  Counts its reads.
    struct Scripted {
        frames: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(frame) = self.frames.front_mut() else {
                return Ok(0);
            };
            let n = frame.len().min(buf.len());
            buf[..n].copy_from_slice(&frame[..n]);
            frame.drain(..n);
            if frame.is_empty() {
                self.frames.pop_front();
            }
            Ok(n)
        }
    }

    /// What the daemon writes back to the peer, and in how many calls.
    #[derive(Default)]
    struct Kept {
        writes: usize,
        sent: Vec<u8>,
    }

    impl Write for Kept {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.sent.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serve `requests` as a peer that sent each in one write and then
    /// closed; `(reads, writes, replies)`.
    fn serve_script(requests: &[Request]) -> (usize, usize, Vec<Response>) {
        let frames = requests.iter().map(|req| {
            let mut frame = Vec::new();
            crate::protocol::write_request_traced(&mut frame, req, Some(3)).unwrap();
            frame
        });
        let mut peer = Scripted {
            frames: frames.collect(),
            reads: 0,
        };
        let mut kept = Kept::default();
        let service = Mutex::new(NodeService::new(&NodeConfig::named(
            "node-0",
            ByteSize::mb(64),
        )));
        let shutdown = AtomicBool::new(false);
        assert!(!serve_frames(&mut peer, &mut kept, &service, &shutdown));
        let mut sent = kept.sent.as_slice();
        let replies = requests.iter().map(|_| {
            let (resp, rid) = crate::protocol::read_response_traced(&mut sent).unwrap();
            assert_eq!(rid, Some(3));
            resp
        });
        let replies = replies.collect();
        assert!(sent.is_empty(), "one reply a request");
        (peer.reads, kept.writes, replies)
    }

    /// The daemon's system calls per request: a request that fits the
    /// connection's buffer is one `read`, and its reply one `write`.  The
    /// last `read` of each run is the one that finds the peer gone.
    #[test]
    fn a_request_that_fits_the_buffer_costs_the_daemon_one_read_and_one_write() {
        for k in [1, 2, 5] {
            let pings = vec![Request::GetCapacity; k];
            let (reads, writes, replies) = serve_script(&pings);
            assert_eq!((reads, writes), (k + 1, k), "{k} payload-free requests");
            assert!(replies.iter().all(|r| *r
                == Response::Capacity {
                    free: ByteSize::mb(64)
                }));
        }
        let name = ObjectName::block("f", 0, 0);
        let store = Request::StoreBlock {
            key: name.key(),
            name: name.clone(),
            size: ByteSize::kb(1),
            payload: Some(vec![7; 1024]),
        };
        let fetch = Request::FetchBlock { name };
        let (reads, writes, replies) = serve_script(&[store, fetch]);
        assert_eq!((reads, writes), (2 + 1, 2), "a 1 KiB store and its fetch");
        assert_eq!(
            replies,
            [
                Response::Stored,
                Response::Block {
                    block: Some((ByteSize::kb(1), Some(Arc::new(vec![7; 1024]))))
                }
            ]
        );
    }
}
