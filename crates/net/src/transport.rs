//! How the gateway reaches a daemon: [`Tcp`], the default, or for tests the
//! in-process daemons of a [`MemWire`].  A node a transport has no route to
//! fails its dial as `NotFound`: unreachable, not a protocol violation.

use crate::gateway::RingGateway;
use crate::node::{NodeConfig, NodeService};
use crate::server::serve_request;
use peerstripe_overlay::NodeRef;
use peerstripe_sim::ByteSize;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{atomic::AtomicBool, atomic::Ordering::SeqCst, Arc, Mutex};
use std::time::Duration;

/// How a gateway reaches a daemon: a fresh byte stream per dial.
pub trait Transport {
    /// A connection to one daemon.
    type Stream: Read + Write;
    /// Open a fresh stream to `node`'s daemon.
    fn dial(&self, node: NodeRef) -> io::Result<Self::Stream>;
}

/// The daemons over TCP at their endpoints, under the gateway's timeout.
pub struct Tcp {
    pub(crate) addrs: BTreeMap<NodeRef, SocketAddr>,
    pub(crate) timeout: Duration,
}

impl Transport for Tcp {
    type Stream = TcpStream;

    fn dial(&self, node: NodeRef) -> io::Result<TcpStream> {
        let addr = self.addrs.get(&node).ok_or(ErrorKind::NotFound)?;
        let stream = TcpStream::connect_timeout(addr, self.timeout)?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }
}

/// A daemon on the wire, and the flag [`MemWire::stop`] or `Shutdown` raises.
struct Daemon {
    service: Mutex<NodeService>,
    down: AtomicBool,
}

/// N in-process daemons over an in-memory wire, so a run sends the same bytes
/// every time.  A clone is a handle on the same daemons.
#[derive(Clone)]
pub struct MemWire {
    daemons: Vec<Arc<Daemon>>,
}

impl MemWire {
    /// `n` fresh daemons named `node-<i>`, as a `LocalRing` of `n` names
    /// them, of `capacity` each, and a gateway over them.
    pub fn ring_of(n: usize, capacity: ByteSize) -> (MemWire, RingGateway<MemWire>) {
        let configs = (0..n).map(|i| NodeConfig::named(&format!("node-{i}"), capacity));
        let configs: Vec<NodeConfig> = configs.collect();
        let daemon = |config| Daemon {
            service: Mutex::new(NodeService::new(config)),
            down: AtomicBool::new(false),
        };
        let wire = MemWire {
            daemons: configs.iter().map(|c| Arc::new(daemon(c))).collect(),
        };
        let ids = configs.iter().enumerate().map(|(i, c)| (i, c.id)).collect();
        (wire.clone(), RingGateway::over(wire, ids))
    }

    /// Take `node`'s daemon away as a `SIGKILL` does: its open streams fail
    /// and its dials are refused.
    pub fn stop(&self, node: NodeRef) {
        if let Some(daemon) = self.daemons.get(node) {
            daemon.down.store(true, SeqCst);
        }
    }
}

impl Transport for MemWire {
    type Stream = WireStream;

    fn dial(&self, node: NodeRef) -> io::Result<WireStream> {
        let daemon = self.daemons.get(node).ok_or(ErrorKind::NotFound)?;
        if daemon.down.load(SeqCst) {
            return Err(ErrorKind::ConnectionRefused.into());
        }
        Ok(WireStream {
            daemon: Arc::clone(daemon),
            requests: VecDeque::new(),
            replies: VecDeque::new(),
            open: true,
        })
    }
}

/// A connection over the [`MemWire`].  A request frame written to it is
/// answered at its `flush`, by the server's per-request step.  It stays
/// `open` until the daemon ends it: after a `Shutdown`, or a frame cut short
/// or malformed.
pub struct WireStream {
    daemon: Arc<Daemon>,
    requests: VecDeque<u8>,
    replies: VecDeque<u8>,
    open: bool,
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.requests.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.requests.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        let daemon = &self.daemon;
        if daemon.down.load(SeqCst) {
            return Err(ErrorKind::ConnectionReset.into());
        }
        while self.open && !self.requests.is_empty() {
            let (requests, replies) = (&mut self.requests, &mut self.replies);
            self.open = serve_request(requests, replies, &daemon.service, &daemon.down).is_none();
        }
        Ok(())
    }
}

impl Read for WireStream {
    /// The replies written so far, then the end of the stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.replies.make_contiguous();
        self.replies.read(buf)
    }
}
