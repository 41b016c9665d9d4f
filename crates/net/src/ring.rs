//! A localhost ring of real `peerstripe-node` processes.
//!
//! [`LocalRing::spawn`] starts all N daemons on ephemeral ports first, then
//! reads each one's `listening on ADDR` line, in node order, to learn where
//! it landed, and hands out the matching [`NodeEndpoint`] table: the daemons
//! come up side by side instead of each waiting for the one before it.  If
//! any daemon fails to start or to announce itself, every daemon started so
//! far is killed before the error returns.  Node identifiers follow the
//! shared convention `Id::hash("node-<i>")`, so the gateway's membership
//! ring is reproducible from the node count alone.  [`LocalRing::kill`]
//! terminates one daemon with a real signal — the failure the recovery path
//! is then exercised against.

use crate::gateway::{GatewayConfig, NodeEndpoint, RingGateway};
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::ByteSize;
use std::io::{self, BufRead, BufReader};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// One spawned daemon process.
struct RingMember {
    endpoint: NodeEndpoint,
    child: Option<Child>,
}

/// A ring of localhost daemon processes, killed on drop.
pub struct LocalRing {
    members: Vec<RingMember>,
}

impl LocalRing {
    /// Spawn `n` daemons of `capacity` each from the `peerstripe-node`
    /// binary at `bin`.  Every daemon is started before any announcement is
    /// read; the announcements are then read in node order.  If a daemon
    /// fails to start or to announce itself, the error names it
    /// (`node-<i>: …`), and every daemon started — before it or after it —
    /// is killed before the error returns.
    pub fn spawn(bin: &Path, n: usize, capacity: ByteSize) -> io::Result<LocalRing> {
        let named = |i: usize, e: io::Error| io::Error::new(e.kind(), format!("node-{i}: {e}"));
        // Each daemon joins the ring as soon as it runs, so an early return
        // drops the ring and its `Drop` reaps every daemon started.
        let mut ring = LocalRing {
            members: Vec::with_capacity(n),
        };
        for i in 0..n {
            let name = format!("node-{i}");
            let child = Command::new(bin)
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--id")
                .arg(&name)
                .arg("--capacity-mb")
                .arg(capacity.as_u64().div_ceil(1024 * 1024).to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| named(i, e))?;
            ring.members.push(RingMember {
                endpoint: NodeEndpoint {
                    node: i,
                    id: Id::hash(&name),
                    // Filled in from the announcement below.
                    addr: SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0)),
                },
                child: Some(child),
            });
        }
        for (i, member) in ring.members.iter_mut().enumerate() {
            let stdout = member.child.as_mut().and_then(|c| c.stdout.take());
            member.endpoint.addr = read_listen_line(stdout).map_err(|e| named(i, e))?;
        }
        Ok(ring)
    }

    /// The endpoint table for gateway construction.
    pub fn endpoints(&self) -> Vec<NodeEndpoint> {
        self.members.iter().map(|m| m.endpoint).collect()
    }

    /// Build a gateway over the whole ring.
    pub fn gateway(&self, config: GatewayConfig) -> RingGateway {
        RingGateway::connect(&self.endpoints(), config)
    }

    /// Kill one daemon process (SIGKILL) and reap it.  The gateway keeps
    /// routing to the node until `mark_failed` declares it.
    pub fn kill(&mut self, node: NodeRef) -> io::Result<()> {
        let member = self
            .members
            .get_mut(node)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such ring member"))?;
        if let Some(mut child) = member.child.take() {
            child.kill()?;
            child.wait()?;
        }
        Ok(())
    }

    /// True if the member's process is still running (not yet killed).
    pub fn is_running(&self, node: NodeRef) -> bool {
        self.members
            .get(node)
            .map(|m| m.child.is_some())
            .unwrap_or(false)
    }
}

impl Drop for LocalRing {
    fn drop(&mut self) {
        // Signal every live daemon before waiting on any, so they exit side
        // by side.  Errors are ignored: a daemon may already have exited.
        for child in self.members.iter_mut().filter_map(|m| m.child.as_mut()) {
            let _ = child.kill();
        }
        for mut child in self.members.iter_mut().filter_map(|m| m.child.take()) {
            let _ = child.wait();
        }
    }
}

/// Read a daemon's `listening on ADDR` announcement from its stdout.
fn read_listen_line(stdout: Option<ChildStdout>) -> io::Result<SocketAddr> {
    let stdout = stdout.ok_or_else(|| io::Error::other("daemon stdout not captured"))?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon announced {line:?}, expected `listening on ADDR`"),
            )
        })?;
    Ok(addr)
}

/// Locate the `peerstripe-node` binary for harnesses that are not in the
/// daemon's own package: the `PEERSTRIPE_NODE_BIN` environment variable wins,
/// otherwise the binary is looked for next to the current executable (cargo
/// puts example/test binaries in `target/<profile>/…` alongside it).
pub fn node_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("PEERSTRIPE_NODE_BIN") {
        let p = PathBuf::from(path);
        return p.exists().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let candidate = dir.join("peerstripe-node");
        if candidate.exists() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}
