//! The per-node storage daemon.
//!
//! Owns one node's contributed store and serves the framed wire protocol
//! over TCP until told to shut down:
//!
//! ```text
//! peerstripe-node --listen 127.0.0.1:0 --id node-3 --capacity-mb 256
//! ```
//!
//! The daemon announces `listening on ADDR` on stdout once bound (the ring
//! harness parses this to learn ephemeral ports), then serves forever.  A
//! `Shutdown` request drains in-flight connections and exits the process.
//! If the OS refuses a connection thread, the daemon closes what is open
//! and exits non-zero with that error.
//! A `GetStats` request returns the node's one account of itself, its
//! `NodeStats`.
#![deny(clippy::indexing_slicing)]

use peerstripe_net::{NodeConfig, NodeServer, NodeService};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use std::io::Write;

struct Args {
    listen: String,
    id: Id,
    capacity: ByteSize,
}

fn usage() -> ! {
    eprintln!(
        "usage: peerstripe-node [--listen ADDR] [--id NAME] [--capacity-mb N]\n\
         \n\
         Serves one node's contributed storage over framed TCP; a GetStats\n\
         scrape returns its capacity, use, per-op metrics and last 1024\n\
         requests with their durations.\n\
         --listen      bind address (default 127.0.0.1:0 = ephemeral port)\n\
         --id          node name, hashed into the overlay id space (default node-0)\n\
         --capacity-mb contributed capacity in MiB (default 256)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let defaults = NodeConfig::named("node-0", ByteSize::mb(256));
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        id: defaults.id,
        capacity: defaults.capacity,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) => v,
            None => {
                eprintln!("error: {flag} needs a value");
                usage()
            }
        };
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--id" => args.id = Id::hash(&value("--id")),
            "--capacity-mb" => match value("--capacity-mb").parse::<u64>() {
                Ok(mb) => args.capacity = ByteSize::mb(mb),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let service = NodeService::new(&NodeConfig {
        id: args.id,
        capacity: args.capacity,
    });
    let server = match NodeServer::bind(args.listen.as_str(), service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.listen);
            std::process::exit(1)
        }
    };
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("error: server failed: {e}");
        std::process::exit(1)
    }
}
