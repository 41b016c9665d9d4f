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
#![deny(clippy::indexing_slicing)]

use peerstripe_net::{NodeConfig, NodeServer, NodeService, ServerConfig};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use std::io::Write;
use std::time::Duration;

struct Args {
    listen: String,
    id: Id,
    capacity: ByteSize,
    report_fraction: f64,
    read_timeout: Duration,
    op_log_capacity: usize,
    slow_ms: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: peerstripe-node [--listen ADDR] [--id NAME] [--capacity-mb N] \
         [--report-fraction F] [--read-timeout-ms N] [--op-log N] [--slow-ms F]\n\
         \n\
         Serves one node's contributed storage over framed TCP.\n\
         --listen          bind address (default 127.0.0.1:0 = ephemeral port)\n\
         --id              node name, hashed into the overlay id space (default node-0)\n\
         --capacity-mb     contributed capacity in MiB (default 256)\n\
         --report-fraction fraction of free space getCapacity advertises (default 1.0)\n\
         --read-timeout-ms idle-connection read timeout (default 30000)\n\
         --op-log          recent requests kept for GetStats scrapes (default 1024)\n\
         --slow-ms         threshold flagging a request slow (default 100)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let defaults = NodeConfig::named("node-0", ByteSize::mb(256));
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        id: defaults.id,
        capacity: defaults.capacity,
        report_fraction: defaults.report_fraction,
        read_timeout: Duration::from_secs(30),
        op_log_capacity: defaults.op_log_capacity,
        slow_ms: defaults.slow_ms,
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
            "--report-fraction" => match value("--report-fraction").parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => args.report_fraction = f,
                _ => usage(),
            },
            "--read-timeout-ms" => match value("--read-timeout-ms").parse::<u64>() {
                Ok(ms) => args.read_timeout = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--op-log" => match value("--op-log").parse::<usize>() {
                Ok(n) if n > 0 => args.op_log_capacity = n,
                _ => usage(),
            },
            "--slow-ms" => match value("--slow-ms").parse::<f64>() {
                Ok(f) if f >= 0.0 => args.slow_ms = f,
                _ => usage(),
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
        report_fraction: args.report_fraction,
        op_log_capacity: args.op_log_capacity,
        slow_ms: args.slow_ms,
    });
    let config = ServerConfig {
        read_timeout: args.read_timeout,
        ..ServerConfig::default()
    };
    let server = match NodeServer::bind(args.listen.as_str(), service, config) {
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
