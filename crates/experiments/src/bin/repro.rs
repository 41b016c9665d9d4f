//! `repro` — regenerate the paper's tables and figures from the command line.
//!
//! ```text
//! repro <experiment>... [--scale small|medium|paper] [--seed N]
//! repro bench-snapshot [--out DIR] [--scale small|medium|paper] [--seed N]
//! repro trace [--scenario NAME] [--scale ...] [--seed N] [--out DIR]
//! repro trace-summary FILE [--format text|json]
//!
//! experiments (`cli::DRIVERS` is their one list; `repro --help` prints it):
//!   <section>...            named sections, each driver run once
//!   all                     every driver once, in table order
//!
//! tooling:
//!   bench-snapshot          capture BENCH_*.json perf snapshots under benchmarks/
//!   trace                   run a named scenario with the JSONL tracer attached;
//!                           writes the trace and its summary
//!   trace-summary           digest a .jsonl trace into causal loss breakdowns
//!   ring                    spawn localhost peerstripe-node daemons, store and
//!                           recover a file through a real node kill, and
//!                           report cluster health scraped before and after
//!                           and each phase's RPCs and daemon contents
//! ```

use peerstripe_experiments::cli::{self, run_experiments_with};
use peerstripe_experiments::Scale;
use std::io::Write as _;

struct Args {
    experiment: String,
    /// `repro <section> <section>...`: the sections after the first.
    more: Vec<String>,
    scale: Scale,
    seed: u64,
    /// `--format json` (`repro ring`, `repro trace-summary`)
    json: bool,
    /// `repro bench-snapshot --out DIR` / `repro trace --out DIR`
    out_dir: Option<std::path::PathBuf>,
    /// `repro trace --scenario NAME`
    scenario: String,
    /// `repro bench-snapshot --check`
    check: bool,
    /// `repro trace-summary FILE`: the trailing positional path.
    path: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment: Option<String> = None;
    let mut more = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed = 42u64;
    let mut json = false;
    let mut out_dir = None;
    let mut scenario = "placement-outage".to_string();
    let mut check = false;
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&value).ok_or(format!("unknown scale '{value}'"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => return Err(format!("--format must be text or json, got {other:?}")),
            },
            "--out" => {
                let value = args.next().ok_or("--out needs a directory")?;
                out_dir = Some(std::path::PathBuf::from(value));
            }
            "--scenario" => {
                scenario = args.next().ok_or("--scenario needs a value")?;
            }
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{}", cli::usage());
                std::process::exit(0);
            }
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other if experiment.as_deref() == Some("trace-summary") && path.is_none() => {
                path = Some(std::path::PathBuf::from(other));
            }
            other if experiment.as_deref().is_some_and(cli::is_experiment) => {
                more.push(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'\n{}", cli::usage())),
        }
    }
    Ok(Args {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
        more,
        scale,
        seed,
        json,
        out_dir,
        scenario,
        check,
        path,
    })
}

/// The workspace root: walk up from the current directory to the first
/// `Cargo.toml` whose `[workspace]` lists `members` (`bench/`'s stand-alone
/// empty `[workspace]` does not count), falling back to the location this
/// crate was compiled from (covers `cargo run` from anywhere inside the tree
/// and from the target dir).
fn workspace_root() -> Result<std::path::PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let compiled_from = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    cwd.ancestors()
        .chain(compiled_from.ancestors())
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.starts_with("members")))
        })
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))
}

/// `repro bench-snapshot`: write BENCH_*.json under `<root>/benchmarks/`.
fn run_bench_snapshot(args: &Args) -> ! {
    let dir = match &args.out_dir {
        Some(dir) => dir.clone(),
        None => match workspace_root() {
            Ok(root) => root.join("benchmarks"),
            Err(msg) => {
                eprintln!("repro bench-snapshot: {msg}");
                std::process::exit(2);
            }
        },
    };
    let config = peerstripe_experiments::bench_snapshot::BenchSnapshotConfig::at_scale(
        args.scale, args.seed,
    );
    if args.check {
        // Regression check: re-measure all five snapshot hot paths (repair
        // engine, detector decide, placement decide, RS encode, wire round
        // trip) and compare against the committed snapshots instead of
        // overwriting them.
        match peerstripe_experiments::bench_snapshot::check_snapshots(&dir, &config) {
            Ok(report) => {
                print!("{report}");
                println!("bench-snapshot check passed");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("repro bench-snapshot --check: {msg}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "# capturing perf snapshots at {:?} nodes (seed {}) into {}",
        config.node_counts,
        config.seed,
        dir.display()
    );
    match peerstripe_experiments::bench_snapshot::write_snapshots(&dir, &config) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {}", path.display());
            }
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("repro bench-snapshot: {msg}");
            std::process::exit(2);
        }
    }
}

/// `repro trace`: run a scenario with the JSONL tracer and write the trace
/// and its summary next to each other.
fn run_trace(args: &Args) -> ! {
    let dir = match &args.out_dir {
        Some(dir) => dir.clone(),
        None => match workspace_root() {
            Ok(root) => root.join("target").join("traces"),
            Err(msg) => {
                eprintln!("repro trace: {msg}");
                std::process::exit(2);
            }
        },
    };
    let config = peerstripe_experiments::trace_cmd::TraceCmdConfig {
        scenario: args.scenario.clone(),
        scale: args.scale,
        seed: args.seed,
    };
    let artifacts = match peerstripe_experiments::trace_cmd::run_trace(&config) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("repro trace: {msg}");
            std::process::exit(2);
        }
    };
    let summary = match peerstripe_experiments::trace_cmd::summarize(&artifacts.jsonl) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("repro trace: {msg}");
            std::process::exit(2);
        }
    };
    let stem = format!("trace_{}_{}_seed{}", args.scenario, args.scale, args.seed);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("repro trace: create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let writes = [
        (dir.join(format!("{stem}.jsonl")), artifacts.jsonl.clone()),
        (
            dir.join(format!("{stem}.summary.json")),
            peerstripe_experiments::trace_cmd::render_summary_json(&summary),
        ),
    ];
    for (file, contents) in &writes {
        if let Err(e) = std::fs::write(file, contents) {
            eprintln!("repro trace: write {}: {e}", file.display());
            std::process::exit(2);
        }
        println!("wrote {}", file.display());
    }
    print!(
        "\n{}",
        peerstripe_experiments::trace_cmd::render_summary_text(&summary)
    );
    std::process::exit(0);
}

/// `repro ring`: spawn a localhost ring of real daemons, store a file
/// through the gateway, kill one daemon, and verify degraded read + repair.
/// Writes the JSON report (per-RPC telemetry and cluster health) when
/// `--out` is given.  Exits 1 on a lost chunk, an unattributed RPC, or a
/// node the scrapes flag (never reached, or a survivor gone stale).
fn run_ring(args: &Args) -> ! {
    let config = peerstripe_experiments::ring_cmd::RingCmdConfig::at_scale(args.scale, args.seed);
    eprintln!(
        "# spawning {} localhost daemons, storing {} through the gateway",
        config.nodes, config.file_size
    );
    let report = match peerstripe_experiments::ring_cmd::run_ring(&config) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("repro ring: {msg}");
            std::process::exit(2);
        }
    };
    if args.json {
        println!(
            "{}",
            peerstripe_experiments::ring_cmd::render_ring_json(&report)
        );
    } else {
        print!(
            "{}",
            peerstripe_experiments::ring_cmd::render_ring_text(&report)
        );
    }
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro ring: create {}: {e}", dir.display());
            std::process::exit(2);
        }
        let file = dir.join(format!("ring_{}_seed{}.json", args.scale, args.seed));
        if let Err(e) = std::fs::write(
            &file,
            peerstripe_experiments::ring_cmd::render_ring_json(&report),
        ) {
            eprintln!("repro ring: write {}: {e}", file.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", file.display());
    }
    if report.unattributed_rpcs > 0 {
        eprintln!(
            "repro ring: {} of {} gateway RPCs unattributed (no node op-log entry joins their request id)",
            report.unattributed_rpcs, report.gateway_rpcs_logged
        );
    }
    let unhealthy = report.unhealthy_nodes();
    if !unhealthy.is_empty() {
        eprintln!("repro ring: unhealthy nodes: {}", unhealthy.join(" "));
    }
    std::process::exit(
        if report.recovered
            && report.chunks_lost == 0
            && report.unattributed_rpcs == 0
            && unhealthy.is_empty()
        {
            0
        } else {
            1
        },
    );
}

/// `repro trace-summary FILE`: digest an existing trace.
fn run_trace_summary(args: &Args) -> ! {
    let Some(path) = &args.path else {
        eprintln!(
            "repro trace-summary: a trace file is required\n{}",
            cli::usage()
        );
        std::process::exit(2);
    };
    let jsonl = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro trace-summary: read {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    match peerstripe_experiments::trace_cmd::summarize(&jsonl) {
        Ok(summary) => {
            if args.json {
                println!(
                    "{}",
                    peerstripe_experiments::trace_cmd::render_summary_json(&summary)
                );
            } else {
                print!(
                    "{}",
                    peerstripe_experiments::trace_cmd::render_summary_text(&summary)
                );
            }
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("repro trace-summary: {msg}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match args.experiment.as_str() {
        "bench-snapshot" => run_bench_snapshot(&args),
        "trace" => run_trace(&args),
        "trace-summary" => run_trace_summary(&args),
        "ring" => run_ring(&args),
        _ => {}
    }
    let experiments: Vec<&str> = std::iter::once(&args.experiment)
        .chain(&args.more)
        .map(String::as_str)
        .collect();
    if let Some(unknown) = experiments.iter().find(|exp| !cli::is_experiment(exp)) {
        eprintln!("unknown experiment '{unknown}'\n{}", cli::usage());
        std::process::exit(2);
    }
    // Stream each driver's sections as it finishes (an `all --scale paper`
    // run takes hours; buffering would hide every result until the end).
    let mut emit = |section: &str| {
        print!("{section}");
        let _ = std::io::stdout().flush();
    };
    run_experiments_with(&experiments, args.scale, args.seed, &mut emit);
}
