//! The repo benchmark: store / fetch / node loss on a live ring of
//! `peerstripe-node` processes, and 10 000-node churn in the simulator,
//! measured end to end and layer by layer.  See `bench/README.md`.
//!
//! ```text
//! peerstripe-e2e --workload W --seed N --seconds S --trace 0|1   one pass
//! peerstripe-e2e [--workload W] [--seed N] [--repeat R] [--smoke]  both passes,
//!                                              each in a process of its own
//! peerstripe-e2e compare DIR_A DIR_B
//! ```

mod awake;
mod compare;
mod metrics;
mod probes;
mod procfs;
mod ring;
mod sim;
mod span;
mod stats;
mod traced;

use metrics::{num, Better, Measured, END_TO_END, PER_LAYER};
use peerstripe_erasure::Gf256Kernel;
use ring::RingParams;
use serde::value::Value;
use sim::SimParams;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "ring_large_file",
    "ring_small_file",
    "ring_node_loss",
    "sim_churn_10k",
];

/// Seconds one pass measures when `--seconds` is not given; `run_seconds`
/// in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// One pass of one workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Where this pass's result document goes.
    fn result_path(&self) -> PathBuf {
        let pass = u8::from(self.trace);
        self.out_dir
            .join(format!("{}.trace{pass}.json", self.workload))
    }

    /// Write the traced pass's spans, now that it has ended.
    pub fn write_trace(&self, spans: &[span::Span]) -> Result<(), String> {
        let path = self.out_dir.join(format!("{}.trace.jsonl", self.workload));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.out_dir)?;
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            span::write_jsonl(spans, &mut out)?;
            std::io::Write::flush(&mut out)
        };
        write().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one pass found.
pub struct Outcome {
    /// No read returned wrong bytes, nothing leaked, the simulation repeated.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    /// Untraced samples behind each timed operation's median.
    pub samples: Vec<(String, u64)>,
    pub metrics: Measured,
}

fn run_pass(args: &RunArgs) -> Result<Outcome, String> {
    let _awake = awake::KeepAwake::start();
    const KIB: usize = 1024;
    const MIB: usize = 1024 * KIB;
    let s = args.smoke;
    let ring = |nodes, file_bytes, files, warm, domain_spread| RingParams {
        nodes,
        file_bytes,
        files,
        warm,
        domain_spread,
    };
    match args.workload.as_str() {
        "ring_large_file" if s => ring::run(&ring(8, 4 * MIB, 2, 1, false), args),
        "ring_large_file" => ring::run(&ring(8, 16 * MIB, 4, 1, false), args),
        "ring_small_file" if s => ring::run(&ring(8, 256 * KIB, 8, 2, false), args),
        "ring_small_file" => ring::run(&ring(8, 256 * KIB, 64, 8, false), args),
        "ring_node_loss" if s => ring::run(&ring(12, MIB, 4, 1, true), args),
        "ring_node_loss" => ring::run(&ring(12, MIB, 32, 2, true), args),
        "sim_churn_10k" => {
            let p = if s {
                SimParams {
                    nodes: 1_000,
                    group: 100,
                    files: 200,
                    hours: 6,
                }
            } else {
                SimParams {
                    nodes: 10_000,
                    group: 1_000,
                    files: 4_000,
                    hours: 24,
                }
            };
            sim::run(&p, args)
        }
        other => Err(format!(
            "unknown workload {other}; one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The machine and toolchain a result was measured on.
fn fingerprint() -> Value {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Value::Obj(vec![
        ("cpus".to_string(), num(cpus as f64)),
        ("rustc".to_string(), Value::Str(rustc)),
        (
            "gf256_lane".to_string(),
            Value::Str(Gf256Kernel::best().lane_label().to_string()),
        ),
    ])
}

/// The metric table a pass reports: per-layer when traced, else end-to-end.
fn table(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// One pass in this process: every metric is printed by name with its unit,
/// the result document (metrics, sample counts, seed, seconds, rounds, wall
/// time, fingerprint) goes to `<out>/<workload>.trace<0|1>.json`, and the
/// driver's result object is the last line on stdout.
fn single_pass(args: &RunArgs) -> Result<bool, String> {
    let started = Instant::now();
    let outcome = run_pass(args)?;
    println!(
        "{} seed {} — {} pass, {} rounds, {} operations, {} failed, outputs {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.rounds,
        outcome.attempted,
        outcome.failed,
        if outcome.correct { "correct" } else { "WRONG" }
    );
    let table = table(args.trace);
    for (name, unit) in &table {
        println!("  {name:<48} {:>16.6} {unit}", outcome.metrics.get(name));
    }
    for (op, n) in &outcome.samples {
        println!("  samples.{op:<40} {n:>16}");
    }

    let metrics = outcome
        .metrics
        .to_value(table.iter().map(|(name, _)| *name));
    let samples = outcome
        .samples
        .iter()
        .map(|(op, n)| (op.clone(), num(*n as f64)))
        .collect();
    let result = vec![
        ("correct".to_string(), Value::Bool(outcome.correct)),
        ("attempted".to_string(), num(outcome.attempted as f64)),
        ("failed".to_string(), num(outcome.failed as f64)),
        ("metrics".to_string(), metrics),
    ];
    let mut document = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), num(args.seed as f64)),
        ("seconds".to_string(), num(args.seconds)),
        ("wall_s".to_string(), num(started.elapsed().as_secs_f64())),
        ("fingerprint".to_string(), fingerprint()),
        ("rounds".to_string(), num(outcome.rounds as f64)),
        ("samples".to_string(), Value::Obj(samples)),
    ];
    document.extend(result.iter().cloned());
    let json = |v: Value| serde_json::to_string(&v).map_err(|e| e.to_string());
    let path = args.result_path();
    let text = json(Value::Obj(document))? + "\n";
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", json(Value::Obj(result))?);
    Ok(outcome.correct && outcome.failed == 0)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse_cli(mut it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out_dir: PathBuf::from("bench/out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=16).contains(n))
                    .ok_or(bad(&v))?;
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

/// Both passes of every selected workload, `--repeat` times, each pass in
/// a process of its own — exactly what the driver runs, so peak memory and
/// allocator state never carry over from one pass to the next.  With more
/// than one set, each later set is compared with the first.
fn full_run(cli: &Cli) -> Result<bool, String> {
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 0.5 } else { DEFAULT_SECONDS });
    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let set_dir = |set: usize| {
        if cli.repeat == 1 {
            cli.out_dir.clone()
        } else {
            cli.out_dir.join(format!("set{set}"))
        }
    };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    for set in 1..=cli.repeat {
        for workload in &workloads {
            // The traced pass is the shorter one: its medians feed no bound.
            for (trace, seconds) in [("0", seconds), ("1", seconds / 2.0)] {
                let mut pass = Command::new(&exe);
                pass.args(["--workload", workload, "--trace", trace])
                    .args(["--seed", &cli.seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out")
                    .arg(set_dir(set));
                if cli.smoke {
                    pass.arg("--smoke");
                }
                let status = pass.status().map_err(|e| format!("running a pass: {e}"))?;
                match status.code() {
                    Some(0) => {}
                    Some(1) => ok = false,
                    _ => {
                        return Err(format!(
                            "{workload} --trace {trace}: pass ended with {status}"
                        ))
                    }
                }
            }
        }
    }
    for set in 2..=cli.repeat {
        println!("\nset 1 against set {set}:");
        ok &= compare::run(&set_dir(1), &set_dir(set))? == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("compare") {
        match (argv.nth(1), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => {
                compare::run(Path::new(&a), Path::new(&b)).map(|bad| bad == 0)
            }
            _ => Err("usage: compare DIR_A DIR_B".to_string()),
        }
    } else {
        parse_cli(argv).and_then(|cli| match (&cli.workload, cli.trace) {
            (Some(workload), Some(trace)) => single_pass(&RunArgs {
                workload: workload.clone(),
                seed: cli.seed,
                seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
                trace,
                smoke: cli.smoke,
                out_dir: cli.out_dir.clone(),
            }),
            (None, Some(_)) => Err("--trace needs --workload".to_string()),
            _ => full_run(&cli),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_reads_the_drivers_arguments() {
        let c = cli(&[
            "--workload",
            "ring_small_file",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("ring_small_file"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(20.0), Some(true)));
        let d = cli(&[]).unwrap();
        assert_eq!((d.seed, d.repeat, d.trace, d.smoke), (42, 1, None, false));
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} must be refused");
        }
    }

    /// All four workloads, both passes, tiny counts, real daemons.
    #[test]
    fn smoke_exercises_every_workload_and_both_passes() {
        if peerstripe_net::node_binary().is_none() {
            eprintln!(
                "skipped: no peerstripe-node next to the test binary; run with \
                 CARGO_TARGET_DIR=.bench_build --release after bench/run.sh, \
                 or set PEERSTRIPE_NODE_BIN"
            );
            return;
        }
        let out_dir = std::env::temp_dir().join(format!("peerstripe-e2e-{}", std::process::id()));
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let outcome = run_pass(&args).unwrap();
                assert!(outcome.correct, "{workload} trace {trace}");
                assert_eq!(outcome.failed, 0, "{workload} trace {trace}");
                assert!(outcome.attempted > 0);
                if trace {
                    assert!(out_dir.join(format!("{workload}.trace.jsonl")).exists());
                    assert!(outcome.metrics.get("placement.plan_chunk_p50_us") > 0.0);
                } else {
                    for m in END_TO_END {
                        assert!(
                            outcome.metrics.get(m.name) > 0.0,
                            "{workload}: {} is 0",
                            m.name
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(out_dir);
    }
}
