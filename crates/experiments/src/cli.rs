//! The `repro` command line, as two tables.  [`DRIVERS`] lists every
//! experiment driver, the `repro` sections each renders and the paper
//! artefact of each; `repro all` reads it, and so do the tier-1 tests that
//! pin each untimed section to its golden capture under `tests/golden/` and
//! README's paper → code mapping to the table.  [`TOOLS`] lists `repro`'s
//! other commands.  `repro`'s dispatch and `repro --help` read both.

use crate::availability::{run_availability, run_regeneration, ChurnConfig};
use crate::bench_snapshot::{check_snapshots, write_snapshots, BenchSnapshotConfig};
use crate::coding::{run_rs_sweep, run_table2, CodingConfig, RsSweepConfig};
use crate::condor::{run_table4, CondorConfig};
use crate::multicast_fig::{run_ransub_sweep, run_spread, MulticastConfig};
use crate::placement_sweep::{run_placement_sweep, PlacementSweepConfig};
use crate::repair_sweep::{run_repair_sweep, RepairSweepConfig};
use crate::report::{
    render_figure, render_figure10, render_figure11, render_figure12, render_insertion_load,
    render_placement_sweep, render_repair_sweep, render_rs_sweep, render_table1, render_table2,
    render_table3, render_table4,
};
use crate::ring_cmd::{render_ring_json, render_ring_text, run_ring, RingCmdConfig};
use crate::scale::Scale;
use crate::storesim::{run_store_comparison, StoreSimConfig};
use crate::trace_cmd::{
    render_summary_json, render_summary_text, run_trace, summarize, TraceCmdConfig, SCENARIOS,
};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};

/// One experiment driver: a run renders every one of its sections.
pub struct Driver {
    /// `(repro sub-command, paper artefact)` of each section one run
    /// renders, in `repro all` order.
    pub sections: &'static [(&'static str, &'static str)],
    /// The path of the function the sections map to, as README's mapping
    /// names it.
    pub path: &'static str,
    /// Whether the output holds wall-clock timings, which no golden can pin.
    pub timed: bool,
    /// Run the driver once and render all of its sections.
    pub run: fn(Scale, u64) -> Rendered,
}

/// One driver run, rendered.  `repro <name>` prints the named section after
/// [`header`]; `repro all` prints `lead` and then every section.
pub struct Rendered {
    /// What `repro all` prints ahead of the sections.
    lead: String,
    /// One rendering per section, each ending in a blank line.
    pub sections: Vec<String>,
}

/// A driver's one section, with no lead.
fn one(section: String) -> Rendered {
    Rendered {
        lead: String::new(),
        sections: vec![section + "\n"],
    }
}

/// Every experiment `repro` understands, in `repro all` order.
#[rustfmt::skip]
pub const DRIVERS: &[Driver] = &[
    Driver {
        sections: &[
            ("fig7", "Figure 7 (failed stores)"),
            ("fig8", "Figure 8 (failed data)"),
            ("fig9", "Figure 9 (utilization)"),
            ("table1", "Table 1 (chunk statistics)"),
        ],
        path: "experiments::storesim::run_store_comparison", timed: false,
        run: |scale, seed| {
            let cmp = run_store_comparison(&StoreSimConfig::at_scale(scale, seed));
            let lead = render_insertion_load(&cmp);
            let sections = [
                render_figure(&cmp.figure7()),
                render_figure(&cmp.figure8()),
                render_figure(&cmp.figure9()),
                render_table1(&cmp),
            ]
            .map(|section| section + "\n")
            .into();
            Rendered { lead, sections }
        },
    },
    Driver {
        sections: &[("fig10", "Figure 10 (availability)")],
        path: "experiments::availability::run_availability", timed: false,
        run: |scale, seed| {
            one(render_figure10(&run_availability(&ChurnConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[("table2", "Table 2 (erasure-code cost)")],
        path: "experiments::coding::run_table2", timed: true,
        run: |scale, seed| one(render_table2(&run_table2(&CodingConfig::at_scale(scale, seed)))),
    },
    Driver {
        sections: &[("rs-sweep", "§4.2 optimal-code comparison (RS (n, m) sweep)")],
        path: "experiments::coding::run_rs_sweep", timed: true,
        run: |scale, seed| {
            one(render_rs_sweep(&run_rs_sweep(&RsSweepConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[("table3", "Table 3 (churn regeneration)")],
        path: "experiments::availability::run_regeneration", timed: false,
        run: |scale, seed| {
            one(render_table3(&run_regeneration(&ChurnConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[(
            "repair-sweep",
            "§4.4 continuous churn & repair (policy × timeout × bandwidth)",
        )],
        path: "experiments::repair_sweep::run_repair_sweep", timed: false,
        run: |scale, seed| {
            one(render_repair_sweep(&run_repair_sweep(&RepairSweepConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[("placement-sweep", "Correlated grouped churn × placement strategy")],
        path: "experiments::placement_sweep::run_placement_sweep", timed: false,
        run: |scale, seed| {
            let sweep = run_placement_sweep(&PlacementSweepConfig::at_scale(scale, seed));
            one(render_placement_sweep(&sweep))
        },
    },
    Driver {
        sections: &[("fig11", "Figure 11 (RanSub sweep)")],
        path: "experiments::multicast_fig::run_ransub_sweep", timed: false,
        run: |scale, seed| {
            one(render_figure11(&run_ransub_sweep(&MulticastConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[("fig12", "Figure 12 (packet spread)")],
        path: "experiments::multicast_fig::run_spread", timed: false,
        run: |scale, seed| {
            one(render_figure12(&run_spread(&MulticastConfig::at_scale(scale, seed))))
        },
    },
    Driver {
        sections: &[("table4", "Table 4 (Condor bigCopy)")],
        path: "experiments::condor::run_table4", timed: false,
        run: |scale, seed| one(render_table4(&run_table4(&CondorConfig::at_scale(scale, seed)))),
    },
];

/// The driver that renders section `name`, and the section's index in it.
fn find(name: &str) -> Option<(&'static Driver, usize)> {
    DRIVERS.iter().find_map(|driver| {
        let at = driver
            .sections
            .iter()
            .position(|&(section, _)| section == name)?;
        Some((driver, at))
    })
}

/// The options of a `repro` command line; each tool reads the ones it takes.
pub struct Options {
    /// `--scale small|medium|paper`.
    pub scale: Scale,
    /// `--seed N`.
    pub seed: u64,
    /// `--format json` (or `text`, the default).
    pub json: bool,
    /// `--out DIR`.
    pub out_dir: Option<PathBuf>,
    /// `--scenario NAME`, one of [`SCENARIOS`].
    pub scenario: String,
    /// `--check`.
    pub check: bool,
    /// The trailing `FILE` of a tool that takes one.
    pub path: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Medium,
            seed: 42,
            json: false,
            out_dir: None,
            scenario: SCENARIOS[0].0.to_string(),
            check: false,
            path: None,
        }
    }
}

/// One `repro` command that is not an experiment.
pub struct Tool {
    /// `repro <name>`.
    pub name: &'static str,
    /// What `repro --help` lists after the name.  A leading `FILE` is a
    /// positional path the tool takes ([`Options::path`]).
    pub args: fn() -> String,
    /// Run the tool: `Ok(true)` when it passed, `Ok(false)` when the run
    /// found a fault (exit 1), `Err` when it could not run (exit 2, printed
    /// once as `repro <name>: …`).
    pub run: fn(&Options) -> Result<bool, String>,
}

impl Tool {
    /// Whether the command line gives the tool a `FILE`.
    pub fn takes_file(&self) -> bool {
        (self.args)().starts_with("FILE")
    }
}

/// The `--scale` and `--seed` options, as `repro --help` lists them.
const SCALE: &str = "[--scale small|medium|paper] [--seed N]";

/// Every `repro` command other than the experiments, in `--help` order.
pub const TOOLS: &[Tool] = &[
    Tool {
        name: "bench-snapshot",
        args: || format!("[--out DIR] {SCALE} [--check]"),
        run: bench_snapshot_tool,
    },
    Tool {
        name: "trace",
        args: || {
            let scenarios: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
            format!("[--scenario <{}>] {SCALE} [--out DIR]", scenarios.join("|"))
        },
        run: trace_tool,
    },
    Tool {
        name: "trace-summary",
        args: || "FILE [--format text|json]".to_string(),
        run: trace_summary_tool,
    },
    Tool {
        name: "ring",
        args: || format!("{SCALE} [--format text|json] [--out DIR]"),
        run: ring_tool,
    },
];

/// The tool `repro <name>` runs, if `name` is one.
pub fn tool(name: &str) -> Option<&'static Tool> {
    TOOLS.iter().find(|tool| tool.name == name)
}

/// Whether `repro <command>` takes `option`, read from its `--help` form: an
/// experiment takes `--scale` and `--seed`, a tool the `--` words of its
/// [`Tool::args`].
pub fn takes_option(command: &str, option: &str) -> bool {
    let form = tool(command).map_or_else(|| SCALE.to_string(), |tool| (tool.args)());
    let mut words = form
        .split_whitespace()
        .map(|word| word.trim_matches(['[', ']']));
    option.starts_with("--") && words.any(|word| word == option)
}

/// `--out DIR`, or else `under_root` in the workspace root: the first
/// directory up from the current one whose `Cargo.toml` lists `members`
/// (`bench/`'s stand-alone empty `[workspace]` does not count), falling
/// back to the location this crate was compiled from (covers `cargo run`
/// from anywhere inside the tree and from the target dir).
fn out_dir(options: &Options, under_root: &str) -> Result<PathBuf, String> {
    if let Some(dir) = &options.out_dir {
        return Ok(dir.clone());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let compiled_from = Path::new(env!("CARGO_MANIFEST_DIR"));
    cwd.ancestors()
        .chain(compiled_from.ancestors())
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|line| line.starts_with("members")))
        })
        .map(|root| root.join(under_root))
        .ok_or_else(|| format!("no workspace root found above {}", cwd.display()))
}

/// Write `contents` to `name` in `dir`, creating `dir` first; the file's
/// path.
fn write_in(dir: &Path, name: String, contents: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(name);
    std::fs::write(&file, contents).map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(file)
}

/// Write the BENCH_*.json perf snapshots under `<root>/benchmarks/` (or
/// `--out`); with `--check`, re-measure them and compare against the
/// committed ones instead: a regressed row is a fault (exit 1), a committed
/// file that cannot be read an error (exit 2, before anything is measured).
fn bench_snapshot_tool(options: &Options) -> Result<bool, String> {
    let dir = out_dir(options, "benchmarks")?;
    let config = BenchSnapshotConfig::at_scale(options.scale, options.seed);
    if options.check {
        let (passed, report) = check_snapshots(&dir, &config)?;
        if passed {
            out(&format!("{report}bench-snapshot check passed\n"));
        } else {
            eprintln!("repro bench-snapshot --check: {report}");
        }
        return Ok(passed);
    }
    eprintln!(
        "# capturing perf snapshots at {:?} nodes (seed {}) into {}",
        config.node_counts,
        config.seed,
        dir.display()
    );
    for path in write_snapshots(&dir, &config)? {
        out(&format!("wrote {}\n", path.display()));
    }
    Ok(true)
}

/// Run a scenario with the JSONL tracer and write the trace and its summary
/// next to each other, under `<root>/target/traces/` (or `--out`).
fn trace_tool(options: &Options) -> Result<bool, String> {
    let dir = out_dir(options, "target/traces")?;
    let artifacts = run_trace(&TraceCmdConfig {
        scenario: options.scenario.clone(),
        scale: options.scale,
        seed: options.seed,
    })?;
    let summary = summarize(&artifacts.jsonl)?;
    let stem = format!(
        "trace_{}_{}_seed{}",
        options.scenario, options.scale, options.seed
    );
    let summary_json = render_summary_json(&summary);
    for (name, contents) in [("jsonl", &artifacts.jsonl), ("summary.json", &summary_json)] {
        let file = write_in(&dir, format!("{stem}.{name}"), contents)?;
        out(&format!("wrote {}\n", file.display()));
    }
    out(&format!("\n{}", render_summary_text(&summary)));
    Ok(true)
}

/// Digest an existing trace into its causal loss breakdown.
fn trace_summary_tool(options: &Options) -> Result<bool, String> {
    let path =
        (options.path.as_ref()).ok_or_else(|| format!("a trace file is required\n{}", usage()))?;
    let jsonl =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let summary = summarize(&jsonl)?;
    if options.json {
        out(&(render_summary_json(&summary) + "\n"));
    } else {
        out(&render_summary_text(&summary));
    }
    Ok(true)
}

/// Spawn a localhost ring of real daemons, store a file through the
/// gateway, kill one daemon, and verify degraded read + repair.  Writes the
/// JSON report (per-RPC telemetry and cluster health) under `--out` when it
/// is given.  A lost chunk, an unattributed RPC, or a node the scrapes flag
/// (never reached, or a survivor gone stale) is a fault.
fn ring_tool(options: &Options) -> Result<bool, String> {
    let config = RingCmdConfig::at_scale(options.scale, options.seed);
    eprintln!(
        "# spawning {} localhost daemons, storing {} through the gateway",
        config.nodes, config.file_size
    );
    let report = run_ring(&config)?;
    if options.json {
        out(&(render_ring_json(&report) + "\n"));
    } else {
        out(&render_ring_text(&report));
    }
    if let Some(dir) = &options.out_dir {
        let name = format!("ring_{}_seed{}.json", options.scale, options.seed);
        let file = write_in(dir, name, &render_ring_json(&report))?;
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
    Ok(report.recovered
        && report.chunks_lost == 0
        && report.unattributed_rpcs == 0
        && unhealthy.is_empty())
}

/// Write `text` to standard output, where every `repro` command prints
/// what it found.  A reader that stops early (`repro … | head`) closes the
/// pipe, and nothing printed after that can reach anyone: the process ends
/// there, quietly and with status 0, where `print!` would panic.  Any other
/// write error ends it with status 2 and one line on stderr.
pub fn out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("repro: writing to stdout: {e}");
            std::process::exit(2);
        }
    }
}

/// `repro --help`: every form of the command, each `repro` in the same
/// column, then every experiment section with its paper artefact.
pub fn usage() -> String {
    let forms: Vec<String> = std::iter::once(format!("<experiment...|all> {SCALE}"))
        .chain(
            TOOLS
                .iter()
                .map(|tool| format!("{} {}", tool.name, (tool.args)())),
        )
        .map(|form| format!("repro {form}"))
        .collect();
    let experiments: String = DRIVERS
        .iter()
        .flat_map(|driver| driver.sections)
        .map(|(name, artefact)| format!("\n  {name:<17}{artefact}"))
        .collect();
    format!(
        "usage: {}\n\nexperiments (`all` runs every driver once):{experiments}",
        forms.join("\n       ")
    )
}

/// Whether `repro <exp>` runs an experiment: a section's name, or `all`.
pub fn is_experiment(exp: &str) -> bool {
    exp == "all" || find(exp).is_some()
}

/// What `repro <exp>` prints ahead of its sections.
pub fn header(exp: &str, scale: Scale, seed: u64) -> String {
    format!("# PeerStripe reproduction — experiment '{exp}' at scale '{scale}' (seed {seed})\n\n")
}

/// Run the named experiments in order, handing `emit` each one's
/// [`header`] and then its output, each driver's as soon as it finishes — so
/// an hours-long `all --scale paper` run streams its reports incrementally
/// instead of buffering them to the end.  A name is a section or `all`
/// (every driver once); a driver that renders several of the named sections
/// runs once, so `repro fig7 fig8` prints what `repro fig7` and `repro fig8`
/// print, for one store comparison.  An unknown name emits nothing.
pub fn run_experiments_with(exps: &[&str], scale: Scale, seed: u64, emit: &mut dyn FnMut(&str)) {
    let mut runs = Vec::new();
    for &exp in exps {
        if is_experiment(exp) {
            emit(&header(exp, scale, seed));
            report(exp, scale, seed, &mut runs, emit);
        }
    }
}

/// Emit experiment `exp`'s output, reusing a driver run from `runs` or
/// adding one to it.
fn report(
    exp: &str,
    scale: Scale,
    seed: u64,
    runs: &mut Vec<(&'static Driver, Rendered)>,
    emit: &mut dyn FnMut(&str),
) {
    if exp == "all" {
        for driver in DRIVERS {
            let rendered = (driver.run)(scale, seed);
            emit(&rendered.lead);
            for section in &rendered.sections {
                emit(section);
            }
        }
    } else if let Some((driver, at)) = find(exp) {
        let run = match runs.iter().position(|(ran, _)| std::ptr::eq(*ran, driver)) {
            Some(run) => run,
            None => {
                runs.push((driver, (driver.run)(scale, seed)));
                runs.len() - 1
            }
        };
        emit(&runs[run].1.sections[at]);
    }
}

/// Run the named experiment (or `all`) and return its full rendered report
/// without the header, or `None` when the name is unknown.  The buffered
/// entry point for tests and library callers.
pub fn run_experiment(exp: &str, scale: Scale, seed: u64) -> Option<String> {
    is_experiment(exp).then(|| {
        let mut out = String::new();
        report(exp, scale, seed, &mut Vec::new(), &mut |s| out.push_str(s));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(!is_experiment("bogus"));
        assert!(run_experiment("bogus", Scale::Small, 1).is_none());
    }

    #[test]
    fn several_sections_print_what_each_prints_alone() {
        let names = ["table4", "fig12", "table4"];
        let mut together = String::new();
        run_experiments_with(&names, Scale::Small, 42, &mut |s| together.push_str(s));
        let alone: String = names
            .iter()
            .map(|name| {
                header(name, Scale::Small, 42) + &run_experiment(name, Scale::Small, 42).unwrap()
            })
            .collect();
        assert_eq!(together, alone);
    }

    #[test]
    fn a_command_takes_the_options_its_help_form_lists() {
        let all = [
            "--scale",
            "--seed",
            "--format",
            "--out",
            "--scenario",
            "--check",
        ];
        let takes: [(&str, &[&str]); 5] = [
            ("bench-snapshot", &["--out", "--scale", "--seed", "--check"]),
            ("trace", &["--scenario", "--scale", "--seed", "--out"]),
            ("trace-summary", &["--format"]),
            ("ring", &["--scale", "--seed", "--format", "--out"]),
            ("table4", &["--scale", "--seed"]),
        ];
        let named: Vec<&str> = takes.iter().map(|&(command, _)| command).collect();
        assert!(TOOLS.iter().all(|tool| named.contains(&tool.name)));
        assert!(is_experiment("table4"));
        for (command, options) in takes {
            for option in all {
                assert_eq!(
                    takes_option(command, option),
                    options.contains(&option),
                    "repro {command} {option}"
                );
            }
            assert!(
                !takes_option(command, "FILE"),
                "{command}: FILE is no option"
            );
        }
    }

    fn run_tool(name: &str, options: &Options) -> Result<bool, String> {
        (tool(name).unwrap().run)(options)
    }

    #[test]
    fn a_tool_that_cannot_run_returns_its_message() {
        let bogus = Options {
            scenario: "bogus".to_string(),
            ..Options::default()
        };
        assert_eq!(
            run_tool("trace", &bogus),
            Err("unknown trace scenario 'bogus' \
                 (expected one of [\"placement-outage\", \"repair-mini\"])"
                .to_string())
        );
        assert_eq!(
            run_tool("trace-summary", &Options::default()),
            Err(format!("a trace file is required\n{}", usage()))
        );

        let dir = std::env::temp_dir().join(format!("repro_tools_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.jsonl");
        let not_found = std::fs::read_to_string(&missing).unwrap_err();
        let summarize = |path: &Path| {
            let options = Options {
                path: Some(path.to_path_buf()),
                ..Options::default()
            };
            run_tool("trace-summary", &options)
        };
        assert_eq!(
            summarize(&missing),
            Err(format!("read {}: {not_found}", missing.display()))
        );
        let headerless = dir.join("headerless.jsonl");
        std::fs::write(&headerless, "").unwrap();
        assert_eq!(
            summarize(&headerless),
            Err("trace has no manifest header record".to_string())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
