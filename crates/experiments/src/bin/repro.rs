//! `repro` — regenerate the paper's tables and figures from the command line.
//!
//! ```text
//! repro <experiment>... [--scale small|medium|paper] [--seed N]
//! repro <tool> [options]
//! ```
//!
//! The experiments are `cli::DRIVERS`' sections, and `all` runs every driver
//! once; the tools are `cli::TOOLS`.  `repro --help` prints both lists, with
//! each tool's options, and a command takes only the options its form there
//! lists (`cli::takes_option`).  This file only parses the command line: an
//! argument error exits 2, a tool exits as its `run` says, and a reader that
//! closes the pipe early ends the run quietly (`cli::out`).

use peerstripe_experiments::cli::{self, run_experiments_with, Options};
use peerstripe_experiments::Scale;

struct Args {
    command: String,
    /// `repro <section> <section>...`: the sections after the first.
    more: Vec<String>,
    options: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut command: Option<String> = None;
    let mut more = Vec::new();
    let mut options = Options::default();
    let mut given = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            given.push(arg.clone());
        }
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                options.scale = Scale::parse(&value).ok_or(format!("unknown scale '{value}'"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                options.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => options.json = true,
                Some("text") => options.json = false,
                other => return Err(format!("--format must be text or json, got {other:?}")),
            },
            "--out" => {
                let value = args.next().ok_or("--out needs a directory")?;
                options.out_dir = Some(std::path::PathBuf::from(value));
            }
            "--scenario" => {
                options.scenario = args.next().ok_or("--scenario needs a value")?;
            }
            "--check" => options.check = true,
            "--help" | "-h" => {
                cli::out(&(cli::usage() + "\n"));
                std::process::exit(0);
            }
            other if command.is_none() => command = Some(other.to_string()),
            other
                if options.path.is_none()
                    && command
                        .as_deref()
                        .and_then(cli::tool)
                        .is_some_and(cli::Tool::takes_file) =>
            {
                options.path = Some(std::path::PathBuf::from(other));
            }
            other if command.as_deref().is_some_and(cli::is_experiment) => {
                more.push(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'\n{}", cli::usage())),
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    let known = cli::tool(&command).is_some() || cli::is_experiment(&command);
    let refused = given.iter().find(|o| !cli::takes_option(&command, o));
    if let Some(option) = refused.filter(|_| known) {
        let usage = cli::usage();
        return Err(format!("repro {command} takes no {option}\n{usage}"));
    }
    Ok(Args {
        command,
        more,
        options,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(tool) = cli::tool(&args.command) {
        let code = match (tool.run)(&args.options) {
            Ok(passed) => i32::from(!passed),
            Err(msg) => {
                eprintln!("repro {}: {msg}", tool.name);
                2
            }
        };
        std::process::exit(code);
    }
    let experiments: Vec<&str> = std::iter::once(&args.command)
        .chain(&args.more)
        .map(String::as_str)
        .collect();
    if let Some(unknown) = experiments.iter().find(|exp| !cli::is_experiment(exp)) {
        eprintln!("unknown experiment '{unknown}'\n{}", cli::usage());
        std::process::exit(2);
    }
    // Stream each driver's sections as it finishes (an `all --scale paper`
    // run takes hours; buffering would hide every result until the end).
    run_experiments_with(
        &experiments,
        args.options.scale,
        args.options.seed,
        &mut cli::out,
    );
}
