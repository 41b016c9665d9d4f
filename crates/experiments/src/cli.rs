//! The `repro` experiments, as one table: [`DRIVERS`] lists every driver,
//! the `repro` sections each renders and the paper artefact of each.
//! `repro`'s dispatch, `repro all` and `repro --help` read it, and so do the
//! tier-1 tests that pin each untimed section to its golden capture under
//! `tests/golden/` and README's paper → code mapping to the table.

use crate::availability::{run_availability, run_regeneration, ChurnConfig};
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
use crate::scale::Scale;
use crate::storesim::{run_store_comparison, StoreSimConfig};

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

/// `repro --help`: every form of the command, each `repro` in the same
/// column, then every experiment section with its paper artefact.
pub fn usage() -> String {
    let scale = "[--scale small|medium|paper] [--seed N]";
    let scenarios = crate::trace_cmd::SCENARIOS.join("|");
    let forms = [
        format!("<experiment...|all> {scale}"),
        format!("bench-snapshot [--out DIR] {scale} [--check]"),
        format!("trace [--scenario <{scenarios}>] {scale} [--out DIR]"),
        "trace-summary FILE [--format text|json]".to_string(),
        format!("ring {scale} [--format text|json] [--out DIR]"),
    ];
    let forms: Vec<String> = forms.iter().map(|form| format!("repro {form}")).collect();
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
}
