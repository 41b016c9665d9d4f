//! Per-phase wall-clock profiling.
//!
//! This module is the *only* sim-facing code sanctioned to read the host
//! clock: it carries a module-level `#![expect]` for
//! `clippy::disallowed_methods` (which lists `Instant::now`), as
//! `bench_snapshot.rs` does.  Everything else merely carries the opaque
//! [`ProfToken`]s handed out here — passing an `Instant` around is legal under
//! the lint; *creating* one is not.
//!
//! Wall time never feeds simulation state: the profiler accumulates
//! per-[`Phase`] elapsed nanoseconds off to the side, and a disabled profiler
//! (the default) hands out empty tokens so instrumented code pays only a
//! branch.
#![expect(
    clippy::disallowed_methods,
    reason = "the profiler's job is wall time, kept off to the side of simulation state"
)]

use crate::metrics::MetricsRegistry;
use std::time::Instant;

/// The engine phases the profiler attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The maintenance event loop's dispatch (everything not broken out below).
    EventDispatch,
    /// Detection-policy verdicts (`DetectionPolicy::decide`).
    DetectorDecide,
    /// Repair-transfer scheduling (`RepairScheduler::schedule`).
    Scheduler,
    /// Placement-target selection (`PlacementStrategy::repair_targets`).
    Placement,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 4] = [
        Phase::EventDispatch,
        Phase::DetectorDecide,
        Phase::Scheduler,
        Phase::Placement,
    ];

    /// Stable label for reports and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Phase::EventDispatch => "event_dispatch",
            Phase::DetectorDecide => "detector_decide",
            Phase::Scheduler => "scheduler",
            Phase::Placement => "placement",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// An opaque scope token: holds the start instant when profiling is on,
/// nothing when it is off.  Produced by [`PhaseProfiler::begin`], consumed by
/// [`PhaseProfiler::end`].
#[derive(Debug)]
pub struct ProfToken(Option<Instant>);

/// Accumulates per-phase wall-clock nanoseconds and call counts.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    nanos: [u64; 4],
    calls: [u64; 4],
}

impl PhaseProfiler {
    /// A profiler; disabled profilers hand out empty tokens and never read
    /// the clock.
    pub fn new(enabled: bool) -> Self {
        PhaseProfiler {
            enabled,
            ..Self::default()
        }
    }

    /// Whether timings are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a scope.  Cheap when disabled: no clock read, just a `None`.
    pub fn begin(&self) -> ProfToken {
        ProfToken(if self.enabled {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Close a scope, attributing its elapsed time to `phase`.
    pub fn end(&mut self, phase: Phase, token: ProfToken) {
        if let Some(start) = token.0 {
            let i = phase.index();
            if let (Some(n), Some(c)) = (self.nanos.get_mut(i), self.calls.get_mut(i)) {
                *n += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                *c += 1;
            }
        }
    }

    /// Accumulated nanoseconds for a phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.nanos.get(phase.index()).copied().unwrap_or(0)
    }

    /// Closed scopes for a phase.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.calls.get(phase.index()).copied().unwrap_or(0)
    }

    /// Fold another profiler's accumulations into this one.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (mine, theirs) in self.nanos.iter_mut().zip(&other.nanos) {
            *mine += theirs;
        }
        for (mine, theirs) in self.calls.iter_mut().zip(&other.calls) {
            *mine += theirs;
        }
    }

    /// Export the accumulated timings as gauges
    /// (`profile_phase_ms{phase=...}`, `profile_phase_calls{phase=...}`).
    pub fn fill_registry(&self, registry: &mut MetricsRegistry) {
        for phase in Phase::ALL {
            let labels = [("phase", phase.label())];
            let ms = registry.gauge("profile_phase_ms", &labels);
            registry.set(ms, self.phase_nanos(phase) as f64 / 1e6);
            let calls = registry.gauge("profile_phase_calls", &labels);
            registry.set(calls, self.phase_calls(phase) as f64);
        }
    }

    /// Human-readable per-phase breakdown, one line per phase.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for phase in Phase::ALL {
            let nanos = self.phase_nanos(phase);
            let calls = self.phase_calls(phase);
            let mean_us = if calls == 0 {
                0.0
            } else {
                nanos as f64 / calls as f64 / 1e3
            };
            out.push_str(&format!(
                "{:<16} {:>12.3} ms {:>12} calls {:>10.3} us/call\n",
                phase.label(),
                nanos as f64 / 1e6,
                calls,
                mean_us,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let mut prof = PhaseProfiler::new(false);
        let token = prof.begin();
        prof.end(Phase::Scheduler, token);
        assert_eq!(prof.phase_calls(Phase::Scheduler), 0);
        assert_eq!(prof.phase_nanos(Phase::Scheduler), 0);
    }

    #[test]
    fn enabled_profiler_counts_scopes() {
        let mut prof = PhaseProfiler::new(true);
        for _ in 0..3 {
            let token = prof.begin();
            prof.end(Phase::Placement, token);
        }
        assert_eq!(prof.phase_calls(Phase::Placement), 3);
        assert_eq!(prof.phase_calls(Phase::Scheduler), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PhaseProfiler::new(true);
        let t = a.begin();
        a.end(Phase::Scheduler, t);
        let mut b = PhaseProfiler::new(true);
        let t = b.begin();
        b.end(Phase::Scheduler, t);
        a.merge(&b);
        assert_eq!(a.phase_calls(Phase::Scheduler), 2);
    }

    #[test]
    fn registry_export_covers_every_phase() {
        let mut prof = PhaseProfiler::new(true);
        let t = prof.begin();
        prof.end(Phase::EventDispatch, t);
        let mut reg = MetricsRegistry::new();
        prof.fill_registry(&mut reg);
        assert_eq!(
            reg.find_gauge("profile_phase_calls", &[("phase", "event_dispatch")]),
            Some(1.0)
        );
        for phase in Phase::ALL {
            assert!(reg
                .find_gauge("profile_phase_ms", &[("phase", phase.label())])
                .is_some());
        }
        let text = prof.render_text();
        assert_eq!(text.lines().count(), Phase::ALL.len());
    }
}
