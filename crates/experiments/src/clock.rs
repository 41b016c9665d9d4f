//! The one wall clock of the experiment drivers.  Table 2 and the RS sweep
//! time encode and decode, `repro ring` times its phases on live daemons,
//! and `repro bench-snapshot` times its passes; each reads the host clock
//! through this module and nowhere else.  No figure of a simulation run
//! reads it.
#![expect(
    clippy::disallowed_methods,
    reason = "measuring elapsed wall time is this module's whole job; nothing here feeds simulation results"
)]

use std::time::Instant;

/// Timed passes per [`best_rate`] measurement; the best one is kept.
const REPS: usize = 3;

/// Milliseconds elapsed while running `f`, paired with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// The best rate of [`REPS`] timed passes, in work units per second.  Each
/// pass takes a fresh `setup()` outside the clock, then calls `work` — which
/// returns the units it completed — until `pass_secs` have elapsed.
pub(crate) fn best_rate<S>(
    pass_secs: f64,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let mut state = setup();
        let started = Instant::now();
        let mut units = 0u64;
        let elapsed = loop {
            units += work(&mut state);
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= pass_secs {
                break elapsed;
            }
        };
        best = best.max(units as f64 / elapsed.max(1e-9));
    }
    best
}
