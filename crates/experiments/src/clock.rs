//! The experiment drivers' timings.  Table 2 and the RS sweep time encode
//! and decode, `repro ring` times its phases on live daemons, and `repro
//! bench-snapshot` times its passes; each goes through [`timed`] or
//! [`best_rate`], which read the workspace's one wall clock
//! ([`peerstripe_telemetry::Started`]).  No figure of a simulation run reads
//! it.

use peerstripe_telemetry::Started;

/// Timed passes per [`best_rate`] measurement; the best one is kept.
const REPS: usize = 3;

/// Milliseconds elapsed while running `f`, paired with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Started::now();
    let value = f();
    (value, started.elapsed_ms())
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
        let started = Started::now();
        let mut units = 0u64;
        let elapsed = loop {
            units += work(&mut state);
            let elapsed = started.elapsed_ms() / 1e3;
            if elapsed >= pass_secs {
                break elapsed;
            }
        };
        best = best.max(units as f64 / elapsed.max(1e-9));
    }
    best
}
