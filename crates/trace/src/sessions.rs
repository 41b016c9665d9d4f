//! Empirical node session/downtime traces.
//!
//! The paper targets desktop grids, whose machines are famously *diurnal*:
//! they are up through the workday, down overnight and over weekends, with a
//! long tail of always-on lab machines.  The repair subsystem's churn process
//! can draw session and downtime lengths either from closed-form
//! distributions or from an empirical trace of observed durations; this module
//! provides the trace form — a bag of `(session, downtime)` samples in
//! seconds — plus a deterministic synthesiser with desktop-grid statistics and
//! a JSON round trip so harvested traces can be dropped in.

use peerstripe_sim::{DetRng, OnlineStats};
use serde::{Deserialize, Serialize};

/// Empirical session/downtime durations (seconds) a churn process samples from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// Observed session (uptime) lengths, in seconds.
    pub sessions: Vec<f64>,
    /// Observed downtime lengths, in seconds.
    pub downtimes: Vec<f64>,
}

impl SessionTrace {
    /// Create a trace from explicit samples.  Panics if either bag is empty or
    /// contains a non-positive duration (a zero-length session would make the
    /// churn process spin in place).
    pub fn new(sessions: Vec<f64>, downtimes: Vec<f64>) -> Self {
        assert!(
            !sessions.is_empty() && !downtimes.is_empty(),
            "session trace needs at least one sample of each kind"
        );
        for d in sessions.iter().chain(&downtimes) {
            assert!(d.is_finite() && *d > 0.0, "durations must be positive");
        }
        SessionTrace {
            sessions,
            downtimes,
        }
    }

    /// Synthesise a desktop-grid trace of `machines` session/downtime pairs:
    /// a ~70 % office population (workday sessions around 9 h, overnight
    /// downtimes around 15 h), ~20 % laptops (short sessions, short gaps), and
    /// ~10 % always-on lab machines (multi-day sessions, brief reboots).
    pub fn synthetic_desktop_grid(machines: usize, seed: u64) -> Self {
        assert!(machines > 0, "need at least one machine");
        let mut rng = DetRng::new(seed).fork("session-trace");
        let hour = 3_600.0;
        let mut sessions = Vec::with_capacity(machines);
        let mut downtimes = Vec::with_capacity(machines);
        for _ in 0..machines {
            let class = rng.next_f64();
            let (s_mean, s_sd, d_mean, d_sd) = if class < 0.70 {
                (9.0 * hour, 2.0 * hour, 15.0 * hour, 3.0 * hour)
            } else if class < 0.90 {
                (2.0 * hour, 1.0 * hour, 4.0 * hour, 2.0 * hour)
            } else {
                (72.0 * hour, 24.0 * hour, 0.5 * hour, 0.25 * hour)
            };
            let clamp = |x: f64, lo: f64| x.max(lo);
            sessions.push(clamp(s_mean + s_sd * rng.standard_normal(), 0.1 * hour));
            downtimes.push(clamp(d_mean + d_sd * rng.standard_normal(), 0.05 * hour));
        }
        SessionTrace {
            sessions,
            downtimes,
        }
    }

    /// Draw one session length.
    #[expect(
        clippy::expect_used,
        reason = "sessions verified non-empty at trace construction"
    )]
    pub fn sample_session(&self, rng: &mut DetRng) -> f64 {
        *rng.choose(&self.sessions)
            .expect("non-empty by construction")
    }

    /// Draw one downtime length.
    #[expect(
        clippy::expect_used,
        reason = "downtimes verified non-empty at trace construction"
    )]
    pub fn sample_downtime(&self, rng: &mut DetRng) -> f64 {
        *rng.choose(&self.downtimes)
            .expect("non-empty by construction")
    }

    /// Mean session length in seconds.
    pub fn mean_session(&self) -> f64 {
        let mut s = OnlineStats::new();
        for &x in &self.sessions {
            s.push(x);
        }
        s.mean()
    }

    /// Mean downtime length in seconds.
    pub fn mean_downtime(&self) -> f64 {
        let mut s = OnlineStats::new();
        for &x in &self.downtimes {
            s.push(x);
        }
        s.mean()
    }

    /// Serialise to JSON (for snapshotting harvested availability traces).
    #[expect(
        clippy::expect_used,
        reason = "serialising owned plain data cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("session trace serialisation cannot fail")
    }

    /// Parse a trace from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_has_desktop_grid_shape() {
        let trace = SessionTrace::synthetic_desktop_grid(5_000, 1);
        assert_eq!(trace.sessions.len(), 5_000);
        assert_eq!(trace.downtimes.len(), 5_000);
        // The office/laptop/lab mixture puts the mean session between a laptop
        // burst and a lab machine's multi-day uptime.
        let mean_session_h = trace.mean_session() / 3_600.0;
        assert!(
            (5.0..25.0).contains(&mean_session_h),
            "mean session {mean_session_h} h"
        );
        let mean_down_h = trace.mean_downtime() / 3_600.0;
        assert!(
            (5.0..15.0).contains(&mean_down_h),
            "mean downtime {mean_down_h} h"
        );
        assert!(trace.sessions.iter().all(|&s| s > 0.0));
        assert!(trace.downtimes.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn generation_and_sampling_are_deterministic() {
        let a = SessionTrace::synthetic_desktop_grid(100, 7);
        let b = SessionTrace::synthetic_desktop_grid(100, 7);
        assert_eq!(a, b);
        let mut r1 = DetRng::new(3);
        let mut r2 = DetRng::new(3);
        for _ in 0..50 {
            assert_eq!(a.sample_session(&mut r1), b.sample_session(&mut r2));
            assert_eq!(a.sample_downtime(&mut r1), b.sample_downtime(&mut r2));
        }
    }

    #[test]
    fn samples_come_from_the_bag() {
        let trace = SessionTrace::new(vec![10.0, 20.0], vec![5.0]);
        let mut rng = DetRng::new(9);
        for _ in 0..20 {
            let s = trace.sample_session(&mut rng);
            assert!(s == 10.0 || s == 20.0);
            assert_eq!(trace.sample_downtime(&mut rng), 5.0);
        }
    }

    #[test]
    fn json_round_trip() {
        let trace = SessionTrace::synthetic_desktop_grid(25, 11);
        let back = SessionTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        assert!(SessionTrace::from_json("nope").is_err());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_is_rejected() {
        let _ = SessionTrace::new(vec![], vec![1.0]);
    }
}
