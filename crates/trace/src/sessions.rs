//! Node session/downtime traces.
//!
//! The paper targets desktop grids, whose machines are famously *diurnal*:
//! they are up through the workday, down overnight and over weekends, with a
//! long tail of always-on lab machines.  This module holds a bag of
//! `(session, downtime)` samples in seconds and a deterministic synthesiser
//! with desktop-grid statistics; `Topology::from_sessions` groups nodes into
//! failure domains by their availability class.

use peerstripe_sim::DetRng;

/// Session/downtime durations (seconds), one pair per machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// Observed session (uptime) lengths, in seconds.
    pub sessions: Vec<f64>,
    /// Observed downtime lengths, in seconds.
    pub downtimes: Vec<f64>,
}

impl SessionTrace {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_hours(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64 / 3_600.0
    }

    #[test]
    fn synthetic_trace_has_desktop_grid_shape() {
        let trace = SessionTrace::synthetic_desktop_grid(5_000, 1);
        assert_eq!(trace.sessions.len(), 5_000);
        assert_eq!(trace.downtimes.len(), 5_000);
        // The office/laptop/lab mixture puts the mean session between a laptop
        // burst and a lab machine's multi-day uptime.
        let mean_session_h = mean_hours(&trace.sessions);
        assert!(
            (5.0..25.0).contains(&mean_session_h),
            "mean session {mean_session_h} h"
        );
        let mean_down_h = mean_hours(&trace.downtimes);
        assert!(
            (5.0..15.0).contains(&mean_down_h),
            "mean downtime {mean_down_h} h"
        );
        assert!(trace.sessions.iter().all(|&s| s > 0.0));
        assert!(trace.downtimes.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SessionTrace::synthetic_desktop_grid(100, 7);
        let b = SessionTrace::synthetic_desktop_grid(100, 7);
        assert_eq!(a, b);
        assert_ne!(a, SessionTrace::synthetic_desktop_grid(100, 8));
    }
}
