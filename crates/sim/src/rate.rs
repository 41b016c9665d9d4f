//! Bandwidth rate limiting for the maintenance and repair simulations.
//!
//! The repair subsystem charges every regeneration transfer against per-node
//! upload/download budgets, so concurrent repairs queue and interfere instead
//! of completing instantaneously.  [`RateLimiter`] models one such budget as a
//! single-server FIFO pipe: a reservation of `b` bytes at time `t` starts when
//! the pipe drains (`max(t, busy_until)`) and occupies it for `b / rate`
//! seconds.

use crate::bytesize::ByteSize;
use crate::event::SimTime;

/// The time window a reservation occupies on a [`RateLimiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the transfer starts (the pipe's previous drain time).
    pub start: SimTime,
    /// When the transfer completes.
    pub done: SimTime,
}

/// A FIFO bandwidth budget with a virtual-time drain front.
#[derive(Debug, Clone, Copy)]
pub struct RateLimiter {
    bytes_per_sec: f64,
    busy_until: SimTime,
}

impl RateLimiter {
    /// Create a limiter draining `rate` bytes per second.
    ///
    /// Panics if the rate is zero (a pipe that never drains deadlocks every
    /// simulation built on it).
    pub fn new(rate: ByteSize) -> Self {
        assert!(!rate.is_zero(), "rate limiter needs a positive rate");
        RateLimiter {
            bytes_per_sec: rate.as_u64() as f64,
            busy_until: SimTime::ZERO,
        }
    }

    /// How long a transfer of `bytes` occupies the pipe (independent of queueing).
    pub fn transfer_time(&self, bytes: ByteSize) -> SimTime {
        SimTime::from_secs_f64(bytes.as_u64() as f64 / self.bytes_per_sec)
    }

    /// Reserve the pipe for `bytes` starting no earlier than `now`; returns the
    /// occupied window and advances the drain front to its end.
    pub fn reserve(&mut self, bytes: ByteSize, now: SimTime) -> Reservation {
        let start = self.busy_until.max(now);
        let done = start + self.transfer_time(bytes);
        self.busy_until = done;
        Reservation { start, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_queue_fifo() {
        let mut rl = RateLimiter::new(ByteSize::mb(1));
        let now = SimTime::from_secs(10);
        let first = rl.reserve(ByteSize::mb(2), now);
        assert_eq!(first.start, now);
        assert_eq!(first.done, SimTime::from_secs(12));
        // The second reservation waits for the first to drain.
        let second = rl.reserve(ByteSize::mb(1), now);
        assert_eq!(second.start, SimTime::from_secs(12));
        assert_eq!(second.done, SimTime::from_secs(13));
        assert_eq!(rl.busy_until, SimTime::from_secs(13));
    }

    #[test]
    fn idle_pipe_starts_immediately() {
        let mut rl = RateLimiter::new(ByteSize::kb(512));
        rl.reserve(ByteSize::kb(512), SimTime::ZERO);
        // After the backlog drains, a new reservation starts at `now`.
        let later = SimTime::from_secs(100);
        assert!(rl.busy_until <= later);
        let r = rl.reserve(ByteSize::kb(256), later);
        assert_eq!(r.start, later);
        assert_eq!(r.done, later + SimTime::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_is_rejected() {
        let _ = RateLimiter::new(ByteSize::ZERO);
    }
}
