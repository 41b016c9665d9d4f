//! Discrete-event simulation core.
//!
//! The multicast experiments (Figures 11 and 12) advance in *epochs*, the
//! Condor case study (Table 4) models transfer and lookup latencies, and the
//! maintenance engine of `peerstripe-repair` drives churn and regeneration;
//! all are driven by a simple discrete-event queue with a virtual clock.
//! Events are ordered by `(time, sequence-number)` so simultaneous events fire
//! in insertion order, which keeps the simulation deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Virtual simulation time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled at absolute or relative virtual times and
/// popped in non-decreasing time order; ties are broken by insertion order.
///
/// A binary heap of `(time, seq, event)` entries: a push or pop moves O(log n)
/// whole entries, so a large queue is cheaper the smaller its events (the
/// maintenance engine's are 32 bytes, about ten thousand pending).
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule an event at an absolute virtual time.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires immediately);
    /// this matches the usual discrete-event convention and avoids time warps.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = self.heap.pop()?;
        self.now = next.time;
        self.processed += 1;
        Some((next.time, next.event))
    }

    /// Peek at the time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Drive the queue to completion, calling `handler` for each event.
    ///
    /// The handler receives a mutable reference to the queue so it can schedule
    /// follow-up events.  Returns the final virtual time.
    pub fn run<F>(&mut self, mut handler: F) -> SimTime
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        while let Some((t, e)) = self.pop() {
            handler(self, t, e);
        }
        self.now
    }

    /// Drive the queue until the virtual clock would exceed `deadline`.
    ///
    /// Events scheduled at exactly `deadline` are processed.  Returns the number
    /// of events processed by this call.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        let start = self.processed;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let Some((t, e)) = self.pop() else { break };
            handler(self, t, e);
        }
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
        assert_eq!(format!("{}", SimTime::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimTime(30)), "30ns");
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), "later");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 0u32);
        let mut fired = Vec::new();
        q.run(|q, t, depth| {
            fired.push((t, depth));
            if depth < 3 {
                q.schedule_after(SimTime::from_secs(1), depth + 1);
            }
        });
        assert_eq!(fired.len(), 4);
        assert_eq!(fired.last().unwrap().0, SimTime::from_secs(4));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut q = EventQueue::new();
        for s in 1..=10u64 {
            q.schedule_at(SimTime::from_secs(s), s);
        }
        let mut seen = Vec::new();
        let n = q.run_until(SimTime::from_secs(4), |_, _, e| seen.push(e));
        assert_eq!(n, 4);
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
