//! Discrete-event simulation core.
//!
//! The maintenance engine of `peerstripe-repair` drives churn, detection and
//! regeneration through this queue and its virtual clock.  (The multicast
//! experiments of Figures 11 and 12 advance in epochs and the Condor case
//! study of Table 4 sums a network cost model; neither uses it.)  Events are
//! ordered by `(time, sequence-number)` so simultaneous events fire in
//! insertion order, which keeps the simulation deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Virtual simulation time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

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

/// Four heap keys on one 64-byte cache line: the children of one node.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([u128; 4]);

/// A key no event has: it fills the lanes past the heap's end, so a node's
/// missing children never win a comparison.
const VACANT: u128 = u128::MAX;

/// Heap position `p` is stored at flat index `p + PAD`: the children of `p`,
/// positions `4p + 1 ..= 4p + 4`, are then exactly line `p + 1`.
const PAD: usize = 3;

/// The packed key of an event: time in the high 64 bits, then its sequence
/// number, then its slab slot, so integer order is `(time, seq)` order.
fn pack(time: SimTime, seq: u32, slot: u32) -> u128 {
    u128::from(time.0) << 64 | u128::from(seq) << 32 | u128::from(slot)
}

/// The least of four keys and its lane, by a tournament of selects.
#[inline]
fn least_lane(keys: &[u128; 4]) -> (u128, usize) {
    let (low_key, low) = if keys[1] < keys[0] {
        (keys[1], 1)
    } else {
        (keys[0], 0)
    };
    let (high_key, high) = if keys[3] < keys[2] {
        (keys[3], 3)
    } else {
        (keys[2], 2)
    };
    if high_key < low_key {
        (high_key, high)
    } else {
        (low_key, low)
    }
}

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled at absolute or relative virtual times and
/// popped in non-decreasing time order; ties are broken by insertion order.
///
/// A 4-ary min-heap of 16-byte keys (`time`, `seq`, slab slot) over a slab of
/// the events themselves: a push or pop moves O(log₄ n) keys and never an
/// event, and a node's four children share one 64-byte cache line, so a pop
/// reads about log₄ n lines plus its event's slot (the maintenance engine
/// holds about twelve thousand pending events: seven levels).  The
/// sequence number is 32 bits; when it would wrap, the pending keys are
/// renumbered by rank, which keeps their order.
pub struct EventQueue<E> {
    /// The heap's keys in lines; lanes past position `len` hold [`VACANT`].
    lines: Vec<Line>,
    /// Number of pending events.
    len: usize,
    /// Events by slot; `None` for a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    now: SimTime,
    /// Sequence number of the next scheduled event.
    seq: u32,
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
            lines: Vec::new(),
            len: 0,
            slots: Vec::new(),
            free: Vec::new(),
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

    /// Schedule an event at an absolute virtual time.
    ///
    /// Scheduling in the past is clamped to `now` (the event fires immediately);
    /// this matches the usual discrete-event convention and avoids time warps.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        if self.seq == u32::MAX {
            self.renumber();
        }
        // A slot index fits 32 bits: 2^32 pending events would fill 64 GiB
        // of keys alone.
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let key = pack(time, self.seq, slot);
        self.seq += 1;
        self.sift_up(key);
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let top = self.key(0);
        self.len -= 1;
        let last = self.key(self.len);
        self.set(self.len, VACANT);
        if self.len > 0 {
            self.sift_down(last);
        }
        let slot = top as u32;
        let event = self.slots[slot as usize].take()?;
        self.free.push(slot);
        let time = SimTime((top >> 64) as u64);
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// Peek at the time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then(|| SimTime((self.key(0) >> 64) as u64))
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

    /// The key at heap position `p`.
    #[inline]
    fn key(&self, p: usize) -> u128 {
        let i = p + PAD;
        self.lines[i / 4].0[i % 4]
    }

    /// Store `key` at heap position `p`.
    #[inline]
    fn set(&mut self, p: usize, key: u128) {
        let i = p + PAD;
        self.lines[i / 4].0[i % 4] = key;
    }

    /// Append `key` at the heap's end and move it up past every greater
    /// parent.
    fn sift_up(&mut self, key: u128) {
        let mut p = self.len;
        self.len += 1;
        if (p + PAD) / 4 == self.lines.len() {
            self.lines.push(Line([VACANT; 4]));
        }
        while p > 0 {
            let parent = (p - 1) / 4;
            let above = self.key(parent);
            if above < key {
                break;
            }
            self.set(p, above);
            p = parent;
        }
        self.set(p, key);
    }

    /// Put `key` in the root's place and move it down past every lesser
    /// child.
    fn sift_down(&mut self, key: u128) {
        let mut p = 0;
        while let Some(Line(children)) = self.lines.get(p + 1) {
            let (child, lane) = least_lane(children);
            if key < child {
                break;
            }
            self.set(p, child);
            p = 4 * p + 1 + lane;
        }
        self.set(p, key);
    }

    /// Renumber the pending keys by rank, so the sequence numbers restart
    /// just past them.  Ranks keep the `(time, seq)` order, and a sorted
    /// array is already a heap.
    fn renumber(&mut self) {
        let mut keys: Vec<u128> = (0..self.len).map(|p| self.key(p)).collect();
        keys.sort_unstable();
        for (rank, key) in keys.into_iter().enumerate() {
            let time = SimTime((key >> 64) as u64);
            self.set(rank, pack(time, rank as u32, key as u32));
        }
        self.seq = self.len as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
        assert_eq!(format!("{}", SimTime(3_000_000)), "3.000ms");
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
        let n = q.run_until(SimTime(u64::MAX), |q, t, depth| {
            fired.push((t, depth));
            if depth < 3 {
                q.schedule_after(SimTime::from_secs(1), depth + 1);
            }
        });
        assert_eq!(n, 4);
        assert_eq!(fired.len(), 4);
        assert_eq!(fired.last().unwrap().0, SimTime::from_secs(4));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn insertion_order_survives_the_sequence_wrap() {
        let mut q = EventQueue::new();
        q.seq = u32::MAX - 4;
        let (early, late) = (SimTime::from_secs(1), SimTime::from_secs(2));
        // Ten ties at each of two times, scheduled across the wrap and in
        // alternation, with one pop in between.
        for i in 0..10u32 {
            q.schedule_at(late, 100 + i);
            q.schedule_at(early, i);
        }
        assert_eq!(q.pop(), Some((early, 0)));
        for i in 10..16u32 {
            q.schedule_at(early, i);
            q.schedule_at(late, 100 + i);
        }
        assert!(q.seq < 100, "renumbered past the wrap: {}", q.seq);
        let order: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<(SimTime, u32)> = (1..16)
            .map(|i| (early, i))
            .chain((100..116).map(|i| (late, i)))
            .collect();
        assert_eq!(order, want);
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
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 6);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
