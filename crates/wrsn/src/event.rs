//! A minimal discrete-event simulation kernel, shared by the testbed
//! executor and the online service loop.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic
//! FIFO tie-breaking for simultaneous events. [`SimTime`] wraps `f64`
//! seconds with a total order (no NaNs admitted), so the queue can be a
//! real `BinaryHeap`.
//!
//! # Examples
//!
//! ```
//! use ccs_wrsn::event::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::new(2.0), "second");
//! q.schedule(SimTime::new(1.0), "first");
//! q.schedule(SimTime::new(2.0), "third"); // FIFO among ties
//! let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["first", "second", "third"]);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, Sub};

/// Simulation time in seconds; totally ordered, NaN-free by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is NaN or negative (simulation time is a clock).
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "simulation time must be finite and nonnegative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since simulation start.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulation time (causality).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            time,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(3.0), 'c');
        q.schedule(SimTime::new(1.0), 'a');
        q.schedule(SimTime::new(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::new(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::new(5.0), ());
        q.pop();
        assert_eq!(q.now(), SimTime::new(5.0));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), ());
        q.pop();
        q.schedule(SimTime::new(1.0), ());
    }

    #[test]
    fn events_scheduled_during_processing_interleave() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(1.0), "first");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + 0.5, "followup");
        q.schedule(t + 0.2, "sooner");
        let (_, e1) = q.pop().unwrap();
        let (_, e2) = q.pop().unwrap();
        assert_eq!((e1, e2), ("sooner", "followup"));
    }

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime::new(2.0);
        let b = a + 3.0;
        assert_eq!(b.seconds(), 5.0);
        assert_eq!(b - a, 3.0);
        assert_eq!(a.max(b), b);
        assert_eq!(format!("{a}"), "t=2.000s");
    }

    #[test]
    #[should_panic(expected = "finite and nonnegative")]
    fn rejects_negative_time() {
        let _ = SimTime::new(-1.0);
    }
}
