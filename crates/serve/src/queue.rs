//! The bounded admission queue between the reader/acceptor threads and the
//! worker pool.
//!
//! Admission is **non-blocking**: when the queue is at capacity the push
//! fails immediately and the caller writes an explicit `rejected` response
//! — backpressure is surfaced to the client instead of buffering without
//! bound or stalling the reader. Workers block on [`AdmissionQueue::pop`]
//! until work arrives or the queue is closed and empty, which is exactly
//! the drain-on-shutdown semantics: `close()` rejects all future work but
//! lets everything already admitted finish.

use crate::lru::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a job could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at its configured depth.
    Full {
        /// The configured depth, for the reject message.
        depth: usize,
    },
    /// The daemon is draining (EOF or shutdown already seen).
    Draining,
}

struct State<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with explicit-reject admission and drain-aware pop.
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    depth: usize,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `depth` queued jobs (`depth` is
    /// clamped to at least 1).
    pub fn new(depth: usize) -> Self {
        AdmissionQueue {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Jobs currently queued (racy snapshot, for stats only).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).jobs.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `job`, or hands it back with the reason it cannot be
    /// admitted (so the caller can still answer it). Never blocks.
    pub fn try_push(&self, job: T) -> Result<(), (T, AdmitError)> {
        let mut state = lock_unpoisoned(&self.state);
        if state.closed {
            return Err((job, AdmitError::Draining));
        }
        if state.jobs.len() >= self.depth {
            return Err((job, AdmitError::Full { depth: self.depth }));
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (returning it) or the queue is
    /// closed *and* empty (returning `None` — the worker should exit).
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Starts the drain: all future pushes fail with
    /// [`AdmitError::Draining`]; already-admitted jobs remain poppable.
    pub fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Whether [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.state).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_recovers_after_pop() {
        let q = AdmissionQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((3, AdmitError::Full { depth: 2 })));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_new_work_but_drains_queued_work() {
        let q = AdmissionQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(("c", AdmitError::Draining)));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop after drain stays None");
    }

    #[test]
    fn depth_is_clamped_to_one() {
        let q = AdmissionQueue::<u8>::new(0);
        assert_eq!(q.depth(), 1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err((2, AdmitError::Full { depth: 1 })));
    }

    /// The poisoned-lock regression (ISSUE 8): a panic while the queue
    /// lock is held must not wedge admission or the worker pop loop.
    #[test]
    fn poisoned_queue_lock_recovers() {
        let q = Arc::new(AdmissionQueue::<u8>::new(4));
        q.try_push(1).unwrap();
        let poisoner = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(q.state.is_poisoned(), "the lock really was poisoned");
        assert_eq!(q.pop(), Some(1), "pop recovers past the poison");
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 1, "push recovers past the poison");
        q.close();
        assert_eq!(q.pop(), Some(2), "drain still yields queued work");
        assert_eq!(q.pop(), None, "drain still terminates");
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Arc::new(AdmissionQueue::<u8>::new(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(9).unwrap();
        q.close();
        let mut got: Vec<Option<u8>> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(9)]);
    }
}
