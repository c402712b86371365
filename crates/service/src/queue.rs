//! The bounded, prioritized job queue feeding the worker pool.
//!
//! Storage is a binary heap ordered by `(priority, submission order)`
//! behind one mutex; a condition variable wakes blocked workers. Closing
//! the queue refuses new jobs but leaves the backlog in place, so
//! workers drain every queued job before [`JobQueue::next`] tells them
//! to stop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

use crate::job::Priority;

/// Why [`JobQueue::push`] refused a job.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The queue is at capacity (backpressure; carries the capacity).
    Full(usize),
    /// [`JobQueue::close`] has been called.
    Closed,
}

struct QueuedJob<T> {
    priority: Priority,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for QueuedJob<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for QueuedJob<T> {}
impl<T> PartialOrd for QueuedJob<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueuedJob<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then lower seq (FIFO within
        // a priority class).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A bounded priority queue whose workers block until a job arrives.
pub(crate) struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

struct State<T> {
    jobs: BinaryHeap<QueuedJob<T>>,
    next_seq: u64,
    closed: bool,
}

impl<T> JobQueue<T> {
    pub(crate) fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a job, or refuses when the queue is full (backpressure
    /// — the service layers a retry hint on top to build the
    /// caller-facing `ServiceError::Busy`) or closed.
    pub(crate) fn push(&self, priority: Priority, payload: T) -> Result<(), Refused> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(Refused::Full(self.capacity));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.jobs.push(QueuedJob {
            priority,
            seq,
            payload,
        });
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and pops the highest-priority
    /// one. Returns `None` only once the queue is closed **and** empty.
    pub(crate) fn next(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop() {
                return Some(job.payload);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// Refuses further jobs and wakes every worker; queued jobs are
    /// still handed out by [`JobQueue::next`].
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_priority_then_fifo() {
        let q = JobQueue::bounded(8);
        q.push(Priority::Low, "low-1").unwrap();
        q.push(Priority::High, "high-1").unwrap();
        q.push(Priority::Normal, "norm-1").unwrap();
        q.push(Priority::High, "high-2").unwrap();
        q.close();
        let order: Vec<_> = std::iter::from_fn(|| q.next()).collect();
        assert_eq!(order, vec!["high-1", "high-2", "norm-1", "low-1"]);
    }

    #[test]
    fn refuses_beyond_capacity() {
        let q = JobQueue::bounded(2);
        q.push(Priority::Normal, 1).unwrap();
        q.push(Priority::Normal, 2).unwrap();
        assert_eq!(q.push(Priority::Normal, 3), Err(Refused::Full(2)));
        assert_eq!(q.len(), 2);
        q.next();
        q.push(Priority::Normal, 3).unwrap();
    }

    #[test]
    fn close_refuses_new_jobs_but_drains_the_backlog() {
        let q = JobQueue::bounded(4);
        q.push(Priority::Normal, 1).unwrap();
        q.close();
        assert_eq!(q.push(Priority::Normal, 2), Err(Refused::Closed));
        assert_eq!(q.next(), Some(1));
        assert_eq!(q.next(), None);
    }

    #[test]
    fn blocked_workers_wake_for_jobs_and_for_close() {
        let q = std::sync::Arc::new(JobQueue::bounded(4));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || std::iter::from_fn(|| q.next()).count())
            })
            .collect();
        for job in 0..2 {
            q.push(Priority::Normal, job).unwrap();
        }
        q.close();
        let drained: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(drained, 2);
    }
}
