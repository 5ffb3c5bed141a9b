//! Bounded admission queue with load shedding and drain semantics.
//!
//! Connection handlers push [`Job`]s; the engine loop pops them in
//! micro-batches and executes each batch as one shared session (the
//! paper's batch-sharing, applied at the serving layer). The queue is the
//! server's single overload valve:
//!
//! * **depth shedding** — a push against a full queue is refused with
//!   [`Error::Overloaded`] *before* any work is done, so the queue depth
//!   bounds both memory and worst-case queueing delay;
//! * **drain** — [`AdmissionQueue::close`] atomically refuses new pushes
//!   (also [`Error::Overloaded`], marked as draining) while letting the
//!   engine loop pop everything already admitted, so every admitted job
//!   reaches a terminal outcome and nothing is admitted that would not.
//!
//! Every job carries a rendezvous channel; the engine loop sends exactly
//! one terminal [`JobOutcome`] per admitted job. The channel is the only
//! coupling between the wire layer and the engine loop — a slow client
//! never blocks the engine, because results are handed over materialized
//! and the handler thread alone pays the socket-write backpressure.

use roulette_core::sync::{Condvar, LockRank, Mutex};
use roulette_core::{Error, Result};
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::time::Instant;

/// One admitted query, from the wire to the engine loop.
#[derive(Debug)]
pub struct Job {
    /// SQL text, parsed by the engine loop against the hosted catalog.
    pub sql: String,
    /// Whether the client asked for `ROW` streaming.
    pub want_rows: bool,
    /// Client-supplied deadline in milliseconds (from admission), if any.
    pub deadline_ms: Option<u64>,
    /// When the job entered the queue; deadlines count from here, so time
    /// spent queued is charged against the budget.
    pub enqueued_at: Instant,
    /// Rendezvous for the single terminal outcome.
    pub reply: SyncSender<JobOutcome>,
}

/// The terminal outcome of a job. Exactly one is sent per admitted job.
#[derive(Debug)]
pub enum JobOutcome {
    /// The query ran to completion.
    Done {
        /// Result cardinality.
        rows: u64,
        /// Order-independent result checksum.
        checksum: u64,
        /// Projected rows, only populated when the job asked for them.
        collected: Vec<Vec<i64>>,
    },
    /// The query failed with a typed error (parse, quarantine, deadline…).
    Failed(Error),
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded, closable job queue between handlers and the engine loop.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` (≥ 1) waiting jobs.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            state: Mutex::new(LockRank::AdmissionQueue, QueueState::default()),
            ready: Condvar::new(),
        }
    }

    /// Maximum number of waiting jobs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `job`, returning the queue depth after the push. Refused
    /// with [`Error::Overloaded`] when the queue is full or draining — in
    /// that case the job is dropped without a [`JobOutcome`], and the
    /// caller answers the client directly with the returned error.
    pub fn push(&self, job: Job) -> Result<usize> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(Error::Overloaded("server is draining; no new admissions".into()));
        }
        if st.jobs.len() >= self.capacity {
            return Err(Error::Overloaded(format!(
                "admission queue at capacity {}; retry after backoff",
                self.capacity
            )));
        }
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        drop(st);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until at least one job is available and pops up to `max` of
    /// them, or returns `None` once the queue is closed *and* empty — the
    /// engine loop's exit condition, which by construction happens only
    /// after every admitted job has been handed out.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut st = self.state.lock();
        loop {
            if !st.jobs.is_empty() {
                let n = st.jobs.len().min(max.max(1));
                return Some(st.jobs.drain(..n).collect());
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st);
        }
    }

    /// Closes the queue to new admissions and wakes the engine loop so it
    /// can drain what remains. Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current number of waiting jobs.
    pub fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;

    fn job(sql: &str) -> (Job, std::sync::mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = sync_channel(1);
        (
            Job {
                sql: sql.into(),
                want_rows: false,
                deadline_ms: None,
                enqueued_at: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = AdmissionQueue::new(4);
        let (a, _ra) = job("a");
        let (b, _rb) = job("b");
        assert_eq!(q.push(a).unwrap(), 1);
        assert_eq!(q.push(b).unwrap(), 2);
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].sql, "a");
        assert_eq!(batch[1].sql, "b");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let q = AdmissionQueue::new(1);
        let (a, _ra) = job("a");
        q.push(a).unwrap();
        let (b, _rb) = job("b");
        let e = q.push(b).unwrap_err();
        assert!(matches!(e, Error::Overloaded(_)), "{e}");
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn closed_queue_sheds_but_drains_backlog() {
        let q = AdmissionQueue::new(4);
        let (a, _ra) = job("a");
        q.push(a).unwrap();
        q.close();
        let (b, _rb) = job("b");
        let e = q.push(b).unwrap_err();
        assert!(matches!(e, Error::Overloaded(_)), "{e}");
        assert!(e.to_string().contains("draining"), "{e}");
        // The backlog is still handed out, then the queue reports done.
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        assert!(q.pop_batch(8).is_none());
        assert!(q.is_closed());
    }

    #[test]
    fn pop_batch_blocks_until_work_or_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (a, _ra) = job("a");
        q.push(a).unwrap();
        let batch = h.join().unwrap();
        assert_eq!(batch.unwrap().len(), 1);

        let q3 = Arc::clone(&q);
        let h = std::thread::spawn(move || q3.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn batch_size_is_capped() {
        let q = AdmissionQueue::new(8);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (j, rx) = job(&format!("q{i}"));
            q.push(j).unwrap();
            rxs.push(rx);
        }
        assert_eq!(q.pop_batch(2).unwrap().len(), 2);
        assert_eq!(q.depth(), 3);
        // max of 0 is clamped to 1 rather than spinning forever.
        assert_eq!(q.pop_batch(0).unwrap().len(), 1);
    }
}
