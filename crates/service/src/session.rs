//! Per-job session state shared between workers and connections.
//!
//! A [`SessionHandle`] is the rendezvous point of the service: the
//! scheduler's workers update it after every slice, connection threads
//! read it for `STATUS`/`LIST`, block on it for `WAIT`, and drain its
//! bounded event ring for `EVENTS`. One mutex + condvar per session —
//! contention is inherently low because exactly one worker owns a
//! session's runnable half at any time.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

use art9_sim::HaltReason;
use workloads::WorkloadError;

use crate::recover;

/// Cap on the per-session event ring; the oldest events are dropped
/// first once a slow `EVENTS` consumer falls this far behind.
pub const EVENT_RING_CAP: usize = 256;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionStatus {
    /// Waiting in a run queue for its next (or first) slice.
    Queued,
    /// A worker is currently executing a slice.
    Running {
        /// Index of the executing worker.
        worker: usize,
    },
    /// The program halted; `RESULT` is available.
    Done,
    /// The job failed (parse, translation, simulator fault, budget
    /// exhaustion or output mismatch) — the same typed error the batch
    /// API surfaces.
    Failed(WorkloadError),
    /// Cancelled by a client before completion.
    Cancelled,
}

impl SessionStatus {
    /// Single-token wire name (`queued`/`running`/`done`/`failed`/
    /// `cancelled`).
    pub fn token(&self) -> &'static str {
        match self {
            SessionStatus::Queued => "queued",
            SessionStatus::Running { .. } => "running",
            SessionStatus::Done => "done",
            SessionStatus::Failed(_) => "failed",
            SessionStatus::Cancelled => "cancelled",
        }
    }

    /// `true` once the session can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionStatus::Done | SessionStatus::Failed(_) | SessionStatus::Cancelled
        )
    }
}

/// One observer event, recorded per completed slice when the job was
/// submitted with `events=1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEvent {
    /// Slice ordinal (1-based).
    pub slice: u64,
    /// Total instructions retired after the slice.
    pub retired: u64,
    /// Worker that executed the slice.
    pub worker: usize,
    /// Cumulative trit-flip count (energy snapshot), when the job
    /// measures energy.
    pub flips: Option<u64>,
}

/// The final machine state of a completed session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Why the program stopped.
    pub halt: HaltReason,
    /// Total instructions retired.
    pub retired: u64,
    /// Final register file (t0..t8) as balanced-ternary integers.
    pub trf: [i64; 9],
    /// Dynamic instruction mix.
    pub mix: BTreeMap<&'static str, u64>,
    /// Total trit flips, when the job measured energy.
    pub flips: Option<u64>,
    /// Whether the output region was checked against a golden
    /// reference (workload jobs; inline programs have none).
    pub verified: bool,
}

/// How a session ended: the terminal [`SessionStatus`] plus, for a
/// halted program, its final machine state.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// The program halted.
    Done(SessionResult),
    /// The job failed at run time.
    Failed(WorkloadError),
    /// A client cancelled the job.
    Cancelled,
}

/// A point-in-time copy of a session's observable counters.
#[derive(Debug, Clone)]
pub struct SessionView {
    /// Session id.
    pub id: u64,
    /// Program name (workload name or `inline`).
    pub name: String,
    /// Lifecycle state.
    pub status: SessionStatus,
    /// Total instructions retired so far.
    pub retired: u64,
    /// Slices executed so far.
    pub slices: u64,
    /// Checkpoint migrations between workers so far.
    pub migrations: u64,
}

#[derive(Debug)]
struct Inner {
    status: SessionStatus,
    retired: u64,
    slices: u64,
    migrations: u64,
    cancel: bool,
    record_events: bool,
    events: VecDeque<SessionEvent>,
    result: Option<SessionResult>,
}

/// Shared handle to one session (see the [module docs](self)).
#[derive(Debug)]
pub struct SessionHandle {
    /// Session id (unique per server).
    pub id: u64,
    /// Program name (workload name or `inline`).
    pub name: String,
    inner: Mutex<Inner>,
    changed: Condvar,
}

impl SessionHandle {
    /// A fresh queued session.
    pub fn new(id: u64, name: String, record_events: bool) -> Self {
        SessionHandle {
            id,
            name,
            inner: Mutex::new(Inner {
                status: SessionStatus::Queued,
                retired: 0,
                slices: 0,
                migrations: 0,
                cancel: false,
                record_events,
                events: VecDeque::new(),
                result: None,
            }),
            changed: Condvar::new(),
        }
    }

    /// Snapshot of the observable counters.
    pub fn view(&self) -> SessionView {
        let inner = self.lock();
        SessionView {
            id: self.id,
            name: self.name.clone(),
            status: inner.status.clone(),
            retired: inner.retired,
            slices: inner.slices,
            migrations: inner.migrations,
        }
    }

    /// The final machine state, once [`SessionStatus::Done`].
    pub fn result(&self) -> Option<SessionResult> {
        self.lock().result.clone()
    }

    /// Blocks until the session reaches a terminal state; returns it.
    pub fn wait(&self) -> SessionStatus {
        let mut inner = self.lock();
        while !inner.status.is_terminal() {
            inner = recover(self.changed.wait(inner));
        }
        inner.status.clone()
    }

    /// Drains buffered events, blocking up to `timeout` when none are
    /// pending and the session is still live. Returns the drained
    /// events and whether the session is terminal (meaning no further
    /// events will ever arrive once the returned batch is empty).
    pub fn next_events(&self, timeout: std::time::Duration) -> (Vec<SessionEvent>, bool) {
        let mut inner = self.lock();
        if inner.events.is_empty() && !inner.status.is_terminal() {
            (inner, _) = recover(self.changed.wait_timeout(inner, timeout));
        }
        let events = inner.events.drain(..).collect();
        (events, inner.status.is_terminal())
    }

    /// Requests cancellation; the owning worker drops the session at
    /// its next slice boundary. No-op on terminal sessions.
    pub fn request_cancel(&self) {
        let mut inner = self.lock();
        if !inner.status.is_terminal() {
            inner.cancel = true;
        }
    }

    /// Whether a client asked for cancellation.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.lock().cancel
    }

    pub(crate) fn mark_running(&self, worker: usize) {
        self.lock().status = SessionStatus::Running { worker };
    }

    pub(crate) fn record_migration(&self) {
        self.lock().migrations += 1;
    }

    /// Records a completed slice: updates counters, re-queues the
    /// status, and appends an event when the session records them.
    pub(crate) fn record_slice(&self, retired: u64, worker: usize, flips: Option<u64>) {
        let mut inner = self.lock();
        inner.retired = retired;
        inner.slices += 1;
        inner.status = SessionStatus::Queued;
        if inner.record_events {
            if inner.events.len() == EVENT_RING_CAP {
                inner.events.pop_front();
            }
            let slice = inner.slices;
            inner.events.push_back(SessionEvent {
                slice,
                retired,
                worker,
                flips,
            });
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Moves the session to its terminal state and wakes every waiter.
    pub(crate) fn finish(&self, outcome: Outcome) {
        let mut inner = self.lock();
        inner.status = match outcome {
            Outcome::Done(result) => {
                inner.retired = result.retired;
                inner.result = Some(result);
                SessionStatus::Done
            }
            Outcome::Failed(error) => SessionStatus::Failed(error),
            Outcome::Cancelled => SessionStatus::Cancelled,
        };
        drop(inner);
        self.changed.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        recover(self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_blocks_until_terminal() {
        let h = Arc::new(SessionHandle::new(1, "inline".into(), false));
        let waiter = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || h.wait())
        };
        h.mark_running(0);
        h.record_slice(100, 0, None);
        h.finish(Outcome::Cancelled);
        assert_eq!(waiter.join().unwrap(), SessionStatus::Cancelled);
        assert!(h.view().status.is_terminal());
    }

    #[test]
    fn event_ring_is_bounded_and_drains() {
        let h = SessionHandle::new(2, "inline".into(), true);
        for i in 0..(EVENT_RING_CAP as u64 + 10) {
            h.record_slice(i + 1, 0, Some(i));
        }
        let (events, terminal) = h.next_events(Duration::from_millis(1));
        assert!(!terminal);
        assert_eq!(events.len(), EVENT_RING_CAP);
        // The *oldest* events were dropped.
        assert_eq!(events[0].slice, 11);
        // Drained: a second call times out empty.
        let (events, _) = h.next_events(Duration::from_millis(1));
        assert!(events.is_empty());
    }

    #[test]
    fn a_panic_under_the_lock_does_not_reach_later_users() {
        let h = Arc::new(SessionHandle::new(4, "inline".into(), false));
        let poisoner = Arc::clone(&h);
        let died = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("a thread dies holding the session lock");
        })
        .join();
        assert!(died.is_err());
        assert!(h.inner.is_poisoned());
        // Workers and connections carry on with the recovered state.
        h.record_slice(10, 0, None);
        h.finish(Outcome::Cancelled);
        assert_eq!(h.wait(), SessionStatus::Cancelled);
        assert_eq!(h.view().retired, 10);
    }

    #[test]
    fn cancel_is_sticky_until_terminal() {
        let h = SessionHandle::new(3, "inline".into(), false);
        assert!(!h.cancel_requested());
        h.request_cancel();
        assert!(h.cancel_requested());
        h.finish(Outcome::Cancelled);
        assert_eq!(h.view().status, SessionStatus::Cancelled);
        assert_eq!(h.view().status.token(), "cancelled");
    }
}
