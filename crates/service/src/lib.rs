//! # `art9-service` — simulation as a service
//!
//! A multi-tenant session scheduler for ART-9 simulations: clients
//! submit jobs over a line-oriented TCP protocol (`art9-service v1`,
//! in the same text style as the `art9-checkpoint v2` format), and a
//! worker thread pool runs thousands of concurrent sessions *fairly*
//! by slicing each one on [`art9_sim::Budget::Retired`] quanta.
//!
//! The pieces, bottom-up:
//!
//! * [`cache`] — one [`art9_sim::PredecodedProgram`] per distinct
//!   program image, keyed by content hash, however many sessions
//!   submit it; the least recently used images beyond a fixed cap are
//!   evicted.
//! * [`session`] — the shared per-job handle (status, counters, event
//!   ring, condvar) connections observe and workers update.
//! * [`scheduler`] — per-worker run queues with work stealing; a
//!   stolen session **migrates** between workers via
//!   [`art9_sim::Checkpoint`] transfer (snapshot → rebuild from the
//!   shared image → restore), the same invariant the `slice-migrate`
//!   fuzz oracle checks differentially. Live sessions stay registered
//!   until they finish; finished ones are kept up to a fixed cap,
//!   oldest evicted first.
//! * [`job`] / [`protocol`] — the wire-level job schema (built on
//!   [`workloads::batch::ExecConfig`]) and request parsing.
//! * [`server`] / [`client`] — std-only TCP endpoints (no async
//!   runtime; one thread per connection).
//! * [`loadtest`] — the load-generation client the CI smoke step runs:
//!   N concurrent sessions to completion, asserting fair progress and
//!   bounded p99 slice latency.
//!
//! Everything is `std`-only: the vendored-offline build environment
//! has no tokio, and does not need one — sessions are CPU-bound and
//! the scheduler's unit of concurrency is a slice, not a socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod loadtest;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;

pub use cache::{ImageCache, IMAGE_CACHE_CAP};
pub use client::Client;
pub use job::{JobSource, JobSpec, DEFAULT_JOB_RETIRED};
pub use scheduler::{Scheduler, SchedulerConfig, FINISHED_SESSION_CAP};
pub use server::{Server, ServiceConfig};
pub use session::{SessionHandle, SessionStatus};

/// Protocol identifier sent in the `HELLO` response and checked by
/// clients (version-gated, like the checkpoint format's magic line).
pub const PROTOCOL: &str = "art9-service v1";

/// Unwraps a lock or condvar result, recovering the guard when another
/// thread panicked while holding the lock. What these locks guard
/// (queues, maps, counters, session state) stays usable after such a
/// panic, so one panicking thread must not take every later user of
/// the lock down with it.
pub(crate) fn recover<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
