//! The serving layer: a long-running in-process kernel service.
//!
//! PASTA frames the five sparse tensor kernels as repeatedly-invoked
//! building blocks of higher-level methods. This crate composes the
//! pieces PRs 1–4 built — scheduled kernels, the supervised executor, the
//! persistent pool, and the obs layer — into the shape such an invoker
//! actually needs: a [`service::KernelService`] that accepts kernel
//! requests (kernel × format × mode × rank), batches and caches them, and
//! answers with results plus per-request metrics.
//!
//! Three mechanisms do the work:
//!
//! - **Admission control** (`queue`): a bounded MPMC queue. A full
//!   queue rejects at submit with a typed error (`service::RejectReason`)
//!   instead of queueing unboundedly, and requests whose deadline passed
//!   while queued are shed at dequeue.
//! - **Format/schedule caching** (`cache`): an LRU keyed by tensor
//!   fingerprint that holds the HiCOO conversion and factor matrices,
//!   evicted by byte budget. The mode schedules live on the cached
//!   tensors themselves, so every reuse of an entry reuses them too.
//! - **Micro-batching** (`service`): same-tensor/same-kernel requests
//!   waiting in the queue coalesce into one supervised execution whose
//!   result fans back out to every waiter.
//!
//! Execution itself goes through the [`service::Executor`] trait: the
//! bench crate plugs in the watchdogged/validated supervisor, and
//! [`service::DirectExecutor`] runs kernels inline for tests. The
//! supervisor's attempts and the job engine's steps both run under
//! [`guard::run_guarded`] — one thread, `catch_unwind` and watchdog
//! primitive, which also writes the panic/timeout flight dumps. The load
//! generator in `stress` drives the service — in process or over TCP —
//! closed-loop with Zipf-skewed tensor popularity, then probes overload
//! behaviour with a burst.
//!
//! The service also has a socket-facing shape: `net` puts N sharded
//! `KernelService`s (partitioned by tensor fingerprint) behind a TCP
//! accept loop speaking the `TNF1` frame protocol from `tenbench_io`,
//! mapping every typed rejection onto a wire status code.
//!
//! Above single requests, `job` runs CP-ALS decompositions as
//! long-running guarded jobs with per-iteration checkpoint/resume and
//! bitwise-deterministic recovery — the substrate the chaos harness in
//! the bench crate tries (and fails) to kill.

#![warn(missing_docs)]

pub(crate) mod cache;
pub mod guard;
pub(crate) mod job;
pub(crate) mod net;
pub(crate) mod queue;
pub(crate) mod service;
pub(crate) mod stress;

pub use cache::{CacheKey, CacheStats, PrepCache, PrepLayout, Prepared};
pub use job::{
    FaultInjector, InjectedFault, JobConfig, JobError, JobOutcome, JobProgress, JobService,
    JobServiceReport, JobSpec, JobTicket, ScriptedFaults,
};
pub use net::{
    encode_request, NetClient, NetConfig, NetReport, NetServer, WireRequest, WireResponse,
    WireStatus,
};
pub use service::{
    execute_direct, BatchJob, DirectExecutor, ExecOutcome, Executor, FormatKind, KernelService,
    Request, Response, ServeConfig, ServeError, ServeReport, Ticket,
};
pub use stress::{burst, closed_loop, StressConfig, Tally, Transport, BURST_REQUESTS_PER_CLIENT};
