//! # tenbench-bench
//!
//! The library behind the `tenbench` binary: everything needed to
//! regenerate the paper's tables and figures from this repository
//! (`tenbench paper`), and to time, sweep, verify and serve the kernel
//! cells.
//!
//! * [`paper`] — the paper's tables, figures and observations, one run
//!   generating each selected dataset once, in memory.
//! * `format` — aligned text tables and ASCII log-log plots for terminal
//!   "figures".
//! * [`cells`] — the kernel-cell table: every timed kernel × format ×
//!   strategy and the conversion pipeline, with their prepared inputs.
//! * [`suite`] — the one sampler, the measured CPU kernel suite (Figures
//!   4–5) and the simulated GPU suite (Figures 6–7), with per-tensor
//!   Roofline bounds.
//! * [`supervisor`] — watchdog timeouts, panic isolation, strategy
//!   fallback, and output validation for long sweeps.
//! * [`metrics`] — observability glue: trace/counter capture lifecycle
//!   and pool-telemetry snapshots merged into reports.
//! * [`serve_exec`] — plugs the supervisor in as the execution backend of
//!   the `tenbench-serve` kernel service.
//! * [`chaos`] — the fault-injection harness: a live service under load
//!   with panics, hangs, checkpoint corruption, and queue-full bursts,
//!   gated on zero lost jobs and bitwise resume determinism.

// Index-heavy kernel code deliberately uses explicit loop indices over
// several parallel arrays; the iterator forms clippy suggests are less
// readable there.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cells;
pub mod chaos;
pub mod cli;
pub(crate) mod format;
pub mod metrics;
pub mod paper;
pub mod serve_exec;
pub mod suite;
pub mod supervisor;
