//! # tenbench
//!
//! Umbrella crate for the `tenbench` suite — a Rust reproduction of
//! *"A Parallel Sparse Tensor Benchmark Suite on CPUs and GPUs"*
//! (Li et al., 2020). Re-exports every sub-crate under one roof so examples
//! and downstream users need a single dependency.
//!
//! * [`core`] — sparse tensor formats (COO/sCOO/HiCOO/gHiCOO/sHiCOO) and
//!   the five parallel kernels (Tew, Ts, Ttv, Ttm, Mttkrp).
//! * [`gen`] — synthetic tensor generators (stochastic Kronecker, biased
//!   power law) and the Tables 2–3 dataset registry.
//! * [`gpusim`] — the trace-driven SIMT GPU simulator and GPU kernels.
//! * [`roofline`] — empirical Roofline measurement, platform models, and
//!   per-kernel performance bounds.
//! * [`io`] — FROSTT `.tns` and binary tensor I/O.

#![warn(missing_docs)]

pub use tenbench_core as core;
pub use tenbench_gen as gen;
pub use tenbench_gpusim as gpusim;
pub use tenbench_io as io;
pub use tenbench_roofline as roofline;

/// Convenient re-exports of the most commonly used items across the suite.
pub mod prelude {
    pub use tenbench_core::prelude::*;
    pub use tenbench_gen::{Dataset, KroneckerGenerator, PowerLawGenerator, TensorStats};
}
