//! # tenbench-roofline
//!
//! Roofline performance modeling for the `tenbench` suite (paper §5.2).
//!
//! * [`platform`] — the Table 4 platform registry (Bluesky, Wingtip,
//!   DGX-1P, DGX-1V) plus a descriptor for the host this suite runs on.
//! * [`ert`] — an Empirical Roofline Tool work-alike: STREAM-style
//!   micro-kernels swept over working-set sizes measure the host's
//!   obtainable DRAM and cache bandwidth and peak single-precision rate.
//! * [`model`] — roofline curves (`attainable = min(peak, OI x BW)`) and
//!   the kernel operational-intensity marks of Figure 3.
//! * [`bounds`] — the per-kernel, per-tensor "Roofline performance" upper
//!   bounds the paper overlays on Figures 4–7, using the exact OI from the
//!   Table 1 formulas.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod ert;
pub mod model;
pub mod platform;

pub use bounds::KernelBound;
pub use ert::ErtReport;
pub use model::Roofline;
pub use platform::{Platform, PLATFORMS};
