//! # tenbench-gen
//!
//! Synthetic sparse tensor generation for the `tenbench` suite (paper §4).
//!
//! Two generator families are provided, both extended from synthetic graph
//! generation exactly as the paper describes:
//!
//! * `kronecker` — the stochastic Kronecker model (Graph500-style R-MAT
//!   descent generalized to `N` modes), producing equidimensional "regular"
//!   tensors with power-law degree distributions; oversized coordinates are
//!   stripped off per the paper's strip-off rule.
//! * `powerlaw` — a FireHose-style biased power-law stream generator
//!   whose edge streams are stacked into slices of 3rd/4th-order
//!   "irregular" tensors with one or two small dense modes.
//!
//! [`registry`] describes every tensor of the paper's Tables 2 and 3 (the
//! real-world tensors are replaced by seeded surrogates with the same order,
//! aspect ratios, and sparsity regime — see DESIGN.md §2) and generates
//! laptop-scale instances of each. `stats` computes the per-tensor
//! quantities (fiber counts, block counts) the Roofline bounds need.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod kronecker;
pub(crate) mod powerlaw;
pub mod registry;
pub(crate) mod stats;
pub mod zipf;

pub use kronecker::KroneckerGenerator;
pub use powerlaw::PowerLawGenerator;
pub use registry::Dataset;
pub use stats::TensorStats;
