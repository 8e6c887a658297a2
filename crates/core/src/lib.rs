//! # tenbench-core
//!
//! Sparse tensor formats and parallel reference kernels for the `tenbench`
//! suite, a Rust reproduction of *"A Parallel Sparse Tensor Benchmark Suite
//! on CPUs and GPUs"* (Li et al., 2020).
//!
//! ## Formats
//!
//! * [`coo::CooTensor`] — coordinate format for general sparse tensors of
//!   arbitrary order (struct-of-arrays `u32` indices, generic values).
//! * [`coo::SemiSparseTensor`] — sCOO, for semi-sparse tensors with one dense
//!   mode (the natural output format of Ttm).
//! * [`hicoo::HicooTensor`] — hierarchical coordinate format: Morton-sorted
//!   blocks with 32-bit block indices and 8-bit element indices.
//! * [`hicoo::GHicooTensor`] — generalized HiCOO where each mode is either
//!   block-compressed or kept as a plain COO index array.
//! * [`hicoo::SemiSparseHicooTensor`] — sHiCOO, the semi-sparse HiCOO variant.
//!
//! ## Kernels
//!
//! The five benchmark kernels of the paper, each with sequential and
//! parallel CPU implementations over COO and HiCOO ([`par`] is the runtime:
//! one persistent pool under a chunked parallel-for):
//!
//! * [`kernels::tew`] — element-wise add/sub/mul/div of two tensors,
//! * [`kernels::ts`] — tensor–scalar add/sub/mul/div,
//! * [`kernels::ttv`] — tensor-times-vector in a chosen mode,
//! * [`kernels::ttm`] — tensor-times-matrix in a chosen mode,
//! * [`kernels::mttkrp`] — matricized tensor times Khatri–Rao product.
//!
//! [`analysis`] implements the paper's Table 1 work/memory/operational-
//! intensity accounting, and [`methods`] builds CP-ALS, the decomposition
//! the job engine runs, on the scheduled COO Mttkrp.
//!
//! ## Quick example
//!
//! ```
//! use tenbench_core::prelude::*;
//!
//! // A 3rd-order 4x4x4 tensor with four nonzeros.
//! let x = CooTensor::<f32>::from_entries(
//!     Shape::new(vec![4, 4, 4]),
//!     vec![(vec![0, 0, 0], 1.0), (vec![1, 2, 3], 2.0),
//!          (vec![2, 2, 2], 3.0), (vec![3, 0, 1], 4.0)],
//! )
//! .unwrap();
//!
//! // Tensor-times-vector in the last mode.
//! let v = DenseVector::from_vec(vec![1.0; 4]);
//! let y = tenbench_core::kernels::ttv::ttv(&x, &v, 2).unwrap();
//! assert_eq!(y.order(), 2);
//!
//! // Same computation through HiCOO agrees.
//! let h = HicooTensor::from_coo(&x, 7).unwrap();
//! let yh = tenbench_core::kernels::ttv::ttv_hicoo(&h, &v, 2).unwrap();
//! assert_eq!(y.nnz(), yh.to_coo().nnz());
//! ```

// Index-heavy kernel code deliberately uses explicit loop indices over
// several parallel arrays; the iterator forms clippy suggests are less
// readable there.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub(crate) mod atomic;
pub mod coo;
pub mod dense;
pub mod error;
pub mod hicoo;
pub mod kernels;
pub mod methods;
pub mod par;
pub(crate) mod radix;
pub mod reorder;
pub mod scalar;
pub mod sched;
pub mod shape;
pub(crate) mod simd;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::coo::{CooTensor, SemiSparseTensor};
    pub use crate::dense::{DenseMatrix, DenseVector};
    pub use crate::error::{Result, TensorError};
    pub use crate::hicoo::{GHicooTensor, HicooTensor, SemiSparseHicooTensor};
    pub use crate::kernels::{EwOp, Kernel};
    pub use crate::shape::Shape;
}

pub use crate::error::{Result, TensorError};
pub use crate::shape::Shape;
