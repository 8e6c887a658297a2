//! Simulated GPU kernels for the five benchmark operations (paper §3.2.2,
//! §3.4.2).
//!
//! Each function performs the *functional* computation on the CPU (reusing
//! the reference sequential kernels, whose per-element math is identical to
//! the CUDA kernels being modeled) and separately walks the launch's warps
//! to generate the memory trace that drives the timing model. Launch
//! geometry follows the paper:
//!
//! * Tew/Ts/Ttv — 1D grids of 1D 256-thread blocks over nonzeros/fibers,
//! * Ttm/Mttkrp — 1D grids of 2D thread blocks with the x-dimension over
//!   matrix columns (for coalescing) and the y-dimension over
//!   nonzeros/fibers,
//! * HiCOO-Mttkrp — one tensor block per thread block.

pub(crate) mod mttkrp;
pub(crate) mod tew;
pub(crate) mod ts;
pub(crate) mod ttm;
pub(crate) mod ttv;

pub use mttkrp::{mttkrp_coo_gpu, mttkrp_hicoo_gpu};
pub use tew::{tew_coo_gpu, tew_hicoo_gpu};
pub use ts::{ts_coo_gpu, ts_hicoo_gpu};
pub use ttm::{ttm_coo_gpu, ttm_hicoo_gpu};
pub use ttv::{ttv_coo_gpu, ttv_hicoo_gpu};

/// Threads per 1D block (the paper: "M non-zeros are assigned to M/256
/// thread blocks with 256 threads for each").
pub(crate) const BLOCK_THREADS: usize = 256;

/// Column lanes used by the 2D kernels: the x-dimension covers matrix
/// columns up to the warp width.
pub(crate) fn column_lanes(r: usize) -> usize {
    r.clamp(1, 32)
}
