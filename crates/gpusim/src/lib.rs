//! # tenbench-gpusim
//!
//! A trace-driven SIMT GPU simulator and the GPU variants of the five
//! sparse tensor kernels (paper §3.2.2, §3.4.2).
//!
//! The paper evaluates on NVIDIA P100 and V100 GPUs; this repository has no
//! GPU, so the kernels run against a simulator that models exactly the
//! effects the paper's GPU observations rest on:
//!
//! * **Coalescing** — every warp memory instruction is coalesced into
//!   32-byte sectors (`mem::MemoryTracker`), so the column-major
//!   thread-block layout of Ttm/Mttkrp ("the x-dimension of thread blocks
//!   represents matrix columns for GPU memory coalescing") genuinely moves
//!   fewer bytes than an uncoalesced layout would.
//! * **Cache capacity** — a two-level hierarchy of set-associative LRU
//!   sector caches (`mem::CacheModel`): a block-private L1 (24 KB on
//!   P100, 96 KB on Volta's unified array; atomics bypass it) in front of
//!   the shared L2 (4 MB vs 6 MB) — the capacity edge that lets small
//!   tensors "break the upper bound" on DGX-1V (Observation 2).
//! * **Atomic contention** — same-address lanes in a warp atomic serialize;
//!   the V100's improved atomic throughput is a device parameter.
//! * **Load imbalance** — thread blocks are list-scheduled onto SM slots
//!   and the makespan is part of the modeled time, which is what makes
//!   HiCOO-Mttkrp-GPU (one tensor block per thread block, §3.4.2) lose to
//!   the nonzero-balanced COO-Mttkrp-GPU.
//!
//! Kernels execute *functionally* on the CPU (outputs are bit-compared
//! against the reference CPU kernels in the test suite) while their memory
//! traces drive the timing model; the modeled time is then reported as
//! GFLOPS using the paper's Table 1 work counts.
//!
//! # Examples
//! ```
//! use tenbench_core::prelude::*;
//! use tenbench_gpusim::device::DeviceSpec;
//! use tenbench_gpusim::kernels::ts_coo_gpu;
//! use tenbench_core::kernels::EwOp;
//!
//! let x = CooTensor::<f32>::from_entries(
//!     Shape::new(vec![64, 64, 64]),
//!     (0..1000u32).map(|i| (vec![i % 64, i / 64, (i * 7) % 64], 1.0)).collect(),
//! )?;
//! let (out, stats) = ts_coo_gpu(&DeviceSpec::v100(), &x, 2.0, EwOp::Mul)?;
//! assert_eq!(out.vals()[0], 2.0);
//! assert!(stats.gflops() > 0.0);
//! assert_eq!(stats.l2_hits + stats.l2_misses, stats.sectors);
//! # Ok::<(), TensorError>(())
//! ```

// Index-heavy kernel code deliberately uses explicit loop indices over
// several parallel arrays; the iterator forms clippy suggests are less
// readable there.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod device;
pub mod kernels;
pub(crate) mod mem;
pub(crate) mod report;
pub(crate) mod timing;

pub use report::GpuKernelStats;
