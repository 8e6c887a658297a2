//! COO-Ts-GPU and HiCOO-Ts-GPU: one thread per nonzero, one load and one
//! store per element (paper §3.2.2).

use tenbench_core::coo::CooTensor;
use tenbench_core::error::Result;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::ts::{ts_hicoo, ts_seq};
use tenbench_core::kernels::{EwOp, Kernel};
use tenbench_core::scalar::Scalar;

use crate::device::DeviceSpec;
use crate::mem::{AccessKind, AddressSpace, MemoryTracker};
use crate::report::GpuKernelStats;

use super::BLOCK_THREADS;

fn trace_ts(dev: &DeviceSpec, m: usize, val_bytes: u64) -> MemoryTracker {
    let grid = m.div_ceil(BLOCK_THREADS).max(1);
    let mut space = AddressSpace::new();
    let input = space.alloc(m as u64 * val_bytes);
    let out = space.alloc(m as u64 * val_bytes);
    let mut t = MemoryTracker::new(dev, grid);
    let mut e = 0usize;
    while e < m {
        let lanes = (m - e).min(32) as u64;
        t.begin_block(e / BLOCK_THREADS);
        t.access_contig(AccessKind::Load, input, e as u64, lanes, val_bytes);
        t.access_contig(AccessKind::Store, out, e as u64, lanes, val_bytes);
        t.instr(1.0);
        e += 32;
    }
    t
}

/// COO-Ts-GPU.
pub fn ts_coo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &CooTensor<S>,
    s: S,
    op: EwOp,
) -> Result<(CooTensor<S>, GpuKernelStats)> {
    let out = ts_seq(x, s, op)?;
    let tracker = trace_ts(dev, x.nnz(), S::BYTES);
    let stats = GpuKernelStats::from_tracker(
        "Ts",
        "COO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ts.flops(x.order(), x.nnz() as u64, 0),
    );
    Ok((out, stats))
}

/// HiCOO-Ts-GPU (same value loop, HiCOO-structured output).
pub fn ts_hicoo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &HicooTensor<S>,
    s: S,
    op: EwOp,
) -> Result<(HicooTensor<S>, GpuKernelStats)> {
    let out = ts_hicoo(x, s, op)?;
    let tracker = trace_ts(dev, x.nnz(), S::BYTES);
    let stats = GpuKernelStats::from_tracker(
        "Ts",
        "HiCOO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ts.flops(x.order(), x.nnz() as u64, 0),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use tenbench_core::shape::Shape;

    use super::*;

    fn sample(n: usize) -> CooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..n)
            .map(|i| {
                (
                    vec![
                        (i % 101) as u32,
                        ((i * 3) % 103) as u32,
                        ((i * 11) % 107) as u32,
                    ],
                    i as f32 - 50.0,
                )
            })
            .collect();
        CooTensor::from_entries(Shape::new(vec![101, 103, 107]), entries).unwrap()
    }

    #[test]
    fn functional_output_matches_cpu() {
        let x = sample(2048);
        let dev = DeviceSpec::v100();
        let (out, stats) = ts_coo_gpu(&dev, &x, 3.0, EwOp::Mul).unwrap();
        assert_eq!(out, ts_seq(&x, 3.0, EwOp::Mul).unwrap());
        assert_eq!(stats.kernel, "Ts");
        assert!(stats.gflops() > 0.0);
    }

    #[test]
    fn ts_moves_fewer_bytes_than_tew() {
        // OI 1/8 vs 1/12: two value arrays vs three.
        let x = sample(6400);
        let dev = DeviceSpec::p100();
        let (_, ts_stats) = ts_coo_gpu(&dev, &x, 1.0, EwOp::Add).unwrap();
        let y = x.clone();
        let (_, tew_stats) = crate::kernels::tew::tew_coo_gpu(&dev, &x, &y, EwOp::Add).unwrap();
        assert!(ts_stats.dram_bytes < tew_stats.dram_bytes);
    }

    #[test]
    fn division_by_zero_propagates() {
        let x = sample(100);
        let dev = DeviceSpec::p100();
        assert!(ts_coo_gpu(&dev, &x, 0.0, EwOp::Div).is_err());
    }

    #[test]
    fn hicoo_matches_coo() {
        let x = sample(1500);
        let h = HicooTensor::from_coo(&x, 4).unwrap();
        let dev = DeviceSpec::p100();
        let (hout, _) = ts_hicoo_gpu(&dev, &h, 2.0, EwOp::Add).unwrap();
        let (cout, _) = ts_coo_gpu(&dev, &x, 2.0, EwOp::Add).unwrap();
        assert_eq!(hout.to_map(), cout.to_map());
    }
}
