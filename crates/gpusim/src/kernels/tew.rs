//! COO-Tew-GPU and HiCOO-Tew-GPU: one thread per nonzero, fully coalesced
//! value streams (paper §3.2.2).

use tenbench_core::coo::CooTensor;
use tenbench_core::error::Result;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::tew::{tew_hicoo_same_pattern, tew_same_pattern_seq};
use tenbench_core::kernels::{EwOp, Kernel};
use tenbench_core::scalar::Scalar;

use crate::device::DeviceSpec;
use crate::mem::{AccessKind, AddressSpace, MemoryTracker};
use crate::report::GpuKernelStats;

use super::BLOCK_THREADS;

/// Trace a same-pattern element-wise kernel over `m` values of `val_bytes`
/// each: two loads and one store per element, warp by warp.
fn trace_elementwise<S: Scalar>(
    dev: &DeviceSpec,
    m: usize,
    arrays_in: usize,
    val_bytes: u64,
) -> MemoryTracker {
    let _ = std::marker::PhantomData::<S>;
    let grid = m.div_ceil(BLOCK_THREADS).max(1);
    let mut space = AddressSpace::new();
    let inputs: Vec<u64> = (0..arrays_in)
        .map(|_| space.alloc(m as u64 * val_bytes))
        .collect();
    let out = space.alloc(m as u64 * val_bytes);
    let mut t = MemoryTracker::new(dev, grid);
    let mut e = 0usize;
    while e < m {
        let lanes = (m - e).min(32) as u64;
        t.begin_block(e / BLOCK_THREADS);
        for &base in &inputs {
            t.access_contig(AccessKind::Load, base, e as u64, lanes, val_bytes);
        }
        t.access_contig(AccessKind::Store, out, e as u64, lanes, val_bytes);
        t.instr(1.0); // the arithmetic instruction
        e += 32;
    }
    t
}

/// COO-Tew-GPU over two same-pattern tensors.
pub fn tew_coo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> Result<(CooTensor<S>, GpuKernelStats)> {
    let out = tew_same_pattern_seq(x, y, op)?;
    let tracker = trace_elementwise::<S>(dev, x.nnz(), 2, S::BYTES);
    let stats = GpuKernelStats::from_tracker(
        "Tew",
        "COO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Tew.flops(x.order(), x.nnz() as u64, 0),
    );
    Ok((out, stats))
}

/// HiCOO-Tew-GPU: identical value computation, HiCOO-structured output
/// ("HiCOO-GPU implementations are also the same with COO ones except
/// Mttkrp").
pub fn tew_hicoo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &HicooTensor<S>,
    y: &HicooTensor<S>,
    op: EwOp,
) -> Result<(HicooTensor<S>, GpuKernelStats)> {
    let out = tew_hicoo_same_pattern(x, y, op)?;
    let tracker = trace_elementwise::<S>(dev, x.nnz(), 2, S::BYTES);
    let stats = GpuKernelStats::from_tracker(
        "Tew",
        "HiCOO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Tew.flops(x.order(), x.nnz() as u64, 0),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use tenbench_core::shape::Shape;

    use super::*;

    fn pair(n: usize) -> (CooTensor<f32>, CooTensor<f32>) {
        let entries: Vec<(Vec<u32>, f32)> = (0..n)
            .map(|i| {
                (
                    vec![
                        (i % 97) as u32,
                        ((i * 7) % 89) as u32,
                        ((i * 13) % 83) as u32,
                    ],
                    i as f32 + 1.0,
                )
            })
            .collect();
        let shape = Shape::new(vec![97, 89, 83]);
        let x = CooTensor::from_entries(shape.clone(), entries.clone()).unwrap();
        let y = {
            let mut y = x.clone();
            y.vals_mut().iter_mut().for_each(|v| *v *= 2.0);
            y
        };
        (x, y)
    }

    #[test]
    fn functional_output_matches_cpu() {
        let (x, y) = pair(1000);
        let dev = DeviceSpec::p100();
        let (out, stats) = tew_coo_gpu(&dev, &x, &y, EwOp::Add).unwrap();
        let cpu = tew_same_pattern_seq(&x, &y, EwOp::Add).unwrap();
        assert_eq!(out, cpu);
        assert!(stats.time_s > 0.0);
        assert!(stats.gflops() > 0.0);
    }

    #[test]
    fn trace_is_fully_coalesced() {
        let (x, y) = pair(3200);
        let dev = DeviceSpec::p100();
        let (_, stats) = tew_coo_gpu(&dev, &x, &y, EwOp::Mul).unwrap();
        // 3 arrays x 4 bytes x M, cold: sectors = 3 * M * 4 / 32.
        let expect = 3 * x.nnz() as u64 * 4 / 32;
        assert_eq!(stats.sectors, expect);
        assert_eq!(stats.l2_hits, 0); // streaming, no reuse
    }

    #[test]
    fn small_tensors_run_faster_than_dram_bound_large_ones() {
        let dev = DeviceSpec::p100();
        let (x1, y1) = pair(500);
        let (x2, y2) = pair(50_000);
        let (_, s1) = tew_coo_gpu(&dev, &x1, &y1, EwOp::Add).unwrap();
        let (_, s2) = tew_coo_gpu(&dev, &x2, &y2, EwOp::Add).unwrap();
        assert!(s1.time_s < s2.time_s);
    }

    #[test]
    fn hicoo_variant_matches_coo_values() {
        let (x, y) = pair(2000);
        let hx = HicooTensor::from_coo(&x, 4).unwrap();
        let hy = HicooTensor::from_coo(&y, 4).unwrap();
        let dev = DeviceSpec::v100();
        let (out, stats) = tew_hicoo_gpu(&dev, &hx, &hy, EwOp::Add).unwrap();
        let (cpu_out, _) = tew_coo_gpu(&dev, &x, &y, EwOp::Add).unwrap();
        assert_eq!(out.to_map(), cpu_out.to_map());
        assert_eq!(stats.format, "HiCOO");
    }
}
