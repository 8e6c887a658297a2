//! COO-Ttv-GPU and HiCOO-Ttv-GPU: one thread per mode-`n` fiber (paper
//! §3.2.2). Fibers of different lengths diverge inside a warp, so the trace
//! walks lock-step over fiber elements with only the active lanes issuing
//! — the load-imbalance behaviour the paper flags for COO-Ttv-GPU.

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseVector;
use tenbench_core::error::Result;
use tenbench_core::hicoo::{GHicooTensor, HicooTensor};
use tenbench_core::kernels::ttv::{ttv_ghicoo_seq, ttv_prepared_seq};
use tenbench_core::kernels::Kernel;
use tenbench_core::scalar::Scalar;

use crate::device::DeviceSpec;
use crate::mem::{AccessKind, AddressSpace, MemoryTracker};
use crate::report::GpuKernelStats;

use super::BLOCK_THREADS;

/// Shared fiber-parallel trace. `fiber_starts[f]..fiber_starts[f+1]` is
/// fiber `f`'s nonzero range; `prod_inds` are the product-mode indices
/// (read in the inner loop); `out_index_bytes` is the per-mode width of the
/// output index copies (4 for COO, 1 for HiCOO element indices).
#[allow(clippy::too_many_arguments)]
fn trace_fiber_kernel<S: Scalar>(
    dev: &DeviceSpec,
    fiber_starts: &[usize],
    prod_inds: &[u32],
    other_modes: usize,
    vlen: usize,
    out_index_bytes: u64,
) -> MemoryTracker {
    let mf = fiber_starts.len().saturating_sub(1);
    let m = prod_inds.len();
    let grid = mf.div_ceil(BLOCK_THREADS).max(1);
    let mut space = AddressSpace::new();
    let fptr = space.alloc(8 * (mf as u64 + 1));
    let xind = space.alloc(4 * m as u64);
    let xval = space.alloc(S::BYTES * m as u64);
    let vbase = space.alloc(S::BYTES * vlen as u64);
    let in_idx: Vec<u64> = (0..other_modes)
        .map(|_| space.alloc(4 * m as u64))
        .collect();
    let out_idx: Vec<u64> = (0..other_modes)
        .map(|_| space.alloc(out_index_bytes * mf as u64))
        .collect();
    let out_val = space.alloc(S::BYTES * mf as u64);

    let mut t = MemoryTracker::new(dev, grid);
    let mut addrs: Vec<u64> = Vec::with_capacity(32);
    let mut f0 = 0usize;
    while f0 < mf {
        let lanes = (mf - f0).min(32);
        t.begin_block(f0 / BLOCK_THREADS);
        // fptr[f] / fptr[f+1] loads.
        t.access_contig(AccessKind::Load, fptr, f0 as u64, lanes as u64 + 1, 8);
        // Output index copies: gather the fiber-start index, store it.
        for (src, dst) in in_idx.iter().zip(&out_idx) {
            addrs.clear();
            for f in f0..f0 + lanes {
                addrs.push(src + 4 * fiber_starts[f] as u64);
            }
            t.access_gather(AccessKind::Load, &addrs, 4);
            t.access_contig(
                AccessKind::Store,
                *dst,
                f0 as u64,
                lanes as u64,
                out_index_bytes,
            );
        }
        // Lock-step walk over fiber elements.
        let maxlen = (f0..f0 + lanes)
            .map(|f| fiber_starts[f + 1] - fiber_starts[f])
            .max()
            .unwrap_or(0);
        for s in 0..maxlen {
            addrs.clear();
            for f in f0..f0 + lanes {
                let len = fiber_starts[f + 1] - fiber_starts[f];
                if s < len {
                    addrs.push((fiber_starts[f] + s) as u64);
                }
            }
            if addrs.is_empty() {
                continue;
            }
            let val_addrs: Vec<u64> = addrs.iter().map(|&e| xval + S::BYTES * e).collect();
            let ind_addrs: Vec<u64> = addrs.iter().map(|&e| xind + 4 * e).collect();
            let v_addrs: Vec<u64> = addrs
                .iter()
                .map(|&e| vbase + S::BYTES * prod_inds[e as usize] as u64)
                .collect();
            t.access_gather(AccessKind::Load, &val_addrs, S::BYTES);
            t.access_gather(AccessKind::Load, &ind_addrs, 4);
            t.access_gather(AccessKind::Load, &v_addrs, S::BYTES);
            t.instr(2.0);
        }
        // Final value store.
        t.access_contig(
            AccessKind::Store,
            out_val,
            f0 as u64,
            lanes as u64,
            S::BYTES,
        );
        f0 += 32;
    }
    t
}

/// COO-Ttv-GPU: clones and mode-last-sorts the input (pre-processing),
/// computes the functional result, and models the fiber-parallel launch.
pub fn ttv_coo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &CooTensor<S>,
    v: &DenseVector<S>,
    mode: usize,
) -> Result<(CooTensor<S>, GpuKernelStats)> {
    let mut xs = x.clone();
    let fp = xs.fibers(mode)?;
    let out = ttv_prepared_seq(&xs, &fp, v)?;
    let tracker =
        trace_fiber_kernel::<S>(dev, &fp.fptr, xs.mode_inds(mode), x.order() - 1, v.len(), 4);
    let stats = GpuKernelStats::from_tracker(
        "Ttv",
        "COO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ttv.flops(x.order(), x.nnz() as u64, 0),
    );
    Ok((out, stats))
}

/// HiCOO-Ttv-GPU: gHiCOO input with the product mode uncompressed (§3.4.1),
/// same fiber-parallel value loop, HiCOO output with 8-bit index copies.
pub fn ttv_hicoo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    h: &HicooTensor<S>,
    v: &DenseVector<S>,
    mode: usize,
) -> Result<(HicooTensor<S>, GpuKernelStats)> {
    let g = GHicooTensor::from_coo_for_mode(&h.to_coo(), h.block_bits(), mode)?;
    let fp = g.fibers(mode)?;
    let out = ttv_ghicoo_seq(&g, &fp, v)?;
    let tracker = trace_fiber_kernel::<S>(
        dev,
        &fp.fptr,
        g.find(mode),
        h.order() - 1,
        v.len(),
        1, // 8-bit element indices in the HiCOO output
    );
    let stats = GpuKernelStats::from_tracker(
        "Ttv",
        "HiCOO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ttv.flops(h.order(), h.nnz() as u64, 0),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use tenbench_core::kernels::ttv::ttv;
    use tenbench_core::shape::Shape;

    use super::*;

    fn sample(n: usize) -> CooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..n)
            .map(|i| {
                (
                    vec![
                        (i % 53) as u32,
                        ((i * 5) % 59) as u32,
                        ((i * 17) % 61) as u32,
                    ],
                    (i % 11) as f32 + 0.5,
                )
            })
            .collect();
        CooTensor::from_entries(Shape::new(vec![53, 59, 61]), entries).unwrap()
    }

    #[test]
    fn functional_output_matches_cpu_every_mode() {
        let x = sample(3000);
        let dev = DeviceSpec::p100();
        for mode in 0..3 {
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i + 1) as f32);
            let (out, stats) = ttv_coo_gpu(&dev, &x, &v, mode).unwrap();
            let cpu = ttv(&x, &v, mode).unwrap();
            assert_eq!(out.to_map(), cpu.to_map(), "mode {mode}");
            assert!(stats.gflops() > 0.0);
        }
    }

    #[test]
    fn hicoo_matches_coo_functionally() {
        let x = sample(2000);
        let h = HicooTensor::from_coo(&x, 4).unwrap();
        let dev = DeviceSpec::v100();
        for mode in 0..3 {
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (2 * i) as f32);
            let (hout, _) = ttv_hicoo_gpu(&dev, &h, &v, mode).unwrap();
            let (cout, _) = ttv_coo_gpu(&dev, &x, &v, mode).unwrap();
            assert_eq!(hout.to_map(), cout.to_map(), "mode {mode}");
        }
    }

    #[test]
    fn irregular_gathers_cost_more_sectors_than_tew() {
        // Per inner element Ttv issues 3 gathers whose vector access is
        // data-dependent — sectors per nonzero must exceed the streaming
        // kernels'.
        let x = sample(6400);
        let dev = DeviceSpec::p100();
        let v = DenseVector::constant(61, 1.0f32);
        let (_, ttv_stats) = ttv_coo_gpu(&dev, &x, &v, 2).unwrap();
        let (_, ts_stats) =
            crate::kernels::ts::ts_coo_gpu(&dev, &x, 1.0, tenbench_core::kernels::EwOp::Add)
                .unwrap();
        assert!(ttv_stats.sectors > ts_stats.sectors);
    }

    #[test]
    fn vector_reuse_hits_the_cache_hierarchy() {
        // The dense vector is tiny; its repeated gathers must be served by
        // the L1 (within a block) or the L2 (across blocks), not DRAM.
        let mut x = sample(5000);
        let dev = DeviceSpec::p100();
        let fp = x.fibers(2).unwrap();
        let t = trace_fiber_kernel::<f32>(&dev, &fp.fptr, x.mode_inds(2), 2, 61, 4);
        let l1_hits: u64 = t.per_block().iter().map(|b| b.l1_sectors).sum();
        let touches = l1_hits + t.sectors;
        let hit = (l1_hits + t.l2_hits) as f64 / touches as f64;
        assert!(hit > 0.1, "hierarchy hit rate {hit}");
        assert!(l1_hits > 0);
    }
}
