//! COO-Ttm-GPU and HiCOO-Ttm-GPU: 1D grids of 2D thread blocks whose
//! x-dimension runs over matrix columns for coalescing and whose
//! y-dimension runs over fibers (paper §3.2.2, Ma et al. 2018).

use tenbench_core::coo::{CooTensor, SemiSparseTensor};
use tenbench_core::dense::DenseMatrix;
use tenbench_core::error::Result;
use tenbench_core::hicoo::{GHicooTensor, HicooTensor, SemiSparseHicooTensor};
use tenbench_core::kernels::ttm::{ttm_ghicoo, ttm_prepared_seq};
use tenbench_core::kernels::Kernel;
use tenbench_core::par::Schedule;
use tenbench_core::scalar::Scalar;

use crate::device::DeviceSpec;
use crate::mem::{AccessKind, AddressSpace, MemoryTracker};
use crate::report::GpuKernelStats;

use super::{column_lanes, BLOCK_THREADS};

/// Shared 2D fiber x column trace.
fn trace_ttm<S: Scalar>(
    dev: &DeviceSpec,
    fiber_starts: &[usize],
    prod_inds: &[u32],
    other_modes: usize,
    urows: usize,
    r: usize,
    out_index_bytes: u64,
) -> MemoryTracker {
    let mf = fiber_starts.len().saturating_sub(1);
    let m = prod_inds.len();
    let rx = column_lanes(r);
    let fibers_per_block = (BLOCK_THREADS / rx).max(1);
    let fpw = (32 / rx).max(1); // fibers per warp
    let grid = mf.div_ceil(fibers_per_block).max(1);

    let mut space = AddressSpace::new();
    let fptr = space.alloc(8 * (mf as u64 + 1));
    let xind = space.alloc(4 * m as u64);
    let xval = space.alloc(S::BYTES * m as u64);
    let ubase = space.alloc(S::BYTES * (urows * r) as u64);
    let in_idx: Vec<u64> = (0..other_modes)
        .map(|_| space.alloc(4 * m as u64))
        .collect();
    let out_idx: Vec<u64> = (0..other_modes)
        .map(|_| space.alloc(out_index_bytes * mf as u64))
        .collect();
    let out_val = space.alloc(S::BYTES * (mf * r) as u64);

    let mut t = MemoryTracker::new(dev, grid);
    let mut addrs: Vec<u64> = Vec::with_capacity(32);
    let mut f0 = 0usize;
    while f0 < mf {
        let nf = (mf - f0).min(fpw);
        t.begin_block(f0 / fibers_per_block);
        t.access_contig(AccessKind::Load, fptr, f0 as u64, nf as u64 + 1, 8);
        for (src, dst) in in_idx.iter().zip(&out_idx) {
            addrs.clear();
            for f in f0..f0 + nf {
                addrs.push(src + 4 * fiber_starts[f] as u64);
            }
            t.access_gather(AccessKind::Load, &addrs, 4);
            t.access_contig(
                AccessKind::Store,
                *dst,
                f0 as u64,
                nf as u64,
                out_index_bytes,
            );
        }
        let maxlen = (f0..f0 + nf)
            .map(|f| fiber_starts[f + 1] - fiber_starts[f])
            .max()
            .unwrap_or(0);
        for s in 0..maxlen {
            // Active fibers at this step.
            addrs.clear();
            for f in f0..f0 + nf {
                if s < fiber_starts[f + 1] - fiber_starts[f] {
                    addrs.push((fiber_starts[f] + s) as u64);
                }
            }
            if addrs.is_empty() {
                continue;
            }
            let val_addrs: Vec<u64> = addrs.iter().map(|&e| xval + S::BYTES * e).collect();
            let ind_addrs: Vec<u64> = addrs.iter().map(|&e| xind + 4 * e).collect();
            t.access_gather(AccessKind::Load, &val_addrs, S::BYTES);
            t.access_gather(AccessKind::Load, &ind_addrs, 4);
            // Matrix row gathers: rx consecutive columns per active fiber —
            // the coalesced access the x-dimension layout buys. Columns
            // beyond the warp width replay the loop.
            for chunk0 in (0..r).step_by(rx) {
                let cw = rx.min(r - chunk0);
                let mut row_addrs: Vec<u64> = Vec::with_capacity(32);
                for &e in &addrs {
                    let k = prod_inds[e as usize] as u64;
                    for rl in 0..cw as u64 {
                        if row_addrs.len() < 32 {
                            row_addrs.push(ubase + S::BYTES * (k * r as u64 + chunk0 as u64 + rl));
                        }
                    }
                }
                t.access_gather(AccessKind::Load, &row_addrs, S::BYTES);
                t.instr(2.0);
            }
        }
        // Output stripes: nf fibers x r columns, contiguous.
        t.access_contig(
            AccessKind::Store,
            out_val,
            (f0 * r) as u64,
            (nf * r) as u64,
            S::BYTES,
        );
        f0 += nf;
    }
    t
}

/// COO-Ttm-GPU.
pub fn ttm_coo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &CooTensor<S>,
    u: &DenseMatrix<S>,
    mode: usize,
) -> Result<(SemiSparseTensor<S>, GpuKernelStats)> {
    let mut xs = x.clone();
    let fp = xs.fibers(mode)?;
    let out = ttm_prepared_seq(&xs, &fp, u)?;
    let tracker = trace_ttm::<S>(
        dev,
        &fp.fptr,
        xs.mode_inds(mode),
        x.order() - 1,
        u.rows(),
        u.cols(),
        4,
    );
    let stats = GpuKernelStats::from_tracker(
        "Ttm",
        "COO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ttm.flops(x.order(), x.nnz() as u64, u.cols() as u64),
    );
    Ok((out, stats))
}

/// HiCOO-Ttm-GPU: gHiCOO input, sHiCOO output with 8-bit index copies.
pub fn ttm_hicoo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    h: &HicooTensor<S>,
    u: &DenseMatrix<S>,
    mode: usize,
) -> Result<(SemiSparseHicooTensor<S>, GpuKernelStats)> {
    let g = GHicooTensor::from_coo_for_mode(&h.to_coo(), h.block_bits(), mode)?;
    let fp = g.fibers(mode)?;
    let out = ttm_ghicoo(&g, &fp, u, Schedule::default())?;
    let tracker = trace_ttm::<S>(
        dev,
        &fp.fptr,
        g.find(mode),
        h.order() - 1,
        u.rows(),
        u.cols(),
        1,
    );
    let stats = GpuKernelStats::from_tracker(
        "Ttm",
        "HiCOO",
        dev,
        &tracker,
        BLOCK_THREADS,
        Kernel::Ttm.flops(h.order(), h.nnz() as u64, u.cols() as u64),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use tenbench_core::kernels::ttm::ttm;
    use tenbench_core::shape::Shape;

    use super::*;

    fn sample(n: usize) -> CooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..n)
            .map(|i| {
                (
                    vec![
                        (i % 47) as u32,
                        ((i * 3) % 43) as u32,
                        ((i * 7) % 41) as u32,
                    ],
                    (i % 9) as f32 - 4.0,
                )
            })
            .collect();
        CooTensor::from_entries(Shape::new(vec![47, 43, 41]), entries).unwrap()
    }

    #[test]
    fn functional_output_matches_cpu_every_mode() {
        let x = sample(2000);
        let dev = DeviceSpec::p100();
        for mode in 0..3 {
            let rows = x.shape().dim(mode) as usize;
            let u = DenseMatrix::from_fn(rows, 16, |i, j| ((i + j) % 7) as f32 - 3.0);
            let (out, stats) = ttm_coo_gpu(&dev, &x, &u, mode).unwrap();
            let cpu = ttm(&x, &u, mode).unwrap();
            assert_eq!(out.to_map(), cpu.to_map(), "mode {mode}");
            assert!(stats.gflops() > 0.0);
        }
    }

    #[test]
    fn hicoo_matches_coo_functionally() {
        let x = sample(1500);
        let h = HicooTensor::from_coo(&x, 4).unwrap();
        let dev = DeviceSpec::v100();
        let u = DenseMatrix::from_fn(41, 16, |i, j| (i * 16 + j) as f32 * 0.01);
        let (hout, _) = ttm_hicoo_gpu(&dev, &h, &u, 2).unwrap();
        let (cout, _) = ttm_coo_gpu(&dev, &x, &u, 2).unwrap();
        let hm = hout.to_map();
        let cm = cout.to_map();
        assert_eq!(hm.len(), cm.len());
        for (k, v) in &cm {
            assert!((hm[k] - v).abs() <= 1e-4 * v.abs().max(1.0), "{k:?}");
        }
    }

    #[test]
    fn coalesced_columns_beat_an_uncoalesced_estimate() {
        // With rx = 16 column lanes, a matrix-row warp access touches
        // ~2 sectors per fiber instead of 16: sectors must stay far below
        // the lane count (16 column lanes plus a value and an index lane
        // per nonzero).
        let x = sample(6000);
        let dev = DeviceSpec::p100();
        let u = DenseMatrix::constant(41, 16, 1.0f32);
        let (_, stats) = ttm_coo_gpu(&dev, &x, &u, 2).unwrap();
        let lanes = x.nnz() as u64 * (16 + 2);
        assert!(stats.sectors < lanes / 2, "{stats:?}");
    }

    #[test]
    fn higher_rank_means_more_work_and_traffic() {
        let x = sample(3000);
        let dev = DeviceSpec::p100();
        let u16 = DenseMatrix::constant(41, 16, 1.0f32);
        let u64c = DenseMatrix::constant(41, 64, 1.0f32);
        let (_, s16) = ttm_coo_gpu(&dev, &x, &u16, 2).unwrap();
        let (_, s64) = ttm_coo_gpu(&dev, &x, &u64c, 2).unwrap();
        assert!(s64.flops > s16.flops);
        assert!(s64.sectors > s16.sectors);
    }
}
