//! COO-Mttkrp-GPU and HiCOO-Mttkrp-GPU (paper §3.2.2, §3.4.2).
//!
//! The COO kernel uses 2D thread blocks (x = matrix columns, y = nonzeros)
//! with `atomicAdd` on the output rows — balanced work, contended atomics.
//! The HiCOO kernel maps one tensor block to one thread block, which
//! destroys the nonzero balance ("the work imbalance due to different
//! numbers of non-zeros in tensor blocks could make its performance even
//! worse than COO-Mttkrp-GPU") while the atomics stay.

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::error::Result;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::mttkrp::{mttkrp_hicoo_seq, mttkrp_seq};
use tenbench_core::kernels::Kernel;
use tenbench_core::scalar::Scalar;

use crate::device::DeviceSpec;
use crate::mem::{AccessKind, AddressSpace, MemoryTracker};
use crate::report::GpuKernelStats;

use super::{column_lanes, BLOCK_THREADS};

/// COO-Mttkrp-GPU.
pub fn mttkrp_coo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<(DenseMatrix<S>, GpuKernelStats)> {
    let out = mttkrp_seq(x, factors, mode)?;
    let order = x.order();
    let m = x.nnz();
    let r = factors[0].cols();
    let rx = column_lanes(r);
    let npw = (32 / rx).max(1); // nonzeros per warp
    let nnz_per_block = (BLOCK_THREADS / rx).max(1);
    let grid = m.div_ceil(nnz_per_block).max(1);

    let mut space = AddressSpace::new();
    let inds: Vec<u64> = (0..order).map(|_| space.alloc(4 * m as u64)).collect();
    let xval = space.alloc(S::BYTES * m as u64);
    let fbase: Vec<u64> = factors
        .iter()
        .map(|f| space.alloc(S::BYTES * (f.rows() * r) as u64))
        .collect();
    let abase = fbase[mode];

    let mut t = MemoryTracker::new(dev, grid);
    let mut z0 = 0usize;
    while z0 < m {
        let nz = (m - z0).min(npw);
        t.begin_block(z0 / nnz_per_block);
        // Index and value loads (one lane per nonzero, contiguous).
        for base in &inds {
            t.access_contig(AccessKind::Load, *base, z0 as u64, nz as u64, 4);
        }
        t.access_contig(AccessKind::Load, xval, z0 as u64, nz as u64, S::BYTES);
        // Factor-row gathers for the non-product modes, rx columns at a
        // time (column chunks beyond the warp width replay).
        for chunk0 in (0..r).step_by(rx) {
            let cw = rx.min(r - chunk0);
            for (md, base) in fbase.iter().enumerate() {
                if md == mode {
                    continue;
                }
                let mut addrs: Vec<u64> = Vec::with_capacity(32);
                for z in z0..z0 + nz {
                    let i = x.mode_inds(md)[z] as u64;
                    for rl in 0..cw as u64 {
                        if addrs.len() < 32 {
                            addrs.push(base + S::BYTES * (i * r as u64 + chunk0 as u64 + rl));
                        }
                    }
                }
                t.access_gather(AccessKind::Load, &addrs, S::BYTES);
            }
            // Atomic adds to the output rows.
            let mut aaddrs: Vec<u64> = Vec::with_capacity(32);
            for z in z0..z0 + nz {
                let i = x.mode_inds(mode)[z] as u64;
                for rl in 0..cw as u64 {
                    if aaddrs.len() < 32 {
                        aaddrs.push(abase + S::BYTES * (i * r as u64 + chunk0 as u64 + rl));
                    }
                }
            }
            t.atomic_gather(&aaddrs, S::BYTES);
            t.instr(order as f64);
        }
        z0 += nz;
    }

    let stats = GpuKernelStats::from_tracker(
        "Mttkrp",
        "COO",
        dev,
        &t,
        BLOCK_THREADS,
        Kernel::Mttkrp.flops(order, m as u64, r as u64),
    );
    Ok((out, stats))
}

/// HiCOO-Mttkrp-GPU: one tensor block per thread block.
pub fn mttkrp_hicoo_gpu<S: Scalar>(
    dev: &DeviceSpec,
    h: &HicooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<(DenseMatrix<S>, GpuKernelStats)> {
    let out = mttkrp_hicoo_seq(h, factors, mode)?;
    let order = h.order();
    let m = h.nnz();
    let r = factors[0].cols();
    let rx = column_lanes(r);
    let npw = (32 / rx).max(1);
    let nb = h.num_blocks().max(1);
    let bits = h.block_bits();

    let mut space = AddressSpace::new();
    let bptr = space.alloc(8 * (nb as u64 + 1));
    let binds: Vec<u64> = (0..order).map(|_| space.alloc(4 * nb as u64)).collect();
    let einds: Vec<u64> = (0..order).map(|_| space.alloc(m as u64)).collect();
    let xval = space.alloc(S::BYTES * m as u64);
    let fbase: Vec<u64> = factors
        .iter()
        .map(|f| space.alloc(S::BYTES * (f.rows() * r) as u64))
        .collect();
    let abase = fbase[mode];

    let mut t = MemoryTracker::new(dev, nb);
    for b in 0..h.num_blocks() {
        t.begin_block(b);
        // Block metadata: bptr pair plus one block index per mode.
        t.access_contig(AccessKind::Load, bptr, b as u64, 2, 8);
        for base in &binds {
            t.access_contig(AccessKind::Load, *base, b as u64, 1, 4);
        }
        let base_rows: Vec<u64> = (0..order)
            .map(|md| (h.block_ind(b, md) as u64) << bits)
            .collect();
        let range = h.block_range(b);
        let mut z0 = range.start;
        while z0 < range.end {
            let nz = (range.end - z0).min(npw);
            // 8-bit element indices and the values.
            for base in &einds {
                t.access_contig(AccessKind::Load, *base, z0 as u64, nz as u64, 1);
            }
            t.access_contig(AccessKind::Load, xval, z0 as u64, nz as u64, S::BYTES);
            for chunk0 in (0..r).step_by(rx) {
                let cw = rx.min(r - chunk0);
                for (md, base) in fbase.iter().enumerate() {
                    if md == mode {
                        continue;
                    }
                    let mut addrs: Vec<u64> = Vec::with_capacity(32);
                    for z in z0..z0 + nz {
                        let i = base_rows[md] + h.einds()[md][z] as u64;
                        for rl in 0..cw as u64 {
                            if addrs.len() < 32 {
                                addrs.push(base + S::BYTES * (i * r as u64 + chunk0 as u64 + rl));
                            }
                        }
                    }
                    t.access_gather(AccessKind::Load, &addrs, S::BYTES);
                }
                let mut aaddrs: Vec<u64> = Vec::with_capacity(32);
                for z in z0..z0 + nz {
                    let i = base_rows[mode] + h.einds()[mode][z] as u64;
                    for rl in 0..cw as u64 {
                        if aaddrs.len() < 32 {
                            aaddrs.push(abase + S::BYTES * (i * r as u64 + chunk0 as u64 + rl));
                        }
                    }
                }
                t.atomic_gather(&aaddrs, S::BYTES);
                t.instr(order as f64);
            }
            z0 += nz;
        }
    }

    let stats = GpuKernelStats::from_tracker(
        "Mttkrp",
        "HiCOO",
        dev,
        &t,
        BLOCK_THREADS,
        Kernel::Mttkrp.flops(order, m as u64, r as u64),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use tenbench_core::scalar::approx_eq;
    use tenbench_core::shape::Shape;

    use super::*;

    fn sample(n: usize) -> CooTensor<f32> {
        let entries: Vec<(Vec<u32>, f32)> = (0..n)
            .map(|i| {
                (
                    vec![
                        (i % 37) as u32,
                        ((i * 3) % 31) as u32,
                        ((i * 7) % 29) as u32,
                    ],
                    ((i % 13) as f32 - 6.0) * 0.25,
                )
            })
            .collect();
        CooTensor::from_entries(Shape::new(vec![37, 31, 29]), entries).unwrap()
    }

    fn factors(x: &CooTensor<f32>, r: usize) -> Vec<DenseMatrix<f32>> {
        (0..x.order())
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                    ((i * 5 + j * 3 + m) % 7) as f32 - 3.0
                })
            })
            .collect()
    }

    #[test]
    fn functional_output_matches_cpu_every_mode() {
        let x = sample(2000);
        let f = factors(&x, 16);
        let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
        let dev = DeviceSpec::p100();
        for mode in 0..3 {
            let (out, stats) = mttkrp_coo_gpu(&dev, &x, &frefs, mode).unwrap();
            let cpu = mttkrp_seq(&x, &frefs, mode).unwrap();
            for (a, b) in out.data().iter().zip(cpu.data()) {
                assert!(approx_eq(*a, *b, 1e-5));
            }
            assert!(stats.atomics > 0);
        }
    }

    #[test]
    fn hicoo_matches_cpu_every_mode() {
        let x = sample(1500);
        let h = HicooTensor::from_coo(&x, 3).unwrap();
        let f = factors(&x, 16);
        let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
        let dev = DeviceSpec::v100();
        for mode in 0..3 {
            let (out, _) = mttkrp_hicoo_gpu(&dev, &h, &frefs, mode).unwrap();
            let cpu = mttkrp_seq(&x, &frefs, mode).unwrap();
            for (a, b) in out.data().iter().zip(cpu.data()) {
                assert!(approx_eq(*a, *b, 1e-4));
            }
        }
    }

    #[test]
    fn row_contention_shows_up_as_atomic_conflicts() {
        // Every nonzero in mode 0 row 0: same output row -> warp conflicts.
        let entries: Vec<(Vec<u32>, f32)> = (0..640)
            .map(|i| (vec![0, (i % 31) as u32, (i / 31) as u32], 1.0))
            .collect();
        let hot = CooTensor::from_entries(Shape::new(vec![4, 31, 32]), entries).unwrap();
        let f = factors(&hot, 16);
        let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
        let dev = DeviceSpec::p100();
        let (_, hot_stats) = mttkrp_coo_gpu(&dev, &hot, &frefs, 0).unwrap();
        // Spread tensor: distinct rows -> conflict depth ~ warp count.
        let spread = sample(640);
        let fs = factors(&spread, 16);
        let fsr: Vec<&DenseMatrix<f32>> = fs.iter().collect();
        let (_, spread_stats) = mttkrp_coo_gpu(&dev, &spread, &fsr, 0).unwrap();
        assert!(hot_stats.atomic_conflict_depth > spread_stats.atomic_conflict_depth);
    }

    #[test]
    fn v100_beats_p100_on_mttkrp() {
        // Observation: improved atomics + bigger L2 + more bandwidth.
        let x = sample(4000);
        let f = factors(&x, 16);
        let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
        let (_, p) = mttkrp_coo_gpu(&DeviceSpec::p100(), &x, &frefs, 0).unwrap();
        let (_, v) = mttkrp_coo_gpu(&DeviceSpec::v100(), &x, &frefs, 0).unwrap();
        assert!(v.time_s < p.time_s);
    }
}
