//! Ttm — tensor-times-matrix (the n-mode product, paper §2.4).
//!
//! `Y = X ×_n U` with `U ∈ R^{I_n x R}` (the paper's transposed convention
//! so that `U`'s rows are contiguous under row-major storage). By the
//! sparse-dense property the output is semi-sparse: mode `n` becomes dense
//! with stripe length `R`, the other modes keep the input's fiber pattern.
//! The output is therefore pre-allocated in sCOO (COO kernels) or sHiCOO
//! (HiCOO kernels) with `M_F` fibers, and fibers are parallelized without
//! races — COO-Ttm-OMP mirrors COO-Ttv-OMP (§3.2.1).

use tenbench_obs as obs;

use crate::analysis;
use crate::coo::{CooTensor, FiberPartition, SemiSparseTensor};
use crate::dense::DenseMatrix;
use crate::error::{Result, TensorError};
use crate::hicoo::{GHicooTensor, GhFiberPartition, HicooTensor, SemiSparseHicooTensor};
use crate::kernels::ttv::MAX_SCHED_ORDER;
use crate::par::{self, Schedule};
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::simd;

fn check_operand<S: Scalar>(shape: &Shape, mode: usize, u: &DenseMatrix<S>) -> Result<()> {
    shape.check_mode(mode)?;
    if u.rows() != shape.dim(mode) as usize {
        return Err(TensorError::OperandLengthMismatch {
            expected: shape.dim(mode) as usize,
            actual: u.rows(),
        });
    }
    if u.cols() == 0 {
        return Err(TensorError::OperandLengthMismatch {
            expected: 1,
            actual: 0,
        });
    }
    Ok(())
}

/// Charge one Ttm invocation over `m` nonzeros folding into `mf` output
/// fibers of dense stripe length `r` (`analysis::ttm_cost`).
fn charge(order: usize, m: usize, mf: usize, r: usize) {
    analysis::ttm_cost(order, m as u64, mf as u64, r as u64).charge();
}

/// COO-Ttm over a mode-last-sorted tensor with a precomputed fiber
/// partition, parallel over fibers. Output in sCOO.
pub fn ttm_prepared<S: Scalar>(
    x: &CooTensor<S>,
    fp: &FiberPartition,
    u: &DenseMatrix<S>,
    sched: Schedule,
) -> Result<SemiSparseTensor<S>> {
    let mode = fp.mode;
    check_operand(x.shape(), mode, u)?;
    if !x.sort_state().is_mode_last(x.order(), mode) {
        return Err(TensorError::InvalidStructure(format!(
            "Ttm requires the tensor sorted with mode {mode} innermost"
        )));
    }
    let _span = obs::span!("ttm.coo");
    let r = u.cols();
    let mf = fp.num_fibers();
    charge(x.order(), x.nnz(), mf, r);
    let out_shape = x.shape().with_mode_size(mode, r as u32)?;
    let xv = x.vals();
    let xk = x.mode_inds(mode);

    let mut vals = par::first_touch_filled(mf * r, S::ZERO);
    par::chunks_mut(&mut vals, r, sched, |f, stripe| {
        for m in fp.fiber_range(f) {
            simd::axpy(stripe, u.row(xk[m] as usize), xv[m]);
        }
    });

    let mut inds: Vec<Vec<u32>> = vec![Vec::new(); x.order()];
    for (md, arr) in inds.iter_mut().enumerate() {
        if md != mode {
            let src = x.mode_inds(md);
            *arr = par::map_collect(mf, 1024, |f| src[fp.fptr[f]]);
        }
    }
    Ok(SemiSparseTensor::from_parts_unchecked(
        out_shape, mode, inds, vals,
    ))
}

/// Sequential COO-Ttm baseline.
pub fn ttm_prepared_seq<S: Scalar>(
    x: &CooTensor<S>,
    fp: &FiberPartition,
    u: &DenseMatrix<S>,
) -> Result<SemiSparseTensor<S>> {
    let mode = fp.mode;
    check_operand(x.shape(), mode, u)?;
    if !x.sort_state().is_mode_last(x.order(), mode) {
        return Err(TensorError::InvalidStructure(format!(
            "Ttm requires the tensor sorted with mode {mode} innermost"
        )));
    }
    let _span = obs::span!("ttm.seq");
    let r = u.cols();
    let mf = fp.num_fibers();
    charge(x.order(), x.nnz(), mf, r);
    let out_shape = x.shape().with_mode_size(mode, r as u32)?;
    let xv = x.vals();
    let xk = x.mode_inds(mode);

    let mut vals = vec![S::ZERO; mf * r];
    for f in 0..mf {
        let stripe = &mut vals[f * r..(f + 1) * r];
        for m in fp.fiber_range(f) {
            simd::axpy(stripe, u.row(xk[m] as usize), xv[m]);
        }
    }
    let mut inds: Vec<Vec<u32>> = vec![Vec::new(); x.order()];
    for (md, arr) in inds.iter_mut().enumerate() {
        if md != mode {
            let src = x.mode_inds(md);
            *arr = (0..mf).map(|f| src[fp.fptr[f]]).collect();
        }
    }
    Ok(SemiSparseTensor::from_parts_unchecked(
        out_shape, mode, inds, vals,
    ))
}

/// Convenience COO-Ttm: sorts a copy if needed, computes fibers, runs the
/// parallel kernel.
pub fn ttm<S: Scalar>(
    x: &CooTensor<S>,
    u: &DenseMatrix<S>,
    mode: usize,
) -> Result<SemiSparseTensor<S>> {
    check_operand(x.shape(), mode, u)?;
    if x.sort_state().is_mode_last(x.order(), mode) {
        let fp = x.fibers_sorted(mode)?;
        ttm_prepared(x, &fp, u, Schedule::default())
    } else {
        let mut c = x.clone();
        let fp = c.fibers(mode)?;
        ttm_prepared(&c, &fp, u, Schedule::default())
    }
}

/// HiCOO-Ttm over a gHiCOO tensor (product mode uncompressed) with a
/// precomputed fiber partition. Output in sHiCOO with the input's blocks.
pub fn ttm_ghicoo<S: Scalar>(
    g: &GHicooTensor<S>,
    fp: &GhFiberPartition,
    u: &DenseMatrix<S>,
    sched: Schedule,
) -> Result<SemiSparseHicooTensor<S>> {
    let mode = fp.mode;
    check_operand(g.shape(), mode, u)?;
    let _span = obs::span!("ttm.ghicoo");
    let r = u.cols();
    let mf = fp.num_fibers();
    charge(g.order(), g.nnz(), mf, r);
    let nb = g.num_blocks();
    let out_shape = g.shape().with_mode_size(mode, r as u32)?;
    let gv = g.vals();
    let gk = g.find(mode);

    let mut vals = par::first_touch_filled(mf * r, S::ZERO);
    par::chunks_mut(&mut vals, r, sched, |f, stripe| {
        for m in fp.fiber_range(f) {
            simd::axpy(stripe, u.row(gk[m] as usize), gv[m]);
        }
    });

    let other_modes: Vec<usize> = (0..g.order()).filter(|&m| m != mode).collect();
    let bptr: Vec<u64> = fp.block_fiber_ptr.iter().map(|&f| f as u64).collect();
    let mut binds: Vec<Vec<u32>> = vec![Vec::new(); g.order()];
    let mut einds: Vec<Vec<u8>> = vec![Vec::new(); g.order()];
    for &md in &other_modes {
        binds[md] = (0..nb).map(|b| g.block_ind(b, md)).collect();
        let src = g.eind(md);
        einds[md] = (0..mf).map(|f| src[fp.fptr[f]]).collect();
    }

    Ok(SemiSparseHicooTensor::from_parts_unchecked(
        out_shape,
        g.block_bits(),
        mode,
        bptr,
        binds,
        einds,
        vals,
    ))
}

/// Convenience HiCOO-Ttm: re-blocks into the gHiCOO layout for `mode`,
/// computes fibers, and runs the parallel kernel.
pub fn ttm_hicoo<S: Scalar>(
    h: &HicooTensor<S>,
    u: &DenseMatrix<S>,
    mode: usize,
) -> Result<SemiSparseHicooTensor<S>> {
    check_operand(h.shape(), mode, u)?;
    let g = GHicooTensor::from_coo_for_mode(&h.to_coo(), h.block_bits(), mode)?;
    let fp = g.fibers(mode)?;
    ttm_ghicoo(&g, &fp, u, Schedule::default())
}

/// Scheduled HiCOO-Ttm: contracts `mode` directly on the HiCOO blocks using
/// `h`'s [`crate::sched::complement_schedule`], with no COO round-trip and
/// no gHiCOO re-blocking. Tensors of order above 9 (the scheduled Ttv's
/// limit) fall back to [`ttm_hicoo`].
///
/// Same group structure as [`super::ttv::ttv_hicoo_sched`], but every
/// output fiber is a dense length-`R` stripe accumulated from
/// `val * U[i_n, :]`. Groups write disjoint output blocks, so there is no
/// synchronization and the accumulation order is fixed
/// (bitwise-deterministic results).
pub fn ttm_hicoo_sched<S: Scalar>(
    h: &HicooTensor<S>,
    u: &DenseMatrix<S>,
    mode: usize,
) -> Result<SemiSparseHicooTensor<S>> {
    check_operand(h.shape(), mode, u)?;
    let order = h.order();
    if order > MAX_SCHED_ORDER {
        return ttm_hicoo(h, u, mode);
    }
    let cs = &*crate::sched::complement_schedule(h, mode);
    let _span = obs::span!("ttm.hicoo.scheduled");
    let r = u.cols();
    let out_shape = h.shape().with_mode_size(mode, r as u32)?;
    let other: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    let key_width = other.len();
    let bits = h.block_bits();

    // One output block per group: fiber keys and folded `R`-stripes.
    let groups: Vec<(Vec<u64>, Vec<S>)> = par::map_collect(cs.num_groups(), 1, |g| {
        let mut entries: Vec<(u64, u32, u32)> = Vec::new();
        for &b in cs.group_blocks(g) {
            let b = b as usize;
            let mode_base = (h.block_ind(b, mode) as usize) << bits;
            for z in h.block_range(b) {
                let mut key = 0u64;
                for (j, &m) in other.iter().enumerate() {
                    key |= (h.einds()[m][z] as u64) << ((key_width - 1 - j) * 8);
                }
                let idx = mode_base + h.einds()[mode][z] as usize;
                entries.push((key, idx as u32, z as u32));
            }
        }
        entries.sort_unstable();
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let key = entries[i].0;
            let start = vals.len();
            vals.resize(start + r, S::ZERO);
            while i < entries.len() && entries[i].0 == key {
                let (_, idx, z) = entries[i];
                simd::axpy(
                    &mut vals[start..start + r],
                    u.row(idx as usize),
                    h.vals()[z as usize],
                );
                i += 1;
            }
            keys.push(key);
        }
        (keys, vals)
    });

    // Sequential assembly in group order. sHiCOO keeps full-order index
    // arrays with the dense mode's left empty.
    let mut bptr: Vec<u64> = Vec::with_capacity(groups.len() + 1);
    bptr.push(0);
    let mut binds: Vec<Vec<u32>> = vec![Vec::new(); order];
    let mut einds: Vec<Vec<u8>> = vec![Vec::new(); order];
    let mut vals: Vec<S> = Vec::new();
    let mut nf = 0u64;
    for (g, (keys, gvals)) in groups.iter().enumerate() {
        let b0 = cs.group_blocks(g)[0] as usize;
        for (j, &m) in other.iter().enumerate() {
            binds[m].push(h.block_ind(b0, m));
            let shift = (key_width - 1 - j) * 8;
            for &key in keys {
                einds[m].push(((key >> shift) & 0xFF) as u8);
            }
        }
        vals.extend_from_slice(gvals);
        nf += keys.len() as u64;
        bptr.push(nf);
    }
    // The fiber count is only known after folding, so charge at the end.
    charge(order, h.nnz(), nf as usize, r);
    Ok(SemiSparseHicooTensor::from_parts_unchecked(
        out_shape, bits, mode, bptr, binds, einds, vals,
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![3, 4, 5]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![1, 2, 1], 3.0),
                (vec![2, 3, 0], 4.0),
                (vec![2, 3, 4], 5.0),
            ],
        )
        .unwrap()
    }

    fn reference(x: &CooTensor<f32>, u: &DenseMatrix<f32>, mode: usize) -> BTreeMap<Vec<u32>, f64> {
        let mut out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (c, val) in x.iter_entries() {
            let k = c[mode] as usize;
            for rr in 0..u.cols() {
                let mut key = c.clone();
                key[mode] = rr as u32;
                *out.entry(key).or_insert(0.0) += (val * u[(k, rr)]) as f64;
            }
        }
        out.retain(|_, v| *v != 0.0);
        out
    }

    #[test]
    fn matches_dense_reference_every_mode() {
        let x = sample();
        for mode in 0..3 {
            let rows = x.shape().dim(mode) as usize;
            let u = DenseMatrix::from_fn(rows, 4, |i, j| (i + 2 * j + 1) as f32);
            let y = ttm(&x, &u, mode).unwrap();
            assert_eq!(y.dense_mode(), mode);
            assert_eq!(y.dense_size(), 4);
            assert_eq!(y.to_map(), reference(&x, &u, mode), "mode {mode}");
            assert!(y.validate().is_ok());
        }
    }

    #[test]
    fn seq_matches_parallel() {
        let mut x = sample();
        let fp = x.fibers(1).unwrap();
        let u = DenseMatrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32);
        let a = ttm_prepared(&x, &fp, &u, Schedule::Static).unwrap();
        let b = ttm_prepared_seq(&x, &fp, &u).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn output_fiber_count_matches_partition() {
        let mut x = sample();
        let fp = x.fibers(2).unwrap();
        let u = DenseMatrix::constant(5, 2, 1.0f32);
        let y = ttm_prepared(&x, &fp, &u, Schedule::default()).unwrap();
        assert_eq!(y.num_fibers(), fp.num_fibers());
        assert_eq!(y.to_coo().nnz(), fp.num_fibers() * 2);
    }

    #[test]
    fn rejects_wrong_matrix_rows() {
        let x = sample();
        let u = DenseMatrix::constant(4, 2, 1.0f32);
        assert!(matches!(
            ttm(&x, &u, 2),
            Err(TensorError::OperandLengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_zero_columns() {
        let x = sample();
        let u = DenseMatrix::constant(5, 0, 1.0f32);
        assert!(ttm(&x, &u, 2).is_err());
    }

    #[test]
    fn hicoo_matches_coo_every_mode() {
        let x = sample();
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        for mode in 0..3 {
            let rows = x.shape().dim(mode) as usize;
            let u = DenseMatrix::from_fn(rows, 4, |i, j| (i + j + 1) as f32);
            let y_coo = ttm(&x, &u, mode).unwrap();
            let y_h = ttm_hicoo(&h, &u, mode).unwrap();
            assert!(y_h.validate().is_ok(), "mode {mode}");
            assert_eq!(y_h.to_map(), y_coo.to_map(), "mode {mode}");
        }
    }

    #[test]
    fn sched_matches_hicoo_every_mode() {
        let x = sample();
        for bits in [1u8, 2, 7] {
            let h = HicooTensor::from_coo(&x, bits).unwrap();
            for mode in 0..3 {
                let rows = x.shape().dim(mode) as usize;
                let u = DenseMatrix::from_fn(rows, 4, |i, j| (i + j + 1) as f32);
                let expect = ttm_hicoo(&h, &u, mode).unwrap();
                let got = ttm_hicoo_sched(&h, &u, mode).unwrap();
                assert!(got.validate().is_ok(), "bits {bits} mode {mode}");
                assert_eq!(got.to_map(), expect.to_map(), "bits {bits} mode {mode}");
            }
        }
    }

    #[test]
    fn sched_is_bitwise_deterministic() {
        let entries: Vec<(Vec<u32>, f32)> = (0..2000)
            .map(|i| {
                (
                    vec![(i * 3) % 24, (i * 7) % 24, (i * 5) % 24],
                    0.5 * (i % 11) as f32,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![24, 24, 24]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for mode in 0..3 {
            let u = DenseMatrix::from_fn(24, 8, |i, j| (i * 8 + j) as f32 * 0.1 - 5.0);
            let a = ttm_hicoo_sched(&h, &u, mode).unwrap();
            let b = crate::par::with_threads(4, || ttm_hicoo_sched(&h, &u, mode).unwrap());
            assert_eq!(a.vals(), b.vals(), "mode {mode} not bitwise equal");
        }
    }

    #[test]
    fn sched_handles_empty_tensor() {
        let x = CooTensor::<f32>::empty(Shape::new(vec![4, 4, 4]));
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let u = DenseMatrix::constant(4, 3, 1.0f32);
        let y = ttm_hicoo_sched(&h, &u, 0).unwrap();
        assert_eq!(y.num_fibers(), 0);
        assert!(y.validate().is_ok());
    }

    #[test]
    fn fourth_order_ttm() {
        let x = CooTensor::from_entries(
            Shape::new(vec![2, 3, 4, 5]),
            vec![
                (vec![0, 1, 2, 3], 2.0f32),
                (vec![0, 1, 2, 4], 3.0),
                (vec![1, 2, 0, 0], 4.0),
            ],
        )
        .unwrap();
        let u = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let y = ttm(&x, &u, 1).unwrap();
        assert_eq!(y.order(), 4);
        let m = y.to_map();
        // Entry (0,1,2,3): row 1 of u = [1, 2].
        assert_eq!(m[&vec![0, 0, 2, 3]], 2.0);
        assert_eq!(m[&vec![0, 1, 2, 3]], 4.0);
    }
}
