//! Ttv — tensor-times-vector in mode `n` (paper §2.3, Algorithm 1).
//!
//! By the sparse-dense property (§3.2.1) the output of a mode-`n` Ttv has
//! one nonzero per mode-`n` fiber of the input, with the same indices in the
//! remaining modes. Pre-processing computes the fiber pointer `fptr` and the
//! output is pre-allocated with `M_F` nonzeros, so parallel fibers never
//! race — this is the COO-Ttv-OMP algorithm first proposed in the paper.
//!
//! The HiCOO-side implementation follows §3.4.1: the input is represented in
//! gHiCOO with the product mode left uncompressed, which keeps every fiber
//! inside a single block and produces the output directly in HiCOO.

use tenbench_obs as obs;

use crate::analysis;
use crate::coo::{CooTensor, FiberPartition, SortState};
use crate::dense::DenseVector;
use crate::error::{Result, TensorError};
use crate::hicoo::{GHicooTensor, GhFiberPartition, HicooTensor};
use crate::par::{self, Schedule};
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::simd;

/// Largest tensor order for which the scheduled HiCOO contraction kernels
/// can pack the `order - 1` surviving 8-bit element coordinates of a fiber
/// into one `u64` sort key. Larger orders fall back to the re-blocking path.
pub(crate) const MAX_SCHED_ORDER: usize = 9;

fn check_operand<S: Scalar>(shape: &Shape, mode: usize, v: &DenseVector<S>) -> Result<()> {
    shape.check_mode(mode)?;
    if shape.order() < 2 {
        return Err(TensorError::OrderTooSmall {
            min: 2,
            actual: shape.order(),
        });
    }
    if v.len() != shape.dim(mode) as usize {
        return Err(TensorError::OperandLengthMismatch {
            expected: shape.dim(mode) as usize,
            actual: v.len(),
        });
    }
    Ok(())
}

/// Charge one Ttv invocation over `m` nonzeros folding into `mf` output
/// fibers (`analysis::ttv_cost`).
fn charge(order: usize, m: usize, mf: usize) {
    analysis::ttv_cost(order, m as u64, mf as u64).charge();
}

/// COO-Ttv over a mode-last-sorted tensor with a precomputed fiber
/// partition, parallel over fibers (Algorithm 1).
pub fn ttv_prepared<S: Scalar>(
    x: &CooTensor<S>,
    fp: &FiberPartition,
    v: &DenseVector<S>,
    sched: Schedule,
) -> Result<CooTensor<S>> {
    let mode = fp.mode;
    check_operand(x.shape(), mode, v)?;
    if !x.sort_state().is_mode_last(x.order(), mode) {
        return Err(TensorError::InvalidStructure(format!(
            "Ttv requires the tensor sorted with mode {mode} innermost"
        )));
    }
    let _span = obs::span!("ttv.coo");
    let mf = fp.num_fibers();
    charge(x.order(), x.nnz(), mf);
    let out_shape = x.shape().without_mode(mode)?;
    let xv = x.vals();
    let xk = x.mode_inds(mode);
    let vv = v.as_slice();

    let mut vals = par::first_touch_filled(mf, S::ZERO);
    par::chunks_mut(&mut vals, 1, sched, |f, out| {
        let r = fp.fiber_range(f);
        out[0] = simd::fiber_dot(&xv[r.clone()], &xk[r], vv);
    });

    let other_modes: Vec<usize> = (0..x.order()).filter(|&m| m != mode).collect();
    let out_inds: Vec<Vec<u32>> = other_modes
        .iter()
        .map(|&md| {
            let src = x.mode_inds(md);
            par::map_collect(mf, 1024, |f| src[fp.fptr[f]])
        })
        .collect();

    let order = out_shape.order();
    Ok(CooTensor::from_parts_unchecked(
        out_shape,
        out_inds,
        vals,
        SortState::Lexicographic((0..order).collect()),
    ))
}

/// Sequential COO-Ttv baseline over a prepared tensor.
pub fn ttv_prepared_seq<S: Scalar>(
    x: &CooTensor<S>,
    fp: &FiberPartition,
    v: &DenseVector<S>,
) -> Result<CooTensor<S>> {
    let mode = fp.mode;
    check_operand(x.shape(), mode, v)?;
    if !x.sort_state().is_mode_last(x.order(), mode) {
        return Err(TensorError::InvalidStructure(format!(
            "Ttv requires the tensor sorted with mode {mode} innermost"
        )));
    }
    let _span = obs::span!("ttv.seq");
    let mf = fp.num_fibers();
    charge(x.order(), x.nnz(), mf);
    let out_shape = x.shape().without_mode(mode)?;
    let xv = x.vals();
    let xk = x.mode_inds(mode);
    let vv = v.as_slice();

    let mut vals = Vec::with_capacity(mf);
    for f in 0..mf {
        let r = fp.fiber_range(f);
        vals.push(simd::fiber_dot(&xv[r.clone()], &xk[r], vv));
    }
    let other_modes: Vec<usize> = (0..x.order()).filter(|&m| m != mode).collect();
    let out_inds: Vec<Vec<u32>> = other_modes
        .iter()
        .map(|&md| {
            let src = x.mode_inds(md);
            (0..mf).map(|f| src[fp.fptr[f]]).collect()
        })
        .collect();
    let order = out_shape.order();
    Ok(CooTensor::from_parts_unchecked(
        out_shape,
        out_inds,
        vals,
        SortState::Lexicographic((0..order).collect()),
    ))
}

/// Convenience COO-Ttv: sorts a copy of the input if needed, computes the
/// fiber partition, and runs the parallel kernel.
///
/// # Examples
/// ```
/// use tenbench_core::prelude::*;
/// use tenbench_core::kernels::ttv::ttv;
///
/// // X is 2x3 with entries X[0,1] = 2 and X[1,2] = 3.
/// let x = CooTensor::<f32>::from_entries(
///     Shape::new(vec![2, 3]),
///     vec![(vec![0, 1], 2.0), (vec![1, 2], 3.0)],
/// )?;
/// // Contract mode 1 with v = [1, 10, 100].
/// let v = DenseVector::from_vec(vec![1.0, 10.0, 100.0]);
/// let y = ttv(&x, &v, 1)?;
/// assert_eq!(y.to_map()[&vec![0]], 20.0);
/// assert_eq!(y.to_map()[&vec![1]], 300.0);
/// # Ok::<(), TensorError>(())
/// ```
pub fn ttv<S: Scalar>(x: &CooTensor<S>, v: &DenseVector<S>, mode: usize) -> Result<CooTensor<S>> {
    check_operand(x.shape(), mode, v)?;
    if x.sort_state().is_mode_last(x.order(), mode) {
        let fp = x.fibers_sorted(mode)?;
        ttv_prepared(x, &fp, v, Schedule::default())
    } else {
        let mut c = x.clone();
        let fp = c.fibers(mode)?;
        ttv_prepared(&c, &fp, v, Schedule::default())
    }
}

/// HiCOO-Ttv over a gHiCOO tensor whose only uncompressed mode is the
/// product mode, with a precomputed fiber partition. The output is a HiCOO
/// tensor of order `N-1` whose blocks mirror the input's blocks.
pub fn ttv_ghicoo<S: Scalar>(
    g: &GHicooTensor<S>,
    fp: &GhFiberPartition,
    v: &DenseVector<S>,
    sched: Schedule,
) -> Result<HicooTensor<S>> {
    let mode = fp.mode;
    check_operand(g.shape(), mode, v)?;
    let _span = obs::span!("ttv.ghicoo");
    let mf = fp.num_fibers();
    charge(g.order(), g.nnz(), mf);

    // Value computation: one dot product per fiber (same loop as COO).
    let gv = g.vals();
    let gk = g.find(mode);
    let vv = v.as_slice();
    let mut vals = par::first_touch_filled(mf, S::ZERO);
    par::chunks_mut(&mut vals, 1, sched, |f, out| {
        let r = fp.fiber_range(f);
        out[0] = simd::fiber_dot(&gv[r.clone()], &gk[r], vv);
    });
    ghicoo_output(g, fp, vals)
}

/// Sequential HiCOO-Ttv baseline.
pub fn ttv_ghicoo_seq<S: Scalar>(
    g: &GHicooTensor<S>,
    fp: &GhFiberPartition,
    v: &DenseVector<S>,
) -> Result<HicooTensor<S>> {
    let mode = fp.mode;
    check_operand(g.shape(), mode, v)?;
    let _span = obs::span!("ttv.ghicoo.seq");
    charge(g.order(), g.nnz(), fp.num_fibers());
    let gv = g.vals();
    let gk = g.find(mode);
    let vv = v.as_slice();
    let vals = (0..fp.num_fibers())
        .map(|f| {
            let r = fp.fiber_range(f);
            simd::fiber_dot(&gv[r.clone()], &gk[r], vv)
        })
        .collect();
    ghicoo_output(g, fp, vals)
}

/// The HiCOO output of a gHiCOO Ttv with one value per fiber of `fp`.
/// Block b of the output holds the fibers of input block b; block indices
/// are the compressed block coords, element indices are the compressed
/// element coords at each fiber start.
fn ghicoo_output<S: Scalar>(
    g: &GHicooTensor<S>,
    fp: &GhFiberPartition,
    vals: Vec<S>,
) -> Result<HicooTensor<S>> {
    let other_modes: Vec<usize> = (0..g.order()).filter(|&m| m != fp.mode).collect();
    let bptr: Vec<u64> = fp.block_fiber_ptr.iter().map(|&f| f as u64).collect();
    let binds: Vec<Vec<u32>> = other_modes
        .iter()
        .map(|&md| (0..g.num_blocks()).map(|b| g.block_ind(b, md)).collect())
        .collect();
    let einds: Vec<Vec<u8>> = other_modes
        .iter()
        .map(|&md| {
            let src = g.eind(md);
            (0..fp.num_fibers()).map(|f| src[fp.fptr[f]]).collect()
        })
        .collect();
    Ok(HicooTensor::from_parts_unchecked(
        g.shape().without_mode(fp.mode)?,
        g.block_bits(),
        bptr,
        binds,
        einds,
        vals,
    ))
}

/// Convenience HiCOO-Ttv: re-blocks the input into the gHiCOO layout for
/// `mode` (the paper's pre-processing), computes fibers, and runs the
/// parallel kernel.
pub fn ttv_hicoo<S: Scalar>(
    h: &HicooTensor<S>,
    v: &DenseVector<S>,
    mode: usize,
) -> Result<HicooTensor<S>> {
    check_operand(h.shape(), mode, v)?;
    let g = GHicooTensor::from_coo_for_mode(&h.to_coo(), h.block_bits(), mode)?;
    let fp = g.fibers(mode)?;
    ttv_ghicoo(&g, &fp, v, Schedule::default())
}

/// Scheduled HiCOO-Ttv: contracts `mode` directly on the HiCOO blocks using
/// `h`'s [`crate::sched::complement_schedule`], with no COO round-trip and
/// no gHiCOO re-blocking (the pre-processing `ttv_hicoo` pays on every
/// call). Tensors of order above 9 (`MAX_SCHED_ORDER`) fall back to
/// [`ttv_hicoo`].
///
/// Each schedule group collects the blocks that share every block
/// coordinate except mode `n` — exactly the blocks whose nonzeros fold into
/// one output block. Groups are processed fully in parallel (their outputs
/// are disjoint by construction); within a group, fibers are identified by
/// packing the surviving element coordinates into a `u64` key, sorting, and
/// folding equal-key runs in a fixed order, so the result is
/// bitwise-deterministic across runs and thread counts.
pub fn ttv_hicoo_sched<S: Scalar>(
    h: &HicooTensor<S>,
    v: &DenseVector<S>,
    mode: usize,
) -> Result<HicooTensor<S>> {
    check_operand(h.shape(), mode, v)?;
    let order = h.order();
    if order > MAX_SCHED_ORDER {
        return ttv_hicoo(h, v, mode);
    }
    let cs = &*crate::sched::complement_schedule(h, mode);
    let _span = obs::span!("ttv.hicoo.scheduled");
    let out_shape = h.shape().without_mode(mode)?;
    let other: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    let out_order = other.len();
    let bits = h.block_bits();
    let vv = v.as_slice();

    // One output block per group: fiber keys (packed surviving element
    // coords, lexicographic order) and the folded dot-product values.
    let groups: Vec<(Vec<u64>, Vec<S>)> = par::map_collect(cs.num_groups(), 1, |g| {
        // (key, input value index in mode, nonzero position).
        let mut entries: Vec<(u64, u32, u32)> = Vec::new();
        for &b in cs.group_blocks(g) {
            let b = b as usize;
            let mode_base = (h.block_ind(b, mode) as usize) << bits;
            for z in h.block_range(b) {
                let mut key = 0u64;
                for (j, &m) in other.iter().enumerate() {
                    key |= (h.einds()[m][z] as u64) << ((out_order - 1 - j) * 8);
                }
                let idx = mode_base + h.einds()[mode][z] as usize;
                entries.push((key, idx as u32, z as u32));
            }
        }
        entries.sort_unstable();
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        // Equal-key runs gathered into contiguous buffers so the dot
        // product can use the vectorized primitive.
        let mut rvals: Vec<S> = Vec::new();
        let mut ridx: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let key = entries[i].0;
            rvals.clear();
            ridx.clear();
            while i < entries.len() && entries[i].0 == key {
                let (_, idx, z) = entries[i];
                rvals.push(h.vals()[z as usize]);
                ridx.push(idx);
                i += 1;
            }
            keys.push(key);
            vals.push(simd::fiber_dot(&rvals, &ridx, vv));
        }
        (keys, vals)
    });

    // Sequential assembly in group order (groups are lexicographically
    // sorted by surviving block coords, keys sorted within each group).
    let mut bptr: Vec<u64> = Vec::with_capacity(groups.len() + 1);
    bptr.push(0);
    let mut binds: Vec<Vec<u32>> = vec![Vec::with_capacity(groups.len()); out_order];
    let mut einds: Vec<Vec<u8>> = vec![Vec::new(); out_order];
    let mut vals: Vec<S> = Vec::new();
    for (g, (keys, gvals)) in groups.iter().enumerate() {
        let b0 = cs.group_blocks(g)[0] as usize;
        for (j, &m) in other.iter().enumerate() {
            binds[j].push(h.block_ind(b0, m));
            let shift = (out_order - 1 - j) * 8;
            for &key in keys {
                einds[j].push(((key >> shift) & 0xFF) as u8);
            }
        }
        vals.extend_from_slice(gvals);
        bptr.push(vals.len() as u64);
    }
    // The fiber count is only known after folding, so charge at the end.
    charge(order, h.nnz(), vals.len());
    Ok(HicooTensor::from_parts_unchecked(
        out_shape, bits, bptr, binds, einds, vals,
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

    /// Dense reference Ttv.
    fn reference(x: &CooTensor<f32>, v: &DenseVector<f32>, mode: usize) -> BTreeMap<Vec<u32>, f64> {
        let mut out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (c, val) in x.iter_entries() {
            let mut key = c.clone();
            let k = key.remove(mode) as usize;
            *out.entry(key).or_insert(0.0) += (val * v[k]) as f64;
        }
        out.retain(|_, v| *v != 0.0);
        out
    }

    #[test]
    fn matches_dense_reference_every_mode() {
        let x = sample();
        for mode in 0..3 {
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i + 1) as f32);
            let y = ttv(&x, &v, mode).unwrap();
            let mut got = y.to_map();
            got.retain(|_, v| *v != 0.0);
            assert_eq!(got, reference(&x, &v, mode), "mode {mode}");
            assert_eq!(y.order(), 2);
        }
    }

    #[test]
    fn output_has_one_nonzero_per_fiber() {
        let mut x = sample();
        let fp = x.fibers(2).unwrap();
        let v = DenseVector::constant(5, 1.0);
        let y = ttv_prepared(&x, &fp, &v, Schedule::Static).unwrap();
        assert_eq!(y.nnz(), fp.num_fibers());
    }

    #[test]
    fn seq_matches_parallel() {
        let mut x = sample();
        let fp = x.fibers(1).unwrap();
        let v = DenseVector::from_fn(4, |i| (2 * i) as f32);
        let a = ttv_prepared(&x, &fp, &v, Schedule::Dynamic { grain: 1 }).unwrap();
        let b = ttv_prepared_seq(&x, &fp, &v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_wrong_vector_length() {
        let x = sample();
        let v = DenseVector::constant(3, 1.0);
        assert!(matches!(
            ttv(&x, &v, 2),
            Err(TensorError::OperandLengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_mode_and_low_order() {
        let x = sample();
        let v = DenseVector::constant(5, 1.0f32);
        assert!(matches!(
            ttv(&x, &v, 3),
            Err(TensorError::ModeOutOfRange { .. })
        ));
    }

    #[test]
    fn prepared_requires_matching_sort() {
        let mut x = sample();
        let fp = x.fibers(2).unwrap();
        x.sort_mode_last(0); // wrong order now
        let v = DenseVector::constant(5, 1.0f32);
        assert!(ttv_prepared(&x, &fp, &v, Schedule::Static).is_err());
    }

    #[test]
    fn hicoo_matches_coo_every_mode() {
        let x = sample();
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        for mode in 0..3 {
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i + 1) as f32);
            let y_coo = ttv(&x, &v, mode).unwrap();
            let y_h = ttv_hicoo(&h, &v, mode).unwrap();
            assert!(y_h.validate().is_ok(), "mode {mode}");
            assert_eq!(y_h.to_map(), y_coo.to_map(), "mode {mode}");
        }
    }

    #[test]
    fn ghicoo_seq_matches_parallel() {
        let x = sample();
        let g = GHicooTensor::from_coo_for_mode(&x, 1, 2).unwrap();
        let fp = g.fibers(2).unwrap();
        let v = DenseVector::from_fn(5, |i| (i as f32) - 2.0);
        let a = ttv_ghicoo(&g, &fp, &v, Schedule::Static).unwrap();
        let b = ttv_ghicoo_seq(&g, &fp, &v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sched_matches_hicoo_every_mode() {
        let x = sample();
        for bits in [1u8, 2, 7] {
            let h = HicooTensor::from_coo(&x, bits).unwrap();
            for mode in 0..3 {
                let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i + 1) as f32);
                let expect = ttv_hicoo(&h, &v, mode).unwrap();
                let got = ttv_hicoo_sched(&h, &v, mode).unwrap();
                assert!(got.validate().is_ok(), "bits {bits} mode {mode}");
                assert_eq!(got.to_map(), expect.to_map(), "bits {bits} mode {mode}");
            }
        }
    }

    #[test]
    fn sched_is_bitwise_deterministic_and_contended() {
        // Dense-ish tensor: many nonzeros fold into each output fiber.
        let entries: Vec<(Vec<u32>, f32)> = (0..3000)
            .map(|i| {
                (
                    vec![(i * 3) % 20, (i * 7) % 20, (i * 11) % 20],
                    0.25 * (i % 13) as f32,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![20, 20, 20]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for mode in 0..3 {
            let v = DenseVector::from_fn(20, |i| (i as f32) - 9.5);
            let a = ttv_hicoo_sched(&h, &v, mode).unwrap();
            let b = crate::par::with_threads(4, || ttv_hicoo_sched(&h, &v, mode).unwrap());
            assert_eq!(a.vals(), b.vals(), "mode {mode} not bitwise equal");
            let expect = ttv_hicoo(&h, &v, mode).unwrap();
            let (am, em) = (a.to_map(), expect.to_map());
            assert_eq!(am.len(), em.len());
            for (k, &val) in &am {
                assert!(
                    crate::scalar::approx_eq(val, em[k], 1e-3),
                    "mode {mode}: {val} vs {}",
                    em[k]
                );
            }
        }
    }

    #[test]
    fn sched_handles_empty_tensor() {
        let x = CooTensor::<f32>::empty(Shape::new(vec![4, 4, 4]));
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let v = DenseVector::constant(4, 1.0);
        let y = ttv_hicoo_sched(&h, &v, 1).unwrap();
        assert_eq!(y.nnz(), 0);
        assert!(y.validate().is_ok());
    }

    #[test]
    fn fourth_order_ttv() {
        let x = CooTensor::from_entries(
            Shape::new(vec![2, 3, 4, 5]),
            vec![
                (vec![0, 1, 2, 3], 2.0f32),
                (vec![0, 1, 2, 4], 3.0),
                (vec![1, 2, 0, 0], 4.0),
            ],
        )
        .unwrap();
        let v = DenseVector::from_fn(5, |i| (i + 1) as f32);
        let y = ttv(&x, &v, 3).unwrap();
        assert_eq!(y.order(), 3);
        let m = y.to_map();
        assert_eq!(m[&vec![0, 1, 2]], (2.0 * 4.0 + 3.0 * 5.0));
        assert_eq!(m[&vec![1, 2, 0]], 4.0);
    }
}
