//! Mttkrp — matricized tensor times Khatri–Rao product (paper §2.5).
//!
//! For mode `n`, each nonzero `x_{i_1..i_N}` scales the element-wise product
//! of the other modes' factor rows and accumulates into row `i_n` of the
//! output. The Khatri–Rao product is never materialized ("these operations
//! tend to be not implemented directly but rather integrated into tensor
//! operations").
//!
//! Each format has three algorithms, and callers name the function they
//! want:
//!
//! | | sequential | paper reference | output-partitioned |
//! |---|---|---|---|
//! | COO | [`mttkrp_seq`] | [`mttkrp_atomic`] (alias [`mttkrp`]) | [`mttkrp_sched`] |
//! | HiCOO | [`mttkrp_hicoo_seq`] | [`mttkrp_hicoo`] | [`mttkrp_hicoo_sched`] |
//!
//! The paper's reference COO-Mttkrp-OMP parallelizes over nonzeros and
//! protects the output with `omp atomic`; HiCOO-Mttkrp-OMP (Algorithm 2)
//! parallelizes over blocks and reuses per-block factor sub-matrices. The
//! paper deliberately keeps lock-avoiding alternatives out of the
//! reference.
//!
//! The scheduled kernels go one step further than the paper: a
//! precomputed output partition (see [`crate::sched`]) hands every parallel
//! task a disjoint `&mut` stripe of the output, so the inner loop is plain
//! scalar code — no atomics, no locks, and a fixed accumulation order that
//! makes results bitwise-identical across runs and thread counts.

use std::ops::Range;

use tenbench_obs as obs;

use crate::analysis;
use crate::atomic::AtomicScalar;
use crate::coo::CooTensor;
use crate::dense::DenseMatrix;
use crate::error::{Result, TensorError};
use crate::hicoo::HicooTensor;
use crate::par::{self, Schedule};
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::simd;

/// Charge one COO Mttkrp invocation to the obs counters using the paper's
/// Table 1 cost model (`analysis::mttkrp_coo_cost`).
fn charge_coo<S: Scalar>(x: &CooTensor<S>, r: usize) {
    analysis::mttkrp_coo_cost(x.order(), x.nnz() as u64, r as u64).charge();
}

/// Charge one HiCOO Mttkrp invocation (`analysis::mttkrp_hicoo_cost`).
fn charge_hicoo<S: Scalar>(h: &HicooTensor<S>, r: usize) {
    analysis::mttkrp_hicoo_cost(
        h.order(),
        h.nnz() as u64,
        r as u64,
        h.num_blocks() as u64,
        1u64 << h.block_bits(),
    )
    .charge();
}

/// Split `data` (a row-major matrix with `r` columns) into one `&mut` slice
/// per row range. Ranges must be ascending and non-overlapping; rows in the
/// gaps between ranges are left untouched. Returns `(first_row, slice)`
/// pairs.
fn split_row_ranges<S>(
    mut data: &mut [S],
    r: usize,
    ranges: impl Iterator<Item = Range<usize>>,
) -> Vec<(usize, &mut [S])> {
    let mut tasks = Vec::new();
    let mut row = 0usize;
    for range in ranges {
        debug_assert!(range.start >= row && range.end >= range.start);
        let rest = std::mem::take(&mut data);
        let rest = &mut rest[(range.start - row) * r..];
        let (task, rest) = rest.split_at_mut((range.end - range.start) * r);
        data = rest;
        row = range.end;
        tasks.push((range.start, task));
    }
    tasks
}

fn check_factors<S: Scalar>(
    shape: &Shape,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<usize> {
    shape.check_mode(mode)?;
    if factors.len() != shape.order() {
        return Err(TensorError::FactorMismatch(format!(
            "{} factor matrices for order-{} tensor",
            factors.len(),
            shape.order()
        )));
    }
    let r = factors[0].cols();
    if r == 0 {
        return Err(TensorError::FactorMismatch("rank must be >= 1".into()));
    }
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != r {
            return Err(TensorError::FactorMismatch(format!(
                "factor {m} has {} columns, expected {r}",
                f.cols()
            )));
        }
        if f.rows() != shape.dim(m) as usize {
            return Err(TensorError::FactorMismatch(format!(
                "factor {m} has {} rows, expected {}",
                f.rows(),
                shape.dim(m)
            )));
        }
    }
    Ok(r)
}

/// Collect the non-mode factor rows of COO nonzero `z` into `rows` (reused
/// across nonzeros to avoid reallocation).
///
/// The gathered rows feed one fused [`simd::accum_rows`] /
/// [`simd::product_rows`] call per nonzero, which covers the whole rank loop.
#[inline]
fn gather_rows<'a, S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&'a DenseMatrix<S>],
    mode: usize,
    z: usize,
    rows: &mut Vec<&'a [S]>,
) {
    rows.clear();
    for (m, f) in factors.iter().enumerate() {
        if m != mode {
            rows.push(f.row(x.mode_inds(m)[z] as usize));
        }
    }
}

/// The two non-`mode` mode indices of an order-3 tensor, ascending (the
/// same order the scratch flow multiplies factors in).
#[inline]
fn non_mode_pair(mode: usize) -> (usize, usize) {
    match mode {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// Collect the non-mode factor rows of blocked nonzero `z` (HiCOO: row
/// index = block base + element offset) into `rows`.
#[inline]
fn gather_block_rows<'a, S: Scalar>(
    einds: &[Vec<u8>],
    base: &[usize],
    factors: &[&'a DenseMatrix<S>],
    mode: usize,
    z: usize,
    rows: &mut Vec<&'a [S]>,
) {
    rows.clear();
    for (m, f) in factors.iter().enumerate() {
        if m != mode {
            rows.push(f.row(base[m] + einds[m][z] as usize));
        }
    }
}

/// Sequential COO Mttkrp.
pub fn mttkrp_seq<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.seq");
    charge_coo(x, r);
    let mut out = DenseMatrix::zeros(x.shape().dim(mode) as usize, r);
    let rows = x.mode_inds(mode);
    let mut rows_buf = Vec::with_capacity(factors.len());
    for z in 0..x.nnz() {
        gather_rows(x, factors, mode, z, &mut rows_buf);
        let dst = out.row_mut(rows[z] as usize);
        simd::accum_rows(dst, x.vals()[z], &rows_buf);
    }
    Ok(out)
}

/// Nonzero-parallel COO Mttkrp with atomic output updates (the paper's
/// COO-Mttkrp-OMP).
pub fn mttkrp_atomic<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.atomic");
    charge_coo(x, r);
    let mut out = DenseMatrix::zeros_par(x.shape().dim(mode) as usize, r);
    {
        let cells = S::as_atomic_slice(out.data_mut());
        let rows = x.mode_inds(mode);
        let m = x.nnz();
        let grain = 1024usize;
        par::for_each(m.div_ceil(grain), 1, |c| {
            let mut scratch = vec![S::ZERO; r];
            let mut rows_buf = Vec::with_capacity(factors.len());
            let end = ((c + 1) * grain).min(m);
            for z in c * grain..end {
                gather_rows(x, factors, mode, z, &mut rows_buf);
                simd::product_rows(&mut scratch, x.vals()[z], &rows_buf);
                let base = rows[z] as usize * r;
                for (k, &s) in scratch.iter().enumerate() {
                    cells[base + k].fetch_add(s);
                }
            }
        });
    }
    Ok(out)
}

/// Output-partitioned COO Mttkrp over `x`'s [`crate::sched::row_schedule`]
/// for `mode`: nonzeros are pre-grouped by output row so tasks own disjoint
/// output stripes. Atomic-free, lock-free, and bitwise-deterministic.
///
/// Every task owns a contiguous output row range; within it, rows are
/// processed in ascending order and each row's nonzeros in ascending
/// original position, so the accumulation order — and hence the floating-
/// point result — is identical across runs and thread counts.
pub fn mttkrp_sched<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(x.shape(), factors, mode)?;
    // Borrowed out of its `Arc`, so the row loop below reads the schedule
    // through one pointer, not two.
    let sched = &*crate::sched::row_schedule(x, mode);
    let _span = obs::span!("mttkrp.scheduled");
    charge_coo(x, r);
    let rows_n = x.shape().dim(mode) as usize;
    let mut out = DenseMatrix::zeros_par(rows_n, r);
    let mut tasks = split_row_ranges(out.data_mut(), r, sched.tasks().into_iter());
    par::chunks_mut(&mut tasks, 1, Schedule::DYNAMIC, |_, task| {
        let (row_base, slice) = (task[0].0, &mut *task[0].1);
        let mut rows_buf = Vec::with_capacity(factors.len());
        for i in row_base..row_base + slice.len() / r {
            let dst = &mut slice[(i - row_base) * r..][..r];
            for &z in sched.row_entries(i) {
                let z = z as usize;
                gather_rows(x, factors, mode, z, &mut rows_buf);
                simd::accum_rows(dst, x.vals()[z], &rows_buf);
            }
        }
    });
    Ok(out)
}

/// COO Mttkrp with the paper's reference strategy (atomic).
///
/// # Examples
/// ```
/// use tenbench_core::prelude::*;
/// use tenbench_core::kernels::mttkrp::mttkrp;
///
/// let x = CooTensor::<f32>::from_entries(
///     Shape::new(vec![2, 2, 2]),
///     vec![(vec![0, 0, 0], 1.0), (vec![1, 1, 1], 2.0)],
/// )?;
/// // All-ones rank-3 factors: each output row sums its nonzero values.
/// let f: Vec<DenseMatrix<f32>> = (0..3).map(|_| DenseMatrix::constant(2, 3, 1.0)).collect();
/// let frefs: Vec<&DenseMatrix<f32>> = f.iter().collect();
/// let out = mttkrp(&x, &frefs, 0)?;
/// assert_eq!(out.row(0), &[1.0, 1.0, 1.0]);
/// assert_eq!(out.row(1), &[2.0, 2.0, 2.0]);
/// # Ok::<(), TensorError>(())
/// ```
pub fn mttkrp<S: Scalar>(
    x: &CooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    mttkrp_atomic(x, factors, mode)
}

/// HiCOO-Mttkrp-OMP (Algorithm 2): block-parallel, with per-block base
/// offsets into the factor matrices so only 8-bit element indices are
/// touched in the inner loop. Blocks sharing an output row block still race,
/// so updates remain atomic — the paper keeps advanced lock-avoiding
/// scheduling out of the reference implementation.
pub fn mttkrp_hicoo<S: Scalar>(
    h: &HicooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.hicoo");
    charge_hicoo(h, r);
    let mut out = DenseMatrix::zeros_par(h.shape().dim(mode) as usize, r);
    let bits = h.block_bits();
    {
        let cells = S::as_atomic_slice(out.data_mut());
        let order = h.order();
        par::map_chunks(h.num_blocks(), 1, |blocks| {
            let mut scratch = vec![S::ZERO; r];
            let mut base = vec![0usize; order];
            let mut rows_buf = Vec::with_capacity(order);
            for b in blocks {
                // Base row offsets of this block in every factor matrix.
                for m in 0..order {
                    base[m] = (h.block_ind(b, m) as usize) << bits;
                }
                for z in h.block_range(b) {
                    gather_block_rows(h.einds(), &base, factors, mode, z, &mut rows_buf);
                    simd::product_rows(&mut scratch, h.vals()[z], &rows_buf);
                    let out_row = base[mode] + h.einds()[mode][z] as usize;
                    for (k, &s) in scratch.iter().enumerate() {
                        cells[out_row * r + k].fetch_add(s);
                    }
                }
            }
        });
    }
    Ok(out)
}

/// Output-partitioned HiCOO Mttkrp (the tentpole variant of this module)
/// over `h`'s [`crate::sched::mode_schedule`] for `mode`.
///
/// All blocks that write a given output row block are grouped into the same
/// task, so tasks write disjoint `&mut` stripes of the output — no atomics,
/// no locks. Groups are visited in ascending output order, blocks ascending
/// within a group, and nonzeros ascending within a block, fixing the
/// floating-point accumulation order across runs and thread counts.
pub fn mttkrp_hicoo_sched<S: Scalar>(
    h: &HicooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let sched = &*crate::sched::mode_schedule(h, mode);
    let _span = obs::span!("mttkrp.hicoo.scheduled");
    charge_hicoo(h, r);
    let rows_n = h.shape().dim(mode) as usize;
    let mut out = DenseMatrix::zeros_par(rows_n, r);
    let bits = h.block_bits();
    let order = h.order();
    let groups = sched.tasks();
    let mut tasks = split_row_ranges(
        out.data_mut(),
        r,
        groups.iter().map(|g| sched.task_row_range(g, rows_n)),
    );
    // Order-3 fast path: one fused call per *block* rather than per nonzero.
    let three = (order == 3).then(|| non_mode_pair(mode));
    par::chunks_mut(&mut tasks, 1, Schedule::DYNAMIC, |t, task| {
        let (row_base, slice) = (task[0].0, &mut *task[0].1);
        let mut base = vec![0usize; order];
        let mut rows_buf = Vec::with_capacity(order);
        for g in groups[t].clone() {
            for &b in sched.group_blocks(g) {
                let b = b as usize;
                for m in 0..order {
                    base[m] = (h.block_ind(b, m) as usize) << bits;
                }
                if let Some((ma, mb)) = three {
                    let zs = h.block_range(b);
                    simd::mttkrp_block3(
                        slice,
                        row_base,
                        r,
                        &h.vals()[zs.clone()],
                        zs,
                        &h.einds()[mode],
                        base[mode],
                        factors[ma].data(),
                        &h.einds()[ma],
                        base[ma],
                        factors[mb].data(),
                        &h.einds()[mb],
                        base[mb],
                    );
                    continue;
                }
                for z in h.block_range(b) {
                    gather_block_rows(h.einds(), &base, factors, mode, z, &mut rows_buf);
                    let out_row = base[mode] + h.einds()[mode][z] as usize;
                    let dst = &mut slice[(out_row - row_base) * r..][..r];
                    simd::accum_rows(dst, h.vals()[z], &rows_buf);
                }
            }
        }
    });
    Ok(out)
}

/// Sequential HiCOO Mttkrp baseline.
pub fn mttkrp_hicoo_seq<S: Scalar>(
    h: &HicooTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    let r = check_factors(h.shape(), factors, mode)?;
    let _span = obs::span!("mttkrp.hicoo.seq");
    charge_hicoo(h, r);
    let mut out = DenseMatrix::zeros(h.shape().dim(mode) as usize, r);
    let bits = h.block_bits();
    let order = h.order();
    let mut rows_buf = Vec::with_capacity(order);
    for b in 0..h.num_blocks() {
        let base: Vec<usize> = (0..order)
            .map(|m| (h.block_ind(b, m) as usize) << bits)
            .collect();
        for z in h.block_range(b) {
            gather_block_rows(h.einds(), &base, factors, mode, z, &mut rows_buf);
            let dst = out.row_mut(base[mode] + h.einds()[mode][z] as usize);
            simd::accum_rows(dst, h.vals()[z], &rows_buf);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::scalar::approx_eq;

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
                (vec![0, 1, 1], -2.5),
            ],
        )
        .unwrap()
    }

    fn factors(shape: &Shape, r: usize) -> Vec<DenseMatrix<f32>> {
        (0..shape.order())
            .map(|m| {
                DenseMatrix::from_fn(shape.dim(m) as usize, r, |i, j| {
                    ((i * 31 + j * 7 + m * 13) % 5) as f32 - 2.0
                })
            })
            .collect()
    }

    fn refs(f: &[DenseMatrix<f32>]) -> Vec<&DenseMatrix<f32>> {
        f.iter().collect()
    }

    /// Dense reference: out[i_n][r] = sum over nnz of val * prod factors.
    fn reference(
        x: &CooTensor<f32>,
        factors: &[&DenseMatrix<f32>],
        mode: usize,
    ) -> DenseMatrix<f64> {
        let r = factors[0].cols();
        let mut out = DenseMatrix::<f64>::zeros(x.shape().dim(mode) as usize, r);
        for (c, v) in x.iter_entries() {
            for k in 0..r {
                let mut acc = v as f64;
                for (m, f) in factors.iter().enumerate() {
                    if m != mode {
                        acc *= f[(c[m] as usize, k)] as f64;
                    }
                }
                out[(c[mode] as usize, k)] += acc;
            }
        }
        out
    }

    fn assert_matches(a: &DenseMatrix<f32>, b: &DenseMatrix<f64>) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(approx_eq(*x as f64, *y, 1e-5), "mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn coo_kernels_match_reference_every_mode() {
        let x = sample();
        let f = factors(x.shape(), 4);
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            for kernel in [mttkrp_seq, mttkrp_atomic, mttkrp_sched] {
                let got = kernel(&x, &refs(&f), mode).unwrap();
                assert_matches(&got, &expect);
            }
        }
    }

    #[test]
    fn hicoo_matches_reference_every_mode() {
        let x = sample();
        let f = factors(x.shape(), 4);
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            let got = mttkrp_hicoo(&h, &refs(&f), mode).unwrap();
            assert_matches(&got, &expect);
            let got_seq = mttkrp_hicoo_seq(&h, &refs(&f), mode).unwrap();
            assert_matches(&got_seq, &expect);
            let got_sched = mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap();
            assert_matches(&got_sched, &expect);
        }
    }

    #[test]
    fn scheduled_matches_reference_on_contended_tensor() {
        // Many nonzeros per output row exercise grouped accumulation.
        let entries: Vec<(Vec<u32>, f32)> = (0..4000)
            .map(|i| {
                (
                    vec![i % 3, (i * 7) % 50, (i * 11) % 40],
                    (i % 9) as f32 - 4.0,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![3, 50, 40]), entries).unwrap();
        let f = factors(x.shape(), 16);
        let h = HicooTensor::from_coo(&x, 3).unwrap();
        for mode in 0..3 {
            let expect = reference(&x, &refs(&f), mode);
            assert_matches(&mttkrp_sched(&x, &refs(&f), mode).unwrap(), &expect);
            assert_matches(&mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap(), &expect);
        }
    }

    #[test]
    fn scheduled_is_bitwise_deterministic() {
        let entries: Vec<(Vec<u32>, f32)> = (0..2500)
            .map(|i| {
                (
                    vec![(i * 13) % 30, (i * 7) % 30, (i * 3) % 30],
                    0.1 * i as f32,
                )
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![30, 30, 30]), entries).unwrap();
        let f = factors(x.shape(), 8);
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        for mode in 0..3 {
            let a = mttkrp_sched(&x, &refs(&f), mode).unwrap();
            let b = crate::par::with_threads(4, || mttkrp_sched(&x, &refs(&f), mode).unwrap());
            assert_eq!(a.data(), b.data(), "COO mode {mode} not bitwise equal");
            let ha = mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap();
            let hb =
                crate::par::with_threads(4, || mttkrp_hicoo_sched(&h, &refs(&f), mode).unwrap());
            assert_eq!(ha.data(), hb.data(), "HiCOO mode {mode} not bitwise equal");
        }
    }

    #[test]
    fn scheduled_handles_empty_tensor() {
        let x = CooTensor::<f32>::empty(Shape::new(vec![3, 4, 5]));
        let f = factors(x.shape(), 4);
        let out = mttkrp_sched(&x, &refs(&f), 0).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let hout = mttkrp_hicoo_sched(&h, &refs(&f), 1).unwrap();
        assert_eq!(hout.rows(), 4);
        assert!(hout.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn factor_validation() {
        let x = sample();
        let f = factors(x.shape(), 4);
        // Wrong count.
        assert!(matches!(
            mttkrp(&x, &refs(&f)[..2], 0),
            Err(TensorError::FactorMismatch(_))
        ));
        // Wrong rank on one factor.
        let mut bad = factors(x.shape(), 4);
        bad[1] = DenseMatrix::zeros(4, 3);
        assert!(mttkrp(&x, &refs(&bad), 0).is_err());
        // Wrong row count.
        let mut bad2 = factors(x.shape(), 4);
        bad2[2] = DenseMatrix::zeros(6, 4);
        assert!(mttkrp(&x, &refs(&bad2), 0).is_err());
        // Zero rank.
        let zero = vec![
            DenseMatrix::<f32>::zeros(3, 0),
            DenseMatrix::zeros(4, 0),
            DenseMatrix::zeros(5, 0),
        ];
        assert!(mttkrp(&x, &refs(&zero), 0).is_err());
    }

    #[test]
    fn fourth_order_mttkrp() {
        let x = CooTensor::from_entries(
            Shape::new(vec![2, 3, 4, 5]),
            vec![
                (vec![0, 1, 2, 3], 2.0f32),
                (vec![1, 2, 0, 0], 4.0),
                (vec![0, 0, 0, 0], 1.0),
            ],
        )
        .unwrap();
        let f = factors(x.shape(), 3);
        for mode in 0..4 {
            let expect = reference(&x, &refs(&f), mode);
            let got = mttkrp(&x, &refs(&f), mode).unwrap();
            assert_matches(&got, &expect);
        }
    }

    #[test]
    fn contended_rows_accumulate_correctly() {
        // Many nonzeros mapping to the same output row stress the atomics.
        let entries: Vec<(Vec<u32>, f32)> = (0..5000)
            .map(|i| (vec![0, i % 50, (i * 7) % 40], 1.0))
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![1, 50, 40]), entries).unwrap();
        let f = factors(x.shape(), 8);
        let expect = reference(&x, &refs(&f), 0);
        let got = mttkrp_atomic(&x, &refs(&f), 0).unwrap();
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!(approx_eq(*a as f64, *b, 1e-3), "{a} vs {b}");
        }
    }
}
