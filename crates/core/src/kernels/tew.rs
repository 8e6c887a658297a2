//! Tew — tensor element-wise operations (paper §2.1, §3.2).
//!
//! The trivial case is two tensors with exactly the same nonzero pattern:
//! one loop over the value arrays (the case Table 1 analyzes, OI = 1/12).
//! Its output shares the left operand's index structure, so a call moves
//! values only, in COO and HiCOO alike.
//! The general case iterates both tensors in lexicographic order and matches
//! coordinates as execution proceeds; the output pattern depends on the
//! operation:
//!
//! * `Add`/`Sub` — union of the patterns (a missing operand contributes 0),
//! * `Mul` — intersection (a missing operand annihilates the product),
//! * `Div` — the left operand's pattern; where the divisor is missing the
//!   IEEE quotient `x / 0` (infinity) is stored, making the behaviour
//!   explicit rather than silently dropping entries.

use std::cmp::Ordering;

use tenbench_obs as obs;

use crate::analysis;
use crate::coo::{CooTensor, SortState};
use crate::error::{Result, TensorError};
use crate::hicoo::HicooTensor;
use crate::par::{self, Schedule};
use crate::scalar::Scalar;
use crate::simd;

use super::EwOp;

/// Chunk size for the parallel value loops; large enough that the vectorized
/// body amortizes the pool's per-chunk claim.
const CHUNK: usize = 1024;

/// Compare the coordinates of `a`'s nonzero `i` and `b`'s nonzero `j`
/// lexicographically by mode.
#[inline]
fn cmp_at(a: &[Vec<u32>], i: usize, b: &[Vec<u32>], j: usize) -> Ordering {
    for (am, bm) in a.iter().zip(b) {
        match am[i].cmp(&bm[j]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// First position in `inds[..len]` whose coordinate is `>=` the coordinate
/// at `other[pos]`.
fn lower_bound(inds: &[Vec<u32>], len: usize, other: &[Vec<u32>], pos: usize) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp_at(inds, mid, other, pos) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn check_same_shape<S: Scalar>(x: &CooTensor<S>, y: &CooTensor<S>) -> Result<()> {
    if x.shape() != y.shape() {
        return Err(TensorError::ShapeMismatch {
            left: x.shape().dims().to_vec(),
            right: y.shape().dims().to_vec(),
        });
    }
    Ok(())
}

/// Charge one Tew invocation over `m` value pairs (`analysis::tew_cost`,
/// the same-pattern case Table 1 analyzes).
fn charge(m: usize) {
    analysis::tew_cost(m as u64).charge();
}

/// The value loop of every parallel same-pattern Tew: `op` over two
/// equal-length value arrays, into a new one.
fn combine<S: Scalar>(xv: &[S], yv: &[S], op: EwOp) -> Vec<S> {
    let mut vals: Vec<S> = vec![S::ZERO; xv.len()];
    par::chunks_mut(&mut vals, CHUNK, Schedule::DYNAMIC, |c, o| {
        let at = c * CHUNK..c * CHUNK + o.len();
        simd::ew_combine_into(op, &xv[at.clone()], &yv[at], o)
    });
    vals
}

/// [`tew_same_pattern`] without its checks, for callers that made them.
fn tew_same_pattern_unchecked<S: Scalar>(
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> CooTensor<S> {
    let _span = obs::span!("tew.coo");
    charge(x.nnz());
    x.with_vals(combine(x.vals(), y.vals(), op))
}

/// Same-pattern Tew, parallel over nonzeros (COO-Tew-OMP). The output shares
/// `x`'s index arrays and sort state; only values are computed.
pub fn tew_same_pattern<S: Scalar>(
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> Result<CooTensor<S>> {
    check_same_shape(x, y)?;
    if !x.same_pattern(y) {
        return Err(TensorError::PatternMismatch);
    }
    Ok(tew_same_pattern_unchecked(x, y, op))
}

/// Sequential same-pattern Tew (the single-thread baseline).
pub fn tew_same_pattern_seq<S: Scalar>(
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> Result<CooTensor<S>> {
    check_same_shape(x, y)?;
    if !x.same_pattern(y) {
        return Err(TensorError::PatternMismatch);
    }
    let _span = obs::span!("tew.seq");
    charge(x.nnz());
    let mut vals: Vec<S> = vec![S::ZERO; x.nnz()];
    simd::ew_combine_into(op, x.vals(), y.vals(), &mut vals);
    Ok(x.with_vals(vals))
}

/// Merge one aligned coordinate range of `x` and `y` into the output arrays.
fn merge_range<S: Scalar>(
    x: &CooTensor<S>,
    xr: std::ops::Range<usize>,
    y: &CooTensor<S>,
    yr: std::ops::Range<usize>,
    op: EwOp,
    out_inds: &mut [Vec<u32>],
    out_vals: &mut Vec<S>,
) {
    let order = x.order();
    let (xi, yi) = (x.inds(), y.inds());
    let push_from = |src: &[Vec<u32>], at: usize, out_inds: &mut [Vec<u32>]| {
        for m in 0..order {
            out_inds[m].push(src[m][at]);
        }
    };
    let (mut i, mut j) = (xr.start, yr.start);
    while i < xr.end && j < yr.end {
        match cmp_at(xi, i, yi, j) {
            Ordering::Equal => {
                push_from(xi, i, out_inds);
                out_vals.push(op.apply(x.vals()[i], y.vals()[j]));
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                // Present only in x.
                match op {
                    EwOp::Add | EwOp::Sub => {
                        push_from(xi, i, out_inds);
                        out_vals.push(x.vals()[i]);
                    }
                    EwOp::Div => {
                        push_from(xi, i, out_inds);
                        out_vals.push(x.vals()[i] / S::ZERO);
                    }
                    EwOp::Mul => {}
                }
                i += 1;
            }
            Ordering::Greater => {
                // Present only in y.
                match op {
                    EwOp::Add => {
                        push_from(yi, j, out_inds);
                        out_vals.push(y.vals()[j]);
                    }
                    EwOp::Sub => {
                        push_from(yi, j, out_inds);
                        out_vals.push(-y.vals()[j]);
                    }
                    EwOp::Mul | EwOp::Div => {}
                }
                j += 1;
            }
        }
    }
    while i < xr.end {
        match op {
            EwOp::Add | EwOp::Sub => {
                push_from(xi, i, out_inds);
                out_vals.push(x.vals()[i]);
            }
            EwOp::Div => {
                push_from(xi, i, out_inds);
                out_vals.push(x.vals()[i] / S::ZERO);
            }
            EwOp::Mul => {}
        }
        i += 1;
    }
    while j < yr.end {
        match op {
            EwOp::Add => {
                push_from(yi, j, out_inds);
                out_vals.push(y.vals()[j]);
            }
            EwOp::Sub => {
                push_from(yi, j, out_inds);
                out_vals.push(-y.vals()[j]);
            }
            EwOp::Mul | EwOp::Div => {}
        }
        j += 1;
    }
}

fn default_order(order: usize) -> Vec<usize> {
    (0..order).collect()
}

/// General-pattern Tew over two lexicographically sorted tensors,
/// sequential merge.
pub fn tew_general_seq<S: Scalar>(
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> Result<CooTensor<S>> {
    check_same_shape(x, y)?;
    let ord = default_order(x.order());
    if !x.sort_state().is_lexicographic(&ord) || !y.sort_state().is_lexicographic(&ord) {
        return Err(TensorError::InvalidStructure(
            "general Tew requires both operands lexicographically sorted".into(),
        ));
    }
    let mut out_inds: Vec<Vec<u32>> = vec![Vec::new(); x.order()];
    let mut out_vals: Vec<S> = Vec::new();
    merge_range(
        x,
        0..x.nnz(),
        y,
        0..y.nnz(),
        op,
        &mut out_inds,
        &mut out_vals,
    );
    Ok(CooTensor::from_parts_unchecked(
        x.shape().clone(),
        out_inds,
        out_vals,
        SortState::Lexicographic(ord),
    ))
}

/// General-pattern Tew, parallel merge: `x` is cut into contiguous segments,
/// `y` is partitioned at the same split coordinates by binary search, and
/// segment pairs merge independently.
pub fn tew_general<S: Scalar>(
    x: &CooTensor<S>,
    y: &CooTensor<S>,
    op: EwOp,
) -> Result<CooTensor<S>> {
    check_same_shape(x, y)?;
    let ord = default_order(x.order());
    if !x.sort_state().is_lexicographic(&ord) || !y.sort_state().is_lexicographic(&ord) {
        return Err(TensorError::InvalidStructure(
            "general Tew requires both operands lexicographically sorted".into(),
        ));
    }
    let _span = obs::span!("tew.general");
    let segments = (par::current_threads() * 4).max(1);
    let mx = x.nnz();
    if mx == 0 || segments == 1 {
        return tew_general_seq(x, y, op);
    }

    // Segment boundaries: positions in x, matched positions in y.
    let mut xb: Vec<usize> = (0..=segments).map(|s| s * mx / segments).collect();
    xb.dedup();
    let yb: Vec<usize> = xb
        .iter()
        .map(|&p| {
            if p == 0 {
                0
            } else if p >= mx {
                y.nnz()
            } else {
                lower_bound(y.inds(), y.nnz(), x.inds(), p)
            }
        })
        .collect();

    let parts: Vec<(Vec<Vec<u32>>, Vec<S>)> = par::map_collect(xb.len() - 1, 1, |s| {
        let mut inds: Vec<Vec<u32>> = vec![Vec::new(); x.order()];
        let mut vals: Vec<S> = Vec::new();
        merge_range(
            x,
            xb[s]..xb[s + 1],
            y,
            yb[s]..yb[s + 1],
            op,
            &mut inds,
            &mut vals,
        );
        (inds, vals)
    });

    let total: usize = parts.iter().map(|(_, v)| v.len()).sum();
    let mut out_inds: Vec<Vec<u32>> = vec![Vec::with_capacity(total); x.order()];
    let mut out_vals: Vec<S> = Vec::with_capacity(total);
    for (inds, vals) in parts {
        for (m, arr) in inds.into_iter().enumerate() {
            out_inds[m].extend(arr);
        }
        out_vals.extend(vals);
    }
    Ok(CooTensor::from_parts_unchecked(
        x.shape().clone(),
        out_inds,
        out_vals,
        SortState::Lexicographic(ord),
    ))
}

/// Convenience dispatcher: uses the same-pattern fast path when possible,
/// otherwise sorts copies of the operands as needed and merges.
pub fn tew<S: Scalar>(x: &CooTensor<S>, y: &CooTensor<S>, op: EwOp) -> Result<CooTensor<S>> {
    check_same_shape(x, y)?;
    if x.same_pattern(y) {
        return Ok(tew_same_pattern_unchecked(x, y, op));
    }
    let ord = default_order(x.order());
    let sorted = |t: &CooTensor<S>| -> CooTensor<S> {
        let mut c = t.clone();
        c.sort_lexicographic(&ord);
        c
    };
    match (
        x.sort_state().is_lexicographic(&ord),
        y.sort_state().is_lexicographic(&ord),
    ) {
        (true, true) => tew_general(x, y, op),
        (true, false) => tew_general(x, &sorted(y), op),
        (false, true) => tew_general(&sorted(x), y, op),
        (false, false) => tew_general(&sorted(x), &sorted(y), op),
    }
}

/// Same-pattern Tew over HiCOO operands (HiCOO-Tew-OMP): the COO kernel's
/// value loop; the output shares `x`'s block structure. Operands converted
/// separately share no structure, so their pattern check compares the
/// block arrays in full.
pub fn tew_hicoo_same_pattern<S: Scalar>(
    x: &HicooTensor<S>,
    y: &HicooTensor<S>,
    op: EwOp,
) -> Result<HicooTensor<S>> {
    if x.shape() != y.shape() {
        return Err(TensorError::ShapeMismatch {
            left: x.shape().dims().to_vec(),
            right: y.shape().dims().to_vec(),
        });
    }
    if !x.same_pattern(y) {
        return Err(TensorError::PatternMismatch);
    }
    let _span = obs::span!("tew.hicoo");
    charge(x.nnz());
    Ok(x.with_vals(combine(x.vals(), y.vals(), op)))
}

#[cfg(test)]
mod tests {
    use crate::shape::Shape;

    use super::*;

    fn t(entries: Vec<(Vec<u32>, f32)>) -> CooTensor<f32> {
        CooTensor::from_entries(Shape::new(vec![4, 4]), entries).unwrap()
    }

    #[test]
    fn same_pattern_all_ops() {
        let x = t(vec![(vec![0, 0], 6.0), (vec![1, 2], 8.0)]);
        let y = t(vec![(vec![0, 0], 2.0), (vec![1, 2], 4.0)]);
        assert_eq!(
            tew_same_pattern(&x, &y, EwOp::Add).unwrap().vals(),
            &[8.0, 12.0]
        );
        assert_eq!(
            tew_same_pattern(&x, &y, EwOp::Sub).unwrap().vals(),
            &[4.0, 4.0]
        );
        assert_eq!(
            tew_same_pattern(&x, &y, EwOp::Mul).unwrap().vals(),
            &[12.0, 32.0]
        );
        assert_eq!(
            tew_same_pattern(&x, &y, EwOp::Div).unwrap().vals(),
            &[3.0, 2.0]
        );
    }

    #[test]
    fn same_pattern_rejects_different_patterns() {
        let x = t(vec![(vec![0, 0], 1.0)]);
        let y = t(vec![(vec![0, 1], 1.0)]);
        assert_eq!(
            tew_same_pattern(&x, &y, EwOp::Add),
            Err(TensorError::PatternMismatch)
        );
    }

    #[test]
    fn general_add_is_union() {
        let x = t(vec![(vec![0, 0], 1.0), (vec![2, 2], 3.0)]);
        let y = t(vec![(vec![0, 0], 10.0), (vec![1, 1], 20.0)]);
        let z = tew(&x, &y, EwOp::Add).unwrap();
        let m = z.to_map();
        assert_eq!(m.len(), 3);
        assert_eq!(m[&vec![0, 0]], 11.0);
        assert_eq!(m[&vec![1, 1]], 20.0);
        assert_eq!(m[&vec![2, 2]], 3.0);
    }

    #[test]
    fn general_sub_negates_right_only_entries() {
        let x = t(vec![(vec![0, 0], 1.0)]);
        let y = t(vec![(vec![1, 1], 5.0)]);
        let z = tew(&x, &y, EwOp::Sub).unwrap();
        assert_eq!(z.to_map()[&vec![1, 1]], -5.0);
    }

    #[test]
    fn general_mul_is_intersection() {
        let x = t(vec![(vec![0, 0], 2.0), (vec![2, 2], 3.0)]);
        let y = t(vec![(vec![0, 0], 10.0), (vec![1, 1], 20.0)]);
        let z = tew(&x, &y, EwOp::Mul).unwrap();
        let m = z.to_map();
        assert_eq!(m.len(), 1);
        assert_eq!(m[&vec![0, 0]], 20.0);
    }

    #[test]
    fn general_div_keeps_left_pattern_with_ieee_infinity() {
        let x = t(vec![(vec![0, 0], 2.0), (vec![2, 2], 3.0)]);
        let y = t(vec![(vec![0, 0], 4.0)]);
        let z = tew(&x, &y, EwOp::Div).unwrap();
        assert_eq!(z.nnz(), 2);
        let m = z.to_map();
        assert_eq!(m[&vec![0, 0]], 0.5);
        assert!(m[&vec![2, 2]].is_infinite());
    }

    #[test]
    fn parallel_merge_matches_sequential_on_larger_input() {
        let xe: Vec<(Vec<u32>, f32)> = (0..500)
            .map(|i| (vec![i % 100, (i * 7) % 97], i as f32))
            .collect();
        let ye: Vec<(Vec<u32>, f32)> = (0..500)
            .map(|i| (vec![(i * 3) % 100, (i * 11) % 97], -(i as f32)))
            .collect();
        let shape = Shape::new(vec![100, 97]);
        let x = CooTensor::from_entries(shape.clone(), xe).unwrap();
        let y = CooTensor::from_entries(shape, ye).unwrap();
        for op in [EwOp::Add, EwOp::Sub, EwOp::Mul] {
            let par = tew_general(&x, &y, op).unwrap();
            let seq = tew_general_seq(&x, &y, op).unwrap();
            assert_eq!(par.to_map(), seq.to_map(), "{op:?}");
            assert!(par.sort_state().is_lexicographic(&[0, 1]));
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let x = t(vec![(vec![0, 0], 1.0)]);
        let y =
            CooTensor::from_entries(Shape::new(vec![4, 5]), vec![(vec![0, 0], 1.0f32)]).unwrap();
        assert!(matches!(
            tew(&x, &y, EwOp::Add),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn hicoo_same_pattern_matches_coo() {
        let x = t(vec![
            (vec![0, 0], 6.0),
            (vec![1, 2], 8.0),
            (vec![3, 3], 1.0),
        ]);
        let y = t(vec![
            (vec![0, 0], 2.0),
            (vec![1, 2], 4.0),
            (vec![3, 3], 2.0),
        ]);
        let hx = HicooTensor::from_coo(&x, 1).unwrap();
        let hy = HicooTensor::from_coo(&y, 1).unwrap();
        let hz = tew_hicoo_same_pattern(&hx, &hy, EwOp::Mul).unwrap();
        let z = tew(&x, &y, EwOp::Mul).unwrap();
        assert_eq!(hz.to_map(), z.to_map());
    }

    #[test]
    fn tew_dispatcher_sorts_unsorted_inputs() {
        let x = CooTensor::from_parts(
            Shape::new(vec![4, 4]),
            vec![vec![2, 0], vec![2, 0]],
            vec![3.0f32, 1.0],
        )
        .unwrap();
        let y = t(vec![(vec![0, 0], 10.0)]);
        let z = tew(&x, &y, EwOp::Add).unwrap();
        assert_eq!(z.to_map()[&vec![0, 0]], 11.0);
    }
}
