//! Sparse tensor contraction — listed by the paper (§7) among the
//! operations to add to the suite ("tensor contraction, a sparse tensor
//! with a sparse vector/matrix operations"); provided here as an extension.
//!
//! `contract(x, mode_x, y, mode_y)` computes
//! `Z[i.., j..] = Σ_k X[i.., k at mode_x] * Y[j.. with k at mode_y]`,
//! generalizing matrix multiplication (order-2 × order-2 over the inner
//! modes). Both operands are iterated fiber-by-fiber over the contracted
//! mode after mode-last sorts; matching `k` groups produce outer-product
//! contributions that are accumulated by coordinate.

use std::collections::HashMap;

use crate::coo::{CooTensor, SortState};
use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::shape::Shape;

/// Index ranges of each distinct contracted-mode value, over a tensor
/// sorted with that mode *first* (so equal `k` are consecutive).
fn groups_by_mode<S: Scalar>(t: &CooTensor<S>, mode: usize) -> Vec<(u32, std::ops::Range<usize>)> {
    let inds = t.mode_inds(mode);
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=inds.len() {
        if i == inds.len() || inds[i] != inds[i - 1] {
            out.push((inds[start], start..i));
            start = i;
        }
    }
    out
}

/// Contract `x`'s `mode_x` with `y`'s `mode_y` (their extents must match).
/// The output's modes are `x`'s modes without `mode_x` followed by `y`'s
/// modes without `mode_y`; duplicate output coordinates are summed.
///
/// The result can densify rapidly (the "curse of dimensionality" the paper
/// opens with): contracting two order-`N` tensors yields order `2N-2`.
pub fn contract<S: Scalar>(
    x: &CooTensor<S>,
    mode_x: usize,
    y: &CooTensor<S>,
    mode_y: usize,
) -> Result<CooTensor<S>> {
    x.shape().check_mode(mode_x)?;
    y.shape().check_mode(mode_y)?;
    if x.shape().dim(mode_x) != y.shape().dim(mode_y) {
        return Err(TensorError::OperandLengthMismatch {
            expected: x.shape().dim(mode_x) as usize,
            actual: y.shape().dim(mode_y) as usize,
        });
    }
    if x.order() < 2 || y.order() < 2 {
        return Err(TensorError::OrderTooSmall {
            min: 2,
            actual: x.order().min(y.order()),
        });
    }

    // Sort both with the contracted mode outermost so each k is one run.
    let sort_mode_first = |t: &CooTensor<S>, mode: usize| -> CooTensor<S> {
        let mut order: Vec<usize> = (0..t.order()).filter(|&m| m != mode).collect();
        order.insert(0, mode);
        let mut c = t.clone();
        c.sort_lexicographic(&order);
        c
    };
    let xs = sort_mode_first(x, mode_x);
    let ys = sort_mode_first(y, mode_y);

    let x_free: Vec<usize> = (0..x.order()).filter(|&m| m != mode_x).collect();
    let y_free: Vec<usize> = (0..y.order()).filter(|&m| m != mode_y).collect();
    let out_order = x_free.len() + y_free.len();
    let mut out_dims: Vec<u32> = x_free.iter().map(|&m| x.shape().dim(m)).collect();
    out_dims.extend(y_free.iter().map(|&m| y.shape().dim(m)));
    let out_shape = Shape::new(out_dims);

    // Merge the two sorted k-group lists; matched pairs contribute outer
    // products, accumulated per matched pair and merged at the end.
    let gx = groups_by_mode(&xs, mode_x);
    let gy = groups_by_mode(&ys, mode_y);
    let mut pairs: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < gx.len() && j < gy.len() {
        match gx[i].0.cmp(&gy[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                pairs.push((gx[i].1.clone(), gy[j].1.clone()));
                i += 1;
                j += 1;
            }
        }
    }

    let partials: Vec<HashMap<Vec<u32>, S>> = crate::par::map_collect(pairs.len(), 8, |p| {
        let (rx, ry) = &pairs[p];
        let mut acc: HashMap<Vec<u32>, S> = HashMap::new();
        for px in rx.clone() {
            let xv = xs.vals()[px];
            for py in ry.clone() {
                let mut coord = Vec::with_capacity(out_order);
                for &m in &x_free {
                    coord.push(xs.mode_inds(m)[px]);
                }
                for &m in &y_free {
                    coord.push(ys.mode_inds(m)[py]);
                }
                *acc.entry(coord).or_insert(S::ZERO) += xv * ys.vals()[py];
            }
        }
        acc
    });

    let mut total: HashMap<Vec<u32>, S> = HashMap::new();
    for p in partials {
        for (k, v) in p {
            *total.entry(k).or_insert(S::ZERO) += v;
        }
    }
    let mut entries: Vec<(Vec<u32>, S)> = total.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(entries.len()); out_order];
    let mut vals: Vec<S> = Vec::with_capacity(entries.len());
    for (coord, v) in entries {
        for (m, &c) in coord.iter().enumerate() {
            inds[m].push(c);
        }
        vals.push(v);
    }
    Ok(CooTensor::from_parts_unchecked(
        out_shape,
        inds,
        vals,
        SortState::Lexicographic((0..out_order).collect()),
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn matrix(rows: u32, cols: u32, entries: Vec<(u32, u32, f64)>) -> CooTensor<f64> {
        CooTensor::from_entries(
            Shape::new(vec![rows, cols]),
            entries
                .into_iter()
                .map(|(i, j, v)| (vec![i, j], v))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn order2_contraction_is_matrix_multiply() {
        // A (2x3) * B (3x2): contract A mode 1 with B mode 0.
        let a = matrix(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let b = matrix(3, 2, vec![(0, 0, 4.0), (1, 1, 5.0), (2, 0, 6.0)]);
        let c = contract(&a, 1, &b, 0).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        let m = c.to_map();
        // C[0,0] = A[0,0]*B[0,0] + A[0,2]*B[2,0] = 4 + 12 = 16.
        assert_eq!(m[&vec![0, 0]], 16.0);
        // C[1,1] = A[1,1]*B[1,1] = 15.
        assert_eq!(m[&vec![1, 1]], 15.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn contraction_matches_dense_reference_order3() {
        let x = CooTensor::from_entries(
            Shape::new(vec![3, 4, 5]),
            vec![
                (vec![0, 1, 2], 1.5f64),
                (vec![2, 3, 2], -2.0),
                (vec![1, 0, 4], 3.0),
                (vec![0, 2, 0], 0.5),
            ],
        )
        .unwrap();
        let y = CooTensor::from_entries(
            Shape::new(vec![5, 2]),
            vec![(vec![2, 0], 2.0f64), (vec![2, 1], -1.0), (vec![4, 1], 4.0)],
        )
        .unwrap();
        // Contract x mode 2 with y mode 0 -> order 3 output (3,4,2).
        let z = contract(&x, 2, &y, 0).unwrap();
        assert_eq!(z.shape().dims(), &[3, 4, 2]);
        // Dense reference.
        let mut expect: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (cx, vx) in x.iter_entries() {
            for (cy, vy) in y.iter_entries() {
                if cx[2] == cy[0] {
                    *expect.entry(vec![cx[0], cx[1], cy[1]]).or_insert(0.0) += vx * vy;
                }
            }
        }
        expect.retain(|_, v| *v != 0.0);
        let mut got = z.to_map();
        got.retain(|_, v| *v != 0.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn mismatched_inner_extent_is_rejected() {
        let a = matrix(2, 3, vec![(0, 0, 1.0)]);
        let b = matrix(4, 2, vec![(0, 0, 1.0)]);
        assert!(matches!(
            contract(&a, 1, &b, 0),
            Err(TensorError::OperandLengthMismatch { .. })
        ));
    }

    #[test]
    fn disjoint_inner_support_gives_empty_output() {
        let a = matrix(2, 4, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        let b = matrix(4, 2, vec![(2, 0, 3.0), (3, 1, 4.0)]);
        let c = contract(&a, 1, &b, 0).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn contraction_with_order3_pair_produces_order4() {
        let x = CooTensor::from_entries(
            Shape::new(vec![2, 2, 3]),
            vec![(vec![0, 1, 2], 2.0f64), (vec![1, 0, 1], 3.0)],
        )
        .unwrap();
        let y = CooTensor::from_entries(
            Shape::new(vec![3, 2, 2]),
            vec![(vec![2, 1, 1], 4.0f64), (vec![1, 0, 0], 5.0)],
        )
        .unwrap();
        let z = contract(&x, 2, &y, 0).unwrap();
        assert_eq!(z.order(), 4);
        let m = z.to_map();
        assert_eq!(m[&vec![0, 1, 1, 1]], 8.0);
        assert_eq!(m[&vec![1, 0, 0, 0]], 15.0);
    }

    #[test]
    fn cancellation_keeps_structural_zero() {
        // Two contributions to the same output cell that cancel exactly:
        // COO keeps whatever the accumulation produced (a stored zero).
        let a = matrix(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)]);
        let b = matrix(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)]);
        let c = contract(&a, 1, &b, 0).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.vals()[0], 0.0);
    }
}
