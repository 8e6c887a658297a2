//! Fused inner-loop leaf operations shared by the five kernels.
//!
//! Each function is one plain loop over equal-length slices, written so the
//! compiler can vectorize it (the paper's CPU kernels likewise leave
//! vectorization to `omp simd`). What matters is the fusing: a kernel makes
//! one call per nonzero — or, for [`mttkrp_block3`], one per block — that
//! covers the whole rank loop, instead of a fill + per-factor multiply + add
//! sequence over a scratch row.
//!
//! The per-element operation order is fixed (`val`, then rows in slice
//! order, then a separate add — mul-then-add with two roundings, never a
//! reassociated reduction), which is what the suite's bitwise-determinism
//! contracts (`resume_determinism`, the chaos harness's CP-ALS reference
//! match, scheduled-kernel thread-count stability) rest on.

use crate::kernels::EwOp;
use crate::scalar::Scalar;

/// `dst[i] += src[i] * v` (the TTM stripe update).
#[inline]
pub(crate) fn axpy<S: Scalar>(dst: &mut [S], src: &[S], v: S) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s * v;
    }
}

/// `dst[i] += val * rows[0][i] * rows[1][i] * ...` — the fused per-nonzero
/// MTTKRP body. The `rows` slice holds the non-mode factor rows in mode
/// order, each at least as long as `dst`.
#[inline]
pub(crate) fn accum_rows<S: Scalar>(dst: &mut [S], val: S, rows: &[&[S]]) {
    match rows {
        [a] => {
            for (d, &x) in dst.iter_mut().zip(a.iter()) {
                *d += val * x;
            }
        }
        // Order-3 and order-4 tensors are the hot cases; fixed-arity bodies
        // keep the rank loop branch-free.
        [a, b] => {
            let n = dst.len();
            let (a, b) = (&a[..n], &b[..n]);
            for i in 0..n {
                dst[i] += val * a[i] * b[i];
            }
        }
        [a, b, c] => {
            let n = dst.len();
            let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
            for i in 0..n {
                dst[i] += val * a[i] * b[i] * c[i];
            }
        }
        _ => {
            for (i, d) in dst.iter_mut().enumerate() {
                let mut p = val;
                for row in rows {
                    p *= row[i];
                }
                *d += p;
            }
        }
    }
}

/// `out[i] = val * rows[0][i] * rows[1][i] * ...` — product-only variant of
/// [`accum_rows`] for strategies whose combine step is atomic (the product
/// lands in a scratch row first). Same per-element order.
#[inline]
pub(crate) fn product_rows<S: Scalar>(out: &mut [S], val: S, rows: &[&[S]]) {
    match rows {
        [a] => {
            for (o, &x) in out.iter_mut().zip(a.iter()) {
                *o = val * x;
            }
        }
        [a, b] => {
            let n = out.len();
            let (a, b) = (&a[..n], &b[..n]);
            for i in 0..n {
                out[i] = val * a[i] * b[i];
            }
        }
        [a, b, c] => {
            let n = out.len();
            let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
            for i in 0..n {
                out[i] = val * a[i] * b[i] * c[i];
            }
        }
        _ => {
            for (i, o) in out.iter_mut().enumerate() {
                let mut p = val;
                for row in rows {
                    p *= row[i];
                }
                *o = p;
            }
        }
    }
}

/// Whole-block fused MTTKRP body for order-3 HiCOO: for every nonzero `z`
/// in `zs`,
/// `out[base_m + em[z] - row_base][i] += vals[z - zs.start] * fa_row[i] * fb_row[i]`
/// where `fa_row`/`fb_row` are the factor rows `base_a + ea[z]` /
/// `base_b + eb[z]` of the row-major matrices `fa`/`fb` (each `r` columns).
/// Nonzeros are visited in ascending `z`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn mttkrp_block3<S: Scalar>(
    out: &mut [S],
    row_base: usize,
    r: usize,
    vals: &[S],
    zs: std::ops::Range<usize>,
    em: &[u8],
    base_m: usize,
    fa: &[S],
    ea: &[u8],
    base_a: usize,
    fb: &[S],
    eb: &[u8],
    base_b: usize,
) {
    let z0 = zs.start;
    for z in zs {
        let val = vals[z - z0];
        let ra = &fa[(base_a + ea[z] as usize) * r..][..r];
        let rb = &fb[(base_b + eb[z] as usize) * r..][..r];
        let d = &mut out[(base_m + em[z] as usize - row_base) * r..][..r];
        for i in 0..r {
            d[i] += val * ra[i] * rb[i];
        }
    }
}

/// `out[i] = op(a[i], b[i])` (same-pattern TEW body).
#[inline]
pub(crate) fn ew_combine_into<S: Scalar>(op: EwOp, a: &[S], b: &[S], out: &mut [S]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = op.apply(x, y);
    }
}

/// `out[i] = op(src[i], s)` (TS body).
#[inline]
pub(crate) fn ew_scalar_into<S: Scalar>(op: EwOp, src: &[S], s: S, out: &mut [S]) {
    for (o, &x) in out.iter_mut().zip(src) {
        *o = op.apply(x, s);
    }
}

/// Ordered fiber dot product: `sum_m vals[m] * table[idx[m]]` with the
/// accumulation performed in index order (the TTV inner loop).
#[inline]
pub(crate) fn fiber_dot<S: Scalar>(vals: &[S], idx: &[u32], table: &[S]) -> S {
    debug_assert_eq!(vals.len(), idx.len());
    let mut acc = S::ZERO;
    for (m, &v) in vals.iter().enumerate() {
        acc += v * table[idx[m] as usize];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).sin() * 3.0 + 0.25).collect()
    }
    fn ys(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).cos() * 2.0 - 0.5).collect()
    }

    // Lengths around every vector-width boundary, so a vectorized body and
    // its tail are both exercised against the per-element definition.
    const LENS: [usize; 13] = [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 64, 100];

    #[test]
    fn elementwise_ops_match_their_definition() {
        for n in LENS {
            let (a, b) = (xs(n), ys(n));
            for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
                let mut into = vec![0.0f32; n];
                ew_combine_into(op, &a, &b, &mut into);
                let mut s_into = vec![0.0f32; n];
                ew_scalar_into(op, &a, 1.5, &mut s_into);
                for i in 0..n {
                    let want = op.apply(a[i], b[i]).to_bits();
                    assert_eq!(into[i].to_bits(), want, "combine_into {op:?} n={n}");
                    let want = op.apply(a[i], 1.5).to_bits();
                    assert_eq!(s_into[i].to_bits(), want, "scalar_into {op:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn row_ops_use_two_roundings_in_slice_order() {
        for n in LENS {
            let (a, b) = (xs(n), ys(n));
            let c: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let d: Vec<f32> = b.iter().map(|x| x - 0.125).collect();
            let all: [&[f32]; 4] = [&a, &b, &c, &d];
            for arity in 1..=4 {
                let rows = &all[..arity];
                let mut acc = c.clone();
                accum_rows(&mut acc, 0.75, rows);
                let mut prod = vec![0.0f32; n];
                product_rows(&mut prod, 0.75, rows);
                for i in 0..n {
                    let p = rows.iter().fold(0.75f32, |p, row| p * row[i]);
                    assert_eq!(
                        prod[i].to_bits(),
                        p.to_bits(),
                        "product arity={arity} n={n}"
                    );
                    assert_eq!(
                        acc[i].to_bits(),
                        (c[i] + p).to_bits(),
                        "accum arity={arity} n={n}"
                    );
                }
            }
            let mut y = a.clone();
            axpy(&mut y, &b, 0.75);
            for i in 0..n {
                assert_eq!(y[i].to_bits(), (a[i] + b[i] * 0.75).to_bits(), "axpy n={n}");
            }
        }
    }

    #[test]
    fn block3_matches_per_nonzero_accum_rows() {
        let r = 5;
        let (fa, fb) = (xs(4 * r), ys(6 * r));
        let vals = [2.0f32, -1.5, 0.25];
        // Element offsets are indexed by absolute `z`; the block is z in 1..4.
        let (em, ea, eb) = ([9u8, 0, 1, 0], [9u8, 1, 0, 1], [9u8, 2, 2, 0]);
        let (row_base, base_m, base_a, base_b) = (2, 2, 2, 3);
        let mut out = vec![0.5f32; 2 * r];
        let mut want = out.clone();
        mttkrp_block3(
            &mut out,
            row_base,
            r,
            &vals,
            1..4,
            &em,
            base_m,
            &fa,
            &ea,
            base_a,
            &fb,
            &eb,
            base_b,
        );
        for z in 1..4 {
            let ra = &fa[(base_a + ea[z] as usize) * r..][..r];
            let rb = &fb[(base_b + eb[z] as usize) * r..][..r];
            let d = &mut want[(base_m + em[z] as usize - row_base) * r..][..r];
            accum_rows(d, vals[z - 1], &[ra, rb]);
        }
        assert_eq!(out, want);
    }

    #[test]
    fn fiber_dot_accumulates_in_index_order() {
        for n in [0usize, 1, 7, 63, 64, 65, 200] {
            let vals = xs(n);
            let table = ys(97);
            let idx: Vec<u32> = (0..n)
                .map(|i| ((i * 13 + 5) % table.len()) as u32)
                .collect();
            let mut want = 0.0f32;
            for m in 0..n {
                want += vals[m] * table[idx[m] as usize];
            }
            assert_eq!(
                fiber_dot(&vals, &idx, &table).to_bits(),
                want.to_bits(),
                "n={n}"
            );
        }
    }
}
