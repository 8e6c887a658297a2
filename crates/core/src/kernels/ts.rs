//! Ts — tensor–scalar operations (paper §2.2).
//!
//! One loop over the nonzero values; the output pattern equals the input
//! pattern, so the output shares the input's index structure and a call
//! moves values only, in COO and HiCOO alike. The paper implements Tsa and
//! Tsm ("sufficient to support them all"); this module supports all four
//! operations, with division by a zero scalar reported as an error rather
//! than silently producing infinities.

use tenbench_obs as obs;

use crate::analysis;
use crate::coo::CooTensor;
use crate::error::{Result, TensorError};
use crate::hicoo::HicooTensor;
use crate::par::{self, Schedule};
use crate::scalar::Scalar;
use crate::simd;

use super::EwOp;

/// Chunk size for the parallel value loops; large enough that the vectorized body
/// amortizes the pool's per-chunk claim.
const CHUNK: usize = 1024;

fn check_scalar<S: Scalar>(op: EwOp, s: S) -> Result<()> {
    if op == EwOp::Div && s == S::ZERO {
        Err(TensorError::DivisionByZero)
    } else {
        Ok(())
    }
}

/// Charge one Ts invocation over `m` nonzeros (`analysis::ts_cost`).
fn charge(m: usize) {
    if obs::counters::counters_enabled() {
        let c = analysis::ts_cost(m as u64);
        obs::counters::FLOPS.add(c.flops);
        obs::counters::BYTES.add(c.bytes);
        obs::counters::KERNEL_CALLS.add(1);
    }
}

/// The value loop of every parallel Ts: `op` with `s` over a value array,
/// into a new one.
fn scale<S: Scalar>(xv: &[S], s: S, op: EwOp) -> Vec<S> {
    let mut vals: Vec<S> = vec![S::ZERO; xv.len()];
    par::chunks_mut(&mut vals, CHUNK, Schedule::DYNAMIC, |c, o| {
        simd::ew_scalar_into(op, &xv[c * CHUNK..c * CHUNK + o.len()], s, o)
    });
    vals
}

/// Tensor–scalar operation, parallel over nonzeros (COO-Ts-OMP). The output
/// shares `x`'s index arrays and sort state.
pub fn ts<S: Scalar>(x: &CooTensor<S>, s: S, op: EwOp) -> Result<CooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.coo");
    charge(x.nnz());
    Ok(x.with_vals(scale(x.vals(), s, op)))
}

/// Sequential tensor–scalar baseline.
pub fn ts_seq<S: Scalar>(x: &CooTensor<S>, s: S, op: EwOp) -> Result<CooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.seq");
    charge(x.nnz());
    let mut vals: Vec<S> = vec![S::ZERO; x.nnz()];
    simd::ew_scalar_into(op, x.vals(), s, &mut vals);
    Ok(x.with_vals(vals))
}

/// Tensor–scalar over HiCOO (HiCOO-Ts-OMP): the COO kernel's value loop;
/// the output shares `x`'s block structure.
pub fn ts_hicoo<S: Scalar>(x: &HicooTensor<S>, s: S, op: EwOp) -> Result<HicooTensor<S>> {
    check_scalar(op, s)?;
    let _span = obs::span!("ts.hicoo");
    charge(x.nnz());
    Ok(x.with_vals(scale(x.vals(), s, op)))
}

#[cfg(test)]
mod tests {
    use crate::shape::Shape;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![0, 0, 0], 2.0),
                (vec![1, 2, 3], 4.0),
                (vec![3, 3, 3], -6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_ops_apply_elementwise() {
        let x = sample();
        assert_eq!(ts(&x, 2.0, EwOp::Add).unwrap().vals(), &[4.0, 6.0, -4.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Sub).unwrap().vals(), &[0.0, 2.0, -8.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Mul).unwrap().vals(), &[4.0, 8.0, -12.0]);
        assert_eq!(ts(&x, 2.0, EwOp::Div).unwrap().vals(), &[1.0, 2.0, -3.0]);
    }

    #[test]
    fn seq_matches_parallel() {
        let x = sample();
        for op in [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div] {
            assert_eq!(
                ts(&x, 3.5, op).unwrap().vals(),
                ts_seq(&x, 3.5, op).unwrap().vals()
            );
        }
    }

    #[test]
    fn pattern_and_sort_state_preserved() {
        let x = sample();
        let y = ts(&x, 1.0, EwOp::Mul).unwrap();
        assert!(x.same_pattern(&y));
        assert_eq!(x.sort_state(), y.sort_state());
    }

    #[test]
    fn division_by_zero_scalar_is_an_error() {
        let x = sample();
        assert_eq!(ts(&x, 0.0, EwOp::Div), Err(TensorError::DivisionByZero));
    }

    #[test]
    fn hicoo_matches_coo() {
        let x = sample();
        let h = HicooTensor::from_coo(&x, 1).unwrap();
        let hy = ts_hicoo(&h, 5.0, EwOp::Mul).unwrap();
        let y = ts(&x, 5.0, EwOp::Mul).unwrap();
        assert_eq!(hy.to_map(), y.to_map());
        assert!(hy.same_pattern(&h));
    }
}
