//! The correctness oracle. It runs outside every timed region.
//!
//! Kernel outputs arrive in five layouts whose element orders differ
//! (lexicographic COO, Morton-blocked HiCOO, fiber-major semi-sparse,
//! dense), so each is first brought to one canonical form — coordinates
//! linearised to a key, sorted, values carried along — and then compared
//! with the sequential reference: every coordinate must match, and a
//! strided sample of values must agree to a relative 1e-4 (parallel
//! reductions legitimately differ in the last bits).

use tenbench_core::coo::{CooTensor, SemiSparseTensor};
use tenbench_core::dense::DenseMatrix;
use tenbench_core::hicoo::{HicooTensor, SemiSparseHicooTensor};

/// Relative tolerance for sampled kernel values.
pub const VALUE_REL_TOL: f64 = 1e-4;
/// Relative tolerance for digests of one computation done twice: a digest
/// sums a few thousand values, so a reduction order that differs between
/// the two (a supervisor fallback to another strategy) moves it by far less.
pub const DIGEST_REL_TOL: f64 = 1e-5;
/// Upper bound on sampled positions per output.
const SAMPLE: usize = 4096;

/// A kernel output in whichever layout the kernel returns.
pub enum Output {
    Coo(CooTensor<f32>),
    Hicoo(HicooTensor<f32>),
    Scoo(SemiSparseTensor<f32>),
    Shicoo(SemiSparseHicooTensor<f32>),
    Dense(DenseMatrix<f32>),
}

/// Canonical form: keys ascending, `width` values per key.
#[derive(Debug, Clone, PartialEq)]
pub struct Canon {
    keys: Vec<u128>,
    width: usize,
    vals: Vec<f32>,
}

impl Canon {
    fn from_unsorted(keys: Vec<u128>, width: usize, vals: &[f32]) -> Canon {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        let mut sorted_vals = Vec::with_capacity(vals.len());
        for &i in &order {
            let at = i as usize * width;
            sorted_vals.extend_from_slice(&vals[at..at + width]);
        }
        Canon {
            keys: order.iter().map(|&i| keys[i as usize]).collect(),
            width,
            vals: sorted_vals,
        }
    }

    /// Scale one stored value in place (tests perturb outputs with this).
    #[cfg(test)]
    fn scale_value(&mut self, at: usize, by: f32) {
        self.vals[at] *= by;
    }
}

/// Linearise the coordinates of entry `at` over `modes`.
fn key_of(dims: &[u32], inds: &[Vec<u32>], modes: &[usize], at: usize) -> u128 {
    modes.iter().fold(0u128, |k, &m| {
        k * u128::from(dims[m]) + u128::from(inds[m][at])
    })
}

fn canon_coo(x: &CooTensor<f32>) -> Canon {
    let modes: Vec<usize> = (0..x.order()).collect();
    let keys = (0..x.nnz())
        .map(|at| key_of(x.shape().dims(), x.inds(), &modes, at))
        .collect();
    Canon::from_unsorted(keys, 1, x.vals())
}

fn canon_scoo(x: &SemiSparseTensor<f32>) -> Canon {
    let modes: Vec<usize> = (0..x.order()).filter(|&m| m != x.dense_mode()).collect();
    let keys = (0..x.num_fibers())
        .map(|f| key_of(x.shape().dims(), x.inds(), &modes, f))
        .collect();
    Canon::from_unsorted(keys, x.dense_size(), x.vals())
}

/// Bring an output to canonical form.
pub fn canon(out: &Output) -> Canon {
    match out {
        Output::Coo(x) => canon_coo(x),
        Output::Hicoo(h) => canon_coo(&h.to_coo()),
        Output::Scoo(x) => canon_scoo(x),
        Output::Shicoo(h) => canon_scoo(&h.to_scoo()),
        Output::Dense(m) => Canon {
            keys: (0..m.rows() as u128).collect(),
            width: m.cols(),
            vals: m.data().to_vec(),
        },
    }
}

/// Compare a kernel output with its reference.
pub fn check_output(got: &Canon, want: &Canon) -> Result<(), String> {
    if got.width != want.width || got.keys.len() != want.keys.len() {
        return Err(format!(
            "shape mismatch: got {} keys x {}, reference {} keys x {}",
            got.keys.len(),
            got.width,
            want.keys.len(),
            want.width
        ));
    }
    if let Some(at) = (0..want.keys.len()).find(|&i| got.keys[i] != want.keys[i]) {
        return Err(format!("coordinate mismatch at sorted position {at}"));
    }
    let n = want.vals.len();
    if n == 0 {
        return Ok(());
    }
    let stride = (n / SAMPLE).max(1);
    let sample = || (0..n).step_by(stride);
    // Values below the typical magnitude are held to an absolute error of
    // the same size, so a near-zero reference does not demand exactness.
    let floor =
        sample().map(|i| f64::from(want.vals[i]).abs()).sum::<f64>() / sample().count() as f64;
    for i in sample() {
        let (g, w) = (f64::from(got.vals[i]), f64::from(want.vals[i]));
        if !g.is_finite() || (g - w).abs() > VALUE_REL_TOL * w.abs().max(floor) {
            return Err(format!(
                "value mismatch at sorted position {i}: got {g:e}, reference {w:e}"
            ));
        }
    }
    Ok(())
}

/// A cheap digest of an output: the sum of a strided sample of its values
/// in storage order (what a caller glancing at a result would compute).
pub fn digest(out: &Output) -> f64 {
    let vals: &[f32] = match out {
        Output::Coo(x) => x.vals(),
        Output::Hicoo(h) => h.vals(),
        Output::Scoo(x) => x.vals(),
        Output::Shicoo(h) => h.vals(),
        Output::Dense(m) => m.data(),
    };
    let stride = (vals.len() / SAMPLE).max(1);
    vals.iter().step_by(stride).map(|&v| f64::from(v)).sum()
}

/// Compare a digest with the value the same code gave on the same input.
pub fn check_digest(got: f64, want: f64) -> Result<(), String> {
    if got.is_finite() && (got - want).abs() <= DIGEST_REL_TOL * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("digest mismatch: got {got:e}, reference {want:e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::kernels::{ttv, EwOp};
    use tenbench_core::prelude::*;

    fn tensor() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![32, 32, 8]),
            (0..600u32)
                .map(|i| {
                    (
                        vec![(i * 7) % 32, (i * 13 + i / 32) % 32, (i * 5) % 8],
                        (i % 31) as f32 * 0.25 + 0.5,
                    )
                })
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_iter()
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layouts_of_one_result_agree_and_a_perturbed_output_is_rejected() {
        let x = tensor();
        let h = HicooTensor::from_coo(&x, 3).unwrap();
        let v = DenseVector::from_fn(8, |i| i as f32 * 0.5 + 1.0);
        let mut xm = x.clone();
        let fp = xm.fibers(2).unwrap();
        let want = canon(&Output::Coo(ttv::ttv_prepared_seq(&xm, &fp, &v).unwrap()));
        // The HiCOO kernel returns the same fibers in Morton order.
        let got = canon(&Output::Hicoo(ttv::ttv_hicoo_sched(&h, &v, 2).unwrap()));
        check_output(&got, &want).expect("formats agree");

        // One value a tenth of a percent off (the largest, so the error is
        // relative to the value itself, not to the floor).
        let largest = (0..got.vals.len())
            .max_by(|&a, &b| got.vals[a].total_cmp(&got.vals[b]))
            .unwrap();
        let mut bad = got.clone();
        bad.scale_value(largest, 1.001);
        let err = check_output(&bad, &want).expect_err("perturbed value");
        assert!(err.contains("value mismatch"), "{err}");

        // A result over a different pattern is rejected on coordinates.
        let other = tenbench_core::kernels::ts::ts_seq(&x, 2.0, EwOp::Mul).unwrap();
        assert!(check_output(&canon(&Output::Coo(other)), &want).is_err());
    }

    #[test]
    fn a_perturbed_digest_is_rejected() {
        check_digest(1234.5678, 1234.5678).expect("equal digests");
        check_digest(1234.5678 * (1.0 + 1e-9), 1234.5678).expect("last-bit noise");
        assert!(check_digest(1234.5678 * 1.0001, 1234.5678).is_err());
        assert!(check_digest(f64::NAN, 1234.5678).is_err());
    }
}
