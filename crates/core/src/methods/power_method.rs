//! Tensor power method — orthogonal decomposition of (near-)symmetric
//! tensors whose bottleneck is Ttv (paper §2.3).

use crate::coo::CooTensor;
use crate::dense::DenseVector;
use crate::error::{Result, TensorError};
use crate::kernels::ttv::ttv;
use crate::scalar::Scalar;

use super::XorShift64;

/// Result of one run of the tensor power method.
#[derive(Debug, Clone)]
pub struct PowerMethodResult<S: Scalar> {
    /// Estimated eigenvalue `λ = X(v, v, …, v)`.
    pub eigenvalue: S,
    /// Estimated unit eigenvector.
    pub eigenvector: DenseVector<S>,
    /// Iterations performed.
    pub iterations: usize,
    /// `true` if the eigenvalue change fell below the tolerance.
    pub converged: bool,
}

/// Contract every mode except mode 0 with `v` via repeated Ttv, returning
/// the resulting dense vector `w_i = Σ x_{i j k …} v_j v_k …`.
fn contract_to_vector<S: Scalar>(x: &CooTensor<S>, v: &DenseVector<S>) -> Result<DenseVector<S>> {
    let mut cur = x.clone();
    while cur.order() > 1 {
        let last = cur.order() - 1;
        cur = ttv(&cur, v, last)?;
    }
    let mut w = DenseVector::zeros(x.shape().dim(0) as usize);
    for (c, val) in cur.iter_entries() {
        w[c[0] as usize] += val;
    }
    Ok(w)
}

/// Run the tensor power method on a cubical tensor: iterate
/// `v <- normalize(X(·, v, …, v))` until the Rayleigh quotient stabilizes.
///
/// The method assumes a (near-)symmetric tensor to converge to an
/// eigen-pair; on arbitrary tensors it still converges to a fixed point of
/// the iteration and serves as a realistic Ttv workload.
pub fn tensor_power_method<S: Scalar>(
    x: &CooTensor<S>,
    max_iters: usize,
    tol: f64,
    seed: u64,
) -> Result<PowerMethodResult<S>> {
    let dims = x.shape().dims();
    if dims.iter().any(|&d| d != dims[0]) {
        return Err(TensorError::InvalidStructure(
            "tensor power method requires a cubical tensor".into(),
        ));
    }
    if x.order() < 2 {
        return Err(TensorError::OrderTooSmall {
            min: 2,
            actual: x.order(),
        });
    }
    let n = dims[0] as usize;
    let mut rng = XorShift64::new(seed);
    let mut v = DenseVector::from_fn(n, |_| S::from_f64(rng.next_f64() + 0.1));
    v.normalize();
    let mut eigenvalue = S::ZERO;
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..max_iters {
        iterations = it + 1;
        let w = contract_to_vector(x, &v)?;
        // Rayleigh quotient before normalization: λ = v · w.
        let lambda = v.dot(&w);
        let mut next = w;
        if next.normalize() == S::ZERO {
            // Hit the null space; report the zero eigenvalue.
            eigenvalue = S::ZERO;
            converged = true;
            break;
        }
        let delta = (lambda.to_f64() - eigenvalue.to_f64()).abs();
        eigenvalue = lambda;
        v = next;
        if it > 0 && delta < tol * (1.0 + eigenvalue.to_f64().abs()) {
            converged = true;
            break;
        }
    }
    Ok(PowerMethodResult {
        eigenvalue,
        eigenvector: v,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use crate::shape::Shape;

    use super::*;

    /// Symmetric rank-1 tensor x_ijk = u_i u_j u_k with ‖u‖ = 1 has
    /// eigen-pair (1, u).
    fn symmetric_rank_one(u: &[f64]) -> CooTensor<f64> {
        let n = u.len();
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let v = u[i] * u[j] * u[k];
                    if v != 0.0 {
                        entries.push((vec![i as u32, j as u32, k as u32], v));
                    }
                }
            }
        }
        CooTensor::from_entries(Shape::cubical(3, n as u32), entries).unwrap()
    }

    #[test]
    fn recovers_dominant_eigenpair() {
        let raw = [3.0, 0.0, 4.0];
        let norm = 5.0;
        let u: Vec<f64> = raw.iter().map(|x| x / norm).collect();
        let x = symmetric_rank_one(&u);
        let res = tensor_power_method(&x, 100, 1e-12, 7).unwrap();
        assert!(res.converged);
        assert!((res.eigenvalue - 1.0).abs() < 1e-8, "{}", res.eigenvalue);
        // Eigenvector matches up to sign.
        let dot: f64 = res
            .eigenvector
            .as_slice()
            .iter()
            .zip(&u)
            .map(|(a, b)| a * b)
            .sum();
        assert!((dot.abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_non_cubical() {
        let x = CooTensor::<f64>::empty(Shape::new(vec![2, 3, 2]));
        assert!(tensor_power_method(&x, 10, 1e-6, 1).is_err());
    }

    #[test]
    fn zero_tensor_reports_zero_eigenvalue() {
        let x = CooTensor::<f64>::empty(Shape::cubical(3, 4));
        let res = tensor_power_method(&x, 10, 1e-6, 1).unwrap();
        assert_eq!(res.eigenvalue, 0.0);
        assert!(res.converged);
    }

    #[test]
    fn works_on_matrices() {
        // Order-2: plain power method on a diagonal matrix.
        let x = CooTensor::from_entries(
            Shape::cubical(2, 3),
            vec![(vec![0, 0], 5.0f64), (vec![1, 1], 2.0), (vec![2, 2], 1.0)],
        )
        .unwrap();
        let res = tensor_power_method(&x, 200, 1e-12, 3).unwrap();
        assert!((res.eigenvalue - 5.0).abs() < 1e-6, "{}", res.eigenvalue);
    }
}
