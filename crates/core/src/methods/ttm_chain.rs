//! TTM-chain — the Tucker decomposition's core computation
//! `G = X ×_1 U_1^T ×_2 U_2^T …`, listed by the paper (§7) as a future
//! suite operation and provided here as an extension.

use crate::coo::CooTensor;
use crate::dense::DenseMatrix;
use crate::error::Result;
use crate::kernels::ttm::ttm;
use crate::scalar::Scalar;

/// Apply a chain of mode products `X ×_{n_1} U_1 ×_{n_2} U_2 …` in the given
/// order, each one the suite's COO [`ttm`]. Each product densifies its mode
/// (the sparse-dense property); its semi-sparse output is expanded back to
/// COO for the next product, so the result holds every stored stripe value
/// (the dense core when every mode was contracted).
pub fn ttm_chain<S: Scalar>(
    x: &CooTensor<S>,
    chain: &[(usize, &DenseMatrix<S>)],
) -> Result<CooTensor<S>> {
    let mut current = x.clone();
    for &(mode, u) in chain {
        current = ttm(&current, u, mode)?.to_coo();
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use crate::shape::Shape;

    use super::*;

    fn sample() -> CooTensor<f64> {
        CooTensor::from_entries(
            Shape::new(vec![3, 4, 5]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 3], 2.0),
                (vec![2, 1, 4], -1.0),
                (vec![0, 3, 2], 0.5),
            ],
        )
        .unwrap()
    }

    /// Dense reference for a full chain.
    fn reference(
        x: &CooTensor<f64>,
        chain: &[(usize, &DenseMatrix<f64>)],
    ) -> BTreeMap<Vec<u32>, f64> {
        let mut cur: BTreeMap<Vec<u32>, f64> = x.to_map();
        for &(mode, u) in chain {
            let mut next: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
            for (c, v) in &cur {
                for r in 0..u.cols() {
                    let mut key = c.clone();
                    key[mode] = r as u32;
                    *next.entry(key).or_insert(0.0) += v * u[(c[mode] as usize, r)];
                }
            }
            cur = next;
        }
        cur.retain(|_, v| v.abs() > 1e-12);
        cur
    }

    #[test]
    fn two_step_chain_matches_reference() {
        let x = sample();
        let u1 = DenseMatrix::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        let u2 = DenseMatrix::from_fn(5, 2, |i, j| (2 * i + j) as f64 * 0.5);
        let chain: Vec<(usize, &DenseMatrix<f64>)> = vec![(0, &u1), (2, &u2)];
        let got = ttm_chain(&x, &chain).unwrap();
        let mut got_map = got.to_map();
        got_map.retain(|_, v| v.abs() > 1e-12);
        let expect = reference(&x, &chain);
        assert_eq!(got_map.len(), expect.len());
        for (k, v) in &expect {
            assert!((got_map[k] - v).abs() < 1e-9, "{k:?}");
        }
    }

    #[test]
    fn full_tucker_core_shape() {
        let x = sample();
        let u0 = DenseMatrix::constant(3, 2, 1.0);
        let u1 = DenseMatrix::constant(4, 2, 1.0);
        let u2 = DenseMatrix::constant(5, 2, 1.0);
        let chain: Vec<(usize, &DenseMatrix<f64>)> = vec![(0, &u0), (1, &u1), (2, &u2)];
        let core = ttm_chain(&x, &chain).unwrap();
        assert_eq!(core.shape().dims(), &[2, 2, 2]);
        // With all-ones factors every core entry equals the sum of values.
        let total: f64 = x.vals().iter().sum();
        for (_, v) in core.to_map() {
            assert!((v - total).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_chain_is_identity() {
        let x = sample();
        let got = ttm_chain(&x, &[]).unwrap();
        assert_eq!(got.to_map(), x.to_map());
    }
}
