//! Mode index reordering — the locality technique the paper points at for
//! the irregular operand gathers ("data reuse of v could happen if its
//! access has or gains a good localized pattern naturally or from
//! reordering techniques", §3.2.1, citing Li et al. ICS'19). Provided as an
//! extension with a frequency-based heuristic: relabeling a mode so its
//! most frequent indices become smallest packs the hot operand rows
//! together, which measurably raises cache hit rates on power-law tensors.

use crate::coo::CooTensor;
use crate::dense::DenseVector;
use crate::error::{Result, TensorError};
use crate::scalar::Scalar;

/// Validate that `perm` is a permutation of `0..dim`.
fn check_permutation(perm: &[u32], dim: u32) -> Result<()> {
    if perm.len() != dim as usize {
        return Err(TensorError::OperandLengthMismatch {
            expected: dim as usize,
            actual: perm.len(),
        });
    }
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p as usize >= perm.len() || seen[p as usize] {
            return Err(TensorError::InvalidStructure(format!(
                "not a permutation: duplicate or out-of-range image {p}"
            )));
        }
        seen[p as usize] = true;
    }
    Ok(())
}

/// Relabel `mode`'s indices in place: `new_index = perm[old_index]`. The
/// tensor's sort state is invalidated (relabeling breaks any order).
pub fn apply_mode_permutation<S: Scalar>(
    x: &mut CooTensor<S>,
    mode: usize,
    perm: &[u32],
) -> Result<()> {
    x.shape().check_mode(mode)?;
    check_permutation(perm, x.shape().dim(mode))?;
    x.relabel_mode(mode, perm);
    Ok(())
}

/// The frequency permutation of one mode: the most frequent old index maps
/// to 0, the next to 1, and so on (ties broken by old index for
/// determinism). Unused indices follow in index order.
pub fn frequency_permutation<S: Scalar>(x: &CooTensor<S>, mode: usize) -> Result<Vec<u32>> {
    x.shape().check_mode(mode)?;
    let dim = x.shape().dim(mode) as usize;
    let mut counts = vec![0u64; dim];
    for &i in x.mode_inds(mode) {
        counts[i as usize] += 1;
    }
    let mut order: Vec<u32> = (0..dim as u32).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(counts[i as usize]), i));
    // order[rank] = old index; invert to perm[old] = rank.
    let mut perm = vec![0u32; dim];
    for (rank, &old) in order.iter().enumerate() {
        perm[old as usize] = rank as u32;
    }
    Ok(perm)
}

/// A seeded pseudo-random permutation of `0..dim` (Fisher–Yates), the
/// adversarial baseline for the reordering ablation.
pub fn random_permutation(dim: u32, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut perm: Vec<u32> = (0..dim).collect();
    for i in (1..dim as usize).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Permute a Ttv operand to match a relabeled mode: `out[perm[i]] = v[i]`.
pub fn permute_vector<S: Scalar>(v: &DenseVector<S>, perm: &[u32]) -> Result<DenseVector<S>> {
    check_permutation(perm, v.len() as u32)?;
    let mut out = DenseVector::zeros(v.len());
    for (i, &p) in perm.iter().enumerate() {
        out[p as usize] = v[i];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::kernels::ttv::ttv;
    use crate::shape::Shape;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 5]),
            vec![
                (vec![3, 0], 1.0),
                (vec![3, 1], 2.0),
                (vec![3, 2], 3.0),
                (vec![1, 0], 4.0),
                (vec![0, 4], 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn frequency_permutation_ranks_hot_indices_first() {
        let x = sample();
        // Mode 0 counts: index 3 -> 3, index 1 -> 1, index 0 -> 1, index 2 -> 0.
        let perm = frequency_permutation(&x, 0).unwrap();
        assert_eq!(perm[3], 0); // hottest becomes 0
        assert_eq!(perm[0], 1); // tie between 0 and 1 broken by index
        assert_eq!(perm[1], 2);
        assert_eq!(perm[2], 3);
    }

    #[test]
    fn relabel_preserves_values_under_matching_operand_permutation() {
        let x = sample();
        let v = DenseVector::from_fn(5, |i| (i + 1) as f32);
        let baseline = ttv(&x, &v, 1).unwrap();

        let perm = frequency_permutation(&x, 1).unwrap();
        let mut xr = x.clone();
        apply_mode_permutation(&mut xr, 1, &perm).unwrap();
        let vr = permute_vector(&v, &perm).unwrap();
        let reordered = ttv(&xr, &vr, 1).unwrap();
        // Mode-0 indices are untouched, so outputs agree exactly.
        assert_eq!(baseline.to_map(), reordered.to_map());
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        for seed in [1u64, 7, 1234] {
            let p = random_permutation(100, seed);
            assert!(check_permutation(&p, 100).is_ok(), "seed {seed}");
        }
        assert_ne!(random_permutation(100, 1), random_permutation(100, 2));
    }

    #[test]
    fn invalid_permutations_are_rejected() {
        let mut x = sample();
        assert!(apply_mode_permutation(&mut x, 0, &[0, 1, 2]).is_err()); // short
        assert!(apply_mode_permutation(&mut x, 0, &[0, 0, 1, 2]).is_err()); // dup
        assert!(apply_mode_permutation(&mut x, 0, &[0, 1, 2, 9]).is_err()); // range
        assert!(apply_mode_permutation(&mut x, 5, &[0, 1, 2, 3]).is_err()); // mode
    }
}
