//! CSF — compressed sparse fiber (Smith et al., SPLATT), listed by the paper
//! (§7) as the next format to add to the suite; provided here as an
//! extension.
//!
//! CSF stores a sparse tensor as a forest: level 0 holds the distinct
//! indices of the root mode, each deeper level the distinct index
//! continuations, and the leaves hold values. `fptr[l]` delimits the
//! children of each level-`l` node, exactly like nested CSR.

use std::collections::BTreeMap;

use crate::coo::CooTensor;
use crate::dense::DenseMatrix;
use crate::error::{Result, TensorError};
use crate::scalar::Scalar;
use crate::shape::Shape;

/// A sparse tensor in compressed sparse fiber format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor<S: Scalar> {
    shape: Shape,
    /// Mode permutation: `mode_order[0]` is the root level.
    mode_order: Vec<usize>,
    /// `order - 1` child-pointer arrays; `fptr[l][i]..fptr[l][i+1]` are the
    /// level-`l+1` children of level-`l` node `i`.
    fptr: Vec<Vec<usize>>,
    /// Node indices per level; `fids[order-1].len() == nnz`.
    fids: Vec<Vec<u32>>,
    vals: Vec<S>,
}

impl<S: Scalar> CsfTensor<S> {
    /// Build from COO with the given root-to-leaf mode order (defaults to
    /// ascending if `None`). The input is copied and sorted.
    pub fn from_coo(coo: &CooTensor<S>, mode_order: Option<Vec<usize>>) -> Result<Self> {
        let order = coo.order();
        let mode_order = mode_order.unwrap_or_else(|| (0..order).collect());
        {
            let mut seen = vec![false; order];
            if mode_order.len() != order
                || mode_order.iter().any(|&m| {
                    if m >= order || seen[m] {
                        true
                    } else {
                        seen[m] = true;
                        false
                    }
                })
            {
                return Err(TensorError::InvalidStructure(format!(
                    "mode order {mode_order:?} is not a permutation of 0..{order}"
                )));
            }
        }
        let mut c = coo.clone();
        c.sort_lexicographic(&mode_order);
        let m = c.nnz();

        // starts[l]: positions where a new node at level l begins (distinct
        // prefix of length l+1 in the sorted order).
        let mut starts: Vec<Vec<usize>> = Vec::with_capacity(order);
        for l in 0..order {
            let prefix = &mode_order[..=l];
            let mut s = Vec::new();
            for i in 0..m {
                let new_node = i == 0
                    || prefix
                        .iter()
                        .any(|&md| c.mode_inds(md)[i] != c.mode_inds(md)[i - 1]);
                if new_node {
                    s.push(i);
                }
            }
            starts.push(s);
        }

        let fids: Vec<Vec<u32>> = (0..order)
            .map(|l| {
                let md = mode_order[l];
                starts[l].iter().map(|&p| c.mode_inds(md)[p]).collect()
            })
            .collect();

        // fptr[l][i] = rank of starts[l][i] within starts[l+1] (which is a
        // superset), with a final sentinel.
        let mut fptr: Vec<Vec<usize>> = Vec::with_capacity(order.saturating_sub(1));
        for l in 0..order.saturating_sub(1) {
            let upper = &starts[l];
            let lowerv = &starts[l + 1];
            let mut ptr = Vec::with_capacity(upper.len() + 1);
            let mut j = 0usize;
            for &pos in upper {
                while lowerv[j] != pos {
                    j += 1;
                }
                ptr.push(j);
            }
            ptr.push(lowerv.len());
            fptr.push(ptr);
        }

        Ok(CsfTensor {
            shape: c.shape().clone(),
            mode_order,
            fptr,
            fids,
            vals: c.vals().to_vec(),
        })
    }

    /// Number of modes.
    #[inline]
    pub(crate) fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of nodes at tree level `l` (level `order-1` is the leaves).
    pub(crate) fn num_nodes(&self, l: usize) -> usize {
        self.fids[l].len()
    }

    /// Storage bytes: node indices (`u32`) at every level, child pointers
    /// (counted as `u64` file-format width), and values.
    pub fn storage_bytes(&self) -> u64 {
        let ids: u64 = self.fids.iter().map(|v| 4 * v.len() as u64).sum();
        let ptrs: u64 = self.fptr.iter().map(|v| 8 * v.len() as u64).sum();
        ids + ptrs + self.vals.len() as u64 * S::BYTES
    }

    /// Expand to COO (in the CSF's sorted order).
    pub(crate) fn to_coo(&self) -> CooTensor<S> {
        let order = self.order();
        let m = self.nnz();
        let mut inds: Vec<Vec<u32>> = vec![vec![0u32; m]; order];
        // Walk the tree once, filling each leaf's full coordinate.
        fn fill<S: Scalar>(
            t: &CsfTensor<S>,
            l: usize,
            node: usize,
            prefix: &mut Vec<u32>,
            inds: &mut [Vec<u32>],
        ) {
            prefix.push(t.fids[l][node]);
            if l == t.order() - 1 {
                for (d, &md) in t.mode_order.iter().enumerate() {
                    inds[md][node] = prefix[d];
                }
            } else {
                for child in t.fptr[l][node]..t.fptr[l][node + 1] {
                    fill(t, l + 1, child, prefix, inds);
                }
            }
            prefix.pop();
        }
        let mut prefix = Vec::with_capacity(order);
        for root in 0..self.num_nodes(0) {
            fill(self, 0, root, &mut prefix, &mut inds);
        }
        CooTensor::from_parts_unchecked(
            self.shape.clone(),
            inds,
            self.vals.clone(),
            crate::coo::SortState::Lexicographic(self.mode_order.clone()),
        )
    }

    /// Coordinate → value map (test helper).
    pub fn to_map(&self) -> BTreeMap<Vec<u32>, f64> {
        self.to_coo().to_map()
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<()> {
        let order = self.order();
        if self.fids.len() != order || self.fptr.len() + 1 != order {
            return Err(TensorError::InvalidStructure(
                "level array counts do not match order".into(),
            ));
        }
        for l in 0..order - 1 {
            if self.fptr[l].len() != self.fids[l].len() + 1 {
                return Err(TensorError::InvalidStructure(format!(
                    "fptr[{l}] length mismatch"
                )));
            }
            if *self.fptr[l].last().unwrap() != self.fids[l + 1].len() {
                return Err(TensorError::InvalidStructure(format!(
                    "fptr[{l}] does not cover level {}",
                    l + 1
                )));
            }
            if self.fptr[l].windows(2).any(|w| w[0] >= w[1]) {
                return Err(TensorError::InvalidStructure(format!(
                    "fptr[{l}] not strictly increasing (empty node)"
                )));
            }
        }
        if self.fids[order - 1].len() != self.vals.len() {
            return Err(TensorError::InvalidStructure(
                "leaf count != value count".into(),
            ));
        }
        Ok(())
    }
}

/// Root-mode Mttkrp over CSF (SPLATT-style): each subtree reduces bottom-up,
/// factor rows of deeper levels are shared across siblings, and roots are
/// parallelized with no races (root indices are distinct).
///
/// `mode` must equal the CSF's root mode; re-orient the tensor with
/// [`CsfTensor::from_coo`] for other modes.
pub fn mttkrp_csf<S: Scalar>(
    t: &CsfTensor<S>,
    factors: &[&DenseMatrix<S>],
    mode: usize,
) -> Result<DenseMatrix<S>> {
    if mode != t.mode_order[0] {
        return Err(TensorError::InvalidStructure(format!(
            "CSF Mttkrp requires mode {mode} at the root; tensor is rooted at {}",
            t.mode_order[0]
        )));
    }
    if factors.len() != t.order() {
        return Err(TensorError::FactorMismatch(format!(
            "{} factors for order-{}",
            factors.len(),
            t.order()
        )));
    }
    let r = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != r || f.rows() != t.shape.dim(m) as usize {
            return Err(TensorError::FactorMismatch(format!(
                "factor {m} has shape {}x{}",
                f.rows(),
                f.cols()
            )));
        }
    }
    let order = t.order();
    let mut out = DenseMatrix::zeros(t.shape.dim(mode) as usize, r);

    // Bottom-up reduction of one node: returns the node's R-vector.
    fn reduce<S: Scalar>(
        t: &CsfTensor<S>,
        factors: &[&DenseMatrix<S>],
        l: usize,
        node: usize,
        acc: &mut Vec<Vec<S>>,
    ) {
        let order = t.order();
        if l == order - 1 {
            let row = factors[t.mode_order[l]].row(t.fids[l][node] as usize);
            let val = t.vals[node];
            let dst = &mut acc[l];
            for (d, &c) in dst.iter_mut().zip(row) {
                *d = val * c;
            }
            return;
        }
        acc[l].fill(S::ZERO);
        for child in t.fptr[l][node]..t.fptr[l][node + 1] {
            reduce(t, factors, l + 1, child, acc);
            // Borrow-split: children write acc[l+1], we fold into acc[l].
            let (upper, lower) = acc.split_at_mut(l + 1);
            for (d, &c) in upper[l].iter_mut().zip(lower[0].iter()) {
                *d += c;
            }
        }
        if l > 0 {
            let row = factors[t.mode_order[l]].row(t.fids[l][node] as usize);
            for (d, &c) in acc[l].iter_mut().zip(row) {
                *d *= c;
            }
        }
    }

    let rows: Vec<(u32, Vec<S>)> = crate::par::map_collect(t.num_nodes(0), 1, |root| {
        let mut acc: Vec<Vec<S>> = (0..order).map(|_| vec![S::ZERO; r]).collect();
        reduce(t, factors, 0, root, &mut acc);
        (t.fids[0][root], std::mem::take(&mut acc[0]))
    });
    for (i, v) in rows {
        let dst = out.row_mut(i as usize);
        for (d, s) in dst.iter_mut().zip(v) {
            *d += s;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::kernels::mttkrp::mttkrp_seq;
    use crate::scalar::approx_eq;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![3, 4, 5]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![0, 3, 2], -1.5),
                (vec![1, 2, 1], 3.0),
                (vec![2, 3, 0], 4.0),
                (vec![2, 3, 4], 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_default_order() {
        let x = sample();
        let t = CsfTensor::from_coo(&x, None).unwrap();
        assert!(t.validate().is_ok());
        assert_eq!(t.nnz(), 6);
        assert_eq!(t.to_map(), x.to_map());
    }

    #[test]
    fn round_trip_permuted_orders() {
        let x = sample();
        for order in [vec![2, 1, 0], vec![1, 0, 2], vec![2, 0, 1]] {
            let t = CsfTensor::from_coo(&x, Some(order.clone())).unwrap();
            assert!(t.validate().is_ok(), "{order:?}");
            assert_eq!(t.to_map(), x.to_map(), "{order:?}");
        }
    }

    #[test]
    fn rejects_bad_mode_order() {
        let x = sample();
        assert!(CsfTensor::from_coo(&x, Some(vec![0, 0, 1])).is_err());
        assert!(CsfTensor::from_coo(&x, Some(vec![0, 1])).is_err());
        assert!(CsfTensor::from_coo(&x, Some(vec![0, 1, 3])).is_err());
    }

    #[test]
    fn node_counts_shrink_towards_root() {
        let x = sample();
        let t = CsfTensor::from_coo(&x, None).unwrap();
        assert_eq!(t.num_nodes(0), 3); // root indices {0, 1, 2}
        assert_eq!(t.num_nodes(1), 4); // prefixes (0,0),(0,3),(1,2),(2,3)
        assert_eq!(t.num_nodes(2), 6);
    }

    #[test]
    fn csf_compresses_shared_prefixes() {
        let x = sample();
        let t = CsfTensor::from_coo(&x, None).unwrap();
        // COO stores 3 u32 per nnz; CSF shares prefix indices.
        assert!(t.fids[0].len() + t.fids[1].len() < 2 * t.nnz());
    }

    #[test]
    fn mttkrp_matches_coo_reference() {
        let x = sample();
        let factors: Vec<DenseMatrix<f32>> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, 4, |i, j| {
                    ((i + 2 * j + m) % 5) as f32 - 1.0
                })
            })
            .collect();
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        for mode in 0..3 {
            let mut order: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            order.insert(0, mode);
            let t = CsfTensor::from_coo(&x, Some(order)).unwrap();
            let got = mttkrp_csf(&t, &frefs, mode).unwrap();
            let expect = mttkrp_seq(&x, &frefs, mode).unwrap();
            for (a, b) in got.data().iter().zip(expect.data()) {
                assert!(approx_eq(*a, *b, 1e-5), "mode {mode}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mttkrp_rejects_non_root_mode() {
        let x = sample();
        let t = CsfTensor::from_coo(&x, None).unwrap();
        let factors: Vec<DenseMatrix<f32>> = (0..3)
            .map(|m| DenseMatrix::constant(x.shape().dim(m) as usize, 2, 1.0))
            .collect();
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        assert!(mttkrp_csf(&t, &frefs, 1).is_err());
    }
}
