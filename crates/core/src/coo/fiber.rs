//! Mode-`n` fiber partitioning — the pre-processing step of Algorithm 1.
//!
//! A mode-`n` fiber is the set of nonzeros that agree on every index except
//! mode `n`. After a mode-last sort these are consecutive runs; `fptr`
//! records the start of each run, exactly as in the paper's COO-Ttv-OMP.

use crate::error::Result;
use crate::scalar::Scalar;

use super::CooTensor;

/// The fiber decomposition of a mode-last-sorted COO tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiberPartition {
    /// The product mode `n`.
    pub mode: usize,
    /// Start offset of each fiber, plus a final sentinel equal to `nnz`.
    /// Length is `num_fibers() + 1` (`M_F + 1` in the paper).
    pub fptr: Vec<usize>,
}

impl FiberPartition {
    /// Number of fibers (`M_F`).
    #[inline]
    pub fn num_fibers(&self) -> usize {
        self.fptr.len().saturating_sub(1)
    }

    /// Half-open nonzero range of fiber `f`.
    #[inline]
    pub fn fiber_range(&self, f: usize) -> std::ops::Range<usize> {
        self.fptr[f]..self.fptr[f + 1]
    }

    /// Length of the longest fiber — the load-imbalance indicator the paper
    /// discusses for COO-Ttv ("work imbalance may exist because of different
    /// fiber lengths").
    pub fn max_fiber_len(&self) -> usize {
        (0..self.num_fibers())
            .map(|f| self.fptr[f + 1] - self.fptr[f])
            .max()
            .unwrap_or(0)
    }

    /// Mean fiber length.
    pub fn mean_fiber_len(&self) -> f64 {
        if self.num_fibers() == 0 {
            0.0
        } else {
            (self.fptr[self.num_fibers()] - self.fptr[0]) as f64 / self.num_fibers() as f64
        }
    }
}

pub(super) fn fibers<S: Scalar>(t: &mut CooTensor<S>, mode: usize) -> Result<FiberPartition> {
    t.sort_mode_last(mode);
    fibers_from_sorted(t, mode)
}

pub(super) fn fibers_from_sorted<S: Scalar>(
    t: &CooTensor<S>,
    mode: usize,
) -> Result<FiberPartition> {
    let m = t.nnz();
    if m == 0 {
        return Ok(FiberPartition {
            mode,
            fptr: vec![0],
        });
    }
    let inds = t.inds();
    let order = t.order();
    // A new fiber starts wherever any non-product-mode index changes;
    // chunk `r` of `0..m - 1` looks at positions `r.start + 1..=r.end`.
    let mut starts: Vec<usize> = crate::par::map_chunks(m - 1, 1, |r| {
        (r.start + 1..=r.end)
            .filter(|&i| {
                (0..order)
                    .filter(|&md| md != mode)
                    .any(|md| inds[md][i] != inds[md][i - 1])
            })
            .collect::<Vec<_>>()
    })
    .concat();
    let mut fptr = Vec::with_capacity(starts.len() + 2);
    fptr.push(0);
    fptr.append(&mut starts);
    fptr.push(m);
    Ok(FiberPartition { mode, fptr })
}

#[cfg(test)]
mod tests {
    use crate::coo::CooTensor;
    use crate::shape::Shape;

    #[test]
    fn fibers_group_runs_in_mode_last_order() {
        // Mode-2 fibers of a 3x3x3 tensor: (0,0,*) has 2 nnz, (1,2,*) has 1,
        // (2,2,*) has 2.
        let mut t = CooTensor::from_entries(
            Shape::new(vec![3, 3, 3]),
            vec![
                (vec![0, 0, 0], 1.0f32),
                (vec![0, 0, 2], 2.0),
                (vec![1, 2, 1], 3.0),
                (vec![2, 2, 0], 4.0),
                (vec![2, 2, 2], 5.0),
            ],
        )
        .unwrap();
        let fp = t.fibers(2).unwrap();
        assert_eq!(fp.num_fibers(), 3);
        assert_eq!(fp.fptr, vec![0, 2, 3, 5]);
        assert_eq!(fp.fiber_range(0), 0..2);
        assert_eq!(fp.max_fiber_len(), 2);
        assert!((fp.mean_fiber_len() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fibers_of_mode_zero_resort_the_tensor() {
        let mut t = CooTensor::from_entries(
            Shape::new(vec![3, 3]),
            vec![(vec![0, 1], 1.0f32), (vec![1, 1], 2.0), (vec![2, 0], 3.0)],
        )
        .unwrap();
        // Mode-0 fibers group by column j: j=0 has 1 nnz, j=1 has 2.
        let fp = t.fibers(0).unwrap();
        assert_eq!(fp.num_fibers(), 2);
        assert_eq!(fp.fptr, vec![0, 1, 3]);
        assert!(t.sort_state().is_mode_last(2, 0));
    }

    #[test]
    fn empty_tensor_has_no_fibers() {
        let mut t = CooTensor::<f32>::empty(Shape::new(vec![2, 2]));
        let fp = t.fibers(1).unwrap();
        assert_eq!(fp.num_fibers(), 0);
        assert_eq!(fp.max_fiber_len(), 0);
        assert_eq!(fp.mean_fiber_len(), 0.0);
    }

    #[test]
    fn single_fiber_when_all_share_other_indices() {
        let mut t = CooTensor::from_entries(
            Shape::new(vec![2, 4]),
            vec![(vec![1, 0], 1.0f32), (vec![1, 2], 2.0), (vec![1, 3], 3.0)],
        )
        .unwrap();
        let fp = t.fibers(1).unwrap();
        assert_eq!(fp.num_fibers(), 1);
        assert_eq!(fp.fiber_range(0), 0..3);
    }
}
