//! Per-tensor structural statistics: the quantities the Roofline bounds and
//! the paper's tables need (`M`, per-mode `M_F`, HiCOO `n_b`, storage).

use tenbench_core::coo::CooTensor;
use tenbench_core::error::Result;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::scalar::Scalar;

/// Structural statistics of one sparse tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    /// Tensor order.
    pub order: usize,
    /// Dimension sizes.
    pub dims: Vec<u32>,
    /// Nonzero count (`M`).
    pub nnz: usize,
    /// `nnz / prod(dims)`.
    pub density: f64,
    /// Mode-`n` fiber count (`M_F`) for every product mode `n`.
    pub fibers_per_mode: Vec<usize>,
    /// Longest mode-`n` fiber per mode (the Ttv/Ttm load-imbalance signal).
    pub max_fiber_len_per_mode: Vec<usize>,
    /// HiCOO block count (`n_b`) at the block size used.
    pub hicoo_blocks: usize,
    /// HiCOO block edge length `B`.
    pub block_size: u32,
    /// Mean nonzeros per HiCOO block (`alpha_b`).
    pub mean_nnz_per_block: f64,
    /// Largest block's nonzero count (the GPU HiCOO-Mttkrp imbalance signal).
    pub max_nnz_per_block: usize,
    /// COO storage bytes.
    pub coo_bytes: u64,
    /// HiCOO storage bytes.
    pub hicoo_bytes: u64,
}

impl TensorStats {
    /// Compute all statistics for `x` with HiCOO blocks of edge
    /// `2^block_bits`; an out-of-range `block_bits` is the conversion's
    /// [`tenbench_core::TensorError::InvalidBlockBits`].
    pub fn compute<S: Scalar>(x: &CooTensor<S>, block_bits: u8) -> Result<Self> {
        let mut work = x.clone();
        let order = x.order();
        let mut fibers_per_mode = Vec::with_capacity(order);
        let mut max_fiber_len_per_mode = Vec::with_capacity(order);
        for mode in 0..order {
            let fp = work.fibers(mode).expect("mode in range");
            fibers_per_mode.push(fp.num_fibers());
            max_fiber_len_per_mode.push(fp.max_fiber_len());
        }
        let h = HicooTensor::from_coo_inplace(&mut work, block_bits)?;
        Ok(TensorStats {
            order,
            dims: x.shape().dims().to_vec(),
            nnz: x.nnz(),
            density: x.density(),
            fibers_per_mode,
            max_fiber_len_per_mode,
            hicoo_blocks: h.num_blocks(),
            block_size: h.block_size(),
            mean_nnz_per_block: h.mean_nnz_per_block(),
            max_nnz_per_block: h.max_nnz_per_block(),
            coo_bytes: x.storage_bytes(),
            hicoo_bytes: h.storage_bytes(),
        })
    }

    /// Mean fiber count across modes (the paper averages Ttv/Ttm over all
    /// modes).
    pub fn mean_fibers(&self) -> f64 {
        self.fibers_per_mode.iter().sum::<usize>() as f64 / self.order as f64
    }

    /// HiCOO-to-COO storage ratio (below 1 means HiCOO compresses).
    pub fn compression_ratio(&self) -> f64 {
        self.hicoo_bytes as f64 / self.coo_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use tenbench_core::shape::Shape;

    use super::*;

    fn sample() -> CooTensor<f32> {
        CooTensor::from_entries(
            Shape::new(vec![4, 4, 4]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 1], 2.0),
                (vec![1, 1, 1], 3.0),
                (vec![3, 3, 3], 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_match_hand_computation() {
        let s = TensorStats::compute(&sample(), 1).unwrap();
        assert_eq!(s.nnz, 4);
        assert_eq!(s.order, 3);
        // Mode-2 fibers: (0,0,*) x2, (1,1,*), (3,3,*) -> 3 fibers.
        assert_eq!(s.fibers_per_mode[2], 3);
        assert_eq!(s.max_fiber_len_per_mode[2], 2);
        // Blocks at B=2: (0,0,0) holds 3 nnz, (1,1,1) holds 1.
        assert_eq!(s.hicoo_blocks, 2);
        assert_eq!(s.max_nnz_per_block, 3);
        assert_eq!(s.block_size, 2);
        assert!((s.mean_nnz_per_block - 2.0).abs() < 1e-12);
    }

    #[test]
    fn storage_numbers_are_consistent() {
        let x = sample();
        let s = TensorStats::compute(&x, 1).unwrap();
        assert_eq!(s.coo_bytes, x.storage_bytes());
        assert!(s.compression_ratio() > 0.0);
    }

    #[test]
    fn mean_fibers_averages_modes() {
        let s = TensorStats::compute(&sample(), 1).unwrap();
        let expect = s.fibers_per_mode.iter().sum::<usize>() as f64 / 3.0;
        assert_eq!(s.mean_fibers(), expect);
    }
}
