//! Stochastic Kronecker tensor generation (paper §4.2.1).
//!
//! The Stochastic Kronecker graph model takes an initiator matrix of cell
//! probabilities and raises it to a Kronecker power; the paper extends the
//! initiator to an `N`-mode tensor. Materializing `τ^{⊗n}` is infeasible,
//! so, exactly like Graph500's R-MAT sampler, each nonzero is generated by
//! descending the recursion: at every level one initiator cell is drawn and
//! contributes one digit to each mode's coordinate.
//!
//! The paper's strip-off rule — "performing an additional iteration of
//! Kronecker multiplication and strip off the tensor coordinates that fall
//! outside the given size along each mode" — is implemented by running
//! enough levels to cover every dimension and rejecting out-of-range draws.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;

/// Configuration for the stochastic Kronecker tensor generator.
#[derive(Debug, Clone)]
pub struct KroneckerGenerator {
    /// Target tensor shape (need not be a power of the initiator dimension;
    /// out-of-range coordinates are stripped off).
    pub(crate) shape: Shape,
    /// Edge length of the cubical initiator tensor (2 in Graph500).
    pub(crate) initiator_dim: u32,
    /// Initiator cell weights in row-major order over
    /// `initiator_dim^order` cells; normalized internally.
    pub(crate) weights: Vec<f64>,
    /// Number of distinct nonzeros to generate.
    pub(crate) nnz: usize,
    /// Multiplicative per-level weight noise in `[0, 1)` (the "smoothing"
    /// used by SKG implementations to avoid staircase artifacts).
    pub(crate) noise: f64,
}

impl KroneckerGenerator {
    /// An R-MAT-like initiator for an order-`order` tensor: a 2-per-mode
    /// initiator whose cell weight decays geometrically with the number of
    /// high digits, generalizing the classic skewed `(a, b, c, d)` quadrant
    /// weights and yielding power-law mode distributions.
    ///
    /// # Examples
    /// ```
    /// use tenbench_core::shape::Shape;
    /// use tenbench_gen::KroneckerGenerator;
    ///
    /// let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 4096), 10_000);
    /// let t = g.generate(42);
    /// assert_eq!(t.nnz(), 10_000);
    /// assert_eq!(t.to_map(), g.generate(42).to_map()); // seeded determinism
    /// ```
    pub fn rmat_like(shape: Shape, nnz: usize) -> Self {
        let order = shape.order();
        let cells = 1usize << order;
        let decay = 0.35f64;
        let weights = (0..cells)
            .map(|c| decay.powi(c.count_ones() as i32))
            .collect();
        KroneckerGenerator {
            shape,
            initiator_dim: 2,
            weights,
            nnz,
            noise: 0.1,
        }
    }

    /// Number of recursion levels needed to cover the largest dimension.
    pub(crate) fn levels(&self) -> u32 {
        let maxdim = self.shape.dims().iter().copied().max().unwrap_or(1);
        let mut levels = 0u32;
        let mut cover = 1u64;
        while cover < maxdim as u64 {
            cover *= self.initiator_dim as u64;
            levels += 1;
        }
        levels.max(1)
    }

    /// Generate the tensor. Coordinates are drawn until `nnz` *distinct*
    /// positions are found (duplicates and stripped-off draws are rejected);
    /// generation gives up after a generous attempt budget, so extremely
    /// over-dense requests return fewer nonzeros rather than looping
    /// forever. Values are uniform in `(0, 1]`.
    pub fn generate(&self, seed: u64) -> CooTensor<f32> {
        let order = self.shape.order();
        let id = self.initiator_dim as u64;
        let cells = self.weights.len();
        assert_eq!(
            cells as u64,
            id.pow(order as u32),
            "initiator must have initiator_dim^order cells"
        );
        let levels = self.levels();
        let mut rng = StdRng::seed_from_u64(seed);

        let base_weights: Vec<f64> = {
            let sum: f64 = self.weights.iter().sum();
            self.weights.iter().map(|w| w / sum).collect()
        };

        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.nnz * 2);
        let mut entries: Vec<(Vec<u32>, f32)> = Vec::with_capacity(self.nnz);
        let max_attempts = self.nnz.saturating_mul(100).max(10_000);
        let mut attempts = 0usize;
        let mut level_weights = vec![0.0f64; cells];

        while entries.len() < self.nnz && attempts < max_attempts {
            attempts += 1;
            let mut coord = vec![0u64; order];
            let mut rejected = false;
            for _ in 0..levels {
                // Perturb weights per level, then draw a cell by CDF walk
                // (the initiator is tiny, so a linear walk is fastest).
                let mut sum = 0.0;
                for (lw, &w) in level_weights.iter_mut().zip(&base_weights) {
                    let f = 1.0 + self.noise * (2.0 * rng.random::<f64>() - 1.0);
                    *lw = w * f;
                    sum += *lw;
                }
                let mut u = rng.random::<f64>() * sum;
                let mut cell = cells - 1;
                for (c, &lw) in level_weights.iter().enumerate() {
                    if u < lw {
                        cell = c;
                        break;
                    }
                    u -= lw;
                }
                // Decompose the cell into one digit per mode (mode 0 in the
                // highest position, matching Kronecker product order).
                let mut rest = cell as u64;
                for m in (0..order).rev() {
                    let digit = rest % id;
                    rest /= id;
                    coord[m] = coord[m] * id + digit;
                }
            }
            for (m, &c) in coord.iter().enumerate() {
                if c >= self.shape.dim(m) as u64 {
                    rejected = true; // strip-off
                    break;
                }
            }
            if rejected {
                continue;
            }
            let coord: Vec<u32> = coord.iter().map(|&c| c as u32).collect();
            if seen.insert(coord.clone()) {
                let v = rng.random::<f32>().max(f32::MIN_POSITIVE);
                entries.push((coord, v));
            }
        }

        CooTensor::from_entries(self.shape.clone(), entries)
            .expect("generated coordinates are in bounds by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_nnz() {
        let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 1024), 5000);
        let t = g.generate(42);
        assert_eq!(t.nnz(), 5000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 256), 1000);
        let a = g.generate(7);
        let b = g.generate(7);
        assert_eq!(a.to_map(), b.to_map());
        let c = g.generate(8);
        assert_ne!(a.to_map(), c.to_map());
    }

    #[test]
    fn strip_off_respects_non_power_of_two_dims() {
        let g = KroneckerGenerator::rmat_like(Shape::new(vec![100, 50, 30]), 2000);
        let t = g.generate(1);
        assert!(t.validate().is_ok());
        assert_eq!(t.nnz(), 2000);
        for m in 0..3 {
            assert!(t.mode_inds(m).iter().all(|&i| i < t.shape().dim(m)));
        }
    }

    #[test]
    fn mode_distribution_is_skewed() {
        // R-MAT weights concentrate mass at low coordinates: the mean index
        // must fall well below the uniform mean.
        let dim = 4096u32;
        let g = KroneckerGenerator::rmat_like(Shape::cubical(3, dim), 20_000);
        let t = g.generate(9);
        let mean: f64 = t.mode_inds(0).iter().map(|&i| i as f64).sum::<f64>() / t.nnz() as f64;
        // With the default decay the marginal P(high digit) is ~0.26, so the
        // expected mean is ~0.26 * dim; uniform sampling would give dim/2.
        assert!(
            mean < dim as f64 / 3.0,
            "mean index {mean} not skewed toward zero"
        );
    }

    #[test]
    fn fourth_order_generation() {
        let g = KroneckerGenerator::rmat_like(Shape::cubical(4, 128), 3000);
        let t = g.generate(3);
        assert_eq!(t.order(), 4);
        assert_eq!(t.nnz(), 3000);
    }

    #[test]
    fn over_dense_request_saturates_gracefully() {
        // Only 8 positions exist; asking for 100 returns at most 8.
        let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 2), 100);
        let t = g.generate(1);
        assert!(t.nnz() <= 8);
        assert!(t.nnz() > 0);
    }

    #[test]
    fn values_are_positive() {
        let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 64), 500);
        let t = g.generate(11);
        assert!(t.vals().iter().all(|&v| v > 0.0 && v <= 1.0));
    }
}
