//! Biased power-law tensor generation (paper §4.2.2).
//!
//! The FireHose streaming benchmark's "biased power law" front-end emits an
//! edge stream whose key frequencies follow a power law; the paper combines
//! such streams into slices of higher-order tensors ("this process, when
//! repeated on 3rd order tensors can generate a sparse tensor with N
//! modes"). Here each *sparse* mode draws its index from a bounded Zipf
//! distribution while the *dense* modes together count through their (much
//! smaller) extents in mixed radix, which makes those modes completely
//! dense — the structure the paper ascribes to its irregular tensors.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;

use crate::zipf::ZipfSampler;

/// Configuration for the biased power-law tensor generator.
#[derive(Debug, Clone)]
pub struct PowerLawGenerator {
    /// Target tensor shape.
    pub shape: Shape,
    /// Modes whose indices follow the power law (the hypersparse,
    /// equidimensional modes).
    pub sparse_modes: Vec<usize>,
    /// Power-law exponent for the sparse modes (FireHose biases around
    /// 1.3–2.0; larger is more skewed).
    pub alpha: f64,
    /// Number of distinct nonzeros to generate.
    pub nnz: usize,
}

impl PowerLawGenerator {
    /// Convenience constructor: modes with extent greater than `threshold`
    /// are treated as power-law sparse, the rest as small dense modes.
    pub fn with_threshold(shape: Shape, alpha: f64, nnz: usize, threshold: u32) -> Self {
        let sparse_modes = (0..shape.order())
            .filter(|&m| shape.dim(m) > threshold)
            .collect();
        PowerLawGenerator {
            shape,
            sparse_modes,
            alpha,
            nnz,
        }
    }

    /// Generate the tensor. Dense modes are guaranteed covered (the draws
    /// count deterministically through every combination of their
    /// indices); sparse modes are Zipf-distributed. Duplicate coordinates
    /// are rejected; generation gives up after a generous attempt budget on
    /// over-dense requests.
    pub fn generate(&self, seed: u64) -> CooTensor<f32> {
        let order = self.shape.order();
        let mut rng = StdRng::seed_from_u64(seed);
        let samplers: Vec<Option<ZipfSampler>> = (0..order)
            .map(|m| {
                if self.sparse_modes.contains(&m) {
                    Some(ZipfSampler::new(self.shape.dim(m) as u64, self.alpha))
                } else {
                    None
                }
            })
            .collect();

        let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(self.nnz * 2);
        let mut entries: Vec<(Vec<u32>, f32)> = Vec::with_capacity(self.nnz);
        let max_attempts = self.nnz.saturating_mul(100).max(10_000);
        let mut attempts = 0usize;
        let mut serial = 0u64;

        while entries.len() < self.nnz && attempts < max_attempts {
            attempts += 1;
            let mut coord = vec![0u32; order];
            // Dense modes are the digits of `serial` in mixed radix: every
            // combination of their indices comes up once per period, so
            // each is fully covered and its marginal stays uniform.
            let mut place = 1u64;
            for m in 0..order {
                coord[m] = match &samplers[m] {
                    Some(z) => z.sample_index(&mut rng) as u32,
                    None => {
                        let dim = self.shape.dim(m) as u64;
                        let digit = (serial / place) % dim;
                        place = place.saturating_mul(dim);
                        digit as u32
                    }
                };
            }
            serial += 1;
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

    fn irr3(nnz: usize) -> PowerLawGenerator {
        // The paper's irregular-3D shape: two equidimensional sparse modes,
        // one small dense mode.
        PowerLawGenerator::with_threshold(Shape::new(vec![32_768, 32_768, 76]), 1.4, nnz, 1000)
    }

    #[test]
    fn generates_requested_nnz_and_validates() {
        let t = irr3(10_000).generate(1);
        assert_eq!(t.nnz(), 10_000);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn sparse_and_dense_modes_detected_by_threshold() {
        let g = irr3(10);
        assert_eq!(g.sparse_modes, vec![0, 1]);
    }

    #[test]
    fn dense_mode_is_completely_covered() {
        let t = irr3(5_000).generate(2);
        let mut present = [false; 76];
        for &k in t.mode_inds(2) {
            present[k as usize] = true;
        }
        assert!(present.iter().all(|&p| p), "dense mode has holes");
    }

    #[test]
    fn sparse_modes_are_head_heavy() {
        let t = irr3(20_000).generate(3);
        let dim = 32_768f64;
        for m in 0..2 {
            let mean: f64 = t.mode_inds(m).iter().map(|&i| i as f64).sum::<f64>() / t.nnz() as f64;
            assert!(mean < dim / 4.0, "mode {m} mean {mean} not power-law");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = irr3(2_000);
        assert_eq!(g.generate(9).to_map(), g.generate(9).to_map());
        assert_ne!(g.generate(9).to_map(), g.generate(10).to_map());
    }

    #[test]
    fn fourth_order_two_dense_modes() {
        let g = PowerLawGenerator::with_threshold(
            Shape::new(vec![100_000, 100_000, 122, 436]),
            1.4,
            8_000,
            1000,
        );
        assert_eq!(g.sparse_modes, vec![0, 1]);
        let t = g.generate(4);
        assert_eq!(t.order(), 4);
        assert_eq!(t.nnz(), 8_000);
    }

    #[test]
    fn all_dense_shape_yields_the_requested_nnz() {
        // No mode above the threshold: the dense modes must enumerate the
        // whole index space, not walk one diagonal of period lcm(dims).
        let g = PowerLawGenerator::with_threshold(Shape::new(vec![64, 64, 16]), 1.4, 2_000, 1000);
        assert!(g.sparse_modes.is_empty());
        assert_eq!(g.generate(6).nnz(), 2_000);
    }

    #[test]
    fn one_dense_mode_output_is_unchanged() {
        // With a single dense mode the mixed-radix walk is `serial % dim`,
        // the rule before it: the s4 and s6 shapes keep the fingerprints
        // (every entry sampled at 1000 nnz) the generator had then.
        for (dims, pinned) in [
            ([32_768, 32_768, 76], 0x31f0_9a61_837c_a2a9u64),
            ([4_200_000, 4_200_000, 168], 0x58a1_5f3e_0252_9681),
        ] {
            let g = PowerLawGenerator::with_threshold(Shape::new(dims.to_vec()), 1.4, 1_000, 1000);
            assert_eq!(g.generate(42).fingerprint(), pinned, "{dims:?}");
        }
    }

    #[test]
    fn over_dense_request_saturates() {
        let g = PowerLawGenerator::with_threshold(Shape::new(vec![4, 4, 4]), 1.4, 1000, 1);
        let t = g.generate(5);
        assert!(t.nnz() <= 64);
    }
}
