//! Bounded Zipf sampling by rejection inversion (Hörmann & Derflinger), the
//! workhorse behind the biased power-law generator. Sampling is O(1) per
//! draw with no per-element tables, so hypersparse modes with millions of
//! indices cost nothing to set up.

use rand::{Rng, RngExt};

/// Samples `k ∈ [1, n]` with `P(k) ∝ k^{-alpha}`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl ZipfSampler {
    /// Create a sampler over `1..=n` with exponent `alpha > 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha <= 0` (configuration errors).
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1, "Zipf support must be nonempty");
        assert!(alpha > 0.0, "Zipf exponent must be positive");
        let h_integral_x1 = h_integral(1.5, alpha) - 1.0;
        let h_integral_n = h_integral(n as f64 + 0.5, alpha);
        let s = 2.0 - h_integral_inverse(h_integral(2.5, alpha) - h(2.0, alpha), alpha);
        ZipfSampler {
            n,
            alpha,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draw one 1-based sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u: f64 = rng.random::<f64>();
            let u = self.h_integral_n + u * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.alpha);
            let mut k = (x + 0.5) as i64;
            if k < 1 {
                k = 1;
            } else if k as u64 > self.n {
                k = self.n as i64;
            }
            let kf = k as f64;
            if kf - x <= self.s || u >= h_integral(kf + 0.5, self.alpha) - h(kf, self.alpha) {
                return k as u64;
            }
        }
    }

    /// Draw one 0-based sample in `[0, n)`.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let k = self.sample(rng);
        // `sample` clamps into [1, n], so `k - 1` cannot underflow — but
        // that invariant lives in numeric code three helpers away. Assert
        // it in debug builds and saturate in release so a future clamp
        // regression yields index 0, not a silent huge index.
        debug_assert!(
            (1..=self.n).contains(&k),
            "Zipf sample {k} outside [1, {}]",
            self.n
        );
        k.saturating_sub(1).min(self.n - 1)
    }
}

/// `∫ h` — with `h(x) = x^{-alpha}` this is `(x^{1-alpha} - 1) / (1 - alpha)`
/// (`ln x` when `alpha == 1`), written in a numerically stable `expm1` form.
fn h_integral(x: f64, alpha: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - alpha) * log_x) * log_x
}

fn h(x: f64, alpha: f64) -> f64 {
    (-alpha * x.ln()).exp()
}

fn h_integral_inverse(x: f64, alpha: f64) -> f64 {
    let mut t = x * (1.0 - alpha);
    if t < -1.0 {
        // Numerical guard: t must stay above -1 for the log below.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log1p(x)/x`, continuous at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `expm1(x)/x`, continuous at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(1000, 1.3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn distribution_is_head_heavy() {
        let z = ZipfSampler::new(10_000, 1.5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0usize;
        let total = 50_000;
        for _ in 0..total {
            if z.sample(&mut rng) <= 10 {
                head += 1;
            }
        }
        // With alpha = 1.5 the first 10 ranks carry well over a third of the
        // mass; uniform sampling would put only 0.1% there.
        assert!(head as f64 / total as f64 > 0.3, "head mass {head}");
    }

    #[test]
    fn frequencies_follow_power_law_slope() {
        let z = ZipfSampler::new(100_000, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut c1 = 0u32;
        let mut c2 = 0u32;
        let n = 200_000;
        for _ in 0..n {
            match z.sample(&mut rng) {
                1 => c1 += 1,
                2 => c2 += 1,
                _ => {}
            }
        }
        // P(1)/P(2) = 2^alpha = 4; allow generous sampling noise.
        let ratio = c1 as f64 / c2 as f64;
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn alpha_one_is_supported() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!((1..=100).contains(&z.sample(&mut rng)));
        }
    }

    #[test]
    fn single_element_support() {
        let z = ZipfSampler::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(z.sample(&mut rng), 1);
        assert_eq!(z.sample_index(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_support_panics() {
        let _ = ZipfSampler::new(0, 1.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        // The serving stress generator indexes a tensor pool with
        // `sample_index`; pin the 1-based/0-based invariants across the
        // whole (n, alpha, seed) space, including the extreme alphas where
        // the rejection-inversion arithmetic is least comfortable.
        #[test]
        fn sample_respects_bounds_across_seeds_and_alphas(
            n in 1u64..5000,
            alpha_tenths in 1u64..60,
            seed in 0u64..1_000_000,
        ) {
            let z = ZipfSampler::new(n, alpha_tenths as f64 / 10.0);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let k = z.sample(&mut rng);
                proptest::prop_assert!((1..=n).contains(&k), "sample {k} out of [1, {n}]");
                let i = z.sample_index(&mut rng);
                proptest::prop_assert!(i < n, "index {i} out of [0, {n})");
            }
        }
    }
}
