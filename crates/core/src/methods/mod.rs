//! CP-ALS, the tensor method built on top of the benchmark kernels.
//!
//! The paper motivates Mttkrp as the bottleneck of CANDECOMP/PARAFAC
//! decomposition (§2.5) and lists complete tensor methods as future work
//! (§7). CP-ALS is here because the job engine (`tenbench-serve`'s
//! checkpointed decomposition jobs) runs it; its sweeps call the scheduled
//! COO Mttkrp, the kernel the suite measures.

mod cp_als;

pub use cp_als::{cp_als, cp_als_init, cp_als_step, CpAlsOptions, CpAlsState, CpDecomposition};

/// A small deterministic xorshift64* generator used to initialize factor
/// matrices without pulling a random-number dependency into the core crate.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn xorshift_zero_seed_is_valid() {
        let mut g = XorShift64::new(0);
        assert!(g.next_f64() >= 0.0);
    }
}
