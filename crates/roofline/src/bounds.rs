//! Per-kernel, per-tensor Roofline performance bounds (paper §5.2).
//!
//! "We use the computed obtainable performance of all tensor kernels as the
//! upper bounds in our performance figures (called 'Roofline performance'),
//! calculated by timing an OI value with the 'ERT-DRAM' bandwidth. The OI
//! value is an accurate #Flops/#Bytes ratio by taking different tensor
//! features into account, especially for Ttv and Ttm because of the M_F
//! term."

use tenbench_core::analysis::{
    mttkrp_coo_cost, mttkrp_hicoo_cost, tew_cost, ts_cost, ttm_cost, ttv_cost, KernelCost,
};

/// A Roofline performance bound for one kernel on one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelBound {
    /// Exact operational intensity (flops/byte).
    pub oi: f64,
    /// Bound in GFLOPS (`min(peak, OI x ERT-DRAM bandwidth)`).
    pub gflops: f64,
}

/// Compute the bound from a Table 1 cost under a machine's ERT-DRAM
/// bandwidth and compute roof.
pub(crate) fn bound_from_cost(
    cost: KernelCost,
    ert_dram_gbs: f64,
    peak_gflops: f64,
) -> KernelBound {
    let oi = cost.oi();
    KernelBound {
        oi,
        gflops: (oi * ert_dram_gbs).min(peak_gflops),
    }
}

/// Tew bound.
pub fn tew_bound(m: u64, ert_dram_gbs: f64, peak_gflops: f64) -> KernelBound {
    bound_from_cost(tew_cost(m), ert_dram_gbs, peak_gflops)
}

/// Ts bound.
pub fn ts_bound(m: u64, ert_dram_gbs: f64, peak_gflops: f64) -> KernelBound {
    bound_from_cost(ts_cost(m), ert_dram_gbs, peak_gflops)
}

/// Ttv bound with the exact `M_F` term.
pub fn ttv_bound(
    order: usize,
    m: u64,
    mf: u64,
    ert_dram_gbs: f64,
    peak_gflops: f64,
) -> KernelBound {
    bound_from_cost(ttv_cost(order, m, mf), ert_dram_gbs, peak_gflops)
}

/// Ttm bound with the exact `M_F` term.
pub fn ttm_bound(
    order: usize,
    m: u64,
    mf: u64,
    r: u64,
    ert_dram_gbs: f64,
    peak_gflops: f64,
) -> KernelBound {
    bound_from_cost(ttm_cost(order, m, mf, r), ert_dram_gbs, peak_gflops)
}

/// COO Mttkrp bound.
pub fn mttkrp_coo_bound(
    order: usize,
    m: u64,
    r: u64,
    ert_dram_gbs: f64,
    peak_gflops: f64,
) -> KernelBound {
    bound_from_cost(mttkrp_coo_cost(order, m, r), ert_dram_gbs, peak_gflops)
}

/// HiCOO Mttkrp bound (block reuse raises the OI, so this bound sits above
/// the COO one when blocks are dense).
pub fn mttkrp_hicoo_bound(
    order: usize,
    m: u64,
    r: u64,
    nb: u64,
    block_size: u64,
    ert_dram_gbs: f64,
    peak_gflops: f64,
) -> KernelBound {
    bound_from_cost(
        mttkrp_hicoo_cost(order, m, r, nb, block_size),
        ert_dram_gbs,
        peak_gflops,
    )
}

/// Performance efficiency relative to a bound, as the paper reports (can
/// exceed 1 for cache-resident tensors — Observation 2).
pub fn efficiency(achieved_gflops: f64, bound: KernelBound) -> f64 {
    if bound.gflops <= 0.0 {
        0.0
    } else {
        achieved_gflops / bound.gflops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: f64 = 205.0;
    const PEAK: f64 = 1000.0;

    #[test]
    fn asymptotic_ois_match_table1() {
        assert!((tew_bound(1 << 20, BW, PEAK).oi - 1.0 / 12.0).abs() < 1e-12);
        assert!((ts_bound(1 << 20, BW, PEAK).oi - 1.0 / 8.0).abs() < 1e-12);
        let t = ttv_bound(3, 1 << 20, 1, BW, PEAK);
        assert!((t.oi - 1.0 / 6.0).abs() < 1e-3);
    }

    #[test]
    fn bounds_scale_with_bandwidth() {
        let a = tew_bound(1000, 100.0, PEAK);
        let b = tew_bound(1000, 200.0, PEAK);
        assert!((b.gflops / a.gflops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mf_term_lowers_the_ttv_bound() {
        // More fibers -> more output traffic -> lower OI and bound.
        let few = ttv_bound(3, 1_000_000, 1_000, BW, PEAK);
        let many = ttv_bound(3, 1_000_000, 900_000, BW, PEAK);
        assert!(many.oi < few.oi);
        assert!(many.gflops < few.gflops);
    }

    #[test]
    fn hicoo_mttkrp_bound_dominates_coo_for_dense_blocks() {
        let coo = mttkrp_coo_bound(3, 1_000_000, 16, BW, PEAK);
        let hic = mttkrp_hicoo_bound(3, 1_000_000, 16, 2_000, 128, BW, PEAK);
        assert!(hic.gflops > coo.gflops);
    }

    #[test]
    fn efficiency_can_exceed_one() {
        let b = tew_bound(1000, BW, PEAK);
        assert!(efficiency(b.gflops * 3.5, b) > 3.0); // cache-resident case
        assert_eq!(
            efficiency(
                1.0,
                KernelBound {
                    oi: 0.0,
                    gflops: 0.0
                }
            ),
            0.0
        );
    }

    #[test]
    fn peak_caps_the_bound() {
        let b = ttm_bound(3, 1 << 20, 1, 1 << 20, 1e9, PEAK);
        assert_eq!(b.gflops, PEAK);
    }
}
