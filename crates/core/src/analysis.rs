//! Work, memory-traffic, and operational-intensity accounting (paper §3.2,
//! Table 1).
//!
//! Table 1 analyzes third-order cubical tensors; this module implements the
//! general-order formulas those rows specialize, so the Roofline bounds of
//! §5.2 can use "an accurate #Flops/#Bytes ratio by taking different tensor
//! features into account, especially for Ttv and Ttm because of the M_F
//! term".
//!
//! Conventions (matching the paper): indices are 32-bit, values are
//! single-precision (4 bytes), a one-level cache of minimal size satisfies
//! the data reuse inside an algorithm — so each operand array is counted
//! once per pass, and the gathered dense operand (vector/matrix rows) is
//! counted once per touching nonzero because its access pattern is
//! irregular.

/// Bytes per index and per value (32-bit each, as in the paper).
pub const IDX_BYTES: u64 = 4;
/// Bytes per single-precision value.
pub const VAL_BYTES: u64 = 4;

/// Floating-point work and memory traffic of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes moved to/from memory under the Table 1 model.
    pub bytes: u64,
}

impl KernelCost {
    /// Operational intensity in flops/byte.
    pub fn oi(&self) -> f64 {
        self.flops as f64 / self.bytes as f64
    }

    /// Charge one invocation of this cost to the obs counters
    /// (`kernel.flops`, `kernel.bytes`, `kernel.calls`): three relaxed
    /// `fetch_add`s, once per kernel call.
    pub fn charge(self) {
        use tenbench_obs::counters::{BYTES, FLOPS, KERNEL_CALLS};
        FLOPS.add(self.flops);
        BYTES.add(self.bytes);
        KERNEL_CALLS.add(1);
    }
}

/// Tew over two same-pattern tensors with `m` nonzeros: read two value
/// arrays, write one — `1/12` flops per byte regardless of order (indices
/// are shared with the output and set during pre-processing).
pub fn tew_cost(m: u64) -> KernelCost {
    KernelCost {
        flops: m,
        bytes: 3 * VAL_BYTES * m,
    }
}

/// Ts over `m` nonzeros: read one value array, write one — `1/8`.
pub fn ts_cost(m: u64) -> KernelCost {
    KernelCost {
        flops: m,
        bytes: 2 * VAL_BYTES * m,
    }
}

/// Ttv in one mode of an order-`order` tensor with `m` nonzeros and `mf`
/// mode-`n` fibers. Per nonzero: value + product-mode index + an irregular
/// gather from the vector (12 bytes); per output fiber: `N-1` indices and
/// one value (`4N` bytes). Third-order: `12M + 12M_F`, OI ~ `1/6`.
pub fn ttv_cost(order: usize, m: u64, mf: u64) -> KernelCost {
    KernelCost {
        flops: 2 * m,
        bytes: (VAL_BYTES + IDX_BYTES + VAL_BYTES) * m + (IDX_BYTES * order as u64) * mf,
    }
}

/// Ttm with rank `r`: per nonzero a value + index (8 bytes) and an `R`-row
/// gather (`4R`); per fiber an `R` output stripe (`4R`) plus `N-1` indices.
/// Third-order: `4MR + 4M_F R + 8M + 8M_F`, OI ~ `1/2`.
pub fn ttm_cost(order: usize, m: u64, mf: u64, r: u64) -> KernelCost {
    KernelCost {
        flops: 2 * m * r,
        bytes: (VAL_BYTES + IDX_BYTES) * m
            + VAL_BYTES * r * m
            + VAL_BYTES * r * mf
            + IDX_BYTES * (order as u64 - 1) * mf,
    }
}

/// COO Mttkrp with rank `r`: per nonzero `N-1` factor-row gathers and one
/// output-row update (`4NR` bytes) plus all indices and the value
/// (`4(N+1)`). Third-order: `12MR + 16M`, OI ~ `1/4`.
pub fn mttkrp_coo_cost(order: usize, m: u64, r: u64) -> KernelCost {
    let n = order as u64;
    KernelCost {
        flops: n * m * r,
        bytes: VAL_BYTES * n * r * m + IDX_BYTES * (n + 1) * m,
    }
}

/// HiCOO Mttkrp: factor rows are reused within a block, so at most
/// `min(n_b * B, M)` distinct rows are loaded per matrix (`4NR` bytes per
/// row across the `N` matrices); element indices cost 1 byte per mode per
/// nonzero plus the value (`N + 4`); block metadata costs `4N + 8` per
/// block. Third-order: `12R min(n_b B, M) + 7M + 20n_b`.
pub fn mttkrp_hicoo_cost(order: usize, m: u64, r: u64, nb: u64, block_size: u64) -> KernelCost {
    let n = order as u64;
    let rows_loaded = (nb * block_size).min(m);
    KernelCost {
        flops: n * m * r,
        bytes: VAL_BYTES * n * r * rows_loaded + (n + 4) * m + (IDX_BYTES * n + 8) * nb,
    }
}

/// One row of the paper's Table 1 (third-order cubical analysis), with the
/// symbolic formulas as printed there.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Symbolic work.
    pub work: &'static str,
    /// Symbolic COO memory traffic.
    pub coo_bytes: &'static str,
    /// Symbolic HiCOO memory traffic.
    pub hicoo_bytes: &'static str,
    /// Symbolic operational intensity.
    pub oi: &'static str,
}

/// The five rows of Table 1 as the paper prints them.
pub fn table1_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            kernel: "Tew",
            work: "M",
            coo_bytes: "12M",
            hicoo_bytes: "12M",
            oi: "1/12",
        },
        Table1Row {
            kernel: "Ts",
            work: "M",
            coo_bytes: "8M",
            hicoo_bytes: "8M",
            oi: "1/8",
        },
        Table1Row {
            kernel: "Ttv",
            work: "2M",
            coo_bytes: "12M + 12MF",
            hicoo_bytes: "12M + 12MF",
            oi: "~1/6",
        },
        Table1Row {
            kernel: "Ttm",
            work: "2MR",
            coo_bytes: "4MR + 4MFR + 8M + 8MF",
            hicoo_bytes: "4MR + 4MFR + 8M + 8MF",
            oi: "~1/2",
        },
        Table1Row {
            kernel: "Mttkrp",
            work: "3MR",
            coo_bytes: "12MR + 16M",
            hicoo_bytes: "12R min{nb*B, M} + 7M + 20nb",
            oi: "~1/4",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tew_and_ts_match_table1() {
        assert!((tew_cost(1000).oi() - 1.0 / 12.0).abs() < 1e-12);
        assert!((ts_cost(1000).oi() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn ttv_third_order_matches_table1() {
        let c = ttv_cost(3, 1000, 100);
        assert_eq!(c.flops, 2000);
        assert_eq!(c.bytes, 12 * 1000 + 12 * 100);
        // With MF << M the OI approaches 1/6.
        let c2 = ttv_cost(3, 1_000_000, 1);
        assert!((c2.oi() - 1.0 / 6.0).abs() < 1e-3);
    }

    #[test]
    fn ttm_third_order_matches_table1() {
        let (m, mf, r) = (1000u64, 100u64, 16u64);
        let c = ttm_cost(3, m, mf, r);
        assert_eq!(c.flops, 2 * m * r);
        assert_eq!(c.bytes, 4 * m * r + 4 * mf * r + 8 * m + 8 * mf);
        // Large R, MF << M: OI approaches 1/2.
        let c2 = ttm_cost(3, 1_000_000, 1, 1024);
        assert!((c2.oi() - 0.5).abs() < 1e-2);
    }

    #[test]
    fn mttkrp_coo_matches_table1() {
        let (m, r) = (1000u64, 16u64);
        let c = mttkrp_coo_cost(3, m, r);
        assert_eq!(c.flops, 3 * m * r);
        assert_eq!(c.bytes, 12 * m * r + 16 * m);
        // Large R: OI approaches 1/4.
        let c2 = mttkrp_coo_cost(3, 1_000_000, 4096);
        assert!((c2.oi() - 0.25).abs() < 1e-3);
    }

    #[test]
    fn mttkrp_hicoo_matches_table1_and_caps_rows() {
        let (m, r, nb, b) = (1000u64, 16u64, 10u64, 128u64);
        let c = mttkrp_hicoo_cost(3, m, r, nb, b);
        assert_eq!(c.flops, 3 * m * r);
        assert_eq!(c.bytes, 12 * r * (nb * b).min(m) + 7 * m + 20 * nb);
        // When blocks are dense enough the row loads cap at M.
        let capped = mttkrp_hicoo_cost(3, 100, r, 1000, 128);
        assert_eq!(capped.bytes, 12 * r * 100 + 7 * 100 + 20 * 1000);
    }

    #[test]
    fn hicoo_mttkrp_moves_fewer_bytes_when_blocks_are_dense() {
        // Dense blocks: nb * B << M means HiCOO reloads far fewer rows.
        let (m, r) = (1_000_000u64, 16u64);
        let coo = mttkrp_coo_cost(3, m, r);
        let hic = mttkrp_hicoo_cost(3, m, r, 1000, 128);
        assert!(hic.bytes < coo.bytes);
        assert!(hic.oi() > coo.oi());
    }

    #[test]
    fn table1_has_five_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4].kernel, "Mttkrp");
    }
}
