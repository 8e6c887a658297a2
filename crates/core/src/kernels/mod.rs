//! The five benchmark kernels (paper §2) with sequential and parallel
//! CPU implementations over COO and HiCOO (paper §3.2, §3.4).
//!
//! Conventions shared by all kernels:
//!
//! * Pre-processing (sorting, fiber partitioning, output allocation) is
//!   separated from value computation wherever the paper separates it, so
//!   the harness can time the kernel body alone ("we use more preprocessing
//!   to trade for less kernel computation").
//! * Parallel decomposition follows the paper exactly: Tew/Ts over nonzeros,
//!   Ttv/Ttm over fibers (race-free by the sparse-dense property), COO
//!   Mttkrp over nonzeros with atomic output updates, HiCOO Mttkrp over
//!   blocks.

pub mod mttkrp;
pub mod tew;
pub mod ts;
pub mod ttm;
pub mod ttv;

/// Element-wise operation selector shared by Tew and Ts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwOp {
    /// Addition (`Tew` in the paper's experiments represents the family).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (`Ts`'s representative operation).
    Mul,
    /// Division.
    Div,
}

impl EwOp {
    /// Apply the operation to a pair of values.
    #[inline]
    pub(crate) fn apply<S: crate::scalar::Scalar>(self, a: S, b: S) -> S {
        match self {
            EwOp::Add => a + b,
            EwOp::Sub => a - b,
            EwOp::Mul => a * b,
            EwOp::Div => a / b,
        }
    }
}

/// The five kernels of the benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Tensor element-wise (two tensor operands).
    Tew,
    /// Tensor–scalar.
    Ts,
    /// Tensor-times-vector.
    Ttv,
    /// Tensor-times-matrix.
    Ttm,
    /// Matricized tensor times Khatri–Rao product.
    Mttkrp,
}

impl Kernel {
    /// All kernels in the paper's presentation order.
    pub const ALL: [Kernel; 5] = [
        Kernel::Tew,
        Kernel::Ts,
        Kernel::Ttv,
        Kernel::Ttm,
        Kernel::Mttkrp,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Tew => "Tew",
            Kernel::Ts => "Ts",
            Kernel::Ttv => "Ttv",
            Kernel::Ttm => "Ttm",
            Kernel::Mttkrp => "Mttkrp",
        }
    }

    /// Floating-point work (Table 1 `#Flops`) for an order-`n` tensor with
    /// `m` nonzeros and rank `r` (ignored by the rank-free kernels).
    ///
    /// Table 1 lists the third-order counts (Tew/Ts: `M`, Ttv: `2M`,
    /// Ttm: `2MR`, Mttkrp: `3MR`); the Mttkrp count generalizes to `N*M*R`
    /// ((N-1) multiplies plus one add per rank element per nonzero).
    pub fn flops(self, order: usize, m: u64, r: u64) -> u64 {
        match self {
            Kernel::Tew | Kernel::Ts => m,
            Kernel::Ttv => 2 * m,
            Kernel::Ttm => 2 * m * r,
            Kernel::Mttkrp => order as u64 * m * r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewop_applies() {
        assert_eq!(EwOp::Add.apply(2.0f32, 3.0), 5.0);
        assert_eq!(EwOp::Sub.apply(2.0f32, 3.0), -1.0);
        assert_eq!(EwOp::Mul.apply(2.0f32, 3.0), 6.0);
        assert_eq!(EwOp::Div.apply(3.0f32, 2.0), 1.5);
    }

    #[test]
    fn flops_match_table1_third_order() {
        let (m, r) = (100, 16);
        assert_eq!(Kernel::Tew.flops(3, m, r), 100);
        assert_eq!(Kernel::Ts.flops(3, m, r), 100);
        assert_eq!(Kernel::Ttv.flops(3, m, r), 200);
        assert_eq!(Kernel::Ttm.flops(3, m, r), 2 * 100 * 16);
        assert_eq!(Kernel::Mttkrp.flops(3, m, r), 3 * 100 * 16);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["Tew", "Ts", "Ttv", "Ttm", "Mttkrp"]);
    }
}
