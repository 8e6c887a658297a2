//! Kernel launch statistics reported by every simulated GPU kernel.

use crate::device::DeviceSpec;
use crate::mem::MemoryTracker;
use crate::timing::{model_time, TimeBreakdown};

/// The result of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct GpuKernelStats {
    /// Kernel name ("Tew", "Ts", "Ttv", "Ttm", "Mttkrp").
    pub kernel: &'static str,
    /// Format ("COO" or "HiCOO").
    pub format: &'static str,
    /// Lane-level global atomics.
    pub atomics: u64,
    /// Sectors that reached the L2 after coalescing and L1 filtering.
    pub sectors: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM transactions).
    pub l2_misses: u64,
    /// Bytes that reached DRAM.
    pub dram_bytes: u64,
    /// Sum of per-warp worst atomic conflict depths.
    pub atomic_conflict_depth: u64,
    /// Table 1 floating-point work.
    pub flops: u64,
    /// Per-resource time components.
    pub breakdown: TimeBreakdown,
    /// Modeled kernel time in seconds.
    pub time_s: f64,
}

impl GpuKernelStats {
    /// Assemble from a finished trace.
    pub(crate) fn from_tracker(
        kernel: &'static str,
        format: &'static str,
        dev: &DeviceSpec,
        tracker: &MemoryTracker,
        block_threads: usize,
        flops: u64,
    ) -> Self {
        let breakdown = model_time(dev, tracker, block_threads);
        GpuKernelStats {
            kernel,
            format,
            atomics: tracker.atomics,
            sectors: tracker.sectors,
            l2_hits: tracker.l2_hits,
            l2_misses: tracker.l2_misses,
            dram_bytes: tracker.dram_bytes(),
            atomic_conflict_depth: tracker.atomic_conflict_depth,
            flops,
            breakdown,
            time_s: breakdown.total(),
        }
    }

    /// Modeled GFLOPS (Table 1 work over modeled time).
    pub fn gflops(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.time_s / 1e9
        }
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// The bottleneck resource name.
    pub fn bottleneck(&self) -> &'static str {
        self.breakdown.bottleneck()
    }
}

#[cfg(test)]
mod tests {
    use crate::timing::TimeBreakdown;

    use super::*;

    fn stats(time_s: f64, flops: u64, l2_hits: u64, l2_misses: u64) -> GpuKernelStats {
        GpuKernelStats {
            kernel: "Tew",
            format: "COO",
            atomics: 0,
            sectors: l2_hits + l2_misses,
            l2_hits,
            l2_misses,
            dram_bytes: l2_misses * 32,
            atomic_conflict_depth: 0,
            flops,
            breakdown: TimeBreakdown {
                dram_s: time_s,
                l2_s: 0.0,
                atomic_s: 0.0,
                sched_s: 0.0,
            },
            time_s,
        }
    }

    #[test]
    fn gflops_divides_work_by_time() {
        let s = stats(1e-3, 2_000_000, 0, 10);
        assert!((s.gflops() - 2.0).abs() < 1e-12);
        // Degenerate zero time reports zero instead of infinity.
        assert_eq!(stats(0.0, 100, 0, 1).gflops(), 0.0);
    }

    #[test]
    fn hit_rate_handles_empty_traffic() {
        assert_eq!(stats(1.0, 1, 0, 0).l2_hit_rate(), 0.0);
        assert_eq!(stats(1.0, 1, 3, 1).l2_hit_rate(), 0.75);
    }

    #[test]
    fn bottleneck_delegates_to_breakdown() {
        assert_eq!(stats(1.0, 1, 0, 1).bottleneck(), "dram");
    }
}
