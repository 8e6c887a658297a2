//! GPU device parameters.
//!
//! The published micro-architectural numbers (SM counts, clocks, cache
//! sizes) come from the vendor datasheets; the obtainable-bandwidth and
//! atomic-throughput figures are modeled at the fractions measured by
//! public micro-benchmark studies of these parts (see DESIGN.md §2). The
//! qualitative relations the paper's observations rest on — V100 has a
//! larger L2, higher bandwidth, and much better atomics than P100 — are
//! what matters to the simulation.

/// Parameters of one simulated GPU.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Device name.
    pub name: &'static str,
    /// Streaming multiprocessor count.
    pub(crate) sms: u32,
    /// Maximum resident threads per SM (bounds block concurrency).
    pub(crate) max_threads_per_sm: u32,
    /// Core clock in GHz.
    pub(crate) clock_ghz: f64,
    /// Peak single-precision GFLOPS.
    pub peak_sp_gflops: f64,
    /// Obtainable global-memory bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// L2 cache capacity in bytes.
    pub(crate) l2_bytes: usize,
    /// L2 sector (transaction) size in bytes.
    pub(crate) sector_bytes: usize,
    /// L2 associativity used by the cache model.
    pub(crate) l2_ways: usize,
    /// Aggregate L2 bandwidth in GB/s.
    pub(crate) l2_bw_gbs: f64,
    /// Per-thread-block L1/texture cache capacity in bytes (0 disables the
    /// L1 level). Modeled private per block and flushed at block switch,
    /// which under-approximates sharing but never over-credits reuse.
    pub(crate) l1_bytes: usize,
    /// L1 associativity.
    pub(crate) l1_ways: usize,
    /// Issue cycles a warp pays per sector served from the L1.
    pub(crate) l1_issue_cycles: f64,
    /// Aggregate global atomic throughput in Gop/s (independent addresses).
    pub(crate) atomic_gops: f64,
    /// Serialized same-address atomic throughput in Gop/s (one hot address).
    pub(crate) atomic_serial_gops: f64,
    /// Issued instructions per cycle per SM (warp instructions).
    pub(crate) ipc_per_sm: f64,
    /// Extra issue cycles a warp pays per L2 sector it touches.
    pub(crate) sector_issue_cycles: f64,
    /// Serialization cycles per conflicting atomic lane.
    pub(crate) atomic_replay_cycles: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla P100 (Pascal, DGX-1P).
    pub fn p100() -> Self {
        DeviceSpec {
            name: "P100",
            sms: 56,
            max_threads_per_sm: 2048,
            clock_ghz: 1.48,
            peak_sp_gflops: 10_600.0,
            dram_bw_gbs: 571.0,
            l2_bytes: 4 << 20,
            sector_bytes: 32,
            l2_ways: 16,
            l2_bw_gbs: 1_600.0,
            l1_bytes: 24 << 10,
            l1_ways: 8,
            l1_issue_cycles: 1.0,
            atomic_gops: 18.0,
            atomic_serial_gops: 0.35,
            ipc_per_sm: 2.0,
            sector_issue_cycles: 2.0,
            atomic_replay_cycles: 30.0,
        }
    }

    /// NVIDIA Tesla V100 (Volta, DGX-1V). Twice the P100's L2 per byte of
    /// traffic that matters here (6 MB vs 4 MB), higher bandwidth, and the
    /// substantially improved atomic unit the paper credits for Mttkrp
    /// exceeding its roofline on DGX-1V.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "V100",
            sms: 80,
            max_threads_per_sm: 2048,
            clock_ghz: 1.53,
            peak_sp_gflops: 14_900.0,
            dram_bw_gbs: 792.0,
            l2_bytes: 6 << 20,
            sector_bytes: 32,
            l2_ways: 16,
            l2_bw_gbs: 2_500.0,
            // Volta unified its big L1/shared array; the much larger L1 is
            // one of its headline improvements over Pascal.
            l1_bytes: 96 << 10,
            l1_ways: 8,
            l1_issue_cycles: 0.8,
            atomic_gops: 64.0,
            atomic_serial_gops: 1.2,
            ipc_per_sm: 2.0,
            sector_issue_cycles: 1.5,
            atomic_replay_cycles: 12.0,
        }
    }

    /// Concurrent thread-block slots across the device for blocks of
    /// `block_threads` threads.
    pub(crate) fn block_slots(&self, block_threads: usize) -> usize {
        let per_sm = (self.max_threads_per_sm as usize / block_threads.max(1)).max(1);
        // Hardware also caps resident blocks per SM (32 on these parts).
        let per_sm = per_sm.min(32);
        per_sm * self.sms as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_dominates_p100_where_the_paper_says() {
        let p = DeviceSpec::p100();
        let v = DeviceSpec::v100();
        assert!(v.l2_bytes > p.l2_bytes);
        assert!(v.dram_bw_gbs > p.dram_bw_gbs);
        assert!(v.atomic_gops > 2.0 * p.atomic_gops);
        assert!(v.peak_sp_gflops > p.peak_sp_gflops);
    }

    #[test]
    fn block_slots_respect_thread_budget() {
        let p = DeviceSpec::p100();
        assert_eq!(p.block_slots(256), 56 * 8);
        assert_eq!(p.block_slots(1024), 56 * 2);
        // Tiny blocks hit the resident-block cap.
        assert_eq!(p.block_slots(32), 56 * 32);
    }

    #[test]
    fn obtainable_bandwidth_below_theoretical() {
        // 732 GB/s (P100) and 900 GB/s (V100) theoretical in Table 4.
        assert!(DeviceSpec::p100().dram_bw_gbs < 732.0);
        assert!(DeviceSpec::v100().dram_bw_gbs < 900.0);
    }
}
