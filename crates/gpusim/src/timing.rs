//! The timing model: the kernel's modeled time is the bottleneck of four
//! resources — DRAM bandwidth, L2 bandwidth, the atomic unit, and SM issue
//! (the latter via a list-scheduled makespan, which is where load imbalance
//! across thread blocks shows up).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::device::DeviceSpec;
use crate::mem::MemoryTracker;

/// Per-resource time components in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// DRAM bandwidth time.
    pub dram_s: f64,
    /// L2 bandwidth time.
    pub l2_s: f64,
    /// Atomic unit time (throughput and same-address serialization).
    pub atomic_s: f64,
    /// SM issue makespan (includes load imbalance).
    pub sched_s: f64,
}

impl TimeBreakdown {
    /// The bottleneck resource's time — the modeled kernel time.
    pub(crate) fn total(&self) -> f64 {
        self.dram_s
            .max(self.l2_s)
            .max(self.atomic_s)
            .max(self.sched_s)
    }

    /// Name of the bottleneck resource.
    pub(crate) fn bottleneck(&self) -> &'static str {
        let t = self.total();
        if t == self.dram_s {
            "dram"
        } else if t == self.l2_s {
            "l2"
        } else if t == self.atomic_s {
            "atomic"
        } else {
            "sched"
        }
    }
}

/// Compute the modeled time of a launch whose trace is in `tracker`, with
/// thread blocks of `block_threads` threads.
pub(crate) fn model_time(
    dev: &DeviceSpec,
    tracker: &MemoryTracker,
    block_threads: usize,
) -> TimeBreakdown {
    let dram_s = tracker.dram_bytes() as f64 / (dev.dram_bw_gbs * 1e9);
    let l2_s = tracker.l2_bytes() as f64 / (dev.l2_bw_gbs * 1e9);

    let atomic_ops = tracker.atomics as f64;
    let atomic_s = (atomic_ops / (dev.atomic_gops * 1e9))
        .max(tracker.atomic_conflict_depth as f64 / (dev.atomic_serial_gops * 1e9));

    // Issue-side makespan: greedy in-order list scheduling of blocks onto
    // the device's concurrent block slots (the hardware's block dispatcher
    // is effectively this). Each slot issues at ipc / slots_per_sm
    // instructions per cycle.
    let slots = dev.block_slots(block_threads).max(1);
    let slots_per_sm = (slots as f64 / dev.sms as f64).max(1.0);
    // A slot shares its SM's issue bandwidth with the blocks actually
    // resident there: small launches leave slots empty and issue faster.
    let blocks = tracker.per_block().len();
    let resident_per_sm = ((blocks as f64 / dev.sms as f64).ceil()).clamp(1.0, slots_per_sm);
    let rate_per_slot = dev.ipc_per_sm / resident_per_sm; // instructions / cycle
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..slots).map(|s| Reverse((0u64, s))).collect();
    let mut makespan = 0u64;
    for b in tracker.per_block() {
        let cycles = b.instr
            + b.sectors as f64 * dev.sector_issue_cycles
            + b.l1_sectors as f64 * dev.l1_issue_cycles
            + b.atomic_replays * dev.atomic_replay_cycles;
        // Fixed-point microcycles to keep the heap integral.
        let cost = (cycles * 1024.0) as u64;
        let Reverse((load, slot)) = heap.pop().expect("slots >= 1");
        let new_load = load + cost;
        makespan = makespan.max(new_load);
        heap.push(Reverse((new_load, slot)));
    }
    let makespan_cycles = makespan as f64 / 1024.0;
    let sched_s = makespan_cycles / (rate_per_slot * dev.clock_ghz * 1e9);

    TimeBreakdown {
        dram_s,
        l2_s,
        atomic_s,
        sched_s,
    }
}

#[cfg(test)]
mod tests {
    use crate::mem::AccessKind;

    use super::*;

    #[test]
    fn streaming_load_is_dram_bound() {
        let dev = DeviceSpec::p100();
        // 64 MiB of cold streaming loads (beyond L2).
        let mut t = MemoryTracker::new(&dev, 1024);
        let n = (64u64 << 20) / 4;
        for w in 0..n / 32 {
            t.begin_block((w as usize / 8) % 1024);
            t.access_contig(AccessKind::Load, 0, w * 32, 32, 4);
        }
        let tb = model_time(&dev, &t, 256);
        assert_eq!(tb.bottleneck(), "dram");
        // 64 MiB at 571 GB/s ~ 118 us.
        let expect = (64u64 << 20) as f64 / (571.0 * 1e9);
        assert!((tb.dram_s / expect - 1.0).abs() < 0.05, "{}", tb.dram_s);
    }

    #[test]
    fn cache_resident_load_beats_dram_time() {
        let dev = DeviceSpec::p100();
        let mut t = MemoryTracker::new(&dev, 64);
        // 1 MiB working set streamed 8 times: only the first pass misses.
        let n = (1u64 << 20) / 4;
        for pass in 0..8 {
            for w in 0..n / 32 {
                t.begin_block(((pass * n / 32 + w) % 64) as usize);
                t.access_contig(AccessKind::Load, 0, w * 32, 32, 4);
            }
        }
        assert!(t.l2_hits > 6 * t.l2_misses);
        let tb = model_time(&dev, &t, 256);
        // Effective bandwidth (total bytes / time) exceeds DRAM bandwidth.
        let eff = (8u64 * (1 << 20)) as f64 / tb.total() / 1e9;
        assert!(eff > dev.dram_bw_gbs, "effective {eff} GB/s");
    }

    #[test]
    fn hot_address_atomics_are_atomic_bound() {
        let dev = DeviceSpec::p100();
        let mut t = MemoryTracker::new(&dev, 16);
        let addrs = vec![0u64; 32];
        for i in 0..10_000 {
            t.begin_block(i % 16);
            t.atomic_gather(&addrs, 4);
        }
        let tb = model_time(&dev, &t, 256);
        assert!(tb.atomic_s > tb.dram_s);
    }

    #[test]
    fn imbalance_inflates_the_makespan() {
        let dev = DeviceSpec::p100();
        let blocks = dev.block_slots(256) * 4;
        // Balanced: every block does 1000 instructions.
        let mut bal = MemoryTracker::new(&dev, blocks);
        for b in 0..blocks {
            bal.begin_block(b);
            bal.instr(1000.0);
        }
        // Imbalanced: same total work, all in 1% of the blocks.
        let mut imb = MemoryTracker::new(&dev, blocks);
        let heavy = (blocks / 100).max(1);
        for b in 0..heavy {
            imb.begin_block(b);
            imb.instr(1000.0 * blocks as f64 / heavy as f64);
        }
        let t_bal = model_time(&dev, &bal, 256).sched_s;
        let t_imb = model_time(&dev, &imb, 256).sched_s;
        assert!(t_imb > 5.0 * t_bal, "bal {t_bal} imb {t_imb}");
    }

    #[test]
    fn v100_outruns_p100_on_the_same_trace() {
        let p = DeviceSpec::p100();
        let v = DeviceSpec::v100();
        let mk = |dev: &DeviceSpec| {
            let mut t = MemoryTracker::new(dev, 256);
            for w in 0..100_000u64 {
                t.begin_block((w % 256) as usize);
                t.access_contig(AccessKind::Load, 0, w * 32, 32, 4);
            }
            model_time(dev, &t, 256).total()
        };
        assert!(mk(&v) < mk(&p));
    }
}
