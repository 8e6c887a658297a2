//! The simulated memory system: virtual address space, warp-level
//! coalescing, a set-associative sector cache standing in for the GPU L2,
//! and atomic-conflict tracking.

use crate::device::DeviceSpec;

/// Bump allocator handing out non-overlapping virtual buffers, so every
/// tensor array gets distinct addresses in the trace.
#[derive(Debug, Default)]
pub(crate) struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// A fresh, empty address space.
    pub(crate) fn new() -> Self {
        AddressSpace { next: 0 }
    }

    /// Allocate `bytes` with 256-byte alignment (CUDA's allocation
    /// guarantee), returning the base address.
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let base = (self.next + 255) & !255;
        self.next = base + bytes.max(1);
        base
    }
}

/// Kind of a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Global load.
    Load,
    /// Global store.
    Store,
    /// Global atomic read-modify-write.
    Atomic,
}

/// Set-associative LRU cache over fixed-size sectors — the L2 model.
#[derive(Debug)]
pub(crate) struct CacheModel {
    sets: Vec<Vec<(u64, u64)>>, // (tag, stamp)
    ways: usize,
    set_mask: u64,
    stamp: u64,
}

impl CacheModel {
    /// Build a cache of `capacity` bytes with `sector` bytes per line and
    /// `ways` associativity. The set count is rounded down to a power of
    /// two.
    pub(crate) fn new(capacity: usize, sector: usize, ways: usize) -> Self {
        let lines = (capacity / sector).max(ways);
        let sets = (lines / ways).next_power_of_two() / 2;
        let sets = sets.max(1);
        CacheModel {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
        }
    }

    /// Forget everything cached (used to flush the per-block L1 model at
    /// thread-block switches). Keeps the allocation.
    pub(crate) fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Access one sector id (address / sector size); returns `true` on hit.
    pub(crate) fn access(&mut self, sector_id: u64) -> bool {
        self.stamp += 1;
        let set = &mut self.sets[(sector_id & self.set_mask) as usize];
        if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == sector_id) {
            entry.1 = self.stamp;
            return true;
        }
        if set.len() < self.ways {
            set.push((sector_id, self.stamp));
        } else {
            // Evict the least recently used way.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("ways >= 1");
            set[lru] = (sector_id, self.stamp);
        }
        false
    }
}

/// Per-thread-block accumulated cost, used by the scheduler makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct BlockCost {
    /// Issued warp instructions.
    pub(crate) instr: f64,
    /// L2 sectors touched (L1 misses).
    pub(crate) sectors: u64,
    /// Sectors served by the per-block L1.
    pub(crate) l1_sectors: u64,
    /// Serialized atomic replays (sum of per-warp max same-address
    /// multiplicity minus one).
    pub(crate) atomic_replays: f64,
}

/// Streams warp-level memory accesses through the coalescer and cache,
/// accumulating global and per-block counters.
#[derive(Debug)]
pub(crate) struct MemoryTracker {
    sector_bytes: u64,
    cache: CacheModel,
    /// Per-block L1 model (`None` when the device disables it).
    l1: Option<CacheModel>,
    /// Lane-level atomics.
    pub(crate) atomics: u64,
    /// Warp memory sectors that reached the L2 (after L1 filtering).
    pub(crate) sectors: u64,
    /// L2 hits (sector granularity).
    pub(crate) l2_hits: u64,
    /// L2 misses (sector granularity) — these go to DRAM.
    pub(crate) l2_misses: u64,
    /// Sum over warp atomics of the worst same-address multiplicity.
    pub(crate) atomic_conflict_depth: u64,
    per_block: Vec<BlockCost>,
    current: usize,
}

impl MemoryTracker {
    /// Build a tracker for a launch of `num_blocks` thread blocks on `dev`.
    pub(crate) fn new(dev: &DeviceSpec, num_blocks: usize) -> Self {
        MemoryTracker {
            sector_bytes: dev.sector_bytes as u64,
            cache: CacheModel::new(dev.l2_bytes, dev.sector_bytes, dev.l2_ways),
            l1: (dev.l1_bytes > 0)
                .then(|| CacheModel::new(dev.l1_bytes, dev.sector_bytes, dev.l1_ways)),
            atomics: 0,
            sectors: 0,
            l2_hits: 0,
            l2_misses: 0,
            atomic_conflict_depth: 0,
            per_block: vec![BlockCost::default(); num_blocks.max(1)],
            current: 0,
        }
    }

    /// Switch the per-block accumulator to thread block `b`; a genuine
    /// switch flushes the (block-private) L1 model.
    pub(crate) fn begin_block(&mut self, b: usize) {
        if b != self.current {
            if let Some(l1) = &mut self.l1 {
                l1.clear();
            }
        }
        self.current = b;
    }

    fn count_kind(&mut self, kind: AccessKind, lanes: u64) {
        if kind == AccessKind::Atomic {
            self.atomics += lanes;
        }
    }

    /// Route one sector through the hierarchy. Atomics bypass the L1 (they
    /// resolve at the L2 on these architectures).
    fn touch_sector(&mut self, s: u64, through_l1: bool) {
        if through_l1 {
            if let Some(l1) = &mut self.l1 {
                if l1.access(s) {
                    self.per_block[self.current].l1_sectors += 1;
                    return;
                }
            }
        }
        self.sectors += 1;
        self.per_block[self.current].sectors += 1;
        if self.cache.access(s) {
            self.l2_hits += 1;
        } else {
            self.l2_misses += 1;
        }
    }

    fn touch_sector_range(&mut self, first: u64, last: u64, through_l1: bool) {
        for s in first..=last {
            self.touch_sector(s, through_l1);
        }
    }

    /// One warp instruction where `lanes` consecutive lanes access
    /// consecutive elements of `elem_bytes` starting at element `start` of
    /// the buffer at `base` — the fully-coalesced case.
    pub(crate) fn access_contig(
        &mut self,
        kind: AccessKind,
        base: u64,
        start: u64,
        lanes: u64,
        elem_bytes: u64,
    ) {
        if lanes == 0 {
            return;
        }
        self.count_kind(kind, lanes);
        self.per_block[self.current].instr += 1.0;
        let lo = base + start * elem_bytes;
        let hi = base + (start + lanes) * elem_bytes - 1;
        let through_l1 = kind != AccessKind::Atomic;
        self.touch_sector_range(lo / self.sector_bytes, hi / self.sector_bytes, through_l1);
    }

    /// One warp instruction with arbitrary per-lane byte addresses (gathers
    /// and scatters). Sectors are deduplicated, as the hardware coalescer
    /// does.
    pub(crate) fn access_gather(&mut self, kind: AccessKind, addrs: &[u64], elem_bytes: u64) {
        if addrs.is_empty() {
            return;
        }
        debug_assert!(addrs.len() <= 32, "a warp has at most 32 lanes");
        self.count_kind(kind, addrs.len() as u64);
        self.per_block[self.current].instr += 1.0;
        let mut sectors = [0u64; 64];
        let mut n = 0usize;
        for &a in addrs {
            let s0 = a / self.sector_bytes;
            let s1 = (a + elem_bytes - 1) / self.sector_bytes;
            for s in s0..=s1 {
                sectors[n] = s;
                n += 1;
            }
        }
        let sectors = &mut sectors[..n];
        sectors.sort_unstable();
        let through_l1 = kind != AccessKind::Atomic;
        let mut prev = u64::MAX;
        for i in 0..sectors.len() {
            let s = sectors[i];
            if s != prev {
                prev = s;
                self.touch_sector(s, through_l1);
            }
        }
    }

    /// One warp atomic with per-lane target addresses: lanes aiming at the
    /// same address serialize. Records the worst per-address multiplicity
    /// as the serialization depth, then traces the memory side like a
    /// gather.
    pub(crate) fn atomic_gather(&mut self, addrs: &[u64], elem_bytes: u64) {
        if addrs.is_empty() {
            return;
        }
        let mut sorted = [0u64; 32];
        sorted[..addrs.len()].copy_from_slice(addrs);
        let sorted = &mut sorted[..addrs.len()];
        sorted.sort_unstable();
        let mut worst = 1u64;
        let mut run = 1u64;
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                run += 1;
                worst = worst.max(run);
            } else {
                run = 1;
            }
        }
        self.atomic_conflict_depth += worst;
        self.per_block[self.current].atomic_replays += (worst - 1) as f64;
        self.access_gather(AccessKind::Atomic, addrs, elem_bytes);
    }

    /// Count `n` issued non-memory warp instructions (the arithmetic of the
    /// kernel body) against the current block.
    pub(crate) fn instr(&mut self, n: f64) {
        self.per_block[self.current].instr += n;
    }

    /// Bytes that reached DRAM (L2 misses at sector granularity).
    pub(crate) fn dram_bytes(&self) -> u64 {
        self.l2_misses * self.sector_bytes
    }

    /// Bytes served by the L2 (all sector touches).
    pub(crate) fn l2_bytes(&self) -> u64 {
        self.sectors * self.sector_bytes
    }

    /// The per-block cost table.
    pub(crate) fn per_block(&self) -> &[BlockCost] {
        &self.per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(blocks: usize) -> MemoryTracker {
        MemoryTracker::new(&DeviceSpec::p100(), blocks)
    }

    #[test]
    fn address_space_is_disjoint_and_aligned() {
        let mut s = AddressSpace::new();
        let a = s.alloc(100);
        let b = s.alloc(8);
        assert_eq!(a % 256, 0);
        assert_eq!(b % 256, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn contiguous_warp_load_touches_four_sectors() {
        // 32 lanes x 4 bytes = 128 bytes = 4 sectors of 32 bytes.
        let mut t = tracker(1);
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        assert_eq!(t.sectors, 4);
        assert_eq!(t.l2_misses, 4);
    }

    #[test]
    fn strided_gather_touches_one_sector_per_lane() {
        let mut t = tracker(1);
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        t.access_gather(AccessKind::Load, &addrs, 4);
        assert_eq!(t.sectors, 32);
    }

    #[test]
    fn same_sector_gather_coalesces() {
        let mut t = tracker(1);
        let addrs: Vec<u64> = (0..32).map(|i| (i % 8) * 4).collect();
        t.access_gather(AccessKind::Load, &addrs, 4);
        assert_eq!(t.sectors, 1);
    }

    #[test]
    fn cache_hits_on_reuse_and_misses_beyond_capacity() {
        let mut c = CacheModel::new(1024, 32, 4); // 32 lines
        for s in 0..16u64 {
            assert!(!c.access(s));
        }
        for s in 0..16u64 {
            assert!(c.access(s), "sector {s} should hit");
        }
        // Stream far beyond capacity, then the original sectors are gone.
        for s in 1000..1200u64 {
            c.access(s);
        }
        assert!(!c.access(0));
    }

    #[test]
    fn atomic_conflicts_record_worst_depth() {
        let mut t = tracker(1);
        // 32 lanes all hammering one address: depth 32.
        let addrs = vec![64u64; 32];
        t.atomic_gather(&addrs, 4);
        assert_eq!(t.atomic_conflict_depth, 32);
        assert_eq!(t.atomics, 32);
        // Distinct addresses: depth 1, no replays.
        let mut t2 = tracker(1);
        let addrs2: Vec<u64> = (0..32).map(|i| i * 64).collect();
        t2.atomic_gather(&addrs2, 4);
        assert_eq!(t2.atomic_conflict_depth, 1);
        assert_eq!(t2.per_block()[0].atomic_replays, 0.0);
    }

    #[test]
    fn per_block_accounting_follows_begin_block() {
        let mut t = tracker(2);
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        t.begin_block(1);
        t.access_contig(AccessKind::Store, 4096, 0, 32, 4);
        t.instr(5.0);
        assert_eq!(t.per_block()[0].sectors, 4);
        assert_eq!(t.per_block()[1].sectors, 4);
        assert_eq!(t.per_block()[1].instr, 6.0);
    }

    #[test]
    fn dram_bytes_reflect_misses_only() {
        let mut t = tracker(1);
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        // Second pass within the same block is absorbed by the L1.
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        assert_eq!(t.l2_misses, 4);
        assert_eq!(t.per_block()[0].l1_sectors, 4);
        assert_eq!(t.l2_hits, 0);
        assert_eq!(t.dram_bytes(), 128);
        assert_eq!(t.l2_bytes(), 128);
    }

    #[test]
    fn block_switch_flushes_the_l1_but_not_the_l2() {
        let mut t = tracker(2);
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        t.begin_block(1);
        t.access_contig(AccessKind::Load, 0, 0, 32, 4);
        // The new block misses its (fresh) L1 but hits the shared L2.
        assert_eq!(t.per_block()[1].l1_sectors, 0);
        assert_eq!(t.l2_hits, 4);
        assert_eq!(t.l2_misses, 4);
    }

    #[test]
    fn atomics_bypass_the_l1() {
        let mut t = tracker(1);
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        t.atomic_gather(&addrs, 4);
        t.atomic_gather(&addrs, 4); // repeats still reach the L2
        assert_eq!(t.per_block()[0].l1_sectors, 0);
        assert_eq!(t.l2_hits, 4);
    }
}
