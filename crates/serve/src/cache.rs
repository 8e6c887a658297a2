//! The format/schedule cache: tensor fingerprint → prepared artifacts.
//!
//! A serving workload re-submits the same tensors over and over (the
//! stress generator models this with Zipf-skewed popularity), and the
//! expensive part of a request is not the kernel — it is the COO→HiCOO
//! conversion, the factor-matrix allocation, and the mode schedules. This
//! cache keys those artifacts by [`CooTensor::fingerprint`] so repeated
//! requests skip preparation entirely.
//!
//! Eviction is byte-budgeted LRU: entries are charged for the bytes the
//! cache materialized (HiCOO storage + factor matrices), and inserting
//! past the budget evicts from the cold end until the total fits. The
//! entry just inserted is never evicted, so a single over-budget tensor
//! still serves its own batch.
//!
//! Mode schedules are not stored here directly: they live on the tensors
//! they were built for (`tenbench_core::sched`), so the first scheduled
//! call on `Prepared::hicoo` builds them, every later hit on the entry
//! reuses them, and they are dropped with the entry.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::hicoo::HicooTensor;
use tenbench_obs::flight::{self, FlightKind};

/// The one blocked layout the cache materializes. Named by
/// `benchmark/src/serve.rs`; the next `benchmark` PR removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrepLayout {
    /// Plain HiCOO value storage.
    #[default]
    Hicoo,
}

/// Cache key: content fingerprint plus the preparation parameters that
/// change the artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`CooTensor::fingerprint`] of the request tensor.
    pub fingerprint: u64,
    /// HiCOO block bits used for the conversion.
    pub block_bits: u8,
    /// Factor-matrix rank (0 for the rank-free kernels, which then share
    /// one entry per tensor).
    pub rank: usize,
    /// Always `Hicoo`; the next `benchmark` PR removes it.
    pub layout: PrepLayout,
}

/// The artifacts prepared once per cached tensor.
#[derive(Debug)]
pub struct Prepared {
    /// The request tensor, retained so the cache entry owns its inputs.
    pub coo: Arc<CooTensor<f32>>,
    /// The HiCOO conversion.
    pub hicoo: Arc<HicooTensor<f32>>,
    /// Always `None`; the next `benchmark` PR removes it.
    pub vb: Option<std::convert::Infallible>,
    /// Per-mode factor matrices of the key's rank (empty when rank is 0).
    pub factors: Arc<Vec<DenseMatrix<f32>>>,
    /// Bytes this entry charges against the budget (HiCOO + factors; the
    /// COO `Arc` is shared with the caller and not counted).
    pub bytes: u64,
}

/// Counter snapshot for reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to prepare artifacts.
    pub misses: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Fingerprint collisions detected on lookup: the key matched but the
    /// stored tensor's content did not. Served as keyed-aside misses,
    /// never as another tensor's artifacts.
    pub collisions: u64,
    /// Entries resident right now.
    pub entries: usize,
    /// Bytes resident right now.
    pub bytes: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    /// LRU order: coldest at index 0, hottest at the end.
    entries: Vec<(CacheKey, Arc<Prepared>)>,
    /// Bytes charged by every resident entry. Maintained on insert and
    /// evict so the eviction sweep and `stats()` never re-sum the table.
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl Inner {
    /// Evict coldest-first until the tracked bytes fit `budget`, sparing
    /// the hottest entry so a single over-budget tensor still serves.
    fn evict_to_budget(&mut self, budget: u64) {
        while self.entries.len() > 1 && self.bytes > budget {
            let (evicted_key, evicted) = self.entries.remove(0);
            self.bytes -= evicted.bytes;
            self.evictions += 1;
            flight::note(FlightKind::CacheEvict, evicted_key.fingerprint);
        }
    }
}

/// What a keyed lookup found once the stored tensor was checked against
/// the request tensor.
enum Lookup {
    /// Key resident and content verified: a true hit.
    Hit(Arc<Prepared>),
    /// Key resident but the stored tensor differs: a fingerprint
    /// collision. The resident entry stays; the request is served aside.
    Collision,
    /// Key not resident.
    Miss,
}

/// Whether `a` and `b` hold the same tensor, bit for bit. Compared
/// field-wise rather than via `PartialEq` so the check is insensitive to
/// incidental state (and exact on NaN payloads): shape, then per-mode
/// index arrays, then value bit patterns.
fn same_content(a: &CooTensor<f32>, b: &CooTensor<f32>) -> bool {
    if a.shape().dims() != b.shape().dims() || a.nnz() != b.nnz() {
        return false;
    }
    if (0..a.order()).any(|m| a.mode_inds(m) != b.mode_inds(m)) {
        return false;
    }
    a.vals()
        .iter()
        .zip(b.vals())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The keyed LRU cache with byte-budget eviction.
pub struct PrepCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl PrepCache {
    /// Lock the cache state, recovering from poisoning. Mutations under
    /// this lock are position lookups plus `Vec` insert/remove — each
    /// leaves the entry list consistent at every unwind point, so a guard
    /// poisoned by a panicking worker is safe to keep using and one bad
    /// request cannot take the cache down with it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A cache evicting past `budget_bytes` of materialized artifacts.
    pub fn new(budget_bytes: u64) -> Self {
        PrepCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                collisions: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Look up `key`, preparing (HiCOO conversion + factors) on a miss.
    /// Returns the entry and whether it was a hit. Preparation runs
    /// outside the lock so a slow conversion does not stall hits.
    ///
    /// A hit is only served after the stored tensor is verified against
    /// `coo` (`Arc::ptr_eq` fast path, full content comparison otherwise):
    /// the 64-bit strided-sample fingerprint can collide across distinct
    /// tensors, and serving the resident entry then would hand the caller
    /// another tensor's artifacts. A verified mismatch is a keyed-aside
    /// miss — the artifacts are prepared and returned but never inserted,
    /// so the resident entry keeps its key and neither tensor corrupts
    /// the other.
    pub fn get_or_prepare(
        &self,
        key: CacheKey,
        coo: &Arc<CooTensor<f32>>,
    ) -> Result<(Arc<Prepared>, bool), String> {
        let mut collided = false;
        match self.touch(key, coo) {
            Lookup::Hit(found) => {
                // Charged to the worker's installed request ctx, so a
                // fault dump shows whether the failing request was hot.
                flight::note(FlightKind::CacheHit, key.fingerprint);
                return Ok((found, true));
            }
            Lookup::Collision => collided = true,
            Lookup::Miss => {}
        }
        flight::note(FlightKind::CacheMiss, key.fingerprint);
        let _span = tenbench_obs::span!("serve.prepare");
        let hicoo = Arc::new(
            HicooTensor::from_coo(coo.as_ref(), key.block_bits)
                .map_err(|e| format!("conversion: {e}"))?,
        );
        let factors: Vec<DenseMatrix<f32>> = if key.rank == 0 {
            Vec::new()
        } else {
            (0..coo.order())
                .map(|m| {
                    DenseMatrix::from_fn(coo.shape().dim(m) as usize, key.rank, |i, j| {
                        (((i * 31 + j * 17 + m * 7) % 1000) as f32) * 1e-3
                    })
                })
                .collect()
        };
        let bytes = hicoo.storage_bytes() + factors.iter().map(|f| f.storage_bytes()).sum::<u64>();
        let prepared = Arc::new(Prepared {
            coo: coo.clone(),
            hicoo,
            vb: None,
            factors: Arc::new(factors),
            bytes,
        });
        let mut g = self.lock();
        g.misses += 1;
        // A detected collision never inserts: the resident entry owns the
        // key, and this request is served from its own freshly prepared
        // artifacts.
        if collided {
            return Ok((prepared, false));
        }
        // Another worker may have prepared the same key while we did; use
        // the resident entry, whose tensors may already carry schedules —
        // but only after the same content check a hit gets, since the
        // racing insert may belong to a colliding tensor.
        if let Some(at) = g.entries.iter().position(|(k, _)| *k == key) {
            if Arc::ptr_eq(&g.entries[at].1.coo, coo) || same_content(&g.entries[at].1.coo, coo) {
                let entry = g.entries.remove(at);
                let found = entry.1.clone();
                g.entries.push(entry);
                // The race loser's artifacts are dropped; budget pressure
                // may still need relief from earlier over-admissions.
                g.evict_to_budget(self.budget);
                return Ok((found, false));
            }
            g.collisions += 1;
            return Ok((prepared, false));
        }
        g.entries.push((key, prepared.clone()));
        g.bytes += prepared.bytes;
        g.evict_to_budget(self.budget);
        Ok((prepared, false))
    }

    fn touch(&self, key: CacheKey, coo: &Arc<CooTensor<f32>>) -> Lookup {
        let mut g = self.lock();
        let Some(at) = g.entries.iter().position(|(k, _)| *k == key) else {
            return Lookup::Miss;
        };
        // Fast path: the service re-submits the same `Arc` for repeated
        // requests; fall back to a full content comparison when the bytes
        // arrived over the wire in a fresh allocation.
        if !Arc::ptr_eq(&g.entries[at].1.coo, coo) && !same_content(&g.entries[at].1.coo, coo) {
            g.collisions += 1;
            return Lookup::Collision;
        }
        let entry = g.entries.remove(at);
        let found = entry.1.clone();
        g.entries.push(entry);
        g.hits += 1;
        Lookup::Hit(found)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        debug_assert_eq!(
            g.bytes,
            g.entries.iter().map(|(_, p)| p.bytes).sum::<u64>(),
            "tracked bytes drifted from the entry table"
        );
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            collisions: g.collisions,
            entries: g.entries.len(),
            bytes: g.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenbench_core::shape::Shape;

    fn tensor(seed: u32) -> Arc<CooTensor<f32>> {
        Arc::new(
            CooTensor::from_entries(
                Shape::new(vec![32, 32, 32]),
                (0..300u32)
                    .map(|i| {
                        (
                            vec![(i * 7 + seed) % 32, (i * 13) % 32, (i * 29 + seed) % 32],
                            (i + seed) as f32,
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        )
    }

    fn key_of(x: &CooTensor<f32>, rank: usize) -> CacheKey {
        CacheKey {
            fingerprint: x.fingerprint(),
            block_bits: 4,
            rank,
            layout: PrepLayout::Hicoo,
        }
    }

    #[test]
    fn second_lookup_hits_and_returns_same_buffers() {
        let cache = PrepCache::new(64 << 20);
        let x = tensor(1);
        let (a, hit_a) = cache.get_or_prepare(key_of(&x, 8), &x).unwrap();
        let (b, hit_b) = cache.get_or_prepare(key_of(&x, 8), &x).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        // Identical Arc, so the hit also reuses any schedules it carries.
        assert!(Arc::ptr_eq(&a.hicoo, &b.hicoo));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let x1 = tensor(1);
        let x2 = tensor(2);
        let x3 = tensor(3);
        let one_entry = {
            let probe = PrepCache::new(u64::MAX);
            probe.get_or_prepare(key_of(&x1, 4), &x1).unwrap();
            probe.stats().bytes
        };
        // Room for two entries, not three.
        let cache = PrepCache::new(one_entry * 2 + one_entry / 2);
        cache.get_or_prepare(key_of(&x1, 4), &x1).unwrap();
        cache.get_or_prepare(key_of(&x2, 4), &x2).unwrap();
        cache.get_or_prepare(key_of(&x3, 4), &x3).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // x1 was coldest; re-fetching it is a miss, x3 is still a hit.
        let (_, hit3) = cache.get_or_prepare(key_of(&x3, 4), &x3).unwrap();
        assert!(hit3);
        let (_, hit1) = cache.get_or_prepare(key_of(&x1, 4), &x1).unwrap();
        assert!(!hit1);
    }

    /// Two distinct tensors whose fingerprints collide: with 2048
    /// nonzeros the fingerprint samples every other position, so a value
    /// change at (unsampled) position 1 is invisible to the hash.
    fn collision_pair() -> (Arc<CooTensor<f32>>, Arc<CooTensor<f32>>) {
        let n = 2048usize;
        let inds: Vec<Vec<u32>> = vec![
            (0..n).map(|i| (i % 32) as u32).collect(),
            (0..n).map(|i| ((i / 32) % 32) as u32).collect(),
            (0..n).map(|i| (i / 1024) as u32).collect(),
        ];
        let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let a = CooTensor::from_parts(Shape::new(vec![32, 32, 32]), inds, vals).unwrap();
        let mut b = a.clone();
        b.vals_mut()[1] = -1.0;
        (Arc::new(a), Arc::new(b))
    }

    #[test]
    fn fingerprint_collision_served_aside_not_as_wrong_tensor() {
        let (a, b) = collision_pair();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "pair must collide for the regression to bite"
        );
        let cache = PrepCache::new(64 << 20);
        let (pa, hit_a) = cache.get_or_prepare(key_of(&a, 4), &a).unwrap();
        assert!(!hit_a);
        assert!(Arc::ptr_eq(&pa.coo, &a));
        // Same key, different tensor: the old cache served `a`'s
        // artifacts here as a hit. It must be a keyed-aside miss built
        // from `b`'s own content.
        let (pb, hit_b) = cache.get_or_prepare(key_of(&b, 4), &b).unwrap();
        assert!(!hit_b, "collision must not be served as a hit");
        assert!(
            Arc::ptr_eq(&pb.coo, &b),
            "collision served the resident tensor's artifacts"
        );
        assert!(!Arc::ptr_eq(&pa.hicoo, &pb.hicoo));
        // The resident entry survives untouched and still hits for `a`.
        let (pa2, hit_a2) = cache.get_or_prepare(key_of(&a, 4), &a).unwrap();
        assert!(hit_a2);
        assert!(Arc::ptr_eq(&pa.hicoo, &pa2.hicoo));
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn content_verified_hit_for_equal_tensor_in_fresh_allocation() {
        // A wire-decoded request re-presents the same tensor in a new
        // `Arc`; the content check must classify that as a hit, not a
        // collision.
        let x = tensor(3);
        let y = Arc::new(x.as_ref().clone());
        assert!(!Arc::ptr_eq(&x, &y));
        let cache = PrepCache::new(64 << 20);
        cache.get_or_prepare(key_of(&x, 4), &x).unwrap();
        let (_, hit) = cache.get_or_prepare(key_of(&y, 4), &y).unwrap();
        assert!(hit);
        assert_eq!(cache.stats().collisions, 0);
    }

    #[test]
    fn bytes_stay_within_budget_across_concurrent_prepares() {
        let one_entry = {
            let probe = PrepCache::new(u64::MAX);
            let x = tensor(100);
            probe.get_or_prepare(key_of(&x, 4), &x).unwrap();
            probe.stats().bytes
        };
        // Room for two entries; eight threads race over four distinct
        // keys so both the fresh-insert and the lost-race path run.
        let cache = Arc::new(PrepCache::new(one_entry * 2 + one_entry / 2));
        let budget = cache.budget_bytes();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let cache = cache.clone();
                s.spawn(move || {
                    for round in 0..6u32 {
                        let x = tensor(100 + (t + round) % 4);
                        cache.get_or_prepare(key_of(&x, 4), &x).unwrap();
                    }
                });
            }
        });
        // `stats()` also debug-asserts tracked bytes == re-summed bytes.
        let s = cache.stats();
        assert!(
            s.bytes <= budget,
            "cache over budget after racing inserts: {} > {}",
            s.bytes,
            budget
        );
        assert!(s.entries <= 2);
        assert!(s.evictions > 0);
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn oversized_entry_still_serves() {
        let cache = PrepCache::new(1);
        let x = tensor(9);
        let (p, _) = cache.get_or_prepare(key_of(&x, 2), &x).unwrap();
        assert!(p.bytes > 1);
        assert_eq!(cache.stats().entries, 1);
    }
}
