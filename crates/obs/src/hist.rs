//! Streaming log-bucketed histogram for latency percentiles.
//!
//! [`LogHistogram`] replaces materialized per-request latency vectors in
//! the serving report: memory is a fixed array of bucket counts no matter
//! how many samples arrive (the stress overload burst used to grow a
//! `Vec<f64>` per request). Buckets are logarithmic — [`SUB_BUCKETS`]
//! per octave (power of two) across [`LO_MS`]..[`HI_MS`] — so any
//! reported percentile is within a relative bucket error of
//! `2^(1/SUB_BUCKETS) - 1` (~9%) of the exact order statistic, which the
//! test suite asserts against exact percentiles.

use std::fmt::Write as _;

use crate::json::json_f64;

/// Sub-buckets per factor-of-two; bounds relative error at ~9%.
pub(crate) const SUB_BUCKETS: usize = 8;
/// Lower edge of the bucketed range (1 µs as milliseconds); smaller
/// samples clamp into the first bucket.
pub(crate) const LO_MS: f64 = 0.001;
/// Upper edge of the bucketed range (10 minutes as milliseconds); larger
/// samples clamp into the last bucket.
pub(crate) const HI_MS: f64 = 600_000.0;

/// log2(HI/LO) ≈ 29.2 octaves, rounded up.
const OCTAVES: usize = 30;
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Sub-bucket upper edges within one octave: `2^(j/SUB_BUCKETS)` for
/// `j = 1..SUB_BUCKETS` (the last edge, 2.0, is implied by the octave).
static SUB_EDGES: std::sync::LazyLock<[f64; SUB_BUCKETS - 1]> = std::sync::LazyLock::new(|| {
    std::array::from_fn(|j| 2f64.powf((j + 1) as f64 / SUB_BUCKETS as f64))
});

/// A bounded-memory latency histogram with log-spaced buckets.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> LogHistogram {
        LogHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket(value_ms: f64) -> usize {
        let clamped = value_ms.clamp(LO_MS, HI_MS);
        // `clamped / LO_MS` is exact for samples sitting on an octave
        // edge (LO_MS · 2^k shares LO_MS's mantissa, so the quotient is
        // exactly 2^k), but `log2().floor()` is not: libm rounding can
        // land such a sample one bucket off. Take the octave straight
        // from the exponent bits instead, then place the mantissa within
        // the octave against the precomputed sub-bucket edges.
        let ratio = clamped / LO_MS;
        debug_assert!(ratio >= 1.0);
        let bits = ratio.to_bits();
        let octave = ((bits >> 52) & 0x7ff) as usize - 1023;
        // Mantissa restored to [1, 2): the fractional position in the octave.
        let mantissa = f64::from_bits((bits & ((1u64 << 52) - 1)) | (1023u64 << 52));
        // Edges 2^(j/S) for j = 1..S; mantissa < edge[j-1] ⇒ sub-bucket j-1.
        let mut sub = SUB_BUCKETS - 1;
        for (j, &edge) in SUB_EDGES.iter().enumerate() {
            if mantissa < edge {
                sub = j;
                break;
            }
        }
        (octave * SUB_BUCKETS + sub).min(BUCKETS - 1)
    }

    /// The geometric midpoint a bucket reports for its samples.
    fn bucket_mid(idx: usize) -> f64 {
        // Bucket idx spans [LO·2^(idx/S), LO·2^((idx+1)/S)).
        LO_MS * 2f64.powf((idx as f64 + 0.5) / SUB_BUCKETS as f64)
    }

    /// Record one sample (milliseconds). Non-finite samples are ignored.
    pub fn record(&mut self, value_ms: f64) {
        if !value_ms.is_finite() {
            return;
        }
        self.counts[Self::bucket(value_ms)] += 1;
        self.count += 1;
        self.sum += value_ms;
        self.min = self.min.min(value_ms);
        self.max = self.max.max(value_ms);
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (tracked outside the buckets).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample, or 0 when empty.
    pub(crate) fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (0..=100): the bucket midpoint of the sample
    /// at the same rank the exact report used (`round(p/100·(n-1))`),
    /// clamped to the exact observed min/max so extreme percentiles never
    /// leave the sampled range. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Serialize as a JSON object: summary stats plus the non-empty
    /// buckets as `[lo_ms, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"count\":{},\"mean_ms\":{},\"min_ms\":{},\"max_ms\":{},\"buckets\":[",
            self.count,
            json_f64(self.mean()),
            json_f64(self.min()),
            json_f64(self.max())
        );
        let mut first = true;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let lo = LO_MS * 2f64.powf(idx as f64 / SUB_BUCKETS as f64);
            let _ = write!(out, "[{},{}]", json_f64(lo), c);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }

    /// Max relative error of a bucketed percentile: one bucket's width.
    const BUCKET_ERR: f64 = 0.095; // 2^(1/8) - 1 ≈ 0.0905, plus slack

    #[test]
    fn percentiles_match_exact_within_bucket_error() {
        // A skewed latency-like distribution spanning several decades.
        let mut vals: Vec<f64> = (0..10_000)
            .map(|i| {
                let j = (i as u64).wrapping_mul(2654435761) % 10_000;
                0.05 + (j as f64 / 10_000.0).powi(4) * 900.0
            })
            .collect();
        let mut h = LogHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = exact_percentile(&vals, p);
            let approx = h.percentile(p);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= BUCKET_ERR,
                "p{p}: approx {approx} vs exact {exact} (rel err {rel:.4})"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.max() - vals[vals.len() - 1]).abs() < 1e-12);
        assert!((h.min() - vals[0]).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.max(), 0.0);
        h.record(3.5);
        // One sample: every percentile clamps to the exact value.
        assert_eq!(h.percentile(0.0), 3.5);
        assert_eq!(h.percentile(50.0), 3.5);
        assert_eq!(h.percentile(100.0), 3.5);
        assert_eq!(h.mean(), 3.5);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for i in 0..1000 {
            let v = 0.01 * (i as f64 + 1.0);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for p in [10.0, 50.0, 95.0] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
        assert_eq!(a.max(), c.max());
    }

    #[test]
    fn octave_edges_land_in_their_own_bucket() {
        // A sample at exactly LO_MS · 2^k opens octave k: bucket
        // k·SUB_BUCKETS, never one off. The old log2().floor() bucketing
        // could misplace these by a bucket when libm rounded the log down.
        for k in 0..OCTAVES {
            let v = LO_MS * (k as f64).exp2();
            let got = LogHistogram::bucket(v.min(HI_MS));
            let want = (k * SUB_BUCKETS).min(BUCKETS - 1);
            assert_eq!(got, want, "LO_MS · 2^{k} bucketed at {got}, want {want}");
            // Just below the edge stays in the previous octave's last
            // sub-bucket; just above stays in this one.
            if k > 0 && v < HI_MS {
                let below = LogHistogram::bucket(v * (1.0 - 1e-12));
                assert_eq!(below, want - 1, "below edge 2^{k}");
                let above = LogHistogram::bucket(v * (1.0 + 1e-12));
                assert_eq!(above, want, "above edge 2^{k}");
            }
        }
        // The clamping extremes collapse onto the buckets holding LO/HI.
        assert_eq!(LogHistogram::bucket(0.0), 0);
        assert_eq!(
            LogHistogram::bucket(HI_MS * 10.0),
            LogHistogram::bucket(HI_MS)
        );
    }

    #[test]
    fn bucket_matches_reported_span() {
        // Every in-range bucket's reported midpoint must bucket back to
        // itself: the placement function and the reporting span agree.
        for idx in 0..BUCKETS {
            let mid = LogHistogram::bucket_mid(idx);
            if mid > HI_MS {
                break; // past the clamp range, midpoints collapse onto HI
            }
            assert_eq!(LogHistogram::bucket(mid), idx);
        }
    }

    #[test]
    fn merge_with_empty_side_pins_min_max() {
        let mut filled = LogHistogram::new();
        filled.record(2.0);
        filled.record(8.0);
        // Merging an empty histogram in must not disturb anything —
        // in particular the empty side's ±inf min/max sentinels must not
        // leak into the totals.
        filled.merge(&LogHistogram::new());
        assert_eq!(filled.count(), 2);
        assert_eq!(filled.min(), 2.0);
        assert_eq!(filled.max(), 8.0);
        assert_eq!(filled.mean(), 5.0);
        // Merging into an empty histogram adopts the other side exactly.
        let mut empty = LogHistogram::new();
        empty.merge(&filled);
        assert_eq!(empty.count(), 2);
        assert_eq!(empty.min(), 2.0);
        assert_eq!(empty.max(), 8.0);
        assert_eq!(empty.percentile(50.0), filled.percentile(50.0));
        // Two empties stay empty (and report zeros, not sentinels).
        let mut a = LogHistogram::new();
        a.merge(&LogHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
    }

    #[test]
    fn out_of_range_clamps_and_json_parses() {
        let mut h = LogHistogram::new();
        h.record(1e-9);
        h.record(1e9);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        let doc = crate::json::Value::parse(&h.to_json()).expect("hist JSON parses");
        assert_eq!(
            doc.get("count").and_then(crate::json::Value::as_f64),
            Some(2.0)
        );
    }
}
