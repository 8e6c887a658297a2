//! An Empirical Roofline Tool (ERT) work-alike (paper §5.2).
//!
//! The paper uses ERT micro-kernels ("similar to STREAM") to measure each
//! machine's obtainable bandwidth at every memory level. This module does
//! the same for the host: a parallel triad kernel (`a[i] = b[i]*s + c[i]`)
//! is swept across working-set sizes, yielding cache bandwidth at small
//! sizes and DRAM bandwidth at the plateau, plus a register-resident FMA
//! chain for the peak single-precision rate.

use std::hint::black_box;
use std::time::Instant;

use tenbench_core::par::{self, Schedule};

/// Configuration for one ERT run.
#[derive(Debug, Clone)]
pub struct ErtConfig {
    /// Smallest working set in bytes (sampled per power of two).
    pub(crate) min_working_set: usize,
    /// Largest working set in bytes.
    pub(crate) max_working_set: usize,
    /// Trials per point; the best (highest-bandwidth) trial is kept, as in
    /// STREAM.
    pub(crate) trials: usize,
    /// Approximate measurement time per point in seconds.
    pub(crate) target_seconds: f64,
}

impl Default for ErtConfig {
    fn default() -> Self {
        ErtConfig {
            min_working_set: 64 << 10,
            max_working_set: 256 << 20,
            trials: 3,
            target_seconds: 0.08,
        }
    }
}

impl ErtConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ErtConfig {
            min_working_set: 64 << 10,
            max_working_set: 8 << 20,
            trials: 1,
            target_seconds: 0.01,
        }
    }
}

/// One measured bandwidth point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Total working set in bytes (three arrays combined).
    pub bytes: usize,
    /// Measured bandwidth in GB/s.
    pub gbs: f64,
}

/// The result of an ERT run.
#[derive(Debug, Clone)]
pub struct ErtReport {
    /// Bandwidth per working-set size, ascending.
    pub points: Vec<BandwidthPoint>,
    /// Obtainable DRAM bandwidth (median of the largest working sets).
    pub dram_gbs: f64,
    /// Obtainable cache bandwidth (best small-working-set point).
    pub cache_gbs: f64,
    /// Peak single-precision GFLOPS from the FMA chain kernel.
    pub peak_gflops: f64,
    /// Worker threads used.
    pub threads: usize,
}

/// Run the bandwidth sweep and peak measurement.
pub fn run(config: &ErtConfig) -> ErtReport {
    let threads = par::current_threads().max(1);
    let mut points = Vec::new();
    let mut ws = config.min_working_set.max(12 * threads * 64);
    while ws <= config.max_working_set {
        points.push(BandwidthPoint {
            bytes: ws,
            gbs: measure_triad(ws, config),
        });
        ws *= 2;
    }
    let dram_gbs = {
        let tail: Vec<f64> = points
            .iter()
            .rev()
            .take(3.min(points.len()))
            .map(|p| p.gbs)
            .collect();
        median(&tail)
    };
    let cache_gbs = points
        .iter()
        .take(3.min(points.len()))
        .map(|p| p.gbs)
        .fold(0.0f64, f64::max);
    let peak_gflops = measure_peak(config);
    ErtReport {
        points,
        dram_gbs,
        cache_gbs,
        peak_gflops,
        threads,
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if s.is_empty() {
        0.0
    } else {
        s[s.len() / 2]
    }
}

/// Triad over a combined working set of `ws` bytes; returns GB/s.
fn measure_triad(ws: usize, config: &ErtConfig) -> f64 {
    let n = (ws / (3 * 4)).max(1024); // three f32 arrays
    let mut a = vec![0.0f32; n];
    let b = vec![1.5f32; n];
    let c = vec![0.5f32; n];
    let s = 2.0f32;

    // Calibrate repetitions to roughly target_seconds.
    let bytes_per_pass = (n * 12) as f64;
    let assumed_gbs = 20.0e9; // conservative first guess
    let mut reps = ((config.target_seconds * assumed_gbs) / bytes_per_pass).ceil() as usize;
    reps = reps.clamp(2, 1_000_000);

    let chunk = n.div_ceil(par::current_threads().max(1)).max(1024);
    let mut best = 0.0f64;
    for _ in 0..config.trials.max(1) {
        let t0 = Instant::now();
        for _ in 0..reps {
            par::chunks_mut(&mut a, chunk, Schedule::DYNAMIC, |k, ac| {
                let (bc, cc) = (&b[k * chunk..][..ac.len()], &c[k * chunk..][..ac.len()]);
                for i in 0..ac.len() {
                    ac[i] = bc[i] * s + cc[i];
                }
            });
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(&a);
        let gbs = bytes_per_pass * reps as f64 / dt / 1e9;
        best = best.max(gbs);
    }
    best
}

/// Register-resident FMA chains; returns GFLOPS.
fn measure_peak(config: &ErtConfig) -> f64 {
    let threads = par::current_threads().max(1);
    let iters: u64 = (config.target_seconds * 2.0e9).max(1.0e6) as u64;
    let t0 = Instant::now();
    // Once per logical worker.
    let sums: f64 = par::map_collect(threads, 1, |t| {
        let mut x = [1.0f32 + t as f32 * 1e-3; 8];
        let a = 1.000001f32;
        let b = 1e-7f32;
        for _ in 0..iters {
            for xi in &mut x {
                *xi = *xi * a + b;
            }
        }
        x.iter().map(|&v| v as f64).sum::<f64>()
    })
    .into_iter()
    .sum();
    let dt = t0.elapsed().as_secs_f64();
    black_box(sums);
    // 8 chains x 2 flops per iteration per thread.
    (threads as u64 * iters * 16) as f64 / dt / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_sane_report() {
        let r = run(&ErtConfig::quick());
        assert!(!r.points.is_empty());
        assert!(r.dram_gbs > 0.0);
        assert!(r.cache_gbs > 0.0);
        assert!(r.peak_gflops > 0.0);
        assert!(r.threads >= 1);
        // Points ascend in working-set size.
        for w in r.points.windows(2) {
            assert!(w[0].bytes < w[1].bytes);
        }
    }

    #[test]
    fn bandwidth_is_physically_plausible() {
        let r = run(&ErtConfig::quick());
        // Between 0.1 GB/s (something is very wrong) and 10 TB/s (ditto).
        assert!(r.dram_gbs > 0.1 && r.dram_gbs < 10_000.0, "{}", r.dram_gbs);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
