//! Roofline curves (Williams et al.): `attainable(OI) = min(peak, OI x BW)`
//! with one line per bandwidth ceiling, plus the kernel OI marks the paper
//! overlays in Figure 3.

use crate::ert::ErtReport;
use crate::platform::Platform;

/// One bandwidth ceiling of a roofline plot.
#[derive(Debug, Clone)]
pub struct Ceiling {
    /// Label ("DRAM (theoretical)", "ERT-DRAM", "ERT-LLC", …).
    pub name: String,
    /// Bandwidth in GB/s.
    pub gbs: f64,
}

/// A roofline model for one machine.
#[derive(Debug, Clone)]
pub struct Roofline {
    /// Machine label.
    pub name: String,
    /// Peak single-precision GFLOPS.
    pub peak_gflops: f64,
    /// Bandwidth ceilings, fastest first. The *last* entry is the ERT-DRAM
    /// line the paper computes its "Roofline performance" bounds from.
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    /// Build from a Table 4 platform entry: theoretical DRAM plus the
    /// modeled ERT-DRAM ceiling.
    pub fn from_platform(p: &Platform) -> Self {
        Roofline {
            name: p.name.to_string(),
            peak_gflops: p.peak_sp_gflops(),
            ceilings: vec![
                Ceiling {
                    name: "DRAM (theoretical)".into(),
                    gbs: p.mem_bw_gbs,
                },
                Ceiling {
                    name: "ERT-DRAM".into(),
                    gbs: p.ert_dram_gbs,
                },
            ],
        }
    }

    /// Build from a live ERT measurement of the host.
    pub fn from_ert(name: &str, r: &ErtReport) -> Self {
        Roofline {
            name: name.to_string(),
            peak_gflops: r.peak_gflops,
            ceilings: vec![
                Ceiling {
                    name: "ERT-cache".into(),
                    gbs: r.cache_gbs,
                },
                Ceiling {
                    name: "ERT-DRAM".into(),
                    gbs: r.dram_gbs,
                },
            ],
        }
    }

    /// The ERT-DRAM bandwidth (last ceiling).
    pub fn ert_dram_gbs(&self) -> f64 {
        self.ceilings.last().map_or(0.0, |c| c.gbs)
    }

    /// Attainable GFLOPS at operational intensity `oi` under ceiling `c`.
    pub(crate) fn attainable(&self, oi: f64, ceiling: usize) -> f64 {
        (oi * self.ceilings[ceiling].gbs).min(self.peak_gflops)
    }

    /// Attainable GFLOPS under the ERT-DRAM ceiling — the paper's "Roofline
    /// performance".
    pub fn attainable_dram(&self, oi: f64) -> f64 {
        (oi * self.ert_dram_gbs()).min(self.peak_gflops)
    }

    /// Log-spaced `(oi, gflops)` samples of one ceiling's roofline between
    /// `oi_min` and `oi_max` — the plotting series for Figure 3.
    pub fn series(&self, ceiling: usize, oi_min: f64, oi_max: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(oi_min > 0.0 && oi_max > oi_min && n >= 2);
        let l0 = oi_min.ln();
        let l1 = oi_max.ln();
        (0..n)
            .map(|i| {
                let oi = (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp();
                (oi, self.attainable(oi, ceiling))
            })
            .collect()
    }
}

/// Roofline annotation of one *measured* kernel execution: the achieved
/// rate placed against the model (the instrumented-counter analogue of the
/// paper's "Roofline performance" bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Achieved {
    /// Achieved GFLOPS (`flops / secs / 1e9`).
    pub gflops: f64,
    /// Measured operational intensity (`flops / bytes`).
    pub oi: f64,
    /// Attainable GFLOPS at this OI under the ERT-DRAM ceiling.
    pub bound_gflops: f64,
    /// Which roof binds at this OI: `"memory"` below the ERT-DRAM ridge
    /// point, `"compute"` at or above it.
    pub bound_by: &'static str,
    /// Achieved rate as a percentage of the binding roof.
    pub pct_of_roof: f64,
}

impl Roofline {
    /// Annotate a measured `(flops, bytes, secs)` triple — typically the
    /// per-call deltas of the obs `kernel.flops` / `kernel.bytes` counters
    /// around a timed kernel invocation.
    pub fn annotate(&self, flops: u64, bytes: u64, secs: f64) -> Achieved {
        let gflops = if secs > 0.0 {
            flops as f64 / secs / 1e9
        } else {
            0.0
        };
        // OI is undefined with no traffic. Report 0 rather than a
        // non-finite value: zero-work cells (empty tensors) land here, and
        // every downstream JSON writer needs finite fields.
        let oi = if bytes > 0 {
            flops as f64 / bytes as f64
        } else {
            0.0
        };
        let bound_gflops = self.attainable_dram(oi);
        let bound_by = if oi * self.ert_dram_gbs() < self.peak_gflops {
            "memory"
        } else {
            "compute"
        };
        let pct_of_roof = if bound_gflops > 0.0 {
            100.0 * gflops / bound_gflops
        } else {
            0.0
        };
        Achieved {
            gflops,
            oi,
            bound_gflops,
            bound_by,
            pct_of_roof,
        }
    }
}

/// The asymptotic kernel OI marks of Figure 3 (from Table 1).
pub fn kernel_oi_marks() -> Vec<(&'static str, f64)> {
    vec![
        ("Tew", 1.0 / 12.0),
        ("Ts", 1.0 / 8.0),
        ("Ttv", 1.0 / 6.0),
        ("Mttkrp", 1.0 / 4.0),
        ("Ttm", 1.0 / 2.0),
    ]
}

#[cfg(test)]
mod tests {
    use crate::platform::find;

    use super::*;

    #[test]
    fn attainable_is_min_of_bw_and_peak() {
        let r = Roofline::from_platform(find("Bluesky").unwrap());
        // At tiny OI the bandwidth line rules.
        let low = r.attainable_dram(1.0 / 12.0);
        assert!((low - 205.0 / 12.0).abs() < 1e-9);
        // At huge OI the compute roof rules.
        assert_eq!(r.attainable_dram(1e9), 1000.0);
    }

    #[test]
    fn every_tensor_kernel_is_memory_bound_on_all_platforms() {
        // The paper's Figure 3 conclusion: "all of the sparse tensor kernels
        // we consider are main or global memory bound".
        for p in crate::platform::PLATFORMS {
            let r = Roofline::from_platform(p);
            for (name, oi) in kernel_oi_marks() {
                // The ridge point: the OI at which DRAM reaches the roof.
                assert!(
                    oi < r.peak_gflops / r.ceilings[1].gbs,
                    "{name} on {} would be compute bound",
                    p.name
                );
            }
        }
    }

    #[test]
    fn series_is_monotone_nondecreasing() {
        let r = Roofline::from_platform(find("DGX-1V").unwrap());
        let s = r.series(1, 0.01, 100.0, 32);
        assert_eq!(s.len(), 32);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn oi_marks_are_ordered_as_in_figure3() {
        let marks = kernel_oi_marks();
        for w in marks.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn annotate_places_measurements_against_the_model() {
        let r = Roofline::from_platform(find("Bluesky").unwrap());
        // Memory-bound: Mttkrp-like OI of 1/4 at some achieved rate.
        let a = r.annotate(1_000_000_000, 4_000_000_000, 0.1);
        assert_eq!(a.gflops, 10.0);
        assert!((a.oi - 0.25).abs() < 1e-12);
        assert_eq!(a.bound_by, "memory");
        assert!((a.bound_gflops - 0.25 * r.ert_dram_gbs()).abs() < 1e-9);
        assert!((a.pct_of_roof - 100.0 * 10.0 / a.bound_gflops).abs() < 1e-9);
        // Compute-bound: huge OI pins the bound to the peak.
        let c = r.annotate(u64::MAX, 1, 1.0);
        assert_eq!(c.bound_by, "compute");
        assert_eq!(c.bound_gflops, r.peak_gflops);
        // Degenerate inputs don't divide by zero, and every field stays
        // finite so reports built from zero-work cells remain valid JSON.
        let z = r.annotate(100, 0, 0.0);
        assert_eq!(z.gflops, 0.0);
        assert_eq!(z.oi, 0.0);
        assert!(z.bound_gflops.is_finite());
        assert!(z.pct_of_roof.is_finite());
    }

    #[test]
    fn from_ert_uses_measured_numbers() {
        let fake = ErtReport {
            points: vec![],
            dram_gbs: 42.0,
            cache_gbs: 100.0,
            peak_gflops: 500.0,
            threads: 4,
        };
        let r = Roofline::from_ert("host", &fake);
        assert_eq!(r.ert_dram_gbs(), 42.0);
        assert_eq!(r.attainable_dram(1.0), 42.0);
        assert_eq!(r.peak_gflops, 500.0);
    }
}
