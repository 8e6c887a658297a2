//! The benchmark dataset registry: every tensor of the paper's Tables 2
//! and 3, with paper-scale descriptors for printing the tables and
//! laptop-scale surrogate generation for running the experiments.
//!
//! The paper's real-world tensors (FROSTT, HaTen2, CHOA) cannot be shipped
//! — several are tens of gigabytes and `choa` is private medical data — so
//! each `r*` entry generates a seeded power-law surrogate with the same
//! order, mode-size aspect ratios, and dense/sparse mode structure
//! (DESIGN.md §2 documents why this preserves kernel behaviour). The `s*`
//! entries are the paper's own synthetic recipes at reduced scale.

use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;

use crate::kronecker::KroneckerGenerator;
use crate::powerlaw::PowerLawGenerator;

/// Which generator family produces a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatasetKind {
    /// Stochastic Kronecker ("Kron." in Table 3).
    Kronecker,
    /// Biased power law ("PL" in Table 3).
    PowerLaw,
    /// Surrogate for a real-world tensor (Table 2), generated as power law.
    SurrogateReal,
}

/// One benchmark dataset: paper-scale description plus surrogate generation.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Row id as used in the paper's tables ("r1".."r15", "s1".."s15").
    pub id: &'static str,
    /// Tensor name ("vast", "regS", …).
    pub name: &'static str,
    /// Generator family.
    pub(crate) kind: DatasetKind,
    /// Paper-scale dimensions.
    pub paper_dims: &'static [u64],
    /// Paper-scale nonzero count.
    pub paper_nnz: u64,
    /// Power-law exponent used for surrogate generation.
    pub(crate) alpha: f64,
}

/// Dimensions above this stay power-law sparse in surrogates; smaller modes
/// are treated as dense.
const SPARSE_THRESHOLD: u32 = 1000;
/// Bench dimensions: large modes are divided by this factor.
const DIM_DIVISOR: u64 = 64;
/// Large modes are never scaled below this.
const DIM_FLOOR: u64 = 2048;
/// Bench nonzeros: paper nonzeros divided by this, then clamped.
const NNZ_DIVISOR: u64 = 256;
/// Bench nonzero clamp range.
const NNZ_RANGE: (u64, u64) = (20_000, 400_000);

impl Dataset {
    /// Tensor order.
    pub fn order(&self) -> usize {
        self.paper_dims.len()
    }

    /// Paper-scale density.
    pub fn paper_density(&self) -> f64 {
        self.paper_nnz as f64 / self.paper_dims.iter().map(|&d| d as f64).product::<f64>()
    }

    /// Laptop-scale dimensions: modes larger than the floor are divided by
    /// `DIM_DIVISOR` (never below the floor), small modes are preserved so
    /// the dense/sparse mode structure survives.
    pub fn bench_dims(&self) -> Vec<u32> {
        self.paper_dims
            .iter()
            .map(|&d| {
                if d <= DIM_FLOOR {
                    d as u32
                } else {
                    (d / DIM_DIVISOR).max(DIM_FLOOR) as u32
                }
            })
            .collect()
    }

    /// Laptop-scale nonzero count.
    pub fn bench_nnz(&self) -> usize {
        (self.paper_nnz / NNZ_DIVISOR).clamp(NNZ_RANGE.0, NNZ_RANGE.1) as usize
    }

    /// A stable per-dataset seed (so every run of the suite sees the same
    /// tensors without coordinating seeds by hand).
    pub fn default_seed(&self) -> u64 {
        // FNV-1a over the id.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Generate with an explicit nonzero count and seed (`tenbench
    /// paper --scale` multiplies the default count).
    pub fn generate_with(&self, nnz: usize, seed: u64) -> CooTensor<f32> {
        let shape = Shape::new(self.bench_dims());
        match self.kind {
            DatasetKind::Kronecker => KroneckerGenerator::rmat_like(shape, nnz).generate(seed),
            DatasetKind::PowerLaw | DatasetKind::SurrogateReal => {
                PowerLawGenerator::with_threshold(shape, self.alpha, nnz, SPARSE_THRESHOLD)
                    .generate(seed)
            }
        }
    }

    /// Generator label as printed in Table 3 ("Kron." / "PL"), or "surr."
    /// for Table 2 surrogates.
    pub fn gen_label(&self) -> &'static str {
        match self.kind {
            DatasetKind::Kronecker => "Kron.",
            DatasetKind::PowerLaw => "PL",
            DatasetKind::SurrogateReal => "surr.",
        }
    }
}

macro_rules! real {
    ($id:literal, $name:literal, [$($d:literal),+], $nnz:literal) => {
        Dataset {
            id: $id,
            name: $name,
            kind: DatasetKind::SurrogateReal,
            paper_dims: &[$($d),+],
            paper_nnz: $nnz,
            alpha: 1.4,
        }
    };
}

macro_rules! synth {
    ($id:literal, $name:literal, $kind:ident, [$($d:literal),+], $nnz:literal) => {
        Dataset {
            id: $id,
            name: $name,
            kind: DatasetKind::$kind,
            paper_dims: &[$($d),+],
            paper_nnz: $nnz,
            alpha: 1.4,
        }
    };
}

/// Table 2: the paper's real-world tensors (surrogate generation).
pub static REAL_DATASETS: &[Dataset] = &[
    real!("r1", "vast", [165_000, 11_000, 2], 26_000_000),
    real!("r2", "nell2", [12_092, 9_184, 28_818], 77_000_000),
    real!("r3", "choa", [712_329, 9_827, 767], 27_000_000),
    real!("r4", "darpa", [22_476, 22_476, 23_776_223], 28_000_000),
    real!("r5", "fb-m", [23_344_784, 23_344_784, 166], 100_000_000),
    real!("r6", "fb-s", [38_955_429, 38_955_429, 532], 140_000_000),
    real!(
        "r7",
        "flickr",
        [319_686, 28_153_045, 1_607_191],
        113_000_000
    ),
    real!("r8", "deli", [532_924, 17_262_471, 2_480_308], 140_000_000),
    real!(
        "r9",
        "nell1",
        [2_902_330, 2_143_368, 25_495_389],
        144_000_000
    ),
    real!("r10", "crime4d", [6_186, 24, 77, 32], 5_000_000),
    real!("r11", "uber4d", [183, 24, 1_140, 1_717], 3_000_000),
    real!("r12", "nips4d", [2_482, 2_862, 14_036, 17], 3_000_000),
    real!("r13", "enron4d", [6_066, 5_699, 244_268, 1_176], 54_000_000),
    real!(
        "r14",
        "flickr4d",
        [319_686, 28_153_045, 1_607_191, 731],
        113_000_000
    ),
    real!(
        "r15",
        "deli4d",
        [532_924, 17_262_471, 2_480_308, 1_443],
        140_000_000
    ),
];

/// Table 3: the paper's synthetic tensor recipes.
pub static SYNTHETIC_DATASETS: &[Dataset] = &[
    synth!("s1", "regS", Kronecker, [65_536, 65_536, 65_536], 1_100_000),
    synth!(
        "s2",
        "regM",
        Kronecker,
        [1_100_000, 1_100_000, 1_100_000],
        11_500_000
    ),
    synth!(
        "s3",
        "regL",
        Kronecker,
        [8_300_000, 8_300_000, 8_300_000],
        94_000_000
    ),
    synth!("s4", "irrS", PowerLaw, [32_768, 32_768, 76], 1_000_000),
    synth!("s5", "irrM", PowerLaw, [524_288, 524_288, 126], 10_000_000),
    synth!(
        "s6",
        "irrL",
        PowerLaw,
        [4_200_000, 4_200_000, 168],
        84_000_000
    ),
    synth!(
        "s7",
        "regS4d",
        Kronecker,
        [8_192, 8_192, 8_192, 8_192],
        1_000_000
    ),
    synth!(
        "s8",
        "regM4d",
        Kronecker,
        [2_100_000, 2_100_000, 2_100_000, 2_100_000],
        11_200_000
    ),
    synth!(
        "s9",
        "regL4d",
        Kronecker,
        [8_300_000, 8_300_000, 8_300_000, 8_300_000],
        110_000_000
    ),
    synth!(
        "s10",
        "irrS4d",
        PowerLaw,
        [1_600_000, 1_600_000, 1_600_000, 82],
        1_000_000
    ),
    synth!(
        "s11",
        "irrM4d",
        PowerLaw,
        [2_600_000, 2_600_000, 2_600_000, 144],
        10_800_000
    ),
    synth!(
        "s12",
        "irrL4d",
        PowerLaw,
        [4_200_000, 4_200_000, 4_200_000, 226],
        100_000_000
    ),
    synth!(
        "s13",
        "irr2S4d",
        PowerLaw,
        [1_000_000, 1_000_000, 122, 436],
        1_600_000
    ),
    synth!(
        "s14",
        "irr2M4d",
        PowerLaw,
        [4_200_000, 4_200_000, 232, 746],
        19_900_000
    ),
    synth!(
        "s15",
        "irr2L4d",
        PowerLaw,
        [8_300_000, 8_300_000, 952, 324],
        109_000_000
    ),
];

/// Look a dataset up by id ("r3", "s12", …) across both tables.
pub fn find(id: &str) -> Option<&'static Dataset> {
    REAL_DATASETS
        .iter()
        .chain(SYNTHETIC_DATASETS)
        .find(|d| d.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sizes_match_the_paper() {
        assert_eq!(REAL_DATASETS.len(), 15);
        assert_eq!(SYNTHETIC_DATASETS.len(), 15);
    }

    #[test]
    fn orders_match_the_tables() {
        // Table 2: r1-r9 third order, r10-r15 fourth order.
        for d in REAL_DATASETS.iter().take(9) {
            assert_eq!(d.order(), 3, "{}", d.id);
        }
        for d in REAL_DATASETS.iter().skip(9) {
            assert_eq!(d.order(), 4, "{}", d.id);
        }
        // Table 3: s1-s6 third order, s7-s15 fourth order.
        for d in SYNTHETIC_DATASETS.iter().take(6) {
            assert_eq!(d.order(), 3, "{}", d.id);
        }
        for d in SYNTHETIC_DATASETS.iter().skip(6) {
            assert_eq!(d.order(), 4, "{}", d.id);
        }
    }

    #[test]
    fn paper_densities_are_in_table_range() {
        // vast is the densest real tensor (~6.9e-3), deli4d among the
        // sparsest (~4e-15).
        let vast = find("r1").unwrap();
        assert!((vast.paper_density() - 6.9e-3).abs() / 6.9e-3 < 0.1);
        let deli4d = find("r15").unwrap();
        assert!(deli4d.paper_density() < 1e-13);
    }

    #[test]
    fn bench_dims_preserve_small_modes() {
        let vast = find("r1").unwrap();
        let dims = vast.bench_dims();
        assert_eq!(dims[2], 2); // short mode survives scaling
        assert!(dims[0] >= 2048);
        let uber = find("r11").unwrap();
        assert_eq!(uber.bench_dims(), vec![183, 24, 1140, 1717]);
    }

    #[test]
    fn bench_nnz_is_clamped() {
        for d in REAL_DATASETS.iter().chain(SYNTHETIC_DATASETS) {
            let n = d.bench_nnz();
            assert!((20_000..=400_000).contains(&n), "{}: {n}", d.id);
        }
    }

    #[test]
    fn find_resolves_both_tables() {
        assert_eq!(find("r7").unwrap().name, "flickr");
        assert_eq!(find("s13").unwrap().name, "irr2S4d");
        assert!(find("x1").is_none());
    }

    #[test]
    fn generation_smoke_small() {
        // Generate a reduced instance of one dataset from each family.
        for (id, nnz) in [("r1", 5_000usize), ("s1", 5_000), ("s4", 5_000)] {
            let d = find(id).unwrap();
            let t = d.generate_with(nnz, 42);
            assert_eq!(t.nnz(), nnz, "{id}");
            assert!(t.validate().is_ok(), "{id}");
            assert_eq!(t.order(), d.order(), "{id}");
        }
    }

    #[test]
    fn default_seeds_are_distinct() {
        let mut seeds: Vec<u64> = REAL_DATASETS
            .iter()
            .chain(SYNTHETIC_DATASETS)
            .map(|d| d.default_seed())
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 30);
    }
}
