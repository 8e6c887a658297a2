//! Dataset materialization with an on-disk cache.
//!
//! Generating 30 datasets takes noticeably longer than reloading them, so
//! generated tensors are cached in the binary format under
//! `target/tenbench-data/` keyed by dataset id, nonzero count, and seed.

use std::fs;
use std::path::PathBuf;

use tenbench_core::coo::CooTensor;
use tenbench_gen::Dataset;

/// Directory used for cached tensors.
pub fn cache_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("tenbench-data")
}

/// Materialize a dataset at `scale` times its default bench nonzero count,
/// using the cache when possible. Falls back to regeneration on any cache
/// problem.
pub fn dataset_tensor(d: &Dataset, scale: f64) -> CooTensor<f32> {
    let nnz = ((d.bench_nnz() as f64 * scale) as usize).max(1_000);
    let seed = d.default_seed();
    let dir = cache_dir();
    let path = dir.join(format!("{}-{nnz}-{seed:x}.tnb", d.id));
    if let Ok(file) = fs::File::open(&path) {
        if let Ok(t) = tenbench_io::bin::read_bin::<f32, _>(std::io::BufReader::new(file)) {
            return t;
        }
    }
    let t = d.generate_with(nnz, seed);
    if fs::create_dir_all(&dir).is_ok() {
        if let Ok(file) = fs::File::create(&path) {
            let _ = tenbench_io::bin::write_bin(&t, std::io::BufWriter::new(file));
        }
    }
    t
}

/// The default dataset selection for quick runs: one small dataset per
/// family (regular Kronecker, irregular power-law, 4th-order, surrogate
/// real).
pub fn quick_ids() -> Vec<&'static str> {
    vec!["r1", "r10", "s1", "s4", "s7", "s13"]
}

#[cfg(test)]
mod tests {
    use tenbench_gen::registry::find;

    use super::*;

    #[test]
    fn cache_round_trip_is_stable() {
        let d = find("s4").unwrap();
        let a = dataset_tensor(d, 0.05);
        let b = dataset_tensor(d, 0.05); // second call hits the cache
        assert_eq!(a.to_map(), b.to_map());
        assert_eq!(a.nnz(), (d.bench_nnz() as f64 * 0.05) as usize);
    }

    #[test]
    fn quick_ids_resolve() {
        for id in quick_ids() {
            assert!(find(id).is_some(), "{id}");
        }
    }
}
