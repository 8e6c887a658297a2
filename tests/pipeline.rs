//! End-to-end pipelines spanning every crate: generate → serialize →
//! reload → convert → compute → decompose, plus the simulated-GPU path and
//! the Roofline bound computation — the flows a downstream user of the
//! suite actually runs.

use tenbench::core::hicoo::HicooTensor;
use tenbench::core::kernels::mttkrp::MttkrpStrategy;
use tenbench::core::methods::{cp_als, tensor_power_method, CpAlsOptions};
use tenbench::gen::registry::{find, REAL_DATASETS, SYNTHETIC_DATASETS};
use tenbench::gen::{KroneckerGenerator, TensorStats};
use tenbench::gpusim::device::DeviceSpec;
use tenbench::gpusim::kernels::mttkrp_coo_gpu;
use tenbench::io::{bin, tns};
use tenbench::prelude::*;
use tenbench::roofline::bounds;
use tenbench::roofline::model::Roofline;
use tenbench::roofline::platform::PLATFORMS;

#[test]
fn generate_serialize_reload_compute() {
    let d = find("s5").unwrap();
    let x = d.generate_with(8_000, 5);

    // Text round-trip.
    let mut text = Vec::new();
    tns::write_tns(&x, &mut text).unwrap();
    let back: tenbench::core::coo::CooTensor<f32> =
        tns::read_tns_with_shape(text.as_slice(), x.shape().clone()).unwrap();
    assert_eq!(back.to_map(), x.to_map());

    // Binary round-trip.
    let mut blob = Vec::new();
    bin::write_bin(&back, &mut blob).unwrap();
    let back2: tenbench::core::coo::CooTensor<f32> = bin::read_bin(blob.as_slice()).unwrap();
    assert_eq!(back2.to_map(), x.to_map());

    // Convert and compute on the reloaded tensor.
    let h = HicooTensor::from_coo(&back2, 6).unwrap();
    assert_eq!(h.to_map(), x.to_map());
    let stats = TensorStats::compute(&back2, 6).unwrap();
    assert_eq!(stats.nnz, 8_000);
    assert!(stats.hicoo_blocks > 0);
}

#[test]
fn cp_als_runs_on_every_generator_family() {
    for id in ["s1", "s4", "r10"] {
        let x = find(id).unwrap().generate_with(4_000, 3);
        let d = cp_als(
            &x,
            &CpAlsOptions {
                rank: 4,
                max_iters: 8,
                tol: 1e-4,
                seed: 1,
                strategy: MttkrpStrategy::Atomic,
                backend: Default::default(),
            },
        )
        .unwrap();
        assert!(d.fit.is_finite(), "{id}");
        assert!((0.0..=1.0 + 1e-9).contains(&d.fit), "{id}: fit {}", d.fit);
        assert_eq!(d.factors.len(), x.order());
    }
}

#[test]
fn power_method_runs_on_kronecker_tensor() {
    // Cubical Kronecker tensor; the method converges to *some* fixed point
    // with a finite Rayleigh quotient.
    let g = KroneckerGenerator::rmat_like(Shape::cubical(3, 64), 1_500);
    let x64 = g.generate(17);
    let x: tenbench::core::coo::CooTensor<f64> = tenbench::core::coo::CooTensor::from_entries(
        x64.shape().clone(),
        x64.iter_entries().map(|(c, v)| (c, v as f64)).collect(),
    )
    .unwrap();
    let r = tensor_power_method(&x, 60, 1e-9, 5).unwrap();
    assert!(r.eigenvalue.is_finite());
    assert!((r.eigenvector.norm2() - 1.0).abs() < 1e-6);
}

#[test]
fn gpu_pipeline_with_roofline_bound() {
    let x = find("s4").unwrap().generate_with(10_000, 9);
    let factors = tenbench_bench_factors(&x, 16);
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let dev = DeviceSpec::v100();
    let (_, stats) = mttkrp_coo_gpu(&dev, &x, &frefs, 0).unwrap();
    let bound = bounds::mttkrp_coo_bound(
        x.order(),
        x.nnz() as u64,
        16,
        dev.dram_bw_gbs,
        dev.peak_sp_gflops,
    );
    let eff = bounds::efficiency(stats.gflops(), bound);
    // A small tensor with heavy reuse can beat the DRAM bound, but not by
    // orders of magnitude; and it must do real work.
    assert!(eff > 0.01 && eff < 50.0, "eff {eff}");
}

fn tenbench_bench_factors(x: &CooTensor<f32>, r: usize) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| {
            DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                ((i + j + m) % 5) as f32 * 0.2
            })
        })
        .collect()
}

#[test]
fn every_registry_dataset_generates_and_validates_small() {
    for d in REAL_DATASETS.iter().chain(SYNTHETIC_DATASETS) {
        let x = d.generate_with(2_000, 1);
        assert_eq!(x.order(), d.order(), "{}", d.id);
        assert!(x.validate().is_ok(), "{}", d.id);
        assert!(x.nnz() >= 1_900, "{}: {}", d.id, x.nnz());
    }
}

#[test]
fn rooflines_rank_platforms_consistently() {
    let rooflines: Vec<Roofline> = PLATFORMS.iter().map(Roofline::from_platform).collect();
    // At the Tew OI every platform is bandwidth-bound, so the ranking must
    // follow the ERT-DRAM ordering.
    let oi = 1.0 / 12.0;
    for pair in rooflines.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(
            a.attainable_dram(oi) < b.attainable_dram(oi),
            a.ert_dram_gbs() < b.ert_dram_gbs()
        );
    }
}
