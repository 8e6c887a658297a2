//! Cross-crate consistency: every implementation of every kernel —
//! sequential, parallel, HiCOO, gHiCOO, and the simulated GPU
//! variants — must agree on generated datasets from both generator
//! families.

use tenbench::core::coo::CooTensor;
use tenbench::core::dense::{DenseMatrix, DenseVector};
use tenbench::core::hicoo::{GHicooTensor, HicooTensor};
use tenbench::core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench::core::par::Schedule;
use tenbench::core::scalar::approx_eq;
use tenbench::gen::registry::find;
use tenbench::gpusim::device::DeviceSpec;
use tenbench::gpusim::kernels as gpuk;

const BLOCK_BITS: u8 = 5;
const RANK: usize = 8;
/// Ranks the CPU kernels additionally run at: none is a multiple of a vector
/// width, so every rank loop ends in a partial vector.
const TAIL_RANKS: [usize; 4] = [3, 5, 7, 17];

fn datasets() -> Vec<CooTensor<f32>> {
    ["s1", "s4", "s13", "r3"]
        .iter()
        .map(|id| find(id).unwrap().generate_with(6_000, 99))
        .collect()
}

fn assert_mat_eq(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>, tol: f64, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!(approx_eq(*x as f64, *y as f64, tol), "{what}: {x} vs {y}");
    }
}

#[test]
fn tew_ts_agree_across_formats_and_devices() {
    for x in datasets() {
        let y = ts::ts(&x, 3.0, EwOp::Mul).unwrap();
        let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
        let hy = HicooTensor::from_coo(&y, BLOCK_BITS).unwrap();
        let base = tew::tew_same_pattern_seq(&x, &y, EwOp::Add)
            .unwrap()
            .to_map();
        assert_eq!(
            tew::tew_same_pattern(&x, &y, EwOp::Add).unwrap().to_map(),
            base
        );
        assert_eq!(
            tew::tew_hicoo_same_pattern(&hx, &hy, EwOp::Add)
                .unwrap()
                .to_map(),
            base
        );
        let dev = DeviceSpec::p100();
        assert_eq!(
            gpuk::tew_coo_gpu(&dev, &x, &y, EwOp::Add)
                .unwrap()
                .0
                .to_map(),
            base
        );
        assert_eq!(
            gpuk::tew_hicoo_gpu(&dev, &hx, &hy, EwOp::Add)
                .unwrap()
                .0
                .to_map(),
            base
        );

        let tsbase = ts::ts_seq(&x, 0.25, EwOp::Mul).unwrap().to_map();
        assert_eq!(ts::ts(&x, 0.25, EwOp::Mul).unwrap().to_map(), tsbase);
        assert_eq!(ts::ts_hicoo(&hx, 0.25, EwOp::Mul).unwrap().to_map(), tsbase);
        assert_eq!(
            gpuk::ts_coo_gpu(&dev, &x, 0.25, EwOp::Mul)
                .unwrap()
                .0
                .to_map(),
            tsbase
        );
    }
}

#[test]
fn ttv_agrees_across_formats_and_devices() {
    for x in datasets() {
        let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
        let dev = DeviceSpec::v100();
        for mode in 0..x.order() {
            let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| {
                ((i % 13) as f32) * 0.5 - 2.0
            });
            let mut xm = x.clone();
            let fp = xm.fibers(mode).unwrap();
            let base = ttv::ttv_prepared_seq(&xm, &fp, &v).unwrap().to_map();
            assert_eq!(
                ttv::ttv_prepared(&xm, &fp, &v, Schedule::Static)
                    .unwrap()
                    .to_map(),
                base
            );
            let g = GHicooTensor::from_coo_for_mode(&x, BLOCK_BITS, mode).unwrap();
            let gfp = g.fibers(mode).unwrap();
            let hicoo_map = ttv::ttv_ghicoo(&g, &gfp, &v, Schedule::default())
                .unwrap()
                .to_map();
            // Fiber orders differ between layouts, so compare with tolerance.
            assert_eq!(hicoo_map.len(), base.len());
            for (k, b) in &base {
                assert!(approx_eq(hicoo_map[k], *b, 1e-4), "mode {mode} {k:?}");
            }
            let gpu = gpuk::ttv_hicoo_gpu(&dev, &hx, &v, mode).unwrap().0.to_map();
            assert_eq!(gpu.len(), base.len());
        }
    }
}

#[test]
fn ttm_agrees_across_formats_and_devices() {
    for x in datasets() {
        let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
        let dev = DeviceSpec::p100();
        for mode in 0..x.order() {
            let rows = x.shape().dim(mode) as usize;
            let u = DenseMatrix::from_fn(rows, RANK, |i, j| ((i * 7 + j) % 9) as f32 - 4.0);
            let base = ttm::ttm(&x, &u, mode).unwrap().to_map();
            let hic = ttm::ttm_hicoo(&hx, &u, mode).unwrap().to_map();
            assert_eq!(hic.len(), base.len(), "mode {mode}");
            for (k, b) in &base {
                assert!(approx_eq(hic[k], *b, 1e-4), "mode {mode} {k:?}");
            }
            let (gout, _) = gpuk::ttm_coo_gpu(&dev, &x, &u, mode).unwrap();
            let gm = gout.to_map();
            for (k, b) in &base {
                assert!(approx_eq(gm[k], *b, 1e-4), "gpu mode {mode} {k:?}");
            }
            let mut xm = x.clone();
            let fp = xm.fibers(mode).unwrap();
            for rank in TAIL_RANKS {
                let u = DenseMatrix::from_fn(rows, rank, |i, j| ((i * 7 + j) % 9) as f32 - 4.0);
                let base = ttm::ttm_prepared_seq(&xm, &fp, &u).unwrap().to_map();
                assert_eq!(ttm::ttm(&x, &u, mode).unwrap().to_map(), base);
                let hic = ttm::ttm_hicoo_sched(&hx, &u, mode).unwrap().to_map();
                assert_eq!(hic.len(), base.len(), "rank {rank} mode {mode}");
                for (k, b) in &base {
                    assert!(approx_eq(hic[k], *b, 1e-4), "rank {rank} mode {mode} {k:?}");
                }
            }
        }
    }
}

#[test]
fn mttkrp_agrees_across_everything() {
    for x in datasets() {
        let factors_at = |rank: usize| -> Vec<DenseMatrix<f32>> {
            (0..x.order())
                .map(|m| {
                    DenseMatrix::from_fn(x.shape().dim(m) as usize, rank, |i, j| {
                        (((i * 3 + j * 11 + m) % 7) as f32 - 3.0) * 0.25
                    })
                })
                .collect()
        };
        let factors = factors_at(RANK);
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        let hx = HicooTensor::from_coo(&x, BLOCK_BITS).unwrap();
        let dev = DeviceSpec::v100();
        for mode in 0..x.order() {
            let base = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
            for (name, kernel) in [
                ("atomic", mttkrp::mttkrp_atomic as fn(&_, &_, _) -> _),
                ("sched", mttkrp::mttkrp_sched),
            ] {
                let got = kernel(&x, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &format!("{name} mode {mode}"));
            }
            for (name, kernel) in [
                ("hicoo", mttkrp::mttkrp_hicoo as fn(&_, &_, _) -> _),
                ("hicoo sched", mttkrp::mttkrp_hicoo_sched),
                ("hicoo seq", mttkrp::mttkrp_hicoo_seq),
            ] {
                let got = kernel(&hx, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &format!("{name} mode {mode}"));
            }

            let (ggot, _) = gpuk::mttkrp_coo_gpu(&dev, &x, &frefs, mode).unwrap();
            assert_mat_eq(&ggot, &base, 1e-3, &format!("gpu mode {mode}"));
            let (hgot, _) = gpuk::mttkrp_hicoo_gpu(&dev, &hx, &frefs, mode).unwrap();
            assert_mat_eq(&hgot, &base, 1e-3, &format!("gpu hicoo mode {mode}"));
        }

        for rank in TAIL_RANKS {
            let factors = factors_at(rank);
            let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
            for mode in 0..x.order() {
                let base = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
                let what = |name: &str| format!("{name} rank {rank} mode {mode}");
                let got = mttkrp::mttkrp_atomic(&x, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &what("atomic"));
                let got = mttkrp::mttkrp_sched(&x, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &what("sched"));
                let got = mttkrp::mttkrp_hicoo(&hx, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &what("hicoo"));
                let got = mttkrp::mttkrp_hicoo_sched(&hx, &frefs, mode).unwrap();
                assert_mat_eq(&got, &base, 1e-3, &what("hicoo sched"));
            }
        }
    }
}
