//! Double-precision coverage: every format and kernel is generic over the
//! scalar; this suite runs the full cross-format consistency check in
//! `f64`, where comparisons can be exact-ish (1e-12) instead of
//! single-precision tolerances.

use tenbench::core::coo::CooTensor;
use tenbench::core::csf::CsfTensor;
use tenbench::core::dense::{DenseMatrix, DenseVector};
use tenbench::core::hicoo::HicooTensor;
use tenbench::core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench::core::methods::{cp_als, CpAlsOptions};
use tenbench::core::scalar::approx_eq;
use tenbench::prelude::*;

fn sample() -> CooTensor<f64> {
    let entries: Vec<(Vec<u32>, f64)> = (0..600u32)
        .map(|i| {
            (
                vec![i % 23, (i * 7) % 19, (i * 13) % 17],
                ((i % 31) as f64 - 15.0) * 0.125,
            )
        })
        .collect();
    CooTensor::from_entries(Shape::new(vec![23, 19, 17]), entries).unwrap()
}

#[test]
fn formats_round_trip_in_f64() {
    let x = sample();
    assert_eq!(HicooTensor::from_coo(&x, 3).unwrap().to_map(), x.to_map());
    assert_eq!(CsfTensor::from_coo(&x, None).unwrap().to_map(), x.to_map());
    // Binary I/O preserves f64 bit patterns.
    let mut blob = Vec::new();
    tenbench::io::bin::write_bin(&x, &mut blob).unwrap();
    let back: CooTensor<f64> = tenbench::io::bin::read_bin(blob.as_slice()).unwrap();
    assert_eq!(back.vals(), x.vals());
}

#[test]
fn kernels_agree_tightly_in_f64() {
    let x = sample();
    let h = HicooTensor::from_coo(&x, 3).unwrap();
    let y = ts::ts(&x, 2.0, EwOp::Mul).unwrap();
    let hy = HicooTensor::from_coo(&y, 3).unwrap();

    // Tew / Ts.
    assert_eq!(
        tew::tew_same_pattern(&x, &y, EwOp::Add).unwrap().to_map(),
        tew::tew_hicoo_same_pattern(&h, &hy, EwOp::Add)
            .unwrap()
            .to_map()
    );

    // Ttv / Ttm / Mttkrp per mode, COO vs HiCOO, 1e-12 relative.
    for mode in 0..3 {
        let dim = x.shape().dim(mode) as usize;
        let v = DenseVector::from_fn(dim, |i| (i as f64) * 0.01 - 0.05);
        let a = ttv::ttv(&x, &v, mode).unwrap().to_map();
        let b = ttv::ttv_hicoo(&h, &v, mode).unwrap().to_map();
        assert_eq!(a.len(), b.len());
        for (k, av) in &a {
            assert!(approx_eq(*av, b[k], 1e-12), "ttv mode {mode} {k:?}");
        }

        let u = DenseMatrix::from_fn(dim, 5, |i, j| ((i * 5 + j) % 11) as f64 - 5.0);
        let tm = ttm::ttm(&x, &u, mode).unwrap().to_map();
        let tmh = ttm::ttm_hicoo(&h, &u, mode).unwrap().to_map();
        for (k, av) in &tm {
            assert!(approx_eq(*av, tmh[k], 1e-12), "ttm mode {mode} {k:?}");
        }

        let factors: Vec<DenseMatrix<f64>> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, 5, |i, j| {
                    ((i + 3 * j + m) % 7) as f64 * 0.25
                })
            })
            .collect();
        let frefs: Vec<&DenseMatrix<f64>> = factors.iter().collect();
        let ma = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
        let mb = mttkrp::mttkrp_hicoo_seq(&h, &frefs, mode).unwrap();
        for (p, q) in ma.data().iter().zip(mb.data()) {
            assert!(approx_eq(*p, *q, 1e-12), "mttkrp mode {mode}");
        }
    }
}

#[test]
fn cp_als_runs_in_f64() {
    let x = sample();
    let d = cp_als(
        &x,
        &CpAlsOptions {
            rank: 3,
            max_iters: 10,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(d.fit.is_finite());
    assert_eq!(d.lambda.len(), 3);
}
