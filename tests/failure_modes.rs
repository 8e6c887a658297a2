//! Failure injection: every API boundary must reject malformed input with
//! a descriptive error instead of panicking or computing garbage.

use tenbench::core::coo::CooTensor;
use tenbench::core::dense::{DenseMatrix, DenseVector};
use tenbench::core::hicoo::{GHicooTensor, HicooTensor};
use tenbench::core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench::core::TensorError;
use tenbench::io::{bin, tns, IoError};
use tenbench::prelude::*;

fn sample() -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![4, 5, 6]),
        vec![
            (vec![0, 0, 0], 1.0),
            (vec![3, 4, 5], 2.0),
            (vec![1, 2, 3], 3.0),
        ],
    )
    .unwrap()
}

#[test]
fn construction_failures() {
    // Out-of-bounds coordinate.
    assert!(matches!(
        CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![2, 0], 1.0f32)]),
        Err(TensorError::IndexOutOfBounds { .. })
    ));
    // Wrong-arity coordinate.
    assert!(matches!(
        CooTensor::from_entries(Shape::new(vec![2, 2]), vec![(vec![0], 1.0f32)]),
        Err(TensorError::OrderMismatch { .. })
    ));
    // Ragged struct-of-arrays parts.
    assert!(CooTensor::from_parts(
        Shape::new(vec![2, 2]),
        vec![vec![0], vec![0, 1]],
        vec![1.0f32]
    )
    .is_err());
}

#[test]
fn format_conversion_failures() {
    let x = sample();
    assert!(matches!(
        HicooTensor::from_coo(&x, 0),
        Err(TensorError::InvalidBlockBits(0))
    ));
    assert!(matches!(
        HicooTensor::from_coo(&x, 12),
        Err(TensorError::InvalidBlockBits(12))
    ));
    assert!(matches!(
        GHicooTensor::from_coo(&x, 4, &[true, false]),
        Err(TensorError::InvalidCompressionPlan { .. })
    ));
}

#[test]
fn kernel_operand_failures() {
    let x = sample();
    let y =
        CooTensor::from_entries(Shape::new(vec![4, 5, 7]), vec![(vec![0, 0, 0], 1.0f32)]).unwrap();
    // Shape mismatch in Tew.
    assert!(matches!(
        tew::tew(&x, &y, EwOp::Add),
        Err(TensorError::ShapeMismatch { .. })
    ));
    // Division by zero scalar in Ts.
    assert_eq!(ts::ts(&x, 0.0, EwOp::Div), Err(TensorError::DivisionByZero));
    // Wrong vector length / bad mode in Ttv.
    assert!(matches!(
        ttv::ttv(&x, &DenseVector::constant(5, 1.0f32), 2),
        Err(TensorError::OperandLengthMismatch { .. })
    ));
    assert!(matches!(
        ttv::ttv(&x, &DenseVector::constant(6, 1.0f32), 3),
        Err(TensorError::ModeOutOfRange { .. })
    ));
    // Wrong matrix rows in Ttm.
    assert!(ttm::ttm(&x, &DenseMatrix::constant(7, 4, 1.0f32), 2).is_err());
    // Factor set problems in Mttkrp.
    let good: Vec<DenseMatrix<f32>> = vec![
        DenseMatrix::zeros(4, 3),
        DenseMatrix::zeros(5, 3),
        DenseMatrix::zeros(6, 3),
    ];
    let refs: Vec<&DenseMatrix<f32>> = good.iter().collect();
    assert!(mttkrp::mttkrp(&x, &refs[..2], 0).is_err());
    let mixed_rank: Vec<DenseMatrix<f32>> = vec![
        DenseMatrix::zeros(4, 3),
        DenseMatrix::zeros(5, 2),
        DenseMatrix::zeros(6, 3),
    ];
    let refs2: Vec<&DenseMatrix<f32>> = mixed_rank.iter().collect();
    assert!(matches!(
        mttkrp::mttkrp(&x, &refs2, 0),
        Err(TensorError::FactorMismatch(_))
    ));
}

#[test]
fn prepared_kernels_reject_stale_preparation() {
    let mut a = sample();
    let fp = a.fibers(2).unwrap();
    // Re-sorting invalidates the fiber partition's assumed order.
    a.sort_mode_last(0);
    let v = DenseVector::constant(6, 1.0f32);
    assert!(ttv::ttv_prepared(&a, &fp, &v, Default::default()).is_err());
    let u = DenseMatrix::constant(6, 2, 1.0f32);
    assert!(ttm::ttm_prepared(&a, &fp, &u, Default::default()).is_err());
}

#[test]
fn ghicoo_fibers_require_the_ttv_layout() {
    let x = sample();
    let all = GHicooTensor::from_coo(&x, 3, &[true, true, true]).unwrap();
    assert!(all.fibers(0).is_err());
    let two_open = GHicooTensor::from_coo(&x, 3, &[false, false, true]).unwrap();
    assert!(two_open.fibers(0).is_err());
}

#[test]
fn io_failures_are_parse_errors_not_panics() {
    // Garbage text.
    let r: std::result::Result<CooTensor<f32>, IoError> = tns::read_tns(&b"not a tensor"[..]);
    assert!(matches!(r, Err(IoError::Parse(_))));
    // Mixed arity.
    let r: std::result::Result<CooTensor<f32>, IoError> =
        tns::read_tns(&b"1 1 1 2.0\n1 1 2.0\n"[..]);
    assert!(matches!(r, Err(IoError::Parse(_))));
    // Truncated binary at every interesting boundary.
    let mut blob = Vec::new();
    bin::write_bin(&sample(), &mut blob).unwrap();
    for cut in [0usize, 4, 5, 6, 10, 20, blob.len() - 1] {
        let r: std::result::Result<CooTensor<f32>, IoError> = bin::read_bin(&blob[..cut]);
        assert!(r.is_err(), "cut {cut}");
    }
    // Binary with corrupted dimension (zero).
    let mut bad = blob.clone();
    bad[6] = 0;
    bad[7] = 0;
    bad[8] = 0;
    bad[9] = 0;
    let r: std::result::Result<CooTensor<f32>, IoError> = bin::read_bin(bad.as_slice());
    assert!(r.is_err());
}

#[test]
fn errors_format_without_panicking() {
    // Exercise the Display impl of every error variant reachable here.
    let errors: Vec<TensorError> = vec![
        TensorError::ShapeMismatch {
            left: vec![1],
            right: vec![2],
        },
        TensorError::OrderMismatch { left: 2, right: 3 },
        TensorError::ModeOutOfRange { mode: 9, order: 3 },
        TensorError::IndexOutOfBounds {
            mode: 0,
            index: 5,
            dim: 4,
        },
        TensorError::OperandLengthMismatch {
            expected: 4,
            actual: 5,
        },
        TensorError::PatternMismatch,
        TensorError::OrderTooSmall { min: 2, actual: 1 },
        TensorError::InvalidBlockBits(0),
        TensorError::InvalidCompressionPlan { flags: 1, order: 3 },
        TensorError::InvalidStructure("x".into()),
        TensorError::FactorMismatch("y".into()),
        TensorError::DivisionByZero,
        TensorError::SizeOverflow,
    ];
    for e in errors {
        assert!(!e.to_string().is_empty());
    }
}
