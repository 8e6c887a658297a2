//! Property-based tests on kernel algebra: the mathematical identities the
//! five operations must satisfy on arbitrary tensors.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tenbench::core::coo::CooTensor;
use tenbench::core::dense::{DenseMatrix, DenseVector};
use tenbench::core::hicoo::HicooTensor;
use tenbench::core::kernels::{mttkrp, tew, ts, ttm, ttv, EwOp};
use tenbench::core::par::with_threads;
use tenbench::core::scalar::approx_eq;
use tenbench::prelude::*;

fn arb_tensor() -> impl Strategy<Value = CooTensor<f64>> {
    (2usize..=3)
        .prop_flat_map(|order| {
            let dims = prop::collection::vec(1u32..10, order);
            dims.prop_flat_map(move |dims| {
                let shape = Shape::new(dims.clone());
                let coord = dims.iter().map(|&d| (0u32..d).boxed()).collect::<Vec<_>>();
                let entry = (coord, -50i32..50).prop_map(|(c, v)| (c, v as f64 * 0.25));
                prop::collection::vec(entry, 1..30).prop_map(move |entries| {
                    CooTensor::from_entries(shape.clone(), entries).unwrap()
                })
            })
        })
        .no_shrink()
}

/// Two independent tensors over one shared random shape (for binary ops).
fn arb_tensor_pair() -> impl Strategy<Value = (CooTensor<f64>, CooTensor<f64>)> {
    (2usize..=3)
        .prop_flat_map(|order| {
            let dims = prop::collection::vec(1u32..10, order);
            dims.prop_flat_map(move |dims| {
                let shape = Shape::new(dims.clone());
                let coord = || dims.iter().map(|&d| (0u32..d).boxed()).collect::<Vec<_>>();
                let entry = |c: Vec<BoxedStrategy<u32>>| {
                    (c, -50i32..50).prop_map(|(c, v)| (c, v as f64 * 0.25))
                };
                let shape2 = shape.clone();
                (
                    prop::collection::vec(entry(coord()), 1..30),
                    prop::collection::vec(entry(coord()), 1..30),
                )
                    .prop_map(move |(a, b)| {
                        (
                            CooTensor::from_entries(shape.clone(), a).unwrap(),
                            CooTensor::from_entries(shape2.clone(), b).unwrap(),
                        )
                    })
            })
        })
        .no_shrink()
}

fn maps_close(a: &BTreeMap<Vec<u32>, f64>, b: &BTreeMap<Vec<u32>, f64>, tol: f64) -> bool {
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    keys.iter().all(|k| {
        let x = a.get(*k).copied().unwrap_or(0.0);
        let y = b.get(*k).copied().unwrap_or(0.0);
        approx_eq(x, y, tol)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tew_add_then_sub_is_identity((x, y) in arb_tensor_pair()) {
        let sum = tew::tew(&x, &y, EwOp::Add).unwrap();
        let back = tew::tew(&sum, &y, EwOp::Sub).unwrap();
        let mut bm = back.to_map();
        bm.retain(|_, v| v.abs() > 1e-9);
        let mut xm = x.to_map();
        xm.retain(|_, v| v.abs() > 1e-9);
        prop_assert!(maps_close(&bm, &xm, 1e-9));
    }

    #[test]
    fn tew_add_commutes((x, y) in arb_tensor_pair()) {
        let ab = tew::tew(&x, &y, EwOp::Add).unwrap().to_map();
        let ba = tew::tew(&y, &x, EwOp::Add).unwrap().to_map();
        prop_assert!(maps_close(&ab, &ba, 1e-12));
    }

    #[test]
    fn ts_mul_then_div_is_identity(x in arb_tensor(), s in 1i32..50) {
        let s = s as f64 * 0.5;
        let scaled = ts::ts(&x, s, EwOp::Mul).unwrap();
        let back = ts::ts(&scaled, s, EwOp::Div).unwrap();
        prop_assert!(maps_close(&back.to_map(), &x.to_map(), 1e-12));
    }

    #[test]
    fn ttv_is_linear_in_the_vector(x in arb_tensor(), mode in 0usize..3, a in 1i32..10) {
        let mode = mode % x.order();
        let n = x.shape().dim(mode) as usize;
        let a = a as f64;
        let v = DenseVector::from_fn(n, |i| (i as f64 * 0.3) - 1.0);
        let av = DenseVector::from_fn(n, |i| a * ((i as f64 * 0.3) - 1.0));
        let y1 = ttv::ttv(&x, &av, mode).unwrap().to_map();
        let y2: BTreeMap<Vec<u32>, f64> = ttv::ttv(&x, &v, mode)
            .unwrap()
            .to_map()
            .into_iter()
            .map(|(k, val)| (k, a * val))
            .collect();
        prop_assert!(maps_close(&y1, &y2, 1e-9));
    }

    #[test]
    fn ttm_with_one_column_equals_ttv(x in arb_tensor(), mode in 0usize..3) {
        let mode = mode % x.order();
        let n = x.shape().dim(mode) as usize;
        let v = DenseVector::from_fn(n, |i| (i % 7) as f64 - 3.0);
        let u = DenseMatrix::from_fn(n, 1, |i, _| v[i]);
        let tv = ttv::ttv(&x, &v, mode).unwrap();
        let tm = ttm::ttm(&x, &u, mode).unwrap();
        // Ttm keeps the mode (size 1); Ttv drops it. Compare after removing
        // the dense coordinate.
        let tm_map: BTreeMap<Vec<u32>, f64> = tm
            .to_map()
            .into_iter()
            .map(|(mut k, v)| {
                k.remove(mode);
                (k, v)
            })
            .collect();
        let mut tv_map = tv.to_map();
        tv_map.retain(|_, v| v.abs() > 1e-12);
        prop_assert!(maps_close(&tm_map, &tv_map, 1e-9));
    }

    #[test]
    fn mttkrp_is_linear_in_values(x in arb_tensor(), mode in 0usize..3) {
        let mode = mode % x.order();
        let factors: Vec<DenseMatrix<f64>> = (0..x.order())
            .map(|m| DenseMatrix::from_fn(x.shape().dim(m) as usize, 3, |i, j| {
                ((i + 2 * j + m) % 5) as f64 - 2.0
            }))
            .collect();
        let frefs: Vec<&DenseMatrix<f64>> = factors.iter().collect();
        let base = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
        let x2 = ts::ts(&x, 2.0, EwOp::Mul).unwrap();
        let doubled = mttkrp::mttkrp_seq(&x2, &frefs, mode).unwrap();
        for (a, b) in base.data().iter().zip(doubled.data()) {
            prop_assert!(approx_eq(2.0 * a, *b, 1e-9), "{a} {b}");
        }
    }

    #[test]
    fn scheduled_mttkrp_matches_seq_on_random_tensors(x in arb_tensor(), bits in 1u8..=6) {
        let h = HicooTensor::from_coo(&x, bits).unwrap();
        let factors: Vec<DenseMatrix<f64>> = (0..x.order())
            .map(|m| DenseMatrix::from_fn(x.shape().dim(m) as usize, 3, |i, j| {
                ((i + 3 * j + m) % 7) as f64 * 0.5 - 1.5
            }))
            .collect();
        let frefs: Vec<&DenseMatrix<f64>> = factors.iter().collect();
        for mode in 0..x.order() {
            let reference = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
            let coo_sched = mttkrp::mttkrp_sched(&x, &frefs, mode).unwrap();
            let hic_sched = mttkrp::mttkrp_hicoo_sched(&h, &frefs, mode).unwrap();
            for (p, q) in reference.data().iter().zip(coo_sched.data()) {
                prop_assert!(approx_eq(*p, *q, 1e-5), "coo mode {mode}: {p} vs {q}");
            }
            for (p, q) in reference.data().iter().zip(hic_sched.data()) {
                prop_assert!(approx_eq(*p, *q, 1e-5), "hicoo mode {mode}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn scheduled_ttv_ttm_match_reference_on_random_tensors(x in arb_tensor(), bits in 1u8..=6) {
        let h = HicooTensor::from_coo(&x, bits).unwrap();
        for mode in 0..x.order() {
            let n = x.shape().dim(mode) as usize;
            let v = DenseVector::from_fn(n, |i| (i as f64 * 0.7) - 1.0);
            let want = ttv::ttv(&x, &v, mode).unwrap().to_map();
            let got = ttv::ttv_hicoo_sched(&h, &v, mode).unwrap().to_map();
            prop_assert!(maps_close(&want, &got, 1e-5), "ttv mode {mode}");

            let u = DenseMatrix::from_fn(n, 2, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
            let want = ttm::ttm(&x, &u, mode).unwrap().to_map();
            let got = ttm::ttm_hicoo_sched(&h, &u, mode).unwrap().to_map();
            prop_assert!(maps_close(&want, &got, 1e-5), "ttm mode {mode}");
        }
    }

    #[test]
    fn hicoo_kernels_match_coo_on_random_tensors(x in arb_tensor(), bits in 1u8..=6, mode in 0usize..3) {
        let mode = mode % x.order();
        let h = HicooTensor::from_coo(&x, bits).unwrap();
        let v = DenseVector::from_fn(x.shape().dim(mode) as usize, |i| (i + 1) as f64);
        let coo = ttv::ttv(&x, &v, mode).unwrap().to_map();
        let hic = ttv::ttv_hicoo(&h, &v, mode).unwrap().to_map();
        prop_assert!(maps_close(&coo, &hic, 1e-9));

        let factors: Vec<DenseMatrix<f64>> = (0..x.order())
            .map(|m| DenseMatrix::from_fn(x.shape().dim(m) as usize, 2, |i, j| {
                (i + j) as f64 * 0.5
            }))
            .collect();
        let frefs: Vec<&DenseMatrix<f64>> = factors.iter().collect();
        let a = mttkrp::mttkrp_seq(&x, &frefs, mode).unwrap();
        let b = mttkrp::mttkrp_hicoo_seq(&h, &frefs, mode).unwrap();
        for (p, q) in a.data().iter().zip(b.data()) {
            prop_assert!(approx_eq(*p, *q, 1e-9));
        }
    }
}

/// Deterministic edge cases for the scheduled kernels that random tensors
/// are unlikely to hit: no nonzeros at all, a single occupied block, and
/// every nonzero landing in one output row-block (a single schedule group
/// carrying the full tensor).
mod scheduled_edge_cases {
    use super::*;

    /// 4 is the everyday case; the rest end every rank loop in a partial
    /// vector.
    const RANKS: [usize; 5] = [4, 3, 5, 7, 17];

    fn check_all_scheduled(x: &CooTensor<f64>, bits: u8) {
        let h = HicooTensor::from_coo(x, bits).unwrap();
        for rank in RANKS {
            let factors: Vec<DenseMatrix<f64>> = (0..x.order())
                .map(|m| {
                    DenseMatrix::from_fn(x.shape().dim(m) as usize, rank, |i, j| {
                        ((i + j + m) % 3) as f64 + 0.5
                    })
                })
                .collect();
            let frefs: Vec<&DenseMatrix<f64>> = factors.iter().collect();
            for mode in 0..x.order() {
                let want = mttkrp::mttkrp_seq(x, &frefs, mode).unwrap();
                let coo = mttkrp::mttkrp_sched(x, &frefs, mode).unwrap();
                let hic = mttkrp::mttkrp_hicoo_sched(&h, &frefs, mode).unwrap();
                for (p, q) in want.data().iter().zip(coo.data()) {
                    assert!(
                        approx_eq(*p, *q, 1e-5),
                        "coo mttkrp rank {rank} mode {mode}"
                    );
                }
                for (p, q) in want.data().iter().zip(hic.data()) {
                    assert!(
                        approx_eq(*p, *q, 1e-5),
                        "hicoo mttkrp rank {rank} mode {mode}"
                    );
                }

                let n = x.shape().dim(mode) as usize;
                let u = DenseMatrix::from_fn(n, rank, |i, j| (i + j) as f64 * 0.25);
                let want = ttm::ttm(x, &u, mode).unwrap().to_map();
                let got = ttm::ttm_hicoo_sched(&h, &u, mode).unwrap().to_map();
                assert_eq!(want, got, "ttm rank {rank} mode {mode}");
            }
        }
        for mode in 0..x.order() {
            let n = x.shape().dim(mode) as usize;
            let v = DenseVector::from_fn(n, |i| i as f64 + 1.0);
            let want = ttv::ttv(x, &v, mode).unwrap().to_map();
            let got = ttv::ttv_hicoo_sched(&h, &v, mode).unwrap().to_map();
            assert_eq!(want, got, "ttv mode {mode}");
        }
    }

    /// The degenerate tensors must come out the same however many workers
    /// split the (nearly) empty work.
    fn check_at_every_thread_count(x: &CooTensor<f64>, bits: u8) {
        for threads in 1..=4 {
            with_threads(threads, || check_all_scheduled(x, bits));
        }
    }

    #[test]
    fn empty_tensor() {
        let x = CooTensor::<f64>::empty(Shape::new(vec![6, 5, 4]));
        check_at_every_thread_count(&x, 2);
    }

    #[test]
    fn singleton_tensor() {
        let x =
            CooTensor::from_entries(Shape::new(vec![8, 8, 8]), vec![(vec![3, 5, 2], 2.5)]).unwrap();
        check_at_every_thread_count(&x, 2);
    }

    #[test]
    fn single_block() {
        // All coordinates below 4 with 2-bit blocks: exactly one block.
        let entries = vec![
            (vec![0, 1, 2], 1.5),
            (vec![3, 3, 3], -2.0),
            (vec![0, 0, 0], 0.75),
            (vec![2, 1, 0], 4.0),
        ];
        let x = CooTensor::from_entries(Shape::new(vec![16, 16, 16]), entries).unwrap();
        check_all_scheduled(&x, 2);
    }

    #[test]
    fn all_nnz_in_one_output_row_block() {
        // Mode-0 coordinates all in [0, 4): one mode-0 row block, so the
        // mode-0 schedule has a single group holding every block.
        let entries: Vec<(Vec<u32>, f64)> = (0..200u32)
            .map(|k| (vec![k % 4, k % 13, k % 7], (k as f64) * 0.125 - 3.0))
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![64, 16, 8]), entries).unwrap();
        check_all_scheduled(&x, 2);
    }

    /// Scheduled MTTKRP fixes its accumulation order, so the result is the
    /// same bits run after run and at every thread count. Checkpoint
    /// resume and the chaos harness's bitwise job comparison rest on this.
    #[test]
    fn scheduled_mttkrp_is_bitwise_stable_across_runs_and_threads() {
        // Mixed signs and magnitudes, so a reassociated sum would move bits.
        let entries: Vec<(Vec<u32>, f32)> = (0..2500u32)
            .map(|i| {
                let mag = ((i * 7919) % 1000 + 1) as f32 * 1e-3 * (1 + i % 7) as f32;
                let v = if i % 3 == 0 { -mag } else { mag };
                (vec![(i * 13) % 23, (i * 7) % 19, (i * 3) % 17], v)
            })
            .collect();
        let x = CooTensor::from_entries(Shape::new(vec![23, 19, 17]), entries).unwrap();
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        let factors: Vec<DenseMatrix<f32>> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, 17, |i, j| {
                    (((i * 31 + j * 17 + m * 7) % 1000) as f32 - 500.0) * 1e-3
                })
            })
            .collect();
        let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
        let bits =
            |m: DenseMatrix<f32>| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
        for mode in 0..3 {
            let coo = bits(mttkrp::mttkrp_sched(&x, &frefs, mode).unwrap());
            let hic = bits(mttkrp::mttkrp_hicoo_sched(&h, &frefs, mode).unwrap());
            for threads in [1usize, 3, 4] {
                with_threads(threads, || {
                    for rep in 0..3 {
                        let what = format!("mode {mode} threads {threads} rep {rep}");
                        let again = mttkrp::mttkrp_sched(&x, &frefs, mode).unwrap();
                        assert_eq!(bits(again), coo, "coo {what}");
                        let again = mttkrp::mttkrp_hicoo_sched(&h, &frefs, mode).unwrap();
                        assert_eq!(bits(again), hic, "hicoo {what}");
                    }
                });
            }
        }
    }
}
