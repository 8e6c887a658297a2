//! Copy-on-write index structure: value-only kernels (same-pattern Tew, Ts)
//! return tensors that share their input's index arrays, and a write on
//! either side — a sort, a relabel, a value edit — never shows on the other.
//! The schedules built for a structure live on it: shared with it, kept as
//! long as it lives, one per mode whatever the pool width, and replaced
//! whenever the indices are written.

use std::ops::Range;
use std::sync::Arc;

use tenbench_core::coo::SortState;
use tenbench_core::kernels::mttkrp::{mttkrp_hicoo_sched, mttkrp_sched, mttkrp_seq};
use tenbench_core::kernels::ttm::{ttm_hicoo_sched, ttm_prepared_seq};
use tenbench_core::kernels::{tew, ts};
use tenbench_core::par::with_threads;
use tenbench_core::prelude::*;
use tenbench_core::reorder;
use tenbench_core::sched::{complement_schedule, mode_schedule, row_schedule};

/// Enough nonzeros for several parallel value chunks, in a few HiCOO blocks.
fn tensor() -> CooTensor<f32> {
    let entries = (0..5000u32)
        .map(|i| {
            let c = vec![i * 7 % 61, i * 13 % 59, i % 53];
            (c, (i % 11) as f32 - 5.5)
        })
        .collect();
    CooTensor::from_entries(Shape::new(vec![61, 59, 53]), entries).unwrap()
}

/// Everything observable of a COO tensor, values as bit patterns.
fn coo_state(t: &CooTensor<f32>) -> (Vec<Vec<u32>>, Vec<u32>, SortState) {
    let bits = t.vals().iter().map(|v| v.to_bits()).collect();
    (t.inds().to_vec(), bits, t.sort_state().clone())
}

type HicooState = (Vec<u64>, Vec<Vec<u32>>, Vec<Vec<u8>>, Vec<u32>);

fn hicoo_state(h: &HicooTensor<f32>) -> HicooState {
    let bits = h.vals().iter().map(|v| v.to_bits()).collect();
    (
        h.bptr().to_vec(),
        h.binds().to_vec(),
        h.einds().to_vec(),
        bits,
    )
}

fn shares_coo(a: &CooTensor<f32>, b: &CooTensor<f32>) -> bool {
    a.inds().as_ptr() == b.inds().as_ptr() && a.mode_inds(0).as_ptr() == b.mode_inds(0).as_ptr()
}

fn shares_hicoo(a: &HicooTensor<f32>, b: &HicooTensor<f32>) -> bool {
    a.einds().as_ptr() == b.einds().as_ptr()
        && a.binds().as_ptr() == b.binds().as_ptr()
        && a.bptr().as_ptr() == b.bptr().as_ptr()
}

#[test]
fn value_only_outputs_share_the_input_structure() {
    let x = tensor();
    let y = ts::ts(&x, 2.0, EwOp::Mul).unwrap();
    assert!(shares_coo(&x, &y), "ts");
    let outs = [
        ("ts_seq", ts::ts_seq(&x, 2.0, EwOp::Mul).unwrap()),
        (
            "tew_same_pattern",
            tew::tew_same_pattern(&x, &y, EwOp::Add).unwrap(),
        ),
        (
            "tew_same_pattern_seq",
            tew::tew_same_pattern_seq(&x, &y, EwOp::Add).unwrap(),
        ),
        ("tew", tew::tew(&x, &y, EwOp::Add).unwrap()),
    ];
    for (name, out) in &outs {
        assert!(shares_coo(&x, out), "{name}");
        assert_eq!(out.sort_state(), x.sort_state(), "{name}");
    }

    let h = HicooTensor::from_coo(&x, 3).unwrap();
    let hy = ts::ts_hicoo(&h, 2.0, EwOp::Mul).unwrap();
    assert!(shares_hicoo(&h, &hy), "ts_hicoo");
    let hz = tew::tew_hicoo_same_pattern(&h, &hy, EwOp::Add).unwrap();
    assert!(shares_hicoo(&h, &hz), "tew_hicoo_same_pattern");
    // Separately converted operands share nothing, and still pass the full
    // comparison.
    let hy_own = HicooTensor::from_coo(&y, 3).unwrap();
    assert!(!shares_hicoo(&h, &hy_own));
    let hz_own = tew::tew_hicoo_same_pattern(&h, &hy_own, EwOp::Add).unwrap();
    assert_eq!(hicoo_state(&hz_own), hicoo_state(&hz));
}

type Write = fn(&mut CooTensor<f32>);

/// Every write a COO tensor offers, each on a fresh sharer of the source.
fn coo_writes() -> Vec<(&'static str, Write)> {
    vec![
        ("sort_lexicographic", |t| t.sort_lexicographic(&[2, 0, 1])),
        ("sort_mode_last", |t| t.sort_mode_last(0)),
        ("fibers", |t| {
            t.fibers(1).unwrap();
        }),
        ("sort_morton", |t| t.sort_morton(2)),
        ("relabel", |t| {
            let perm = reorder::random_permutation(t.shape().dim(1), 9);
            reorder::apply_mode_permutation(t, 1, &perm).unwrap();
        }),
        ("vals_mut", |t| {
            t.vals_mut().iter_mut().for_each(|v| *v = -*v)
        }),
    ]
}

#[test]
fn writes_on_one_side_never_reach_the_other() {
    let x = tensor();
    let want = coo_state(&x);
    for (name, write) in coo_writes() {
        // The write lands on the output: the source keeps its state.
        for (kind, mut out) in [
            ("clone", x.clone()),
            ("ts", ts::ts(&x, 3.0, EwOp::Add).unwrap()),
            ("tew", tew::tew_same_pattern(&x, &x, EwOp::Add).unwrap()),
        ] {
            assert!(shares_coo(&x, &out), "{kind}");
            let before = coo_state(&out);
            write(&mut out);
            assert_ne!(coo_state(&out), before, "{name} on {kind} changed nothing");
            assert_eq!(
                coo_state(&x),
                want,
                "{name} on the {kind} reached the source"
            );
        }
        // The write lands on the source: the output keeps its state.
        let mut src = x.clone();
        let out = ts::ts(&src, 3.0, EwOp::Add).unwrap();
        let out_state = coo_state(&out);
        write(&mut src);
        assert_eq!(
            coo_state(&out),
            out_state,
            "{name} on the source reached the output"
        );
        assert_eq!(coo_state(&x), want);
    }

    let h = HicooTensor::from_coo(&x, 3).unwrap();
    let hwant = hicoo_state(&h);
    let mut out = ts::ts_hicoo(&h, 3.0, EwOp::Add).unwrap();
    let mut copy = h.clone();
    out.vals_mut()[0] = 1e9;
    copy.vals_mut()[1] = -1e9;
    assert_eq!(hicoo_state(&h), hwant);
    assert!(shares_hicoo(&h, &out) && shares_hicoo(&h, &copy));
}

#[test]
fn from_coo_leaves_its_input_alone() {
    // Unsorted input, so the conversion has to sort.
    let x = tensor();
    let mut unsorted = x.clone();
    unsorted.sort_lexicographic(&[2, 1, 0]);
    let x = CooTensor::from_parts(
        x.shape().clone(),
        unsorted.inds().to_vec(),
        unsorted.vals().to_vec(),
    )
    .unwrap();
    let want = coo_state(&x);
    let inds_at = x.inds().as_ptr();
    let h = HicooTensor::from_coo(&x, 3).unwrap();
    assert_eq!(coo_state(&x), want);
    assert_eq!(x.inds().as_ptr(), inds_at);
    assert_eq!(h.to_map(), x.to_map());

    // An input already in Morton order: nothing to sort, same result.
    let mut m = x.clone();
    m.sort_morton(3);
    let want = coo_state(&m);
    let hm = HicooTensor::from_coo(&m, 3).unwrap();
    assert_eq!(coo_state(&m), want);
    assert_eq!(hicoo_state(&hm), hicoo_state(&h));
}

#[test]
fn pattern_check_still_compares_unshared_patterns() {
    let x = tensor();
    // Same length, one coordinate moved, built separately.
    let mut inds = x.inds().to_vec();
    inds[2][17] = (inds[2][17] + 1) % x.shape().dim(2);
    let y = CooTensor::from_parts(x.shape().clone(), inds, x.vals().to_vec()).unwrap();
    assert_eq!(x.nnz(), y.nnz());
    assert!(!x.same_pattern(&y));
    assert_eq!(
        tew::tew_same_pattern(&x, &y, EwOp::Add),
        Err(TensorError::PatternMismatch)
    );
    assert_eq!(
        tew::tew_same_pattern_seq(&x, &y, EwOp::Add),
        Err(TensorError::PatternMismatch)
    );

    // Equal coordinates built separately match, whatever the sort state says.
    let z = CooTensor::from_parts(x.shape().clone(), x.inds().to_vec(), x.vals().to_vec()).unwrap();
    assert_eq!(*z.sort_state(), SortState::Unsorted);
    assert!(x.same_pattern(&z));

    // HiCOO: one element offset moved within its 8-wide block, so nonzero
    // and block counts agree but the coordinate multisets do not.
    let hx = HicooTensor::from_coo(&x, 3).unwrap();
    let mut moved = x.inds().to_vec();
    let at = (0..x.nnz())
        .find(|&i| moved[0][i] % 8 < 7 && moved[0][i] + 1 < x.shape().dim(0))
        .expect("a nonzero with room in its block");
    moved[0][at] += 1;
    let xm = CooTensor::from_parts(x.shape().clone(), moved, x.vals().to_vec()).unwrap();
    let hm = HicooTensor::from_coo(&xm, 3).unwrap();
    assert_eq!((hx.nnz(), hx.num_blocks()), (hm.nnz(), hm.num_blocks()));
    assert!(!hx.same_pattern(&hm));
    assert_eq!(
        tew::tew_hicoo_same_pattern(&hx, &hm, EwOp::Add).map(|_| ()),
        Err(TensorError::PatternMismatch)
    );
}

#[test]
fn value_only_outputs_share_the_input_schedules() {
    let x = tensor();
    for (kind, out) in [
        ("clone", x.clone()),
        ("ts", ts::ts(&x, 2.0, EwOp::Mul).unwrap()),
        ("tew", tew::tew_same_pattern(&x, &x, EwOp::Add).unwrap()),
    ] {
        for mode in 0..3 {
            let theirs = row_schedule(&out, mode);
            assert!(
                Arc::ptr_eq(&theirs, &row_schedule(&x, mode)),
                "{kind} mode {mode}"
            );
        }
    }

    let h = HicooTensor::from_coo(&x, 3).unwrap();
    let out = ts::ts_hicoo(&h, 2.0, EwOp::Mul).unwrap();
    for mode in 0..3 {
        let theirs = mode_schedule(&out, mode);
        assert!(
            Arc::ptr_eq(&theirs, &mode_schedule(&h, mode)),
            "mode {mode}"
        );
        let theirs = complement_schedule(&out, mode);
        assert!(
            Arc::ptr_eq(&theirs, &complement_schedule(&h, mode)),
            "complement mode {mode}"
        );
    }
}

#[test]
fn schedules_live_as_long_as_their_tensor() {
    let x = tensor();
    let h = HicooTensor::from_coo(&x, 3).unwrap();
    let first = mode_schedule(&h, 0);
    // Thirty-two other live tensors, every mode scheduled: 96 schedules,
    // all built after `h`'s.
    let others: Vec<HicooTensor<f32>> = (0..32)
        .map(|_| HicooTensor::from_coo(&x, 3).unwrap())
        .collect();
    for other in &others {
        for mode in 0..3 {
            assert!(!Arc::ptr_eq(&mode_schedule(other, mode), &first));
        }
    }
    assert!(Arc::ptr_eq(&mode_schedule(&h, 0), &first));
}

/// `tasks` are non-empty, disjoint and ascending, and together cover `0..n`.
fn assert_tiles(tasks: &[Range<usize>], n: usize, what: &str) {
    let mut next = 0;
    for t in tasks {
        assert_eq!(t.start, next, "{what}: gap or overlap at {t:?}");
        assert!(t.end > t.start, "{what}: empty task at {t:?}");
        next = t.end;
    }
    assert_eq!(next, n, "{what}: tasks end at {next} of {n}");
}

#[test]
fn one_schedule_serves_every_width() {
    let x = tensor();
    let h = HicooTensor::from_coo(&x, 3).unwrap();
    for mode in 0..3 {
        let rows = with_threads(1, || row_schedule(&x, mode));
        assert!(Arc::ptr_eq(
            &rows,
            &with_threads(4, || row_schedule(&x, mode))
        ));
        let blocks = with_threads(1, || mode_schedule(&h, mode));
        assert!(Arc::ptr_eq(
            &blocks,
            &with_threads(4, || mode_schedule(&h, mode))
        ));
        let rows_n = x.shape().dim(mode) as usize;
        for w in [1, 2, 3, 4, 8] {
            let what = format!("mode {mode} width {w}");
            assert_tiles(&with_threads(w, || rows.tasks()), rows_n, &what);
            assert_tiles(
                &with_threads(w, || blocks.tasks()),
                blocks.num_groups(),
                &what,
            );
        }
    }
}

#[test]
fn index_writes_give_fresh_schedules_and_keep_results_exact() {
    let x = tensor();
    // Small integers: with `tensor()`'s half-integer values every sum is
    // exact in f32, so each scheduled kernel must equal its sequential
    // reference bit for bit.
    let factors: Vec<DenseMatrix<f32>> = (0..3)
        .map(|m| {
            let rows = x.shape().dim(m) as usize;
            DenseMatrix::from_fn(rows, 4, |i, j| ((i + 2 * j + m) % 3) as f32)
        })
        .collect();
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    for (name, write) in coo_writes() {
        let mut c = x.clone();
        for mode in 0..3 {
            assert!(Arc::ptr_eq(
                &row_schedule(&c, mode),
                &row_schedule(&x, mode)
            ));
        }
        write(&mut c);
        for mode in 0..3 {
            let shared = Arc::ptr_eq(&row_schedule(&c, mode), &row_schedule(&x, mode));
            // Values are no part of a schedule: only index writes replace it.
            assert_eq!(shared, name == "vals_mut", "{name} mode {mode}");
        }
        for (side, t) in [("source", &x), ("written", &c)] {
            let h = HicooTensor::from_coo(t, 3).unwrap();
            for mode in 0..3 {
                let what = format!("{name}, {side} side, mode {mode}");
                let want = mttkrp_seq(t, &frefs, mode).unwrap();
                let coo = mttkrp_sched(t, &frefs, mode).unwrap();
                assert_eq!(coo.data(), want.data(), "COO Mttkrp: {what}");
                let hicoo = mttkrp_hicoo_sched(&h, &frefs, mode).unwrap();
                assert_eq!(hicoo.data(), want.data(), "HiCOO Mttkrp: {what}");
                let mut sorted = t.clone();
                let fp = sorted.fibers(mode).unwrap();
                let want = ttm_prepared_seq(&sorted, &fp, frefs[mode]).unwrap();
                let got = ttm_hicoo_sched(&h, frefs[mode], mode).unwrap();
                assert_eq!(got.to_map(), want.to_map(), "HiCOO Ttm: {what}");
            }
        }
    }
}
