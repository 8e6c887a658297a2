//! The schedule cache must never serve one tensor's schedule to another.
//!
//! Tensors here are built, used by a scheduled kernel and dropped in a loop,
//! so the allocator hands each new tensor the buffers of the previous one.
//! Successive tensors have equal shape, nnz and block count but different
//! output rows; a cache that identifies a tensor by anything that survives
//! its drop (such as a buffer address plus counts) runs the dead tensor's
//! schedule on the live one.
//!
//! One test per file-level process: the cache is global and never cleared
//! here, which is the situation a long-lived service is in.

use tenbench_core::kernels::mttkrp::{mttkrp_hicoo_sched, mttkrp_sched, mttkrp_seq};
use tenbench_core::prelude::*;

const DIM: u32 = 32;
const NNZ: u32 = 600;
const RANK: usize = 4;

/// `NNZ` distinct coordinates; `variant` mirrors a different subset of modes,
/// which permutes rows and blocks but keeps nnz and the block count.
fn tensor(variant: u32) -> CooTensor<f32> {
    let flip = |c: u32, bit: u32| {
        if variant >> bit & 1 == 1 {
            DIM - 1 - c
        } else {
            c
        }
    };
    let entries = (0..NNZ)
        .map(|i| {
            // Skewed on purpose: low coordinates are dense, high ones sparse,
            // so mirroring a mode changes which rows are heavy.
            let (a, b, c) = (i * i % DIM * i % DIM, i / 3 % DIM, i % 7 + i / 100);
            (
                vec![flip(a, 0), flip(b, 1), flip(c, 2)],
                (i % 5) as f32 - 2.0,
            )
        })
        .collect();
    CooTensor::from_entries(Shape::new(vec![DIM; 3]), entries).unwrap()
}

#[test]
fn dropped_tensors_never_lend_their_schedule_to_a_successor() {
    let factors: Vec<DenseMatrix<f32>> = (0..3)
        .map(|m| DenseMatrix::from_fn(DIM as usize, RANK, |i, j| ((i + 2 * j + m) % 3) as f32))
        .collect();
    let frefs: Vec<&DenseMatrix<f32>> = factors.iter().collect();
    let (nnz, blocks) = {
        let x = tensor(0);
        (x.nnz(), HicooTensor::from_coo(&x, 2).unwrap().num_blocks())
    };
    for round in 0..40u32 {
        let x = tensor(round % 8);
        let h = HicooTensor::from_coo(&x, 2).unwrap();
        assert_eq!((x.nnz(), h.num_blocks()), (nnz, blocks), "round {round}");
        for mode in 0..3 {
            // Small integers throughout: every sum is exact in f32, so the
            // scheduled kernels must equal the sequential one bit for bit.
            let want = mttkrp_seq(&x, &frefs, mode).unwrap();
            let coo = mttkrp_sched(&x, &frefs, mode).unwrap();
            assert_eq!(coo.data(), want.data(), "COO round {round} mode {mode}");
            let hicoo = mttkrp_hicoo_sched(&h, &frefs, mode).unwrap();
            assert_eq!(hicoo.data(), want.data(), "HiCOO round {round} mode {mode}");
        }
    }
}
