//! Tensors that share shape and nonzero count but differ in coordinates,
//! served through a cache a quarter the size of their prepared artifacts:
//! every answer must be the one a freshly prepared job gives for that
//! tensor. Preparation state (schedules, HiCOO conversions, factors) that
//! leaked between equal-sized tensors — through an eviction, a reused
//! buffer or a key that ignores content — would show as a wrong digest.

use std::collections::HashMap;
use std::sync::Arc;

use tenbench_core::coo::CooTensor;
use tenbench_core::kernels::Kernel;
use tenbench_core::shape::Shape;
use tenbench_obs::json::Value;
use tenbench_serve::{
    execute_direct, BatchJob, CacheKey, DirectExecutor, FormatKind, KernelService, PrepCache,
    PrepLayout, Request, ServeConfig,
};

const TENSORS: usize = 10;
const NNZ: u32 = 3_000;
const DIMS: [u32; 3] = [64, 48, 32];
const RANK: usize = 8;
const REQUESTS: usize = 300;
const KERNELS: [Kernel; 3] = [Kernel::Mttkrp, Kernel::Ttv, Kernel::Ttm];

/// Tensor `t`: `NNZ` distinct coordinates, walked through the index space
/// with a stride coprime to its size from an offset of its own.
fn tensor(t: u32) -> Arc<CooTensor<f32>> {
    let [a, b, c] = DIMS;
    let cells = a * b * c;
    let entries = (0..NNZ)
        .map(|i| {
            let at = (i * 7_919 + t * 12_345) % cells;
            (
                vec![at / (b * c), at / c % b, at % c],
                (i % 97) as f32 * 0.125 + 0.5,
            )
        })
        .collect();
    Arc::new(CooTensor::from_entries(Shape::new(DIMS.to_vec()), entries).unwrap())
}

/// The cache key the service uses: rank-free kernels share rank 0.
fn key(x: &CooTensor<f32>, kernel: Kernel, block_bits: u8) -> CacheKey {
    CacheKey {
        fingerprint: x.fingerprint(),
        block_bits,
        rank: if matches!(kernel, Kernel::Ttv) {
            0
        } else {
            RANK
        },
        layout: PrepLayout::Hicoo,
    }
}

/// The digest of one request on artifacts prepared for it alone.
fn fresh_digest(x: &Arc<CooTensor<f32>>, kernel: Kernel, mode: usize, block_bits: u8) -> f64 {
    let k = key(x, kernel, block_bits);
    let (prep, _) = PrepCache::new(u64::MAX).get_or_prepare(k, x).unwrap();
    let job = BatchJob {
        kernel,
        format: FormatKind::Hicoo,
        mode,
        rank: k.rank,
        coo: prep.coo.clone(),
        hicoo: prep.hicoo.clone(),
        vb: prep.vb,
        factors: prep.factors.clone(),
    };
    execute_direct(&job).unwrap().digest
}

#[test]
fn equal_nnz_tensors_under_eviction_answer_like_fresh_preparations() {
    let pool: Vec<_> = (0..TENSORS as u32).map(tensor).collect();
    assert!(pool.iter().all(|x| x.nnz() == NNZ as usize));
    let cfg = ServeConfig::default();

    // Bytes of every entry the requests below prepare: per tensor one
    // rank-0 entry (Ttv) and one rank-R entry (Mttkrp, Ttm).
    let prepared_bytes: u64 = pool
        .iter()
        .flat_map(|x| [Kernel::Ttv, Kernel::Mttkrp].map(|k| (x, k)))
        .map(|(x, k)| {
            let (prep, _) = PrepCache::new(u64::MAX)
                .get_or_prepare(key(x, k, cfg.block_bits), x)
                .unwrap();
            prep.hicoo.storage_bytes() + prep.factors.iter().map(|f| f.storage_bytes()).sum::<u64>()
        })
        .sum();
    let svc = KernelService::start(
        ServeConfig {
            cache_bytes: prepared_bytes / 4,
            ..cfg.clone()
        },
        Box::new(DirectExecutor),
    );

    let mut expected: HashMap<(usize, usize, usize), f64> = HashMap::new();
    let mut checked = 0;
    // Windows of in-flight requests, so both workers and the batcher run.
    for window in (0..REQUESTS).collect::<Vec<_>>().chunks(16) {
        let tickets: Vec<_> = window
            .iter()
            .map(|&r| {
                let (t, k, mode) = (r % TENSORS, r % KERNELS.len(), r / TENSORS % 3);
                let ticket = svc
                    .submit(Request {
                        kernel: KERNELS[k],
                        format: FormatKind::Hicoo,
                        mode,
                        rank: RANK,
                        tensor: pool[t].clone(),
                        deadline: None,
                    })
                    .unwrap();
                ((t, k, mode), ticket)
            })
            .collect();
        for ((t, k, mode), ticket) in tickets {
            let got = ticket.wait().unwrap().digest;
            let want = *expected
                .entry((t, k, mode))
                .or_insert_with(|| fresh_digest(&pool[t], KERNELS[k], mode, cfg.block_bits));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "tensor {t}, {:?} mode {mode}: {got} vs fresh {want}",
                KERNELS[k]
            );
            checked += 1;
        }
    }

    let report = svc.shutdown();
    assert_eq!(checked, REQUESTS);
    assert_eq!(report.failed, 0);
    assert_eq!(report.completed, REQUESTS as u64);
    let json = Value::parse(&report.to_json()).unwrap();
    let evictions = json
        .get("cache")
        .and_then(|c| c.get("evictions"))
        .and_then(Value::as_f64)
        .unwrap();
    assert!(evictions > 0.0, "a quarter-size cache must evict");
}
