//! Ablation A2: Mttkrp parallelization strategy. The paper's reference is
//! nonzero-parallel with atomics ("the data race may influence its
//! performance differently depending on non-zero distributions"); this
//! bench compares it with the lock-avoiding alternatives the paper
//! deliberately leaves out of the reference implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tenbench_bench::data::{factor_refs, hicoo_fixture, BENCH_RANK};
use tenbench_core::kernels::mttkrp::{
    mttkrp_hicoo, mttkrp_hicoo_sched, mttkrp_with, MttkrpStrategy,
};

fn benches(c: &mut Criterion) {
    // s4 (irregular): a power-law mode concentrates updates on few rows —
    // the adversarial case for atomics. s1 (regular) spreads them out.
    for id in ["s4", "s1"] {
        let fx = hicoo_fixture(id, 0.25);
        let frefs = factor_refs(&fx.factors);
        let m = fx.coo.nnz() as u64;
        let mut group = c.benchmark_group(format!("ablation/mttkrp/{id}"));
        group.throughput(Throughput::Elements(3 * m * BENCH_RANK as u64));
        for (name, strat) in [
            ("seq", MttkrpStrategy::Seq),
            ("atomic", MttkrpStrategy::Atomic),
            ("privatized", MttkrpStrategy::Privatized),
            ("scheduled", MttkrpStrategy::Scheduled),
        ] {
            group.bench_function(BenchmarkId::from_parameter(name), |b| {
                b.iter(|| mttkrp_with(&fx.coo, &frefs, 0, strat).unwrap())
            });
        }
        group.bench_function(BenchmarkId::from_parameter("hicoo_atomic"), |b| {
            b.iter(|| mttkrp_hicoo(&fx.hicoo, &frefs, 0).unwrap())
        });
        group.bench_function(BenchmarkId::from_parameter("hicoo_scheduled"), |b| {
            b.iter(|| mttkrp_hicoo_sched(&fx.hicoo, &frefs, 0).unwrap())
        });
        group.finish();
    }
}

criterion_group! {
    name = ablation_mttkrp;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(ablation_mttkrp);
