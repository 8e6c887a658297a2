//! Ablation A2: Mttkrp parallelization strategy. The paper's reference is
//! nonzero-parallel with atomics ("the data race may influence its
//! performance differently depending on non-zero distributions"); this
//! bench compares it with the lock-avoiding alternatives the paper
//! deliberately leaves out of the reference implementation: every Mttkrp
//! cell of the table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tenbench_bench::cells::{prepare, Inputs, CELLS};
use tenbench_bench::data::dataset_tensor;
use tenbench_bench::suite::{DEFAULT_BLOCK_BITS, DEFAULT_RANK};
use tenbench_core::kernels::Kernel;
use tenbench_gen::registry::find;

fn benches(c: &mut Criterion) {
    // s4 (irregular): a power-law mode concentrates updates on few rows —
    // the adversarial case for atomics. s1 (regular) spreads them out.
    for id in ["s4", "s1"] {
        let x = dataset_tensor(find(id).expect("a registry id"), 0.25);
        let inputs = Inputs::new(x, DEFAULT_RANK, DEFAULT_BLOCK_BITS);
        let flops =
            Kernel::Mttkrp.flops(inputs.x.order(), inputs.x.nnz() as u64, DEFAULT_RANK as u64);
        let mut group = c.benchmark_group(format!("ablation/mttkrp/{id}"));
        group.throughput(Throughput::Elements(flops));
        for cell in CELLS.iter().filter(|c| c.kernel == Some(Kernel::Mttkrp)) {
            let p = prepare(&inputs, cell, 0).unwrap();
            group.bench_function(BenchmarkId::from_parameter(cell.name), |b| {
                b.iter(|| p.call().unwrap())
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = ablation_mttkrp;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(ablation_mttkrp);
