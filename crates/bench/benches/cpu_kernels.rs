//! Criterion benchmarks behind Figures 4–5: the paper's ten cells — five
//! CPU kernels over COO and HiCOO — on a representative irregular power-law
//! tensor (`s4`) and a regular Kronecker tensor (`s1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tenbench_bench::cells::{prepare, Cell, Inputs};
use tenbench_bench::data::dataset_tensor;
use tenbench_bench::suite::{DEFAULT_BLOCK_BITS, DEFAULT_RANK};
use tenbench_core::kernels::Kernel;
use tenbench_gen::registry::find;

fn bench_dataset(c: &mut Criterion, id: &str) {
    let x = dataset_tensor(find(id).expect("a registry id"), 0.25);
    let inputs = Inputs::new(x, DEFAULT_RANK, DEFAULT_BLOCK_BITS);
    let (order, m) = (inputs.x.order(), inputs.x.nnz() as u64);
    let mode = order - 1;

    let mut group = c.benchmark_group(format!("cpu/{id}"));
    for kernel in Kernel::ALL {
        group.throughput(Throughput::Elements(kernel.flops(
            order,
            m,
            DEFAULT_RANK as u64,
        )));
        for format in ["coo", "hicoo"] {
            let cell = Cell::resolve(kernel.name(), format, "atomic").unwrap();
            let p = prepare(&inputs, cell, mode).unwrap();
            group.bench_function(BenchmarkId::from_parameter(cell.name), |b| {
                b.iter(|| p.call().unwrap())
            });
        }
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_dataset(c, "s4");
    bench_dataset(c, "s1");
}

criterion_group! {
    name = cpu_kernels;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(cpu_kernels);
