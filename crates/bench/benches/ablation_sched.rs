//! Ablation A3: loop scheduling. The paper uses "OpenMP ... with different
//! scheduling strategies" per kernel; Ttv/Ttm fibers have skewed lengths on
//! power-law tensors, which is where dynamic scheduling earns its keep.
//! Alongside the grain sweep, this bench compares the HiCOO conversion-path
//! Ttv/Ttm (atomic-free but serialized through a COO round trip) against the
//! conflict-free complement-scheduled variants that assemble outputs directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tenbench_bench::cells::Inputs;
use tenbench_bench::data::dataset_tensor;
use tenbench_bench::suite::{DEFAULT_BLOCK_BITS, DEFAULT_RANK};
use tenbench_core::dense::DenseVector;
use tenbench_core::kernels::{ttm, ttv, Kernel};
use tenbench_core::par::Schedule;
use tenbench_core::sched::{complement_schedule, mode_schedule};
use tenbench_gen::registry::find;

fn s4_inputs() -> Inputs {
    let x = dataset_tensor(find("s4").expect("a registry id"), 0.25);
    Inputs::new(x, DEFAULT_RANK, DEFAULT_BLOCK_BITS)
}

fn bench_grain_sweep(c: &mut Criterion) {
    let inputs = s4_inputs();
    // Mode 0 fibers of a power-law tensor are heavily skewed.
    let mode = 0;
    let fibers = inputs.fibers(mode).unwrap();
    let (xm, fp) = (&fibers.0, &fibers.1);
    let v = DenseVector::constant(inputs.x.shape().dim(mode) as usize, 1.0f32);
    let m = inputs.x.nnz() as u64;

    let mut group = c.benchmark_group("ablation/sched/ttv");
    group.throughput(Throughput::Elements(2 * m));
    let schedules: Vec<(&str, Schedule)> = vec![
        ("static", Schedule::Static),
        ("dynamic_g1", Schedule::Dynamic { grain: 1 }),
        ("dynamic_g64", Schedule::Dynamic { grain: 64 }),
        ("dynamic_g1024", Schedule::Dynamic { grain: 1024 }),
    ];
    for (name, sched) in schedules {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| ttv::ttv_prepared(xm, fp, &v, sched).unwrap())
        });
    }
    group.finish();
}

fn bench_hicoo_scheduled(c: &mut Criterion) {
    let inputs = s4_inputs();
    let hx = inputs.hx().unwrap();
    let mode = 0;
    let order = inputs.x.order();
    let m = inputs.x.nnz() as u64;
    let v = DenseVector::constant(inputs.x.shape().dim(mode) as usize, 1.0f32);
    let u = &inputs.factors[mode];

    // Build `hx`'s schedules outside the timed region, matching how the
    // suite treats schedule construction as untimed pre-processing.
    let _ = complement_schedule(&hx, mode);
    let _ = mode_schedule(&hx, mode);

    let mut group = c.benchmark_group("ablation/sched/hicoo");
    group.throughput(Throughput::Elements(Kernel::Ttv.flops(order, m, 0)));
    group.bench_function(BenchmarkId::new("Ttv", "convert"), |b| {
        b.iter(|| ttv::ttv_hicoo(&hx, &v, mode).unwrap())
    });
    group.bench_function(BenchmarkId::new("Ttv", "scheduled"), |b| {
        b.iter(|| ttv::ttv_hicoo_sched(&hx, &v, mode).unwrap())
    });
    group.throughput(Throughput::Elements(Kernel::Ttm.flops(
        order,
        m,
        DEFAULT_RANK as u64,
    )));
    group.bench_function(BenchmarkId::new("Ttm", "convert"), |b| {
        b.iter(|| ttm::ttm_hicoo(&hx, u, mode).unwrap())
    });
    group.bench_function(BenchmarkId::new("Ttm", "scheduled"), |b| {
        b.iter(|| ttm::ttm_hicoo_sched(&hx, u, mode).unwrap())
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_grain_sweep(c);
    bench_hicoo_scheduled(c);
}

criterion_group! {
    name = ablation_sched;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(ablation_sched);
