//! Criterion benchmark behind Figure 3: the ERT micro-kernels (triad
//! bandwidth at cache-resident and DRAM-resident working sets).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tenbench_core::par::{self, Schedule};

fn triad(a: &mut [f32], b: &[f32], c: &[f32]) {
    let chunk = (a.len() / par::current_threads().max(1)).max(1024);
    par::chunks_mut(a, chunk, Schedule::DYNAMIC, |k, ac| {
        let (bc, cc) = (&b[k * chunk..][..ac.len()], &c[k * chunk..][..ac.len()]);
        for i in 0..ac.len() {
            ac[i] = bc[i] * 2.0 + cc[i];
        }
    });
}

fn benches(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("ert/triad");
    for ws_kib in [64usize, 1024, 16 * 1024, 128 * 1024] {
        let n = ws_kib * 1024 / (3 * 4);
        let mut a = vec![0.0f32; n];
        let b = vec![1.5f32; n];
        let c = vec![0.5f32; n];
        group.throughput(Throughput::Bytes((n * 12) as u64));
        group.bench_function(BenchmarkId::from_parameter(format!("{ws_kib}KiB")), |bch| {
            bch.iter(|| triad(&mut a, &b, &c))
        });
    }
    group.finish();
}

criterion_group! {
    name = fig3;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(fig3);
