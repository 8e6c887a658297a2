//! The tracing-overhead acceptance gate: a fully traced suite run must
//! cost < 5% wall time over an untraced run (asserted in `--release` runs
//! only; the no-dropped-events check holds in every profile).
//!
//! This is the only test in its binary on purpose: cargo runs test
//! binaries sequentially, so nothing else competes for cores or toggles
//! the global capture state while the timing comparison runs. The
//! comparison itself is [`trace_overhead`], the loop `tenbench
//! obs-overhead` runs: untraced and traced runs interleaved, best of three
//! kept on both sides, which cancels one-off scheduling noise in either
//! direction.

use tenbench_bench::cli::trace_overhead;
use tenbench_bench::suite::{run_cpu_suite, MachineModel};
use tenbench_core::coo::CooTensor;
use tenbench_core::shape::Shape;

fn make_tensor(n: u32) -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![64, 64, 64]),
        (0..n)
            .map(|i| {
                let j = i.wrapping_mul(2654435761);
                (
                    vec![j % 64, (j / 64) % 64, (j / 4096) % 64],
                    (i % 113) as f32 * 0.25 + 1.0,
                )
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn full_trace_costs_under_five_percent() {
    let x = make_tensor(30_000);
    let machine = MachineModel {
        name: "overhead".into(),
        ert_dram_gbs: 50.0,
        peak_gflops: 500.0,
    };
    let workload = || {
        std::hint::black_box(run_cpu_suite(&x, &machine, 8, 5, 2));
    };
    // Warm caches and the lazy pool once before timing anything.
    workload();

    let o = trace_overhead(3, workload);
    assert_eq!(o.dropped_events, 0, "capture must not drop events");
    // The 5% budget is a claim about optimized code; a debug build's
    // unoptimized span bookkeeping breaks it on a loaded host.
    if cfg!(debug_assertions) {
        return;
    }
    let (untraced, traced) = (o.untraced_s, o.traced_s);

    let ratio = traced / untraced;
    assert!(
        ratio < 1.05,
        "traced suite run is {:.2}% slower than untraced (budget: 5%): \
         untraced {untraced:.4}s, traced {traced:.4}s",
        (ratio - 1.0) * 100.0
    );
}
