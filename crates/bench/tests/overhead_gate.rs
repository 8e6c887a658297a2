//! A planted test for the tracing-overhead gate: [`trace_overhead`]'s
//! verdict must reject a workload that is slower only while traced, and
//! pass the same workload when tracing costs it nothing.
//!
//! The workload sleeps about 30 ms per call, plus about 9 ms (30 %) more
//! whenever [`tenbench_obs::is_tracing`] is true, so its traced side is
//! slower by construction and the gate's measured overhead must land above
//! the 5 % that `tenbench obs-overhead --max-overhead-pct 5` rejects.
//! Without the extra sleep (the control) it must land below 5 %.
//!
//! Its own test binary with one test: a trace capture drains the one span
//! sink, so no other test may capture while these pairs run
//! (`obs_overhead.rs` stays single-test for the same reason).

use std::thread::sleep;
use std::time::Duration;

use tenbench_bench::cli::trace_overhead;

/// `obs-overhead`'s CI ceiling, in percent.
const CEILING_PCT: f64 = 5.0;

fn workload(planted: bool) {
    sleep(Duration::from_millis(30));
    if planted && tenbench_obs::is_tracing() {
        sleep(Duration::from_millis(9));
    }
}

#[test]
fn a_planted_traced_only_slowdown_trips_the_gate_and_the_control_passes() {
    let o = trace_overhead(11, || workload(true));
    println!(
        "planted: untraced {:.4}s, traced {:.4}s, {:+.2}%",
        o.untraced_s,
        o.traced_s,
        o.overhead_pct()
    );
    assert!(
        o.overhead_pct() > CEILING_PCT,
        "a 9 ms traced-only sleep on 30 ms must read above {CEILING_PCT}%: {o:?}"
    );

    let c = trace_overhead(11, || workload(false));
    println!(
        "control: untraced {:.4}s, traced {:.4}s, {:+.2}%",
        c.untraced_s,
        c.traced_s,
        c.overhead_pct()
    );
    assert!(
        c.overhead_pct() < CEILING_PCT,
        "the same workload without the traced-only sleep must read below {CEILING_PCT}%: {c:?}"
    );
}
