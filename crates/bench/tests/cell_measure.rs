//! Pins the call accounting of [`tenbench_bench::suite::measure_cell`]:
//! per-call figures must divide the counter deltas by the *true* number of
//! calls the cell made — the calibration warmup plus `reps × batch` timed
//! calls — not by `reps`. A closure that charges a fixed cost per call
//! makes any mismatch visible as a wrong per-call quotient.
//!
//! The obs counters are always on and `measure_cell` reads them by
//! difference, so no other reader can switch them off or zero them under a
//! cell. But they are process-wide: a delta also holds whatever concurrent
//! work charged. The exact equalities below therefore need a binary with no
//! other counter-charging tests, and its own two tests, which cargo runs on
//! parallel threads, each hold [`COUNTERS`] while they measure.

use std::sync::Mutex;
use std::time::Duration;

use tenbench_bench::suite::measure_cell;
use tenbench_obs::counters;

const FLOPS_PER_CALL: u64 = 1000;
const BYTES_PER_CALL: u64 = 64;

/// Serializes the tests of this binary: both read deltas of the same
/// process-wide counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn charge() {
    counters::FLOPS.add(FLOPS_PER_CALL);
    counters::BYTES.add(BYTES_PER_CALL);
    counters::KERNEL_CALLS.add(1);
}

#[test]
fn slow_cell_counts_warmup_plus_reps() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let reps = 3;
    // Slower than the 1 ms calibration threshold, so the inner batch is 1
    // and the cell makes exactly `reps + 1` calls (warmup included).
    let cell = measure_cell(reps, || {
        std::thread::sleep(Duration::from_millis(2));
        charge();
    });
    assert_eq!(cell.calls, reps as u64 + 1, "calls = warmup + reps");
    assert_eq!(cell.flops, cell.calls * FLOPS_PER_CALL);
    assert_eq!(cell.bytes, cell.calls * BYTES_PER_CALL);
    // The per-call figure the roofline annotation uses.
    assert_eq!(cell.flops / cell.calls.max(1), FLOPS_PER_CALL);
}

#[test]
fn fast_cell_counts_every_batched_call() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let reps = 2;
    // Much faster than 1 ms: the sampler batches the timed loop, so the call
    // count exceeds warmup + reps. The counters must still agree with the
    // per-call charge exactly — that is only true when every batched call
    // is counted.
    let cell = measure_cell(reps, charge);
    assert!(
        cell.calls > reps as u64 + 1,
        "expected inner batching, got {} calls",
        cell.calls
    );
    assert_eq!(cell.flops, cell.calls * FLOPS_PER_CALL);
    assert_eq!(cell.bytes, cell.calls * BYTES_PER_CALL);
    assert_eq!(cell.flops / cell.calls.max(1), FLOPS_PER_CALL);
}
