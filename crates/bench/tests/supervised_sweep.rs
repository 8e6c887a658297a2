//! The acceptance demo for supervised execution: a benchmark sweep where
//! one cell's kernel panics, one cell exceeds its wall-clock budget, and
//! one input file is corrupted on disk. The sweep must run to completion,
//! the `RunReport`s must record `Recovered` / `TimedOut` / `Failed` for
//! exactly those cells, and every other cell must be `Ok` with a checksum
//! matching the sequential reference.

use std::sync::Arc;
use std::time::Duration;

use tenbench_bench::suite::make_factors;
use tenbench_bench::supervisor::{
    mttkrp_reference_digest, mttkrp_trials, supervise, supervised_mttkrp, validate_matrix,
    RunReport, RunStatus, SupervisorConfig, SweepReport, Trial, HICOO_MTTKRP, REL_TOL, SAMPLE_ROWS,
};
use tenbench_core::coo::CooTensor;
use tenbench_core::dense::DenseMatrix;
use tenbench_core::hicoo::HicooTensor;
use tenbench_core::kernels::mttkrp;
use tenbench_core::shape::Shape;

fn make_tensor(seed: u32) -> CooTensor<f32> {
    CooTensor::from_entries(
        Shape::new(vec![12, 12, 12]),
        (0..150u32)
            .map(|i| {
                let j = i.wrapping_mul(seed * 2 + 7);
                (
                    vec![j % 12, (j / 12) % 12, (j / 144) % 12],
                    (i as f32) * 0.25 + 1.0,
                )
            })
            .collect(),
    )
    .unwrap()
}

/// Fault injection on the strategy axis: the requested strategy's attempt
/// dies, and the supervisor must accept the *next strategy* of the chain the
/// builders produce, with a reference-matching checksum and both attempts on
/// record.
#[test]
fn injected_fault_recovers_on_the_next_strategy_with_reference_checksum() {
    let x = Arc::new(make_tensor(3));
    let factors = Arc::new(make_factors(&x, 4));
    let hx = Arc::new(HicooTensor::from_coo(&x, 2).unwrap());
    let cfg = SupervisorConfig::default();
    let reference = mttkrp_reference_digest(&x, &factors, 0, SAMPLE_ROWS).unwrap();

    // The real HiCOO chain with its first step replaced by an injected
    // fault.
    let mut trials = mttkrp_trials(&HICOO_MTTKRP, &hx, &factors, 0, "scheduled", true);
    assert_eq!(trials[0].strategy, "scheduled");
    trials[0] = Trial::new("scheduled", || -> Result<DenseMatrix<f32>, String> {
        panic!("injected kernel fault")
    });
    let (report, out) = supervise(
        "mttkrp/hicoo/strategy-fault",
        &trials,
        |m| validate_matrix(m, &reference, SAMPLE_ROWS),
        &cfg,
    );
    assert!(out.is_some(), "{}", report.summary());
    assert!(
        matches!(&report.status, RunStatus::Recovered { from } if from == "scheduled"),
        "{:?}",
        report.status
    );
    assert_eq!(report.strategy.as_deref(), Some("seq"));
    let want: f64 = reference.iter().sum();
    let got = report.checksum.expect("accepted output carries a checksum");
    assert!((got - want).abs() <= REL_TOL * want.abs().max(1.0));
    let ran: Vec<&str> = report
        .attempts
        .iter()
        .map(|a| a.strategy.as_str())
        .collect();
    assert_eq!(ran, ["scheduled", "seq"]);
}

#[test]
fn sweep_survives_panic_timeout_and_corruption() {
    let dir = std::env::temp_dir().join("tenbench-supervised-sweep");
    std::fs::create_dir_all(&dir).unwrap();

    // Three input files: two healthy TNB2 tensors and one with a flipped
    // payload bit.
    let paths = [
        dir.join("a.tnb"),
        dir.join("b.tnb"),
        dir.join("corrupt.tnb"),
    ];
    for (i, path) in paths.iter().take(2).enumerate() {
        let f = std::fs::File::create(path).unwrap();
        tenbench_io::bin::write_bin(&make_tensor(i as u32), std::io::BufWriter::new(f)).unwrap();
    }
    let mut bytes = std::fs::read(&paths[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&paths[2], &bytes).unwrap();

    let cfg = SupervisorConfig {
        max_seconds: 0.3,
        ..Default::default()
    };
    let mut sweep = SweepReport::default();

    for path in &paths {
        let cell_base = path.file_name().unwrap().to_string_lossy().into_owned();
        let x = match tenbench_io::bin::read_bin::<f32, _>(std::fs::File::open(path).unwrap()) {
            Ok(t) => Arc::new(t),
            Err(e) => {
                // The hardened reader rejected the file: the cell is
                // recorded as Failed and the sweep moves on.
                sweep.push(RunReport::failed(&cell_base, e.to_string()));
                continue;
            }
        };
        let factors = Arc::new(make_factors(&x, 4));
        let hx = Arc::new(HicooTensor::from_coo(&x, 2).unwrap());
        let reference = mttkrp_reference_digest(&x, &factors, 0, SAMPLE_ROWS).unwrap();

        // Cell 1: injected panic in the first strategy; the seq
        // fallback must recover with a reference-matching checksum.
        {
            let xa = x.clone();
            let fa = factors.clone();
            let trials = vec![
                Trial::new("injected_panic", || -> Result<DenseMatrix<f32>, String> {
                    panic!("injected fault for the sweep demo")
                }),
                Trial::new("seq", move || {
                    let frefs: Vec<&DenseMatrix<f32>> = fa.iter().collect();
                    mttkrp::mttkrp_seq(&xa, &frefs, 0).map_err(|e| e.to_string())
                }),
            ];
            let (report, out) = supervise(
                &format!("{cell_base}/panic-cell"),
                &trials,
                |m| validate_matrix(m, &reference, SAMPLE_ROWS),
                &cfg,
            );
            assert!(out.is_some(), "{}", report.summary());
            sweep.push(report);
        }

        // Cell 2: a kernel that hangs past the watchdog, with no fallback.
        {
            let trials = vec![Trial::new(
                "hung",
                || -> Result<DenseMatrix<f32>, String> {
                    std::thread::sleep(Duration::from_secs(5));
                    Ok(DenseMatrix::zeros(1, 1))
                },
            )];
            let (report, out) = supervise(
                &format!("{cell_base}/timeout-cell"),
                &trials,
                |_| Ok(None),
                &cfg,
            );
            assert!(out.is_none());
            // A timeout is transient: the supervisor retries it once.
            assert_eq!(report.attempts.len(), 2, "{}", report.summary());
            sweep.push(report);
        }

        // Remaining cells: healthy supervised Mttkrp in both formats.
        for (fmt, hicoo) in [("coo", None), ("hicoo", Some(&hx))] {
            let (report, out) = supervised_mttkrp(
                &format!("{cell_base}/mttkrp-{fmt}"),
                &x,
                &factors,
                0,
                hicoo,
                "scheduled",
                &cfg,
            );
            assert!(out.is_some(), "{}", report.summary());
            sweep.push(report);
        }
    }

    // The sweep completed (we got here) with exactly the injected
    // failures: one corrupt file, and per healthy file one recovery and
    // one timeout.
    assert_eq!(sweep.reports.len(), 1 + 2 * 4);
    assert_eq!(sweep.count("failed"), 1);
    assert_eq!(sweep.count("recovered"), 2);
    assert_eq!(sweep.count("timed_out"), 2);
    assert_eq!(sweep.count("ok"), 4);
    assert_eq!(sweep.count("panicked"), 0);
    assert_eq!(sweep.count("invalid_output"), 0);

    for r in &sweep.reports {
        match &r.status {
            RunStatus::Ok => {
                assert!(
                    r.checksum.is_some(),
                    "ok cell without reference checksum: {}",
                    r.cell
                );
            }
            RunStatus::Recovered { from } => {
                assert_eq!(from, "injected_panic", "{}", r.cell);
                assert_eq!(r.strategy.as_deref(), Some("seq"), "{}", r.cell);
                assert!(r.checksum.is_some(), "{}", r.cell);
            }
            RunStatus::TimedOut => assert!(r.cell.contains("timeout-cell"), "{}", r.cell),
            RunStatus::Failed(msg) => {
                assert!(r.cell.contains("corrupt"), "{}", r.cell);
                assert!(msg.contains("corrupt"), "unexpected failure detail: {msg}");
            }
            other => panic!("unexpected status {other:?} for {}", r.cell),
        }
    }

    // The aggregated JSON is well-formed enough to grep in CI artifacts.
    let json = sweep.to_json();
    assert!(json.contains("\"timed_out\": 2"), "{json}");
    assert!(json.contains("\"recovered\": 2"), "{json}");
    assert!(json.contains("\"failed\": 1"), "{json}");
    assert!(!sweep.all_ok());
}
