//! Process-level checks of `tenbench`'s argument handling: a flag the
//! subcommand does not read, a `--strategy` no cell takes, a `--block-bits`
//! outside `1..=8`, a `paper` artifact, dataset, `--reps` or `--scale` it
//! cannot use, a `stress`/`chaos` duration, Zipf skew or gate it cannot
//! honour, a `chaos` fault rate outside `[0, 1]` or rank 0, and a
//! watchdog budget that is not finite and > 0 are usage errors (exit code
//! 2, the culprit named on stderr, no panic, no output) — and well-formed
//! calls still run. A run that trips a gate is not a usage error: it exits
//! 1 with its report on stdout and the gate named on stderr.

use std::process::{Command, Output};

/// Run `tenbench` with the whitespace-separated `args`.
fn tenbench(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tenbench"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn tenbench")
}

#[test]
fn bad_flags_are_usage_errors_and_good_calls_still_run() {
    let dir = std::env::temp_dir().join(format!("tenbench-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("t.tnb");
    let file = file.to_str().unwrap();
    let made = tenbench(&format!(
        "generate pl --dims 2048,2048,16 --nnz 2000 --out {file}"
    ));
    assert!(made.status.success(), "generate failed: {made:?}");

    for (args, flag) in [
        (format!("kernel mttkrp {file} --formt hicoo"), "--formt"),
        ("stress --layout vb".to_string(), "--layout"),
        (
            format!("kernel mttkrp {file} --strategy privatized"),
            "privatized",
        ),
        (format!("stats {file} --block-bits 263"), "--block-bits"),
        (format!("stats {file} --block-bits 12"), "--block-bits"),
        ("paper fig9 --quick".to_string(), "fig9"),
        ("paper fig6 --datasets s4,zz".to_string(), "zz"),
        ("paper table1 --reps x".to_string(), "--reps"),
        ("paper stats --scale x".to_string(), "--scale"),
        ("paper stats --scale -1".to_string(), "--scale"),
        ("paper stats --scale 0".to_string(), "--scale"),
        ("paper stats --scale inf".to_string(), "--scale"),
        ("paper stats --scale NaN".to_string(), "--scale"),
        ("paper table1 --rank 4".to_string(), "--rank"),
        ("stress --connections 2".to_string(), "--connections"),
        ("stress --shards 9".to_string(), "--shards"),
        ("stress --duration 1e30".to_string(), "--duration"),
        ("stress --alpha 0".to_string(), "--alpha"),
        ("chaos --alpha NaN".to_string(), "--alpha"),
        ("chaos --fault-rate 2".to_string(), "--fault-rate"),
        ("chaos --fault-rate NaN".to_string(), "--fault-rate"),
        ("chaos --rank 0".to_string(), "--rank"),
        (
            "stress --duration 100ms --min-hit-ratio NaN".to_string(),
            "--min-hit-ratio",
        ),
        (
            "stress --duration 100ms --max-p99-ms NaN".to_string(),
            "--max-p99-ms",
        ),
        (
            format!("kernel mttkrp {file} --max-seconds NaN"),
            "--max-seconds",
        ),
        (
            format!("kernel mttkrp {file} --max-seconds -1"),
            "--max-seconds",
        ),
        (
            format!("kernel mttkrp {file} --max-seconds 0"),
            "--max-seconds",
        ),
        (
            format!("kernel mttkrp {file} --max-seconds inf"),
            "--max-seconds",
        ),
        (format!("verify {file} --max-seconds NaN"), "--max-seconds"),
        (
            "stress --duration 100ms --max-seconds 0".to_string(),
            "--max-seconds",
        ),
        (
            "chaos --duration 100ms --max-step-seconds NaN".to_string(),
            "--max-step-seconds",
        ),
        (
            "chaos --duration 100ms --max-step-seconds -1".to_string(),
            "--max-step-seconds",
        ),
        (
            "chaos --duration 100ms --max-step-seconds 0".to_string(),
            "--max-step-seconds",
        ),
        (
            "chaos --duration 100ms --max-step-seconds inf".to_string(),
            "--max-step-seconds",
        ),
    ] {
        let out = tenbench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(flag), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: wrote output before failing");
    }

    let paper = tenbench("paper --quick table2");
    assert!(
        paper.status.success(),
        "paper --quick table2 failed: {paper:?}"
    );
    assert!(String::from_utf8_lossy(&paper.stdout).contains("Table 2"));

    let ok = tenbench(&format!(
        "kernel mttkrp {file} --format hicoo --strategy scheduled --rank 8 --block-bits 8 --reps 1"
    ));
    assert!(ok.status.success(), "well-formed call failed: {ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("mttkrp.hicoo_sched"));
}

#[test]
fn a_tripped_gate_exits_1_and_keeps_its_report() {
    let floors = std::env::temp_dir().join(format!("tenbench-floors-{}", std::process::id()));
    std::fs::write(&floors, "convert.radix@1/convert.comparator@1 1000\n").unwrap();
    for (args, reason, evidence) in [
        (
            // One job worker draws the faults in a fixed panic, hang,
            // corruption cycle, so no job gets past its first iteration.
            "chaos --fault-rate 1 --duration 100ms --jobs 2 --job-workers 1 --dim 8 --nnz 200 \
             --tensors 1 --clients 1 --max-iters 2 --max-step-seconds 0.05"
                .to_string(),
            "chaos gate: no job completed",
            ["lost-jobs gate: 0 <= 0 ok", "burst gate:"],
        ),
        (
            // A floor no host meets; the `--profile` output is kept too.
            format!(
                "scale-bench --nnz 2000 --threads 1 --reps 1 --profile --floors {}",
                floors.display()
            ),
            "scaling gate:",
            ["Self-speedup", "counters:"],
        ),
    ] {
        let out = tenbench(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.contains(&format!("tenbench: gate failed: {reason}")),
            "{args}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        // The report the gate judged is on stdout.
        for line in evidence {
            assert!(stdout.contains(line), "{args}: no {line:?} in {stdout}");
        }
    }
}
