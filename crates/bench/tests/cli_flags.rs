//! Process-level checks of `tenbench`'s argument handling: a flag the
//! subcommand does not read, a `--block-bits` outside `1..=8`, and a
//! `paper` artifact, dataset, `--reps` or `--scale` it cannot use are
//! usage errors (exit code 2, the culprit named on stderr, no panic, no
//! output) — and well-formed calls still run.

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
        ("serve --layout vb".to_string(), "--layout"),
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
