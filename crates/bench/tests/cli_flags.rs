//! Process-level checks of `tenbench`'s argument handling: a flag the
//! subcommand does not read, or a `--block-bits` outside `1..=8`, is a
//! usage error (exit code 2, the flag named on stderr, no panic) — and a
//! well-formed call still runs.

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
    ] {
        let out = tenbench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(flag), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }

    let ok = tenbench(&format!(
        "kernel mttkrp {file} --format hicoo --strategy scheduled --rank 8 --block-bits 8 --reps 1"
    ));
    assert!(ok.status.success(), "well-formed call failed: {ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("mttkrp.hicoo_sched"));
}
