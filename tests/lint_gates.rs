//! The source lint gates CI runs, as code: each gate is a function over
//! `(path, contents)` pairs, checked once against the Rust sources under
//! `crates/` and `src/` and once against a planted violation it must
//! reject.
//!
//! - **`unsafe` budget.** Lines that contain the word `unsafe` (comment
//!   lines aside) may not outnumber `ci/unsafe-budget.txt`. A ratchet:
//!   lower the number when a change removes some.
//! - **`unsafe` only in the runtime and the recorders.** Outside the pool
//!   and its loop functions, the radix sort, the atomic view and the obs
//!   recorders' per-thread claim cell, no such line may exist: formats,
//!   kernels, `dense` and `sched` are safe code.
//! - **No process-wide lock on the kernel path.** Schedules live on the
//!   tensor they describe; no `Mutex`, `RwLock` or line-leading `static`
//!   in `sched.rs`, the kernels, or the COO and HiCOO formats.
//!
//! Paths are relative to the repository root with `/` separators, so a
//! planted input names the file it pretends to be.

use std::fs;
use std::path::Path;

type Sources = Vec<(String, String)>;

/// Every `.rs` file under `crates/` and `src/`, as `(path, contents)`.
/// Build output (`target/`) is not source and is skipped.
fn sources() -> Sources {
    fn walk(root: &Path, dir: &Path, out: &mut Sources) {
        let mut entries: Vec<_> = fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(root, &path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let rel = rel.to_string_lossy().replace('\\', "/");
                let text = fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
                out.push((rel, text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        walk(root, &root.join(top), &mut out);
    }
    assert!(
        out.iter().any(|(p, _)| p == "crates/core/src/sched.rs"),
        "the walk must reach the kernel-path files"
    );
    out
}

fn unsafe_budget() -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/unsafe-budget.txt");
    let text = fs::read_to_string(&path).expect("read ci/unsafe-budget.txt");
    text.trim().parse().expect("the budget is one number")
}

/// `grep -w`: `word` occurs with no word character (`[A-Za-z0-9_]`)
/// directly before or after it.
fn has_word(line: &str, word: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !is_word(line[..at].chars().next_back()) && !is_word(line[at + word.len()..].chars().next())
    })
}

/// `path:line: text` of every non-comment line that contains the word
/// `unsafe`. A comment line is one whose first non-blank characters are
/// `//` (doc comments included).
fn unsafe_lines<'a>(files: impl IntoIterator<Item = &'a (String, String)>) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in files {
        for (i, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with("//") && has_word(line, "unsafe") {
                hits.push(format!("{path}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    hits
}

/// Gate 1: at most `budget` `unsafe` lines. Returns the count.
fn unsafe_budget_gate(files: &[(String, String)], budget: usize) -> Result<usize, String> {
    let hits = unsafe_lines(files);
    if hits.len() <= budget {
        Ok(hits.len())
    } else {
        Err(format!(
            "{} unsafe lines, budget {budget}:\n{}",
            hits.len(),
            hits.join("\n")
        ))
    }
}

/// Files allowed to contain `unsafe`.
const UNSAFE_FILES: [&str; 5] = [
    "crates/core/src/par.rs",
    "crates/core/src/par/pool.rs",
    "crates/core/src/radix.rs",
    "crates/core/src/atomic.rs",
    "crates/obs/src/claim.rs",
];

/// Gate 2: `unsafe` only in [`UNSAFE_FILES`].
fn unsafe_scope_gate(files: &[(String, String)]) -> Result<(), String> {
    let hits = unsafe_lines(
        files
            .iter()
            .filter(|(path, _)| !UNSAFE_FILES.contains(&path.as_str())),
    );
    if hits.is_empty() {
        Ok(())
    } else {
        Err(format!("unsafe outside the runtime:\n{}", hits.join("\n")))
    }
}

/// Is `path` on the kernel path the lock gate covers?
fn on_kernel_path(path: &str) -> bool {
    path == "crates/core/src/sched.rs"
        || ["kernels", "coo", "hicoo"]
            .iter()
            .any(|dir| path.starts_with(&format!("crates/core/src/{dir}/")))
}

/// Gate 3: no `Mutex`, `RwLock` or line-leading `static ` on the kernel
/// path (comment lines included, as in the grep it replaces).
fn no_lock_gate(files: &[(String, String)]) -> Result<(), String> {
    let mut hits = Vec::new();
    for (path, text) in files.iter().filter(|(p, _)| on_kernel_path(p)) {
        for (i, line) in text.lines().enumerate() {
            if line.contains("Mutex")
                || line.contains("RwLock")
                || line.trim_start().starts_with("static ")
            {
                hits.push(format!("{path}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    if hits.is_empty() {
        Ok(())
    } else {
        Err(format!("lock on the kernel path:\n{}", hits.join("\n")))
    }
}

/// The sources with `extra` appended to the file at `path`.
fn plant(mut files: Sources, path: &str, extra: &str) -> Sources {
    let (_, text) = files
        .iter_mut()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("{path} is not in the tree"));
    text.push_str(extra);
    files
}

#[test]
fn unsafe_budget_holds_and_a_planted_excess_trips_it() {
    let files = sources();
    let budget = unsafe_budget();
    let count = unsafe_budget_gate(&files, budget).unwrap_or_else(|e| panic!("{e}"));
    println!("unsafe lines: {count} (budget {budget})");

    // budget + 1 counted lines, among lines the gate must not count.
    let mut planted = String::from("// unsafe in a comment\n/// unsafe in a doc\n");
    planted.push_str("let unsafe_code = 1; let x = not_unsafe;\n");
    planted.push_str(&"unsafe { f() }\n".repeat(budget + 1));
    let probe = vec![("crates/core/src/par.rs".to_string(), planted)];
    let err = unsafe_budget_gate(&probe, budget).expect_err("budget + 1 lines must trip");
    assert!(
        err.starts_with(&format!("{} unsafe lines", budget + 1)),
        "{err}"
    );
}

#[test]
fn unsafe_stays_in_the_runtime_and_a_planted_kernel_block_trips_it() {
    let files = sources();
    unsafe_scope_gate(&files).unwrap_or_else(|e| panic!("{e}"));

    let planted = plant(
        files,
        "crates/core/src/kernels/ttv.rs",
        "\nfn planted(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n",
    );
    let err = unsafe_scope_gate(&planted).expect_err("unsafe in a kernel must trip");
    assert!(err.contains("crates/core/src/kernels/ttv.rs:"), "{err}");
}

#[test]
fn kernel_path_has_no_lock_and_a_planted_static_mutex_trips_it() {
    let files = sources();
    no_lock_gate(&files).unwrap_or_else(|e| panic!("{e}"));

    let planted = plant(
        files,
        "crates/core/src/sched.rs",
        "\nstatic CACHE: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());\n",
    );
    let err = no_lock_gate(&planted).expect_err("a static Mutex in sched.rs must trip");
    assert!(err.contains("crates/core/src/sched.rs:"), "{err}");
}

#[test]
fn word_match_is_grep_w() {
    assert!(has_word("unsafe {", "unsafe"));
    assert!(has_word("pub unsafe fn f()", "unsafe"));
    assert!(has_word("x.unsafe_y; unsafe", "unsafe"));
    assert!(!has_word("unsafe_code", "unsafe"));
    assert!(!has_word("not_unsafe", "unsafe"));
    assert!(!has_word("unsafe2", "unsafe"));
}
