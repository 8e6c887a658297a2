//! What the numbers were measured on: printed at the top of every output.

use std::fs;
use std::path::Path;

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cache_size(index: u32) -> String {
    read_trimmed(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout is at, read from `.git` directly (no process is
/// spawned); a checkout that is not a git repository reports `unknown`.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Some(head) = read_trimmed(git.join("HEAD")) else {
        return "unknown".into();
    };
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(git.join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    };
    rev.chars().take(12).collect()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host header.
pub fn header(seed: u64) -> String {
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::is_x86_feature_detected!("avx2"),
        std::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, avx512) = (false, false);
    format!(
        "host: nproc {} | pool threads {} | L2 {} | L3 {} | avx2 {} | avx512f {} | TENBENCH_BACKEND {} | git {} | seed {}",
        nproc(),
        tenbench_core::par::current_threads(),
        cache_size(2),
        cache_size(3),
        avx2,
        avx512,
        std::env::var("TENBENCH_BACKEND").unwrap_or_else(|_| "unset".into()),
        git_rev(),
        seed,
    )
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
