//! The metric registry: every name, unit, direction and bound, in one
//! place. `BENCHMARK.json` is generated from it (`benchmark manifest`) and a
//! test keeps the committed file equal to it.

use std::collections::BTreeMap;

use tenbench_core::kernels::Kernel;
use tenbench_obs::json::escape_json;

use crate::trace::Recorder;

/// What one measured run lasts when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// The four workloads: name and the one line on why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kernels_hot",
        "prepared inputs, every kernel cell repeated on a power-law and a Kronecker tensor: core::kernels does all the work, so a schedule that helps skewed fibers and hurts spread ones shows",
    ),
    (
        "cold_pipeline",
        "the same kernels used once, cold: TNB2 decode, HiCOO conversion, fiber partition and schedule build precede each first call, so work moved into preparation shows as a loss",
    ),
    (
        "serve_hits",
        "closed-loop TCP clients on a small Zipf-skewed tensor pool: framing, decode, fingerprint, verified cache hits and thread hand-offs dominate, the kernel is under 3% of a request",
    ),
    (
        "serve_churn",
        "same server and mix with a near-uniform pool four times the cache budget: inserts, evictions and conversion sit on the request path, so a hit-path gain bought with miss-path cost shows",
    ),
];

/// Kernels with the lowercase names metrics use.
pub const KERNELS: [(Kernel, &str); 5] = [
    (Kernel::Tew, "tew"),
    (Kernel::Ts, "ts"),
    (Kernel::Ttv, "ttv"),
    (Kernel::Ttm, "ttm"),
    (Kernel::Mttkrp, "mttkrp"),
];

/// Lowercase metric name of a kernel.
pub fn kernel_name(k: Kernel) -> &'static str {
    KERNELS
        .iter()
        .find(|(kk, _)| *kk == k)
        .map(|(_, n)| *n)
        .expect("all five kernels are listed")
}

/// The two `kernels_hot` tensors: name and order.
pub const HOT_TENSORS: [(&str, usize); 2] = [("pl3", 3), ("kr4", 4)];

/// One `kernels_hot` cell: a kernel variant on one tensor (and mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    pub kernel: Kernel,
    pub variant: &'static str,
    pub tensor: &'static str,
    pub mode: Option<usize>,
}

impl CellSpec {
    /// The cell's per-layer metric name.
    pub fn metric(&self) -> String {
        let base = format!(
            "core.kernels.{}.{}.{}",
            kernel_name(self.kernel),
            self.variant,
            self.tensor
        );
        match self.mode {
            Some(m) => format!("{base}.m{m}_ms"),
            None => format!("{base}_ms"),
        }
    }
}

/// The cells of one `kernels_hot` tensor, in the order a round calls them.
pub fn hot_cells(tensor: &'static str, order: usize) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    let mut cell = |kernel, variant, mode| {
        cells.push(CellSpec {
            kernel,
            variant,
            tensor,
            mode,
        })
    };
    for variant in ["coo", "hicoo", "coo_general"] {
        cell(Kernel::Tew, variant, None);
    }
    for variant in ["coo", "hicoo"] {
        cell(Kernel::Ts, variant, None);
    }
    for kernel in [Kernel::Ttv, Kernel::Ttm] {
        for mode in [0, order - 1] {
            for variant in ["coo", "hicoo"] {
                cell(kernel, variant, Some(mode));
            }
        }
    }
    // Every mode: what one CP-ALS sweep needs.
    for mode in 0..order {
        for variant in ["coo_atomic", "coo_sched", "hicoo_sched"] {
            cell(Kernel::Mttkrp, variant, Some(mode));
        }
    }
    cells
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition. `bound` is set for end-to-end metrics only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// How far an end-to-end metric may worsen before a change is rejected.
/// One value for all of them, the widest the driver allows: on this shared
/// 2-vCPU host identical runs of the compute workloads drift by 10-20%
/// between minutes-long fast and slow phases (`CALIBRATION.md`), and a bound
/// below that would reject changes that touch nothing.
const BOUND: f64 = 0.25;

/// The end-to-end metrics. Every workload reports every one of them; what
/// each means on each workload is tabulated in `benchmark/README.md`.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let gated = |name: &str, unit, better| Metric {
        bound: Some(BOUND),
        ..metric(name, unit, better)
    };
    let mut v = vec![
        gated("setup_s", "s", Lower),
        gated("peak_rss_mb", "MiB", Lower),
    ];
    for (_, k) in KERNELS {
        v.push(gated(&format!("{k}_geo_ms"), "ms", Lower));
    }
    v.push(gated("first_result_ms", "ms", Lower));
    v.push(gated("req_per_s", "1/s", Higher));
    v.push(gated("lat_p50_ms", "ms", Lower));
    v
}

/// The per-layer metrics, layer = module path. A workload that does not
/// enter a layer reports 0 for it: the layer did no work there.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for (tensor, order) in HOT_TENSORS {
        for c in hot_cells(tensor, order) {
            v.push(metric(c.metric(), "ms", Lower));
        }
    }
    for (_, k) in KERNELS {
        v.push(metric(
            format!("core.kernels.{k}_gflops"),
            "GFLOP/s",
            Higher,
        ));
    }
    v.push(metric("core.kernels.noise_pct", "%", Lower));
    v.push(metric("core.par.threads", "count", Higher));
    for (_, k) in KERNELS {
        v.push(metric(format!("core.par.speedup.{k}"), "ratio", Higher));
    }
    for (name, unit, better) in [
        ("io.bin.decode_ms", "ms", Lower),
        ("io.bin.decode_mb_per_s", "MB/s", Higher),
        ("io.bin.encode_ms", "ms", Lower),
        ("io.tns.parse_ms", "ms", Lower),
        ("core.hicoo.from_coo_ms", "ms", Lower),
        ("core.coo.fibers_ms", "ms", Lower),
        ("core.sched.mode_schedule_ms", "ms", Lower),
        ("core.sched.row_schedule_ms", "ms", Lower),
    ] {
        v.push(metric(name, unit, better));
    }
    for (_, k) in KERNELS {
        v.push(metric(
            format!("core.kernels.first_call.{k}_ms"),
            "ms",
            Lower,
        ));
    }
    for (name, unit, better) in [
        ("cold.unattributed_ms", "ms", Lower),
        ("serve.net.wire_ms", "ms", Lower),
        ("serve.net.self_ms", "ms", Lower),
        ("serve.net.unattributed_ms", "ms", Lower),
        ("serve.net.bytes_in_per_req", "B", Lower),
        ("serve.net.bytes_out_per_req", "B", Lower),
        ("serve.net.lat_p95_ms", "ms", Lower),
        ("serve.net.lat_p99_ms", "ms", Lower),
        ("serve.net.lat_max_ms", "ms", Lower),
        ("serve.net.protocol_errors", "count", Lower),
        ("serve.net.shard_skew", "ratio", Lower),
        ("io.frame.write_ms", "ms", Lower),
        ("io.frame.read_ms", "ms", Lower),
        ("core.coo.fingerprint_ms", "ms", Lower),
        ("serve.service.total_ms", "ms", Lower),
        ("serve.service.self_ms", "ms", Lower),
        ("serve.service.inproc_ms", "ms", Lower),
        ("serve.service.mean_batch", "count", Higher),
        ("serve.queue.wait_ms", "ms", Lower),
        ("serve.queue.max_depth", "count", Lower),
        ("serve.queue.rejected", "count", Lower),
        ("serve.cache.hit_ratio", "ratio", Higher),
        ("serve.cache.hit_ms", "ms", Lower),
        ("serve.cache.miss_ms", "ms", Lower),
        ("serve.cache.evictions", "count", Lower),
        ("serve.cache.resident_mb", "MiB", Lower),
        ("serve.cache.collisions", "count", Lower),
    ] {
        v.push(metric(name, unit, better));
    }
    for (_, k) in KERNELS {
        v.push(metric(format!("serve.exec.{k}_ms"), "ms", Lower));
    }
    for (_, k) in KERNELS {
        v.push(metric(
            format!("bench.supervisor.overhead.{k}_ms"),
            "ms",
            Lower,
        ));
    }
    v.push(metric("bench.trace_overhead_pct", "%", Lower));
    v
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "{{\"name\": \"{name}\", \"why\": \"{}\"}}",
                escape_json(why)
            )
        })
        .collect();
    let e2e = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound"),
            )
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(e2e),
        list(layers),
    )
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (kernel calls, pipeline iterations, requests),
    /// oracle checks included.
    pub attempted: u64,
    /// Operations that failed, were refused, or disagreed with the oracle.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Lines for the human-readable report (sample counts, oracle errors).
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when the run ends.
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        if self.failed <= 8 {
            self.note(format!("FAILED {what}: {why}"));
        }
    }

    /// Count one checked operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(what, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        for m in e2e.iter().chain(&layers) {
            assert!(ok_name(&m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for m in &e2e {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && seen.insert(name.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    #[test]
    fn a_round_has_47_cells() {
        let n: usize = HOT_TENSORS
            .iter()
            .map(|&(t, o)| hot_cells(t, o).len())
            .sum();
        assert_eq!(n, 47);
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        tenbench_obs::json::Value::parse(&committed).expect("valid JSON");
        assert!(committed.len() <= 64 << 10);
    }
}
