//! The `tenbench` command-line tool.
//!
//! ```text
//! tenbench paper    <table1..4|fig1..7|stats|reorder|observations|all>
//!                   [--datasets r1,s4] [--quick] [--scale F] [--reps N]
//!                   [--csv PATH]
//! tenbench convert  <in.{tns,tnb}> <out.{tns,tnb}>
//! tenbench stats    <file> [--block-bits B]
//! tenbench generate <kron|pl> --dims 1024,1024,64 --nnz 100000 [--seed S] --out <file>
//! tenbench kernel   <tew|ts|ttv|ttm|mttkrp> <file> [--mode N] [--rank R]
//!                   [--format coo|hicoo] [--block-bits B] [--reps K]
//!                   [--strategy seq|atomic|scheduled]
//!                   [--max-seconds S] [--fallback on|off]
//! tenbench kernel   --all [file] [--dataset s4] [--nnz N] [--mode N] ...
//! tenbench scale-bench [--dataset s4] [--nnz N] [--rank R] [--block-bits B]
//!                   [--threads 1,2,4,8] [--reps K] [--out BENCH_scaling.json]
//!                   [--floors ci/scaling-floor.txt]
//! tenbench verify   <file> [--block-bits B] [--rank R] [--max-seconds S]
//! tenbench report   <trace.json | flight-dump.json>
//! tenbench obs-overhead [--dataset s4] [--nnz N] [--rank R] [--block-bits B]
//!                   [--reps K] [--threads 1,2,4] [--rounds 3]
//!                   [--out BENCH_obs_overhead.json] [--max-overhead-pct X]
//! tenbench stress   [--dataset s4] [--nnz N] [--tensors T] [--duration 5s]
//!                   [--concurrency C] [--alpha A] [--rank R] [--workers W]
//!                   [--queue-bound Q] [--max-batch B] [--cache-mb M]
//!                   [--deadline-ms D] [--max-p99-ms X] [--min-hit-ratio H]
//!                   [--out BENCH_serve.json] [--flight-dump-dir DIR]
//!                   [--net [--shards S]]
//! tenbench chaos    [--seed S] [--duration 3s] [--jobs J] [--dim D]
//!                   [--nnz N] [--tensors T] [--alpha A] [--clients C]
//!                   [--rank R] [--max-iters I] [--fault-rate P]
//!                   [--max-step-seconds S] [--job-workers W]
//!                   [--max-recoveries K] [--out BENCH_chaos.json]
//!                   [--floors ci/chaos-floor.txt] [--flight-dump-dir DIR]
//! ```
//!
//! `paper` regenerates the paper's tables and figures (see
//! `tenbench_bench::paper` for the artifact list); it writes each section
//! to stdout as soon as it is done and its progress to stderr.
//!
//! `kernel` resolves `(kernel, --format, --strategy)` to one cell of the
//! table in `tenbench_bench::cells` and names it in its report. Every
//! kernel validates `--strategy`: Mttkrp has a cell per strategy, HiCOO
//! Ttv/Ttm run the scheduled kernel under `scheduled` and the gHiCOO one
//! otherwise, the remaining cells accept any of the three values, and an
//! unknown value is a usage error that lists the cells. `scale-bench`
//! sweeps the whole table (every strategy, and the conversion pipeline
//! under the radix and the comparator sort) across `--threads`; a
//! `--floors` file holds `<cell>@<threads> <min_self_speedup>` and
//! `<cell>@<t>/<cell>@<t> <min_ratio>` lines.
//!
//! The measuring subcommands (`kernel`, `scale-bench`) additionally accept
//! `--trace <path>` (write a chrome-trace JSON of the run, viewable in
//! `about:tracing` / Perfetto) and `--profile` (append the hierarchical
//! span profile, counters, and pool telemetry to the report). `report`
//! validates and summarizes a written trace; `obs-overhead` measures the
//! traced-vs-untraced cost of the capture.
//!
//! A flag the subcommand does not read is a usage error (exit code 2),
//! not a silently dropped typo. A gate that fails (`stress`, `chaos`,
//! `scale-bench --floors`, `obs-overhead --max-overhead-pct`) prints the
//! full report to stdout and `tenbench: gate failed: <reason>` to stderr,
//! and exits 1.
//!
//! `--max-seconds` or `--fallback` switch `kernel` to supervised mode:
//! the run executes on a watchdogged worker thread under panic isolation,
//! the output is validated (NaN/Inf scan; Mttkrp additionally checksums
//! against the sequential reference), and on failure the run falls back
//! (Mttkrp through the requested kernel, then `scheduled`, then `seq`;
//! HiCOO Ttv/Ttm to the other HiCOO cell). `verify` runs the full integrity
//! battery on one tensor file. A watchdog budget (`--max-seconds`,
//! `--max-step-seconds`) must be a finite number of seconds > 0.
//!
//! `stress` starts the batched kernel service (supervised executor,
//! format/schedule cache, admission-controlled queue) — in this process,
//! or with `--net` behind a loopback `NetServer` of `--shards`
//! fingerprint-partitioned shards speaking the `TNF1` frame protocol. One
//! load generator drives either: `--concurrency` closed-loop clients with
//! Zipf-skewed tensor popularity, then an overload burst of clients
//! released together against one shard with no deadline. It writes
//! `BENCH_serve.json` with client-side p50/p90/p99 latency, shed counts,
//! cache hit ratio and the server report, and the same gates fail the
//! process on both transports: no completion, any request lost without a
//! typed answer, any server-side protocol error, a closed-loop p99 over
//! `--max-p99-ms` or hit ratio under `--min-hit-ratio`, and no typed
//! queue-full rejection in the burst.
//!
//! `chaos` runs the fault-injection harness: kernel traffic plus
//! long-running CP-ALS jobs on one live service stack, with
//! injected step panics, watchdog-tripping hangs, checkpoint corruption,
//! and queue-full bursts. It writes `BENCH_chaos.json` and fails the
//! process unless every admitted job reaches a terminal state, at least
//! `min_recoveries` faults were absorbed by checkpoint resume, every
//! fault kind fired, at least one job completed, and every completed job
//! bitwise-matches an uninterrupted reference run. `--fault-rate` must be
//! in `[0, 1]` and `--rank` positive.
//!
//! `--flight-dump-dir DIR` (on `stress` and `chaos`) routes
//! flight-recorder fault dumps to DIR: the always-on per-thread ring of
//! recent causal events is snapshotted into
//! `DIR/flight-<seq>-<reason>.json` the moment a guarded kernel attempt or
//! job step panics or times out, the supervisor rejects an output, or
//! checkpoint corruption is detected on the resume path. `tenbench report
//! <dump>` validates and pretty-prints a dump; under `chaos`, the run additionally fails unless
//! every observed fault kind produced at least one dump.

use std::path::PathBuf;
use std::process::ExitCode;

use tenbench_bench::cli::{self, CliError};
use tenbench_bench::paper;

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            // `paper` has already streamed its report.
            if !msg.is_empty() {
                println!("{msg}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A failed gate prints the report it judged, then exits 1;
            // usage, I/O and tensor errors exit 2.
            let code = match e.downcast_ref::<CliError>() {
                Some(CliError::Gate { report, .. }) => {
                    println!("{report}");
                    1
                }
                _ => 2,
            };
            eprintln!("tenbench: {e}");
            ExitCode::from(code)
        }
    }
}

/// Flags every subcommand accepts, space-separated like [`flags_of`].
const GLOBAL_FLAGS: &str = "trace profile flight-dump-dir";

/// The space-separated flags `sub` reads besides [`GLOBAL_FLAGS`]; `None`
/// for an unknown subcommand (the dispatch below reports that one).
fn flags_of(sub: &str) -> Option<&'static str> {
    Some(match sub {
        "paper" => "datasets quick scale reps csv",
        "convert" | "report" => "",
        "stats" => "block-bits",
        "generate" => "dims nnz seed out",
        "kernel" => {
            "all mode rank format block-bits reps strategy max-seconds fallback dataset nnz"
        }
        "scale-bench" => "dataset nnz rank block-bits threads reps out floors",
        "verify" => "block-bits rank max-seconds fallback",
        "obs-overhead" => "dataset nnz rank block-bits reps threads rounds out max-overhead-pct",
        "stress" => {
            "dataset nnz rank workers queue-bound max-batch cache-mb block-bits max-seconds \
             fallback tensors duration concurrency alpha deadline-ms max-p99-ms min-hit-ratio \
             out net shards"
        }
        "chaos" => {
            "seed duration jobs dim nnz tensors alpha clients rank max-iters fault-rate \
             max-step-seconds job-workers max-recoveries out floors"
        }
        _ => return None,
    })
}

/// Build the service tuning knobs of `stress` from the parsed options.
fn serve_config(
    get_usize: &dyn Fn(&str, usize) -> Result<usize, String>,
    block_bits: u8,
) -> Result<tenbench_serve::ServeConfig, String> {
    let defaults = tenbench_serve::ServeConfig::default();
    Ok(tenbench_serve::ServeConfig {
        workers: get_usize("workers", defaults.workers)?,
        queue_bound: get_usize("queue-bound", defaults.queue_bound)?,
        max_batch: get_usize("max-batch", defaults.max_batch)?,
        cache_bytes: (get_usize("cache-mb", (defaults.cache_bytes >> 20) as usize)? as u64) << 20,
        block_bits,
    })
}

fn run() -> Result<String, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut pos: Vec<String> = Vec::new();
    let mut opts: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    // Flags that do not consume a value.
    const SWITCHES: [&str; 4] = ["profile", "all", "net", "quick"];
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if SWITCHES.contains(&key) {
                opts.insert(key.to_string(), "on".to_string());
                i += 1;
            } else {
                let val = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                opts.insert(key.to_string(), val.clone());
                i += 2;
            }
        } else {
            pos.push(args[i].clone());
            i += 1;
        }
    }
    if let Some((sub, allowed)) = pos.first().and_then(|s| Some((s, flags_of(s)?))) {
        let known = |key: &str| {
            allowed
                .split(' ')
                .chain(GLOBAL_FLAGS.split(' '))
                .any(|f| f == key)
        };
        if let Some(key) = opts.keys().find(|k| !known(k)) {
            return Err(
                CliError::Usage(format!("unknown flag --{key} for `tenbench {sub}`")).into(),
            );
        }
    }
    let get_usize = |key: &str, default: usize| -> Result<usize, String> {
        opts.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key}")))
            .unwrap_or(Ok(default))
    };
    let get_f64 = |key: &str, default: f64| -> Result<f64, String> {
        opts.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key}")))
            .unwrap_or(Ok(default))
    };
    let get_threads = |default: &str| -> Result<Vec<usize>, String> {
        let list = opts.get("threads").map(String::as_str).unwrap_or(default);
        list.split(',')
            .map(|t| t.parse().map_err(|_| "bad --threads".to_string()))
            .collect()
    };
    // HiCOO element indices are `u8`, so the block edge `2^bits` is at most 256.
    let block_bits: u8 = match opts.get("block-bits") {
        None => 7,
        Some(v) => v
            .parse()
            .ok()
            .filter(|b| (1..=8).contains(b))
            .ok_or_else(|| CliError::Usage(format!("bad --block-bits {v} (expected 1..=8)")))?,
    };
    // A watchdog budget that is not finite and > 0 would switch the
    // watchdog off, so the flags that set one refuse it.
    let get_budget = |key: &str| -> Result<Option<f64>, CliError> {
        opts.get(key)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "bad --{key} {v} (expected a finite number of seconds > 0)"
                        ))
                    })
            })
            .transpose()
    };
    let max_seconds = get_budget("max-seconds")?;
    let fallback: Option<bool> = opts
        .get("fallback")
        .map(|v| match v.as_str() {
            "on" | "true" => Ok(true),
            "off" | "false" => Ok(false),
            _ => Err("bad --fallback (expected on or off)".to_string()),
        })
        .transpose()?;
    let supervisor_cfg = || {
        let mut cfg = tenbench_bench::supervisor::SupervisorConfig::default();
        if let Some(s) = max_seconds {
            cfg.max_seconds = s;
        }
        if let Some(f) = fallback {
            cfg.fallback = f;
        }
        cfg
    };
    let obs_opts = cli::ObsOptions {
        trace: opts.get("trace").map(PathBuf::from),
        profile: opts.contains_key("profile"),
    };
    // `--flight-dump-dir DIR` routes flight-recorder fault dumps there;
    // the directory is created eagerly so a bad path fails now, not at
    // the first fault. The chaos gates additionally key on its contents.
    let flight_dump_dir = opts.get("flight-dump-dir").map(PathBuf::from);
    if let Some(dir) = &flight_dump_dir {
        tenbench_obs::flight::set_dump_dir(Some(dir.clone()))
            .map_err(|e| format!("--flight-dump-dir {}: {e}", dir.display()))?;
    }

    match pos.first().map(String::as_str) {
        Some("paper") => {
            let [_, artifact] = &pos[..] else {
                return Err("usage: tenbench paper <artifact> [options] (see the module docs)".into());
            };
            let paper_opts = paper::PaperOpts::new(
                opts.get("datasets").map(String::as_str),
                opts.contains_key("quick"),
                get_f64("scale", 1.0)?,
                get_usize("reps", tenbench_bench::suite::DEFAULT_REPS)?,
                opts.get("csv").map(PathBuf::from),
            )?;
            Ok(cli::with_obs(&obs_opts, || {
                paper::run(artifact, &paper_opts, &mut std::io::stdout().lock())?;
                Ok(String::new())
            })?)
        }
        Some("convert") => {
            let [_, input, output] = &pos[..] else {
                return Err("usage: tenbench convert <in> <out>".into());
            };
            Ok(cli::convert(&PathBuf::from(input), &PathBuf::from(output))?)
        }
        Some("stats") => {
            let [_, input] = &pos[..] else {
                return Err("usage: tenbench stats <file>".into());
            };
            Ok(cli::stats(&PathBuf::from(input), block_bits)?)
        }
        Some("generate") => {
            let [_, family] = &pos[..] else {
                return Err("usage: tenbench generate <kron|pl> --dims ... --nnz ... --out ...".into());
            };
            let dims: Vec<u32> = opts
                .get("dims")
                .ok_or("--dims is required")?
                .split(',')
                .map(|d| d.parse().map_err(|_| "bad --dims"))
                .collect::<Result<_, _>>()?;
            let nnz = get_usize("nnz", 0)?;
            if nnz == 0 {
                return Err("--nnz is required".into());
            }
            let seed = get_usize("seed", 42)? as u64;
            let out = opts.get("out").ok_or("--out is required")?;
            Ok(cli::generate(family, &dims, nnz, seed, &PathBuf::from(out))?)
        }
        Some("kernel") => {
            let mode = get_usize("mode", 0)?;
            let rank = get_usize("rank", 16)?;
            let format = opts.get("format").map(String::as_str).unwrap_or("coo");
            let reps = get_usize("reps", 5)?;
            let strategy = opts.get("strategy").map(String::as_str).unwrap_or("atomic");
            if opts.contains_key("all") {
                let input = match &pos[..] {
                    [_] => None,
                    [_, input] => Some(PathBuf::from(input)),
                    _ => return Err("usage: tenbench kernel --all [file] [options]".into()),
                };
                let nnz = get_usize("nnz", 50_000)?;
                return Ok(cli::with_obs(&obs_opts, || {
                    cli::run_kernel_all(
                        input.as_deref(),
                        opts.get("dataset").map(String::as_str).unwrap_or("s4"),
                        nnz,
                        mode,
                        rank,
                        block_bits,
                        reps,
                        strategy,
                    )
                })?);
            }
            let [_, kernel, input] = &pos[..] else {
                return Err("usage: tenbench kernel <name> <file> [options]".into());
            };
            let supervised =
                (max_seconds.is_some() || fallback.is_some()).then(supervisor_cfg);
            Ok(cli::with_obs(&obs_opts, || {
                cli::run_kernel_on(
                    cli::load_tensor(&PathBuf::from(input))?,
                    kernel,
                    mode,
                    rank,
                    format,
                    block_bits,
                    reps,
                    strategy,
                    supervised.as_ref(),
                )
            })?)
        }
        Some("scale-bench") => {
            let threads = get_threads("1,2,4,8")?;
            let sb = cli::ScaleBenchOpts {
                dataset: opts
                    .get("dataset")
                    .cloned()
                    .unwrap_or_else(|| "s4".to_string()),
                nnz: get_usize("nnz", 1_000_000)?,
                rank: get_usize("rank", 16)?,
                block_bits,
                threads,
                reps: get_usize("reps", 3)?,
                out_json: opts.get("out").map(PathBuf::from),
                floors: opts.get("floors").map(PathBuf::from),
            };
            Ok(cli::with_obs(&obs_opts, || cli::scale_bench(&sb))?)
        }
        Some("verify") => {
            let [_, input] = &pos[..] else {
                return Err("usage: tenbench verify <file> [--block-bits B] [--rank R]".into());
            };
            let report = cli::verify(
                &PathBuf::from(input),
                block_bits,
                get_usize("rank", 8)?,
                &supervisor_cfg(),
            )?;
            if report.contains("VERIFY FAIL") {
                eprint!("{report}");
                return Err("verification failed".into());
            }
            Ok(report)
        }
        Some("report") => {
            let [_, input] = &pos[..] else {
                return Err("usage: tenbench report <trace.json>".into());
            };
            Ok(cli::report(&PathBuf::from(input))?)
        }
        Some("obs-overhead") => {
            let threads = get_threads("1,2,4")?;
            let max_overhead_pct: Option<f64> = opts
                .get("max-overhead-pct")
                .map(|v| v.parse().map_err(|_| "bad --max-overhead-pct".to_string()))
                .transpose()?;
            Ok(cli::obs_overhead(
                opts.get("dataset").map(String::as_str).unwrap_or("s4"),
                get_usize("nnz", 200_000)?,
                get_usize("rank", 16)?,
                block_bits,
                get_usize("reps", 3)?,
                &threads,
                get_usize("rounds", 3)?,
                opts.get("out").map(PathBuf::from).as_deref(),
                max_overhead_pct,
            )?)
        }
        Some("stress") => {
            let shards = match (opts.contains_key("net"), opts.contains_key("shards")) {
                (true, _) => Some(get_usize("shards", 2)?),
                (false, true) => {
                    return Err(CliError::Usage("--shards needs --net".to_string()).into())
                }
                (false, false) => None,
            };
            let defaults = tenbench_serve::StressConfig::default();
            let cfg = tenbench_serve::StressConfig {
                dataset: opts.get("dataset").cloned().unwrap_or(defaults.dataset),
                nnz: get_usize("nnz", defaults.nnz)?,
                tensors: get_usize("tensors", defaults.tensors)?,
                duration: cli::parse_duration(
                    opts.get("duration").map(String::as_str).unwrap_or("5s"),
                )?,
                concurrency: get_usize("concurrency", defaults.concurrency)?,
                alpha: get_f64("alpha", defaults.alpha)?,
                rank: get_usize("rank", defaults.rank)?,
                deadline_ms: get_usize("deadline-ms", defaults.deadline_ms as usize)? as u64,
                seed: defaults.seed,
                shards,
                max_p99_ms: opts
                    .get("max-p99-ms")
                    .map(|v| v.parse().map_err(|_| "bad --max-p99-ms".to_string()))
                    .transpose()?,
                min_hit_ratio: get_f64("min-hit-ratio", defaults.min_hit_ratio)?,
                out_json: opts.get("out").map(PathBuf::from),
            };
            Ok(cli::stress(
                &cfg,
                serve_config(&get_usize, block_bits)?,
                &supervisor_cfg(),
            )?)
        }
        Some("chaos") => {
            let defaults = tenbench_bench::chaos::ChaosConfig::default();
            let cfg = tenbench_bench::chaos::ChaosConfig {
                duration: cli::parse_duration(
                    opts.get("duration").map(String::as_str).unwrap_or("3s"),
                )?,
                seed: get_usize("seed", defaults.seed as usize)? as u64,
                jobs: get_usize("jobs", defaults.jobs)?,
                dim: get_usize("dim", defaults.dim as usize)? as u32,
                nnz: get_usize("nnz", defaults.nnz)?,
                tensors: get_usize("tensors", defaults.tensors)?,
                alpha: get_f64("alpha", defaults.alpha)?,
                clients: get_usize("clients", defaults.clients)?,
                rank: get_usize("rank", defaults.rank)?,
                max_iters: get_usize("max-iters", defaults.max_iters)?,
                fault_rate: get_f64("fault-rate", defaults.fault_rate)?,
                max_step_seconds: get_budget("max-step-seconds")?
                    .unwrap_or(defaults.max_step_seconds),
                job_workers: get_usize("job-workers", defaults.job_workers)?,
                max_recoveries: get_usize("max-recoveries", defaults.max_recoveries as usize)?
                    as u32,
            };
            let chaos_opts = cli::ChaosOpts {
                cfg,
                out_json: opts.get("out").map(PathBuf::from),
                floors: opts.get("floors").map(PathBuf::from),
                flight_dump_dir,
            };
            Ok(cli::chaos(&chaos_opts)?)
        }
        _ => Err("usage: tenbench <paper|convert|stats|generate|kernel|scale-bench|verify|report|obs-overhead|stress|chaos> ... (see the module docs)".into()),
    }
}
