//! The repository's benchmark.
//!
//! ```text
//! benchmark run [--workload <name>] [--seed <S>] [--seconds <N>] [--trace [0|1]] [--quick]
//! benchmark calibrate [--runs <N>] [--seed <S>] [--seconds <N>]
//! benchmark manifest
//! ```
//!
//! `run --workload <name>` measures one workload in this process and ends
//! its standard output with one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). `run` without a workload runs all four, each in a
//! child process so that peak memory and the schedule and pool caches are
//! per workload. See `README.md` beside this package.

mod calibrate;
mod cold;
mod host;
mod hot;
mod inputs;
mod metrics;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use inputs::RunConfig;
use metrics::{Metric, Outcome, WORKLOADS};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Seconds one workload measures in smoke mode.
const QUICK_SECONDS: f64 = 1.0;

/// Parsed command line of `run` and `calibrate`.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 5,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--runs" => {
                a.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

impl Args {
    fn run_config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(if self.quick {
                QUICK_SECONDS
            } else {
                metrics::RUN_SECONDS as f64
            }),
            trace: self.trace,
            quick: self.quick,
        }
    }

    /// The arguments that reproduce this run in a child process.
    fn child_args(&self, workload: &str, seed: u64) -> Vec<String> {
        let cfg = self.run_config();
        let mut v = vec![
            "run".to_string(),
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            seed.to_string(),
            "--seconds".into(),
            cfg.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ];
        if self.quick {
            v.push("--quick".into());
        }
        v
    }
}

/// The last line of a workload's output: exactly the keys the driver reads.
fn result_line(metrics: &[Metric], outcome: &Outcome, correct: bool) -> String {
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                outcome.values.get(&m.name).copied().unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        values.join(", ")
    )
}

/// Measure one workload in this process and print its report.
fn run_workload(name: &str, cfg: &RunConfig) -> ExitCode {
    println!("{}", host::header(cfg.seed));
    println!(
        "workload {name} | {} s measured | trace {} | {}",
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick {
            "QUICK: smoke run, values are not comparable"
        } else {
            "full scale"
        }
    );
    let mut outcome = match name {
        "kernels_hot" => hot::run(cfg),
        "cold_pipeline" => cold::run(cfg),
        "serve_hits" => serve::run(cfg, &serve::HITS),
        "serve_churn" => serve::run(cfg, &serve::CHURN),
        other => unreachable!("parse_args admits only listed workloads, got {other}"),
    };
    for line in &outcome.notes {
        println!("  {line}");
    }
    if let Some(rec) = outcome.recorder.take() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rec.to_chrome_json()))
        {
            Ok(()) => println!("  {} spans written to {}", rec.len(), path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let metrics = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    for m in &metrics {
        // A layer the workload never enters stays 0; an end-to-end metric
        // must be measured and non-zero; neither may be NaN or infinite.
        let v = outcome.values.entry(m.name.clone()).or_insert(0.0);
        if !v.is_finite() || (!cfg.trace && *v == 0.0) {
            eprintln!("benchmark: metric {} has no usable value ({v})", m.name);
            *v = 0.0;
            correct = false;
        }
        let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
        println!(
            "{:<44} {:>16.6} {:<8} {} is better{bound}",
            m.name,
            v,
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "fail_share {} / {} (failed, refused or disagreeing with the oracle, over attempted)",
        outcome.failed, outcome.attempted
    );
    println!("{}", result_line(&metrics, &outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process; returns its output and whether it
/// exited successfully.
fn spawn_workload(args: &Args, workload: &str, seed: u64) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args.child_args(workload, seed))
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        match spawn_workload(args, workload, args.seed) {
            Ok((stdout, success)) => {
                print!("{stdout}");
                println!();
                ok &= success;
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one workload failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let parsed = match command {
        "run" | "calibrate" => parse_args(rest),
        "manifest" if rest.is_empty() => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        _ => Err("expected `run`, `calibrate` or `manifest`".into()),
    };
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\nusage: benchmark run [--workload <name>] [--seed <S>] [--seconds <N>] [--trace [0|1]] [--quick]\n       benchmark calibrate [--runs <N>] [--seed <S>] [--seconds <N>]\n       benchmark manifest");
            return ExitCode::from(2);
        }
    };
    match (command, &args.workload) {
        ("calibrate", _) => calibrate::run(&args),
        (_, Some(w)) => run_workload(w, &args.run_config()),
        (_, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_hits --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hits"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(parse_args(&argv("--trace 1")).unwrap().trace);
        assert!(parse_args(&argv("--trace --quick")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        // A child is told exactly what the parent was.
        let child = parse_args(&a.child_args("serve_hits", 7)[1..]).unwrap();
        assert_eq!(child, a);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in metrics::end_to_end() {
            o.set(m.name, 1.2034);
        }
        let line = result_line(&metrics::end_to_end(), &o, true);
        let v = tenbench_obs::json::Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(10.0));
        assert_eq!(v.get("failed").and_then(|c| c.as_f64()), Some(0.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(1.2034));
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
