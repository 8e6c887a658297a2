//! `benchmark calibrate`: run the full command several times, each with
//! another seed, and show how far each end-to-end metric spreads against
//! its bound. The output is committed as `CALIBRATION.md`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use tenbench_obs::json::Value;

use crate::metrics::{self, WORKLOADS};
use crate::{host, spawn_workload, stats, Args};

/// The metric values on the last line of a workload's output.
fn parse_result(stdout: &str) -> Result<BTreeMap<String, f64>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = Value::parse(line)?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("run not correct: {line}"));
    }
    match doc.get("metrics") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect(),
        _ => Err("no metrics object".into()),
    }
}

pub fn run(args: &Args) -> ExitCode {
    let cfg = args.run_config();
    println!("# Calibration\n");
    println!("`{}`\n", host::header(args.seed));
    println!(
        "{} runs of every workload, {} s measured each, seeds {}..={}; run *i* uses seed {} + *i*.",
        args.runs,
        cfg.seconds,
        args.seed,
        args.seed + args.runs as u64 - 1,
        args.seed
    );
    println!(
        "`range` is (max - min) / median; `iqr` is the distance between the first and third quartile over the median (what the driver computes over ten runs). A metric is `ok` when its range stays within its bound and its iqr within a third of it.\n"
    );
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..args.runs {
            let parsed = spawn_workload(args, workload, args.seed + i as u64)
                .and_then(|(stdout, _)| parse_result(&stdout));
            match parsed {
                Ok(run) => {
                    for (name, v) in run {
                        values.entry(name).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("benchmark: {workload} run {i}: {e}");
                    ok = false;
                }
            }
        }
        println!("## {workload}\n");
        println!("| metric | unit | min | median | max | range | iqr | bound | verdict | values |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for m in metrics::end_to_end() {
            let Some(v) = values.get(&m.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let med = stats::median(v);
            let range = (stats::percentile(v, 100.0) - stats::min(v)) / med;
            let iqr = stats::iqr_over_median(v);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if range <= bound && iqr <= bound / 3.0 {
                "ok"
            } else if iqr <= bound {
                "wide"
            } else {
                ok = false;
                "UNSTEADY"
            };
            let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.3} | {:.3} | {} | {} | {} |",
                m.name,
                m.unit,
                stats::min(v),
                med,
                stats::percentile(v, 100.0),
                range,
                iqr,
                bound,
                verdict,
                all.join(" ")
            );
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
