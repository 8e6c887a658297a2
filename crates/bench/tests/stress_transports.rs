//! `tenbench stress` end to end on both transports: a short closed loop
//! and the overload burst against a tiny pool behind a four-slot queue,
//! with a p99 ceiling of 0 ms that no completed request can meet.

use tenbench_bench::cli::{self, CliError};
use tenbench_bench::supervisor::SupervisorConfig;
use tenbench_obs::json::Value;
use tenbench_serve::{ServeConfig, StressConfig};

fn count(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no {key}")) as u64
}

#[test]
fn stress_balances_loses_nothing_and_gates_on_both_transports() {
    let dir = std::env::temp_dir().join(format!("tenbench-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for shards in [None, Some(2)] {
        let path = dir.join(format!("serve-{}.json", shards.unwrap_or(0)));
        let cfg = StressConfig {
            nnz: 2_000,
            tensors: 4,
            duration: std::time::Duration::from_millis(300),
            concurrency: 4,
            shards,
            max_p99_ms: Some(0.0),
            min_hit_ratio: 0.0,
            out_json: Some(path.clone()),
            ..StressConfig::default()
        };
        let serve = ServeConfig {
            workers: 1,
            queue_bound: 4,
            ..ServeConfig::default()
        };
        let err = cli::stress(&cfg, serve, &SupervisorConfig::default())
            .expect_err("a 0 ms p99 ceiling must fail the gate");
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("p99")),
            "{shards:?}: {err}"
        );

        let json = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let transport = json.get("config").and_then(|c| c.get("transport"));
        let expected = if shards.is_some() {
            "tcp"
        } else {
            "in-process"
        };
        assert_eq!(transport.and_then(Value::as_str), Some(expected));
        let zipf = json.get("zipf_phase").unwrap();
        let burst = json
            .get("overload_burst")
            .and_then(|b| b.get("tally"))
            .unwrap();
        for tally in [zipf, burst] {
            let answered = [
                "ok",
                "rejected_full",
                "rejected_deadline",
                "shutting_down",
                "failed",
            ]
            .iter()
            .map(|k| count(tally, k))
            .sum::<u64>();
            assert_eq!(count(tally, "issued"), answered + count(tally, "lost"));
            assert_eq!(count(tally, "lost"), 0, "{shards:?}");
        }
        assert!(count(zipf, "ok") > 0, "{shards:?}");
        assert!(count(burst, "rejected_full") > 0, "{shards:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
