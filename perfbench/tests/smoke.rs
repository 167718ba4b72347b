//! The benchmark's own smoke test: every workload once at a tiny size,
//! untraced and traced. Each run must exit 0, end with the result line,
//! emit exactly the metrics `BENCHMARK.json` names with their units, and
//! report that its output checks ran and passed.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc[list]
        .as_array()
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, Value) {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "0.05"])
        .current_dir(&cwd)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    assert!(
        !cwd.join(".bench_tmp").exists(),
        "{workload}: scratch directory left behind"
    );
    (stdout, result)
}

#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    let doc = benchmark();
    let workloads: Vec<String> = doc["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name").to_owned())
        .collect();
    assert_eq!(workloads.len(), 3);
    for workload in &workloads {
        for (trace, list) in [(0u8, "end_to_end"), (1u8, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            let want = declared(&doc, list);
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys.len(), 4, "{keys:?}");
            assert_eq!(result["correct"], Value::Bool(true), "{stdout}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{stdout}");
            assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
            let metrics = result["metrics"].as_object().expect("metrics");
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m["value"].as_f64().is_some(), "{name} has a number");
                    (name.clone(), m["unit"].as_str().unwrap_or("").to_owned())
                })
                .collect();
            assert_eq!(got, want, "{workload} trace {trace}: metrics and units");
            let checks: Vec<&str> = stdout.lines().filter(|l| l.starts_with("check ")).collect();
            assert!(
                !checks.is_empty(),
                "{workload}: no output check ran\n{stdout}"
            );
            assert!(
                checks.iter().all(|l| l.contains(": ok (")),
                "{workload}: {checks:?}"
            );
            if trace == 1 {
                assert!(stdout.contains("layer-sum check:"), "{stdout}");
            } else {
                for metric in want.keys() {
                    let value = metrics[metric.as_str()]["value"].as_f64().unwrap();
                    assert!(value > 0.0, "{workload}: {metric} is {value}");
                }
            }
        }
    }
}
