//! End-to-end check of the observability surface: a profiled CLI run
//! must produce a well-formed metrics document and Chrome trace, and
//! `obs-report` must summarize them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn tpupoint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tpupoint"))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn tpupoint");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_json(path: &Path) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()))
}

#[test]
fn profile_run_emits_metrics_trace_and_obs_report() {
    let dir = scratch_dir("profile");
    let metrics_path = dir.join("metrics.json");
    let trace_path = dir.join("self-trace.json");

    run_ok(tpupoint().args([
        "profile",
        "--workload",
        "bert-mrpc",
        "--scale",
        "0.05",
        "--out",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--self-trace",
        trace_path.to_str().unwrap(),
    ]));

    // 1. The metrics document is valid JSON carrying counters from the
    // profiler and runtime plus span histograms.
    let metrics = read_json(&metrics_path);
    let root = metrics.as_object().expect("metrics root object");
    let counters = root
        .get("counters")
        .and_then(|v| v.as_object())
        .expect("counters object");
    assert!(counters.get("profiler.windows_sealed").is_some());
    assert!(counters.get("profiler.events_recorded").is_some());
    assert!(
        counters
            .get("runtime.steps")
            .and_then(|v| v.as_u64())
            .unwrap()
            > 0,
        "runtime step counter must advance"
    );
    let histograms = root
        .get("histograms")
        .and_then(|v| v.as_object())
        .expect("histograms object");
    assert!(histograms.keys().any(|k| k.starts_with("span.")));
    assert!(histograms.get("runtime.step_sim_us").is_some());
    assert!(root
        .get("gauges")
        .and_then(|v| v.as_object())
        .and_then(|g| g.get("profiler.overhead_ratio"))
        .and_then(|v| v.as_f64())
        .is_some_and(|ratio| ratio >= 1.0));

    // 2. The self-trace is Chrome-tracing JSON: thread-name metadata
    // ("M") events naming each lane, then complete ("X") span events
    // with names and durations.
    let trace = read_json(&trace_path);
    let events = trace
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let mut spans = Vec::new();
    for event in events {
        let event = event.as_object().expect("trace event object");
        match event.get("ph").and_then(|v| v.as_str()) {
            Some("M") => {
                assert_eq!(
                    event.get("name").and_then(|v| v.as_str()),
                    Some("thread_name")
                );
                assert!(event.get("tid").is_some());
            }
            Some("X") => {
                assert!(event.get("name").and_then(|v| v.as_str()).is_some());
                assert!(event.get("ts").is_some() && event.get("dur").is_some());
                spans.push(event);
            }
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    assert!(!spans.is_empty(), "trace must contain spans");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    assert!(names.contains(&"runtime.job"), "{names:?}");
    assert!(names.contains(&"tpupoint.profile"), "{names:?}");

    // 3. obs-report summarizes the document, including the overhead
    // ratio and window health.
    let report = run_ok(tpupoint().args(["obs-report", metrics_path.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&report.stdout).into_owned();
    assert!(text.contains("per-stage wall time"), "{text}");
    assert!(text.contains("runtime"), "{text}");
    assert!(text.contains("profiler overhead: 3.00%"), "{text}");
    assert!(text.contains("window pipeline:"), "{text}");

    // An analyze run over the run's records yields per-algorithm
    // runtimes in its own report.
    let analyze_metrics = dir.join("analyze-metrics.json");
    run_ok(tpupoint().args([
        "analyze",
        dir.join("records").to_str().unwrap(),
        "--algorithm",
        "kmeans",
        "--k",
        "4",
        "--metrics-out",
        analyze_metrics.to_str().unwrap(),
    ]));
    let report = run_ok(tpupoint().args(["obs-report", analyze_metrics.to_str().unwrap()]));
    let text = String::from_utf8_lossy(&report.stdout).into_owned();
    assert!(text.contains("analyzer algorithm runtimes"), "{text}");
    assert!(text.contains("kmeans"), "{text}");
    assert!(text.contains("pca"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A DBSCAN analyze run times its eps estimate and its neighbor-list
/// build as two spans, in the self-trace and in the metrics document, so
/// either can be read apart from the other.
#[test]
fn dbscan_analyze_splits_eps_from_the_neighbor_lists() {
    let dir = scratch_dir("dbscan");
    let (metrics_path, trace_path) = (dir.join("metrics.json"), dir.join("trace.json"));
    run_ok(tpupoint().args([
        "profile",
        "--workload",
        "dcgan-cifar10",
        "--scale",
        "0.01",
        "--out",
        dir.to_str().unwrap(),
    ]));
    run_ok(tpupoint().args([
        "analyze",
        dir.join("records").to_str().unwrap(),
        "--algorithm",
        "dbscan",
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--self-trace",
        trace_path.to_str().unwrap(),
    ]));
    let trace = read_json(&trace_path);
    let names: Vec<&str> = trace["traceEvents"]
        .as_array()
        .expect("traceEvents array")
        .iter()
        .filter(|e| e["ph"] == "X")
        .filter_map(|e| e["name"].as_str())
        .collect();
    let histograms = read_json(&metrics_path)["histograms"].clone();
    for span in ["dbscan.auto_eps", "dbscan.neighbor_cache"] {
        assert_eq!(
            names.iter().filter(|&&name| name == span).count(),
            1,
            "{span} once in {names:?}"
        );
        assert!(
            histograms.get(format!("span.{span}").as_str()).is_some(),
            "span.{span} in {histograms}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prometheus_format_exports_typed_series() {
    let dir = scratch_dir("prom");
    let metrics_path = dir.join("metrics.prom");
    run_ok(tpupoint().args([
        "profile",
        "--workload",
        "dcgan-cifar10",
        "--scale",
        "0.005",
        "--out",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics_path.to_str().unwrap(),
        "--obs-format",
        "prom",
    ]));
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(text.contains("# TYPE tpupoint_profiler_windows_sealed counter"));
    assert!(text.contains("# TYPE tpupoint_profiler_overhead_ratio gauge"));
    assert!(text.contains("_bucket{le=\"+Inf\"}"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_cli_option_fails_with_a_hint() {
    let out = tpupoint()
        .args(["profile", "--workload", "bert-mrpc", "--metrics-uot", "x"])
        .output()
        .expect("spawn tpupoint");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown option `--metrics-uot`"), "{err}");
    assert!(err.contains("did you mean `--metrics-out`?"), "{err}");
}

#[test]
fn a_closed_stdout_ends_reading_commands_quietly() {
    let dir = scratch_dir("pipe");
    let out = dir.to_str().unwrap();
    run_ok(
        tpupoint()
            .args(["profile", "--workload", "bert-mrpc", "--scale", "0.05"])
            .args(["--out", out]),
    );
    let (trace, metrics) = (dir.join("t.json"), dir.join("m.prom"));
    for command in ["analyze", "report", "audit"] {
        let mut cmd = tpupoint();
        cmd.arg(command).arg(dir.join("records"));
        if command == "analyze" {
            cmd.arg("--self-trace")
                .arg(&trace)
                .arg("--metrics-out")
                .arg(&metrics);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // The reader leaves before the first line, as `| head -0` would.
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("wait for tpupoint");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(
            done.status.success(),
            "{command}: {:?}\n{stderr}",
            done.status
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    }
    assert!(
        trace.exists(),
        "the self-trace is written past the closed pipe"
    );
    assert!(
        metrics.exists(),
        "the metrics are written past the closed pipe"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
