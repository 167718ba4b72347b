//! Serve-mode loopback integration: scrape a live served job — a fleet
//! of one, as `tpupoint serve --workload` runs it — over real TCP and shut
//! it down gracefully, leaving only sealed records behind. That a served
//! job records the bytes of a batch run of the same seed is checked by the
//! mode harness (`tests/modes.rs`).

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use tpupoint::prelude::*;
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::FleetJobRequest;

const JOB: &str = "bert-mrpc";

fn request(addr: SocketAddr, line: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve endpoint");
    write!(stream, "{line} HTTP/1.1\r\nHost: loopback\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("complete response");
    (
        head.lines().next().unwrap_or("").to_owned(),
        body.to_owned(),
    )
}

fn config() -> JobConfig {
    // Scale 0.3 gives the run enough steps (116, ~15 streaming updates)
    // for the live phase tracker to latch stability before shutdown.
    build(
        WorkloadId::BertMrpc,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.3,
            ..BuildOptions::default()
        },
    )
}

/// Extracts the integer value of `"key": N` from a flat JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let tail = body.split(&format!("\"{key}\": ")).nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[test]
fn serve_scrapes_live_and_shuts_down_sealed() {
    let base = std::env::temp_dir().join(format!("tpupoint-serve-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let serve_dir = base.join("serve");

    let tp = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&serve_dir)
        .serve("127.0.0.1:0")
        .serve_pace_us(300)
        .build();
    let session = tp.serve_fleet().expect("serve starts");
    session
        .submit(FleetJobRequest::new(config()).id(JOB))
        .expect("admits the job");
    let addr = session.addr();

    // Live scrape while the paced job is still running.
    let (status, metrics) = request(addr, "GET /metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let series: BTreeSet<&str> = metrics
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| line.split(['{', ' ']).next().expect("series name"))
        .collect();
    assert!(
        series.len() >= 10,
        "expected >= 10 Prometheus series, got {}: {series:?}",
        series.len()
    );
    assert!(
        series.contains("tpupoint_profiler_store_errors"),
        "{series:?}"
    );
    assert!(
        series.contains("tpupoint_profiler_seal_latency_us_bucket"),
        "seal-pipeline histogram missing: {series:?}"
    );
    assert!(
        metrics.contains("workload=\"BERT\""),
        "scrape carries the workload label"
    );
    assert!(
        metrics.contains(&format!("job=\"{JOB}\"")),
        "scrape carries the job label"
    );

    let (status, health) = request(addr, "GET /healthz");
    assert_eq!(status, "HTTP/1.1 200 OK", "no faults injected: {health}");
    assert!(health.starts_with("ok"), "{health}");

    let (status, summary) = request(addr, "GET /status");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(summary.contains("\"jobs\": 1"), "{summary}");
    let (status, live) = request(addr, &format!("GET /jobs/{JOB}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(live.contains("\"step\""), "{live}");
    assert!(live.contains("\"ols_phase\""), "{live}");
    assert!(live.contains("\"stream_phases\""), "{live}");
    assert!(live.contains("\"stream_stable_for\""), "{live}");

    // The live phase endpoint must report a non-empty *stable* phase set
    // before shutdown: poll until the streaming analyzer latches.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let phases = loop {
        let (status, body) = request(addr, "GET /phases");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if json_u64(&body, "stable_windows").is_some_and(|w| w >= 3) {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "streaming analyzer never latched stability; last /phases: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    assert!(
        phases.contains("\"id\": 0"),
        "non-empty phase set: {phases}"
    );
    assert!(phases.contains("\"centroid\": ["), "{phases}");
    assert!(phases.contains("\"occupancy\": "), "{phases}");
    assert!(
        json_u64(&phases, "steps_assigned").is_some_and(|n| n > 0),
        "{phases}"
    );
    // The job's own status shows the latched stream and the online OLS
    // phase the live sink tracks alongside it.
    let (_, live) = request(addr, &format!("GET /jobs/{JOB}"));
    assert!(
        json_u64(&live, "stream_stable_for").is_some_and(|n| n >= 3),
        "{live}"
    );
    assert!(
        json_u64(&live, "stream_phases").is_some_and(|n| n > 0),
        "{live}"
    );
    assert!(json_u64(&live, "ols_phase").is_some(), "{live}");
    let (_, job_phases) = request(addr, &format!("GET /jobs/{JOB}/phases"));
    assert!(job_phases.contains("\"id\": 0"), "{job_phases}");

    // The per-phase series reached the Prometheus exposition too.
    let (_, metrics) = request(addr, "GET /metrics");
    assert!(
        metrics.contains("tpupoint_analyzer_phase_occupancy{") && metrics.contains("phase=\"0\""),
        "per-phase occupancy family missing from /metrics"
    );
    assert!(
        metrics.contains("tpupoint_analyzer_phase_stability"),
        "stability gauge missing from /metrics"
    );

    // Graceful shutdown over HTTP, then wait for the sealed run.
    let (status, body) = request(addr, "POST /quit");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "quitting\n");
    let jobs = session.wait().expect("run completes after quit");
    assert_eq!(jobs.len(), 1);
    assert!(jobs[0].steps_completed > 0);

    // Zero `.part` files: everything the run produced is sealed.
    let job_dir = serve_dir.join("jobs").join(JOB);
    let records = job_dir.join("records");
    let leftovers: Vec<String> = std::fs::read_dir(&records)
        .expect("records directory exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".part"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "unsealed files after quit: {leftovers:?}"
    );
    assert!(
        job_dir.join("metrics.prom").exists(),
        "final job scrape flushed"
    );
    assert!(
        serve_dir.join("metrics.prom").exists(),
        "final fleet scrape flushed"
    );

    std::fs::remove_dir_all(&base).unwrap();
}
