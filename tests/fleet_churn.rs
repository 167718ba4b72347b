//! Fleet churn storm: many tenants submitting and cancelling jobs while
//! scrapers hammer the metrics plane.
//!
//! The scrape plane serves published snapshots, so this storm must not
//! deadlock, poison any lock, or bend the numbers:
//!
//! * every scrape and `/jobs` listing answers 200 throughout the storm;
//! * the `job="fleet"` aggregate counters are monotone non-decreasing
//!   across scrapes (published versions only move forward);
//! * `fleet.poisoned` stays at zero;
//! * the never-cancelled jobs' sealed records stay byte-identical to a
//!   solo batch profile of the same workload, scale, and seed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tpupoint::prelude::*;
use tpupoint::profiler::record_files;
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::FleetJobRequest;

fn keep_config(seed: u64) -> JobConfig {
    build(
        WorkloadId::BertMrpc,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.05,
            seed,
            ..BuildOptions::default()
        },
    )
}

fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn read_records(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let files = record_files(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    assert!(
        files.contains_key("manifest.json") && files.len() > 1,
        "{}: no records beside the manifest",
        dir.display()
    );
    files
}

/// The value of `series` on the scrape line carrying `label`, if any.
fn series_value(scrape: &str, series: &str, label: &str) -> Option<f64> {
    scrape
        .lines()
        .find(|line| line.starts_with(series) && line.contains(label))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

#[test]
fn churn_storm_keeps_the_scrape_plane_honest() {
    let base = std::env::temp_dir().join(format!("tpupoint-fleet-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Solo references for the jobs the storm never touches.
    let mut solo_records = Vec::new();
    for (tag, seed) in [("keep-a", 7), ("keep-b", 8)] {
        let dir = base.join("solo").join(tag);
        let solo = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&dir)
            .build()
            .profile(keep_config(seed))
            .expect("solo profile");
        assert_eq!(solo.profile.store_errors, 0);
        solo_records.push(dir.join("records"));
    }

    let fleet_dir = base.join("fleet");
    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&fleet_dir)
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .serve_real_backoff(false)
        .fleet_limits(tpupoint::runtime::FleetLimits {
            max_running: 3,
            max_queued: 256,
            per_tenant_active: 64,
            ..tpupoint::runtime::FleetLimits::default()
        })
        .fleet_memory_mib(512)
        .build()
        .serve_fleet()
        .expect("fleet starts");
    let addr = session.addr();

    for (tag, seed) in [("keep-a", 7u64), ("keep-b", 8u64)] {
        session
            .submit(FleetJobRequest::new(keep_config(seed)).id(tag).tenant(tag))
            .expect("admits keep job");
    }

    // Two scrapers poll /metrics and /jobs for the whole storm,
    // collecting the fleet aggregate counter for the monotonicity check.
    let storm_done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..2)
        .map(|_| {
            let done = Arc::clone(&storm_done);
            std::thread::spawn(move || {
                let mut sealed = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let scrape = get(addr, "/metrics");
                    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
                    if let Some(value) = series_value(
                        &scrape,
                        "tpupoint_profiler_windows_sealed{",
                        "job=\"fleet\"",
                    ) {
                        sealed.push(value);
                    }
                    let poisoned = series_value(&scrape, "tpupoint_fleet_poisoned", "")
                        .expect("fleet.poisoned series is preregistered");
                    assert_eq!(poisoned, 0.0, "a lock was poisoned during the storm");
                    let listing = get(addr, "/jobs");
                    assert!(listing.starts_with("HTTP/1.1 200"), "{listing}");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                sealed
            })
        })
        .collect();

    // The storm: waves of short-lived tenants submitted through both the
    // in-process API and HTTP, then cancelled while queued or running.
    for wave in 0..3 {
        for i in 0..4 {
            session
                .submit(
                    FleetJobRequest::new(JobConfig::demo())
                        .id(format!("churn-{wave}-{i}"))
                        .tenant(format!("churn-{}", i % 2)),
                )
                .expect("admits churn job");
        }
        let body = format!(
            "{{\"workload\": \"bert-mrpc\", \"id\": \"http-{wave}\", \
             \"tenant\": \"http-tenant\", \"scale\": 0.02}}"
        );
        let response = http(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(response.starts_with("HTTP/1.1 201"), "{response}");
        std::thread::sleep(std::time::Duration::from_millis(10));
        for i in 0..4 {
            let cancelled = http(
                addr,
                &format!("DELETE /jobs/churn-{wave}-{i} HTTP/1.1\r\nHost: t\r\n\r\n"),
            );
            assert!(cancelled.starts_with("HTTP/1.1 200"), "{cancelled}");
        }
    }

    session.wait_jobs_idle();
    storm_done.store(true, Ordering::SeqCst);
    for scraper in scrapers {
        let sealed = scraper.join().expect("scraper survives the storm");
        for pair in sealed.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "fleet aggregate went backwards: {} -> {}",
                pair[0],
                pair[1]
            );
        }
    }

    // Every job settled in a legal terminal phase; the survivors and the
    // HTTP-submitted jobs completed.
    for status in session.list() {
        assert!(
            matches!(
                status.phase,
                tpupoint::runtime::JobPhase::Completed
                    | tpupoint::runtime::JobPhase::Failed
                    | tpupoint::runtime::JobPhase::Cancelled
            ),
            "{}: {:?}",
            status.id,
            status.phase
        );
        if status.id.starts_with("keep") || status.id.starts_with("http") {
            assert_eq!(
                status.phase,
                tpupoint::runtime::JobPhase::Completed,
                "{}: {:?}",
                status.id,
                status.error
            );
        }
    }

    // Surviving jobs' records are byte-identical to their solo runs: the
    // storm never perturbed them.
    for (tag, solo) in ["keep-a", "keep-b"].iter().zip(&solo_records) {
        let fleet_records = fleet_dir.join("jobs").join(tag).join("records");
        assert_eq!(
            read_records(solo),
            read_records(&fleet_records),
            "{tag} records must be byte-identical to the solo run"
        );
    }

    session.request_quit();
    session.wait().expect("drains");
    std::fs::remove_dir_all(&base).unwrap();
}
