//! Fleet-mode tenant isolation: one tenant's store faults must not poison
//! a healthy neighbour's `/healthz` attribution.
//!
//! Two jobs run concurrently in one fleet — `noisy` writes through a
//! seeded fault-injecting store, `steady` runs clean. The fleet must:
//!
//! * attribute every degradation to `noisy` and its tenant alone;
//! * keep `steady`'s per-job series at zero errors on the shared scrape.
//!
//! That `steady` still records the bytes of a solo batch run is checked by
//! the mode harness (`tests/modes.rs`, runner `fleet-beside-faulty`).

use std::io::{Read, Write};
use tpupoint::prelude::*;
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::FleetJobRequest;

fn steady_config() -> JobConfig {
    build(
        WorkloadId::BertMrpc,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.1,
            seed: 42,
            ..BuildOptions::default()
        },
    )
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
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
fn faulty_tenant_never_degrades_its_neighbour() {
    let base = std::env::temp_dir().join(format!("tpupoint-fleet-iso-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let fleet_dir = base.join("fleet");

    // A clean job next to a fault-injected copy of it, running
    // concurrently at batch speed.
    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&fleet_dir)
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .serve_real_backoff(false)
        .build()
        .serve_fleet()
        .expect("fleet starts");
    session
        .submit(
            FleetJobRequest::new(steady_config())
                .id("steady")
                .tenant("alice"),
        )
        .expect("admits steady");
    session
        .submit(
            FleetJobRequest::new(steady_config())
                .id("noisy")
                .tenant("mallory")
                .store_fault(0.6, 11),
        )
        .expect("admits noisy");
    session.wait_jobs_idle();

    for id in ["steady", "noisy"] {
        let status = session.status(id).expect("known job");
        assert_eq!(
            status.phase,
            tpupoint::runtime::JobPhase::Completed,
            "{id}: {:?}",
            status.error
        );
    }

    // Health: degraded overall, but every cause names the noisy job and
    // its tenant — the healthy tenant is never blamed.
    let health = session.health();
    assert!(
        !health.degradations.is_empty(),
        "the fault injection must surface degradations"
    );
    for cause in &health.degradations {
        assert!(
            cause.contains("job noisy (tenant mallory)"),
            "degradation not attributed to the noisy tenant: {cause}"
        );
        assert!(
            !cause.contains("steady") && !cause.contains("alice"),
            "{cause}"
        );
    }
    let addr = session.addr();
    let healthz = get(addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 503"), "{healthz}");
    assert!(healthz.contains("job noisy (tenant mallory)"), "{healthz}");
    assert!(!healthz.contains("alice"), "{healthz}");

    // The shared scrape keeps the error series apart per job.
    let scrape = get(addr, "/metrics");
    let errors = |label: &str| {
        series_value(&scrape, "tpupoint_profiler_store_errors{", label)
            .unwrap_or_else(|| panic!("no store_errors series for {label}:\n{scrape}"))
    };
    assert_eq!(errors("job=\"steady\""), 0.0);
    assert!(errors("job=\"noisy\"") > 0.0);
    assert!(errors("job=\"fleet\"") > 0.0, "aggregate sums the errors");

    session.request_quit();
    session.wait().expect("drains");
    std::fs::remove_dir_all(&base).unwrap();
}
