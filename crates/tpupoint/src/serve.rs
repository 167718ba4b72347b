//! Serve-plane plumbing shared by every served job: the SIGINT latch
//! and the series preregistration that give a scraper the full schema
//! from the first `/metrics` request. Serving itself is
//! [`TpuPoint::serve_fleet`](crate::TpuPoint::serve_fleet); a single
//! job is a fleet of one.

/// Cooperative SIGINT latch. Installed at most once per process; the
/// handler only flips an atomic, and the fleet's wait loop translates it
/// into the same graceful-shutdown path as `POST /quit`.
pub(crate) mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static HIT: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    #[cfg(unix)]
    pub fn install() {
        extern "C" fn on_sigint(_signum: i32) {
            HIT.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        INSTALL.call_once(|| {
            const SIGINT: i32 = 2;
            let handler: extern "C" fn(i32) = on_sigint;
            unsafe {
                signal(SIGINT, handler as usize);
            }
        });
    }

    #[cfg(not(unix))]
    pub fn install() {
        INSTALL.call_once(|| {});
    }

    pub fn hit() -> bool {
        HIT.load(Ordering::SeqCst)
    }
}

/// Creates the profiler/store series in the global registry before the
/// job starts, so the very first `/metrics` scrape already exposes the
/// full schema (zero-valued) instead of series popping into existence as
/// the run proceeds.
pub(crate) fn preregister_series() {
    preregister_series_in(tpupoint_obs::metrics());
    // The HTTP plane is process-wide, so its counter belongs only to the
    // global registry — not to the per-job registries.
    tpupoint_obs::metrics().counter("obs.http_requests");
}

/// Creates the per-job profiler/analyzer series in `metrics`; the fleet
/// calls this on each job's own registry at admission so the first scrape
/// already shows the job's full schema at zero.
pub(crate) fn preregister_series_in(metrics: &tpupoint_obs::Metrics) {
    for counter in [
        "profiler.store_errors",
        "profiler.store_retries",
        "profiler.records_spilled",
        "profiler.records_shed",
        "profiler.windows_sealed",
        "profiler.windows_dropped",
        "profiler.events_recorded",
        "profiler.events_lost",
        "profiler.seal_backpressure_waits",
    ] {
        metrics.counter(counter);
    }
    for gauge in [
        "profiler.store_spill_depth",
        "profiler.seal_queue_depth",
        "profiler.overhead_ratio",
        // The streaming analyzer always runs on a served job, so its
        // scalar gauges are part of the schema from scrape #1. Per-phase
        // occupancy gauges appear with the first update (the phase count
        // is not known up front), and `analyzer.last_transition_step`
        // only once a transition exists.
        "analyzer.phase_stability",
        "analyzer.phase_count",
        "analyzer.stable_windows",
    ] {
        metrics.gauge(gauge);
    }
    for histogram in ["profiler.store_backoff_us", "profiler.seal_latency_us"] {
        metrics.histogram(histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetJobRequest, TpuPoint};
    use tpupoint_runtime::{JobConfig, JobPhase};

    #[test]
    fn preregistration_exposes_the_full_schema_at_zero() {
        preregister_series();
        let snapshot = tpupoint_obs::metrics().snapshot();
        assert!(snapshot.counters.contains_key("profiler.store_errors"));
        assert!(snapshot.histograms.contains_key("profiler.seal_latency_us"));
        assert!(snapshot.gauges.contains_key("profiler.store_spill_depth"));
    }

    #[test]
    fn serve_runs_a_job_and_answers_scrapes() {
        use std::io::{Read, Write};

        let dir = std::env::temp_dir().join(format!("tpupoint-serve-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&dir)
            .serve("127.0.0.1:0")
            .serve_pace_us(200)
            .build()
            .serve_fleet()
            .expect("serve starts");
        session
            .submit(FleetJobRequest::new(JobConfig::demo()).id("demo"))
            .expect("admits");
        let mut stream = std::net::TcpStream::connect(session.addr()).expect("scrape connects");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("tpupoint_profiler_store_errors{job=\"demo\""),
            "{response}"
        );
        session.request_quit();
        let jobs = session.wait().expect("run completes");
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].steps_completed > 0);
        assert_ne!(jobs[0].phase, JobPhase::Failed, "{:?}", jobs[0].error);
        let job_dir = dir.join("jobs/demo");
        assert!(job_dir.join("metrics.prom").exists(), "job scrape flushed");
        assert!(dir.join("metrics.prom").exists(), "fleet scrape flushed");
        let records =
            tpupoint_profiler::recover_records(&job_dir.join("records")).expect("records");
        assert!(records.sealed_files, "records sealed");
        assert!(!records.steps.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
