//! Serve mode: the long-running daemon lane of the toolchain.
//!
//! [`TpuPoint::profile`] is a batch affair — the simulated job completes as
//! fast as the host allows and metrics are inspected after the fact. The
//! paper's profiler instead runs *alongside* a live training job;
//! [`TpuPoint::serve`] reproduces that shape:
//!
//! * the job runs on a dedicated **wall-clock recording thread**, paced in
//!   real time per training step ([`TpuPointBuilder::serve_pace_us`]) and —
//!   unlike batch mode — actually sleeping the recorded retry-backoff
//!   schedule ([`TpuPointBuilder::serve_real_backoff`]);
//! * a dependency-free HTTP server ([`tpupoint_obs::MetricsServer`])
//!   exposes `GET /metrics` (Prometheus text exposition), `GET /healthz`
//!   (degradation-aware), `GET /status` (live JSON: current step, online
//!   OLS phase, window counts, spill depth), and `POST /quit`;
//! * graceful shutdown — `POST /quit` or, with
//!   [`TpuPointBuilder::serve_sigint`], Ctrl-C — cancels the pacing so the
//!   job rushes the remaining steps at batch speed, drains the seal
//!   pipeline's barrier, seals the `.part` record files, and flushes one
//!   final scrape to `<output_dir>/metrics.prom`.
//!
//! Because pacing and backoff sleeps are the *only* wall-clock additions,
//! the recorded JSONL profile of a served run is byte-identical to a batch
//! [`TpuPoint::profile`] of the same configuration and seed.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use std::sync::{Mutex, MutexGuard, PoisonError};

use tpupoint_analyzer::{StreamingAnalyzer, StreamingConfig, STREAM_CADENCE};
use tpupoint_obs::{to_prometheus_labeled, Health, MetricsServer, ServeHooks};
use tpupoint_profiler::{PipelineConfig, ProfilerSink};
use tpupoint_runtime::{JobConfig, LiveSink, LiveStatus, TrainingJob};

use crate::facade::{ProfiledRun, TpuPoint, TpuPointBuilder};

/// Cooperative SIGINT latch. Installed at most once per process; the
/// handler only flips an atomic, and serve's wait loop translates it into
/// the same graceful-shutdown path as `POST /quit`.
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
    // global registry — not to fleet mode's per-job registries.
    tpupoint_obs::metrics().counter("obs.http_requests");
}

/// Creates the per-job profiler/analyzer series in `metrics`; fleet mode
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
        // The streaming analyzer always runs in serve mode, so its
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

/// A running serve-mode session: the wall-clock recording thread plus the
/// HTTP endpoint. Obtain one from [`TpuPoint::serve`]; call
/// [`ServeSession::wait`] to block until the job (and its graceful
/// shutdown) completes.
#[derive(Debug)]
pub struct ServeSession {
    server: MetricsServer,
    job: Option<JoinHandle<io::Result<ProfiledRun>>>,
    quit: Arc<AtomicBool>,
    status: Arc<LiveStatus>,
    output_dir: Option<PathBuf>,
    workload: String,
    tp: TpuPoint,
    sigint: bool,
    stop_on_stable: Option<u64>,
    baseline_wall: Option<tpupoint_simcore::SimDuration>,
}

impl ServeSession {
    /// The HTTP endpoint's actually-bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Live progress shared with the recording thread.
    pub fn status(&self) -> &Arc<LiveStatus> {
        &self.status
    }

    /// Requests graceful shutdown, exactly like `POST /quit`: pacing (and
    /// backoff sleeping does not replay — the schedule is already
    /// recorded) is cancelled and the job rushes to completion at batch
    /// speed, sealing everything it would have sealed.
    pub fn request_quit(&self) {
        self.quit.store(true, Ordering::SeqCst);
    }

    /// Blocks until the job finishes (however it was asked to), then
    /// flushes the final scrape, shuts the HTTP server down, and returns
    /// the completed run.
    ///
    /// # Errors
    ///
    /// Returns the recording thread's store error, if any.
    pub fn wait(mut self) -> io::Result<ProfiledRun> {
        let job = self.job.take().expect("wait consumes the session");
        while !job.is_finished() {
            if self.sigint && sigint::hit() {
                self.quit.store(true, Ordering::SeqCst);
            }
            // SeqPoint-style early stop: once the streaming phase
            // assignments have been stable for K consecutive updates,
            // the remaining paced steps add no new phase information —
            // quit gracefully (the job rushes its tail at batch speed,
            // so the recorded profile stays complete and byte-identical
            // to batch).
            if let Some(k) = self.stop_on_stable {
                if self.status.stream_stable_for() >= k {
                    self.quit.store(true, Ordering::SeqCst);
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let run = job
            .join()
            .map_err(|_| io::Error::other("serve recording thread panicked"))??;
        let measured = self.baseline_wall.map(|baseline| {
            run.report.session_wall.as_micros() as f64 / baseline.as_micros().max(1) as f64
        });
        self.tp.publish_run_gauges(&run.profile, measured);
        self.status.set_done();
        if let Some(dir) = &self.output_dir {
            let scrape = to_prometheus_labeled(
                &tpupoint_obs::metrics().snapshot(),
                &[("workload", &self.workload)],
            );
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join("metrics.prom"), scrape)?;
        }
        Ok(run)
    }
}

impl TpuPoint {
    /// Runs `config` as a long-running serve-mode job; see the module
    /// docs. Returns as soon as the recording thread and HTTP endpoint
    /// are up — use the returned [`ServeSession`] to scrape, quit, and
    /// [`ServeSession::wait`] for the profile.
    ///
    /// # Errors
    ///
    /// Returns an error if the listen address cannot be bound, the
    /// recording thread cannot be spawned, or the analyzer-mode record
    /// store cannot be created.
    pub fn serve(&self, mut config: JobConfig) -> io::Result<ServeSession> {
        let options: &TpuPointBuilder = &self.options;
        let listen = options
            .serve_listen
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned());
        preregister_series();
        if options.serve_sigint {
            sigint::install();
        }

        // The paired-baseline twin runs the clean config at batch speed
        // before the paced job starts; both walls are simulated time, so
        // serve-mode pacing never skews the measured ratio.
        let baseline_wall = if options.paired_baseline {
            let _twin_span = tpupoint_obs::span!("tpupoint.paired_baseline");
            let twin = TrainingJob::new(config.clone());
            let report = twin.run(&mut tpupoint_simcore::trace::NullSink);
            Some(report.session_wall)
        } else {
            None
        };
        config.host_overhead_frac += options.profiling_overhead_frac;
        let job = TrainingJob::new(config);
        let workload = job.config().model.clone();
        let mut sink = if options.analyzer {
            if let Some(dir) = &options.output_dir {
                // Serve always takes the pipelined store lane: sealing runs
                // off the recording thread's critical path, exactly like
                // the paper's background recording thread, and the
                // seal-pipeline series are live for scrapers.
                let store = self.build_store(&dir.join("records"), options.serve_real_backoff)?;
                ProfilerSink::with_pipelined_store(
                    job.catalog().clone(),
                    options.profiler_options,
                    store,
                    PipelineConfig::default(),
                )
            } else {
                ProfilerSink::new(job.catalog().clone(), options.profiler_options)
            }
        } else {
            ProfilerSink::new(job.catalog().clone(), options.profiler_options)
        };
        sink.set_source(&job.config().model, &job.config().dataset.name);

        let status = LiveStatus::new();
        let quit = Arc::new(AtomicBool::new(false));

        // The streaming analyzer rides the profiler's seal-observer
        // hook: completed step records arrive on the recording thread
        // (at seals and every STREAM_CADENCE step marks), the phase
        // structure re-clusters incrementally, and the fresh state is
        // published to the registry gauges and the shared LiveStatus.
        // The observer only reads records, so the sealed JSONL output
        // stays byte-identical to a batch run.
        let streaming = Arc::new(Mutex::new(StreamingAnalyzer::new(
            StreamingConfig::default(),
        )));
        let n_ops = job.catalog().len();
        let observer_analyzer = Arc::clone(&streaming);
        let observer_status = Arc::clone(&status);
        sink.set_seal_observer(
            Box::new(move |records| {
                let mut analyzer = lock_streaming(&observer_analyzer);
                analyzer.observe_seal(records, n_ops);
                let metrics = tpupoint_obs::metrics();
                metrics
                    .gauge("analyzer.phase_stability")
                    .set(analyzer.stability());
                metrics
                    .gauge("analyzer.phase_count")
                    .set(analyzer.phase_count() as f64);
                metrics
                    .gauge("analyzer.stable_windows")
                    .set(analyzer.stable_windows() as f64);
                let report = analyzer.report();
                if let Some(step) = report.last_transition_step {
                    metrics
                        .gauge("analyzer.last_transition_step")
                        .set(step as f64);
                }
                for phase in &report.phases {
                    metrics
                        .gauge(&format!("analyzer.phase_occupancy.{}", phase.id))
                        .set(phase.occupancy as f64);
                }
                observer_status
                    .set_stream_state(analyzer.phase_count() as u64, analyzer.stable_windows());
            }),
            STREAM_CADENCE as u64,
        );
        let mut live = LiveSink::new(
            sink,
            Arc::clone(&status),
            Arc::clone(&quit),
            Duration::from_micros(options.serve_pace_us),
            options.ols_threshold,
        );
        let recorder = std::thread::Builder::new()
            .name("tpupoint-recorder".to_owned())
            .spawn(move || {
                let report = job.run(&mut live);
                let profile = live.into_inner().finish();
                Ok(ProfiledRun { report, profile })
            })?;

        let hook_workload = workload.clone();
        let hook_status = Arc::clone(&status);
        let hook_phases = Arc::clone(&streaming);
        let hook_quit = Arc::clone(&quit);
        let server = MetricsServer::bind(
            &listen,
            ServeHooks {
                metrics: Box::new(move || {
                    to_prometheus_labeled(
                        &tpupoint_obs::metrics().snapshot(),
                        &[("workload", &hook_workload)],
                    )
                }),
                health: Box::new(|| Health::from_snapshot(&tpupoint_obs::metrics().snapshot())),
                status: Box::new(move || {
                    let snapshot = tpupoint_obs::metrics().snapshot();
                    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
                    let gauge =
                        |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0) as u64;
                    format!(
                        concat!(
                            "{{\"step\": {}, \"ols_phase\": {}, \"checkpoints\": {}, ",
                            "\"windows_sealed\": {}, \"windows_dropped\": {}, ",
                            "\"spill_depth\": {}, \"seal_queue_depth\": {}, ",
                            "\"stream_phases\": {}, \"stream_stable_for\": {}, ",
                            "\"done\": {}}}\n"
                        ),
                        hook_status.current_step(),
                        hook_status.ols_phase(),
                        hook_status.checkpoints(),
                        counter("profiler.windows_sealed"),
                        counter("profiler.windows_dropped"),
                        gauge("profiler.store_spill_depth"),
                        gauge("profiler.seal_queue_depth"),
                        hook_status.stream_phases(),
                        hook_status.stream_stable_for(),
                        hook_status.is_done(),
                    )
                }),
                phases: Box::new(move || lock_streaming(&hook_phases).report().to_json()),
                quit: Box::new(move || hook_quit.store(true, Ordering::SeqCst)),
                route: None,
            },
        )?;

        Ok(ServeSession {
            server,
            job: Some(recorder),
            quit,
            status,
            output_dir: options.output_dir.clone(),
            workload,
            tp: self.clone(),
            sigint: options.serve_sigint,
            stop_on_stable: options.stop_on_stable,
            baseline_wall,
        })
    }
}

/// Locks the shared streaming analyzer, tolerating poison: a panic in
/// one update must not turn every later seal observer call and `/phases`
/// scrape into a panic as well.
fn lock_streaming(analyzer: &Mutex<StreamingAnalyzer>) -> MutexGuard<'_, StreamingAnalyzer> {
    analyzer.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_streaming_lock_still_serves_phases() {
        let analyzer = Arc::new(Mutex::new(StreamingAnalyzer::new(
            StreamingConfig::default(),
        )));
        let holder = Arc::clone(&analyzer);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("update panicked mid-way");
        })
        .join();
        assert!(panicked.is_err());
        assert!(analyzer.is_poisoned());
        let json = lock_streaming(&analyzer).report().to_json();
        assert!(json.contains("\"phases\": []"), "{json}");
    }

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
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&dir)
            .serve("127.0.0.1:0")
            .serve_pace_us(200)
            .build();
        let session = tp.serve(JobConfig::demo()).expect("serve starts");
        let addr = session.addr();
        let mut stream = std::net::TcpStream::connect(addr).expect("scrape connects");
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("tpupoint_profiler_store_errors"),
            "{response}"
        );
        session.request_quit();
        let run = session.wait().expect("run completes");
        assert!(run.report.steps_completed > 0);
        assert!(dir.join("metrics.prom").exists(), "final scrape flushed");
        assert!(dir.join("records/steps.jsonl").exists(), "records sealed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
