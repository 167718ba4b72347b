//! The `TpuPoint` object: Start → train → Stop, plus analysis and
//! optimization entry points.

use std::io;
use std::path::{Path, PathBuf};
use tpupoint_analyzer::{checkpoint::PhaseCheckpoint, Analyzer, AnalyzerOptions, PhaseSet};
use tpupoint_obs::Metrics;
use tpupoint_optimizer::{OptimizerReport, TpuPointOptimizer};
use tpupoint_profiler::{
    BinaryStore, BinaryStoreConfig, FaultConfig, FaultStore, JsonlStore, Profile, ProfilerOptions,
    ProfilerSink, RecordStore, RetryPolicy, RetryStore, StoreFormat,
};
use tpupoint_runtime::{FleetLimits, JobConfig, RunReport, TrainingJob};
use tpupoint_simcore::SimDuration;

/// A profiled training session: the runtime's ground-truth report plus the
/// profiler's statistical view.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Ground-truth run metrics from the simulator.
    pub report: RunReport,
    /// The statistical profile TPUPoint-Profiler captured.
    pub profile: Profile,
}

/// Results of running TPUPoint-Analyzer on a profile.
#[derive(Debug, Clone)]
pub struct AnalysisArtifacts {
    /// Phases from the online linear scan at the configured threshold.
    pub ols_phases: PhaseSet,
    /// Nearest checkpoint per OLS phase.
    pub phase_checkpoints: Vec<Option<PhaseCheckpoint>>,
    /// Path of the Chrome-tracing JSON, when an output directory is set.
    pub trace_path: Option<PathBuf>,
    /// Path of the phase CSV, when an output directory is set.
    pub csv_path: Option<PathBuf>,
}

/// Configuration-first builder for [`TpuPoint`].
#[derive(Debug, Clone)]
pub struct TpuPointBuilder {
    pub(crate) analyzer: bool,
    pub(crate) output_dir: Option<PathBuf>,
    pub(crate) profiler_options: ProfilerOptions,
    pub(crate) ols_threshold: f64,
    pub(crate) profiling_overhead_frac: f64,
    pub(crate) threads: usize,
    pub(crate) store_retries: u32,
    pub(crate) store_fault_prob: f64,
    pub(crate) store_fault_seed: u64,
    pub(crate) store_format: StoreFormat,
    pub(crate) store_segment_bytes: u64,
    pub(crate) store_retention_bytes: u64,
    pub(crate) serve_listen: Option<String>,
    pub(crate) serve_pace_us: u64,
    pub(crate) serve_real_backoff: bool,
    pub(crate) serve_sigint: bool,
    pub(crate) paired_baseline: bool,
    pub(crate) stop_on_stable: Option<u64>,
    pub(crate) fleet_limits: FleetLimits,
}

impl Default for TpuPointBuilder {
    fn default() -> Self {
        TpuPointBuilder {
            analyzer: true,
            output_dir: None,
            profiler_options: ProfilerOptions::default(),
            ols_threshold: 0.7,
            profiling_overhead_frac: 0.03,
            threads: 0,
            store_retries: RetryPolicy::default().max_retries,
            store_fault_prob: 0.0,
            store_fault_seed: FaultConfig::default().seed,
            store_format: StoreFormat::default(),
            store_segment_bytes: BinaryStoreConfig::default().segment_bytes,
            store_retention_bytes: 0,
            serve_listen: None,
            serve_pace_us: 500,
            serve_real_backoff: true,
            serve_sigint: false,
            paired_baseline: false,
            stop_on_stable: None,
            fleet_limits: FleetLimits::default(),
        }
    }
}

impl TpuPointBuilder {
    /// Enables analyzer mode: profile records are also persisted to the
    /// output directory (the paper's `Start(analyzer=true)`).
    pub fn analyzer(mut self, enabled: bool) -> Self {
        self.analyzer = enabled;
        self
    }

    /// Directory for recorded profiles and visualization files.
    pub fn output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Overrides the profiler's window caps.
    pub fn profiler_options(mut self, options: ProfilerOptions) -> Self {
        self.profiler_options = options;
        self
    }

    /// OLS similarity threshold used by [`TpuPoint::analyze`].
    pub fn ols_threshold(mut self, threshold: f64) -> Self {
        self.ols_threshold = threshold;
        self
    }

    /// Fractional host slowdown caused by the profiling thread.
    pub fn profiling_overhead(mut self, frac: f64) -> Self {
        self.profiling_overhead_frac = frac.max(0.0);
        self
    }

    /// Analyzer worker threads; `0` (the default) auto-sizes from
    /// `TPUPOINT_THREADS` or the machine. Results are identical for any
    /// value — only wall time changes.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Retries per record-store operation before spilling to memory
    /// (default 3; `0` disables the retry/spill decorator entirely, so
    /// store failures surface directly in the profile).
    pub fn store_retries(mut self, retries: u32) -> Self {
        self.store_retries = retries;
        self
    }

    /// Selects the analyzer-mode record encoding: checksummed binary
    /// segments, each written once at rotation and retired inline by the
    /// retention budget ([`tpupoint_profiler::BinaryStore`], the default),
    /// or JSON lines, the human-readable opt-in. Both formats share the
    /// manifest and crash-recovery contract, and
    /// [`tpupoint_profiler::recover_records`] auto-detects whichever was
    /// written.
    pub fn store_format(mut self, format: StoreFormat) -> Self {
        self.store_format = format;
        self
    }

    /// Rotation threshold of the binary store's segments, in bytes.
    /// Ignored under the JSONL format.
    pub fn store_segment_bytes(mut self, bytes: u64) -> Self {
        self.store_segment_bytes = bytes.max(1);
        self
    }

    /// Retention budget over sealed binary segments, in bytes: while the
    /// sealed total exceeds it, the oldest segments are retired with
    /// manifest accounting (never counted as lost). `0` (the default)
    /// keeps everything. Ignored under the JSONL format. In fleet mode
    /// the budget applies per job, bounding every tenant's footprint.
    pub fn store_retention_bytes(mut self, bytes: u64) -> Self {
        self.store_retention_bytes = bytes;
        self
    }

    /// Injects faults into the analyzer-mode record store of
    /// [`TpuPoint::profile`]: each store operation fails independently
    /// with probability `probability`, from a stream seeded by `seed`
    /// (deterministic replay). Served jobs take their fault settings
    /// from their [`crate::FleetJobRequest`] instead.
    pub fn store_fault(mut self, probability: f64, seed: u64) -> Self {
        self.store_fault_prob = probability.clamp(0.0, 1.0);
        self.store_fault_seed = seed;
        self
    }

    /// Enables serve mode at the given listen address (e.g.
    /// `127.0.0.1:9090`, or port `0` for an ephemeral port): a later
    /// [`TpuPoint::serve_fleet`] runs each submitted job on a wall-clock
    /// recording thread and exposes `/metrics`, `/healthz`, `/status`,
    /// `/phases`, `/jobs`, and `/quit` over HTTP at this address.
    pub fn serve(mut self, listen: impl Into<String>) -> Self {
        self.serve_listen = Some(listen.into());
        self
    }

    /// Real milliseconds-scale pacing per training step on the serve
    /// lane (default 500 µs). `0` disables pacing — the job runs at
    /// batch speed while still serving scrapes.
    pub fn serve_pace_us(mut self, pace_us: u64) -> Self {
        self.serve_pace_us = pace_us;
        self
    }

    /// Whether serve mode's recording thread actually sleeps the
    /// recorded retry-backoff schedule
    /// ([`RetryPolicy::sleep_backoff`]; default `true`). Batch
    /// [`TpuPoint::profile`] never sleeps regardless.
    pub fn serve_real_backoff(mut self, enabled: bool) -> Self {
        self.serve_real_backoff = enabled;
        self
    }

    /// Installs a SIGINT handler while serving so Ctrl-C triggers the
    /// same graceful shutdown as `POST /quit` (default off; tests keep
    /// the process signal state untouched).
    pub fn serve_sigint(mut self, enabled: bool) -> Self {
        self.serve_sigint = enabled;
        self
    }

    /// Also runs an *uninstrumented* twin of every profiled job (same
    /// config and seed, no profiling overhead, events discarded) and
    /// reports the **measured** instrumented-to-uninstrumented wall
    /// ratio instead of the modeled `1 + profiling_overhead_frac`. Both
    /// walls are simulated time, so the measurement is deterministic
    /// and unaffected by serve-mode pacing; the measured ratio is
    /// usually *below* the modeled bound because pipeline overlap
    /// absorbs part of the host slowdown. Served jobs each run their own
    /// twin and export the ratio in their own registry.
    pub fn paired_baseline(mut self, enabled: bool) -> Self {
        self.paired_baseline = enabled;
        self
    }

    /// SeqPoint-style early stop for served jobs: each job stops pacing
    /// once its streaming analyzer's phase assignments have been stable
    /// for `k` consecutive updates. The remaining steps still execute at
    /// batch speed, so the recorded profile stays complete — only the
    /// paced wall-clock tail is skipped — and the job ends `completed`.
    pub fn stop_on_stable(mut self, k: u64) -> Self {
        self.stop_on_stable = Some(k);
        self
    }

    /// Admission and concurrency bounds for [`TpuPoint::serve_fleet`]:
    /// how many jobs run at once, how deep the admission queue goes, and
    /// how many active jobs any one tenant may hold.
    pub fn fleet_limits(mut self, limits: FleetLimits) -> Self {
        self.fleet_limits = limits;
        self
    }

    /// Fleet-wide memory budget in MiB for [`TpuPoint::serve_fleet`]
    /// (CLI: `--fleet-memory-mib`; 0 = unbounded). Admissions past the
    /// budget are shed with 429, and each admitted job's seal-queue
    /// high-water and spill cap are sized from its share.
    pub fn fleet_memory_mib(mut self, mib: u64) -> Self {
        self.fleet_limits.memory_budget_bytes = mib * 1024 * 1024;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> TpuPoint {
        TpuPoint { options: self }
    }

    /// With [`TpuPointBuilder::paired_baseline`], runs the uninstrumented
    /// twin of `config` at batch speed and returns its simulated wall.
    /// The twin runs the *clean* config — before the profiling overhead
    /// is charged — so its wall is what an uninstrumented run of the same
    /// seed would take, and serve-mode pacing never skews the ratio.
    pub(crate) fn baseline_wall(&self, config: &JobConfig) -> Option<SimDuration> {
        if !self.paired_baseline {
            return None;
        }
        let _twin_span = tpupoint_obs::span!("tpupoint.paired_baseline");
        let twin = TrainingJob::new(config.clone());
        Some(
            twin.run(&mut tpupoint_simcore::trace::NullSink)
                .session_wall,
        )
    }

    /// Builds the analyzer-mode record store chain: the configured
    /// backend (JSONL lines or binary segments, the retention budget
    /// applying to this one store), wrapped in fault injection when
    /// `fault`'s probability is non-zero, wrapped in retry/spill
    /// resilience unless retries are disabled. `sleep_backoff` selects
    /// the wall-clock lane (serve passes `true` so the recorded retry
    /// schedule is actually slept); `max_spill` caps the spill queue.
    pub(crate) fn build_store(
        &self,
        dir: &Path,
        (fault_prob, fault_seed): (f64, u64),
        sleep_backoff: bool,
        max_spill: usize,
    ) -> io::Result<Box<dyn RecordStore + Send>> {
        let mut store: Box<dyn RecordStore + Send> = match self.store_format {
            StoreFormat::Jsonl => Box::new(JsonlStore::create(dir)?),
            StoreFormat::Binary => Box::new(BinaryStore::with_config(
                dir,
                BinaryStoreConfig {
                    segment_bytes: self.store_segment_bytes,
                    retention_bytes: self.store_retention_bytes,
                },
            )?),
        };
        if fault_prob > 0.0 {
            store = Box::new(FaultStore::new(
                store,
                FaultConfig {
                    error_probability: fault_prob,
                    seed: fault_seed,
                    ..FaultConfig::default()
                },
            ));
        }
        if self.store_retries > 0 {
            store = Box::new(RetryStore::with_policy(
                store,
                RetryPolicy {
                    max_retries: self.store_retries,
                    sleep_backoff,
                    max_spill,
                    ..RetryPolicy::default()
                },
            ));
        }
        Ok(store)
    }

    /// Publishes one run's observability gauges into `metrics`: the
    /// instrumented-vs-uninstrumented wall ratio (measured against the
    /// paired-baseline twin's `baseline_wall` when one ran, modeled as
    /// `1 + profiling_overhead_frac` otherwise) and the window-audit
    /// health of the captured profile. The `profiler.overhead_measured`
    /// marker gauge is only ever set on the measured path — obs-report
    /// uses its presence to label the ratio's provenance.
    pub(crate) fn publish_run_gauges(
        &self,
        metrics: &Metrics,
        report: &RunReport,
        profile: &Profile,
        baseline_wall: Option<SimDuration>,
    ) {
        match baseline_wall {
            Some(baseline) => {
                let ratio =
                    report.session_wall.as_micros() as f64 / baseline.as_micros().max(1) as f64;
                metrics.gauge("profiler.overhead_ratio").set(ratio);
                metrics.gauge("profiler.overhead_measured").set(1.0);
            }
            None => {
                metrics
                    .gauge("profiler.overhead_ratio")
                    .set(1.0 + self.profiling_overhead_frac);
            }
        }
        let audit = tpupoint_profiler::audit_windows(&profile.windows, SimDuration::from_millis(1));
        metrics.gauge("audit.gaps").set(audit.gaps.len() as f64);
        metrics
            .gauge("audit.overlaps")
            .set(audit.overlaps.len() as f64);
        metrics
            .gauge("audit.unobserved_fraction")
            .set(audit.unobserved_fraction());
    }
}

/// A started profiler, mirroring Figure 2's imperative flow:
///
/// ```
/// use tpupoint::{TpuPoint, runtime::{JobConfig, TrainingJob}};
///
/// let job = TrainingJob::new(JobConfig::demo());
/// let tp = TpuPoint::builder().analyzer(false).build();
/// let mut tpprofiler = tp.start(&job);     // tpprofiler.Start(...)
/// let report = job.run(&mut tpprofiler);   // estimator.train(...)
/// let profile = tpprofiler.stop();         // tpprofiler.Stop()
/// assert_eq!(profile.step_marks.len() as u64, report.steps_completed);
/// ```
///
/// The handle is a [`tpupoint_simcore::trace::TraceSink`], so it plugs
/// directly into [`TrainingJob::run`]. Prefer [`TpuPoint::profile`] when
/// you do not need to interleave your own logic between start and stop.
#[derive(Debug)]
pub struct ProfilerHandle {
    sink: ProfilerSink,
}

impl ProfilerHandle {
    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.sink.events_seen()
    }

    /// Stops profiling and returns the captured profile (the paper's
    /// `Stop()`, which also kicks off post-processing when analyzer mode
    /// is on — here, the caller passes the profile to
    /// [`TpuPoint::analyze`]).
    pub fn stop(self) -> Profile {
        self.sink.finish()
    }
}

impl tpupoint_simcore::trace::TraceSink for ProfilerHandle {
    fn record(&mut self, event: &tpupoint_simcore::trace::TraceEvent) {
        self.sink.record(event);
    }

    fn on_step(&mut self, step: u64, at: tpupoint_simcore::SimTime) {
        self.sink.on_step(step, at);
    }

    fn on_checkpoint(&mut self, step: u64, at: tpupoint_simcore::SimTime) {
        self.sink.on_checkpoint(step, at);
    }
}

/// The TPUPoint toolchain handle.
#[derive(Debug, Clone)]
pub struct TpuPoint {
    pub(crate) options: TpuPointBuilder,
}

impl TpuPoint {
    /// Starts building a `TpuPoint`.
    pub fn builder() -> TpuPointBuilder {
        TpuPointBuilder::default()
    }

    /// Starts a profiler for `job` (the paper's `Start()`): the returned
    /// handle is the trace sink to pass to [`TrainingJob::run`]. Note that
    /// the profiling overhead on the host is only modeled when the job's
    /// config carries a non-zero `host_overhead_frac`;
    /// [`TpuPoint::profile`] sets it automatically.
    pub fn start(&self, job: &TrainingJob) -> ProfilerHandle {
        let mut sink = ProfilerSink::new(job.catalog().clone(), self.options.profiler_options);
        sink.set_source(&job.config().model, &job.config().dataset.name);
        ProfilerHandle { sink }
    }

    /// Profiles an entire training session (the paper's Start → train →
    /// Stop sequence). Profiling overhead is charged to the host while the
    /// profiler runs.
    ///
    /// # Errors
    ///
    /// Returns an error if analyzer-mode recording to the output directory
    /// fails.
    pub fn profile(&self, mut config: JobConfig) -> io::Result<ProfiledRun> {
        let options = &self.options;
        let _span = tpupoint_obs::span!(
            "tpupoint.profile",
            analyzer = options.analyzer,
            overhead_frac = options.profiling_overhead_frac
        );
        let baseline_wall = options.baseline_wall(&config);
        config.host_overhead_frac += options.profiling_overhead_frac;
        let job = TrainingJob::new(config);
        let mut sink = match (&options.output_dir, options.analyzer) {
            (Some(dir), true) => {
                let store = options.build_store(
                    &dir.join("records"),
                    (options.store_fault_prob, options.store_fault_seed),
                    false,
                    RetryPolicy::default().max_spill,
                )?;
                // A batch run returns only once its store is sealed, so
                // records are written inline on the simulation thread.
                ProfilerSink::with_store(job.catalog().clone(), options.profiler_options, store)
            }
            _ => ProfilerSink::new(job.catalog().clone(), options.profiler_options),
        };
        sink.set_source(&job.config().model, &job.config().dataset.name);
        let report = job.run(&mut sink);
        let profile = sink.finish();
        options.publish_run_gauges(tpupoint_obs::metrics(), &report, &profile, baseline_wall);
        Ok(ProfiledRun { report, profile })
    }

    /// Runs TPUPoint-Analyzer: OLS phases at the configured threshold,
    /// checkpoint association, and (with an output directory) the
    /// Chrome-tracing JSON and CSV files.
    ///
    /// # Errors
    ///
    /// Returns an error if the visualization files cannot be written.
    pub fn analyze(&self, profile: &Profile) -> io::Result<AnalysisArtifacts> {
        let analyzer = Analyzer::with_options(
            profile,
            AnalyzerOptions {
                threads: self.options.threads,
            },
        );
        let ols_phases = analyzer.ols_phases(self.options.ols_threshold);
        let phase_checkpoints = analyzer.checkpoints_for(&ols_phases);
        let (trace_path, csv_path) = match &self.options.output_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let trace = dir.join(format!("{}-trace.json", profile.model));
                let csv = dir.join(format!("{}-phases.csv", profile.model));
                let steps = dir.join(format!("{}-steps.csv", profile.model));
                analyzer.write_chrome_trace(&ols_phases, std::fs::File::create(&trace)?)?;
                analyzer.write_phase_csv(&ols_phases, std::fs::File::create(&csv)?)?;
                analyzer.write_step_csv(std::fs::File::create(&steps)?)?;
                (Some(trace), Some(csv))
            }
            None => (None, None),
        };
        Ok(AnalysisArtifacts {
            ols_phases,
            phase_checkpoints,
            trace_path,
            csv_path,
        })
    }

    /// Runs TPUPoint-Optimizer on a job.
    pub fn optimize(&self, config: JobConfig) -> OptimizerReport {
        TpuPointOptimizer::new(config).optimize()
    }

    /// The configured output directory, if any.
    pub fn output_dir(&self) -> Option<&Path> {
        self.options.output_dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> JobConfig {
        JobConfig::demo()
    }

    #[test]
    fn profile_produces_matching_report_and_profile() {
        let tp = TpuPoint::builder().analyzer(false).build();
        let run = tp.profile(demo()).expect("in-memory profiling");
        assert_eq!(
            run.profile.step_marks.len() as u64,
            run.report.steps_completed
        );
        assert_eq!(run.profile.model, "demo-mlp");
    }

    #[test]
    fn profiling_overhead_is_applied() {
        let slow = TpuPoint::builder()
            .analyzer(false)
            .profiling_overhead(0.5)
            .build();
        let fast = TpuPoint::builder()
            .analyzer(false)
            .profiling_overhead(0.0)
            .build();
        let mut cfg = demo();
        cfg.jitter_sigma = 0.0;
        cfg.pipeline = tpupoint_graph::PipelineSpec::naive(cfg.pipeline.batch_size);
        cfg.dataset.host_us_per_batch = 100_000.0;
        let r_slow = slow.profile(cfg.clone()).unwrap();
        let r_fast = fast.profile(cfg).unwrap();
        assert!(r_slow.report.session_wall > r_fast.report.session_wall);
    }

    #[test]
    fn paired_baseline_emits_a_measured_overhead_ratio() {
        let tp = TpuPoint::builder()
            .analyzer(false)
            .profiling_overhead(0.5)
            .paired_baseline(true)
            .build();
        // Host-bound configuration so the charged host overhead actually
        // moves the session wall: no jitter, no pipelining, slow host.
        let mut cfg = demo();
        cfg.jitter_sigma = 0.0;
        cfg.pipeline = tpupoint_graph::PipelineSpec::naive(cfg.pipeline.batch_size);
        cfg.dataset.host_us_per_batch = 100_000.0;
        tp.profile(cfg).expect("profiling with twin");
        let snapshot = tpupoint_obs::metrics().snapshot();
        assert_eq!(
            snapshot.gauges.get("profiler.overhead_measured"),
            Some(&1.0),
            "measured marker emitted"
        );
        let ratio = snapshot.gauges["profiler.overhead_ratio"];
        // Measured against the twin: strictly above 1 (overhead is real)
        // and at most the modeled 1.5 bound (overlap can only absorb).
        assert!(ratio > 1.0 && ratio <= 1.5 + 1e-9, "measured ratio {ratio}");
    }

    #[test]
    fn analyze_writes_artifacts_when_output_dir_set() {
        let dir = std::env::temp_dir().join(format!("tpupoint-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tp = TpuPoint::builder().analyzer(true).output_dir(&dir).build();
        let run = tp.profile(demo()).expect("profiling with store");
        let analysis = tp.analyze(&run.profile).expect("analysis");
        assert!(analysis
            .trace_path
            .as_ref()
            .expect("trace written")
            .exists());
        assert!(analysis.csv_path.as_ref().expect("csv written").exists());
        let records = tpupoint_profiler::recover_records(&dir.join("records")).expect("records");
        assert!(records.sealed_files && !records.steps.is_empty());
        assert!(!analysis.ols_phases.is_empty());
        assert_eq!(analysis.phase_checkpoints.len(), analysis.ols_phases.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_store_with_retries_loses_no_acknowledged_record() {
        let dir = std::env::temp_dir().join(format!("tpupoint-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&dir)
            .store_fault(0.5, 7)
            .store_retries(10)
            .build();
        let run = tp.profile(demo()).expect("profiling survives faults");
        // Every record the profiler produced must be on disk, despite the
        // 50% per-call failure rate: the retry/spill layer absorbed it all.
        let summary =
            tpupoint_profiler::recover_records(&dir.join("records")).expect("records recoverable");
        assert_eq!(summary.steps.len(), run.profile.steps.len());
        assert_eq!(summary.windows.len(), run.profile.windows.len());
        assert!(!summary.is_torn());
        assert_eq!(run.profile.store_errors, 0, "retries hid the faults");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_store_without_retries_degrades_the_profile() {
        let dir = std::env::temp_dir().join(format!("tpupoint-fault-raw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(&dir)
            .store_fault(1.0, 7)
            .store_retries(0)
            .build();
        let run = tp.profile(demo()).expect("profiling still completes");
        assert!(run.profile.store_errors > 0);
        assert!(run.profile.is_degraded());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn optimize_delegates_and_preserves_output() {
        let tp = TpuPoint::builder().build();
        let mut cfg = demo();
        cfg.train_steps = 20;
        let report = tp.optimize(cfg);
        assert!(report.output_preserved());
    }
}
