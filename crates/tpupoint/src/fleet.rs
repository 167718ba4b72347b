//! Serve mode: live training jobs behind one scrape plane.
//!
//! The paper's profiler is a cloud *service* — tenants' training jobs run
//! while TPUPoint characterizes each one live. [`TpuPoint::serve_fleet`]
//! reproduces that shape on top of the runtime's
//! [`Fleet`](tpupoint_runtime::Fleet) orchestrator. It is the only serve
//! path: `tpupoint serve --workload W` is a fleet of one, a single
//! [`FleetSession::submit`] waited on with [`FleetSession::wait_for`].
//!
//! * **A wall-clock recording lane per job.** Each job runs on its own
//!   thread, paced in real time per training step
//!   ([`TpuPointBuilder::serve_pace_us`]) and actually sleeping the
//!   recorded retry-backoff schedule
//!   ([`TpuPointBuilder::serve_real_backoff`]). Its streaming analyzer
//!   lives inside the profiler's seal observer, which owns it outright:
//!   nothing else holds or locks it. The live sink tracks the paper's
//!   online OLS phase; `GET /jobs/<id>` shows both. With
//!   [`TpuPointBuilder::stop_on_stable`] a job stops pacing once its
//!   phases hold stable (SeqPoint-style early stop) and still ends
//!   `completed`; with [`TpuPointBuilder::paired_baseline`] it also runs
//!   an uninstrumented twin and exports the measured overhead ratio.
//!
//! * **One scrape plane, decoupled from the jobs.** A single
//!   [`MetricsServer`] serves the whole fleet. `GET /metrics` renders
//!   every job's *published* [`MetricsSnapshot`] as
//!   `{job,tenant,workload}`-labeled Prometheus series, plus the pooled
//!   process-wide series (unlabeled) and a merged fleet aggregate under
//!   `job="fleet"` — one `HELP`/`TYPE` header per family across all of
//!   them. Jobs publish into per-job snapshot slots at seal points (and
//!   a ~200 ms cadence publisher refreshes the `running` and `draining`
//!   jobs between seals), so a scrape never takes a job's registry or
//!   reaches its analyzer: one wedged tenant cannot stall `/metrics`,
//!   `/healthz`, or `/phases` for its neighbours. A finished job stops
//!   republishing, so the merged aggregate stays cached once every job
//!   has settled. Phase reports are published unrendered and rendered to
//!   JSON once, on their first `/phases` read.
//! * **One job table.** The runtime [`Fleet`] keeps each job's serve
//!   state (its registry and published slots) beside its spec and phase.
//!   Admission inserts both under one lock, so a refused submission never
//!   shows on any route, and every route reads the same table through
//!   `Fleet::jobs`.
//! * **A fleet memory budget.** `FleetLimits::memory_budget_bytes`
//!   (CLI: `--fleet-memory-mib`) sheds admissions with 429 once one
//!   more job would overrun the budget, sizes each admitted job's
//!   seal-queue high-water and spill cap from its share, and exports
//!   `fleet.memory_budget_bytes` / `fleet.memory_inuse_bytes`.
//! * **Per-tenant health attribution.** Every job records into its *own*
//!   registry (stores, retry/spill resilience, seal pipeline, streaming
//!   analyzer), so `GET /healthz` attributes each degradation to the job
//!   and tenant that caused it instead of pooling the blame: one tenant's
//!   store faults never flip a healthy neighbour to 503.
//! * **A `/jobs` control API.** `POST /jobs` admits a job by workload
//!   name (the wormulon-style create/cancel/status lifecycle);
//!   `GET /jobs` lists, `GET /jobs/<id>` inspects, `DELETE /jobs/<id>`
//!   cancels — a queued job exits immediately, a running one drains
//!   gracefully (pacing off, records sealed).
//! * **Sharded stores.** Each job persists to its own
//!   `<root>/jobs/<id>/records` store through the same fault/retry chain
//!   as batch [`TpuPoint::profile`] (always on the seal pipeline), and
//!   its sealed output stays **byte-identical** to a solo
//!   [`TpuPoint::profile`] run of the same configuration and seed; the
//!   records are the job's profile. A finished job leaves its final
//!   labeled scrape, `metrics.prom`, beside them. That tail, from the
//!   sink's finish through the final publish, is the
//!   `tpupoint.fleet_persist` span of the self-trace.
//!
//! `POST /quit` (or Ctrl-C with [`TpuPointBuilder::serve_sigint`]) drains
//! the whole fleet gracefully — pacing off, every record sealed — and
//! flushes a final multi-job scrape to `<root>/metrics.prom`.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use tpupoint_analyzer::{StreamingAnalyzer, StreamingConfig, STREAM_CADENCE};
use tpupoint_obs::{
    to_prometheus_labeled, to_prometheus_multi_ref, Gauge, Health, LabeledSnapshotRef, Metrics,
    MetricsServer, MetricsSnapshot, PhasesReport, Request, Response,
};
use tpupoint_profiler::{PipelineConfig, ProfilerSink};
use tpupoint_runtime::{
    AdmitError, Fleet, JobConfig, JobControl, JobPhase, JobSpec, JobStatus, LiveSink, RunReport,
    AGGREGATE_JOB_ID,
};
use tpupoint_simcore::SimDuration;
use tpupoint_workloads::{build, BuildOptions, Variant, WorkloadId};

use crate::facade::{TpuPoint, TpuPointBuilder};
use crate::serve::{preregister_series, preregister_series_in, sigint};

/// One job submission for [`FleetSession::submit`]: the resolved training
/// configuration plus fleet identity and per-job store knobs.
#[derive(Debug, Clone)]
pub struct FleetJobRequest {
    /// Fleet-wide id; `None` auto-assigns `job-<n>`.
    pub id: Option<String>,
    /// Owning tenant for quota accounting and health attribution.
    pub tenant: String,
    /// The training job to simulate.
    pub config: JobConfig,
    /// Wall-clock pacing per step in microseconds; `None` uses the
    /// builder's [`TpuPointBuilder::serve_pace_us`].
    pub pace_us: Option<u64>,
    /// Per-job store fault-injection probability (0 disables).
    pub store_fault_prob: f64,
    /// Seed of the per-job fault stream.
    pub store_fault_seed: u64,
}

impl FleetJobRequest {
    /// A request with default identity (`tenant="default"`, auto id) and
    /// a clean store.
    pub fn new(config: JobConfig) -> FleetJobRequest {
        FleetJobRequest {
            id: None,
            tenant: "default".to_owned(),
            config,
            pace_us: None,
            store_fault_prob: 0.0,
            store_fault_seed: 0xFA117,
        }
    }

    /// Sets an explicit job id.
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Sets the owning tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets this job's wall-clock pacing (microseconds per step; 0 runs
    /// at batch speed).
    pub fn pace_us(mut self, pace_us: u64) -> Self {
        self.pace_us = Some(pace_us);
        self
    }

    /// Injects store faults into this job only — the canonical way to
    /// exercise per-tenant health attribution.
    pub fn store_fault(mut self, probability: f64, seed: u64) -> Self {
        self.store_fault_prob = probability.clamp(0.0, 1.0);
        self.store_fault_seed = seed;
        self
    }
}

/// A published streaming-phase report. Its JSON renders on the first
/// read and is kept, so a report that no `/phases` request reads before
/// the next publish replaces it costs no render at all.
struct PublishedPhases {
    report: PhasesReport,
    json: OnceLock<String>,
}

impl PublishedPhases {
    fn new(report: PhasesReport) -> PublishedPhases {
        PublishedPhases {
            report,
            json: OnceLock::new(),
        }
    }

    /// [`PhasesReport::to_json`] of the report, rendered at most once.
    fn json(&self) -> &str {
        self.json.get_or_init(|| self.report.to_json())
    }
}

/// Per-job serve state, kept in the fleet's job table: the job's own
/// metrics registry, the store knobs its runner applies, and the
/// *published* snapshot slots the scrape plane actually serves from.
///
/// Scrapes never touch `registry` directly — they read
/// `published_metrics`/`published_phases`, which the job's own threads
/// swap at seal points (and a coarse-cadence publisher refreshes between
/// seals). The job's streaming analyzer is not here at all: its seal
/// observer owns it. A job wedged mid-update can therefore never stall
/// `/metrics`.
struct JobRuntime {
    registry: Metrics,
    tenant: String,
    workload: String,
    /// Store fault-injection probability and seed.
    store_fault: (f64, u64),
    /// Seal-queue backpressure threshold, sized from the fleet memory
    /// budget at admission time.
    high_water: usize,
    /// Spill-queue cap, sized from the fleet memory budget at admission.
    max_spill: usize,
    /// The last published registry view; swapped whole, never mutated.
    published_metrics: Mutex<Arc<MetricsSnapshot>>,
    /// The last published streaming-phase report.
    published_phases: Mutex<Arc<PublishedPhases>>,
    /// Bumped once per metrics publish; the aggregate cache keys off it.
    publish_version: AtomicU64,
}

impl JobRuntime {
    /// Snapshots the live registry and swaps it into the published slot.
    ///
    /// The snapshot is taken *inside* the slot lock, so the last writer
    /// always leaves the freshest view: a cadence publish racing a
    /// run-end publish can never overwrite final state with stale data.
    fn publish_metrics(&self) {
        let mut slot = self
            .published_metrics
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Arc::new(self.registry.snapshot());
        drop(slot);
        self.publish_version.fetch_add(1, Ordering::Release);
        tpupoint_obs::metrics()
            .counter("fleet.snapshot_publishes")
            .inc();
    }

    /// Swaps a phases report into the published slot, unrendered.
    fn publish_phases(&self, report: PhasesReport) {
        *self
            .published_phases
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) =
            Arc::new(PublishedPhases::new(report));
    }

    /// The published registry view (cheap: one Arc clone under a lock
    /// that is only ever held for a swap or a clone).
    fn metrics_view(&self) -> Arc<MetricsSnapshot> {
        Arc::clone(
            &self
                .published_metrics
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// The published phases report.
    fn phases_view(&self) -> Arc<PublishedPhases> {
        Arc::clone(
            &self
                .published_phases
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }
}

/// One job's published view: id, runtime, publish version, snapshot.
type Published = (String, Arc<JobRuntime>, u64, Arc<MetricsSnapshot>);

/// Cached `job="fleet"` aggregate, keyed by every job's publish version:
/// a scrape that arrives while nothing republished reuses the merged
/// snapshot instead of re-folding each family.
struct AggregateCache {
    key: Vec<(String, u64)>,
    value: Arc<MetricsSnapshot>,
}

/// State shared between the HTTP routes, the cadence publisher, and the
/// session.
struct FleetShared {
    /// The one job table: each entry carries the job's [`JobRuntime`].
    fleet: Fleet<JobRuntime>,
    options: TpuPointBuilder,
    root: PathBuf,
    auto_id: AtomicU64,
    aggregate: Mutex<Option<AggregateCache>>,
    /// Set by `POST /quit`, [`FleetSession::request_quit`] or Ctrl-C.
    quit: AtomicBool,
}

impl FleetShared {
    /// Every job's published snapshot with its publish version. No
    /// per-job registry lock is taken.
    fn published(&self) -> Vec<Published> {
        self.fleet
            .jobs()
            .into_iter()
            .map(|(id, _, job)| {
                let version = job.publish_version.load(Ordering::Acquire);
                let snapshot = job.metrics_view();
                (id, job, version, snapshot)
            })
            .collect()
    }

    /// Renders the whole fleet as one Prometheus exposition: the pooled
    /// process registry (unlabeled), each job's *published* snapshot
    /// under `{job,tenant,workload}`, and the merged aggregate under
    /// `job="fleet"` — one header per family across all of them. The
    /// published snapshots are rendered borrowed, without cloning.
    fn render_metrics(&self) -> String {
        let published = self.published();
        let process = tpupoint_obs::metrics().snapshot();
        let aggregate = self.fleet_aggregate(&published);
        let mut groups = vec![LabeledSnapshotRef::new(&[], &process)];
        for (id, job, _, snapshot) in &published {
            groups.push(LabeledSnapshotRef::new(
                &[
                    ("job", id.as_str()),
                    ("tenant", job.tenant.as_str()),
                    ("workload", job.workload.as_str()),
                ],
                snapshot,
            ));
        }
        if let Some(merged) = &aggregate {
            groups.push(LabeledSnapshotRef::new(
                &[("job", AGGREGATE_JOB_ID)],
                merged,
            ));
        }
        to_prometheus_multi_ref(&groups)
    }

    /// The merged `job="fleet"` snapshot, rebuilt only when some job has
    /// republished since the cached merge (folded into an empty snapshot
    /// — no seed clone of the first job's view).
    fn fleet_aggregate(&self, published: &[Published]) -> Option<Arc<MetricsSnapshot>> {
        if published.is_empty() {
            return None;
        }
        let key: Vec<(String, u64)> = published
            .iter()
            .map(|(id, _, version, _)| (id.clone(), *version))
            .collect();
        let mut cache = self
            .aggregate
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(cached) = cache.as_ref() {
            if cached.key == key {
                return Some(Arc::clone(&cached.value));
            }
        }
        let mut merged = MetricsSnapshot::default();
        for (_, _, _, snapshot) in published {
            merged.merge(snapshot);
        }
        let value = Arc::new(merged);
        *cache = Some(AggregateCache {
            key,
            value: Arc::clone(&value),
        });
        Some(value)
    }

    /// Fleet health: process-wide degradations plus each job's own,
    /// attributed to its id and tenant — read from the published
    /// snapshots, so one tenant's wedged analyzer never delays the probe.
    fn render_health(&self) -> Health {
        let mut degradations =
            Health::from_snapshot(&tpupoint_obs::metrics().snapshot()).degradations;
        for (id, _, job) in self.fleet.jobs() {
            for line in Health::from_snapshot(&job.metrics_view()).degradations {
                degradations.push(format!("job {id} (tenant {}): {line}", job.tenant));
            }
        }
        Health { degradations }
    }

    /// The published streaming-phase reports of every job, as one JSON
    /// object keyed by job id. Reads only published slots.
    fn render_phases(&self) -> String {
        let mut body = String::from("{");
        for (i, (id, _, job)) in self.fleet.jobs().into_iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let report = job.phases_view();
            body.push_str(&format!("{}: {}", json_str(&id), report.json().trim_end()));
        }
        body.push_str("}\n");
        body
    }
}

/// Executes one admitted fleet job on its `tpupoint-job-<id>` thread:
/// the wall-clock recording lane, writing to the job's own sharded store
/// under `<root>/jobs/<id>/` and its own metrics registry, then the
/// persist tail under a `tpupoint.fleet_persist` span, which ends with the
/// job's final publish.
fn run_fleet_job(
    options: &TpuPointBuilder,
    root: &Path,
    spec: &JobSpec,
    ctl: &JobControl,
    job_runtime: &Arc<JobRuntime>,
) -> Result<u64, String> {
    let dir = root.join("jobs").join(&spec.id);
    let recorded = record_fleet_job(options, &dir, spec, ctl, job_runtime);
    let _persist = tpupoint_obs::span!("tpupoint.fleet_persist");
    let persisted = recorded.and_then(|(report, sink, baseline_wall)| {
        persist_fleet_job(
            options,
            &dir,
            spec,
            job_runtime,
            &report,
            sink,
            baseline_wall,
        )?;
        Ok(report.steps_completed)
    });
    // The final publish, once the registry is quiescent. The last phases
    // report is already published: `finish` delivered the tail through
    // the seal observer.
    job_runtime.publish_metrics();
    persisted
}

/// The recording lane: runs the job against its store and streaming
/// analyzer, returning the run report and the still-open sink.
fn record_fleet_job(
    options: &TpuPointBuilder,
    dir: &Path,
    spec: &JobSpec,
    ctl: &JobControl,
    job_runtime: &Arc<JobRuntime>,
) -> Result<(RunReport, ProfilerSink, Option<SimDuration>), String> {
    // Same twin and overhead charge as profile(): the recorded JSONL stays
    // byte-identical to a solo run of the same configuration and seed.
    let baseline_wall = options.baseline_wall(&spec.config);
    let mut config = spec.config.clone();
    config.host_overhead_frac += options.profiling_overhead_frac;
    let job = tpupoint_runtime::TrainingJob::new(config);

    let store = options
        .build_store(
            &dir.join("records"),
            job_runtime.store_fault,
            options.serve_real_backoff,
            job_runtime.max_spill,
        )
        .map_err(|err| format!("store: {err}"))?;
    // Serving always takes the queued lane: sealing drains on the
    // shared pool, off this recording thread's critical path.
    let mut sink = ProfilerSink::with_pipelined_store(
        job.catalog().clone(),
        options.profiler_options,
        store,
        PipelineConfig {
            high_water: job_runtime.high_water,
        },
    );
    // Rebind every profiler/store/pipeline series to the job's own
    // registry before the first event, so /metrics and /healthz attribute
    // them to this job alone.
    sink.use_registry(&job_runtime.registry);
    sink.set_source(&job.config().model, &job.config().dataset.name);

    // The streaming analyzer lives in the seal observer, its only owner:
    // completed step records arrive on this thread (at seals and every
    // STREAM_CADENCE step marks), the phase structure re-clusters
    // incrementally, and the fresh state is published to the job's gauges
    // and status. The observer only reads records, so the sealed output is
    // unchanged.
    let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
    let runtime = Arc::clone(job_runtime);
    let observer_ctl = ctl.clone();
    let stop_on_stable = options.stop_on_stable;
    let n_ops = job.catalog().len();
    // Gauge handles resolved once: the preregistered scalars now, the
    // transition gauge at the first transition and one occupancy gauge
    // per phase as phases appear, so the series set grows as before.
    let registry = &job_runtime.registry;
    let stability_gauge = registry.gauge("analyzer.phase_stability");
    let phase_count_gauge = registry.gauge("analyzer.phase_count");
    let stable_windows_gauge = registry.gauge("analyzer.stable_windows");
    let mut transition_gauge: Option<Gauge> = None;
    let mut occupancy_gauges: Vec<Gauge> = Vec::new();
    sink.set_seal_observer(
        Box::new(move |records| {
            let registry = &runtime.registry;
            analyzer.observe_seal(records, n_ops);
            let stable_windows = analyzer.stable_windows();
            stability_gauge.set(analyzer.stability());
            phase_count_gauge.set(analyzer.phase_count() as f64);
            stable_windows_gauge.set(stable_windows as f64);
            let report = analyzer.report();
            if let Some(step) = report.last_transition_step {
                transition_gauge
                    .get_or_insert_with(|| registry.gauge("analyzer.last_transition_step"))
                    .set(step as f64);
            }
            for phase in &report.phases {
                while occupancy_gauges.len() <= phase.id {
                    let id = occupancy_gauges.len();
                    occupancy_gauges
                        .push(registry.gauge(&format!("analyzer.phase_occupancy.{id}")));
                }
                occupancy_gauges[phase.id].set(phase.occupancy as f64);
            }
            observer_ctl
                .status
                .set_stream_state(analyzer.phase_count() as u64, stable_windows);
            // SeqPoint-style early stop: once the phase assignments hold
            // stable for k updates, the paced tail adds no phase
            // information, so pacing ends and the remaining steps rush at
            // batch speed — the records stay complete.
            if stop_on_stable.is_some_and(|k| stable_windows >= k) {
                observer_ctl.quit.store(true, Ordering::SeqCst);
            }
            // Only this thread publishes phases, so successive reports
            // land in order. The report renders only if a `/phases`
            // request reads it.
            runtime.publish_phases(report);
            runtime.publish_metrics();
        }),
        STREAM_CADENCE as u64,
    );

    let mut live = LiveSink::new(
        sink,
        Arc::clone(&ctl.status),
        Arc::clone(&ctl.quit),
        Duration::from_micros(spec.pace_us),
        options.ols_threshold,
    );
    let report = job.run(&mut live);
    Ok((report, live.into_inner(), baseline_wall))
}

/// The persist tail: finishes the sink, which seals the job's records,
/// then writes the job's final labeled scrape beside them.
fn persist_fleet_job(
    options: &TpuPointBuilder,
    dir: &Path,
    spec: &JobSpec,
    job_runtime: &JobRuntime,
    report: &RunReport,
    sink: ProfilerSink,
    baseline_wall: Option<SimDuration>,
) -> Result<(), String> {
    let profile = sink.finish();
    options.publish_run_gauges(&job_runtime.registry, report, &profile, baseline_wall);
    std::fs::create_dir_all(dir).map_err(|err| format!("output dir: {err}"))?;
    let scrape = to_prometheus_labeled(
        &job_runtime.registry.snapshot(),
        &[
            ("job", spec.id.as_str()),
            ("tenant", job_runtime.tenant.as_str()),
            ("workload", job_runtime.workload.as_str()),
        ],
    );
    std::fs::write(dir.join("metrics.prom"), scrape).map_err(|err| format!("scrape: {err}"))
}

/// Sizes one job's seal-queue high-water and spill cap from its share of
/// the fleet memory budget. With no budget (0), the seal pipeline's and
/// retry layer's defaults apply. With one, each admitted job gets
/// `budget / jobs` bytes; half of the share bounds the seal queue and half
/// the spill queue, at ~4 KiB per in-flight record (a sealed JSONL step
/// row with its op vector), clamped so a tiny share still makes progress
/// and a huge one never exceeds the defaults.
fn derive_job_caps(budget_bytes: u64, admitted_jobs: usize) -> (usize, usize) {
    const APPROX_RECORD_BYTES: u64 = 4096;
    let default_high_water = PipelineConfig::default().high_water;
    let default_max_spill = tpupoint_profiler::RetryPolicy::default().max_spill;
    if budget_bytes == 0 {
        return (default_high_water, default_max_spill);
    }
    let share = budget_bytes / admitted_jobs.max(1) as u64;
    let records = (share / 2 / APPROX_RECORD_BYTES) as usize;
    (
        records.clamp(16, default_high_water),
        records.clamp(100, default_max_spill),
    )
}

/// A running fleet session: the orchestrator plus the HTTP scrape plane.
/// Obtain one from [`TpuPoint::serve_fleet`]; submit jobs over HTTP or
/// with [`FleetSession::submit`], and call [`FleetSession::wait`] to block
/// until shutdown.
pub struct FleetSession {
    server: MetricsServer,
    shared: Arc<FleetShared>,
    sigint: bool,
    publisher_stop: Arc<AtomicBool>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("addr", &self.server.local_addr())
            .field("fleet", &self.shared.fleet)
            .finish()
    }
}

impl FleetSession {
    /// The HTTP endpoint's actually-bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Admits a job, queueing it for dispatch; returns its id.
    ///
    /// # Errors
    ///
    /// Refuses over-quota, duplicate, invalid, or post-drain submissions;
    /// see [`AdmitError`].
    pub fn submit(&self, request: FleetJobRequest) -> Result<String, AdmitError> {
        submit_job(&self.shared, request)
    }

    /// The current view of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.shared.fleet.status(id)
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.shared.fleet.list()
    }

    /// Requests cancellation: a queued job exits immediately, a running
    /// one drains gracefully. Returns the phase after the request.
    pub fn cancel(&self, id: &str) -> Option<JobPhase> {
        self.shared.fleet.cancel(id)
    }

    /// Active (queued or running) jobs.
    pub fn active_count(&self) -> usize {
        self.shared.fleet.active_count()
    }

    /// Blocks until every admitted job settles, without shutting the
    /// scrape plane down — new submissions are still admitted after.
    pub fn wait_jobs_idle(&self) {
        self.shared.fleet.wait_idle();
    }

    /// One fleet-wide Prometheus scrape, identical to `GET /metrics`.
    pub fn scrape(&self) -> String {
        self.shared.render_metrics()
    }

    /// Fleet health with per-job attribution, identical to `GET /healthz`.
    pub fn health(&self) -> Health {
        self.shared.render_health()
    }

    /// Requests fleet shutdown, exactly like `POST /quit`.
    pub fn request_quit(&self) {
        self.shared.quit.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested (`POST /quit`,
    /// [`FleetSession::request_quit`], or Ctrl-C under
    /// [`TpuPointBuilder::serve_sigint`]), then drains every job
    /// gracefully, flushes the final fleet scrape to
    /// `<root>/metrics.prom`, and returns the final job statuses.
    ///
    /// # Errors
    ///
    /// Returns an error if the final scrape cannot be written.
    pub fn wait(self) -> io::Result<Vec<JobStatus>> {
        self.wait_for(None).map(|outcome| outcome.jobs)
    }

    /// [`FleetSession::wait`], but with `Some(id)` shutdown also starts
    /// once that job settles — the fleet of one behind `tpupoint serve
    /// --workload`. Returns the final job statuses together with every
    /// job's final metrics folded into one snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if the final scrape cannot be written.
    pub fn wait_for(mut self, job: Option<&str>) -> io::Result<FleetOutcome> {
        let shared = Arc::clone(&self.shared);
        let fleet = &shared.fleet;
        let settled = |id: &str| fleet.status(id).is_none_or(|s| s.phase.is_terminal());
        while !shared.quit.load(Ordering::SeqCst) && !job.is_some_and(settled) {
            if self.sigint && sigint::hit() {
                self.request_quit();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        fleet.drain();
        // Stop the cadence publisher before the final scrape: every job
        // already published its settled end state from its own thread.
        self.publisher_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.publisher.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        let scrape = shared.render_metrics();
        std::fs::create_dir_all(&shared.root)?;
        std::fs::write(shared.root.join("metrics.prom"), scrape)?;
        // The scrape just cached this merge; nothing republishes after a
        // drain, so this is a cache hit.
        let job_metrics = shared
            .fleet_aggregate(&shared.published())
            .map(|merged| (*merged).clone())
            .unwrap_or_default();
        Ok(FleetOutcome {
            jobs: fleet.list(),
            job_metrics,
        })
    }
}

/// What a drained fleet leaves behind; see [`FleetSession::wait_for`].
#[derive(Debug)]
pub struct FleetOutcome {
    /// Every job's final status, in id order.
    pub jobs: Vec<JobStatus>,
    /// Every job's final registry snapshot folded into one: the same
    /// merge as the `job="fleet"` aggregate on `/metrics`.
    pub job_metrics: MetricsSnapshot,
}

/// Creates the per-job registry and runtime, then admits them with the
/// spec into the fleet's job table.
fn submit_job(shared: &FleetShared, request: FleetJobRequest) -> Result<String, AdmitError> {
    let fleet = &shared.fleet;
    let id = match request.id {
        Some(id) => id,
        None => loop {
            let n = shared.auto_id.fetch_add(1, Ordering::SeqCst);
            let candidate = format!("job-{n}");
            if fleet.status(&candidate).is_none() {
                break candidate;
            }
        },
    };
    let registry = Metrics::new();
    preregister_series_in(&registry);
    let (high_water, max_spill) = derive_job_caps(
        shared.options.fleet_limits.memory_budget_bytes,
        fleet.active_count() + 1,
    );
    let runtime = JobRuntime {
        published_metrics: Mutex::new(Arc::new(registry.snapshot())),
        // What a fresh streaming analyzer reports.
        published_phases: Mutex::new(Arc::new(PublishedPhases::new(PhasesReport::default()))),
        publish_version: AtomicU64::new(0),
        registry,
        tenant: request.tenant.clone(),
        workload: request.config.model.clone(),
        store_fault: (request.store_fault_prob, request.store_fault_seed),
        high_water,
        max_spill,
    };
    let spec = JobSpec {
        id: id.clone(),
        tenant: request.tenant,
        config: request.config,
        pace_us: request.pace_us.unwrap_or(shared.options.serve_pace_us),
    };
    fleet.submit(spec, runtime)?;
    Ok(id)
}

/// Maps an admission refusal to its HTTP status: client mistakes are
/// 4xx (400 invalid, 409 duplicate, 429 backpressure — including an
/// exhausted fleet memory budget), drain is 503.
fn admit_status(err: &AdmitError) -> u16 {
    match err {
        AdmitError::InvalidId(_) => 400,
        AdmitError::Duplicate(_) => 409,
        AdmitError::Saturated { .. }
        | AdmitError::TenantQuota { .. }
        | AdmitError::MemoryBudget { .. } => 429,
        AdmitError::Closed => 503,
    }
}

/// `s` as a JSON string literal. Every string in a fleet JSON body goes
/// through here: Rust's `{:?}` escapes are not JSON's.
fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_string()
}

/// The `{"error": ...}` body of a refused request.
fn error_json(message: &str) -> String {
    format!("{{\"error\": {}}}\n", json_str(message))
}

fn job_status_json(status: &JobStatus) -> String {
    format!(
        concat!(
            "{{\"id\": {}, \"tenant\": {}, \"phase\": {}, ",
            "\"step\": {}, \"ols_phase\": {}, \"checkpoints\": {}, ",
            "\"stream_phases\": {}, \"stream_stable_for\": {}, ",
            "\"steps_completed\": {}, \"error\": {}}}"
        ),
        json_str(&status.id),
        json_str(&status.tenant),
        json_str(status.phase.as_str()),
        status.step,
        status.ols_phase,
        status.checkpoints,
        status.stream_phases,
        status.stream_stable_for,
        status.steps_completed,
        status
            .error
            .as_deref()
            .map(json_str)
            .unwrap_or_else(|| "null".to_owned()),
    )
}

fn jobs_json(statuses: &[JobStatus]) -> String {
    let rows: Vec<String> = statuses.iter().map(job_status_json).collect();
    format!("{{\"jobs\": [{}]}}\n", rows.join(", "))
}

/// Parses a `POST /jobs` body into a [`FleetJobRequest`]: `workload` is
/// required (a suite id, as listed by `tpupoint workloads`); `id`,
/// `tenant`, `generation`, `scale`, `seed`, `naive`, `pace_us`,
/// `store_fault_prob`, and `store_fault_seed` are optional.
fn parse_job_request(body: &str) -> Result<FleetJobRequest, String> {
    let value: serde_json::Value =
        serde_json::from_str(body).map_err(|err| format!("invalid JSON body: {err}"))?;
    let workload = value
        .get("workload")
        .and_then(serde_json::Value::as_str)
        .ok_or("missing required field \"workload\"")?;
    let workload_id: WorkloadId = workload.parse().map_err(|err| format!("{err}"))?;
    let generation = match value
        .get("generation")
        .and_then(serde_json::Value::as_str)
        .unwrap_or("v2")
    {
        "v2" | "V2" => tpupoint_hw::TpuGeneration::V2,
        "v3" | "V3" => tpupoint_hw::TpuGeneration::V3,
        other => return Err(format!("\"generation\" must be v2 or v3, got {other:?}")),
    };
    let scale = value
        .get("scale")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or_else(|| workload_id.default_sim_scale());
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("\"scale\" must be in (0, 1], got {scale}"));
    }
    let opts = BuildOptions {
        scale,
        seed: value
            .get("seed")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(42),
        variant: if value
            .get("naive")
            .and_then(serde_json::Value::as_bool)
            .unwrap_or(false)
        {
            Variant::Naive
        } else {
            Variant::Tuned
        },
        ..BuildOptions::default()
    };
    let mut request = FleetJobRequest::new(build(workload_id, generation, &opts));
    if let Some(id) = value.get("id").and_then(serde_json::Value::as_str) {
        request = request.id(id);
    }
    if let Some(tenant) = value.get("tenant").and_then(serde_json::Value::as_str) {
        request = request.tenant(tenant);
    }
    if let Some(pace) = value.get("pace_us").and_then(serde_json::Value::as_u64) {
        request = request.pace_us(pace);
    }
    let fault_prob = value
        .get("store_fault_prob")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0);
    if fault_prob > 0.0 {
        request = request.store_fault(
            fault_prob,
            value
                .get("store_fault_seed")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0xFA117),
        );
    }
    Ok(request)
}

/// The fleet's whole HTTP route table: the scrape plane (`/metrics`,
/// `/healthz`, `/status`, `/phases`), `/quit`, and the `/jobs` control
/// API; anything else is a 404.
fn route(shared: &FleetShared, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".to_owned(),
            body: shared.render_metrics(),
        },
        ("GET", "/healthz") => {
            let health = shared.render_health();
            let status = if health.is_healthy() { 200 } else { 503 };
            Response::text(status, health.body())
        }
        ("GET", "/status") => Response::json(fleet_status_json(&shared.fleet.list())),
        ("GET", "/phases") => Response::json(shared.render_phases()),
        ("POST" | "GET", "/quit") => {
            shared.quit.store(true, Ordering::SeqCst);
            Response::text(200, "quitting\n")
        }
        (method, path) => route_jobs(shared, request)
            .unwrap_or_else(|| Response::text(404, format!("no route for {method} {path}\n"))),
    }
}

/// The `GET /status` body: job counts per lifecycle phase.
fn fleet_status_json(statuses: &[JobStatus]) -> String {
    let count = |phase: JobPhase| statuses.iter().filter(|s| s.phase == phase).count();
    format!(
        concat!(
            "{{\"jobs\": {}, \"queued\": {}, \"running\": {}, ",
            "\"draining\": {}, \"completed\": {}, \"failed\": {}, ",
            "\"cancelled\": {}}}\n"
        ),
        statuses.len(),
        count(JobPhase::Queued),
        count(JobPhase::Running),
        count(JobPhase::Draining),
        count(JobPhase::Completed),
        count(JobPhase::Failed),
        count(JobPhase::Cancelled),
    )
}

/// Routes the `/jobs` control API; `None` for any other path.
fn route_jobs(shared: &FleetShared, request: &Request) -> Option<Response> {
    let fleet = &shared.fleet;
    let no_job = |id: &str| Response::json_status(404, error_json(&format!("no job {id:?}")));
    if request.path == "/jobs" {
        return Some(match request.method.as_str() {
            "GET" => Response::json(jobs_json(&fleet.list())),
            "POST" => match parse_job_request(&request.body) {
                Ok(job) => match submit_job(shared, job) {
                    Ok(id) => Response::json_status(
                        201,
                        format!("{{\"id\": {}, \"phase\": \"queued\"}}\n", json_str(&id)),
                    ),
                    Err(err) => {
                        Response::json_status(admit_status(&err), error_json(&err.to_string()))
                    }
                },
                Err(err) => Response::json_status(400, error_json(&err)),
            },
            _ => Response::text(405, "method not allowed\n"),
        });
    }
    let id = request.path.strip_prefix("/jobs/")?;
    if let Some(id) = id.strip_suffix("/phases") {
        // Published slot only: a wedged analyzer cannot stall this route.
        let job = fleet.jobs().into_iter().find(|(job, _, _)| job == id);
        return Some(match job {
            Some((_, _, job)) => Response::json(job.phases_view().json().to_owned()),
            None => no_job(id),
        });
    }
    Some(match request.method.as_str() {
        "GET" => match fleet.status(id) {
            Some(status) => Response::json(format!("{}\n", job_status_json(&status))),
            None => no_job(id),
        },
        "DELETE" => match fleet.cancel(id) {
            Some(phase) => Response::json(format!(
                "{{\"id\": {}, \"phase\": {}}}\n",
                json_str(id),
                json_str(phase.as_str())
            )),
            None => no_job(id),
        },
        _ => Response::text(405, "method not allowed\n"),
    })
}

impl TpuPoint {
    /// Starts fleet mode; see the module docs. Returns as soon as the
    /// scrape plane is up — jobs arrive through `POST /jobs` or
    /// [`FleetSession::submit`], and [`FleetSession::wait`] blocks until
    /// graceful shutdown.
    ///
    /// Sharded stores live under `<output_dir>/jobs/<id>/` (default root
    /// `tpupoint-fleet`); admission bounds come from
    /// [`TpuPointBuilder::fleet_limits`].
    ///
    /// # Errors
    ///
    /// Returns an error if the listen address cannot be bound.
    pub fn serve_fleet(&self) -> io::Result<FleetSession> {
        let options = self.options.clone();
        let listen = options
            .serve_listen
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned());
        let root = options
            .output_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("tpupoint-fleet"));
        preregister_series();
        let metrics = tpupoint_obs::metrics();
        for gauge in [
            "fleet.jobs_running",
            "fleet.jobs_queued",
            "fleet.jobs_total",
            "fleet.memory_budget_bytes",
            "fleet.memory_inuse_bytes",
        ] {
            metrics.gauge(gauge);
        }
        metrics.counter("fleet.poisoned");
        metrics.counter("fleet.snapshot_publishes");
        if options.serve_sigint {
            sigint::install();
        }

        let fleet = {
            let (options, root) = (options.clone(), root.clone());
            Fleet::new(
                options.fleet_limits,
                Box::new(
                    move |spec: &JobSpec, ctl: &JobControl, job: &Arc<JobRuntime>| {
                        run_fleet_job(&options, &root, spec, ctl, job)
                    },
                ),
            )
        };
        let shared = Arc::new(FleetShared {
            fleet,
            options: options.clone(),
            root,
            auto_id: AtomicU64::new(0),
            aggregate: Mutex::new(None),
            quit: AtomicBool::new(false),
        });
        // Coarse-cadence publisher: refreshes the published metrics of
        // every running or draining job between seal points, so
        // slow-sealing jobs still converge on /metrics within ~200 ms. A
        // queued or settled job's registry does not change, so
        // republishing it would only bump its version and miss the
        // aggregate cache. Phases republish only at seals (the analyzer
        // state only changes there).
        let publisher_stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&publisher_stop);
            std::thread::Builder::new()
                .name("tpupoint-fleet-publish".to_owned())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        // Parked, not slept: shutdown unparks it at once.
                        std::thread::park_timeout(Duration::from_millis(200));
                        for (_, phase, job) in shared.fleet.jobs() {
                            if matches!(phase, JobPhase::Running | JobPhase::Draining) {
                                job.publish_metrics();
                            }
                        }
                    }
                })?
        };
        let route_shared = Arc::clone(&shared);
        let server = MetricsServer::bind(&listen, move |request: &Request| {
            route(&route_shared, request)
        })?;

        Ok(FleetSession {
            server,
            shared,
            sigint: options.serve_sigint,
            publisher_stop,
            publisher: Some(publisher),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use tpupoint_profiler::{record_files, recover_records};

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tpupoint-fleet-{tag}-{}", std::process::id()))
    }

    fn builder_at(root: &Path) -> TpuPointBuilder {
        TpuPoint::builder()
            .analyzer(true)
            .output_dir(root)
            .serve("127.0.0.1:0")
            .serve_pace_us(0)
    }

    fn fleet_at(root: &Path) -> FleetSession {
        builder_at(root)
            .build()
            .serve_fleet()
            .expect("fleet starts")
    }

    fn bert_mrpc() -> JobConfig {
        // Scale 0.3 gives enough streaming updates (~15) for the phase
        // assignments to latch stability.
        build(
            WorkloadId::BertMrpc,
            tpupoint_hw::TpuGeneration::V2,
            &BuildOptions {
                scale: 0.3,
                ..BuildOptions::default()
            },
        )
    }

    fn http(addr: SocketAddr, request: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connects");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    #[test]
    fn routes_serve_the_fleet() {
        let root = temp_root("routes");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        // One request: its status line and `Content-Type`, and its body.
        let call = |line: &str| {
            let request = format!("{line} HTTP/1.1\r\nHost: t\r\n\r\n");
            let response = http(session.addr(), &request);
            let (head, body) = response.split_once("\r\n\r\n").expect("full response");
            let mut head = head.lines();
            let status = head.next().unwrap_or_default().to_owned();
            let kind = head.find_map(|l| l.strip_prefix("Content-Type: "));
            (status + "; " + kind.unwrap_or_default(), body.to_owned())
        };
        let (text, json) = ("text/plain; charset=utf-8", "application/json");
        let ok = |kind: &str| format!("HTTP/1.1 200 OK; {kind}");
        // Prometheus scrape configs append query params; they must not 404.
        for line in ["GET /metrics", "GET /metrics?job=x&instance=y"] {
            let (head, body) = call(line);
            assert_eq!(head, ok("text/plain; version=0.0.4; charset=utf-8"));
            assert!(body.contains("tpupoint_fleet_jobs_running"), "{body}");
        }
        // Parallel tests fault the process-global registry, so the fleet
        // may be degraded; either way the verdict is well formed.
        for line in ["GET /healthz", "GET /healthz?verbose=1"] {
            match call(line) {
                (head, body) if head == ok(text) => assert_eq!(body, "ok\n"),
                (head, body) => {
                    assert_eq!(head, format!("HTTP/1.1 503 Service Unavailable; {text}"));
                    assert!(body.starts_with("degraded\n"), "{body}");
                }
            }
        }
        let idle = concat!(
            "{\"jobs\": 0, \"queued\": 0, \"running\": 0, \"draining\": 0, ",
            "\"completed\": 0, \"failed\": 0, \"cancelled\": 0}\n"
        );
        assert_eq!(call("GET /status"), (ok(json), idle.to_owned()));
        assert_eq!(call("GET /phases?view=1"), (ok(json), "{}\n".to_owned()));
        let no_jobs = "{\"jobs\": []}\n".to_owned();
        assert_eq!(call("GET /jobs?tenant=a"), (ok(json), no_jobs));
        for line in ["GET /nowhere", "DELETE /metrics"] {
            let head = format!("HTTP/1.1 404 Not Found; {text}");
            assert_eq!(call(line), (head, format!("no route for {line}\n")));
        }
        for line in ["GET /quit", "POST /quit"] {
            assert_eq!(call(line), (ok(text), "quitting\n".to_owned()));
        }
        session.wait().expect("the quit drains the fleet");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fleet_runs_jobs_with_labeled_series_and_sharded_stores() {
        let root = temp_root("basic");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        let id = session
            .submit(
                FleetJobRequest::new(JobConfig::demo())
                    .id("demo-a")
                    .tenant("alice"),
            )
            .expect("admits");
        assert_eq!(id, "demo-a");
        session.wait_jobs_idle();
        assert_eq!(session.status("demo-a").unwrap().phase, JobPhase::Completed);

        let scrape = session.scrape();
        assert!(
            scrape.contains("job=\"demo-a\"") && scrape.contains("tenant=\"alice\""),
            "per-job labels missing:\n{scrape}"
        );
        assert!(
            scrape.contains(&format!("job=\"{AGGREGATE_JOB_ID}\"")),
            "aggregate series missing:\n{scrape}"
        );
        // One header per family even with three groups of the same series.
        let headers = scrape
            .matches("# TYPE tpupoint_profiler_windows_sealed")
            .count();
        assert_eq!(headers, 1, "{scrape}");
        let records = recover_records(&root.join("jobs/demo-a/records")).expect("records");
        assert!(records.sealed_files && !records.steps.is_empty());
        assert!(!root.join("jobs/demo-a/profile.json").exists());

        session.request_quit();
        let statuses = session.wait().expect("drains");
        assert_eq!(statuses.len(), 1);
        assert!(root.join("metrics.prom").exists(), "final fleet scrape");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn jobs_api_drives_the_lifecycle_over_http() {
        let root = temp_root("api");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        let addr = session.addr();

        let body =
            "{\"workload\": \"bert-mrpc\", \"id\": \"b1\", \"tenant\": \"t1\", \"scale\": 0.05}";
        let response = http(
            addr,
            &format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(response.starts_with("HTTP/1.1 201"), "{response}");
        assert!(response.contains("\"id\": \"b1\""), "{response}");

        let listing = get(addr, "/jobs");
        assert!(listing.contains("\"id\": \"b1\""), "{listing}");
        let one = get(addr, "/jobs/b1");
        assert!(one.contains("\"tenant\": \"t1\""), "{one}");
        assert!(get(addr, "/jobs/nope").starts_with("HTTP/1.1 404"));

        // Unknown workloads and bad JSON are client errors, not 500s.
        let bad = http(
            addr,
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}",
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        session.wait_jobs_idle();
        let cancelled = http(addr, "DELETE /jobs/b1 HTTP/1.1\r\nHost: t\r\n\r\n");
        // Already terminal: cancel is a no-op that reports the phase.
        assert!(cancelled.contains("completed"), "{cancelled}");

        let quit = http(addr, "POST /quit HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(quit.starts_with("HTTP/1.1 200"), "{quit}");
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_and_invalid_submissions_map_to_http_statuses() {
        let root = temp_root("statuses");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        session
            .submit(FleetJobRequest::new(JobConfig::demo()).id("dup"))
            .unwrap();
        let err = session
            .submit(FleetJobRequest::new(JobConfig::demo()).id("dup"))
            .unwrap_err();
        assert_eq!(admit_status(&err), 409);
        let err = session
            .submit(FleetJobRequest::new(JobConfig::demo()).id("NOT VALID"))
            .unwrap_err();
        assert_eq!(admit_status(&err), 400);
        // Out-of-range scales are refused as client errors before the
        // workload builder (which asserts the range) ever sees them.
        for scale in ["0", "2"] {
            let body = format!("{{\"workload\": \"bert-mrpc\", \"scale\": {scale}}}");
            let response = http(
                session.addr(),
                &format!(
                    "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
            assert!(response.contains("{\"error\": "), "{response}");
        }
        // A refused submission leaves no job behind.
        assert_eq!(session.list().len(), 1);
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The fields of a valid `POST /jobs` body, every optional one set.
    const JOB_FIELDS: [(&str, &str); 10] = [
        ("workload", "\"bert-mrpc\""),
        ("id", "\"fuzz\""),
        ("tenant", "\"t\""),
        ("generation", "\"v3\""),
        ("scale", "0.05"),
        ("seed", "7"),
        ("naive", "true"),
        ("pace_us", "0"),
        ("store_fault_prob", "0.5"),
        ("store_fault_seed", "9"),
    ];

    /// Values spliced over one field of a valid body: wrong types, range
    /// edges, and numbers at and past the limits of their types.
    const ODD_VALUES: [&str; 20] = [
        "null",
        "false",
        "-1",
        "0",
        "-0",
        "1e-7",
        "1e-300",
        "5e-324",
        "1.0000001",
        "1e308",
        "1e400",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
        "\"\"",
        "\"V2\"",
        "\"bert-mrpc/../x\"",
        "[]",
        "{}",
        "\"\\ud800\"",
    ];

    fn job_body(fields: &[(&str, &str)]) -> String {
        let pairs: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", pairs.join(", "))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `POST /jobs` bodies that are garbage or a mutation of a valid
        /// request never panic the parser: garbage is an `Err`, and a
        /// mutated request is an `Err` or a job.
        #[test]
        fn job_request_parser_never_panics(
            mutation in 0u32..5,
            at in proptest::prelude::any::<usize>(),
            odd in 0usize..ODD_VALUES.len(),
            bytes in proptest::collection::vec(0u32..256, 0usize..96),
            depth in 0usize..70_000,
        ) {
            let valid = job_body(&JOB_FIELDS);
            let garbage: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let (body, must_fail) = match mutation {
                0 => (String::from_utf8_lossy(&garbage).into_owned(), true),
                1 => (valid[..at % valid.len()].to_owned(), true),
                2 => {
                    let mut spliced = valid.clone().into_bytes();
                    let start = at % spliced.len();
                    let end = (start + garbage.len()).min(spliced.len());
                    spliced.splice(start..end, garbage);
                    (String::from_utf8_lossy(&spliced).into_owned(), false)
                }
                3 => {
                    let mut fields = JOB_FIELDS;
                    fields[at % fields.len()].1 = ODD_VALUES[odd];
                    (job_body(&fields), false)
                }
                _ => (format!("{}{valid}", "[".repeat(depth)), depth > 0),
            };
            let parsed = parse_job_request(&body);
            if must_fail {
                proptest::prop_assert!(parsed.is_err(), "accepted {body:?}");
            }
        }
    }

    #[test]
    fn a_published_report_renders_once_with_to_json_bytes() {
        let report = PhasesReport {
            phases: vec![tpupoint_obs::PhaseStat {
                id: 0,
                occupancy: 3,
                share: 1.0,
                centroid: vec![0.5, -1.25],
            }],
            stability: 0.75,
            updates: 2,
            steps_assigned: 3,
            last_transition_step: Some(9),
            transitions: vec![tpupoint_obs::PhaseTransition { step: 9, phase: 0 }],
            ..PhasesReport::default()
        };
        let published = PublishedPhases::new(report.clone());
        assert!(published.json.get().is_none(), "rendered before a read");
        let first = published.json();
        assert_eq!(first, report.to_json());
        assert!(std::ptr::eq(first, published.json()), "rendered twice");
    }

    #[test]
    fn settled_jobs_stop_republishing() {
        let root = temp_root("settled");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        for id in ["s1", "s2"] {
            session
                .submit(FleetJobRequest::new(JobConfig::demo()).id(id))
                .expect("admits");
        }
        session.wait_jobs_idle();
        let shared = &session.shared;
        let versions = || -> u64 {
            shared
                .published()
                .iter()
                .map(|(_, _, version, _)| version)
                .sum()
        };
        // One publisher period lets an iteration that began before the
        // jobs settled finish; the next two must publish nothing.
        std::thread::sleep(Duration::from_millis(250));
        let before = versions();
        session.scrape();
        let first = shared.fleet_aggregate(&shared.published()).unwrap();
        std::thread::sleep(Duration::from_millis(450));
        assert_eq!(versions(), before, "a settled job republished");
        session.scrape();
        let second = shared.fleet_aggregate(&shared.published()).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "aggregate was rebuilt");
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn derive_job_caps_scales_with_budget_and_clamps() {
        // No budget: the pipeline and retry defaults.
        assert_eq!(derive_job_caps(0, 10), (256, 100_000));
        // 64 MiB across 8 jobs → 8 MiB share → 4 MiB per queue →
        // 1024 records, clamped to the 256 high-water default.
        let (hw, spill) = derive_job_caps(64 * 1024 * 1024, 8);
        assert_eq!(hw, 256);
        assert_eq!(spill, 1024);
        // A starvation-level share still leaves the floors.
        let (hw, spill) = derive_job_caps(1024 * 1024, 64);
        assert_eq!(hw, 16);
        assert_eq!(spill, 100);
    }

    #[test]
    fn scrapes_survive_a_job_wedged_inside_a_streaming_update() {
        let root = temp_root("wedged");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        let addr = session.addr();
        // Half a second per step holds the job mid-run on its recording
        // thread, between two of its seal-observer updates, for the
        // whole check.
        session
            .submit(
                FleetJobRequest::new(JobConfig::demo())
                    .id("wedge")
                    .pace_us(500_000),
            )
            .expect("admits");
        while session.status("wedge").unwrap().step == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Every scrape-plane route must answer from published snapshots,
        // far faster than the job could reach its next step.
        let bound = Duration::from_secs(2);
        for path in ["/metrics", "/healthz", "/phases", "/jobs/wedge/phases"] {
            let start = std::time::Instant::now();
            let response = get(addr, path);
            let elapsed = start.elapsed();
            assert!(
                elapsed < bound,
                "{path} took {elapsed:?} with a job held mid-run"
            );
            if path == "/healthz" {
                // Parallel tests fault the process-global registry, so
                // health may legitimately report 503 — it only matters
                // that it answered within the bound.
                assert!(response.starts_with("HTTP/1.1"), "{path}: {response}");
            } else {
                assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
            }
        }
        let scrape = get(addr, "/metrics");
        assert!(scrape.contains("job=\"wedge\""), "{scrape}");
        assert_eq!(session.status("wedge").unwrap().phase, JobPhase::Running);

        assert_eq!(session.cancel("wedge"), Some(JobPhase::Draining));
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn refused_submissions_never_show_on_the_scrape_plane() {
        let root = temp_root("refused");
        let _ = std::fs::remove_dir_all(&root);
        let session = builder_at(&root)
            .fleet_limits(tpupoint_runtime::FleetLimits {
                per_tenant_active: 1,
                ..tpupoint_runtime::FleetLimits::default()
            })
            .build()
            .serve_fleet()
            .expect("fleet starts");
        // Tenant "busy" holds its one active slot for the whole race.
        session
            .submit(
                FleetJobRequest::new(JobConfig::demo())
                    .id("holder")
                    .tenant("busy")
                    .pace_us(200_000),
            )
            .expect("admits");
        // Names only a refused submission carries: an invalid id, a
        // duplicate's tenant, and over-quota ids.
        let refused = ["NOT VALID", "dup-tenant", "over-quota"];
        let done = AtomicBool::new(false);
        let (leak, scrapes) = std::thread::scope(|scope| {
            let scraper = scope.spawn(|| {
                let mut scrapes = 0u64;
                while !done.load(Ordering::SeqCst) {
                    // The `/metrics` and `/phases` bodies, in process.
                    for body in [session.scrape(), session.shared.render_phases()] {
                        if refused.iter().any(|name| body.contains(name)) {
                            return (Some(body), scrapes);
                        }
                    }
                    scrapes += 1;
                }
                (None, scrapes)
            });
            for i in 0..300 {
                let demo = || FleetJobRequest::new(JobConfig::demo());
                let invalid = session.submit(demo().id("NOT VALID").tenant("t"));
                assert!(matches!(invalid, Err(AdmitError::InvalidId(_))));
                let duplicate = session.submit(demo().id("holder").tenant("dup-tenant"));
                assert!(matches!(duplicate, Err(AdmitError::Duplicate(_))));
                let over = session.submit(demo().id(format!("over-quota-{i}")).tenant("busy"));
                assert!(matches!(over, Err(AdmitError::TenantQuota { .. })));
            }
            done.store(true, Ordering::SeqCst);
            scraper.join().expect("scraper ran")
        });
        assert!(leak.is_none(), "a refused job was scraped:\n{leak:?}");
        assert!(scrapes > 0);
        assert_eq!(session.list().len(), 1);
        session.cancel("holder");
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_fleet_json_body_parses() {
        let root = temp_root("json");
        let _ = std::fs::remove_dir_all(&root);
        let session = fleet_at(&root);
        let addr = session.addr();
        // Control characters, a quote, a backslash, U+0085 and U+2028.
        let odd = "a\u{1}\u{1f}\"q\\b\u{85}c\u{2028}d";
        let post = |fields: &[(&str, serde_json::Value)]| {
            let mut body = serde_json::Map::new();
            for (key, value) in fields {
                body.insert((*key).to_owned(), value.clone());
            }
            let body = serde_json::Value::Object(body).to_string();
            let request = format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            http(addr, &request)
        };
        let text = |s: &str| serde_json::Value::String(s.to_owned());
        let workload = ("workload", text("bert-mrpc"));
        let scale = ("scale", serde_json::json!(0.05));
        let mut responses = vec![
            post(&[
                workload.clone(),
                ("id", text("odd")),
                ("tenant", text(odd)),
                scale.clone(),
            ]),
            post(&[workload.clone(), ("id", text(odd)), scale.clone()]),
            post(&[("workload", text(odd))]),
            post(&[workload, ("id", text("odd")), scale]),
        ];
        for path in [
            "/jobs",
            "/jobs/odd",
            "/status",
            "/phases",
            "/jobs/odd/phases",
        ] {
            responses.push(get(addr, path));
        }
        for method in ["GET", "DELETE"] {
            for path in [format!("/jobs/{odd}"), format!("/jobs/{odd}/phases")] {
                responses.push(http(
                    addr,
                    &format!("{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n"),
                ));
            }
        }
        session.wait_jobs_idle();
        responses.push(http(addr, "DELETE /jobs/odd HTTP/1.1\r\nHost: t\r\n\r\n"));
        responses.push(get(addr, "/jobs"));
        let statuses: Vec<&str> = responses.iter().map(|r| &r[9..12]).collect();
        assert_eq!(
            statuses,
            [
                "201", "400", "400", "409", "200", "200", "200", "200", "200", "404", "404", "404",
                "404", "200", "200"
            ]
        );
        for response in &responses {
            let (_, body) = response.split_once("\r\n\r\n").expect("full response");
            let parsed: Result<serde_json::Value, _> = serde_json::from_str(body);
            assert!(parsed.is_ok(), "{parsed:?} for {body:?}");
        }
        let listing: serde_json::Value =
            serde_json::from_str(responses[4].split_once("\r\n\r\n").unwrap().1).unwrap();
        assert_eq!(listing["jobs"][0]["tenant"].as_str(), Some(odd));
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_fresh_analyzer_reports_the_admission_report() {
        let fresh = StreamingAnalyzer::new(StreamingConfig::default()).report();
        assert_eq!(fresh, PhasesReport::default());
    }

    #[test]
    fn stop_on_stable_ends_a_paced_job_completed_with_identical_records() {
        let root = temp_root("stop-on-stable");
        let _ = std::fs::remove_dir_all(&root);
        // 4 ms per step paces ~0.46 s of sleep into the full run; the
        // early stop skips the paced tail after the phases latch.
        let run = |dir: &Path, stop: Option<u64>| {
            let mut builder = builder_at(dir).serve_pace_us(4_000);
            if let Some(k) = stop {
                builder = builder.stop_on_stable(k);
            }
            let started = std::time::Instant::now();
            let session = builder.build().serve_fleet().expect("fleet starts");
            session
                .submit(FleetJobRequest::new(bert_mrpc()).id("bert-mrpc"))
                .expect("admits");
            let outcome = session.wait_for(Some("bert-mrpc")).expect("drains");
            let job = outcome.jobs.into_iter().next().expect("one job");
            (job, started.elapsed())
        };
        let (full, full_wall) = run(&root.join("full"), None);
        let (early, early_wall) = run(&root.join("early"), Some(3));
        for status in [&full, &early] {
            assert_eq!(status.phase, JobPhase::Completed, "{:?}", status.error);
        }
        assert!(early_wall < full_wall, "{early_wall:?} vs {full_wall:?}");
        assert_eq!(early.steps_completed, full.steps_completed);
        let records = |run: &str| root.join(run).join("jobs/bert-mrpc/records");
        let full_files = record_files(&records("full")).expect("full records");
        assert!(
            full_files.values().all(|bytes| !bytes.is_empty()),
            "empty record file"
        );
        let recovered = recover_records(&records("full")).expect("full records");
        assert!(!recovered.steps.is_empty() && !recovered.windows.is_empty());
        assert!(
            full_files == record_files(&records("early")).expect("early records"),
            "records diverged"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
