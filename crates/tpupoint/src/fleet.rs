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
//!   rides the profiler's seal observer, and the live sink tracks the
//!   paper's online OLS phase; `GET /jobs/<id>` shows both. With
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
//!   a ~200 ms cadence publisher refreshes between seals), so a scrape
//!   never takes a job's registry or streaming-analyzer lock: one
//!   wedged tenant cannot stall `/metrics`, `/healthz`, or `/phases`
//!   for its neighbours.
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
//!   [`TpuPoint::profile`] run of the same configuration and seed. A
//!   finished job leaves `profile.json` and its final labeled scrape,
//!   `metrics.prom`, beside its records.
//!
//! `POST /quit` (or Ctrl-C with [`TpuPointBuilder::serve_sigint`]) drains
//! the whole fleet gracefully — pacing off, every record sealed — and
//! flushes a final multi-job scrape to `<root>/metrics.prom`.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tpupoint_analyzer::{StreamingAnalyzer, StreamingConfig, STREAM_CADENCE};
use tpupoint_obs::{
    to_prometheus_labeled, to_prometheus_multi_ref, Health, LabeledSnapshotRef, Metrics,
    MetricsServer, MetricsSnapshot, Request, Response, ServeHooks,
};
use tpupoint_profiler::{PipelineConfig, ProfilerSink};
use tpupoint_runtime::{
    AdmitError, Fleet, JobConfig, JobControl, JobPhase, JobSpec, JobStatus, LiveSink,
    AGGREGATE_JOB_ID,
};
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

/// Per-job state the scrape plane reads: the job's own metrics registry,
/// its streaming analyzer, the store knobs its runner applies, and the
/// *published* snapshot slots the scrape plane actually serves from.
///
/// Scrapes never touch `registry` or `streaming` directly — they read
/// `published_metrics`/`published_phases`, which the job's own threads
/// swap at seal points (and a coarse-cadence publisher refreshes between
/// seals). A job wedged mid-update can therefore never stall `/metrics`.
struct JobRuntime {
    registry: Metrics,
    tenant: String,
    workload: String,
    streaming: Arc<Mutex<StreamingAnalyzer>>,
    /// Store fault-injection probability and seed.
    store_fault: (f64, u64),
    /// Seal-queue backpressure threshold, sized from the fleet memory
    /// budget at admission time.
    high_water: usize,
    /// Spill-queue cap, sized from the fleet memory budget at admission.
    max_spill: usize,
    /// The last published registry view; swapped whole, never mutated.
    published_metrics: Mutex<Arc<MetricsSnapshot>>,
    /// The last published streaming-phase report, pre-rendered as JSON.
    published_phases: Mutex<Arc<String>>,
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

    /// Swaps a pre-rendered phases report into the published slot.
    fn publish_phases(&self, json: String) {
        *self
            .published_phases
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Arc::new(json);
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
    fn phases_view(&self) -> Arc<String> {
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

/// State shared between the HTTP hooks, the job runner, and the session.
struct FleetShared {
    options: TpuPointBuilder,
    root: PathBuf,
    jobs: Mutex<BTreeMap<String, Arc<JobRuntime>>>,
    auto_id: AtomicU64,
    aggregate: Mutex<Option<AggregateCache>>,
}

impl FleetShared {
    /// The current job table as an owned list of Arcs. The `jobs` lock is
    /// held only for this clone — never across per-job work — so a wedged
    /// job cannot serialize scrapes behind it.
    fn job_list(&self) -> Vec<(String, Arc<JobRuntime>)> {
        let jobs = self
            .jobs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        jobs.iter()
            .map(|(id, job)| (id.clone(), Arc::clone(job)))
            .collect()
    }

    /// Every job's published snapshot with its publish version. No
    /// per-job registry or streaming lock is taken.
    fn published(&self) -> Vec<Published> {
        self.job_list()
            .into_iter()
            .map(|(id, job)| {
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
        for (id, job) in self.job_list() {
            for line in Health::from_snapshot(&job.metrics_view()).degradations {
                degradations.push(format!("job {id} (tenant {}): {line}", job.tenant));
            }
        }
        Health { degradations }
    }

    /// The published streaming-phase reports of every job, as one JSON
    /// object keyed by job id. Reads only published slots — no streaming
    /// lock.
    fn render_phases(&self) -> String {
        let mut body = String::from("{");
        for (i, (id, job)) in self.job_list().into_iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let report = job.phases_view();
            body.push_str(&format!("{:?}: {}", id, report.trim_end()));
        }
        body.push_str("}\n");
        body
    }
}

/// Executes one admitted fleet job on its `tpupoint-job-<id>` thread:
/// the wall-clock recording lane, writing to the job's own sharded store
/// and its own metrics registry.
fn run_fleet_job(shared: &FleetShared, spec: &JobSpec, ctl: &JobControl) -> Result<u64, String> {
    let job_runtime = shared
        .jobs
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .get(&spec.id)
        .cloned()
        .ok_or_else(|| format!("job {:?} has no runtime entry", spec.id))?;
    let options = &shared.options;

    // Same twin and overhead charge as profile(): the recorded JSONL stays
    // byte-identical to a solo run of the same configuration and seed.
    let baseline_wall = options.baseline_wall(&spec.config);
    let mut config = spec.config.clone();
    config.host_overhead_frac += options.profiling_overhead_frac;
    let job = tpupoint_runtime::TrainingJob::new(config);

    let dir = shared.root.join("jobs").join(&spec.id);
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

    // The streaming analyzer rides the seal observer: completed step
    // records arrive on this thread (at seals and every STREAM_CADENCE
    // step marks), the phase structure re-clusters incrementally, and the
    // fresh state is published to the job's gauges and status. The
    // observer only reads records, so the sealed output is unchanged.
    let observer_runtime = Arc::clone(&job_runtime);
    let observer_ctl = ctl.clone();
    let stop_on_stable = options.stop_on_stable;
    let n_ops = job.catalog().len();
    sink.set_seal_observer(
        Box::new(move |records| {
            let runtime = &observer_runtime;
            let registry = &runtime.registry;
            let mut analyzer = runtime
                .streaming
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            analyzer.observe_seal(records, n_ops);
            let stable_windows = analyzer.stable_windows();
            registry
                .gauge("analyzer.phase_stability")
                .set(analyzer.stability());
            registry
                .gauge("analyzer.phase_count")
                .set(analyzer.phase_count() as f64);
            registry
                .gauge("analyzer.stable_windows")
                .set(stable_windows as f64);
            let report = analyzer.report();
            if let Some(step) = report.last_transition_step {
                registry
                    .gauge("analyzer.last_transition_step")
                    .set(step as f64);
            }
            for phase in &report.phases {
                registry
                    .gauge(&format!("analyzer.phase_occupancy.{}", phase.id))
                    .set(phase.occupancy as f64);
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
            // Publish while the analyzer lock is still held so phase
            // reports from successive seals can never swap out of order.
            runtime.publish_phases(report.to_json());
            drop(analyzer);
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
    let profile = live.into_inner().finish();
    options.publish_run_gauges(&job_runtime.registry, &report, &profile, baseline_wall);

    std::fs::create_dir_all(&dir).map_err(|err| format!("output dir: {err}"))?;
    let file =
        std::fs::File::create(dir.join("profile.json")).map_err(|err| format!("profile: {err}"))?;
    profile
        .save_json(file)
        .map_err(|err| format!("profile: {err}"))?;
    let scrape = to_prometheus_labeled(
        &job_runtime.registry.snapshot(),
        &[
            ("job", spec.id.as_str()),
            ("tenant", job_runtime.tenant.as_str()),
            ("workload", job_runtime.workload.as_str()),
        ],
    );
    std::fs::write(dir.join("metrics.prom"), scrape).map_err(|err| format!("scrape: {err}"))?;
    // Final publish: the registry is quiescent after finish(), so from
    // here on every scrape of this job serves its settled end state.
    let final_phases = job_runtime
        .streaming
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .report()
        .to_json();
    job_runtime.publish_phases(final_phases);
    job_runtime.publish_metrics();
    Ok(report.steps_completed)
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
    fleet: Arc<Fleet>,
    shared: Arc<FleetShared>,
    quit: Arc<AtomicBool>,
    sigint: bool,
    publisher_stop: Arc<AtomicBool>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FleetSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("addr", &self.server.local_addr())
            .field("fleet", &self.fleet)
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
        submit_job(&self.shared, &self.fleet, request)
    }

    /// The current view of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.fleet.status(id)
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.fleet.list()
    }

    /// Requests cancellation: a queued job exits immediately, a running
    /// one drains gracefully. Returns the phase after the request.
    pub fn cancel(&self, id: &str) -> Option<JobPhase> {
        self.fleet.cancel(id)
    }

    /// Active (queued or running) jobs.
    pub fn active_count(&self) -> usize {
        self.fleet.active_count()
    }

    /// Blocks until every admitted job settles, without shutting the
    /// scrape plane down — new submissions are still admitted after.
    pub fn wait_jobs_idle(&self) {
        self.fleet.wait_idle();
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
        self.quit.store(true, Ordering::SeqCst);
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
        let settled = |id: &str| self.fleet.status(id).is_none_or(|s| s.phase.is_terminal());
        while !self.quit.load(Ordering::SeqCst) && !job.is_some_and(settled) {
            if self.sigint && sigint::hit() {
                self.quit.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.fleet.drain();
        // Stop the cadence publisher before the final scrape: every job
        // already published its settled end state from its own thread.
        self.publisher_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.publisher.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        let scrape = self.shared.render_metrics();
        std::fs::create_dir_all(&self.shared.root)?;
        std::fs::write(self.shared.root.join("metrics.prom"), scrape)?;
        // The scrape just cached this merge; nothing republishes after a
        // drain, so this is a cache hit.
        let job_metrics = self
            .shared
            .fleet_aggregate(&self.shared.published())
            .map(|merged| (*merged).clone())
            .unwrap_or_default();
        Ok(FleetOutcome {
            jobs: self.fleet.list(),
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

/// Creates the per-job registry + runtime entry, then admits the spec.
/// The side entry is inserted first (the runner may start instantly) and
/// rolled back if admission refuses.
fn submit_job(
    shared: &Arc<FleetShared>,
    fleet: &Fleet,
    request: FleetJobRequest,
) -> Result<String, AdmitError> {
    let id = match request.id {
        Some(id) => id,
        None => loop {
            let n = shared.auto_id.fetch_add(1, Ordering::SeqCst);
            let candidate = format!("job-{n}");
            if !shared
                .jobs
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .contains_key(&candidate)
            {
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
    let initial_phases = StreamingAnalyzer::new(StreamingConfig::default())
        .report()
        .to_json();
    let runtime = Arc::new(JobRuntime {
        published_metrics: Mutex::new(Arc::new(registry.snapshot())),
        published_phases: Mutex::new(Arc::new(initial_phases)),
        publish_version: AtomicU64::new(0),
        registry,
        tenant: request.tenant.clone(),
        workload: request.config.model.clone(),
        streaming: Arc::new(Mutex::new(StreamingAnalyzer::new(
            StreamingConfig::default(),
        ))),
        store_fault: (request.store_fault_prob, request.store_fault_seed),
        high_water,
        max_spill,
    });
    {
        // Checked here, under the side-table lock, so a duplicate id can
        // never overwrite (and then roll back) the original's runtime.
        let mut jobs = shared
            .jobs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if jobs.contains_key(&id) {
            return Err(AdmitError::Duplicate(id));
        }
        jobs.insert(id.clone(), runtime);
    }
    let spec = JobSpec {
        id: id.clone(),
        tenant: request.tenant,
        config: request.config,
        pace_us: request.pace_us.unwrap_or(shared.options.serve_pace_us),
    };
    match fleet.submit(spec) {
        Ok(()) => Ok(id),
        Err(err) => {
            shared
                .jobs
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .remove(&id);
            Err(err)
        }
    }
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

fn job_status_json(status: &JobStatus) -> String {
    format!(
        concat!(
            "{{\"id\": {:?}, \"tenant\": {:?}, \"phase\": {:?}, ",
            "\"step\": {}, \"ols_phase\": {}, \"checkpoints\": {}, ",
            "\"stream_phases\": {}, \"stream_stable_for\": {}, ",
            "\"steps_completed\": {}, \"error\": {}}}"
        ),
        status.id,
        status.tenant,
        status.phase.as_str(),
        status.step,
        status.ols_phase,
        status.checkpoints,
        status.stream_phases,
        status.stream_stable_for,
        status.steps_completed,
        status
            .error
            .as_deref()
            .map(|e| format!("{e:?}"))
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

/// Routes the `/jobs` control API; returns `None` for paths the built-in
/// table should keep handling.
fn route_jobs(
    shared: &Arc<FleetShared>,
    fleet: &Arc<Fleet>,
    request: &Request,
) -> Option<Response> {
    if request.path == "/jobs" {
        return Some(match request.method.as_str() {
            "GET" => Response::json(jobs_json(&fleet.list())),
            "POST" => match parse_job_request(&request.body) {
                Ok(job) => match submit_job(shared, fleet, job) {
                    Ok(id) => Response::json_status(
                        201,
                        format!("{{\"id\": {id:?}, \"phase\": \"queued\"}}\n"),
                    ),
                    Err(err) => Response::json_status(
                        admit_status(&err),
                        format!("{{\"error\": {:?}}}\n", err.to_string()),
                    ),
                },
                Err(err) => Response::json_status(400, format!("{{\"error\": {err:?}}}\n")),
            },
            _ => Response::text(405, "method not allowed\n"),
        });
    }
    let id = request.path.strip_prefix("/jobs/")?;
    if let Some(id) = id.strip_suffix("/phases") {
        // Published slot only: a wedged analyzer cannot stall this route.
        let job = shared
            .jobs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(id)
            .cloned();
        return Some(match job {
            Some(job) => Response::json(job.phases_view().as_str().to_owned()),
            None => Response::json_status(404, format!("{{\"error\": \"no job {id:?}\"}}\n")),
        });
    }
    Some(match request.method.as_str() {
        "GET" => match fleet.status(id) {
            Some(status) => Response::json(format!("{}\n", job_status_json(&status))),
            None => Response::json_status(404, format!("{{\"error\": \"no job {id:?}\"}}\n")),
        },
        "DELETE" => match fleet.cancel(id) {
            Some(phase) => Response::json(format!(
                "{{\"id\": {id:?}, \"phase\": {:?}}}\n",
                phase.as_str()
            )),
            None => Response::json_status(404, format!("{{\"error\": \"no job {id:?}\"}}\n")),
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

        let shared = Arc::new(FleetShared {
            options: options.clone(),
            root,
            jobs: Mutex::new(BTreeMap::new()),
            auto_id: AtomicU64::new(0),
            aggregate: Mutex::new(None),
        });
        // Coarse-cadence publisher: refreshes every job's published
        // metrics between seal points, so idle or slow-sealing jobs still
        // converge on /metrics within ~200 ms. Phases republish only at
        // seals (the analyzer state only changes there).
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
                        for (_, job) in shared.job_list() {
                            job.publish_metrics();
                        }
                    }
                })?
        };
        let runner_shared = Arc::clone(&shared);
        let fleet = Arc::new(Fleet::new(
            options.fleet_limits,
            Box::new(move |spec: &JobSpec, ctl: &JobControl| {
                run_fleet_job(&runner_shared, spec, ctl)
            }),
        ));
        let quit = Arc::new(AtomicBool::new(false));

        let metrics_shared = Arc::clone(&shared);
        let health_shared = Arc::clone(&shared);
        let phases_shared = Arc::clone(&shared);
        let status_fleet = Arc::clone(&fleet);
        let route_shared = Arc::clone(&shared);
        let route_fleet = Arc::clone(&fleet);
        let hook_quit = Arc::clone(&quit);
        let server = MetricsServer::bind(
            &listen,
            ServeHooks {
                metrics: Box::new(move || metrics_shared.render_metrics()),
                health: Box::new(move || health_shared.render_health()),
                status: Box::new(move || {
                    let statuses = status_fleet.list();
                    let count =
                        |phase: JobPhase| statuses.iter().filter(|s| s.phase == phase).count();
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
                }),
                phases: Box::new(move || phases_shared.render_phases()),
                quit: Box::new(move || hook_quit.store(true, Ordering::SeqCst)),
                route: Some(Box::new(move |request: &Request| {
                    route_jobs(&route_shared, &route_fleet, request)
                })),
            },
        )?;

        Ok(FleetSession {
            server,
            fleet,
            shared,
            quit,
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
        assert!(root.join("jobs/demo-a/profile.json").exists());

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
        // A refused submission leaves no runtime entry behind.
        assert_eq!(session.shared.jobs.lock().unwrap().len(), 1);
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
        let id = session
            .submit(FleetJobRequest::new(JobConfig::demo()).id("wedge"))
            .expect("admits");
        session.wait_jobs_idle();

        // Wedge the job's analyzer: a thread grabs its streaming lock and
        // sits on it, as if an observe_seal were stuck mid-update.
        let job = Arc::clone(session.shared.jobs.lock().unwrap().get(&id).unwrap());
        let release = Arc::new(AtomicBool::new(false));
        let wedge = {
            let job = Arc::clone(&job);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = job.streaming.lock().unwrap();
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        while job.streaming.try_lock().is_ok() {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Every scrape-plane route must answer from published snapshots,
        // far faster than any wedge-release path could explain.
        let bound = Duration::from_secs(2);
        for path in ["/metrics", "/healthz", "/phases", "/jobs/wedge/phases"] {
            let start = std::time::Instant::now();
            let response = get(addr, path);
            let elapsed = start.elapsed();
            assert!(
                elapsed < bound,
                "{path} took {elapsed:?} with a wedged streaming lock"
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

        release.store(true, Ordering::SeqCst);
        wedge.join().unwrap();
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_poisoned_streaming_lock_still_serves_phases() {
        let root = temp_root("poisoned");
        let _ = std::fs::remove_dir_all(&root);
        // One running slot: "victim" waits in the queue behind "blocker",
        // so its streaming lock is poisoned before its first update.
        let session = builder_at(&root)
            .fleet_limits(tpupoint_runtime::FleetLimits {
                max_running: 1,
                ..tpupoint_runtime::FleetLimits::default()
            })
            .build()
            .serve_fleet()
            .expect("fleet starts");
        session
            .submit(
                FleetJobRequest::new(JobConfig::demo())
                    .id("blocker")
                    .pace_us(100_000),
            )
            .expect("admits blocker");
        session
            .submit(FleetJobRequest::new(bert_mrpc()).id("victim"))
            .expect("admits victim");
        assert_eq!(session.status("victim").unwrap().phase, JobPhase::Queued);
        let victim = Arc::clone(session.shared.jobs.lock().unwrap().get("victim").unwrap());
        let holder = Arc::clone(&victim.streaming);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("update panicked mid-way");
        })
        .join();
        assert!(panicked.is_err());
        assert!(victim.streaming.is_poisoned());
        session.cancel("blocker");
        session.wait_jobs_idle();

        let status = session.status("victim").unwrap();
        assert_eq!(status.phase, JobPhase::Completed, "{:?}", status.error);
        assert!(status.stream_phases > 0, "updates ran past the poison");
        for path in ["/phases", "/jobs/victim/phases"] {
            let response = get(session.addr(), path);
            assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
            assert!(response.contains("\"id\": 0"), "{path}: {response}");
        }
        session.request_quit();
        session.wait().expect("drains");
        std::fs::remove_dir_all(&root).unwrap();
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
