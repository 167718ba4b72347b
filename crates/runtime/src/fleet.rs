//! The in-process job fleet: admission control, per-tenant quotas, and a
//! create/cancel/status lifecycle over concurrent training jobs.
//!
//! The paper's profiler is a cloud service — many tenants' jobs run at
//! once while TPUPoint characterizes each one live. [`Fleet`] reproduces
//! the TPU-fleet-manager shape (create/delete/status lifecycle calls) as
//! an in-process orchestrator:
//!
//! * **Admission control.** [`Fleet::submit`] validates the job id,
//!   bounds the pending queue ([`FleetLimits::max_queued`]), and enforces
//!   a per-tenant cap on active (queued + running) jobs
//!   ([`FleetLimits::per_tenant_active`]); over-quota submissions are
//!   rejected as backpressure, not queued unboundedly.
//! * **Bounded concurrency.** At most [`FleetLimits::max_running`] jobs
//!   run at once, each on a dedicated `tpupoint-job-<id>` thread (the
//!   recording thread paces on wall clock, so parking it on a shared
//!   `tpupoint-par` worker would starve the pool; the jobs' window
//!   *sealing* work still drains on the shared pool through each job's
//!   [`SealPipeline`](../../tpupoint_profiler/pipeline/index.html)).
//! * **Graceful cancel.** [`Fleet::cancel`] removes a queued job
//!   outright; a running job gets its quit flag set, which cancels only
//!   the live pacing — the run rushes to completion at batch speed and
//!   seals its store, so a cancelled job's records are still complete.
//!
//! * **One job table.** Each entry holds the job's spec, phase, control
//!   handles and a caller-defined state `T` (the serving layer's registry
//!   and published snapshots). [`Fleet::submit`] admits both under one
//!   lock, so a refused job is never visible in [`Fleet::jobs`].
//!
//! The fleet knows nothing about profilers or stores: jobs are executed
//! by a caller-supplied [`JobRunner`], keeping this crate free of
//! profiler dependencies (the dependency arrow points the other way).

use crate::config::JobConfig;
use crate::live::LiveStatus;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Job id reserved for the fleet-wide aggregate series on `/metrics`;
/// admitting a job under it would collide with those labels.
pub const AGGREGATE_JOB_ID: &str = "fleet";

/// Resident-memory floor charged per active job by admission accounting:
/// the irreducible window/analyzer/reservoir state a job holds even with
/// its seal-queue and spill caps squeezed to their minimums. The
/// [`FleetLimits::memory_budget_bytes`] admission check and the
/// `fleet.memory_inuse_bytes` gauge both count in units of this floor;
/// the *variable* part of a job's footprint (queue depths) is sized down
/// separately from the same budget by the serving layer.
pub const JOB_MEMORY_FLOOR_BYTES: u64 = 32 * 1024 * 1024;

/// Admission and concurrency bounds of a [`Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetLimits {
    /// Jobs running concurrently.
    pub max_running: usize,
    /// Jobs waiting in the admission queue.
    pub max_queued: usize,
    /// Active (queued + running) jobs any one tenant may hold.
    pub per_tenant_active: usize,
    /// Fleet-wide memory budget in bytes; `0` (the default) is
    /// unbounded. Admission is shed ([`AdmitError::MemoryBudget`]) once
    /// one more active job would push the fleet past the budget at
    /// [`JOB_MEMORY_FLOOR_BYTES`] per job, and the serving layer sizes
    /// each job's seal-queue high-water and spill caps from the same
    /// budget divided by the admitted-job count.
    pub memory_budget_bytes: u64,
}

impl Default for FleetLimits {
    fn default() -> Self {
        FleetLimits {
            max_running: 4,
            max_queued: 64,
            per_tenant_active: 8,
            memory_budget_bytes: 0,
        }
    }
}

/// One job submission: identity plus the training configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique fleet-wide id; lowercase alphanumerics, `-`, `_`, `.`.
    pub id: String,
    /// Owning tenant, for quota accounting and health attribution.
    pub tenant: String,
    /// The training job to simulate.
    pub config: JobConfig,
    /// Wall-clock pacing per recorded step, microseconds (0 = batch
    /// speed).
    pub pace_us: u64,
}

/// Lifecycle phase of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a running slot.
    Queued,
    /// Executing on its job thread.
    Running,
    /// Cancel requested while running: pacing is off, the run is rushing
    /// to completion and sealing its records.
    Draining,
    /// Finished cleanly.
    Completed,
    /// The runner returned an error.
    Failed,
    /// Cancelled (from the queue, or after a drain).
    Cancelled,
}

impl JobPhase {
    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Failed | JobPhase::Cancelled
        )
    }

    /// Stable lowercase name, used in the `/jobs` API.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Draining => "draining",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Handles a [`JobRunner`] uses to cooperate with the fleet: publish
/// progress into `status`, and treat `quit` as a graceful stop (stop
/// pacing, rush to completion, seal). A runner may set `quit` itself to
/// end its own pacing early; only [`Fleet::cancel`] marks a job
/// [`JobPhase::Cancelled`].
#[derive(Debug, Clone)]
pub struct JobControl {
    /// Cooperative cancel flag; set by [`Fleet::cancel`] and
    /// [`Fleet::drain`].
    pub quit: Arc<AtomicBool>,
    /// Live progress the fleet reports from [`Fleet::status`].
    pub status: Arc<LiveStatus>,
}

impl JobControl {
    fn new() -> JobControl {
        JobControl {
            quit: Arc::new(AtomicBool::new(false)),
            status: LiveStatus::new(),
        }
    }
}

/// Point-in-time view of one job, as returned by [`Fleet::status`] /
/// [`Fleet::list`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's id.
    pub id: String,
    /// The owning tenant.
    pub tenant: String,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Latest recorded training step.
    pub step: u64,
    /// The live sink's online OLS phase index (0-based; one per phase
    /// boundary detected so far).
    pub ols_phase: u64,
    /// Checkpoints written so far.
    pub checkpoints: u64,
    /// Phases the streaming analyzer currently distinguishes.
    pub stream_phases: u64,
    /// Consecutive streaming-analyzer updates whose phase assignments
    /// held stable.
    pub stream_stable_for: u64,
    /// Steps completed, once terminal.
    pub steps_completed: u64,
    /// The runner's error, when `phase` is [`JobPhase::Failed`].
    pub error: Option<String>,
}

/// Executes one admitted job. Implementations run on a dedicated
/// `tpupoint-job-<id>` thread and must honor `ctl.quit` as a graceful
/// drain request. Returns the number of steps completed.
pub trait JobRunner<T>: Send + Sync + 'static {
    /// Runs `spec` to completion (or drained cancellation). `state` is
    /// the job's entry in the fleet's table, as passed to
    /// [`Fleet::submit`]; it comes as an `Arc` so the runner can hand it
    /// to callbacks that outlive this borrow.
    ///
    /// # Errors
    ///
    /// A human-readable description of why the job failed.
    fn run(&self, spec: &JobSpec, ctl: &JobControl, state: &Arc<T>) -> Result<u64, String>;
}

impl<T, F> JobRunner<T> for F
where
    F: Fn(&JobSpec, &JobControl, &Arc<T>) -> Result<u64, String> + Send + Sync + 'static,
{
    fn run(&self, spec: &JobSpec, ctl: &JobControl, state: &Arc<T>) -> Result<u64, String> {
        self(spec, ctl, state)
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The id is empty, too long, uses a bad character, or is reserved.
    InvalidId(String),
    /// A job with this id already exists (ids are never reused).
    Duplicate(String),
    /// The admission queue is at [`FleetLimits::max_queued`].
    Saturated {
        /// Jobs currently queued.
        queued: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The tenant is at [`FleetLimits::per_tenant_active`] active jobs.
    TenantQuota {
        /// The over-quota tenant.
        tenant: String,
        /// The configured bound.
        limit: usize,
    },
    /// One more active job would exceed
    /// [`FleetLimits::memory_budget_bytes`] at the
    /// [`JOB_MEMORY_FLOOR_BYTES`] accounting floor.
    MemoryBudget {
        /// Active (queued + running) jobs already admitted.
        active: usize,
        /// The configured budget, bytes.
        budget_bytes: u64,
    },
    /// The fleet is draining and admits nothing new.
    Closed,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::InvalidId(id) => write!(
                f,
                "invalid job id {id:?}: use 1-64 of [a-z0-9._-], not the reserved {AGGREGATE_JOB_ID:?}"
            ),
            AdmitError::Duplicate(id) => write!(f, "job id {id:?} already exists"),
            AdmitError::Saturated { queued, limit } => {
                write!(f, "admission queue full ({queued}/{limit})")
            }
            AdmitError::TenantQuota { tenant, limit } => {
                write!(f, "tenant {tenant:?} is at its quota of {limit} active jobs")
            }
            AdmitError::MemoryBudget {
                active,
                budget_bytes,
            } => write!(
                f,
                "fleet memory budget exhausted: one more job past {active} active would exceed \
                 {budget_bytes} bytes at the {JOB_MEMORY_FLOOR_BYTES}-byte per-job floor"
            ),
            AdmitError::Closed => f.write_str("fleet is draining; no new jobs admitted"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Validates a fleet job id: 1-64 chars of `[a-z0-9._-]`, not reserved.
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id != AGGREGATE_JOB_ID
        && id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '-' | '_' | '.'))
}

struct JobEntry<T> {
    spec: JobSpec,
    phase: JobPhase,
    ctl: JobControl,
    state: Arc<T>,
    steps_completed: u64,
    error: Option<String>,
}

impl<T> JobEntry<T> {
    fn status(&self) -> JobStatus {
        let live = &self.ctl.status;
        JobStatus {
            id: self.spec.id.clone(),
            tenant: self.spec.tenant.clone(),
            phase: self.phase,
            step: live.current_step(),
            ols_phase: live.ols_phase(),
            checkpoints: live.checkpoints(),
            stream_phases: live.stream_phases(),
            stream_stable_for: live.stream_stable_for(),
            steps_completed: self.steps_completed,
            error: self.error.clone(),
        }
    }
}

struct FleetState<T> {
    jobs: BTreeMap<String, JobEntry<T>>,
    /// Admitted, not yet dispatched, FIFO.
    queue: VecDeque<String>,
    running: usize,
    closed: bool,
    handles: Vec<JoinHandle<()>>,
}

struct FleetInner<T> {
    limits: FleetLimits,
    runner: Box<dyn JobRunner<T>>,
    state: Mutex<FleetState<T>>,
    /// Signalled on every terminal transition (and queue removal).
    settled: Condvar,
}

impl<T> FleetInner<T> {
    /// Locks the fleet state, recovering from poisoning: a panic inside a
    /// holder (a buggy runner unwinding through `settle`, say) must not
    /// take the whole control API down with it — every field the lock
    /// guards is kept valid at each await point, so the recovered view is
    /// safe to keep serving. Each recovery is counted on the process-wide
    /// `fleet.poisoned` counter.
    fn state(&self) -> MutexGuard<'_, FleetState<T>> {
        self.state.lock().unwrap_or_else(|poisoned| {
            tpupoint_obs::metrics().counter("fleet.poisoned").inc();
            poisoned.into_inner()
        })
    }
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers practically every real panic).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// The job orchestrator; see the module docs. `T` is the per-job state
/// each entry of the job table carries.
pub struct Fleet<T> {
    inner: Arc<FleetInner<T>>,
}

impl<T> fmt::Debug for Fleet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state();
        f.debug_struct("Fleet")
            .field("jobs", &state.jobs.len())
            .field("queued", &state.queue.len())
            .field("running", &state.running)
            .field("closed", &state.closed)
            .finish()
    }
}

impl<T: Send + Sync + 'static> Fleet<T> {
    /// Creates a fleet executing jobs through `runner`.
    pub fn new(limits: FleetLimits, runner: Box<dyn JobRunner<T>>) -> Fleet<T> {
        let fleet = Fleet {
            inner: Arc::new(FleetInner {
                limits,
                runner,
                state: Mutex::new(FleetState {
                    jobs: BTreeMap::new(),
                    queue: VecDeque::new(),
                    running: 0,
                    closed: false,
                    handles: Vec::new(),
                }),
                settled: Condvar::new(),
            }),
        };
        // Publish the configured bounds immediately: the budget gauge
        // must be scrapeable before the first submission arrives.
        let state = fleet.inner.state();
        fleet.publish_gauges(&state);
        drop(state);
        fleet
    }

    /// Admits `spec` with its per-job state `job`, queueing it for
    /// dispatch.
    /// Both enter the job table together under the state lock, so a
    /// refused submission never appears in [`Fleet::jobs`].
    ///
    /// # Errors
    ///
    /// Refuses over-quota, duplicate, invalid, or post-drain submissions;
    /// see [`AdmitError`].
    pub fn submit(&self, spec: JobSpec, job: T) -> Result<(), AdmitError> {
        let mut state = self.inner.state();
        if state.closed {
            return Err(AdmitError::Closed);
        }
        if !valid_job_id(&spec.id) {
            return Err(AdmitError::InvalidId(spec.id));
        }
        if state.jobs.contains_key(&spec.id) {
            return Err(AdmitError::Duplicate(spec.id));
        }
        if state.queue.len() >= self.inner.limits.max_queued {
            return Err(AdmitError::Saturated {
                queued: state.queue.len(),
                limit: self.inner.limits.max_queued,
            });
        }
        let active = state
            .jobs
            .values()
            .filter(|j| j.spec.tenant == spec.tenant && !j.phase.is_terminal())
            .count();
        if active >= self.inner.limits.per_tenant_active {
            return Err(AdmitError::TenantQuota {
                tenant: spec.tenant,
                limit: self.inner.limits.per_tenant_active,
            });
        }
        let budget = self.inner.limits.memory_budget_bytes;
        if budget > 0 {
            let active_total = state
                .jobs
                .values()
                .filter(|j| !j.phase.is_terminal())
                .count();
            if (active_total as u64 + 1) * JOB_MEMORY_FLOOR_BYTES > budget {
                return Err(AdmitError::MemoryBudget {
                    active: active_total,
                    budget_bytes: budget,
                });
            }
        }
        let id = spec.id.clone();
        state.jobs.insert(
            id.clone(),
            JobEntry {
                spec,
                phase: JobPhase::Queued,
                ctl: JobControl::new(),
                state: Arc::new(job),
                steps_completed: 0,
                error: None,
            },
        );
        state.queue.push_back(id);
        self.pump(&mut state);
        self.publish_gauges(&state);
        Ok(())
    }

    /// Requests cancellation. A queued job leaves the queue immediately;
    /// a running job drains gracefully (pacing off, records sealed).
    /// Returns the phase after the request, or `None` for an unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobPhase> {
        let mut state = self.inner.state();
        let entry = state.jobs.get_mut(id)?;
        match entry.phase {
            JobPhase::Queued => {
                entry.phase = JobPhase::Cancelled;
                state.queue.retain(|queued| queued != id);
                self.inner.settled.notify_all();
            }
            JobPhase::Running | JobPhase::Draining => {
                entry.phase = JobPhase::Draining;
                entry.ctl.quit.store(true, Ordering::SeqCst);
            }
            _ => {}
        }
        let phase = state.jobs[id].phase;
        self.publish_gauges(&state);
        Some(phase)
    }

    /// The current view of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let state = self.inner.state();
        state.jobs.get(id).map(JobEntry::status)
    }

    /// All jobs, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.inner.state();
        state.jobs.values().map(JobEntry::status).collect()
    }

    /// Every job's id, phase and state, in id order. The state lock is
    /// held only for the clone, never across per-job work.
    pub fn jobs(&self) -> Vec<(String, JobPhase, Arc<T>)> {
        let state = self.inner.state();
        state
            .jobs
            .iter()
            .map(|(id, job)| (id.clone(), job.phase, Arc::clone(&job.state)))
            .collect()
    }

    /// Active (non-terminal) jobs.
    pub fn active_count(&self) -> usize {
        let state = self.inner.state();
        state
            .jobs
            .values()
            .filter(|j| !j.phase.is_terminal())
            .count()
    }

    /// Blocks until every admitted job reaches a terminal phase.
    pub fn wait_idle(&self) {
        let mut state = self.inner.state();
        while state.jobs.values().any(|j| !j.phase.is_terminal()) {
            // The same poisoning recovery as `FleetInner::state`.
            state = self.inner.settled.wait(state).unwrap_or_else(|poisoned| {
                tpupoint_obs::metrics().counter("fleet.poisoned").inc();
                poisoned.into_inner()
            });
        }
        let handles = std::mem::take(&mut state.handles);
        drop(state);
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Stops admitting, cancels the queue, drains every running job
    /// gracefully, and waits for all of them to settle.
    pub fn drain(&self) {
        let ids: Vec<String> = {
            let mut state = self.inner.state();
            state.closed = true;
            state.jobs.keys().cloned().collect()
        };
        for id in ids {
            self.cancel(&id);
        }
        self.wait_idle();
    }

    /// Dispatches queued jobs into free running slots. Caller holds the
    /// state lock.
    fn pump(&self, state: &mut FleetState<T>) {
        while state.running < self.inner.limits.max_running {
            let Some(id) = state.queue.pop_front() else {
                break;
            };
            // A queue id without a job entry is stale: skip it rather
            // than panic with the state lock held.
            let Some(entry) = state.jobs.get_mut(&id) else {
                continue;
            };
            entry.phase = JobPhase::Running;
            state.running += 1;
            let spec = entry.spec.clone();
            let ctl = entry.ctl.clone();
            let job_state = Arc::clone(&entry.state);
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("tpupoint-job-{id}"))
                .spawn(move || {
                    // A panicking runner must neither skip `settle` (which
                    // would leak the running slot and hang `wait_idle`
                    // forever) nor unwind the thread with fleet locks in
                    // scope: the unwind is caught here and settled as a
                    // plain job failure.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        inner.runner.run(&spec, &ctl, &job_state)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(format!("panicked: {}", panic_message(payload.as_ref())))
                    });
                    inner.settle(&spec.id, result);
                });
            match spawned {
                Ok(handle) => state.handles.push(handle),
                Err(err) => {
                    // Thread spawn failed (fd/memory pressure): the job
                    // fails without ever running.
                    entry.phase = JobPhase::Failed;
                    entry.error = Some(format!("spawn: {err}"));
                    state.running -= 1;
                    self.inner.settled.notify_all();
                }
            }
        }
    }

    /// Publishes fleet-level occupancy gauges into the process-wide
    /// registry (fleet series are fleet-scoped by design; per-job series
    /// live in each job's own registry).
    fn publish_gauges(&self, state: &FleetState<T>) {
        let metrics = tpupoint_obs::metrics();
        metrics
            .gauge("fleet.jobs_running")
            .set(state.running as f64);
        metrics
            .gauge("fleet.jobs_queued")
            .set(state.queue.len() as f64);
        metrics
            .gauge("fleet.jobs_total")
            .set(state.jobs.len() as f64);
        let active = state
            .jobs
            .values()
            .filter(|j| !j.phase.is_terminal())
            .count();
        metrics
            .gauge("fleet.memory_budget_bytes")
            .set(self.inner.limits.memory_budget_bytes as f64);
        metrics
            .gauge("fleet.memory_inuse_bytes")
            .set((active as u64 * JOB_MEMORY_FLOOR_BYTES) as f64);
    }
}

impl<T: Send + Sync + 'static> FleetInner<T> {
    /// Records a finished run and dispatches the next queued job.
    fn settle(self: &Arc<Self>, id: &str, result: Result<u64, String>) {
        let mut state = self.state();
        if let Some(entry) = state.jobs.get_mut(id) {
            match result {
                Ok(steps) => {
                    entry.steps_completed = steps;
                    // A drained job lands in Cancelled even though the
                    // runner returned cleanly: the *request* was cancel.
                    entry.phase = if entry.phase == JobPhase::Draining {
                        JobPhase::Cancelled
                    } else {
                        JobPhase::Completed
                    };
                }
                Err(err) => {
                    entry.phase = JobPhase::Failed;
                    entry.error = Some(err);
                }
            }
        }
        state.running = state.running.saturating_sub(1);
        let fleet = Fleet {
            inner: Arc::clone(self),
        };
        fleet.pump(&mut state);
        fleet.publish_gauges(&state);
        self.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn spec(id: &str, tenant: &str) -> JobSpec {
        JobSpec {
            id: id.to_owned(),
            tenant: tenant.to_owned(),
            config: JobConfig::demo(),
            pace_us: 0,
        }
    }

    /// A runner that parks until its quit flag (or a bounded timeout) and
    /// reports how many jobs ran concurrently at peak.
    struct ParkingRunner {
        concurrent: AtomicUsize,
        peak: AtomicUsize,
    }

    impl JobRunner<()> for Arc<ParkingRunner> {
        fn run(&self, _spec: &JobSpec, ctl: &JobControl, _: &Arc<()>) -> Result<u64, String> {
            let now = self.concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            for _ in 0..2000 {
                if ctl.quit.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            self.concurrent.fetch_sub(1, Ordering::SeqCst);
            Ok(7)
        }
    }

    #[test]
    fn admission_enforces_ids_queue_and_tenant_quotas() {
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 1,
                max_queued: 2,
                per_tenant_active: 2,
                ..FleetLimits::default()
            },
            Box::new(|_: &JobSpec, _: &JobControl, _: &Arc<()>| Ok(0u64)),
        );
        assert!(matches!(
            fleet.submit(spec("", "a"), ()),
            Err(AdmitError::InvalidId(_))
        ));
        assert!(matches!(
            fleet.submit(spec("Bad/Id", "a"), ()),
            Err(AdmitError::InvalidId(_))
        ));
        assert!(matches!(
            fleet.submit(spec(AGGREGATE_JOB_ID, "a"), ()),
            Err(AdmitError::InvalidId(_))
        ));
        fleet.submit(spec("job-1", "a"), ()).unwrap();
        assert!(matches!(
            fleet.submit(spec("job-1", "b"), ()),
            Err(AdmitError::Duplicate(_))
        ));
        fleet.wait_idle();
        // Quota counts only *active* jobs: finished ones free the slot.
        fleet.submit(spec("job-2", "a"), ()).unwrap();
        fleet.submit(spec("job-3", "a"), ()).unwrap();
        fleet.wait_idle();
        assert_eq!(fleet.list().len(), 3);
        assert!(fleet.list().iter().all(|j| j.phase == JobPhase::Completed));
    }

    #[test]
    fn tenant_quota_rejects_active_overflow() {
        let runner = Arc::new(ParkingRunner {
            concurrent: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 1,
                max_queued: 8,
                per_tenant_active: 2,
                ..FleetLimits::default()
            },
            Box::new(Arc::clone(&runner)),
        );
        fleet.submit(spec("a-1", "a"), ()).unwrap();
        fleet.submit(spec("a-2", "a"), ()).unwrap();
        assert!(matches!(
            fleet.submit(spec("a-3", "a"), ()),
            Err(AdmitError::TenantQuota { .. })
        ));
        // Another tenant is unaffected.
        fleet.submit(spec("b-1", "b"), ()).unwrap();
        fleet.drain();
        assert!(matches!(
            fleet.submit(spec("late", "a"), ()),
            Err(AdmitError::Closed)
        ));
    }

    #[test]
    fn max_running_bounds_concurrency_and_cancel_drains() {
        let runner = Arc::new(ParkingRunner {
            concurrent: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 2,
                max_queued: 16,
                per_tenant_active: 16,
                ..FleetLimits::default()
            },
            Box::new(Arc::clone(&runner)),
        );
        for i in 0..4 {
            fleet.submit(spec(&format!("job-{i}"), "t"), ()).unwrap();
        }
        // Two dispatch, two queue.
        assert_eq!(fleet.status("job-2").unwrap().phase, JobPhase::Queued);
        // Cancelling a queued job removes it without running.
        assert_eq!(fleet.cancel("job-3"), Some(JobPhase::Cancelled));
        // Cancelling a running job requests a graceful drain.
        let drained = fleet.cancel("job-0").unwrap();
        assert!(matches!(drained, JobPhase::Draining), "{drained:?}");
        fleet.drain();
        assert!(runner.peak.load(Ordering::SeqCst) <= 2);
        let by_id = |id: &str| fleet.status(id).unwrap();
        assert_eq!(by_id("job-0").phase, JobPhase::Cancelled);
        assert_eq!(by_id("job-3").phase, JobPhase::Cancelled);
        assert_eq!(by_id("job-3").steps_completed, 0);
        // Drained jobs still report the steps their rushed run completed.
        assert_eq!(by_id("job-0").steps_completed, 7);
        assert_eq!(fleet.cancel("missing"), None);
    }

    #[test]
    fn pump_skips_a_queued_id_without_a_job() {
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 1,
                ..FleetLimits::default()
            },
            Box::new(|_: &JobSpec, _: &JobControl, _: &Arc<()>| Ok(3u64)),
        );
        {
            let mut state = fleet.inner.state();
            state.queue.push_back("ghost".to_owned());
            fleet.pump(&mut state);
            assert!(state.queue.is_empty());
            assert_eq!(state.running, 0);
            assert!(!state.jobs.contains_key("ghost"));
        }
        // The stale id cost no running slot: the next job still runs.
        fleet.submit(spec("real", "t"), ()).unwrap();
        fleet.wait_idle();
        let real = fleet.status("real").unwrap();
        assert_eq!(real.phase, JobPhase::Completed);
        assert_eq!(real.steps_completed, 3);
        assert!(fleet.status("ghost").is_none());
    }

    #[test]
    fn failed_runner_surfaces_its_error() {
        let fleet = Fleet::new(
            FleetLimits::default(),
            Box::new(|spec: &JobSpec, _: &JobControl, _: &Arc<()>| {
                if spec.id.contains("bad") {
                    Err("boom".to_owned())
                } else {
                    Ok(1)
                }
            }),
        );
        fleet.submit(spec("good", "t"), ()).unwrap();
        fleet.submit(spec("bad-job", "t"), ()).unwrap();
        fleet.wait_idle();
        assert_eq!(fleet.status("good").unwrap().phase, JobPhase::Completed);
        let bad = fleet.status("bad-job").unwrap();
        assert_eq!(bad.phase, JobPhase::Failed);
        assert_eq!(bad.error.as_deref(), Some("boom"));
    }

    #[test]
    fn panicking_runner_fails_its_job_without_killing_the_fleet() {
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 1,
                max_queued: 8,
                per_tenant_active: 8,
                ..FleetLimits::default()
            },
            Box::new(|spec: &JobSpec, _: &JobControl, _: &Arc<()>| {
                if spec.id.contains("panic") {
                    panic!("runner exploded");
                }
                Ok(3)
            }),
        );
        fleet.submit(spec("panic-job", "t"), ()).unwrap();
        fleet.submit(spec("after", "t"), ()).unwrap();
        // With max_running = 1, `after` only ever dispatches if the
        // panicking job settled and released its running slot.
        fleet.wait_idle();
        let failed = fleet.status("panic-job").unwrap();
        assert_eq!(failed.phase, JobPhase::Failed);
        assert!(
            failed
                .error
                .as_deref()
                .unwrap()
                .contains("panicked: runner exploded"),
            "{:?}",
            failed.error
        );
        assert_eq!(fleet.status("after").unwrap().phase, JobPhase::Completed);
        // The control API is still alive for new work.
        fleet.submit(spec("next", "t"), ()).unwrap();
        fleet.wait_idle();
        assert_eq!(fleet.status("next").unwrap().phase, JobPhase::Completed);
    }

    #[test]
    fn poisoned_state_lock_recovers_and_counts() {
        let fleet = Fleet::new(
            FleetLimits::default(),
            Box::new(|_: &JobSpec, _: &JobControl, _: &Arc<()>| Ok(0u64)),
        );
        fleet.submit(spec("before", "t"), ()).unwrap();
        fleet.wait_idle();
        // Poison the state mutex the hard way: panic while holding it.
        let inner = Arc::clone(&fleet.inner);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.state.lock().unwrap();
            panic!("poisoning the fleet state");
        }));
        assert!(fleet.inner.state.is_poisoned());
        // Every lifecycle call keeps working on the recovered state.
        assert_eq!(fleet.list().len(), 1);
        assert_eq!(fleet.status("before").unwrap().phase, JobPhase::Completed);
        fleet.submit(spec("after-poison", "t"), ()).unwrap();
        fleet.wait_idle();
        assert_eq!(
            fleet.status("after-poison").unwrap().phase,
            JobPhase::Completed
        );
        let poisoned = tpupoint_obs::metrics()
            .snapshot()
            .counters
            .get("fleet.poisoned")
            .copied()
            .unwrap_or(0);
        assert!(poisoned >= 1, "recoveries must be counted, got {poisoned}");
    }

    #[test]
    fn memory_budget_sheds_admission_and_exports_gauges() {
        let runner = Arc::new(ParkingRunner {
            concurrent: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let fleet = Fleet::new(
            FleetLimits {
                max_running: 4,
                max_queued: 16,
                per_tenant_active: 16,
                memory_budget_bytes: 2 * JOB_MEMORY_FLOOR_BYTES,
            },
            Box::new(Arc::clone(&runner)),
        );
        fleet.submit(spec("m-1", "t"), ()).unwrap();
        fleet.submit(spec("m-2", "t"), ()).unwrap();
        let err = fleet.submit(spec("m-3", "t"), ()).unwrap_err();
        assert!(
            matches!(err, AdmitError::MemoryBudget { active: 2, .. }),
            "{err:?}"
        );
        // Budget accounting is exported (values race with concurrently
        // running tests' fleets on the process-global registry, so only
        // presence is asserted here; the serving-layer tests pin values).
        let gauges = tpupoint_obs::metrics().snapshot().gauges;
        assert!(gauges.contains_key("fleet.memory_budget_bytes"));
        assert!(gauges.contains_key("fleet.memory_inuse_bytes"));
        fleet.drain();
        // A settled fleet frees its quota: a fresh fleet under the same
        // budget admits again (terminal jobs release their share).
        assert!(matches!(
            fleet.submit(spec("late", "t"), ()),
            Err(AdmitError::Closed)
        ));
    }

    #[test]
    fn job_id_validation_rules() {
        assert!(valid_job_id("bert-mrpc.0_1"));
        assert!(!valid_job_id(""));
        assert!(!valid_job_id("UPPER"));
        assert!(!valid_job_id("sp ace"));
        assert!(!valid_job_id(AGGREGATE_JOB_ID));
        assert!(!valid_job_id(&"x".repeat(65)));
    }
}
