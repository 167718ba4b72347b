//! The seal lane: [`SealPipeline`] is the only route from the profiler
//! sink to its [`RecordStore`]. It runs in one of two modes, and the
//! caller's mode picks it:
//!
//! - **Inline** ([`SealPipeline::inline`], or any pipeline on a pool of
//!   one). Each operation is applied on the caller, straight from the
//!   borrowed record. Batch profiles seal this way: a batch run returns
//!   only after its store is sealed, so moving store latency off the
//!   simulation thread could not make it finish sooner.
//! - **Queued** ([`SealPipeline::new`] or [`SealPipeline::on_pool`] on a
//!   pool of two or more). Each operation is cloned into a bounded queue
//!   drained by `tpupoint-par` workers, so record encoding and storage
//!   writes happen off the recording thread. Served jobs seal this way:
//!   the paper's profiler runs as a background thread precisely so that
//!   collection does not perturb the training being measured.
//!
//! Three invariants make the two modes interchangeable:
//!
//! 1. **FIFO store order.** At most one drain task runs at a time, and it
//!    applies queued operations in submission order, so the store decorator
//!    chain (retry/fault/JSONL) observes the *identical* call sequence in
//!    both modes — sealed output is byte-identical and seeded fault
//!    scenarios replay exactly.
//! 2. **Bounded queue.** [`PipelineConfig::high_water`] caps in-flight
//!    operations; a producer hitting the cap blocks until the drainer
//!    catches up (counted by `profiler.seal_backpressure_waits`), so a slow
//!    store cannot buffer unbounded memory.
//! 3. **Drain barrier.** [`SealPipeline::wait_idle`] returns only when the
//!    queue is empty and no drain task is running, so a finished profile
//!    reflects every store result. Inline, the queue is always empty.
//!
//! Either way, store failures are kept in operation order until the sink
//! takes them ([`SealPipeline::take_errors`]).
//!
//! Observability: gauge `profiler.seal_queue_depth`, histogram
//! `profiler.seal_latency_us` (real wall time per applied operation, in
//! both modes), counter `profiler.seal_backpressure_waits`, and the drain
//! task's `span.profiler.seal_drain` spans appearing in each worker's
//! trace lane.

use crate::record::{RunRecord, StepRecord};
use crate::store::RecordStore;
use crate::window::WindowRecord;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning of the [`SealPipeline`] queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Backpressure threshold: submissions block while the queue holds
    /// this many operations.
    pub high_water: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { high_water: 256 }
    }
}

/// One store operation. The inline mode applies it from the caller's
/// borrows; only the queue owns one (`SealTask<'static>`).
enum SealTask<'a> {
    Window(Cow<'a, WindowRecord>),
    Step(Cow<'a, StepRecord>),
    Meta(Cow<'a, str>, Cow<'a, str>),
    Catalog {
        names: Cow<'a, [String]>,
        uses_mxu: Cow<'a, [bool]>,
        on_host: Cow<'a, [bool]>,
    },
    Run(Cow<'a, RunRecord>),
    Flush,
    Seal,
}

impl SealTask<'_> {
    /// The label store errors are reported under in the profile.
    fn what(&self) -> &'static str {
        match self {
            SealTask::Window(_) => "put_window",
            SealTask::Step(_) => "put_step",
            SealTask::Meta(..) => "set_meta",
            SealTask::Catalog { .. } => "set_catalog",
            SealTask::Run(_) => "put_run",
            SealTask::Flush => "flush",
            SealTask::Seal => "seal",
        }
    }

    /// The operation with every borrow cloned, ready to queue.
    fn into_owned(self) -> SealTask<'static> {
        fn own<T: ToOwned + ?Sized + 'static>(value: Cow<'_, T>) -> Cow<'static, T> {
            Cow::Owned(value.into_owned())
        }
        match self {
            SealTask::Window(window) => SealTask::Window(own(window)),
            SealTask::Step(step) => SealTask::Step(own(step)),
            SealTask::Meta(model, dataset) => SealTask::Meta(own(model), own(dataset)),
            SealTask::Catalog {
                names,
                uses_mxu,
                on_host,
            } => SealTask::Catalog {
                names: own(names),
                uses_mxu: own(uses_mxu),
                on_host: own(on_host),
            },
            SealTask::Run(run) => SealTask::Run(own(run)),
            SealTask::Flush => SealTask::Flush,
            SealTask::Seal => SealTask::Seal,
        }
    }

    fn apply(&self, store: &mut Box<dyn RecordStore + Send>) -> io::Result<()> {
        match self {
            SealTask::Window(window) => store.put_window(window),
            SealTask::Step(step) => store.put_step(step),
            SealTask::Meta(model, dataset) => {
                store.set_meta(model, dataset);
                Ok(())
            }
            SealTask::Catalog {
                names,
                uses_mxu,
                on_host,
            } => {
                store.set_catalog(names, uses_mxu, on_host);
                Ok(())
            }
            SealTask::Run(run) => store.put_run(run),
            SealTask::Flush => store.flush(),
            SealTask::Seal => store.seal(),
        }
    }
}

struct PipelineState {
    queue: VecDeque<SealTask<'static>>,
    /// Checked out (None) only while the single active drain task applies
    /// an operation outside the lock.
    store: Option<Box<dyn RecordStore + Send>>,
    /// True while a drain task is scheduled or running; at most one at a
    /// time, which is what makes store-operation order FIFO.
    draining: bool,
    /// Set by [`SealPipeline::simulate_crash`]: drop everything in flight
    /// and leak the store, like a `kill -9`.
    killed: bool,
    /// Store failures in operation order, until the sink takes them.
    errors: Vec<(&'static str, io::Error)>,
    ops_done: u64,
}

impl PipelineState {
    fn settle(&mut self, what: &'static str, result: io::Result<()>) {
        self.ops_done += 1;
        if let Err(err) = result {
            self.errors.push((what, err));
        }
    }
}

struct PipelineShared {
    state: Mutex<PipelineState>,
    /// Signals producers blocked on the high-water mark.
    space: Condvar,
    /// Signals the drain barrier (queue empty, drainer exited).
    idle: Condvar,
    high_water: usize,
    depth: tpupoint_obs::Gauge,
    latency_us: Arc<tpupoint_obs::Histogram>,
    backpressure: tpupoint_obs::Counter,
}

impl PipelineShared {
    /// Applies `task` to `store`, recording its wall time.
    fn apply(
        &self,
        store: &mut Box<dyn RecordStore + Send>,
        task: &SealTask<'_>,
    ) -> io::Result<()> {
        let started = Instant::now();
        let result = task.apply(store);
        self.latency_us
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        result
    }

    fn drain(self: &Arc<Self>) {
        let _span = tpupoint_obs::span!("profiler.seal_drain");
        let mut state = self.state.lock().expect("pipeline");
        loop {
            if state.killed {
                break;
            }
            let Some(task) = state.queue.pop_front() else {
                break;
            };
            self.depth.set(state.queue.len() as f64);
            self.space.notify_all();
            let mut store = state
                .store
                .take()
                .expect("store is checked out by the single active drainer only");
            drop(state);
            let result = self.apply(&mut store, &task);
            state = self.state.lock().expect("pipeline");
            if state.killed {
                // Crashed while this operation was in flight: the store
                // must not come back (its Drop would flush, which a real
                // kill -9 never does).
                std::mem::forget(store);
                break;
            }
            state.store = Some(store);
            state.settle(task.what(), result);
        }
        state.draining = false;
        drop(state);
        self.idle.notify_all();
        self.space.notify_all();
    }
}

/// The sink's route to its store; see the module docs.
pub struct SealPipeline {
    shared: Arc<PipelineShared>,
    /// The pool draining the queue; `None` applies every operation inline
    /// on the caller.
    pool: Option<Arc<tpupoint_par::ThreadPool>>,
}

impl std::fmt::Debug for SealPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealPipeline")
            .field("inline", &self.pool.is_none())
            .field("depth", &self.depth())
            .finish_non_exhaustive()
    }
}

impl SealPipeline {
    /// Builds a pipeline over `store`, draining on the process-wide pool.
    pub fn new(store: Box<dyn RecordStore + Send>, config: PipelineConfig) -> Self {
        Self::on_pool(store, config, tpupoint_par::pool())
    }

    /// Builds a pipeline draining on an explicit pool (tests pin sizes).
    /// A pool of one has no workers, so the pipeline runs inline.
    pub fn on_pool(
        store: Box<dyn RecordStore + Send>,
        config: PipelineConfig,
        pool: Arc<tpupoint_par::ThreadPool>,
    ) -> Self {
        Self::build(store, config, (pool.size() > 1).then_some(pool))
    }

    /// Builds a pipeline that applies every operation on the caller,
    /// straight from the borrowed record, with nothing queued or copied.
    pub fn inline(store: Box<dyn RecordStore + Send>) -> Self {
        Self::build(store, PipelineConfig::default(), None)
    }

    fn build(
        store: Box<dyn RecordStore + Send>,
        config: PipelineConfig,
        pool: Option<Arc<tpupoint_par::ThreadPool>>,
    ) -> Self {
        let metrics = tpupoint_obs::metrics();
        SealPipeline {
            shared: Arc::new(PipelineShared {
                state: Mutex::new(PipelineState {
                    queue: VecDeque::new(),
                    store: Some(store),
                    draining: false,
                    killed: false,
                    errors: Vec::new(),
                    ops_done: 0,
                }),
                space: Condvar::new(),
                idle: Condvar::new(),
                high_water: config.high_water.max(1),
                depth: metrics.gauge("profiler.seal_queue_depth"),
                latency_us: metrics.histogram("profiler.seal_latency_us"),
                backpressure: metrics.counter("profiler.seal_backpressure_waits"),
            }),
            pool,
        }
    }

    /// Redirects the pipeline's queue-depth/latency/backpressure series
    /// into `metrics`. Only effective before the first drain task is
    /// scheduled (while this handle holds the only reference to the
    /// shared state); afterwards the existing handles stay bound, which
    /// is safe — just attributed to the old registry. The wrapped store's
    /// own series rebind unconditionally.
    pub fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.depth = metrics.gauge("profiler.seal_queue_depth");
            shared.latency_us = metrics.histogram("profiler.seal_latency_us");
            shared.backpressure = metrics.counter("profiler.seal_backpressure_waits");
        }
        let mut state = self.shared.state.lock().expect("pipeline");
        if let Some(store) = state.store.as_mut() {
            store.use_registry(metrics);
        }
    }

    /// Queued operations not yet applied.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("pipeline").queue.len()
    }

    /// Operations applied to the store so far.
    pub fn ops_done(&self) -> u64 {
        self.shared.state.lock().expect("pipeline").ops_done
    }

    /// Submits one window record.
    pub fn put_window(&self, record: &WindowRecord) {
        self.submit(SealTask::Window(Cow::Borrowed(record)));
    }

    /// Submits one step record.
    pub fn put_step(&self, record: &StepRecord) {
        self.submit(SealTask::Step(Cow::Borrowed(record)));
    }

    /// Submits the stream's model/dataset label.
    pub fn set_meta(&self, model: &str, dataset: &str) {
        self.submit(SealTask::Meta(Cow::Borrowed(model), Cow::Borrowed(dataset)));
    }

    /// Submits the op-name catalog.
    pub fn set_catalog(&self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.submit(SealTask::Catalog {
            names: Cow::Borrowed(names),
            uses_mxu: Cow::Borrowed(uses_mxu),
            on_host: Cow::Borrowed(on_host),
        });
    }

    /// Submits the run record.
    pub fn put_run(&self, run: &RunRecord) {
        self.submit(SealTask::Run(Cow::Borrowed(run)));
    }

    /// Submits a flush (the store's acknowledgement watermark advances
    /// when it is applied).
    pub fn flush(&self) {
        self.submit(SealTask::Flush);
    }

    /// Submits the sealing rename of a clean shutdown.
    pub fn seal(&self) {
        self.submit(SealTask::Seal);
    }

    fn submit(&self, task: SealTask<'_>) {
        let mut state = self.shared.state.lock().expect("pipeline");
        if self.pool.is_none() {
            if !state.killed {
                let store = state
                    .store
                    .as_mut()
                    .expect("inline store never checked out");
                let result = self.shared.apply(store, &task);
                state.settle(task.what(), result);
            }
            return;
        }
        while state.queue.len() >= self.shared.high_water && !state.killed {
            // Backpressure: the recording thread waits for the drainer
            // instead of buffering without bound.
            self.shared.backpressure.inc();
            self.ensure_drainer(&mut state);
            state = self.shared.space.wait(state).expect("pipeline");
        }
        if state.killed {
            return;
        }
        state.queue.push_back(task.into_owned());
        self.shared.depth.set(state.queue.len() as f64);
        self.ensure_drainer(&mut state);
    }

    /// Schedules a drain task on the pool unless one is already active.
    /// Drain tasks are finite (they exit once the queue momentarily runs
    /// dry) so a scope-helping thread that happens to pick one up is never
    /// trapped in an endless loop.
    fn ensure_drainer(&self, state: &mut PipelineState) {
        let Some(pool) = &self.pool else {
            return;
        };
        if state.draining || state.killed || state.queue.is_empty() {
            return;
        }
        state.draining = true;
        let shared = Arc::clone(&self.shared);
        pool.spawn_detached(move || shared.drain());
    }

    /// The drain barrier: blocks until every queued operation has been
    /// applied and the drainer has exited (or the pipeline was crashed).
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().expect("pipeline");
        loop {
            if state.killed || (state.queue.is_empty() && !state.draining) {
                return;
            }
            // Re-arm in case a drainer exited between submissions.
            self.ensure_drainer(&mut state);
            let (next, _) = self
                .shared
                .idle
                .wait_timeout(state, Duration::from_millis(50))
                .expect("pipeline");
            state = next;
        }
    }

    /// Takes the store failures recorded since the last call, in
    /// operation order.
    pub fn take_errors(&self) -> Vec<(&'static str, io::Error)> {
        std::mem::take(&mut self.shared.state.lock().expect("pipeline").errors)
    }

    /// Fault-injection hook for crash tests: simulates a `kill -9` of the
    /// recording side. Every queued operation is dropped on the floor and
    /// the store is leaked, so nothing is flushed, sealed, or dropped —
    /// exactly the state a dead process leaves behind. An operation
    /// already in flight on a worker completes its write, like a crash
    /// landing just after that I/O; the call returns once no worker can
    /// touch the store again, so the directory it leaves is settled.
    pub fn simulate_crash(&self) {
        let mut state = self.shared.state.lock().expect("pipeline");
        state.killed = true;
        state.queue.clear();
        self.shared.depth.set(0.0);
        if let Some(store) = state.store.take() {
            std::mem::forget(store);
        }
        self.shared.space.notify_all();
        self.shared.idle.notify_all();
        while state.draining {
            state = self.shared.idle.wait(state).expect("pipeline");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{FaultConfig, FaultStore};
    use crate::store::InMemoryStore;

    fn step(n: u64) -> StepRecord {
        StepRecord::new(n)
    }

    #[test]
    fn inline_pipeline_applies_each_call_before_returning() {
        // A pool of one has no workers, so it runs inline too.
        let one = Arc::new(tpupoint_par::ThreadPool::new(1));
        for pipeline in [
            SealPipeline::inline(Box::new(InMemoryStore::new())),
            SealPipeline::on_pool(
                Box::new(InMemoryStore::new()),
                PipelineConfig::default(),
                one,
            ),
        ] {
            pipeline.set_meta("model", "data");
            assert_eq!(pipeline.ops_done(), 1);
            for n in 0..5 {
                pipeline.put_step(&step(n));
                assert_eq!(pipeline.ops_done(), n + 2, "applied synchronously");
                assert_eq!(pipeline.depth(), 0, "nothing is ever queued inline");
            }
            pipeline.seal();
            assert_eq!(pipeline.ops_done(), 7);
            assert!(pipeline.take_errors().is_empty());
        }
    }

    #[test]
    fn inline_errors_come_back_in_operation_order() {
        let store = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: 1.0,
                ..FaultConfig::default()
            },
        );
        let pipeline = SealPipeline::inline(Box::new(store));
        pipeline.put_step(&step(1));
        pipeline.put_window(&WindowRecord {
            index: 0,
            start: tpupoint_simcore::SimTime::ZERO,
            end: tpupoint_simcore::SimTime::ZERO,
            events: 0,
            tpu_busy: tpupoint_simcore::SimDuration::ZERO,
            mxu_busy: tpupoint_simcore::SimDuration::ZERO,
            first_step: 1,
            last_step: 1,
        });
        let first: Vec<&str> = pipeline.take_errors().iter().map(|(w, _)| *w).collect();
        assert_eq!(first, ["put_step", "put_window"]);
        pipeline.flush();
        pipeline.seal();
        let rest: Vec<&str> = pipeline.take_errors().iter().map(|(w, _)| *w).collect();
        assert_eq!(rest, ["flush", "seal"], "taken errors are not repeated");
        assert_eq!(pipeline.ops_done(), 4);
    }
}
