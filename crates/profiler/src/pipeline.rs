//! Off-critical-path sealing: [`SealPipeline`] sits between the profiler
//! sink and its [`RecordStore`], queueing every store operation and
//! draining the queue on `tpupoint-par` workers so record encoding and
//! storage writes happen off the simulation thread.
//!
//! The paper's profiler runs as a background thread precisely so that
//! collection does not perturb the training being measured; this module is
//! that design. Three invariants make the pipelined path a drop-in for the
//! serial one:
//!
//! 1. **FIFO store order.** At most one drain task runs at a time, and it
//!    applies queued operations in submission order, so the store decorator
//!    chain (retry/fault/JSONL) observes the *identical* call sequence as
//!    the serial path — sealed output is byte-identical and seeded fault
//!    scenarios replay exactly.
//! 2. **Bounded queue.** [`PipelineConfig::high_water`] caps in-flight
//!    operations; a producer hitting the cap blocks until the drainer
//!    catches up (counted by `profiler.seal_backpressure_waits`), so a slow
//!    store cannot buffer unbounded memory.
//! 3. **Drain barrier.** [`SealPipeline::wait_idle`] returns only when the
//!    queue is empty and no drain task is running, so a finished profile
//!    reflects every store result, exactly like the serial path.
//!
//! On a pool of one participant there are no worker threads; the pipeline
//! degrades to applying each operation inline on the caller, which *is*
//! the serial path.
//!
//! Observability: gauge `profiler.seal_queue_depth`, histogram
//! `profiler.seal_latency_us` (real wall time per drained operation),
//! counter `profiler.seal_backpressure_waits`, and the drain task's
//! `span.profiler.seal_drain` spans appearing in each worker's trace lane.

use crate::record::StepRecord;
use crate::store::RecordStore;
use crate::window::WindowRecord;
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

/// One queued store operation.
enum SealTask {
    Window(WindowRecord),
    Step(StepRecord),
    Meta(String, String),
    Catalog {
        names: Vec<String>,
        uses_mxu: Vec<bool>,
        on_host: Vec<bool>,
    },
    Flush,
    Seal,
}

impl SealTask {
    /// The label store errors are reported under; matches the serial
    /// sink's accounting strings so profiles compare equal.
    fn what(&self) -> &'static str {
        match self {
            SealTask::Window(_) => "put_window",
            SealTask::Step(_) => "put_step",
            SealTask::Meta(..) => "set_meta",
            SealTask::Catalog { .. } => "set_catalog",
            SealTask::Flush => "flush",
            SealTask::Seal => "seal",
        }
    }
}

fn apply(store: &mut Box<dyn RecordStore + Send>, task: SealTask) -> io::Result<()> {
    match task {
        SealTask::Window(window) => store.put_window(&window),
        SealTask::Step(step) => store.put_step(&step),
        SealTask::Meta(model, dataset) => {
            store.set_meta(&model, &dataset);
            Ok(())
        }
        SealTask::Catalog {
            names,
            uses_mxu,
            on_host,
        } => {
            store.set_catalog(&names, &uses_mxu, &on_host);
            Ok(())
        }
        SealTask::Flush => store.flush(),
        SealTask::Seal => store.seal(),
    }
}

struct PipelineState {
    queue: VecDeque<SealTask>,
    /// Checked out (None) only while the single active drain task applies
    /// an operation outside the lock.
    store: Option<Box<dyn RecordStore + Send>>,
    /// True while a drain task is scheduled or running; at most one at a
    /// time, which is what makes store-operation order FIFO.
    draining: bool,
    /// Set by [`SealPipeline::simulate_crash`]: drop everything in flight
    /// and leak the store, like a `kill -9`.
    killed: bool,
    /// Store failures in operation order, replayed into the sink's
    /// accounting at the drain barrier.
    errors: Vec<(&'static str, io::Error)>,
    ops_done: u64,
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
            let what = task.what();
            let started = Instant::now();
            let result = apply(&mut store, task);
            self.latency_us
                .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            state = self.state.lock().expect("pipeline");
            if state.killed {
                // Crashed while this operation was in flight: the store
                // must not come back (its Drop would flush, which a real
                // kill -9 never does).
                std::mem::forget(store);
                break;
            }
            state.store = Some(store);
            state.ops_done += 1;
            if let Err(err) = result {
                state.errors.push((what, err));
            }
        }
        state.draining = false;
        drop(state);
        self.idle.notify_all();
        self.space.notify_all();
    }
}

/// The bounded sealing queue; see the module docs.
pub struct SealPipeline {
    shared: Arc<PipelineShared>,
    pool: Arc<tpupoint_par::ThreadPool>,
    /// Pool of one: no workers exist, apply operations on the caller.
    inline: bool,
}

impl std::fmt::Debug for SealPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealPipeline")
            .field("inline", &self.inline)
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
    pub fn on_pool(
        store: Box<dyn RecordStore + Send>,
        config: PipelineConfig,
        pool: Arc<tpupoint_par::ThreadPool>,
    ) -> Self {
        let metrics = tpupoint_obs::metrics();
        let inline = pool.size() <= 1;
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
            inline,
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

    /// Enqueues one window record.
    pub fn put_window(&self, record: &WindowRecord) {
        self.submit(SealTask::Window(record.clone()));
    }

    /// Enqueues one step record.
    pub fn put_step(&self, record: &StepRecord) {
        self.submit(SealTask::Step(record.clone()));
    }

    /// Enqueues the stream's model/dataset label.
    pub fn set_meta(&self, model: &str, dataset: &str) {
        self.submit(SealTask::Meta(model.to_owned(), dataset.to_owned()));
    }

    /// Enqueues the op-name catalog.
    pub fn set_catalog(&self, names: Vec<String>, uses_mxu: Vec<bool>, on_host: Vec<bool>) {
        self.submit(SealTask::Catalog {
            names,
            uses_mxu,
            on_host,
        });
    }

    /// Enqueues a flush (the store's acknowledgement watermark advances
    /// when the drainer applies it).
    pub fn flush(&self) {
        self.submit(SealTask::Flush);
    }

    /// Enqueues the sealing rename of a clean shutdown.
    pub fn seal(&self) {
        self.submit(SealTask::Seal);
    }

    fn submit(&self, task: SealTask) {
        if self.inline {
            let mut state = self.shared.state.lock().expect("pipeline");
            if state.killed {
                return;
            }
            let what = task.what();
            let store = state
                .store
                .as_mut()
                .expect("inline store never checked out");
            let started = Instant::now();
            let result = apply(store, task);
            self.shared
                .latency_us
                .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
            state.ops_done += 1;
            if let Err(err) = result {
                state.errors.push((what, err));
            }
            return;
        }
        let mut state = self.shared.state.lock().expect("pipeline");
        while state.queue.len() >= self.shared.high_water && !state.killed {
            // Backpressure: the simulation thread waits for the drainer
            // instead of buffering without bound.
            self.shared.backpressure.inc();
            self.ensure_drainer(&mut state);
            state = self.shared.space.wait(state).expect("pipeline");
        }
        if state.killed {
            return;
        }
        state.queue.push_back(task);
        self.shared.depth.set(state.queue.len() as f64);
        self.ensure_drainer(&mut state);
    }

    /// Schedules a drain task on the pool unless one is already active.
    /// Drain tasks are finite (they exit once the queue momentarily runs
    /// dry) so a scope-helping thread that happens to pick one up is never
    /// trapped in an endless loop.
    fn ensure_drainer(&self, state: &mut PipelineState) {
        if state.draining || state.killed || state.queue.is_empty() {
            return;
        }
        state.draining = true;
        let shared = Arc::clone(&self.shared);
        self.pool.spawn_detached(move || shared.drain());
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

    /// Takes the store failures recorded so far, in operation order.
    pub fn take_errors(&self) -> Vec<(&'static str, io::Error)> {
        std::mem::take(&mut self.shared.state.lock().expect("pipeline").errors)
    }

    /// Waits for the drainer, then hands the store back (None after a
    /// simulated crash).
    pub fn into_store(self) -> Option<Box<dyn RecordStore + Send>> {
        self.wait_idle();
        self.shared.state.lock().expect("pipeline").store.take()
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
