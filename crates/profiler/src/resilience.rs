//! Resilient record-store decorators.
//!
//! The paper's recording thread streams records to Cloud Storage while
//! training runs; in production that path sees transient errors, throttled
//! buckets, and whole outage windows. Two [`RecordStore`] decorators make
//! the reproduction's path degrade the same way a hardened recorder would:
//!
//! - [`RetryStore`] retries each failed operation a bounded number of
//!   times with deterministic (seeded) exponential backoff, then *spills*
//!   the record to memory instead of dropping it. Every `put` it
//!   acknowledges (returns `Ok`) is preserved — in the backing store or in
//!   the spill queue, which drains opportunistically on later calls and
//!   definitively on [`RecordStore::flush`]/[`RecordStore::seal`] — up to
//!   the spill queue's high-water mark ([`RetryPolicy::max_spill`]): a
//!   sustained outage past that point sheds the oldest spilled records,
//!   counted by `profiler.records_shed`, instead of growing host memory
//!   without bound.
//! - [`FaultStore`] injects failures in front of any store — a per-call
//!   error probability plus periodic "stuck" outage windows — from a
//!   seeded stream, so fault scenarios replay exactly.
//! - [`ThrottledStore`] adds real per-operation latency for wall-clock
//!   benchmarks of the pipelined sealing path.
//!
//! Backoff delays are always computed and recorded (histogram
//! `profiler.store_backoff_us`). In batch mode they are *not* slept: the
//! simulator has no wall clock, and tests must stay fast. Serve mode's
//! wall-clock recording thread flips [`RetryPolicy::sleep_backoff`] on,
//! and the identical seeded schedule is then actually slept — same
//! delays, now spent in real time, exactly as a production recorder
//! would.
//!
//! Observability: counters `profiler.store_errors` (failed backing-store
//! operations), `profiler.store_retries` (retry attempts),
//! `profiler.records_spilled`, and gauge `profiler.store_spill_depth`.

use crate::record::{RunRecord, StepRecord};
use crate::store::RecordStore;
use crate::window::WindowRecord;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use tpupoint_obs::{Counter, Gauge, Histogram};
use tpupoint_simcore::{SimDuration, SimRng};

/// Retry/backoff schedule of a [`RetryStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries per operation after the first attempt (0 disables retry;
    /// spill still applies).
    pub max_retries: u32,
    /// Backoff before the first retry, microseconds.
    pub base_backoff_us: u64,
    /// Backoff ceiling, microseconds.
    pub max_backoff_us: u64,
    /// Seed of the backoff-jitter stream (like
    /// [`crate::ProfilerOptions`]'s `fault_seed`, a fixed seed replays the
    /// identical schedule).
    pub seed: u64,
    /// High-water mark of the spill queue. A sustained outage cannot grow
    /// host memory without bound: once the queue holds this many records,
    /// the *oldest* spilled record is shed for each new one (counted by
    /// `profiler.records_shed`), keeping the freshest tail — the records
    /// an analyzer of a partially-recorded run can least afford to lose
    /// are the recent ones that were never flushed anywhere else.
    pub max_spill: usize,
    /// When `true`, each backoff delay is actually slept
    /// (`std::thread::sleep`) in addition to being recorded. Batch runs
    /// keep this off so the deterministic suites stay fast; serve mode's
    /// wall-clock recording thread turns it on so the retry schedule is
    /// spent in real time.
    pub sleep_backoff: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_us: 1_000,
            max_backoff_us: 100_000,
            seed: 0xBAC0FF,
            max_spill: 100_000,
            sleep_backoff: false,
        }
    }
}

/// Records awaiting redelivery, in arrival order.
#[derive(Debug, Clone)]
enum Spilled {
    Step(StepRecord),
    Window(WindowRecord),
}

struct RetryMetrics {
    errors: Counter,
    retries: Counter,
    spilled: Counter,
    shed: Counter,
    spill_depth: Gauge,
    backoff_us: Arc<Histogram>,
}

impl RetryMetrics {
    fn new() -> Self {
        Self::in_registry(tpupoint_obs::metrics())
    }

    fn in_registry(metrics: &tpupoint_obs::Metrics) -> Self {
        RetryMetrics {
            errors: metrics.counter("profiler.store_errors"),
            retries: metrics.counter("profiler.store_retries"),
            spilled: metrics.counter("profiler.records_spilled"),
            shed: metrics.counter("profiler.records_shed"),
            spill_depth: metrics.gauge("profiler.store_spill_depth"),
            backoff_us: metrics.histogram("profiler.store_backoff_us"),
        }
    }
}

/// Bounded-retry + spill-to-memory decorator; see the module docs.
pub struct RetryStore<S: RecordStore> {
    inner: S,
    policy: RetryPolicy,
    rng: SimRng,
    spill: VecDeque<Spilled>,
    shed_records: u64,
    total_backoff_us: u64,
    obs: RetryMetrics,
}

impl<S: RecordStore> std::fmt::Debug for RetryStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryStore")
            .field("policy", &self.policy)
            .field("spill_depth", &self.spill.len())
            .field("total_backoff_us", &self.total_backoff_us)
            .finish()
    }
}

impl<S: RecordStore> RetryStore<S> {
    /// Wraps `inner` with the default policy.
    pub fn new(inner: S) -> Self {
        Self::with_policy(inner, RetryPolicy::default())
    }

    /// Wraps `inner` with an explicit policy.
    pub fn with_policy(inner: S, policy: RetryPolicy) -> Self {
        RetryStore {
            inner,
            policy,
            rng: SimRng::seed_from(policy.seed),
            spill: VecDeque::new(),
            shed_records: 0,
            total_backoff_us: 0,
            obs: RetryMetrics::new(),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped store, mutably (tests flip fault knobs through this).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Records currently spilled to memory, awaiting redelivery.
    pub fn spilled_pending(&self) -> usize {
        self.spill.len()
    }

    /// Records shed (oldest-first) because the spill queue hit its
    /// high-water mark during a sustained outage. Shed records were
    /// acknowledged but are gone: this count is the honest price of the
    /// bounded queue, surfaced here and as `profiler.records_shed`.
    pub fn records_shed(&self) -> u64 {
        self.shed_records
    }

    /// Cumulative (simulated) backoff delay across all retries.
    pub fn total_backoff(&self) -> SimDuration {
        SimDuration::from_micros(self.total_backoff_us)
    }

    /// Jittered exponential backoff for retry number `attempt` (0-based).
    fn backoff_us(&mut self, attempt: u32) -> u64 {
        let exp = self
            .policy
            .base_backoff_us
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.policy.max_backoff_us);
        // Full jitter in [0.5, 1.5) keeps retries from synchronizing.
        ((exp as f64) * (0.5 + self.rng.uniform_f64())) as u64
    }

    /// Runs one store operation with up to `max_retries` retries. Failed
    /// attempts that are retried count as store errors; the final failure
    /// is returned *uncounted* so the caller decides whether it absorbs
    /// the error (spill) or surfaces it (flush/seal, where the sink does
    /// the accounting).
    fn attempt<F>(&mut self, mut op: F) -> io::Result<()>
    where
        F: FnMut(&mut S) -> io::Result<()>,
    {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(()) => return Ok(()),
                Err(err) => {
                    if attempt >= self.policy.max_retries {
                        return Err(err);
                    }
                    self.obs.errors.inc();
                    let delay = self.backoff_us(attempt);
                    self.total_backoff_us += delay;
                    self.obs.backoff_us.record(delay);
                    self.obs.retries.inc();
                    if self.policy.sleep_backoff {
                        std::thread::sleep(std::time::Duration::from_micros(delay));
                    }
                    attempt += 1;
                }
            }
        }
    }

    fn push_spill(&mut self, record: Spilled) {
        self.obs.errors.inc();
        self.obs.spilled.inc();
        if self.spill.len() >= self.policy.max_spill.max(1) {
            // High-water mark: shed the oldest record to admit the new
            // one, keeping the queue bounded through any outage length.
            self.spill.pop_front();
            self.shed_records += 1;
            self.obs.shed.inc();
        }
        self.spill.push_back(record);
        self.obs.spill_depth.set(self.spill.len() as f64);
    }

    /// Redelivers one spilled record to the inner store.
    fn redeliver(inner: &mut S, record: &Spilled) -> io::Result<()> {
        match record {
            Spilled::Step(step) => inner.put_step(step),
            Spilled::Window(window) => inner.put_window(window),
        }
    }

    /// Opportunistic drain: one delivery probe per call, so a recovered
    /// store catches up without stalling the hot path while it is down.
    fn try_drain(&mut self) {
        while let Some(front) = self.spill.front() {
            match Self::redeliver(&mut self.inner, front) {
                Ok(()) => {
                    self.spill.pop_front();
                    self.obs.spill_depth.set(self.spill.len() as f64);
                }
                Err(_) => {
                    // Still down; count the probe and come back later.
                    self.obs.errors.inc();
                    return;
                }
            }
        }
    }

    /// Full drain with retries; used by flush/seal where completeness
    /// beats latency.
    ///
    /// # Errors
    ///
    /// Returns the underlying error once retries are exhausted, with the
    /// remaining spill depth in the message.
    fn drain_with_retries(&mut self) -> io::Result<()> {
        while let Some(front) = self.spill.front().cloned() {
            match self.attempt(|inner| Self::redeliver(inner, &front)) {
                Ok(()) => {
                    self.spill.pop_front();
                    self.obs.spill_depth.set(self.spill.len() as f64);
                }
                Err(err) => {
                    return Err(io::Error::new(
                        err.kind(),
                        format!(
                            "{} spilled record(s) undeliverable: {err}",
                            self.spill.len()
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl<S: RecordStore> RecordStore for RetryStore<S> {
    /// Never returns an error: a record that cannot be delivered within
    /// the retry budget is spilled to memory and acknowledged.
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        self.try_drain();
        if !self.spill.is_empty() {
            // Preserve delivery order behind earlier spilled records.
            self.push_spill(Spilled::Step(record.clone()));
            return Ok(());
        }
        if self.attempt(|inner| inner.put_step(record)).is_err() {
            self.push_spill(Spilled::Step(record.clone()));
        }
        Ok(())
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        self.try_drain();
        if !self.spill.is_empty() {
            self.push_spill(Spilled::Window(record.clone()));
            return Ok(());
        }
        if self.attempt(|inner| inner.put_window(record)).is_err() {
            self.push_spill(Spilled::Window(record.clone()));
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.drain_with_retries()?;
        self.attempt(|inner| inner.flush())
    }

    fn seal(&mut self) -> io::Result<()> {
        self.drain_with_retries()?;
        self.attempt(|inner| inner.seal())
    }

    /// Delivers every spilled record first: the run record is the
    /// stream's last.
    fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
        self.drain_with_retries()?;
        self.attempt(|inner| inner.put_run(run))
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.inner.set_meta(model, dataset);
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.inner.set_catalog(names, uses_mxu, on_host);
    }

    fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        self.obs = RetryMetrics::in_registry(metrics);
        self.inner.use_registry(metrics);
    }
}

/// Failure schedule of a [`FaultStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Independent probability that any one store operation fails.
    pub error_probability: f64,
    /// Seed of the fault stream (a fixed seed replays the identical fault
    /// pattern, like [`crate::ProfilerOptions`]'s `fault_seed`).
    pub seed: u64,
    /// When set, the store goes completely down every `stuck_every`-th
    /// operation...
    pub stuck_every: Option<u64>,
    /// ...and stays down for this many consecutive operations (an outage
    /// window, not just independent flakes).
    pub stuck_for: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            error_probability: 0.0,
            seed: 0xFA117,
            stuck_every: None,
            stuck_for: 0,
        }
    }
}

/// Fault-injection decorator for tests and the CLI; see the module docs.
pub struct FaultStore<S: RecordStore> {
    inner: S,
    config: FaultConfig,
    rng: SimRng,
    calls: u64,
    stuck_left: u64,
    injected: u64,
}

impl<S: RecordStore> std::fmt::Debug for FaultStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultStore")
            .field("config", &self.config)
            .field("calls", &self.calls)
            .field("injected", &self.injected)
            .finish()
    }
}

impl<S: RecordStore> FaultStore<S> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultStore {
            inner,
            config,
            rng: SimRng::seed_from(config.seed),
            calls: 0,
            stuck_left: 0,
            injected: 0,
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Changes the per-call error probability mid-run (tests use this to
    /// model a backing store that recovers).
    pub fn set_error_probability(&mut self, p: f64) {
        self.config.error_probability = p;
    }

    /// Rolls the dice for one operation.
    fn maybe_fail(&mut self, op: &str) -> io::Result<()> {
        self.calls += 1;
        if let Some(every) = self.config.stuck_every {
            if every > 0 && self.calls.is_multiple_of(every) {
                self.stuck_left = self.config.stuck_for;
            }
        }
        if self.stuck_left > 0 {
            self.stuck_left -= 1;
            self.injected += 1;
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "injected outage: store stuck during {op} (call {})",
                    self.calls
                ),
            ));
        }
        if self.rng.chance(self.config.error_probability) {
            self.injected += 1;
            return Err(io::Error::other(format!(
                "injected fault during {op} (call {})",
                self.calls
            )));
        }
        Ok(())
    }
}

impl<S: RecordStore> RecordStore for FaultStore<S> {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        self.maybe_fail("put_step")?;
        self.inner.put_step(record)
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        self.maybe_fail("put_window")?;
        self.inner.put_window(record)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.maybe_fail("flush")?;
        self.inner.flush()
    }

    fn seal(&mut self) -> io::Result<()> {
        self.maybe_fail("seal")?;
        self.inner.seal()
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.inner.set_meta(model, dataset);
    }

    // Metadata calls are not faulted (and not counted against the call
    // stream): they carry no record payload, so fault scenarios replay
    // identically whether or not the writer labels its stream. The run
    // record is treated the same way, so the schedule of the record
    // operations around it is the one it always was.
    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.inner.set_catalog(names, uses_mxu, on_host);
    }

    fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
        self.inner.put_run(run)
    }

    fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        self.inner.use_registry(metrics);
    }
}

/// Adds a fixed *real* (wall-clock) latency to every record operation,
/// modeling the Cloud Storage round-trip the paper's background recording
/// thread hides from the training loop. Unlike [`RetryStore`]'s simulated
/// backoff this decorator actually sleeps, so it belongs in wall-clock
/// benchmarks (`reproduce bench_pipeline`) and demos — not in the fast
/// deterministic test suite.
pub struct ThrottledStore<S: RecordStore> {
    inner: S,
    delay: std::time::Duration,
}

impl<S: RecordStore> std::fmt::Debug for ThrottledStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThrottledStore")
            .field("delay", &self.delay)
            .finish_non_exhaustive()
    }
}

impl<S: RecordStore> ThrottledStore<S> {
    /// Wraps `inner`, sleeping `delay` before each record operation.
    pub fn new(inner: S, delay: std::time::Duration) -> Self {
        ThrottledStore { inner, delay }
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RecordStore> RecordStore for ThrottledStore<S> {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.put_step(record)
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.put_window(record)
    }

    fn flush(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.flush()
    }

    fn seal(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.seal()
    }

    fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.put_run(run)
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.inner.set_meta(model, dataset);
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.inner.set_catalog(names, uses_mxu, on_host);
    }

    fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        self.inner.use_registry(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;
    use tpupoint_simcore::{OpId, SimTime, Track};

    fn step(n: u64) -> StepRecord {
        let mut r = StepRecord::new(n);
        r.absorb(
            OpId(0),
            Track::Host,
            SimTime::from_micros(n),
            SimDuration::from_micros(1),
            SimDuration::ZERO,
        );
        r
    }

    /// A store that always fails.
    struct DownStore;

    impl RecordStore for DownStore {
        fn put_step(&mut self, _: &StepRecord) -> io::Result<()> {
            Err(io::Error::other("down"))
        }
        fn put_window(&mut self, _: &WindowRecord) -> io::Result<()> {
            Err(io::Error::other("down"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("down"))
        }
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let fault = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: 0.4,
                seed: 11,
                ..FaultConfig::default()
            },
        );
        let mut store = RetryStore::with_policy(
            fault,
            RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            },
        );
        for n in 0..50 {
            store.put_step(&step(n)).unwrap();
        }
        store.inner_mut().set_error_probability(0.0);
        store.flush().unwrap();
        assert_eq!(store.spilled_pending(), 0);
        let delivered: Vec<u64> = store
            .inner()
            .inner()
            .steps()
            .iter()
            .map(|r| r.step)
            .collect();
        assert_eq!(delivered, (0..50).collect::<Vec<_>>(), "order preserved");
        assert!(store.inner().injected() > 0, "faults actually fired");
    }

    #[test]
    fn outage_window_spills_then_drains_in_order() {
        let fault = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                stuck_every: Some(10),
                stuck_for: 3,
                ..FaultConfig::default()
            },
        );
        // No retries: each put during the outage spills immediately.
        let mut store = RetryStore::with_policy(
            fault,
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        );
        // Calls 10..12 hit the outage (puts plus drain probes each count
        // as one underlying call), spilling three records.
        for n in 0..12 {
            store.put_step(&step(n)).unwrap();
        }
        assert!(store.spilled_pending() > 0, "outage forced spilling");
        store.flush().unwrap();
        assert_eq!(store.spilled_pending(), 0);
        let delivered: Vec<u64> = store
            .inner()
            .inner()
            .steps()
            .iter()
            .map(|r| r.step)
            .collect();
        assert_eq!(delivered, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn acknowledged_puts_never_error_even_when_store_is_down() {
        let mut store = RetryStore::with_policy(
            DownStore,
            RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
        );
        for n in 0..5 {
            store.put_step(&step(n)).unwrap();
        }
        assert_eq!(store.spilled_pending(), 5);
        assert!(store.total_backoff() > SimDuration::ZERO);
        // Flush cannot deliver: the error surfaces with the spill depth.
        let err = store.flush().unwrap_err();
        assert!(
            err.to_string().contains("spilled record(s) undeliverable"),
            "{err}"
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut s = RetryStore::with_policy(
                DownStore,
                RetryPolicy {
                    max_retries: 4,
                    seed,
                    ..RetryPolicy::default()
                },
            );
            s.put_step(&step(1)).unwrap();
            s.total_backoff()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut store = RetryStore::with_policy(
            DownStore,
            RetryPolicy {
                max_retries: 30,
                base_backoff_us: 1_000,
                max_backoff_us: 50_000,
                seed: 1,
                ..RetryPolicy::default()
            },
        );
        store.put_step(&step(1)).unwrap();
        // 30 retries, jitter < 1.5x: total stays under 30 * 75ms.
        assert!(store.total_backoff() < SimDuration::from_micros(30 * 75_000));
        assert!(store.total_backoff() > SimDuration::from_micros(500));
    }

    #[test]
    fn sleep_backoff_spends_the_recorded_schedule_on_the_wall_clock() {
        let mut store = RetryStore::with_policy(
            DownStore,
            RetryPolicy {
                max_retries: 2,
                base_backoff_us: 2_000,
                max_backoff_us: 10_000,
                sleep_backoff: true,
                ..RetryPolicy::default()
            },
        );
        let start = std::time::Instant::now();
        store.put_step(&step(1)).unwrap();
        let elapsed = start.elapsed();
        let recorded = store.total_backoff();
        // Two retries, jitter >= 0.5x: at least 2ms recorded, all slept.
        assert!(recorded >= SimDuration::from_micros(2_000), "{recorded:?}");
        assert!(
            elapsed >= std::time::Duration::from_micros(recorded.as_micros()),
            "recorded {recorded:?} but only {elapsed:?} elapsed"
        );
    }

    #[test]
    fn fault_stream_replays_per_seed() {
        let run = |seed| {
            let mut fault = FaultStore::new(
                InMemoryStore::new(),
                FaultConfig {
                    error_probability: 0.5,
                    seed,
                    ..FaultConfig::default()
                },
            );
            (0..40)
                .map(|n| fault.put_step(&step(n)).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn stuck_windows_fail_consecutively() {
        let mut fault = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                stuck_every: Some(5),
                stuck_for: 3,
                ..FaultConfig::default()
            },
        );
        let results: Vec<bool> = (0..10).map(|n| fault.put_step(&step(n)).is_ok()).collect();
        // Calls 5-7 fail (first outage), call 10 starts the next one.
        assert_eq!(
            results,
            vec![true, true, true, true, false, false, false, true, true, false]
        );
    }
}
