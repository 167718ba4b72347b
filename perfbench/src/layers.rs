//! The traced run: timing wrappers placed around the public entry points
//! of each layer, and the per-layer table they fill.
//!
//! Every wrapper lives in the benchmark, not in the program. A layer's
//! self time is the time spent inside its entry points minus the time its
//! children (the next wrapper down) took, so the rows of one recording
//! thread add up to that thread's wall time; the remainder is reported as
//! `trace.unattributed_s`.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpupoint::obs::MetricsSnapshot;
use tpupoint::profiler::{
    BinaryStore, BinaryStoreConfig, JsonlStore, RecordStore, RetryPolicy, RetryStore, StepRecord,
    StoreFormat, WindowRecord,
};
use tpupoint::runtime::{JobConfig, TrainingJob};
use tpupoint::sim::trace::{NullSink, TraceEvent, TraceSink};
use tpupoint::sim::SimTime;

/// Largest share of the traced wall that may stay unattributed before the
/// run flags the workload: the ROADMAP's "rows sum to the wall within 5%".
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names; the smoke test keeps the two in step.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simcore.dispatch_s", "s"),
    ("simcore.events", "count"),
    ("simcore.ns_per_event", "ns"),
    ("profiler.sink_self_s", "s"),
    ("profiler.finish_s", "s"),
    ("profiler.windows_sealed", "count"),
    ("profiler.store_s", "s"),
    ("profiler.store_calls", "count"),
    ("profiler.store_bytes", "bytes"),
    ("profiler.seal_latency_us_p50", "us"),
    ("profiler.seal_latency_us_p99", "us"),
    ("profiler.seal_backpressure_waits", "count"),
    ("analyzer.features_s", "s"),
    ("analyzer.kmeans_sweep_s", "s"),
    ("analyzer.dbscan_sweep_s", "s"),
    ("analyzer.ols_s", "s"),
    ("analyzer.viz_s", "s"),
    ("analyzer.stream_update_s", "s"),
    ("analyzer.stream_updates", "count"),
    ("analyzer.stream_update_us_p99", "us"),
    ("analyzer.stream_report_s", "s"),
    ("obs.snapshot_s", "s"),
    ("obs.render_us_p50", "us"),
    ("obs.http_us_p50", "us"),
    ("obs.scrape_bytes", "bytes"),
    ("fleet.admit_us_p50", "us"),
    ("fleet.snapshot_publishes", "count"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.workers", "count"),
    ("load.lag_ms_p99", "ms"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A [`TraceSink`] decorator that accumulates the time spent inside the
/// wrapped sink.
pub struct TimedSink<S> {
    inner: S,
    busy: Duration,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            busy: Duration::ZERO,
        }
    }

    pub fn busy(&self) -> Duration {
        self.busy
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, event: &TraceEvent) {
        let t = Instant::now();
        self.inner.record(event);
        self.busy += t.elapsed();
    }

    fn on_step(&mut self, step: u64, at: SimTime) {
        let t = Instant::now();
        self.inner.on_step(step, at);
        self.busy += t.elapsed();
    }

    fn on_checkpoint(&mut self, step: u64, at: SimTime) {
        let t = Instant::now();
        self.inner.on_checkpoint(step, at);
        self.busy += t.elapsed();
    }
}

/// Time and call count of a [`TimedStore`], shared with the thread that
/// reads them (the store may run on a seal-pipeline worker).
#[derive(Default)]
pub struct StoreTally {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl StoreTally {
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn add(&self, since: Instant) {
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`RecordStore`] decorator timing `put_step`, `put_window`, `flush`
/// and `seal`.
pub struct TimedStore {
    inner: Box<dyn RecordStore + Send>,
    tally: Arc<StoreTally>,
}

impl TimedStore {
    pub fn new(inner: Box<dyn RecordStore + Send>, tally: Arc<StoreTally>) -> Self {
        TimedStore { inner, tally }
    }
}

impl RecordStore for TimedStore {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.put_step(record);
        self.tally.add(t);
        result
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.put_window(record);
        self.tally.add(t);
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.flush();
        self.tally.add(t);
        result
    }

    fn seal(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.seal();
        self.tally.add(t);
        result
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.inner.set_meta(model, dataset);
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.inner.set_catalog(names, uses_mxu, on_host);
    }

    fn use_registry(&mut self, metrics: &tpupoint::obs::Metrics) {
        self.inner.use_registry(metrics);
    }
}

/// The record store `TpuPoint` builds with its default knobs: the default
/// format behind the default retry policy, with no fault injection.
pub fn default_store(dir: &std::path::Path) -> io::Result<Box<dyn RecordStore + Send>> {
    let store: Box<dyn RecordStore + Send> = match StoreFormat::default() {
        StoreFormat::Jsonl => Box::new(JsonlStore::create(dir)?),
        StoreFormat::Binary => {
            Box::new(BinaryStore::with_config(dir, BinaryStoreConfig::default())?)
        }
    };
    Ok(Box::new(RetryStore::with_policy(
        store,
        RetryPolicy::default(),
    )))
}

/// `simcore.dispatch_s`, `simcore.ns_per_event`: the engine alone, each
/// job run with a `NullSink`, charged the profiling overhead
/// `TpuPoint::profile` charges. Call after `simcore.events` is known.
pub fn dispatch_probe(table: &mut LayerTable, configs: &[JobConfig], overhead: f64) {
    for config in configs {
        let mut config = config.clone();
        config.host_overhead_frac += overhead;
        let job = TrainingJob::new(config);
        let t = Instant::now();
        job.run(&mut NullSink);
        table.add("simcore.dispatch_s", secs(t.elapsed()));
    }
    let per_event = table.get("simcore.dispatch_s") * 1e9 / table.get("simcore.events").max(1.0);
    table.set("simcore.ns_per_event", per_event);
}

/// How much the process-wide counter `name` grew since `before`.
pub fn counter_since(before: &MetricsSnapshot, name: &str) -> f64 {
    let now = tpupoint::obs::metrics().snapshot();
    let at = |snap: &MetricsSnapshot| snap.counters.get(name).copied().unwrap_or(0);
    at(&now).saturating_sub(at(before)) as f64
}

/// The `par` pool's work since `before`, from the process-wide registry,
/// per round over `rounds` rounds.
pub fn par_metrics(table: &mut LayerTable, before: &MetricsSnapshot, rounds: usize) {
    let per_round = |name| counter_since(before, name) / rounds.max(1) as f64;
    table.set("par.tasks", per_round("par.tasks"));
    table.set("par.steals", per_round("par.steals"));
    table.set("par.workers", tpupoint_par::current_threads() as f64);
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// The per-layer result of a traced run: the self-time rows of the
/// recording thread, rows measured beside it (off the critical path or in
/// a separate probe), and every per-layer metric.
pub struct LayerTable {
    /// `(layer, self seconds)` on the traced thread; these plus the
    /// unattributed remainder make up `traced_wall`.
    rows: Vec<(String, f64)>,
    /// `(what, value, unit)` measured beside the traced thread.
    beside: Vec<(String, f64, &'static str)>,
    traced_wall: f64,
    untraced_wall: f64,
    metrics: BTreeMap<&'static str, f64>,
    /// Metrics that accumulate over rounds (see [`LayerTable::per_round`]).
    additive: BTreeSet<&'static str>,
}

impl LayerTable {
    pub fn new() -> Self {
        LayerTable {
            rows: Vec::new(),
            beside: Vec::new(),
            traced_wall: 0.0,
            untraced_wall: 0.0,
            metrics: PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect(),
            additive: BTreeSet::new(),
        }
    }

    /// Adds `seconds` of self time to the row `layer`.
    pub fn row(&mut self, layer: &str, seconds: f64) {
        match self.rows.iter_mut().find(|(name, _)| name == layer) {
            Some((_, total)) => *total += seconds,
            None => self.rows.push((layer.to_owned(), seconds)),
        }
    }

    /// Adds `seconds` of self time to the row and the per-layer metric
    /// both named `name`.
    pub fn layer(&mut self, name: &'static str, seconds: f64) {
        self.row(name, seconds);
        self.add(name, seconds);
    }

    /// Records a value measured beside the traced thread.
    pub fn beside(&mut self, what: &str, value: f64, unit: &'static str) {
        self.beside.push((what.to_owned(), value, unit));
    }

    /// Adds the wall time of one traced pass and of its untraced twin.
    pub fn walls(&mut self, traced: f64, untraced: f64) {
        self.traced_wall += traced;
        self.untraced_wall += untraced;
    }

    /// Sets a per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.metrics.contains_key(name),
            "{name} is not a per-layer metric"
        );
        self.metrics.insert(name, value);
    }

    /// Adds to a per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.metrics.get(name).copied().unwrap_or(0.0);
        self.set(name, current + value);
        self.additive.insert(name);
    }

    /// Turns everything accumulated over `rounds` rounds (rows, walls and
    /// added metrics) into per-round values.
    pub fn per_round(&mut self, rounds: usize) {
        let n = rounds.max(1) as f64;
        for (_, seconds) in &mut self.rows {
            *seconds /= n;
        }
        self.traced_wall /= n;
        self.untraced_wall /= n;
        for name in &self.additive {
            if let Some(value) = self.metrics.get_mut(name) {
                *value /= n;
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn unattributed(&self) -> f64 {
        self.traced_wall - self.rows.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Closes the table: derives `trace.unattributed_s` and
    /// `trace.overhead_ratio`, and returns the metrics in report order.
    pub fn finish(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        self.set("trace.unattributed_s", self.unattributed());
        let ratio = if self.untraced_wall > 0.0 {
            self.traced_wall / self.untraced_wall
        } else {
            0.0
        };
        self.set("trace.overhead_ratio", ratio);
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.get(name), *unit))
            .collect()
    }

    /// Prints the table, the layer-sum check, and the side measurements.
    /// Returns whether the unattributed share is within tolerance.
    pub fn print(&self, workload: &str) -> bool {
        let wall = self.traced_wall;
        let share = |s: f64| if wall > 0.0 { 100.0 * s / wall } else { 0.0 };
        println!("per-layer self time ({workload}, traced thread):");
        for (layer, seconds) in &self.rows {
            println!("  {layer:<34} {seconds:>10.4} s {:>6.1}%", share(*seconds));
        }
        let unattributed = self.unattributed();
        println!(
            "  {:<34} {unattributed:>10.4} s {:>6.1}%",
            "trace.unattributed_s",
            share(unattributed)
        );
        println!("  {:<34} {wall:>10.4} s", "traced wall");
        println!("  {:<34} {:>10.4} s", "untraced wall", self.untraced_wall);
        println!(
            "  {:<34} {:>10.4}",
            "trace.overhead_ratio",
            self.get("trace.overhead_ratio")
        );
        let within = unattributed.abs() <= UNATTRIBUTED_TOLERANCE * wall;
        println!(
            "layer-sum check: unattributed share {:.2}% (tolerance {:.0}%): {}",
            share(unattributed.abs()),
            100.0 * UNATTRIBUTED_TOLERANCE,
            if within { "ok" } else { "FLAGGED" }
        );
        if !self.beside.is_empty() {
            println!("measured beside the traced thread (not in the sum):");
            for (what, value, unit) in &self.beside {
                println!("  {what:<52} {value:>12.4} {unit}");
            }
        }
        println!("per-layer metrics:");
        for (name, unit) in PER_LAYER {
            println!("  {name:<34} {:>14.4} {unit}", self.get(name));
        }
        within
    }
}
