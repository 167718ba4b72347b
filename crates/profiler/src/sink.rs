//! The profiling sink: online aggregation of the event stream.

use crate::pipeline::{PipelineConfig, SealPipeline};
use crate::profile::Profile;
use crate::record::{OpStats, RunRecord, StepRecord};
use crate::store::RecordStore;
use crate::window::WindowRecord;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use tpupoint_obs::{Counter, Histogram};
use tpupoint_simcore::trace::{OpCatalog, TraceEvent, TraceSink};
use tpupoint_simcore::{OpId, SimDuration, SimRng, SimTime, Track};

/// Observability handles, resolved once per sink so the per-event and
/// per-window hot paths pay a single atomic add per update.
struct SinkMetrics {
    events_recorded: Counter,
    events_lost: Counter,
    windows_sealed: Counter,
    windows_dropped: Counter,
    store_errors: Counter,
    window_events: Arc<Histogram>,
    window_span_us: Arc<Histogram>,
}

impl SinkMetrics {
    fn new() -> Self {
        Self::in_registry(tpupoint_obs::metrics())
    }

    fn in_registry(metrics: &tpupoint_obs::Metrics) -> Self {
        SinkMetrics {
            events_recorded: metrics.counter("profiler.events_recorded"),
            events_lost: metrics.counter("profiler.events_lost"),
            windows_sealed: metrics.counter("profiler.windows_sealed"),
            windows_dropped: metrics.counter("profiler.windows_dropped"),
            store_errors: metrics.counter("profiler.store_errors"),
            window_events: metrics.histogram("profiler.window_events"),
            window_span_us: metrics.histogram("profiler.window_span_us"),
        }
    }
}

/// Caps and cadence of profile windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerOptions {
    /// Maximum wall span of one window. The Cloud TPU profiler caps a
    /// profile at 60,000 ms.
    pub window_max_span: SimDuration,
    /// Maximum events in one window. The Cloud TPU profiler caps a profile
    /// at 1,000,000 events.
    pub window_max_events: u64,
    /// Fault injection: probability that a whole profile response (one
    /// window and all events within it) is lost in transit. The real
    /// profiler tolerates lost gRPC responses by simply requesting the
    /// next profile; losses surface as [`Profile::dropped_windows`].
    pub drop_probability: f64,
    /// Seed of the fault-injection stream.
    pub fault_seed: u64,
    /// User-specified breakpoint (Section III-A): once the runtime marks
    /// this step, the profiler sends its "last request" — the current
    /// window seals and no further events are recorded.
    pub breakpoint_step: Option<u64>,
}

impl Default for ProfilerOptions {
    fn default() -> Self {
        ProfilerOptions {
            window_max_span: SimDuration::from_millis(60_000),
            window_max_events: 1_000_000,
            drop_probability: 0.0,
            fault_seed: 0xFA017,
            breakpoint_step: None,
        }
    }
}

/// A step record is streamed to the store once the runtime has marked this
/// many *further* steps complete. Pipelined actors trail at most a couple
/// of steps behind the session's completion marks (outfeed drains, summary
/// writes); the slack keeps a streamed record from missing a late event.
/// [`ProfilerSink::finish`] asserts nothing slipped through in debug
/// builds, and the `streamed_store_matches_in_memory_profile` test checks
/// the stored bytes against the in-memory profile on a real job.
const STEP_STREAM_SLACK: u64 = 8;

/// A step that may still take events: the scalar fields of its eventual
/// [`StepRecord`] (whose `ops` map stays empty while open) plus per-op
/// stats in a dense array indexed by `OpId`, and the ops it touched, so
/// building the record and zeroing the array for reuse cost what the step
/// touched rather than the catalog. Folds exactly as
/// [`StepRecord::absorb`] does.
struct OpenStep {
    record: StepRecord,
    ops: Vec<OpStats>,
    touched: Vec<u32>,
}

impl OpenStep {
    fn absorb(&mut self, event: &TraceEvent) {
        let idx = event.op.0 as usize;
        if idx >= self.ops.len() {
            self.ops.resize(idx + 1, OpStats::default());
        }
        let stats = &mut self.ops[idx];
        if stats.count == 0 {
            self.touched.push(event.op.0);
        }
        stats.count += 1;
        stats.total += event.dur;
        let record = &mut self.record;
        match event.track {
            Track::TpuCore(_) => {
                record.tpu_time += event.dur;
                record.mxu_time += event.mxu_dur;
            }
            Track::Host => record.host_time += event.dur,
            Track::Storage => {}
        }
        record.first_start = record.first_start.min(event.start);
        record.last_end = record.last_end.max(event.end());
    }

    /// The step's record as of now.
    fn snapshot(&self) -> StepRecord {
        StepRecord {
            ops: self.op_map(),
            ..self.record.clone()
        }
    }

    fn op_map(&self) -> BTreeMap<OpId, OpStats> {
        self.touched
            .iter()
            .map(|&op| (OpId(op), self.ops[op as usize]))
            .collect()
    }

    /// Takes the finished record out, leaving the accumulator zeroed for
    /// the next step.
    fn seal(&mut self) -> StepRecord {
        let ops = self.op_map();
        for &op in &self.touched {
            self.ops[op as usize] = OpStats::default();
        }
        self.touched.clear();
        let record = std::mem::replace(&mut self.record, StepRecord::new(0));
        StepRecord { ops, ..record }
    }

    /// Loads `record` (empty or sealed earlier) so further events extend it.
    fn open(&mut self, mut record: StepRecord) {
        for (op, stats) in std::mem::take(&mut record.ops) {
            let idx = op.0 as usize;
            if idx >= self.ops.len() {
                self.ops.resize(idx + 1, OpStats::default());
            }
            self.ops[idx] = stats;
            self.touched.push(op.0);
        }
        self.record = record;
    }
}

/// Callback handed batches of newly completed [`StepRecord`]s while the
/// run is still in flight (the streaming-analyzer feed). Batches arrive
/// in ascending step order, on the simulation thread, and each step is
/// delivered at most once; the observer only *reads* records, so the
/// sealed store output is byte-identical with or without one attached.
pub type SealObserver = Box<dyn FnMut(&[StepRecord]) + Send>;

/// A [`TraceSink`] that builds statistical profile records online.
///
/// Attach to a [`tpupoint_runtime::TrainingJob`] run; call
/// [`ProfilerSink::finish`] afterwards to obtain the [`Profile`].
pub struct ProfilerSink {
    catalog: OpCatalog,
    options: ProfilerOptions,
    model: String,
    dataset: String,
    /// Steps that may still take events, in arrival order; almost every
    /// event hits the last one. Holds the synthetic step 0 until finish.
    open: Vec<OpenStep>,
    /// Zeroed accumulators of sealed steps, reused for the next ones.
    spare: Vec<OpenStep>,
    /// Records of steps sealed at least [`STEP_STREAM_SLACK`] marks ago.
    /// A late event moves its step back to `open`.
    sealed: BTreeMap<u64, StepRecord>,
    windows: Vec<WindowRecord>,
    current: Option<WindowRecord>,
    step_marks: Vec<(u64, SimTime)>,
    checkpoints: Vec<(u64, SimTime)>,
    /// The route to the attached store: inline on the simulation thread
    /// or queued on the pool, with the identical operation sequence.
    store: Option<SealPipeline>,
    events_seen: u64,
    op_on_host: Vec<bool>,
    fault_rng: SimRng,
    current_dropped: bool,
    dropped_windows: u64,
    lost_events: u64,
    store_errors: u64,
    first_store_error: Option<String>,
    stopped: bool,
    obs: SinkMetrics,
    observer: Option<SealObserver>,
    /// Steps at or above this bound have not been delivered to the
    /// observer yet (exclusive watermark).
    delivered_through: u64,
    /// Steps at or above this bound have not been written to the store
    /// yet (exclusive watermark). Starts at 1: the synthetic step-0
    /// record pools unstepped events for the whole run and is only
    /// final at [`ProfilerSink::finish`].
    stored_through: u64,
    /// Highest step the runtime has marked complete so far.
    newest_step_mark: u64,
    /// Deliver completed steps to the observer every this many step
    /// marks, in addition to every sealed window (0 = seals only). The
    /// default window caps rarely trigger on short simulated jobs, so
    /// seal events alone would starve a live consumer.
    observer_cadence: u64,
}

impl std::fmt::Debug for ProfilerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerSink")
            .field("events_seen", &self.events_seen)
            .field("steps", &(self.open.len() + self.sealed.len()))
            .field("windows_sealed", &self.windows.len())
            .finish()
    }
}

// Serve mode hands the profiler sink to its recorder thread, which takes
// ownership of it, so the sink — and therefore every record-store decorator
// it can hold — must stay `Send`. Keep this assertion next to the struct so
// a non-Send field fails here, not in a downstream crate.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ProfilerSink>();
};

impl ProfilerSink {
    /// Creates a sink that buffers everything in memory.
    pub fn new(catalog: OpCatalog, options: ProfilerOptions) -> Self {
        ProfilerSink {
            catalog,
            options,
            model: String::new(),
            dataset: String::new(),
            open: Vec::new(),
            spare: Vec::new(),
            sealed: BTreeMap::new(),
            windows: Vec::new(),
            current: None,
            step_marks: Vec::new(),
            checkpoints: Vec::new(),
            store: None,
            events_seen: 0,
            op_on_host: Vec::new(),
            fault_rng: SimRng::seed_from(options.fault_seed),
            current_dropped: false,
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            first_store_error: None,
            stopped: false,
            obs: SinkMetrics::new(),
            observer: None,
            delivered_through: 0,
            stored_through: 1,
            newest_step_mark: 0,
            observer_cadence: 0,
        }
    }

    /// Redirects the sink's self-observability series — and those of the
    /// attached store chain and seal pipeline — into `metrics` instead of
    /// the process-wide registry. The fleet layer calls this right after
    /// construction so every degradation attributes to the job that
    /// suffered it; call it before the first recorded event (rebinding
    /// later leaves prior updates in the old registry, and a pipeline
    /// with a drain already scheduled keeps its handles).
    pub fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        self.obs = SinkMetrics::in_registry(metrics);
        if let Some(pipeline) = &mut self.store {
            pipeline.use_registry(metrics);
        }
    }

    /// Attaches a streaming observer fed with completed step records at
    /// every sealed window and, when `cadence > 0`, every `cadence`
    /// step marks. See [`SealObserver`] for the delivery contract.
    pub fn set_seal_observer(&mut self, observer: SealObserver, cadence: u64) {
        self.observer = Some(observer);
        self.observer_cadence = cadence;
    }

    /// Delivers every not-yet-delivered step record below `hi_exclusive`
    /// to the observer, in ascending step order.
    fn deliver_completed(&mut self, hi_exclusive: u64) {
        if self.observer.is_none() || hi_exclusive <= self.delivered_through {
            return;
        }
        let batch = self.records_in(self.delivered_through..hi_exclusive);
        self.delivered_through = hi_exclusive;
        if let Some(observer) = self.observer.as_mut().filter(|_| !batch.is_empty()) {
            observer(&batch);
        }
    }

    /// Current records of the steps in `range`, sealed or open, in
    /// ascending step order.
    fn records_in(&self, range: Range<u64>) -> Vec<StepRecord> {
        let mut batch: Vec<StepRecord> = self
            .sealed
            .range(range.clone())
            .map(|(_, record)| record.clone())
            .chain(
                self.open
                    .iter()
                    .filter(|open| range.contains(&open.record.step))
                    .map(OpenStep::snapshot),
            )
            .collect();
        batch.sort_by_key(|r| r.step);
        batch
    }

    /// Index into `open` of `step`'s accumulator, opening one (reloading
    /// the sealed record if a late event reopens the step) when needed.
    fn open_step(&mut self, step: u64) -> usize {
        if let Some(at) = self.open.iter().rposition(|open| open.record.step == step) {
            return at;
        }
        let mut acc = self.spare.pop().unwrap_or_else(|| OpenStep {
            record: StepRecord::new(0),
            ops: vec![OpStats::default(); self.catalog.len()],
            touched: Vec::new(),
        });
        acc.open(
            self.sealed
                .remove(&step)
                .unwrap_or_else(|| StepRecord::new(step)),
        );
        self.open.push(acc);
        self.open.len() - 1
    }

    /// Seals every open step below `hi` except the synthetic step 0,
    /// which pools unstepped events for the whole run.
    fn seal_open_below(&mut self, hi: u64) {
        let done = |open: &mut OpenStep| (1..hi).contains(&open.record.step);
        for mut acc in self.open.extract_if(.., done) {
            self.sealed.insert(acc.record.step, acc.seal());
            self.spare.push(acc);
        }
    }

    /// Creates a sink that additionally streams sealed records to `store`
    /// (the analyzer-mode recording thread) through an inline
    /// [`SealPipeline`]: each record is written on the simulation thread,
    /// straight from the sink's own copy.
    pub fn with_store(
        catalog: OpCatalog,
        options: ProfilerOptions,
        store: Box<dyn RecordStore + Send>,
    ) -> Self {
        let mut sink = Self::new(catalog, options);
        sink.store = Some(SealPipeline::inline(store));
        sink
    }

    /// Creates a sink whose store operations are queued on a bounded
    /// [`SealPipeline`] and drained by `tpupoint-par` workers, keeping
    /// record encoding and storage writes off the simulation thread. The
    /// sealed output is byte-identical to [`ProfilerSink::with_store`].
    pub fn with_pipelined_store(
        catalog: OpCatalog,
        options: ProfilerOptions,
        store: Box<dyn RecordStore + Send>,
        config: PipelineConfig,
    ) -> Self {
        let mut sink = Self::new(catalog, options);
        sink.store = Some(SealPipeline::new(store, config));
        sink
    }

    /// The catalog as parallel name/uses-MXU columns, for persistence.
    fn catalog_columns(&self) -> (Vec<String>, Vec<bool>) {
        let names: Vec<String> = self.catalog.iter().map(|(_, n)| n.to_owned()).collect();
        let uses_mxu: Vec<bool> = self
            .catalog
            .iter()
            .map(|(id, _)| self.catalog.attrs(id).uses_mxu)
            .collect();
        (names, uses_mxu)
    }

    /// Labels the profile with its model/dataset (purely informational);
    /// forwarded to the store's manifest when one is attached, along with
    /// the op-name catalog so even a crashed run recovers real operator
    /// names.
    pub fn set_source(&mut self, model: &str, dataset: &str) {
        self.model = model.to_owned();
        self.dataset = dataset.to_owned();
        let (names, uses_mxu) = self.catalog_columns();
        // Host placement is learned during the run; until then every op
        // defaults to host, matching the finished profile's default.
        let on_host = vec![true; names.len()];
        if let Some(pipeline) = &self.store {
            pipeline.set_meta(model, dataset);
            pipeline.set_catalog(&names, &uses_mxu, &on_host);
        }
    }

    /// Accounts the store failures the pipeline has seen since the last
    /// call, in operation order: each is counted
    /// (`profiler.store_errors`), the first is remembered, and recording
    /// continues — a storage outage must never kill the training run, but
    /// it must not be silent either. Runs after every kept window seal's
    /// store operations and at the finish barrier; inline that is every
    /// failure so far, queued it is those the drainer has reached.
    fn note_store_errors(&mut self) {
        let Some(pipeline) = &self.store else {
            return;
        };
        for (what, err) in pipeline.take_errors() {
            self.store_errors += 1;
            self.obs.store_errors.inc();
            if self.first_store_error.is_none() {
                self.first_store_error = Some(format!("{what}: {err}"));
            }
        }
    }

    /// Events consumed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    fn seal_window(&mut self) {
        if let Some(window) = self.current.take() {
            let _span = tpupoint_obs::span!("profiler.seal_window");
            if self.current_dropped {
                // The profile response was lost: neither recorded nor kept.
                self.dropped_windows += 1;
                self.lost_events += window.events;
                self.obs.windows_dropped.inc();
                self.obs.events_lost.add(window.events);
                return;
            }
            self.obs.windows_sealed.inc();
            self.obs.events_recorded.add(window.events);
            self.obs.window_events.record(window.events);
            self.obs
                .window_span_us
                .record(window.end.saturating_since(window.start).as_micros());
            if let Some(pipeline) = &self.store {
                pipeline.put_window(&window);
            }
            // Steps below the window's last step are complete; the last
            // step itself may straddle into the next window, so it stays
            // undelivered until a later seal or cadence tick.
            let completed_below = window.last_step;
            self.windows.push(window);
            self.deliver_completed(completed_below);
            self.stream_completed_steps();
            self.note_store_errors();
        }
    }

    /// Streams step records the run can no longer touch to the attached
    /// store, in ascending step order, while the run is still in flight.
    /// Rides every kept window seal, so the finish-time store drain
    /// shrinks from "every step of the run" to the last
    /// [`STEP_STREAM_SLACK`] steps plus the synthetic step-0 record.
    fn stream_completed_steps(&mut self) {
        if self.store.is_none() {
            return;
        }
        let hi = self.newest_step_mark.saturating_sub(STEP_STREAM_SLACK);
        if hi <= self.stored_through {
            return;
        }
        // `on_step` sealed these already, unless a late event reopened one.
        self.seal_open_below(hi);
        if let Some(pipeline) = &self.store {
            for record in self.sealed.range(self.stored_through..hi).map(|(_, r)| r) {
                pipeline.put_step(record);
            }
        }
        self.stored_through = hi;
    }

    fn window_for(&mut self, event: &TraceEvent) -> &mut WindowRecord {
        let needs_seal = match &self.current {
            Some(w) => {
                // Seal on a straddling event too: admitting an event whose
                // *end* crosses the cap would extend the kept window past
                // the profiler's 60,000 ms limit.
                w.events >= self.options.window_max_events
                    || event.end().saturating_since(w.start) > self.options.window_max_span
            }
            None => false,
        };
        if needs_seal {
            self.seal_window();
        }
        if self.current.is_none() {
            // A new profile request goes out; its response may be lost.
            self.current_dropped = self.fault_rng.chance(self.options.drop_probability);
            self.current = Some(WindowRecord {
                index: self.windows.len() as u64,
                start: event.start,
                end: event.start,
                events: 0,
                tpu_busy: SimDuration::ZERO,
                mxu_busy: SimDuration::ZERO,
                first_step: u64::MAX,
                last_step: 0,
            });
        }
        self.current.as_mut().expect("just ensured")
    }

    /// Seals the final window and returns the finished profile, sorted by
    /// step number. Also writes the run record to the store, if any, and
    /// seals it. Both follow a drain barrier — every queued operation
    /// has reached the store — so the run record, and the profile's error
    /// accounting, are the same on either lane.
    pub fn finish(mut self) -> Profile {
        self.seal_window();
        for mut open in std::mem::take(&mut self.open) {
            self.sealed.insert(open.record.step, open.seal());
        }
        let steps: Vec<StepRecord> = std::mem::take(&mut self.sealed).into_values().collect();
        // Flush the undelivered tail to the observer so it has seen
        // every step exactly once by the time the profile exists.
        if let Some(observer) = self.observer.as_mut() {
            let from = steps.partition_point(|r| r.step < self.delivered_through);
            if from < steps.len() {
                observer(&steps[from..]);
            }
            self.delivered_through = u64::MAX;
        }
        let (op_names, op_uses_mxu) = self.catalog_columns();
        let mut op_on_host = std::mem::take(&mut self.op_on_host);
        op_on_host.resize(op_names.len(), true);
        if let Some(pipeline) = &self.store {
            pipeline.set_catalog(&op_names, &op_uses_mxu, &op_on_host);
            // Steps below `stored_through` were streamed at window seals;
            // only the tail plus the synthetic step-0 record (which pools
            // unstepped events for the whole run and is final only now)
            // remain. With no mid-run seals this degenerates to writing
            // every step, in the same order as before streaming existed.
            let from = steps.partition_point(|r| r.step < self.stored_through);
            let zero = steps.first().filter(|r| r.step == 0);
            for record in zero.into_iter().chain(&steps[from..]) {
                pipeline.put_step(record);
            }
            pipeline.wait_idle();
        }
        self.note_store_errors();
        let run = RunRecord {
            step_marks: std::mem::take(&mut self.step_marks),
            checkpoints: std::mem::take(&mut self.checkpoints),
            dropped_windows: self.dropped_windows,
            lost_events: self.lost_events,
            store_errors: self.store_errors,
            store_error: self.first_store_error.take(),
        };
        if let Some(pipeline) = &self.store {
            pipeline.put_run(&run);
            pipeline.seal();
            pipeline.wait_idle();
        }
        // Failures of the run record or the seal itself count in the
        // profile but could not be written into the record.
        self.note_store_errors();
        Profile {
            model: self.model,
            dataset: self.dataset,
            op_names,
            op_uses_mxu,
            op_on_host,
            steps,
            windows: self.windows,
            step_marks: run.step_marks,
            checkpoints: run.checkpoints,
            dropped_windows: run.dropped_windows,
            lost_events: run.lost_events,
            store_errors: self.store_errors,
            store_error: run.store_error.or(self.first_store_error),
        }
    }
}

impl TraceSink for ProfilerSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.stopped {
            return;
        }
        self.events_seen += 1;
        // Track which side each op runs on (host/storage vs TPU core).
        let idx = event.op.0 as usize;
        if idx >= self.op_on_host.len() {
            self.op_on_host.resize(idx + 1, true);
        }
        self.op_on_host[idx] = !matches!(event.track, Track::TpuCore(_));
        // Window accounting first: it decides whether this event belongs
        // to a lost profile response.
        let window = self.window_for(event);
        window.events += 1;
        if event.end() > window.end {
            window.end = event.end();
        }
        if let Track::TpuCore(_) = event.track {
            window.tpu_busy += event.dur;
            window.mxu_busy += event.mxu_dur;
        }
        // Unstepped events (session init, background transfers) carry no
        // step; letting them default to 0 would drag `first_step` of every
        // mid-training window down to 0.
        if let Some(step) = event.step {
            window.first_step = window.first_step.min(step);
            window.last_step = window.last_step.max(step);
        }
        if self.current_dropped {
            // Events of a lost response never reach the records.
            return;
        }
        // Per-step statistical aggregation; unstepped events pool in the
        // synthetic step-0 (session init) record.
        let step = event.step.unwrap_or(0);
        debug_assert!(
            step == 0 || step >= self.stored_through,
            "event for step {step} arrived after its record was streamed \
             (stored_through {}); STEP_STREAM_SLACK is too small",
            self.stored_through
        );
        let at = self.open_step(step);
        self.open[at].absorb(event);
    }

    fn on_step(&mut self, step: u64, at: SimTime) {
        if self.stopped {
            return;
        }
        self.step_marks.push((step, at));
        self.newest_step_mark = self.newest_step_mark.max(step);
        self.seal_open_below(self.newest_step_mark.saturating_sub(STEP_STREAM_SLACK));
        // The cadence tick keeps a live observer fed even when the
        // window caps never trigger. One step of slack: step `step` just
        // completed, but pipelined events for it may still be in flight,
        // so only steps strictly below it are delivered.
        if self.observer_cadence > 0 && step > 0 && step.is_multiple_of(self.observer_cadence) {
            self.deliver_completed(step);
        }
        if self.options.breakpoint_step == Some(step) {
            // The profiling thread sends its last request and detaches;
            // training continues unobserved.
            self.seal_window();
            self.stopped = true;
        }
    }

    fn on_checkpoint(&mut self, step: u64, at: SimTime) {
        if self.stopped {
            return;
        }
        self.checkpoints.push((step, at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryStore;
    use tpupoint_runtime::{JobConfig, TrainingJob};
    use tpupoint_simcore::trace::OpAttrs;
    use tpupoint_simcore::OpId;

    fn event(op: u32, step: u64, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            op: OpId(op),
            track: Track::TpuCore(0),
            start: SimTime::from_micros(start_us),
            dur: SimDuration::from_micros(dur_us),
            mxu_dur: SimDuration::ZERO,
            step: Some(step),
        }
    }

    fn small_catalog() -> OpCatalog {
        let mut c = OpCatalog::new();
        c.intern("fusion", OpAttrs { uses_mxu: true });
        c.intern("Reshape", OpAttrs::default());
        c
    }

    #[test]
    fn events_aggregate_into_step_records() {
        let mut sink = ProfilerSink::new(small_catalog(), ProfilerOptions::default());
        sink.record(&event(0, 1, 0, 10));
        sink.record(&event(0, 1, 10, 10));
        sink.record(&event(1, 2, 20, 5));
        let profile = sink.finish();
        assert_eq!(profile.steps.len(), 2);
        assert_eq!(profile.steps[0].step, 1);
        assert_eq!(profile.steps[0].ops[&OpId(0)].count, 2);
        assert_eq!(profile.steps[1].step, 2);
    }

    #[test]
    fn windows_seal_at_event_cap() {
        let options = ProfilerOptions {
            window_max_events: 3,
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(small_catalog(), options);
        for i in 0..7 {
            sink.record(&event(0, 1, i * 10, 5));
        }
        let profile = sink.finish();
        assert_eq!(profile.windows.len(), 3);
        assert_eq!(profile.windows[0].events, 3);
        assert_eq!(profile.windows[1].events, 3);
        assert_eq!(profile.windows[2].events, 1);
    }

    #[test]
    fn windows_seal_at_span_cap() {
        let options = ProfilerOptions {
            window_max_span: SimDuration::from_micros(100),
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(small_catalog(), options);
        sink.record(&event(0, 1, 0, 5));
        sink.record(&event(0, 1, 50, 5));
        sink.record(&event(0, 2, 200, 5)); // beyond 100us from window start
        let profile = sink.finish();
        assert_eq!(profile.windows.len(), 2);
        assert_eq!(profile.windows[0].events, 2);
        assert_eq!(profile.windows[1].first_step, 2);
    }

    #[test]
    fn window_indices_are_sequential() {
        let options = ProfilerOptions {
            window_max_events: 2,
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(small_catalog(), options);
        for i in 0..6 {
            sink.record(&event(0, 1, i, 1));
        }
        let profile = sink.finish();
        let indices: Vec<u64> = profile.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn full_job_profile_has_all_steps_and_marks() {
        let job = TrainingJob::new(JobConfig::demo());
        let mut sink = ProfilerSink::new(job.catalog().clone(), ProfilerOptions::default());
        sink.set_source(&job.config().model, &job.config().dataset.name);
        let report = job.run(&mut sink);
        let profile = sink.finish();
        assert_eq!(profile.step_marks.len() as u64, report.steps_completed);
        // Host/TPU attribution: fusion runs on the TPU, decode on the host.
        let fusion = profile.op_id("fusion").expect("fusion occurred");
        assert!(!profile.op_on_host[fusion.0 as usize]);
        let xfer = profile
            .op_id("TransferBufferToInfeedLocked")
            .expect("transfer occurred");
        assert!(profile.op_on_host[xfer.0 as usize]);
        // init (0) + steps + shutdown record.
        assert_eq!(profile.steps.len() as u64, report.steps_completed + 2);
        assert_eq!(profile.model, "demo-mlp");
        assert_eq!(
            profile.checkpoints.len(),
            job.config().checkpoint_plan().len()
        );
        // The profiler's steady metrics should be close to the runtime's
        // ground truth (same definition, same window).
        let idle = profile.steady_tpu_idle_fraction();
        assert!((idle - report.tpu_idle_fraction()).abs() < 0.05);
    }

    #[test]
    fn seal_observer_sees_every_step_once_in_order() {
        use std::sync::{Arc, Mutex};
        let job = TrainingJob::new(JobConfig::demo());
        let mut sink = ProfilerSink::new(job.catalog().clone(), ProfilerOptions::default());
        let batches: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_batches = Arc::clone(&batches);
        sink.set_seal_observer(
            Box::new(move |records| {
                sink_batches
                    .lock()
                    .unwrap()
                    .push(records.iter().map(|r| r.step).collect());
            }),
            4,
        );
        job.run(&mut sink);
        let profile = sink.finish();
        let batches = batches.lock().unwrap();
        assert!(
            batches.len() > 2,
            "cadence delivery fired mid-run, not only at finish: {batches:?}"
        );
        let delivered: Vec<u64> = batches.iter().flatten().copied().collect();
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(delivered, sorted, "ascending, no duplicates");
        let all: Vec<u64> = profile.steps.iter().map(|r| r.step).collect();
        assert_eq!(delivered, all, "every profile step delivered exactly once");
    }

    #[test]
    fn seal_observer_fires_on_window_seals_without_cadence() {
        use std::sync::{Arc, Mutex};
        let job = TrainingJob::new(JobConfig::demo());
        let mut sink = ProfilerSink::new(
            job.catalog().clone(),
            ProfilerOptions {
                window_max_span: SimDuration::from_millis(50),
                ..ProfilerOptions::default()
            },
        );
        let batches: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_batches = Arc::clone(&batches);
        sink.set_seal_observer(
            Box::new(move |records| sink_batches.lock().unwrap().push(records.len())),
            0,
        );
        job.run(&mut sink);
        let profile = sink.finish();
        assert!(profile.windows.len() > 1);
        // Seals alone (cadence 0) still deliver, before the finish flush.
        assert!(
            batches.lock().unwrap().len() > 1,
            "{:?}",
            batches.lock().unwrap()
        );
    }

    #[test]
    fn store_receives_sealed_records() {
        let job = TrainingJob::new(JobConfig::demo());
        let store = Box::new(InMemoryStore::new());
        let mut sink = ProfilerSink::with_store(
            job.catalog().clone(),
            ProfilerOptions {
                window_max_span: SimDuration::from_millis(50),
                ..ProfilerOptions::default()
            },
            store,
        );
        let report = job.run(&mut sink);
        let profile = sink.finish();
        assert!(profile.windows.len() > 1, "short windows should seal often");
        assert_eq!(profile.steps.len() as u64, report.steps_completed + 2);
    }

    #[test]
    fn dropped_responses_lose_their_windows_and_events() {
        let options = ProfilerOptions {
            window_max_events: 10,
            drop_probability: 0.5,
            fault_seed: 3,
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(small_catalog(), options);
        for i in 0..200 {
            sink.record(&event(0, 1 + i / 10, i * 5, 2));
        }
        let profile = sink.finish();
        assert!(profile.dropped_windows > 0, "some responses must drop");
        assert!(profile.lost_events > 0);
        assert!(
            profile.windows.len() as u64 + profile.dropped_windows == 20,
            "{} kept + {} dropped",
            profile.windows.len(),
            profile.dropped_windows
        );
        let recorded: u64 = profile.steps.iter().map(|r| r.total_invocations()).sum();
        assert_eq!(recorded + profile.lost_events, 200);
        assert!(profile.loss_fraction() > 0.0 && profile.loss_fraction() < 1.0);
    }

    #[test]
    fn zero_drop_probability_loses_nothing() {
        let mut sink = ProfilerSink::new(small_catalog(), ProfilerOptions::default());
        for i in 0..50 {
            sink.record(&event(0, 1, i, 1));
        }
        let profile = sink.finish();
        assert_eq!(profile.dropped_windows, 0);
        assert_eq!(profile.lost_events, 0);
        assert_eq!(profile.loss_fraction(), 0.0);
    }

    #[test]
    fn breakpoint_stops_profiling_but_not_training() {
        let job = TrainingJob::new(JobConfig::demo());
        let options = ProfilerOptions {
            breakpoint_step: Some(10),
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(job.catalog().clone(), options);
        let report = job.run(&mut sink);
        let profile = sink.finish();
        // Training ran to completion...
        assert_eq!(
            report.steps_completed as usize,
            job.config().step_plan().len()
        );
        // ...but the profile covers only steps up to the breakpoint.
        let max_marked = profile.step_marks.iter().map(|(s, _)| *s).max().unwrap();
        assert_eq!(max_marked, 10);
        assert!(profile.steps.iter().all(|r| r.step <= 11));
    }

    #[test]
    fn unstepped_events_land_in_step_zero() {
        let mut sink = ProfilerSink::new(small_catalog(), ProfilerOptions::default());
        let mut ev = event(0, 9, 0, 1);
        ev.step = None;
        sink.record(&ev);
        let profile = sink.finish();
        assert_eq!(profile.steps[0].step, 0);
    }

    #[test]
    fn unstepped_events_do_not_drag_window_first_step_to_zero() {
        let mut sink = ProfilerSink::new(small_catalog(), ProfilerOptions::default());
        sink.record(&event(0, 40, 0, 5));
        let mut unstepped = event(1, 0, 10, 5);
        unstepped.step = None;
        sink.record(&unstepped);
        sink.record(&event(0, 41, 20, 5));
        let profile = sink.finish();
        assert_eq!(profile.windows.len(), 1);
        assert_eq!(
            profile.windows[0].first_step, 40,
            "step=None must not count"
        );
        assert_eq!(profile.windows[0].last_step, 41);
        assert_eq!(profile.windows[0].events, 3, "the event itself is kept");
    }

    #[test]
    fn straddling_event_seals_instead_of_stretching_the_window() {
        let options = ProfilerOptions {
            window_max_span: SimDuration::from_micros(100),
            ..ProfilerOptions::default()
        };
        let mut sink = ProfilerSink::new(small_catalog(), options);
        sink.record(&event(0, 1, 0, 10));
        // Starts inside the cap (95 < 100) but ends beyond it (115): the
        // old start-only check admitted it and stretched the window.
        sink.record(&event(0, 1, 95, 20));
        let profile = sink.finish();
        assert_eq!(profile.windows.len(), 2);
        for w in &profile.windows {
            assert!(
                w.span() <= SimDuration::from_micros(100),
                "window {} spans {:?}, beyond the cap",
                w.index,
                w.span()
            );
        }
        assert_eq!(profile.windows[1].start, SimTime::from_micros(95));
    }

    #[test]
    fn store_errors_are_counted_not_swallowed() {
        use crate::resilience::{FaultConfig, FaultStore};
        let store = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: 1.0,
                ..FaultConfig::default()
            },
        );
        let mut sink = ProfilerSink::with_store(
            small_catalog(),
            ProfilerOptions {
                window_max_events: 2,
                ..ProfilerOptions::default()
            },
            Box::new(store),
        );
        for i in 0..6 {
            sink.record(&event(0, 1, i * 10, 5));
        }
        let profile = sink.finish();
        // Every put_window, put_step, and the seal failed.
        assert!(profile.store_errors >= 4, "got {}", profile.store_errors);
        let first = profile.store_error.as_deref().expect("first error kept");
        assert!(first.contains("injected fault"), "{first}");
        assert!(profile.is_degraded());
        // The in-memory profile itself is still complete.
        assert_eq!(profile.windows.len(), 3);
    }

    #[test]
    fn inline_store_errors_are_counted_at_the_window_seal() {
        use crate::resilience::{FaultConfig, FaultStore};
        let store = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: 1.0,
                ..FaultConfig::default()
            },
        );
        let mut sink = ProfilerSink::with_store(
            small_catalog(),
            ProfilerOptions {
                window_max_events: 2,
                ..ProfilerOptions::default()
            },
            Box::new(store),
        );
        let registry = tpupoint_obs::Metrics::new();
        sink.use_registry(&registry);
        let errors = registry.counter("profiler.store_errors");
        sink.record(&event(0, 1, 0, 5));
        sink.record(&event(0, 1, 10, 5));
        assert_eq!(errors.get(), 0, "no window has sealed yet");
        // The third event seals the first window; its put_window fails.
        sink.record(&event(0, 1, 20, 5));
        assert_eq!(errors.get(), 1, "counted at the seal, not at finish");
        assert_eq!(sink.store_errors, 1);
        let profile = sink.finish();
        assert!(profile.store_errors > 1);
        assert_eq!(errors.get(), profile.store_errors);
        assert!(profile.store_error.unwrap().starts_with("put_window: "));
    }

    #[test]
    fn streamed_store_matches_in_memory_profile() {
        use crate::store::JsonlStore;
        let dir = std::env::temp_dir().join(format!("tpupoint-sink-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = TrainingJob::new(JobConfig::demo());
        let store = JsonlStore::create(&dir).expect("create store");
        let mut sink = ProfilerSink::with_store(
            job.catalog().clone(),
            ProfilerOptions {
                window_max_events: 64,
                ..ProfilerOptions::default()
            },
            Box::new(store),
        );
        sink.set_source(&job.config().model, &job.config().dataset.name);
        job.run(&mut sink);
        assert!(
            sink.stored_through > 1,
            "window seals must stream steps mid-run, not leave them all \
             to finish (stored_through {})",
            sink.stored_through
        );
        let profile = sink.finish();
        let recovered = JsonlStore::recover(&dir).expect("recover");
        assert_eq!(
            recovered.steps, profile.steps,
            "streamed prefix + finish tail must equal the in-memory steps"
        );
        assert_eq!(recovered.windows, profile.windows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sink's record path as a plain model: the same window caps and
    /// fault draws, folding every kept event through
    /// [`StepRecord::absorb`] into a `BTreeMap`.
    struct ReferenceFold {
        options: ProfilerOptions,
        fault_rng: SimRng,
        /// Start and event count of the open window.
        window: Option<(SimTime, u64)>,
        dropped: bool,
        stopped: bool,
        steps: BTreeMap<u64, StepRecord>,
    }

    impl ReferenceFold {
        fn new(options: ProfilerOptions) -> Self {
            ReferenceFold {
                options,
                fault_rng: SimRng::seed_from(options.fault_seed),
                window: None,
                dropped: false,
                stopped: false,
                steps: BTreeMap::new(),
            }
        }

        /// Folds `event`; returns whether it reached the records.
        fn record(&mut self, event: &TraceEvent) -> bool {
            if self.stopped {
                return false;
            }
            let full = self.window.is_some_and(|(start, events)| {
                events >= self.options.window_max_events
                    || event.end().saturating_since(start) > self.options.window_max_span
            });
            if full || self.window.is_none() {
                self.dropped = self.fault_rng.chance(self.options.drop_probability);
                self.window = Some((event.start, 0));
            }
            if let Some((_, events)) = &mut self.window {
                *events += 1;
            }
            if self.dropped {
                return false;
            }
            let step = event.step.unwrap_or(0);
            self.steps
                .entry(step)
                .or_insert_with(|| StepRecord::new(step))
                .absorb(event.op, event.track, event.start, event.dur, event.mxu_dur);
            true
        }

        fn on_step(&mut self, step: u64) {
            if !self.stopped && self.options.breakpoint_step == Some(step) {
                self.window = None;
                self.stopped = true;
            }
        }
    }

    /// Checks the observer batches delivered since the last call against
    /// the reference state at delivery time.
    fn check_new_batches(
        batches: &std::sync::Mutex<Vec<Vec<StepRecord>>>,
        checked: &mut usize,
        reference: &BTreeMap<u64, StepRecord>,
    ) {
        let batches = batches.lock().unwrap();
        for record in batches[*checked..].iter().flatten() {
            assert_eq!(Some(record), reference.get(&record.step), "delivered");
        }
        *checked = batches.len();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random event streams — op ids past the catalog, unstepped
        /// events, steps trailing the newest mark by up to
        /// `STEP_STREAM_SLACK`, late events that reopen a sealed step,
        /// small window caps, lost responses, a breakpoint and a cadence
        /// observer — profile exactly as the reference fold does, and the
        /// observer sees each step's record as it stood when delivered.
        #[test]
        fn dense_accumulators_match_the_reference_fold(
            caps in (1u64..48, 20u64..3_000),
            faults in (
                proptest::prop_oneof![proptest::prelude::Just(0.0), 0.0f64..0.5],
                0u64..1_000,
            ),
            control in (0u64..40, 0u64..6, proptest::prelude::any::<bool>()),
            script in proptest::collection::vec(
                (0u32..12, 0u32..6, 0u64..=STEP_STREAM_SLACK + 1, 1u64..60, 0u32..4),
                1..400,
            ),
        ) {
            use std::sync::{Arc, Mutex};
            let (breakpoint, cadence, tidy) = control;
            let options = ProfilerOptions {
                window_max_events: caps.0,
                window_max_span: SimDuration::from_micros(caps.1),
                drop_probability: faults.0,
                fault_seed: faults.1,
                breakpoint_step: (breakpoint > 0).then_some(breakpoint),
            };
            let mut sink = ProfilerSink::new(small_catalog(), options);
            let batches: Arc<Mutex<Vec<Vec<StepRecord>>>> = Arc::default();
            let sink_batches = Arc::clone(&batches);
            sink.set_seal_observer(
                Box::new(move |batch| sink_batches.lock().unwrap().push(batch.to_vec())),
                cadence,
            );
            let mut reference = ReferenceFold::new(options);
            let (mut mark, mut clock, mut checked) = (0u64, 0u64, 0usize);
            // Whether a kept event extended a step the observer already had.
            let mut disturbed = false;
            for &(kind, op, lag, dur, track) in &script {
                if kind < 2 {
                    mark += 1;
                    sink.on_step(mark, SimTime::from_micros(clock));
                    check_new_batches(&batches, &mut checked, &reference.steps);
                    reference.on_step(mark);
                    continue;
                }
                // Tidy streams only ever feed the in-flight step, so the
                // observer's batches must add up to the profile.
                let sealed_below = mark.saturating_sub(STEP_STREAM_SLACK);
                let step = match kind {
                    _ if tidy => Some(mark + 1),
                    2 => None,
                    3 => {
                        let sealed: Vec<u64> =
                            reference.steps.range(1..sealed_below.max(1)).map(|(s, _)| *s).collect();
                        Some(if sealed.is_empty() {
                            mark + 1
                        } else {
                            sealed[dur as usize % sealed.len()]
                        })
                    }
                    _ => Some((mark + 1).saturating_sub(lag)),
                };
                let event = TraceEvent {
                    op: OpId(op),
                    track: match track {
                        0 => Track::Host,
                        1 => Track::Storage,
                        core => Track::TpuCore(core as u8 - 2),
                    },
                    start: SimTime::from_micros(clock),
                    dur: SimDuration::from_micros(dur),
                    mxu_dur: SimDuration::from_micros(dur / 2),
                    step,
                };
                clock += dur / 2;
                sink.record(&event);
                // Deliveries inside `record` precede the event's fold.
                check_new_batches(&batches, &mut checked, &reference.steps);
                let kept = reference.record(&event);
                disturbed |= kept && step.unwrap_or(0) < sink.delivered_through;
            }
            let profile = sink.finish();
            check_new_batches(&batches, &mut checked, &reference.steps);
            let expected: Vec<StepRecord> = reference.steps.into_values().collect();
            proptest::prop_assert_eq!(&profile.steps, &expected);

            let delivered: Vec<StepRecord> = batches.lock().unwrap().concat();
            proptest::prop_assert!(
                delivered.windows(2).all(|pair| pair[0].step < pair[1].step),
                "batches ascend, each step once"
            );
            proptest::prop_assert!(!(tidy && disturbed));
            if !disturbed {
                proptest::prop_assert_eq!(&delivered, &profile.steps);
            }
        }
    }

    #[test]
    fn retry_store_keeps_profile_clean_under_transient_faults() {
        use crate::resilience::{FaultConfig, FaultStore, RetryPolicy, RetryStore};
        let fault = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: 0.3,
                seed: 5,
                ..FaultConfig::default()
            },
        );
        let retry = RetryStore::with_policy(
            fault,
            RetryPolicy {
                max_retries: 10,
                ..RetryPolicy::default()
            },
        );
        let mut sink = ProfilerSink::with_store(
            small_catalog(),
            ProfilerOptions {
                window_max_events: 5,
                ..ProfilerOptions::default()
            },
            Box::new(retry),
        );
        for i in 0..40 {
            sink.record(&event(0, 1 + i / 10, i * 10, 5));
        }
        let profile = sink.finish();
        assert_eq!(profile.store_errors, 0, "retries absorbed every fault");
        assert!(!profile.is_degraded());
    }
}
