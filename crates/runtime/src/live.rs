//! Wall-clock lane for serve mode: live run status and a pacing sink.
//!
//! Batch runs complete as fast as the host allows — the simulated clock is
//! the only notion of time. A long-running `tpupoint serve` job instead
//! wants the simulation to *unfold* on the wall clock so a scraper watching
//! `/metrics` and `/jobs/<id>` sees a training job in motion. [`LiveSink`]
//! provides that lane: it forwards every trace callback to an inner
//! [`TraceSink`] unchanged (so the recorded profile is byte-identical to a
//! batch run of the same seed) while
//!
//! * pacing the run by sleeping a fixed real duration per training step,
//! * tracking an *online* OLS phase estimate — the same Eq. 1 similarity
//!   the analyzer applies offline, here over consecutive steps' operator
//!   sets — and
//! * publishing progress into a shared [`LiveStatus`] that the fleet's
//!   job status (and so `GET /jobs/<id>`) reads from another thread.
//!
//! A cooperative quit flag cancels the pacing (and only the pacing): once
//! shutdown is requested the job rushes through its remaining steps at
//! batch speed, so graceful shutdown still produces the complete,
//! deterministic record set.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tpupoint_simcore::trace::{TraceEvent, TraceSink};
use tpupoint_simcore::{OpId, SimTime};

/// Progress of a live run, shared between the recording thread (writer)
/// and the HTTP status hook (reader).
#[derive(Debug, Default)]
pub struct LiveStatus {
    step: AtomicU64,
    phase: AtomicU64,
    checkpoints: AtomicU64,
    stream_phases: AtomicU64,
    stream_stable_for: AtomicU64,
}

impl LiveStatus {
    /// A fresh status at step 0, phase 0.
    pub fn new() -> Arc<LiveStatus> {
        Arc::new(LiveStatus::default())
    }

    /// Latest training step the runtime announced.
    pub fn current_step(&self) -> u64 {
        self.step.load(Ordering::Relaxed)
    }

    /// Current online OLS phase index (0-based; increments at each
    /// detected boundary).
    pub fn ols_phase(&self) -> u64 {
        self.phase.load(Ordering::Relaxed)
    }

    /// Checkpoints written so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Phases the streaming analyzer currently distinguishes (0 until
    /// its first update).
    pub fn stream_phases(&self) -> u64 {
        self.stream_phases.load(Ordering::Relaxed)
    }

    /// Consecutive streaming-analyzer updates whose phase assignments
    /// stayed stable — the `--stop-on-stable` early-exit counter.
    pub fn stream_stable_for(&self) -> u64 {
        self.stream_stable_for.load(Ordering::Relaxed)
    }

    /// Publishes the streaming analyzer's latest state (called from the
    /// profiler's seal-observer hook on the simulation thread).
    pub fn set_stream_state(&self, phases: u64, stable_for: u64) {
        self.stream_phases.store(phases, Ordering::Relaxed);
        self.stream_stable_for.store(stable_for, Ordering::Relaxed);
    }
}

/// The pacing/status decorator around a recording [`TraceSink`]; see the
/// module docs.
pub struct LiveSink<S: TraceSink> {
    inner: S,
    status: Arc<LiveStatus>,
    quit: Arc<AtomicBool>,
    pace: Duration,
    /// Eq. 1 similarity threshold below which consecutive steps are
    /// declared to belong to different phases.
    threshold: f64,
    prev_ops: BTreeSet<OpId>,
    cur_ops: BTreeSet<OpId>,
    seen_step: bool,
}

impl<S: TraceSink> LiveSink<S> {
    /// Wraps `inner`, sleeping `pace` per step until `quit` is set and
    /// publishing progress into `status`.
    pub fn new(
        inner: S,
        status: Arc<LiveStatus>,
        quit: Arc<AtomicBool>,
        pace: Duration,
        threshold: f64,
    ) -> Self {
        LiveSink {
            inner,
            status,
            quit,
            pace,
            threshold,
            prev_ops: BTreeSet::new(),
            cur_ops: BTreeSet::new(),
            seen_step: false,
        }
    }

    /// Unwraps the recording sink (the job runner finishes it after the
    /// run).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Eq. 1 of the paper over the two most recent steps' operator sets:
    /// `|A ∩ B| / min(|A|, |B|)`. Two empty sets are trivially similar.
    fn similarity(a: &BTreeSet<OpId>, b: &BTreeSet<OpId>) -> f64 {
        let min = a.len().min(b.len());
        if min == 0 {
            return if a.len() == b.len() { 1.0 } else { 0.0 };
        }
        a.intersection(b).count() as f64 / min as f64
    }

    /// Closes out the step that just ended: updates the online phase
    /// estimate from its operator set.
    fn roll_phase(&mut self) {
        if self.seen_step && Self::similarity(&self.prev_ops, &self.cur_ops) < self.threshold {
            self.status.phase.fetch_add(1, Ordering::Relaxed);
        }
        self.prev_ops = std::mem::take(&mut self.cur_ops);
        self.seen_step = true;
    }
}

impl<S: TraceSink> TraceSink for LiveSink<S> {
    fn record(&mut self, event: &TraceEvent) {
        if event.step.is_some() {
            self.cur_ops.insert(event.op);
        }
        self.inner.record(event);
    }

    fn on_step(&mut self, step: u64, at: SimTime) {
        // `on_step` announces the *start* of `step`; everything gathered in
        // cur_ops belongs to the step that just ended.
        if step > 0 {
            self.roll_phase();
        }
        self.status.step.store(step, Ordering::Relaxed);
        self.inner.on_step(step, at);
        if !self.quit.load(Ordering::Relaxed) && !self.pace.is_zero() {
            std::thread::sleep(self.pace);
        }
    }

    fn on_checkpoint(&mut self, step: u64, at: SimTime) {
        self.status.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.inner.on_checkpoint(step, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobConfig, TrainingJob};
    use tpupoint_simcore::trace::VecSink;
    use tpupoint_simcore::{SimDuration, Track};

    fn live(pace: Duration) -> (LiveSink<VecSink>, Arc<LiveStatus>, Arc<AtomicBool>) {
        let status = LiveStatus::new();
        let quit = Arc::new(AtomicBool::new(false));
        let sink = LiveSink::new(
            VecSink::new(),
            Arc::clone(&status),
            Arc::clone(&quit),
            pace,
            0.7,
        );
        (sink, status, quit)
    }

    fn event(op: u32, step: u64) -> TraceEvent {
        TraceEvent {
            op: OpId(op),
            track: Track::Host,
            start: SimTime::from_micros(step * 100),
            dur: SimDuration::from_micros(10),
            mxu_dur: SimDuration::ZERO,
            step: Some(step),
        }
    }

    #[test]
    fn forwards_everything_and_tracks_steps() {
        let (mut sink, status, _quit) = live(Duration::ZERO);
        let report = TrainingJob::new(JobConfig::demo()).run(&mut sink);
        assert!(report.steps_completed > 0);
        let inner = sink.into_inner();
        let last_marker = inner.steps.last().expect("steps announced").0;
        assert_eq!(status.current_step(), last_marker);
        assert!(!inner.events.is_empty(), "events forwarded");
        assert_eq!(
            inner.steps.len() as u64,
            report.steps_completed,
            "step markers forwarded"
        );
    }

    #[test]
    fn live_profile_matches_a_batch_run_exactly() {
        let (mut sink, _status, _quit) = live(Duration::ZERO);
        TrainingJob::new(JobConfig::demo()).run(&mut sink);
        let mut batch = VecSink::new();
        TrainingJob::new(JobConfig::demo()).run(&mut batch);
        let paced = sink.into_inner();
        assert_eq!(paced.events, batch.events);
        assert_eq!(paced.steps, batch.steps);
        assert_eq!(paced.checkpoints, batch.checkpoints);
    }

    #[test]
    fn phase_boundary_fires_when_op_sets_diverge() {
        let (mut sink, status, _quit) = live(Duration::ZERO);
        // Steps 0-1 share ops {0,1,2}; step 2 switches to {7,8,9}.
        for step in 0..2u64 {
            sink.on_step(step, SimTime::from_micros(step * 100));
            for op in 0..3 {
                sink.record(&event(op, step));
            }
        }
        sink.on_step(2, SimTime::from_micros(200));
        assert_eq!(status.ols_phase(), 0, "identical op sets, one phase");
        for op in 7..10 {
            sink.record(&event(op, 2));
        }
        sink.on_step(3, SimTime::from_micros(300));
        assert_eq!(status.ols_phase(), 1, "disjoint op set is a boundary");
    }

    #[test]
    fn pacing_sleeps_until_quit_is_requested() {
        let (mut sink, _status, quit) = live(Duration::from_millis(5));
        let start = std::time::Instant::now();
        for step in 0..3 {
            sink.on_step(step, SimTime::from_micros(step * 100));
        }
        assert!(start.elapsed() >= Duration::from_millis(15), "paced");
        quit.store(true, Ordering::Relaxed);
        let start = std::time::Instant::now();
        for step in 3..60 {
            sink.on_step(step, SimTime::from_micros(step * 100));
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "quit cancels pacing and the run rushes to completion"
        );
    }
}
