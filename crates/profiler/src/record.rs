//! Per-step statistical records: the unit TPUPoint-Analyzer clusters.
//!
//! "For each step, we define dimensions in terms of TensorFlow operations,
//! the accumulated number of invocations, and total durations" (Section
//! IV-A). A [`StepRecord`] stores exactly that, keyed by interned op id.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

/// Accumulated statistics for one operator within one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpStats {
    /// Number of invocations.
    pub count: u64,
    /// Sum of wall durations.
    pub total: SimDuration,
}

/// Statistical summary of one profile step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Profile step number (0 = session init, `n+1` = shutdown).
    pub step: u64,
    /// Per-operator invocation counts and total durations.
    pub ops: BTreeMap<OpId, OpStats>,
    /// TPU busy time within the step.
    pub tpu_time: SimDuration,
    /// MXU-active time within the step.
    pub mxu_time: SimDuration,
    /// Host busy time within the step.
    pub host_time: SimDuration,
    /// Earliest event start seen for this step.
    pub first_start: SimTime,
    /// Latest event end seen for this step.
    pub last_end: SimTime,
}

impl StepRecord {
    /// Creates an empty record for `step`.
    pub fn new(step: u64) -> Self {
        StepRecord {
            step,
            ops: BTreeMap::new(),
            tpu_time: SimDuration::ZERO,
            mxu_time: SimDuration::ZERO,
            host_time: SimDuration::ZERO,
            first_start: SimTime::from_micros(u64::MAX),
            last_end: SimTime::ZERO,
        }
    }

    /// Folds one event into the record.
    pub fn absorb(
        &mut self,
        op: OpId,
        track: Track,
        start: SimTime,
        dur: SimDuration,
        mxu: SimDuration,
    ) {
        let stats = self.ops.entry(op).or_default();
        stats.count += 1;
        stats.total += dur;
        match track {
            Track::TpuCore(_) => {
                self.tpu_time += dur;
                self.mxu_time += mxu;
            }
            Track::Host => self.host_time += dur,
            Track::Storage => {}
        }
        if start < self.first_start {
            self.first_start = start;
        }
        let end = start + dur;
        if end > self.last_end {
            self.last_end = end;
        }
    }

    /// The set of distinct operators that occurred in this step — the
    /// "set of events" of the paper's Equation 1.
    pub fn event_set(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.keys().copied()
    }

    /// Number of distinct operators.
    pub fn distinct_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total invocations across all operators.
    pub fn total_invocations(&self) -> u64 {
        self.ops.values().map(|s| s.count).sum()
    }

    /// Wall span covered by this step's events.
    pub fn span(&self) -> SimDuration {
        if self.last_end >= self.first_start {
            self.last_end - self.first_start
        } else {
            SimDuration::ZERO
        }
    }

    /// Total accumulated duration across all operators (host + TPU +
    /// storage); the "length" of the step for coverage rankings.
    pub fn total_duration(&self) -> SimDuration {
        self.ops.values().map(|s| s.total).sum()
    }
}

/// What one run knows only once it ends: its step and checkpoint marks
/// and its loss and store-error counts. The sink persists it once, at
/// finish, as the last record of the stream, so a recovered record
/// directory rebuilds the in-memory [`crate::Profile`] exactly.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunRecord {
    /// `(step, time)` markers for every step completion.
    pub step_marks: Vec<(u64, SimTime)>,
    /// `(step, time)` markers for every checkpoint write.
    pub checkpoints: Vec<(u64, SimTime)>,
    /// Profile windows whose responses were lost.
    pub dropped_windows: u64,
    /// Events inside dropped windows.
    pub lost_events: u64,
    /// Store operations that had failed before this record was written.
    pub store_errors: u64,
    /// The first of those failures, for diagnostics.
    pub store_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(record: &mut StepRecord, op: u32, track: Track, start: u64, dur: u64, mxu: u64) {
        record.absorb(
            OpId(op),
            track,
            SimTime::from_micros(start),
            SimDuration::from_micros(dur),
            SimDuration::from_micros(mxu),
        );
    }

    #[test]
    fn absorb_accumulates_counts_and_durations() {
        let mut r = StepRecord::new(3);
        ev(&mut r, 1, Track::TpuCore(0), 0, 10, 6);
        ev(&mut r, 1, Track::TpuCore(0), 10, 20, 12);
        ev(&mut r, 2, Track::Host, 5, 7, 0);
        assert_eq!(r.ops[&OpId(1)].count, 2);
        assert_eq!(r.ops[&OpId(1)].total.as_micros(), 30);
        assert_eq!(r.tpu_time.as_micros(), 30);
        assert_eq!(r.mxu_time.as_micros(), 18);
        assert_eq!(r.host_time.as_micros(), 7);
        assert_eq!(r.distinct_ops(), 2);
        assert_eq!(r.total_invocations(), 3);
    }

    #[test]
    fn span_covers_first_to_last() {
        let mut r = StepRecord::new(1);
        ev(&mut r, 1, Track::Host, 100, 50, 0);
        ev(&mut r, 2, Track::TpuCore(0), 120, 200, 0);
        assert_eq!(r.first_start.as_micros(), 100);
        assert_eq!(r.last_end.as_micros(), 320);
        assert_eq!(r.span().as_micros(), 220);
    }

    #[test]
    fn storage_events_do_not_count_as_host_or_tpu() {
        let mut r = StepRecord::new(1);
        ev(&mut r, 9, Track::Storage, 0, 100, 0);
        assert_eq!(r.host_time, SimDuration::ZERO);
        assert_eq!(r.tpu_time, SimDuration::ZERO);
        assert_eq!(r.total_duration().as_micros(), 100);
    }

    #[test]
    fn event_set_is_sorted_and_deduplicated() {
        let mut r = StepRecord::new(1);
        ev(&mut r, 5, Track::Host, 0, 1, 0);
        ev(&mut r, 2, Track::Host, 1, 1, 0);
        ev(&mut r, 5, Track::Host, 2, 1, 0);
        let set: Vec<u32> = r.event_set().map(|o| o.0).collect();
        assert_eq!(set, vec![2, 5]);
    }

    #[test]
    fn empty_record_has_zero_span() {
        let r = StepRecord::new(0);
        assert_eq!(r.span(), SimDuration::ZERO);
        assert_eq!(r.total_duration(), SimDuration::ZERO);
    }
}
