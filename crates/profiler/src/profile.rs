//! The complete profile of one run: what TPUPoint-Analyzer consumes.
//!
//! A [`Profile`] persists as its record directory: the step and window
//! records plus the run record ([`crate::RunRecord`]), and
//! [`crate::recover_records`]`(dir).to_profile()` reads it back.

use crate::record::StepRecord;
use crate::window::WindowRecord;
use tpupoint_simcore::{OpId, SimDuration, SimTime};

/// A self-contained profile: op-name table, per-step statistical records,
/// sealed windows, and the step/checkpoint markers.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Model the profile was captured from.
    pub model: String,
    /// Dataset the model trained on.
    pub dataset: String,
    /// Op names indexed by [`OpId`].
    pub op_names: Vec<String>,
    /// Whether each op drives the MXUs, indexed by [`OpId`].
    pub op_uses_mxu: Vec<bool>,
    /// Whether each op was observed on the host (or storage) side rather
    /// than on a TPU core, indexed by [`OpId`]. Ops never observed default
    /// to host.
    pub op_on_host: Vec<bool>,
    /// Per-step records, sorted by step number. Step 0 is session
    /// initialization; the largest step is session shutdown.
    pub steps: Vec<StepRecord>,
    /// Sealed profile windows in order.
    pub windows: Vec<WindowRecord>,
    /// `(step, time)` markers for every step completion.
    pub step_marks: Vec<(u64, SimTime)>,
    /// `(step, time)` markers for every checkpoint write.
    pub checkpoints: Vec<(u64, SimTime)>,
    /// Profile windows whose responses were lost (fault injection or real
    /// transport loss); their events are absent from `steps`.
    pub dropped_windows: u64,
    /// Events inside dropped windows.
    pub lost_events: u64,
    /// Record-store operations that failed while recording (after any
    /// retry/spill resilience); the in-memory profile is complete, but the
    /// persisted record stream may not be.
    pub store_errors: u64,
    /// The first store error observed, for diagnostics.
    pub store_error: Option<String>,
}

impl Profile {
    /// Resolves an op id to its name.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not part of this profile's catalog.
    pub fn op_name(&self, op: OpId) -> &str {
        &self.op_names[op.0 as usize]
    }

    /// Finds the id of an op name, if it occurred.
    pub fn op_id(&self, name: &str) -> Option<OpId> {
        self.op_names
            .iter()
            .position(|n| n == name)
            .map(|i| OpId(i as u32))
    }

    /// The records of actual profile steps: excludes the synthetic init
    /// (step 0) and shutdown (last step) records.
    pub fn training_records(&self) -> &[StepRecord] {
        let mut lo = 0;
        let mut hi = self.steps.len();
        if self.steps.first().is_some_and(|r| r.step == 0) {
            lo = 1;
        }
        let max_mark = self.step_marks.iter().map(|(s, _)| *s).max().unwrap_or(0);
        if self.steps.last().is_some_and(|r| r.step > max_mark) {
            hi -= 1;
        }
        &self.steps[lo..hi]
    }

    /// The profile truncated to steps at or below `step`: records,
    /// windows, step marks, and checkpoints past the cut are dropped.
    /// Used by `analyze --prefix-stable` to characterize only the prefix
    /// the streaming analyzer declared stable.
    #[must_use]
    pub fn prefix_through(&self, step: u64) -> Profile {
        let mut prefix = self.clone();
        prefix.steps.retain(|r| r.step <= step);
        prefix.windows.retain(|w| w.first_step <= step);
        prefix.step_marks.retain(|&(s, _)| s <= step);
        prefix.checkpoints.retain(|&(s, _)| s <= step);
        prefix
    }

    /// TPU idle fraction over the stepped portion of the run, computed from
    /// the statistical records exactly as TPUPoint reports it (Figure 10).
    pub fn steady_tpu_idle_fraction(&self) -> f64 {
        let records = self.training_records();
        let Some(window) = Self::records_span(records) else {
            return 0.0;
        };
        let busy: SimDuration = records.iter().map(|r| r.tpu_time).sum();
        (1.0 - busy.as_micros() as f64 / window.as_micros() as f64).clamp(0.0, 1.0)
    }

    /// MXU utilization over the stepped portion of the run (Figure 11).
    pub fn steady_mxu_utilization(&self) -> f64 {
        let records = self.training_records();
        let Some(window) = Self::records_span(records) else {
            return 0.0;
        };
        let mxu: SimDuration = records.iter().map(|r| r.mxu_time).sum();
        (mxu.as_micros() as f64 / window.as_micros() as f64).clamp(0.0, 1.0)
    }

    fn records_span(records: &[StepRecord]) -> Option<SimDuration> {
        let first = records.iter().map(|r| r.first_start).min()?;
        let last = records.iter().map(|r| r.last_end).max()?;
        (last > first).then(|| last - first)
    }

    /// True when capture or recording lost anything: dropped profile
    /// responses or failed store operations. A clean profile means both
    /// the in-memory view and the persisted record stream are complete.
    pub fn is_degraded(&self) -> bool {
        self.dropped_windows > 0 || self.store_errors > 0
    }

    /// Fraction of observed events lost to dropped profile responses.
    /// The sum saturates: a recovered profile's counts are external input.
    pub fn loss_fraction(&self) -> f64 {
        let total = self
            .steps
            .iter()
            .map(StepRecord::total_invocations)
            .fold(self.lost_events, u64::saturating_add);
        if total == 0 {
            return 0.0;
        }
        self.lost_events as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::Track;

    fn record(step: u64, start: u64, dur: u64, tpu: bool) -> StepRecord {
        let mut r = StepRecord::new(step);
        r.absorb(
            OpId(0),
            if tpu { Track::TpuCore(0) } else { Track::Host },
            SimTime::from_micros(start),
            SimDuration::from_micros(dur),
            SimDuration::from_micros(if tpu { dur / 2 } else { 0 }),
        );
        r
    }

    fn profile() -> Profile {
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: vec!["fusion".into(), "Reshape".into()],
            op_uses_mxu: vec![true, false],
            op_on_host: vec![false, false],
            steps: vec![
                record(0, 0, 100, false), // init
                record(1, 100, 60, true), // steps: busy 60 of [100, 400]
                record(2, 200, 90, true),
                record(3, 300, 100, true),
                record(42, 500, 10, false), // shutdown
            ],
            windows: vec![],
            step_marks: vec![
                (1, SimTime::from_micros(160)),
                (2, SimTime::from_micros(290)),
                (3, SimTime::from_micros(400)),
            ],
            checkpoints: vec![(3, SimTime::from_micros(400))],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    #[test]
    fn training_records_strip_init_and_shutdown() {
        let p = profile();
        let steps: Vec<u64> = p.training_records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![1, 2, 3]);
    }

    #[test]
    fn steady_metrics_cover_step_window_only() {
        let p = profile();
        // Window 100..400 = 300us, busy 250us → idle 1/6.
        assert!((p.steady_tpu_idle_fraction() - (1.0 - 250.0 / 300.0)).abs() < 1e-9);
        // MXU 125us of 300us.
        assert!((p.steady_mxu_utilization() - 125.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn op_lookup_round_trips() {
        let p = profile();
        assert_eq!(p.op_name(OpId(0)), "fusion");
        assert_eq!(p.op_id("Reshape"), Some(OpId(1)));
        assert_eq!(p.op_id("nope"), None);
    }

    /// A profile written as the sink writes it comes back whole from its
    /// record directory.
    #[test]
    fn persists_as_its_record_directory() {
        use crate::{recover_records, BinaryStore, RecordStore, RunRecord};
        let p = profile();
        let dir = std::env::temp_dir().join(format!("tpupoint-profile-dir-{}", std::process::id()));
        let mut store = BinaryStore::create(&dir).unwrap();
        store.set_meta(&p.model, &p.dataset);
        store.set_catalog(&p.op_names, &p.op_uses_mxu, &p.op_on_host);
        for record in &p.steps {
            store.put_step(record).unwrap();
        }
        store
            .put_run(&RunRecord {
                step_marks: p.step_marks.clone(),
                checkpoints: p.checkpoints.clone(),
                ..RunRecord::default()
            })
            .unwrap();
        store.seal().unwrap();
        assert_eq!(recover_records(&dir).unwrap().to_profile(), p);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_profile_metrics_are_zero() {
        let p = Profile {
            model: String::new(),
            dataset: String::new(),
            op_names: vec![],
            op_uses_mxu: vec![],
            op_on_host: vec![],
            steps: vec![],
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        };
        assert_eq!(p.steady_tpu_idle_fraction(), 0.0);
        assert_eq!(p.steady_mxu_utilization(), 0.0);
    }
}
