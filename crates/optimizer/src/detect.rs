//! Online detection of the performance-critical phase.
//!
//! "If TPUPoint-Profiler observes the most common pattern of operators …
//! (e.g., reshape, infeed, fusion, outfeed) within the most time-consuming
//! phases, or the current phase accounts for more than half of the
//! aggregated execution time, TPUPoint-Optimizer will designate the
//! current code segment as having already entered the performance-critical
//! phase" (Section VII-B).

use std::collections::HashMap;
use tpupoint_analyzer::ols::step_similarity;
use tpupoint_profiler::{Profile, StepRecord};
use tpupoint_simcore::{OpId, SimDuration};

/// The operator names of the paper's common bottleneck pattern.
pub const CRITICAL_PATTERN: [&str; 6] = [
    "Reshape",
    "fusion",
    "InfeedDequeueTuple",
    "OutfeedEnqueueTuple",
    "TransferBufferToInfeedLocked",
    "OutfeedDequeueTuple",
];

/// Streaming detector fed one step record at a time.
#[derive(Debug)]
pub struct CriticalPhaseDetector {
    pattern_ids: Vec<OpId>,
    /// Accumulated op time of the current (OLS-merged) phase.
    phase_ops: HashMap<OpId, SimDuration>,
    phase_time: SimDuration,
    total_time: SimDuration,
    prev: Option<StepRecord>,
    threshold: f64,
    triggered: bool,
}

impl CriticalPhaseDetector {
    /// Builds a detector resolving the pattern names against a profile's
    /// op table. `threshold` is the OLS similarity for phase continuation
    /// (the paper's default 0.7).
    pub fn new(profile: &Profile, threshold: f64) -> Self {
        let pattern_ids = CRITICAL_PATTERN
            .iter()
            .filter_map(|name| profile.op_id(name))
            .collect();
        CriticalPhaseDetector {
            pattern_ids,
            phase_ops: HashMap::new(),
            phase_time: SimDuration::ZERO,
            total_time: SimDuration::ZERO,
            prev: None,
            threshold,
            triggered: false,
        }
    }

    /// True once the detector has designated the critical phase.
    pub fn triggered(&self) -> bool {
        self.triggered
    }

    /// Feeds the next step record; returns `true` if the critical phase
    /// has been entered (sticky).
    pub fn observe(&mut self, record: &StepRecord) -> bool {
        let same_phase = match &self.prev {
            None => true,
            Some(prev) => step_similarity(prev, record) >= self.threshold,
        };
        if !same_phase {
            self.phase_ops.clear();
            self.phase_time = SimDuration::ZERO;
        }
        self.prev = Some(record.clone());
        for (op, stats) in &record.ops {
            *self.phase_ops.entry(*op).or_default() += stats.total;
        }
        let step_time = record.total_duration();
        self.phase_time += step_time;
        self.total_time += step_time;

        if !self.triggered {
            self.triggered = self.pattern_dominates() || self.phase_dominates();
        }
        self.triggered
    }

    /// Are at least two pattern operators among the phase's top five?
    fn pattern_dominates(&self) -> bool {
        let mut ops: Vec<(&OpId, &SimDuration)> = self.phase_ops.iter().collect();
        ops.sort_by(|a, b| b.1.cmp(a.1));
        let top5: Vec<OpId> = ops.into_iter().take(5).map(|(op, _)| *op).collect();
        let hits = top5
            .iter()
            .filter(|op| self.pattern_ids.contains(op))
            .count();
        hits >= 2
    }

    /// Does the current phase exceed half of aggregate time (and enough
    /// of it to be meaningful)?
    fn phase_dominates(&self) -> bool {
        !self.total_time.is_zero()
            && self.phase_time.as_micros() * 2 > self.total_time.as_micros()
            && self.phase_time > SimDuration::from_millis(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::{SimTime, Track};

    fn profile_shell(op_names: &[&str]) -> Profile {
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: op_names.iter().map(|s| s.to_string()).collect(),
            op_uses_mxu: vec![false; op_names.len()],
            op_on_host: vec![false; op_names.len()],
            steps: vec![],
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    fn record(step: u64, ops: &[(u32, u64)]) -> StepRecord {
        let mut r = StepRecord::new(step);
        for &(op, dur) in ops {
            r.absorb(
                OpId(op),
                Track::TpuCore(0),
                SimTime::from_micros(step * 10_000),
                SimDuration::from_micros(dur),
                SimDuration::ZERO,
            );
        }
        r
    }

    #[test]
    fn bottleneck_pattern_triggers() {
        // Ops: 0=Reshape, 1=fusion, 2=MatMul.
        let profile = profile_shell(&["Reshape", "fusion", "MatMul"]);
        let mut det = CriticalPhaseDetector::new(&profile, 0.7);
        // Reshape and fusion dominate → two pattern ops in the top five.
        let triggered = det.observe(&record(1, &[(0, 5_000), (1, 4_000), (2, 100)]));
        assert!(triggered);
        assert!(det.triggered());
    }

    #[test]
    fn dominant_phase_triggers_even_without_pattern() {
        let profile = profile_shell(&["MatMul", "Relu"]);
        let mut det = CriticalPhaseDetector::new(&profile, 0.7);
        let mut triggered = false;
        for step in 1..=5 {
            triggered = det.observe(&record(step, &[(0, 2_000), (1, 500)]));
        }
        // A single phase holds 100% > 50% of aggregate time.
        assert!(triggered);
    }

    #[test]
    fn phase_reset_on_dissimilar_step() {
        // No pattern ops, so only the >50% rule can fire.
        let profile = profile_shell(&["MatMul", "Relu", "Mean", "Sum"]);
        let mut det = CriticalPhaseDetector::new(&profile, 0.7);
        // 0.8 ms: the whole run so far, but under the 1 ms floor.
        assert!(!det.observe(&record(1, &[(0, 400), (1, 400)])));
        // A disjoint step starts a new phase of 0.6 ms out of 1.4 ms. Had
        // the phase carried over, it would hold all 1.4 ms and trigger.
        assert!(!det.observe(&record(2, &[(2, 300), (3, 300)])));
        assert!(!det.triggered());
    }

    #[test]
    fn triggering_is_sticky() {
        let profile = profile_shell(&["Reshape", "fusion"]);
        let mut det = CriticalPhaseDetector::new(&profile, 0.7);
        assert!(det.observe(&record(1, &[(0, 1_000), (1, 1_000)])));
        // Later unrelated steps keep it triggered.
        assert!(det.observe(&record(2, &[(0, 1), (1, 1)])));
    }

    #[test]
    fn missing_pattern_ops_in_catalog_are_tolerated() {
        let profile = profile_shell(&["MatMul"]);
        let mut det = CriticalPhaseDetector::new(&profile, 0.7);
        // No pattern ids resolvable; only the >50% rule applies.
        let triggered = det.observe(&record(1, &[(0, 2_000)]));
        assert!(triggered, ">50%% rule still fires");
    }
}
