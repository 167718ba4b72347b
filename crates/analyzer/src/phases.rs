//! Phases: groups of steps with similar behaviour, plus the coverage and
//! top-operator statistics the paper reports on them.

use crate::ols::Segment;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tpupoint_profiler::{Profile, StepRecord};
use tpupoint_simcore::{SimDuration, SimTime};

/// One phase: a set of steps exhibiting the same behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Phase identifier (cluster label or segment index).
    pub id: usize,
    /// Member profile steps.
    pub steps: Vec<u64>,
    /// Accumulated operator time of the member steps.
    pub total_time: SimDuration,
    /// True if this phase collects DBSCAN noise points.
    pub is_noise: bool,
}

/// All phases of one summarization, ready for coverage queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSet {
    /// The phases, in construction order.
    pub phases: Vec<Phase>,
    /// Accumulated operator time over every step.
    pub total_time: SimDuration,
}

impl PhaseSet {
    /// Builds phases from per-record cluster labels (k-means/DBSCAN).
    /// Noise points (label `-1`) form their own phase, since the paper
    /// "consider\[s\] these unlabeled samples to be a cluster as well".
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `records` lengths differ.
    pub fn from_labels(records: &[StepRecord], labels: &[isize]) -> PhaseSet {
        assert_eq!(records.len(), labels.len(), "one label per record");
        let mut by_label: BTreeMap<isize, Phase> = BTreeMap::new();
        let mut total_time = SimDuration::ZERO;
        for (record, &label) in records.iter().zip(labels) {
            let time = record.total_duration();
            total_time += time;
            let next_id = by_label.len();
            let phase = by_label.entry(label).or_insert_with(|| Phase {
                id: next_id,
                steps: Vec::new(),
                total_time: SimDuration::ZERO,
                is_noise: label == -1,
            });
            phase.steps.push(record.step);
            phase.total_time += time;
        }
        PhaseSet {
            phases: by_label.into_values().collect(),
            total_time,
        }
    }

    /// Builds phases from contiguous OLS segments.
    pub fn from_segments(records: &[StepRecord], segments: &[Segment]) -> PhaseSet {
        let total_time = records.iter().map(StepRecord::total_duration).sum();
        let phases = segments
            .iter()
            .enumerate()
            .map(|(id, seg)| {
                let members = &records[seg.start..seg.end];
                Phase {
                    id,
                    steps: members.iter().map(|r| r.step).collect(),
                    total_time: members.iter().map(StepRecord::total_duration).sum(),
                    is_noise: false,
                }
            })
            .collect();
        PhaseSet { phases, total_time }
    }

    /// Phases ordered longest-first.
    pub fn by_time_desc(&self) -> Vec<&Phase> {
        let mut refs: Vec<&Phase> = self.phases.iter().collect();
        refs.sort_by(|a, b| b.total_time.cmp(&a.total_time).then(a.id.cmp(&b.id)));
        refs
    }

    /// Fraction of total time covered by the `n` longest phases —
    /// Figures 7, 8, and 9.
    pub fn coverage_top(&self, n: usize) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        let covered: SimDuration = self
            .by_time_desc()
            .into_iter()
            .take(n)
            .map(|p| p.total_time)
            .sum();
        covered.as_micros() as f64 / self.total_time.as_micros() as f64
    }

    /// Per-phase coverage fractions of the `n` longest phases (the stacked
    /// bars of Figures 7–9).
    pub fn top_coverages(&self, n: usize) -> Vec<f64> {
        if self.total_time.is_zero() {
            return Vec::new();
        }
        self.by_time_desc()
            .into_iter()
            .take(n)
            .map(|p| p.total_time.as_micros() as f64 / self.total_time.as_micros() as f64)
            .collect()
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True if there are no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// Top-`n` operators within a phase, split by execution side (the
/// structure of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopOps {
    /// Host-side `(op name, total duration, invocations)`, descending.
    pub host: Vec<(String, SimDuration, u64)>,
    /// TPU-side `(op name, total duration, invocations)`, descending.
    pub tpu: Vec<(String, SimDuration, u64)>,
}

/// Per-phase operator totals and time extents, gathered in one walk over
/// a profile's step records. A record counts toward every phase that
/// lists its step number (once per phase, however often the phase lists
/// it); steps missing from the profile contribute nothing.
#[derive(Debug)]
pub(crate) struct PhaseTotals<'a> {
    profile: &'a Profile,
    /// Operator ids covered by both `op_names` and `op_on_host`.
    n_ops: usize,
    /// Min event start to max event end over member records with events.
    extents: Vec<Option<(SimTime, SimTime)>>,
    /// Row-major `phases × n_ops`: accumulated `(duration, invocations)`
    /// of each op seen in a member record.
    ops: Vec<Option<(SimDuration, u64)>>,
}

impl<'a> PhaseTotals<'a> {
    /// Accumulates `phases` over `profile.steps`.
    ///
    /// # Panics
    ///
    /// Panics if a member record names an op id outside the profile's op
    /// tables.
    pub fn new(profile: &'a Profile, phases: &[Phase]) -> Self {
        let n_ops = profile.op_names.len().min(profile.op_on_host.len());
        let mut members: Vec<(u64, usize)> = phases
            .iter()
            .enumerate()
            .flat_map(|(i, phase)| phase.steps.iter().map(move |&step| (step, i)))
            .collect();
        members.sort_unstable();
        members.dedup();
        let mut extents: Vec<Option<(SimTime, SimTime)>> = vec![None; phases.len()];
        let mut ops = vec![None; phases.len() * n_ops];
        for record in &profile.steps {
            let first = members.partition_point(|&(step, _)| step < record.step);
            for &(_, i) in members[first..]
                .iter()
                .take_while(|&&(step, _)| step == record.step)
            {
                if !record.ops.is_empty() {
                    let extent = &mut extents[i];
                    *extent = Some(match *extent {
                        Some((lo, hi)) => (lo.min(record.first_start), hi.max(record.last_end)),
                        None => (record.first_start, record.last_end),
                    });
                }
                let row = &mut ops[i * n_ops..(i + 1) * n_ops];
                for (op, stats) in &record.ops {
                    let (total, count) = row[op.0 as usize].get_or_insert((SimDuration::ZERO, 0));
                    *total += stats.total;
                    *count += stats.count;
                }
            }
        }
        PhaseTotals {
            profile,
            n_ops,
            extents,
            ops,
        }
    }

    /// Time extent of phase `i`; `None` when no member record has events.
    pub fn extent(&self, i: usize) -> Option<(SimTime, SimTime)> {
        self.extents[i]
    }

    /// Top-`n` operators of phase `i` by accumulated duration, host and
    /// TPU ranked apart; ties keep ascending op id.
    pub fn top_operators(&self, i: usize, n: usize) -> TopOps {
        let row = &self.ops[i * self.n_ops..(i + 1) * self.n_ops];
        let mut host = Vec::new();
        let mut tpu = Vec::new();
        for (op, slot) in row.iter().enumerate() {
            if let Some((total, count)) = *slot {
                let side = if self.profile.op_on_host[op] {
                    &mut host
                } else {
                    &mut tpu
                };
                side.push((op, total, count));
            }
        }
        let named = |mut rows: Vec<(usize, SimDuration, u64)>| {
            rows.sort_by_key(|row| std::cmp::Reverse(row.1));
            rows.truncate(n);
            rows.into_iter()
                .map(|(op, total, count)| (self.profile.op_names[op].clone(), total, count))
                .collect()
        };
        TopOps {
            host: named(host),
            tpu: named(tpu),
        }
    }
}

/// Ranks the operators of `phase` by accumulated duration.
pub fn top_operators(profile: &Profile, phase: &Phase, n: usize) -> TopOps {
    PhaseTotals::new(profile, std::slice::from_ref(phase)).top_operators(0, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::{OpId, Track};

    fn record(step: u64, ops: &[(u32, u64, bool)]) -> StepRecord {
        let mut r = StepRecord::new(step);
        for &(op, dur, on_tpu) in ops {
            r.absorb(
                OpId(op),
                if on_tpu {
                    Track::TpuCore(0)
                } else {
                    Track::Host
                },
                SimTime::from_micros(step * 1000),
                SimDuration::from_micros(dur),
                SimDuration::ZERO,
            );
        }
        r
    }

    fn records() -> Vec<StepRecord> {
        vec![
            record(1, &[(0, 100, true), (1, 20, false)]),
            record(2, &[(0, 110, true), (1, 25, false)]),
            record(3, &[(2, 500, true)]),
            record(4, &[(0, 90, true)]),
        ]
    }

    #[test]
    fn labels_group_records_into_phases() {
        let recs = records();
        let set = PhaseSet::from_labels(&recs, &[0, 0, 1, 0]);
        assert_eq!(set.len(), 2);
        let p0 = &set.phases[0];
        assert_eq!(p0.steps, vec![1, 2, 4]);
        assert_eq!(p0.total_time.as_micros(), 100 + 20 + 110 + 25 + 90);
        assert!(!p0.is_noise);
    }

    #[test]
    fn noise_label_forms_a_noise_phase() {
        let recs = records();
        let set = PhaseSet::from_labels(&recs, &[-1, 0, 0, -1]);
        let noise = set
            .phases
            .iter()
            .find(|p| p.is_noise)
            .expect("noise phase exists");
        assert_eq!(noise.steps, vec![1, 4]);
    }

    #[test]
    fn segments_preserve_contiguity() {
        let recs = records();
        let set = PhaseSet::from_segments(
            &recs,
            &[Segment { start: 0, end: 2 }, Segment { start: 2, end: 4 }],
        );
        assert_eq!(set.len(), 2);
        assert_eq!(set.phases[0].steps, vec![1, 2]);
        assert_eq!(set.phases[1].steps, vec![3, 4]);
        assert_eq!(set.total_time.as_micros(), 845);
    }

    #[test]
    fn coverage_of_all_phases_is_one() {
        let recs = records();
        let set = PhaseSet::from_labels(&recs, &[0, 1, 2, 0]);
        assert!((set.coverage_top(10) - 1.0).abs() < 1e-12);
        let top1 = set.coverage_top(1);
        assert!(top1 > 0.0 && top1 < 1.0);
    }

    #[test]
    fn by_time_desc_orders_longest_first() {
        let recs = records();
        let set = PhaseSet::from_labels(&recs, &[0, 0, 1, 0]);
        let ordered = set.by_time_desc();
        assert!(ordered[0].total_time >= ordered[1].total_time);
    }

    #[test]
    fn top_coverages_sums_to_coverage() {
        let recs = records();
        let set = PhaseSet::from_labels(&recs, &[0, 1, 1, 2]);
        let fractions = set.top_coverages(2);
        let sum: f64 = fractions.iter().sum();
        assert!((sum - set.coverage_top(2)).abs() < 1e-12);
    }

    #[test]
    fn top_operators_split_host_and_tpu() {
        let recs = records();
        let profile = Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: vec![
                "fusion".into(),
                "OutfeedDequeueTuple".into(),
                "Reshape".into(),
            ],
            op_uses_mxu: vec![true, false, false],
            op_on_host: vec![false, true, false],
            steps: recs.clone(),
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        };
        let set = PhaseSet::from_labels(&recs, &[0, 0, 1, 0]);
        let top = top_operators(&profile, &set.phases[0], 5);
        assert_eq!(top.tpu[0].0, "fusion");
        assert_eq!(top.tpu[0].1.as_micros(), 300);
        assert_eq!(top.tpu[0].2, 3);
        assert_eq!(top.host[0].0, "OutfeedDequeueTuple");
        assert_eq!(top.host[0].2, 2);
    }

    /// The per-phase scan `top_operators` and the trace's phase extent
    /// made before [`PhaseTotals`]: a step set, a pass over every record
    /// and a `BTreeMap` of op totals.
    fn naive_totals(
        profile: &Profile,
        phase: &Phase,
        n: usize,
    ) -> (Option<(SimTime, SimTime)>, TopOps) {
        let members: std::collections::HashSet<u64> = phase.steps.iter().copied().collect();
        let mut extent: Option<(SimTime, SimTime)> = None;
        let mut acc: BTreeMap<OpId, (SimDuration, u64)> = BTreeMap::new();
        for record in profile.steps.iter().filter(|r| members.contains(&r.step)) {
            if !record.ops.is_empty() {
                extent = Some(
                    extent.map_or((record.first_start, record.last_end), |(lo, hi)| {
                        (lo.min(record.first_start), hi.max(record.last_end))
                    }),
                );
            }
            for (op, stats) in &record.ops {
                let entry = acc.entry(*op).or_insert((SimDuration::ZERO, 0));
                entry.0 += stats.total;
                entry.1 += stats.count;
            }
        }
        let mut host = Vec::new();
        let mut tpu = Vec::new();
        for (op, (total, count)) in acc {
            let row = (profile.op_name(op).to_owned(), total, count);
            if profile.op_on_host[op.0 as usize] {
                host.push(row);
            } else {
                tpu.push(row);
            }
        }
        for side in [&mut host, &mut tpu] {
            side.sort_by_key(|row| std::cmp::Reverse(row.1));
            side.truncate(n);
        }
        (extent, TopOps { host, tpu })
    }

    /// A profile with duplicated step numbers, empty records, zero-count
    /// op entries and durations drawn from a few values, so ties are
    /// common.
    fn random_profile(rng: &mut tpupoint_simcore::SimRng) -> Profile {
        let n_ops = rng.uniform_u64(1, 8) as usize;
        let mut steps = Vec::new();
        for _ in 0..rng.uniform_u64(0, 40) {
            let mut record = StepRecord::new(rng.uniform_u64(0, 30));
            for _ in 0..rng.uniform_u64(0, 6) {
                let op = OpId(rng.uniform_u64(0, n_ops as u64 - 1) as u32);
                if rng.chance(0.1) {
                    record.ops.entry(op).or_default();
                    continue;
                }
                record.absorb(
                    op,
                    Track::Host,
                    SimTime::from_micros(rng.uniform_u64(0, 1000)),
                    SimDuration::from_micros(10 * rng.uniform_u64(0, 4)),
                    SimDuration::ZERO,
                );
            }
            steps.push(record);
        }
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: (0..n_ops).map(|i| format!("op{i}")).collect(),
            op_uses_mxu: vec![false; n_ops],
            op_on_host: (0..n_ops).map(|_| rng.chance(0.5)).collect(),
            steps,
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    #[test]
    fn phase_totals_match_a_per_phase_scan() {
        let mut rng = tpupoint_simcore::SimRng::seed_from(0x7074);
        for _ in 0..300 {
            let profile = random_profile(&mut rng);
            // Hand-built phases: overlapping, repeating steps, naming
            // steps the profile lacks, or empty.
            let phases: Vec<Phase> = (0..rng.uniform_u64(0, 6))
                .map(|id| Phase {
                    id: id as usize,
                    steps: (0..rng.uniform_u64(0, 12))
                        .map(|_| rng.uniform_u64(0, 40))
                        .collect(),
                    total_time: SimDuration::ZERO,
                    is_noise: false,
                })
                .collect();
            let totals = PhaseTotals::new(&profile, &phases);
            for (i, phase) in phases.iter().enumerate() {
                for n in [0, 1, 3, 10] {
                    let (extent, top) = naive_totals(&profile, phase, n);
                    assert_eq!(totals.extent(i), extent, "phase {phase:?}");
                    assert_eq!(totals.top_operators(i, n), top, "phase {phase:?}, n {n}");
                    assert_eq!(top_operators(&profile, phase, n), top);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one label per record")]
    fn label_length_mismatch_panics() {
        let recs = records();
        let _ = PhaseSet::from_labels(&recs, &[0, 1]);
    }
}
