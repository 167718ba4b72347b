//! Per-step feature vectors.
//!
//! "Extract the records from all statistical profiles and aggregate records
//! together using the TPU step numbers. For each step, we define dimensions
//! in terms of TensorFlow operations, the accumulated number of invocations,
//! and total durations" (Section IV-A). Each step therefore contributes a
//! vector with two dimensions per operator: invocation count and total
//! duration. Dimensions are min-max scaled so that counts (small integers)
//! and durations (microseconds) are comparable, then optionally reduced
//! with PCA to at most 100 dimensions.

use crate::pca;
use tpupoint_profiler::Profile;

/// Maximum feature dimensionality after PCA, per the paper.
pub const MAX_DIMS: usize = 100;

/// A dense steps × features matrix with its row labels.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    /// Profile step number of each row.
    pub steps: Vec<u64>,
    /// Row-major feature rows; all rows have equal length.
    pub rows: Vec<Vec<f64>>,
}

impl FeatureMatrix {
    /// Number of rows (steps).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    pub fn dims(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Builds raw (count, duration) features for every record in the
    /// profile, including the synthetic init/shutdown records, min-max
    /// scaled per dimension.
    pub fn from_profile(profile: &Profile) -> FeatureMatrix {
        let n_ops = profile.op_names.len();
        let build = |record: &tpupoint_profiler::StepRecord| -> Vec<f64> {
            let mut row = vec![0.0; 2 * n_ops];
            for (op, stats) in &record.ops {
                let i = op.0 as usize;
                row[2 * i] = stats.count as f64;
                row[2 * i + 1] = stats.total.as_micros() as f64;
            }
            row
        };
        let rows = profile.steps.iter().map(build).collect();
        let steps = profile.steps.iter().map(|record| record.step).collect();
        let mut matrix = FeatureMatrix { steps, rows };
        matrix.minmax_scale();
        matrix
    }

    /// Min-max scales each dimension into `[0, 1]`; constant dimensions
    /// become 0.
    pub fn minmax_scale(&mut self) {
        let dims = self.dims();
        if dims == 0 {
            return;
        }
        let bounds: Vec<(f64, f64)> = (0..dims)
            .map(|d| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for row in &self.rows {
                    lo = lo.min(row[d]);
                    hi = hi.max(row[d]);
                }
                (lo, hi)
            })
            .collect();
        for row in &mut self.rows {
            for (x, &(lo, hi)) in row.iter_mut().zip(&bounds) {
                let range = hi - lo;
                *x = if range > 0.0 { (*x - lo) / range } else { 0.0 };
            }
        }
    }

    /// Applies PCA, keeping at most `max_dims` components (and at most the
    /// number of informative components). Returns the reduced matrix.
    pub fn reduced(&self, max_dims: usize) -> FeatureMatrix {
        if self.is_empty() || self.dims() <= max_dims {
            return self.clone();
        }
        let projected = pca::project(&self.rows, max_dims);
        FeatureMatrix {
            steps: self.steps.clone(),
            rows: projected,
        }
    }

    /// Squared Euclidean distance between two rows.
    pub fn dist2(&self, a: usize, b: usize) -> f64 {
        dist2(&self.rows[a], &self.rows[b])
    }
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_profiler::StepRecord;
    use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

    /// `(op id, invocation count, total duration)` triples per step.
    type StepSpec<'a> = (u64, &'a [(u32, u64, u64)]);

    fn profile_with_steps(specs: &[StepSpec<'_>]) -> Profile {
        let max_op = specs
            .iter()
            .flat_map(|(_, ops)| ops.iter().map(|(o, _, _)| *o))
            .max()
            .unwrap_or(0) as usize;
        let steps = specs
            .iter()
            .map(|(step, ops)| {
                let mut r = StepRecord::new(*step);
                for &(op, count, dur) in ops.iter() {
                    for i in 0..count {
                        r.absorb(
                            OpId(op),
                            Track::TpuCore(0),
                            SimTime::from_micros(i),
                            SimDuration::from_micros(dur / count.max(1)),
                            SimDuration::ZERO,
                        );
                    }
                }
                r
            })
            .collect();
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: (0..=max_op).map(|i| format!("op{i}")).collect(),
            op_uses_mxu: vec![false; max_op + 1],
            op_on_host: vec![false; max_op + 1],
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
    fn rows_align_with_steps_and_ops() {
        let p = profile_with_steps(&[(1, &[(0, 2, 100)]), (2, &[(1, 1, 50)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dims(), 4); // 2 ops x (count, duration)
        assert_eq!(m.steps, vec![1, 2]);
    }

    #[test]
    fn scaling_maps_each_dimension_to_unit_interval() {
        let p = profile_with_steps(&[(1, &[(0, 1, 10)]), (2, &[(0, 3, 30)]), (3, &[(0, 5, 50)])]);
        let m = FeatureMatrix::from_profile(&p);
        for d in 0..m.dims() {
            let vals: Vec<f64> = m.rows.iter().map(|r| r[d]).collect();
            assert!(vals.iter().cloned().fold(f64::INFINITY, f64::min) >= 0.0);
            assert!(vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max) <= 1.0);
        }
        // The count dimension of op0 spans 1..5 → scaled endpoints 0 and 1.
        assert_eq!(m.rows[0][0], 0.0);
        assert_eq!(m.rows[2][0], 1.0);
    }

    #[test]
    fn identical_steps_produce_identical_rows() {
        let p = profile_with_steps(&[(1, &[(0, 2, 100)]), (2, &[(0, 2, 100)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.rows[0], m.rows[1]);
        assert_eq!(m.dist2(0, 1), 0.0);
    }

    #[test]
    fn reduction_caps_dimensionality() {
        // 60 ops → 120 raw dims; reduce to 10.
        let ops: Vec<(u32, u64, u64)> = (0..60).map(|i| (i, 1, 10 + i as u64)).collect();
        let specs: Vec<StepSpec<'_>> = vec![(1, &ops[..]), (2, &ops[..]), (3, &ops[..10])];
        let p = profile_with_steps(&specs);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.dims(), 120);
        let r = m.reduced(10);
        assert!(r.dims() <= 10);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn reduction_is_identity_when_small() {
        let p = profile_with_steps(&[(1, &[(0, 1, 10)]), (2, &[(0, 2, 20)])]);
        let m = FeatureMatrix::from_profile(&p);
        assert_eq!(m.reduced(MAX_DIMS), m);
    }

    #[test]
    fn dist2_is_symmetric_and_zero_on_self() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.0, 1.0, 5.0];
        assert_eq!(dist2(&a, &b), dist2(&b, &a));
        assert_eq!(dist2(&a, &a), 0.0);
        assert_eq!(dist2(&a, &b), 1.0 + 1.0 + 4.0);
    }
}
