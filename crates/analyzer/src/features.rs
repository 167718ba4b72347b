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
///
/// A NaN sum comes out as [`f64::NAN`]: which NaN an addition yields
/// depends on the operand order the compiler picks at each call site, so
/// one NaN keeps every caller, the lane kernels included, equal bit for
/// bit.
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    if sum.is_nan() {
        f64::NAN
    } else {
        sum
    }
}

/// Lanes of the interleaved distance kernels.
pub(crate) const LANES: usize = 4;

/// Whether this CPU runs AVX2, which [`avx2_twin!`] dispatches on. The
/// first call also sets the `analyzer.lanes_avx2` gauge: 1 when the lane
/// kernels run at AVX2 width, 0 when they fall back to the baseline
/// build's, which is the degraded case.
pub(crate) fn has_avx2() -> bool {
    #[cfg(test)]
    if BASELINE_ONLY.load(std::sync::atomic::Ordering::Relaxed) {
        return false;
    }
    static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *HAS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        tpupoint_obs::metrics()
            .gauge("analyzer.lanes_avx2")
            .set(f64::from(u8::from(has)));
        has
    })
}

/// Makes [`has_avx2`] read false, so a test can run the baseline copy of
/// every twin on a CPU that has AVX2.
#[cfg(test)]
pub(crate) static BASELINE_ONLY: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Evaluates `$body` in one of two copies: one compiled with AVX2
/// enabled, when the CPU has it ([`has_avx2`]), and the baseline one
/// otherwise. `$body` is a call of an `#[inline(always)]` function whose
/// hot path is `#[inline(always)]` down to [`dist2_rows`], so each copy
/// holds its own build of the whole loop nest; AVX2 then holds a lane
/// block of four `f64` in one register where the baseline needs two.
/// Only `avx2` is enabled and Rust never contracts a multiply and an add
/// into an FMA, so both copies perform the same IEEE operations in the
/// same order and return the same bits.
macro_rules! avx2_twin {
    ($body:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            fn avx2<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            if $crate::features::has_avx2() {
                let twin = || $body;
                // SAFETY: `avx2` runs AVX2 instructions, and this CPU has
                // them (`has_avx2`).
                unsafe { avx2(twin) }
            } else {
                $body
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            $body
        }
    }};
}
pub(crate) use avx2_twin;

/// Dimensions [`dist2_rows`] sums between two tests of its bounds.
const BOUND_EVERY: usize = 8;

/// [`dist2`] of each of `S` rows `xs` to each of [`LANES`] rows at once,
/// bit for bit, measured only as far as `bounds` need: `d[s][j]` is
/// `dist2(rows[j], xs[s])`, tested against `bounds[s]`.
///
/// Each lane sums its squared differences in dimension order from
/// `-0.0`, exactly as `Iterator::sum` does, so interleaving only overlaps
/// independent addition chains (Rust never contracts them to FMA). A NaN
/// lane comes out as [`f64::NAN`], as in [`dist2`].
///
/// Every [`BOUND_EVERY`] dimensions the scan stops once every lane's
/// partial sum is above its bound, and returns those partial sums. A test
/// against the bound reads the same on them as on the full sums: under
/// round-to-nearest, adding a non-negative square never makes a sum
/// smaller, so a full sum is above the bound too, or NaN, which passes no
/// comparison. A NaN partial sum is never above a bound, so its lane runs
/// to the end. With infinite bounds every lane is measured in full.
#[inline(always)]
pub(crate) fn dist2_rows<const S: usize>(
    rows: [&[f64]; LANES],
    xs: [&[f64]; S],
    bounds: [f64; S],
) -> [[f64; LANES]; S] {
    let d = rows[0].len();
    debug_assert!(rows.iter().chain(&xs).all(|row| row.len() == d));
    let mut acc = [[-0.0f64; LANES]; S];
    let mut start = 0;
    while start < d {
        let end = (start + BOUND_EVERY).min(d);
        let [r0, r1, r2, r3] = rows.map(|row| &row[start..end]);
        let ys = xs.map(|x| &x[start..end]);
        for t in 0..end - start {
            let r = [r0[t], r1[t], r2[t], r3[t]];
            for (acc, y) in acc.iter_mut().zip(ys) {
                let y = y[t];
                for j in 0..LANES {
                    let e = r[j] - y;
                    acc[j] += e * e;
                }
            }
        }
        if acc
            .iter()
            .zip(bounds)
            .all(|(acc, bound)| acc.iter().all(|&a| a > bound))
        {
            return acc;
        }
        start = end;
    }
    for a in acc.iter_mut().flatten() {
        if a.is_nan() {
            *a = f64::NAN;
        }
    }
    acc
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

    /// Each AVX2 twin against its baseline copy on the same inputs: the
    /// neighbor lists and eps of DBSCAN's scans, and the labels,
    /// centroids and SSE of a k-means seeding and descent. On a CPU
    /// without AVX2 both runs take the baseline copy.
    #[test]
    fn avx2_twins_match_their_baseline_copies_bit_for_bit() {
        use crate::dbscan::{auto_eps, NeighborCache};
        use crate::kmeans::{descend, seed_centroids, Points};
        use std::sync::atomic::Ordering;
        use tpupoint_simcore::SimRng;

        let mut rng = SimRng::seed_from(21);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let center = (i % 5) as f64;
                (0..78)
                    .map(|_| center + rng.standard_normal() * 0.3)
                    .collect()
            })
            .collect();
        let matrix = FeatureMatrix {
            steps: (0..rows.len() as u64).collect(),
            rows,
        };
        let flat = matrix.rows.concat();
        let points = Points::new(&flat, matrix.len(), matrix.dims());
        let run = || {
            let eps = auto_eps(&matrix);
            let cache = NeighborCache::build(&matrix, eps);
            let lists: Vec<Vec<u32>> = (0..cache.len())
                .map(|i| cache.neighbors(i).to_vec())
                .collect();
            let (seeds, bounds) = seed_centroids(points, 7, &mut SimRng::seed_from(3));
            let mut descent = descend(points, seeds, 50, Some(bounds));
            let sse = descent.exact_sse(points);
            let centroid_bits: Vec<u64> = descent
                .centroids
                .iter()
                .flatten()
                .map(|x| x.to_bits())
                .collect();
            (
                eps.to_bits(),
                lists,
                descent.assignments,
                centroid_bits,
                sse.to_bits(),
            )
        };
        let twin = run();
        BASELINE_ONLY.store(true, Ordering::Relaxed);
        let baseline = run();
        BASELINE_ONLY.store(false, Ordering::Relaxed);
        assert!(
            twin == baseline,
            "an AVX2 twin differs from its baseline copy"
        );
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
