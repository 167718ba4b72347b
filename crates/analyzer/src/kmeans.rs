//! k-means clustering, "implemented like SimPoint does" (Section IV-A):
//! run for k = 1..15 and pick the knee of the sum-of-squared-distances
//! curve with the elbow method.
//!
//! Three pieces of performance work live here, all bit-deterministic for
//! any thread count:
//!
//! * the Lloyd **assignment step** is bound-pruned (Hamerly): every row
//!   carries an upper bound on its distance to its own centroid and a
//!   lower bound on its distance to every other one, so a row whose
//!   bounds settle its nearest centroid skips the distance pass. The
//!   bounds are kept on the safe side of rounding and a row is skipped
//!   only when they clear each other by a relative margin, so the argmin
//!   (lowest index on ties) and every output bit equal the unpruned
//!   descent's;
//! * the rows that still need a full pass fan out over the pool when
//!   there are enough of them (each row's nearest centroid is
//!   independent);
//! * the k-**sweep** **warm-starts** run k from run k-1's final
//!   centroids plus one k-means++ pick, which replaces `n_init` full
//!   restarts per k with a single Lloyd descent and keeps the SSD curve
//!   monotone non-increasing by construction. Run k-1's bounds carry
//!   over, so the descent starts pruned too. Independent fits per k are
//!   one [`run`] each.

use crate::elbow::elbow_index;
use crate::features::{dist2, FeatureMatrix};
use tpupoint_simcore::SimRng;

/// Count of rows needing a full distance pass below which the assignment
/// step stays serial; fewer rows lose more to task hand-off than they
/// gain from the pool. End to end the pooled step is within noise of a
/// serial one: on perfbench `analyze-sweep` (2-core host, ten
/// alternating 15 s pairs) the serial step won 6 pairs, with a median
/// 1.0% lower.
const PAR_ASSIGN_MIN_ROWS: usize = 256;

/// Relative margin by which every stored bound is loosened and by which
/// an upper bound must clear a lower one before a row is skipped. It
/// dwarfs the relative rounding error of `dist2` (about `dims` units in
/// the last place), of `sqrt`, and of the bound arithmetic.
const SLACK: f64 = 1e-9;

/// Absolute margin on every bound, covering underflow of squared
/// coordinate differences near zero.
const TINY: f64 = 1e-150;

/// Configuration of one k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Lloyd iterations cap.
    pub max_iters: usize,
    /// Independent restarts; the lowest-SSE run wins.
    pub n_init: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            k: 5,
            max_iters: 50,
            n_init: 3,
            seed: 0x7e57,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index of each row.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of rows to their centroids.
    pub sse: f64,
}

/// A row-major view of `n` points of `dims` coordinates each: the layout
/// the Lloyd kernel walks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Points<'a> {
    data: &'a [f64],
    n: usize,
    dims: usize,
}

impl<'a> Points<'a> {
    /// Views `data` as `n` rows of `dims` values.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly `n * dims` values.
    pub(crate) fn new(data: &'a [f64], n: usize, dims: usize) -> Points<'a> {
        assert_eq!(data.len(), n * dims, "points are n rows of dims values");
        Points { data, n, dims }
    }

    fn len(&self) -> usize {
        self.n
    }

    pub(crate) fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    pub(crate) fn rows(self) -> impl Iterator<Item = &'a [f64]> {
        (0..self.n).map(move |i| self.row(i))
    }
}

/// Per-row distance bounds against one set of centroids: each row's
/// candidate nearest centroid, an upper bound on its distance to that
/// centroid and a lower bound on its distance to every other one.
/// Distances are Euclidean (not squared), and each bound is loosened by
/// [`SLACK`] and [`TINY`] whenever it is derived, so it stays valid for
/// the exact distance whatever the rounding. A row with no usable bounds
/// has an infinite upper and a zero lower bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowBounds {
    /// The centroids the bounds refer to.
    pub(crate) centroids: Vec<Vec<f64>>,
    /// Candidate nearest centroid of each row.
    pub(crate) nearest: Vec<usize>,
    upper: Vec<f64>,
    lower: Vec<f64>,
}

/// A safe upper bound on the distance whose computed square is `d2`.
fn upper_of(d2: f64) -> f64 {
    d2.sqrt() * (1.0 + SLACK) + TINY
}

/// A safe lower bound on the distance whose computed square is `d2`; an
/// overflowed square still bounds the distance below by `sqrt(MAX)`.
fn lower_of(d2: f64) -> f64 {
    d2.min(f64::MAX).sqrt() * (1.0 - SLACK) - TINY
}

/// Whether an upper bound on one distance clears a lower bound on another
/// by more than the rounding of `dist2` can blur: the first distance then
/// computes strictly smaller than the second.
fn clears(upper: f64, lower: f64) -> bool {
    upper * (1.0 + SLACK) < lower
}

/// How far a centroid moved, as a safe upper bound: zero when it did not
/// move, infinite when the move is undefined.
fn drift(from: &[f64], to: &[f64]) -> f64 {
    if from == to {
        return 0.0;
    }
    let d2 = dist2(from, to);
    if d2.is_nan() {
        f64::INFINITY
    } else {
        upper_of(d2)
    }
}

/// Folds centroid `c` at computed squared distance `d` into a running
/// (best, argmin, second best). The strict comparison keeps the lowest
/// index on ties and never picks a NaN distance, exactly like
/// [`nearest`]; a tie lands in `second`, so a tied row is never settled
/// by its bounds.
fn fold_nearest(d: f64, c: usize, best: &mut (f64, usize, f64)) {
    if d < best.0 {
        best.2 = best.0;
        best.0 = d;
        best.1 = c;
    } else if d < best.2 {
        best.2 = d;
    }
}

impl RowBounds {
    /// Bounds that settle no row.
    fn unknown(centroids: &[Vec<f64>], n: usize) -> RowBounds {
        RowBounds {
            centroids: centroids.to_vec(),
            nearest: vec![0; n],
            upper: vec![f64::INFINITY; n],
            lower: vec![0.0; n],
        }
    }

    /// Forgets row `i`'s bounds, so the next assignment step computes it
    /// in full. Rows past the bounds' length are unknown already.
    pub(crate) fn invalidate(&mut self, i: usize) {
        if i < self.upper.len() {
            self.upper[i] = f64::INFINITY;
            self.lower[i] = 0.0;
        }
    }

    /// Whether row `i`'s bounds prove that its candidate is its nearest
    /// centroid under the computed squared distances.
    fn settled(&self, i: usize) -> bool {
        clears(self.upper[i], self.lower[i])
    }

    /// Moves the bounds onto `centroids` (same count): each row's upper
    /// bound grows by its own centroid's drift and its lower bound
    /// shrinks by the largest drift among the others.
    fn move_to(&mut self, centroids: &[Vec<f64>]) {
        let drifts: Vec<f64> = self
            .centroids
            .iter()
            .zip(centroids)
            .map(|(from, to)| drift(from, to))
            .collect();
        let (mut top, mut top_c, mut second) = (0.0f64, usize::MAX, 0.0f64);
        for (c, &m) in drifts.iter().enumerate() {
            if m > top {
                second = top;
                top = m;
                top_c = c;
            } else if m > second {
                second = m;
            }
        }
        if top > 0.0 {
            for ((&c, upper), lower) in self
                .nearest
                .iter()
                .zip(&mut self.upper)
                .zip(&mut self.lower)
            {
                *upper = (*upper + drifts[c]) * (1.0 + SLACK) + TINY;
                let others = if c == top_c { second } else { top };
                *lower = (*lower - others) * (1.0 - SLACK) - TINY;
            }
        }
        self.centroids.clone_from_slice(centroids);
    }

    /// Adds one centroid, given each row's computed squared distance to
    /// it; candidates stay, lower bounds drop to the new distance where
    /// it is closer.
    fn push_centroid(&mut self, centroid: Vec<f64>, d2: &[f64]) {
        for (lower, &d) in self.lower.iter_mut().zip(d2) {
            *lower = lower.min(lower_of(d));
        }
        self.centroids.push(centroid);
    }

    /// Settles row `row` against `centroids`: the candidate's exact
    /// distance first, then, if that does not clear the lower bound, a
    /// full pass. Returns (nearest, upper, lower); the nearest is what
    /// [`nearest`] returns.
    fn settle(&self, i: usize, row: &[f64], centroids: &[Vec<f64>]) -> (usize, f64, f64) {
        let candidate = self.nearest[i];
        let d2_candidate = dist2(row, &centroids[candidate]);
        let upper = upper_of(d2_candidate);
        if clears(upper, self.lower[i]) {
            return (candidate, upper, self.lower[i]);
        }
        let mut best = (f64::INFINITY, 0, f64::INFINITY);
        for (c, centroid) in centroids.iter().enumerate() {
            let d = if c == candidate {
                d2_candidate
            } else {
                dist2(row, centroid)
            };
            fold_nearest(d, c, &mut best);
        }
        (best.1, upper_of(best.0), lower_of(best.2))
    }
}

/// Runs k-means on the rows of `matrix`.
///
/// # Panics
///
/// Panics if `config.k` is zero.
pub fn run(matrix: &FeatureMatrix, config: &KmeansConfig) -> KmeansResult {
    let flat = matrix.rows.concat();
    run_points(Points::new(&flat, matrix.len(), matrix.dims()), config).0
}

/// [`run`] on a flat point view, also returning the winner's bounds.
fn run_points(points: Points<'_>, config: &KmeansConfig) -> (KmeansResult, RowBounds) {
    assert!(config.k > 0, "k must be positive");
    let n = points.len();
    if n == 0 {
        let empty = KmeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            sse: 0.0,
        };
        return (empty, RowBounds::default());
    }
    let k = config.k.min(n);
    let mut best: Option<(KmeansResult, RowBounds)> = None;
    for restart in 0..config.n_init.max(1) {
        let mut rng = SimRng::seed_from(config.seed ^ (restart as u64).wrapping_mul(0x9E37));
        let (seeds, bounds) = seed_centroids(points, k, &mut rng);
        let result = lloyd_from(points, seeds, config.max_iters, Some(bounds));
        if best.as_ref().is_none_or(|b| result.0.sse < b.0.sse) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

/// One weighted k-means++ pick against the current squared distances.
pub(crate) fn kmeanspp_pick(min_d2: &[f64], rng: &mut SimRng) -> usize {
    let n = min_d2.len();
    let total: f64 = min_d2.iter().sum();
    if total <= 0.0 {
        return rng.uniform_u64(0, n as u64 - 1) as usize;
    }
    let mut target = rng.uniform_f64() * total;
    let mut chosen = n - 1;
    for (i, &w) in min_d2.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            chosen = i;
            break;
        }
    }
    chosen
}

/// k-means++ seeding of `k` centroids. The row-to-seed distances it
/// computes anyway come back as bounds against the seeds, so the first
/// Lloyd assignment step does not repeat them.
///
/// A row skips its distance to a new seed when the triangle inequality
/// puts that seed farther than the row's nearest seed by the bounds'
/// margin: its running minimum and nearest seed provably stay as they
/// are, so every pick draws from the same weights as a full pass.
pub(crate) fn seed_centroids(
    points: Points<'_>,
    k: usize,
    rng: &mut SimRng,
) -> (Vec<Vec<f64>>, RowBounds) {
    let n = points.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(
        points
            .row(rng.uniform_u64(0, n as u64 - 1) as usize)
            .to_vec(),
    );
    let mut best = vec![(f64::INFINITY, 0, f64::INFINITY); n];
    // Lower bounds on the distances to the seeds a row skipped.
    let mut skipped = vec![f64::INFINITY; n];
    let mut min_d2: Vec<f64> = points
        .rows()
        .zip(&mut best)
        .map(|(r, best)| {
            let d = dist2(r, &centroids[0]);
            fold_nearest(d, 0, best);
            d
        })
        .collect();
    while centroids.len() < k {
        let idx = kmeanspp_pick(&min_d2, rng);
        centroids.push(points.row(idx).to_vec());
        let c = centroids.len() - 1;
        let apart: Vec<f64> = centroids[..c]
            .iter()
            .map(|seed| lower_of(dist2(seed, &centroids[c])))
            .collect();
        for (i, row) in points.rows().enumerate() {
            let upper = upper_of(best[i].0);
            let beyond = (apart[best[i].1] - upper) * (1.0 - SLACK) - TINY;
            if clears(upper, beyond) {
                skipped[i] = skipped[i].min(beyond);
                continue;
            }
            let d = dist2(row, &centroids[c]);
            min_d2[i] = min_d2[i].min(d);
            fold_nearest(d, c, &mut best[i]);
        }
    }
    let bounds = RowBounds {
        nearest: best.iter().map(|b| b.1).collect(),
        upper: best.iter().map(|b| upper_of(b.0)).collect(),
        lower: best
            .iter()
            .zip(&skipped)
            .map(|(b, &skipped)| lower_of(b.2).min(skipped))
            .collect(),
        centroids: centroids.clone(),
    };
    (centroids, bounds)
}

/// The nearest centroid of one row.
pub(crate) fn nearest(row: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best_c = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let dd = dist2(row, centroid);
        if dd < best_d {
            best_d = dd;
            best_c = c;
        }
    }
    best_c
}

/// Lloyd iterations from the given initial centroids, optionally starting
/// from `bounds` against some earlier centroids of the same count (the
/// seeding's, or a previous descent's over the same points; rows beyond
/// the bounds' length start unknown). Returns the result and its bounds
/// against the final centroids, ready to carry into another descent.
///
/// Each assignment step moves the bounds by how far the centroids moved,
/// skips the rows they settle, and computes the rest — in the pool when
/// at least [`PAR_ASSIGN_MIN_ROWS`] of them remain. A settled row's
/// candidate is provably what the full pass would pick, the update step
/// and the SSE fold serially in row order, so the result is bit-identical
/// to the unpruned descent for any thread count.
pub(crate) fn lloyd_from(
    points: Points<'_>,
    mut centroids: Vec<Vec<f64>>,
    max_iters: usize,
    bounds: Option<RowBounds>,
) -> (KmeansResult, RowBounds) {
    let n = points.len();
    let d = points.dims;
    let k = centroids.len();
    let pool = tpupoint_par::pool();
    let mut b = match bounds {
        Some(mut b) if b.centroids.len() == k => {
            b.nearest.resize(n, 0);
            b.upper.resize(n, f64::INFINITY);
            b.lower.resize(n, 0.0);
            b.move_to(&centroids);
            b
        }
        _ => RowBounds::unknown(&centroids, n),
    };
    let mut assignments = vec![0usize; n];
    for iter in 0..max_iters {
        // Assign: only the rows the bounds leave open.
        let open: Vec<usize> = (0..n).filter(|&i| !b.settled(i)).collect();
        let settle = |i: usize| b.settle(i, points.row(i), &centroids);
        let settled: Vec<(usize, f64, f64)> =
            if open.len() >= PAR_ASSIGN_MIN_ROWS && pool.size() > 1 {
                pool.par_map(&open, |_, &i| settle(i))
            } else {
                open.iter().map(|&i| settle(i)).collect()
            };
        for (&i, (c, upper, lower)) in open.iter().zip(settled) {
            b.nearest[i] = c;
            b.upper[i] = upper;
            b.lower[i] = lower;
        }
        let changed = b.nearest != assignments;
        // Update. A centroid is the row-order mean of its members, so
        // only a cluster that gained or lost a row can move; before the
        // first update no centroid is a mean yet.
        let mut dirty = vec![iter == 0; k];
        for (old, &new) in assignments.iter().zip(&b.nearest) {
            if *old != new {
                dirty[*old] = true;
                dirty[new] = true;
            }
        }
        assignments.copy_from_slice(&b.nearest);
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (row, &c) in points.rows().zip(&assignments) {
            if dirty[c] {
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(row) {
                    *s += x;
                }
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
        }
        b.move_to(&centroids);
        if !changed {
            break;
        }
    }

    let row_d2: Vec<f64> = points
        .rows()
        .zip(&assignments)
        .map(|(row, &c)| dist2(row, &centroids[c]))
        .collect();
    let sse = row_d2.iter().sum();
    // The SSE pass measured each row's distance to its own centroid.
    for (i, &d2) in row_d2.iter().enumerate() {
        if b.nearest[i] == assignments[i] {
            b.upper[i] = upper_of(d2);
        }
    }
    let result = KmeansResult {
        assignments,
        centroids,
        sse,
    };
    (result, b)
}

/// One warm-started sweep step: the previous run's final centroids plus a
/// single k-means++ pick, then one Lloyd descent from the previous run's
/// bounds. Adding a centroid can only shrink each row's nearest-centroid
/// distance and Lloyd never increases the SSE, so
/// `result.sse <= previous.sse` by construction.
fn run_warm(
    points: Points<'_>,
    previous: &KmeansResult,
    mut bounds: RowBounds,
    config: &KmeansConfig,
) -> (KmeansResult, RowBounds) {
    let mut rng = SimRng::seed_from(
        config
            .seed
            .wrapping_add((previous.centroids.len() as u64 + 1).wrapping_mul(0x51ab)),
    );
    let mut centroids = previous.centroids.clone();
    let min_d2: Vec<f64> = points
        .rows()
        .zip(&previous.assignments)
        .map(|(row, &c)| dist2(row, &centroids[c]))
        .collect();
    let pick = points.row(kmeanspp_pick(&min_d2, &mut rng)).to_vec();
    let to_pick: Vec<f64> = points.rows().map(|row| dist2(row, &pick)).collect();
    bounds.push_centroid(pick.clone(), &to_pick);
    centroids.push(pick);
    lloyd_from(points, centroids, config.max_iters, Some(bounds))
}

/// Sweeps k over `range`, returning `(k, sse)` pairs — the data behind
/// Figure 4.
///
/// The sweep walks k upward, seeding each run from the previous one; the
/// per-iteration assignment step still uses the pool. The output is the
/// same for any thread count.
pub fn sweep(
    matrix: &FeatureMatrix,
    range: std::ops::RangeInclusive<usize>,
    config: &KmeansConfig,
) -> Vec<(usize, f64)> {
    let n = matrix.len();
    let flat = matrix.rows.concat();
    let points = Points::new(&flat, n, matrix.dims());
    let mut out = Vec::new();
    let mut previous: Option<(KmeansResult, RowBounds)> = None;
    for k in range {
        let result = match previous {
            // Warm-start only while k actually grows the centroid set (k
            // is capped at the row count in `run`, and an empty matrix
            // has no centroids to grow).
            Some((prev, bounds)) if k.min(n) == prev.centroids.len() + 1 => {
                run_warm(points, &prev, bounds, config)
            }
            _ => run_points(points, &KmeansConfig { k, ..*config }),
        };
        out.push((k, result.0.sse));
        previous = Some(result);
    }
    out
}

/// Applies the elbow method to a sweep, returning the chosen k.
pub fn elbow_k(sweep: &[(usize, f64)]) -> Option<usize> {
    let xs: Vec<f64> = sweep.iter().map(|(k, _)| *k as f64).collect();
    let ys: Vec<f64> = sweep.iter().map(|(_, s)| *s).collect();
    elbow_index(&xs, &ys).map(|i| sweep[i].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs of 20 points each.
    fn blobs() -> FeatureMatrix {
        let mut rng = SimRng::seed_from(5);
        let centers = [(0.0, 0.0), (10.0, 0.0), (5.0, 12.0)];
        let mut rows = Vec::new();
        let mut steps = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..20 {
                rows.push(vec![
                    cx + rng.standard_normal() * 0.3,
                    cy + rng.standard_normal() * 0.3,
                ]);
                steps.push((ci * 20 + i) as u64);
            }
        }
        FeatureMatrix { steps, rows }
    }

    #[test]
    fn recovers_three_blobs() {
        let m = blobs();
        let result = run(
            &m,
            &KmeansConfig {
                k: 3,
                ..KmeansConfig::default()
            },
        );
        // All points of one blob share a label.
        for blob in 0..3 {
            let labels: Vec<usize> = (blob * 20..(blob + 1) * 20)
                .map(|i| result.assignments[i])
                .collect();
            assert!(labels.iter().all(|&l| l == labels[0]), "blob {blob} split");
        }
        assert!(result.sse < 60.0 * 1.0, "sse {}", result.sse);
    }

    #[test]
    fn sse_decreases_with_k() {
        let m = blobs();
        let sweep = sweep(&m, 1..=6, &KmeansConfig::default());
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "sse should not increase: {pair:?}"
            );
        }
    }

    #[test]
    fn elbow_picks_the_true_cluster_count() {
        let m = blobs();
        let s = sweep(&m, 1..=8, &KmeansConfig::default());
        let k = elbow_k(&s).expect("elbow exists");
        assert!((2..=4).contains(&k), "elbow k = {k}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = blobs();
        let a = run(&m, &KmeansConfig::default());
        let b = run(&m, &KmeansConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn k_capped_at_point_count() {
        let m = FeatureMatrix {
            steps: vec![1, 2],
            rows: vec![vec![0.0], vec![1.0]],
        };
        let result = run(
            &m,
            &KmeansConfig {
                k: 10,
                ..KmeansConfig::default()
            },
        );
        assert!(result.centroids.len() <= 2);
        assert_eq!(result.sse, 0.0);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = FeatureMatrix {
            steps: vec![],
            rows: vec![],
        };
        let result = run(&m, &KmeansConfig::default());
        assert!(result.assignments.is_empty());
    }

    #[test]
    fn warm_sweep_is_monotone_non_increasing() {
        let m = blobs();
        let s = sweep(&m, 1..=10, &KmeansConfig::default());
        for pair in s.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-12, "ssd increased: {pair:?}");
        }
    }

    #[test]
    fn parallel_assignment_is_bit_identical_to_serial() {
        // Big enough to cross PAR_ASSIGN_MIN_ROWS so the pooled
        // assignment path actually runs.
        let mut rng = SimRng::seed_from(9);
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|_| {
                vec![
                    rng.uniform_f64() * 8.0,
                    rng.uniform_f64() * 8.0,
                    rng.uniform_f64(),
                ]
            })
            .collect();
        let m = FeatureMatrix {
            steps: (0..600u64).collect(),
            rows,
        };
        tpupoint_par::set_threads(1);
        let serial_run = run(&m, &KmeansConfig::default());
        let serial_sweep = sweep(&m, 1..=5, &KmeansConfig::default());
        tpupoint_par::set_threads(4);
        assert_eq!(run(&m, &KmeansConfig::default()), serial_run);
        assert_eq!(sweep(&m, 1..=5, &KmeansConfig::default()), serial_sweep);
        tpupoint_par::set_threads(0);
    }

    /// The unpruned Lloyd descent every pruned one must equal bit for
    /// bit: a full nearest-centroid pass per iteration.
    fn naive_lloyd(
        rows: &[Vec<f64>],
        mut centroids: Vec<Vec<f64>>,
        max_iters: usize,
    ) -> KmeansResult {
        let (d, k) = (rows.first().map_or(0, Vec::len), centroids.len());
        let mut assignments = vec![0usize; rows.len()];
        for _ in 0..max_iters {
            let fresh: Vec<usize> = rows.iter().map(|row| nearest(row, &centroids)).collect();
            let changed = fresh != assignments;
            assignments = fresh;
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (row, &c) in rows.iter().zip(&assignments) {
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for s in &mut sums[c] {
                        *s /= counts[c] as f64;
                    }
                    centroids[c] = sums[c].clone();
                }
            }
            if !changed {
                break;
            }
        }
        let sse = rows
            .iter()
            .zip(&assignments)
            .map(|(row, &c)| dist2(row, &centroids[c]))
            .sum();
        KmeansResult {
            assignments,
            centroids,
            sse,
        }
    }

    /// k-means++ seeding with every row-to-seed distance computed, the
    /// reference the pruned seeding must pick the same seeds as.
    fn naive_seeding(rows: &[Vec<f64>], k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
        let n = rows.len();
        let mut centroids = vec![rows[rng.uniform_u64(0, n as u64 - 1) as usize].clone()];
        let mut min_d2: Vec<f64> = rows.iter().map(|r| dist2(r, &centroids[0])).collect();
        while centroids.len() < k {
            let idx = kmeanspp_pick(&min_d2, rng);
            centroids.push(rows[idx].clone());
            let latest = centroids.last().expect("just pushed");
            for (min, row) in min_d2.iter_mut().zip(rows) {
                *min = min.min(dist2(row, latest));
            }
        }
        centroids
    }

    /// Bit-level equality of two results (`==` on floats would equate
    /// `0.0` with `-0.0`).
    fn assert_same_bits(pruned: &KmeansResult, naive: &KmeansResult, case: &str) {
        let bits = |r: &KmeansResult| -> Vec<Vec<u64>> {
            r.centroids
                .iter()
                .map(|c| c.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(pruned.assignments, naive.assignments, "{case}: assignments");
        assert_eq!(bits(pruned), bits(naive), "{case}: centroids");
        assert_eq!(pruned.sse.to_bits(), naive.sse.to_bits(), "{case}: sse");
    }

    /// Checks the pruned kernel against the naive one on `rows` from
    /// `start`: without bounds, from the seeding's bounds, and from bounds
    /// carried out of an earlier descent — as is, with some rows
    /// replaced and invalidated, and onto a moved start.
    fn check_exact(rows: &[Vec<f64>], start: Vec<Vec<f64>>, case: &str) {
        let n = rows.len();
        let d = rows[0].len();
        let flat: Vec<f64> = rows.concat();
        let points = Points::new(&flat, n, d);
        let k = start.len();
        for iters in [0, 1, 2, 50] {
            let (pruned, _) = lloyd_from(points, start.clone(), iters, None);
            let naive = naive_lloyd(rows, start.clone(), iters);
            assert_same_bits(
                &pruned,
                &naive,
                &format!("{case}, no bounds, {iters} iters"),
            );
        }

        let seed = n as u64 * 31 + k as u64;
        let mut rng = SimRng::seed_from(seed);
        let (seeds, seed_bounds) = seed_centroids(points, k.min(n), &mut rng);
        let naive_seeds = naive_seeding(rows, k.min(n), &mut SimRng::seed_from(seed));
        assert_eq!(seeds, naive_seeds, "{case}: seeds");
        let (pruned, bounds) = lloyd_from(points, seeds.clone(), 50, Some(seed_bounds));
        let naive = naive_lloyd(rows, seeds, 50);
        assert_same_bits(&pruned, &naive, &format!("{case}, seeding bounds"));

        // Carried onto the same points and a start nudged off the final
        // centroids, as the streaming warm start does.
        let nudged: Vec<Vec<f64>> = pruned
            .centroids
            .iter()
            .map(|c| {
                c.iter()
                    .map(|&v| v + 1e-3 * rng.standard_normal())
                    .collect()
            })
            .collect();
        for (start, label) in [(pruned.centroids.clone(), "final"), (nudged, "nudged")] {
            let (carried, _) = lloyd_from(points, start.clone(), 3, Some(bounds.clone()));
            let naive = naive_lloyd(rows, start, 3);
            assert_same_bits(&carried, &naive, &format!("{case}, carried onto {label}"));
        }

        // Replace every third row, invalidating its bounds, and append
        // one unknown row: the reservoir after an eviction.
        let mut changed_rows = rows.to_vec();
        let mut changed_bounds = bounds;
        for i in (0..n).step_by(3) {
            changed_rows[i] = rows[(i * 7 + 1) % n].iter().map(|v| v * 0.5).collect();
            changed_bounds.invalidate(i);
        }
        changed_rows.push(rows[n / 2].clone());
        let changed_flat: Vec<f64> = changed_rows.concat();
        let changed_points = Points::new(&changed_flat, n + 1, d);
        let (carried, _) = lloyd_from(
            changed_points,
            pruned.centroids.clone(),
            50,
            Some(changed_bounds),
        );
        let naive = naive_lloyd(&changed_rows, pruned.centroids.clone(), 50);
        assert_same_bits(&carried, &naive, &format!("{case}, replaced rows"));
    }

    fn random_rows(rng: &mut SimRng, n: usize, d: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..d).map(|_| rng.uniform_f64() * spread).collect())
            .collect()
    }

    #[test]
    fn pruned_lloyd_equals_naive_lloyd_on_random_points() {
        let mut rng = SimRng::seed_from(0xb0b);
        for case in 0..60 {
            let n = 1 + rng.uniform_u64(0, 299) as usize;
            let d = 1 + rng.uniform_u64(0, 11) as usize;
            let k = 1 + rng.uniform_u64(0, 7) as usize;
            let spread = [1e-6, 1.0, 1e6][case % 3];
            let rows = random_rows(&mut rng, n, d, spread);
            let start: Vec<Vec<f64>> = (0..k).map(|c| rows[(c * 13) % n].clone()).collect();
            check_exact(
                &rows,
                start,
                &format!("random case {case} ({n}x{d}, k {k})"),
            );
        }
    }

    #[test]
    fn pruned_lloyd_equals_naive_lloyd_on_adversarial_points() {
        let mut rng = SimRng::seed_from(0xad);

        // Duplicate rows: a handful of distinct rows repeated.
        let base = random_rows(&mut rng, 4, 3, 1.0);
        let dup: Vec<Vec<f64>> = (0..280).map(|i| base[i % 4].clone()).collect();
        check_exact(&dup, vec![base[0].clone(), base[1].clone()], "duplicates");
        check_exact(&dup, base.clone(), "duplicates, centroid per row");

        // Exact ties: integer points equidistant from two centroids.
        let grid: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 5) as f64, (i / 5 % 3) as f64])
            .collect();
        check_exact(&grid, vec![vec![1.0, 1.0], vec![3.0, 1.0]], "ties");
        check_exact(
            &grid,
            vec![vec![3.0, 1.0], vec![1.0, 1.0]],
            "ties, high index first",
        );
        check_exact(
            &grid,
            vec![vec![1.0, 1.0], vec![3.0, 1.0], vec![2.0, 1.0]],
            "ties, three centroids",
        );
        check_exact(
            &grid,
            vec![vec![0.0, 0.0], vec![0.0, 0.0], vec![4.0, 2.0]],
            "coincident centroids",
        );

        // A carried bound that lands exactly on a tie: the row at 0 was
        // nearest to centroid 1 (at 1) with centroid 0 at -3; centroid 0
        // then moves straight at it, to -1. The bounds meet (1 vs 3 - 2)
        // and must not settle the row, whose tie goes to centroid 0.
        let origin = [0.0];
        let bounds = RowBounds {
            centroids: vec![vec![-3.0], vec![1.0]],
            nearest: vec![1],
            upper: vec![upper_of(1.0)],
            lower: vec![lower_of(9.0)],
        };
        let start = vec![vec![-1.0], vec![1.0]];
        let (pruned, _) = lloyd_from(Points::new(&origin, 1, 1), start.clone(), 1, Some(bounds));
        let naive = naive_lloyd(&[origin.to_vec()], start, 1);
        assert_same_bits(&pruned, &naive, "tie reached by a carried bound");
        assert_eq!(pruned.assignments, vec![0]);

        // Constant dimensions: every row shares two coordinates.
        let constant: Vec<Vec<f64>> = (0..260)
            .map(|_| vec![0.5, rng.uniform_f64(), 0.0, rng.uniform_f64()])
            .collect();
        check_exact(
            &constant,
            vec![
                constant[0].clone(),
                constant[1].clone(),
                constant[2].clone(),
            ],
            "constant dimensions",
        );
        let flat_rows = vec![vec![2.0, 2.0]; 50];
        check_exact(
            &flat_rows,
            vec![vec![2.0, 2.0], vec![0.0, 0.0]],
            "all rows equal",
        );

        // Empty clusters: centroids no row is ever nearest to.
        let near = random_rows(&mut rng, 270, 3, 1.0);
        check_exact(
            &near,
            vec![
                near[0].clone(),
                vec![1e3, 1e3, 1e3],
                near[1].clone(),
                vec![-1e3, 0.0, 0.0],
            ],
            "empty clusters",
        );

        // k equal to the row count.
        let few = random_rows(&mut rng, 7, 2, 1.0);
        check_exact(&few, few.clone(), "k equals n");
        check_exact(&few, vec![few[0].clone(); 7], "k equals n, one start");
    }

    #[test]
    fn sweep_and_run_equal_their_naive_descents() {
        let mut rng = SimRng::seed_from(77);
        let rows = random_rows(&mut rng, 320, 4, 1.0);
        let m = FeatureMatrix {
            steps: (0..320u64).collect(),
            rows: rows.clone(),
        };
        let config = KmeansConfig::default();
        let naive_run = |k: usize| -> KmeansResult {
            let mut best: Option<KmeansResult> = None;
            for restart in 0..config.n_init {
                let mut rng =
                    SimRng::seed_from(config.seed ^ (restart as u64).wrapping_mul(0x9E37));
                let seeds = naive_seeding(&rows, k, &mut rng);
                let result = naive_lloyd(&rows, seeds, config.max_iters);
                if best.as_ref().is_none_or(|b| result.sse < b.sse) {
                    best = Some(result);
                }
            }
            best.expect("restarts ran")
        };
        assert_same_bits(&run(&m, &config), &naive_run(config.k), "run");

        let mut naive_sweep = vec![(1, naive_run(1).sse)];
        let mut previous = naive_run(1);
        for k in 2..=8 {
            let mut rng =
                SimRng::seed_from(config.seed.wrapping_add((k as u64).wrapping_mul(0x51ab)));
            let min_d2: Vec<f64> = rows
                .iter()
                .zip(&previous.assignments)
                .map(|(row, &c)| dist2(row, &previous.centroids[c]))
                .collect();
            let mut centroids = previous.centroids.clone();
            centroids.push(rows[kmeanspp_pick(&min_d2, &mut rng)].clone());
            previous = naive_lloyd(&rows, centroids, config.max_iters);
            naive_sweep.push((k, previous.sse));
        }
        let bits = |s: &[(usize, f64)]| -> Vec<(usize, u64)> {
            s.iter().map(|&(k, sse)| (k, sse.to_bits())).collect()
        };
        assert_eq!(bits(&sweep(&m, 1..=8, &config)), bits(&naive_sweep));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let m = blobs();
        let _ = run(
            &m,
            &KmeansConfig {
                k: 0,
                ..KmeansConfig::default()
            },
        );
    }
}
