//! DBSCAN (Ester et al., 1996), the paper's second clustering method.
//!
//! The paper sweeps the *minimum samples* parameter from 5 to 200 and
//! plots the ratio of noise (unclustered) points, applying the elbow
//! method to pick the knee (Figure 5). The neighborhood radius `eps` is
//! chosen by a k-nearest-neighbor heuristic on a sample of the data.
//!
//! Section VI-B notes that k-means and DBSCAN "reach memory limitations
//! for larger workloads such as RetinaNet and ResNet"; [`DbscanConfig::
//! max_points`] reproduces that operational limit explicitly.

use crate::elbow::elbow_index;
use crate::features::{avx2_twin, dist2, dist2_rows, FeatureMatrix, LANES};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Label DBSCAN gives to unclustered points.
pub const NOISE: isize = -1;

/// Row count below which the neighbor-cache build stays serial. The
/// pooled build pays end to end: with a serial build, perfbench
/// `analyze-sweep` (2-core host) ran at 0.68x and lost 3 of 3 pairs.
const PAR_NEIGHBOR_MIN_ROWS: usize = 128;

/// Rows measured together against each group of candidates, so a group
/// is read from memory once per tile rather than once per row: the
/// matrix's rows over 64, as a power of two from 16 to 256. A small
/// matrix stays in cache, and small tiles keep each tile's band tight
/// and give the pool enough of them. On a 57k-row profile the matrix
/// outgrows the core's caches: per-row scans waited on memory, tiles of
/// 16 cut the build from 31.9 to 23.1 s, and tiles of 256 cut it from
/// 22.0 to 13.5 s.
fn tile_rows(n: usize) -> usize {
    1 << (n / 64).clamp(16, 256).ilog2()
}

/// Seeds one [`dist2_rows`] call measures against a group of candidates.
/// Four seeds keep eight independent addition chains in flight, where one
/// seed's chains would leave the core waiting on addition latency: on a
/// 57k-row profile that cut the build by a fifth.
const SEEDS_PER_CALL: usize = 4;

/// Rows whose upper halves one pool round scans before they are appended
/// to the shared buffer, so the per-row vectors never all live at once.
/// A multiple of every [`tile_rows`].
const BUILD_BATCH_ROWS: usize = 4096;

/// Relative margin of the norm band. It dwarfs the relative rounding of a
/// norm, of [`dist2`], of a square root and of the band's own sums, each
/// at most `dims + 3` units in the last place, for any matrix of fewer
/// than a million columns.
const BAND_SLACK: f64 = 1e-9;

/// The rows of a matrix in order of (Euclidean norm, row index), for the
/// norm band: by the reverse triangle inequality `|‖a‖ − ‖b‖| ≤ ‖a − b‖`,
/// so a pair whose norms lie further apart than a radius cannot be within
/// it, and in norm order the pairs within it lie in one window.
///
/// Rounding. Let `u` be the unit roundoff and `M` the largest norm. A
/// computed norm is within `(d + 3)·u·M` of the exact one: `d` squares and
/// their sum each round by `u` relative, the square root by `u`, and a
/// square that underflows loses less than `2^-1074`, which is far below
/// `1e-150` even summed over every column and square-rooted. A computed
/// `dist2(a, b) = D` is at least `(1 − (d + 2)·u)·‖a − b‖²` less the same
/// underflow, since each difference rounds by `u` relative (exactly, once
/// subnormal), each square by `u`, and every term is non-negative. So if
/// `D ≤ r²` for `r` the computed square root of `r²`, then
/// `‖a − b‖ ≤ r·(1 + (d + 3)·u) + 1e-150`, and the computed norm gap is
/// at most that plus twice the norms' error. [`NormOrder::band`] is
/// `r·(1 + 1e-9) + 1e-9·(1 + M)`, which covers all of it and the rounding
/// of the band's sum and of the comparison against it, so a pair outside
/// the band computes `D > r²` and fails any test `D ≤ r²`.
///
/// When some norm is not finite, some entry is NaN or infinite or the
/// squares overflow, and none of this holds: every norm then reads zero
/// and the band is infinite, so every pair lies within it and the scans
/// run over the whole matrix, in row order, through the same code.
struct NormOrder<'a> {
    /// The rows in norm order.
    rows: Vec<&'a [f64]>,
    /// Row index in the matrix of each row in norm order.
    index: Vec<u32>,
    /// The norms in norm order, ascending.
    norms: Vec<f64>,
    /// The band's absolute part, `1e-9·(1 + M)`; infinite when some norm
    /// is not finite.
    slack: f64,
}

impl<'a> NormOrder<'a> {
    fn new(matrix: &'a FeatureMatrix) -> NormOrder<'a> {
        let mut norms: Vec<f64> = matrix
            .rows
            .iter()
            .map(|row| row.iter().map(|x| x * x).sum::<f64>().sqrt())
            .collect();
        let slack = match norms
            .iter()
            .try_fold(0.0f64, |m, &x| x.is_finite().then(|| m.max(x)))
        {
            Some(max) => BAND_SLACK * (1.0 + max),
            None => {
                norms.fill(0.0);
                f64::INFINITY
            }
        };
        let mut index: Vec<u32> = (0..matrix.len() as u32).collect();
        index.sort_by(|&a, &b| {
            norms[a as usize]
                .total_cmp(&norms[b as usize])
                .then(a.cmp(&b))
        });
        NormOrder {
            rows: index
                .iter()
                .map(|&i| matrix.rows[i as usize].as_slice())
                .collect(),
            norms: index.iter().map(|&i| norms[i as usize]).collect(),
            index,
            slack,
        }
    }

    /// Each row's position in norm order, by row index.
    fn position(&self) -> Vec<u32> {
        let mut position = vec![0u32; self.index.len()];
        for (p, &i) in self.index.iter().enumerate() {
            position[i as usize] = p as u32;
        }
        position
    }

    /// The widest norm gap of a pair whose computed [`dist2`] can be at
    /// most `r2` (see [`NormOrder`]): NaN when `r2` is NaN, which no
    /// distance is at most.
    fn band(&self, r2: f64) -> f64 {
        r2.sqrt() * (1.0 + BAND_SLACK) + self.slack
    }

    /// Whether the rows at positions `p` and `q` lie outside each other's
    /// band for `r2`.
    fn apart(&self, p: usize, q: usize, r2: f64) -> bool {
        (self.norms[q] - self.norms[p]).abs() > self.band(r2)
    }

    /// The end of the band for `r2` above position `p`: every later row
    /// within it of a row at or before `p` lies before that end, and it
    /// is never before `p + 1`.
    fn reach(&self, p: usize, r2: f64) -> usize {
        let top = self.norms[p] + self.band(r2);
        self.norms.partition_point(|&m| m <= top).max(p + 1)
    }

    /// Rewrites each list `entries[offsets[p]..offsets[p + 1]]` of norm
    /// order positions as the rows' matrix indices, ascending. A bitmap
    /// of the matrix's rows sorts each list in time linear in its length
    /// and in the span of rows it covers, and is clear again after each.
    fn relabel(&self, offsets: &[usize], entries: &mut [u32]) {
        let mut seen = vec![0u64; self.index.len().div_ceil(64)];
        for p in 0..offsets.len() - 1 {
            let list = &mut entries[offsets[p]..offsets[p + 1]];
            let (mut lo, mut hi) = (seen.len(), 0);
            for &q in list.iter() {
                let i = self.index[q as usize] as usize;
                seen[i / 64] |= 1 << (i % 64);
                lo = lo.min(i / 64);
                hi = hi.max(i / 64 + 1);
            }
            let mut k = 0;
            for (w, word) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    list[k] = (w * 64) as u32 + bits.trailing_zeros();
                    k += 1;
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Pairwise eps-neighborhoods of a matrix, computed once and shared by
/// every DBSCAN run over it — a sweep varies only `min_samples`, so
/// recomputing the O(n²) neighbor scan per run is pure waste.
///
/// The lists are one CSR in norm order (see [`NormOrder`]): row i's
/// neighbors are `entries[offsets[p]..offsets[p + 1]]` for its position
/// `p = position[i]`, as `u32` row indices, so an entry takes 4 bytes and
/// no row has an allocation of its own. Each list keeps ascending row
/// order (the same order a full `(0..n).filter` scan produces), so BFS
/// expansion and therefore the cluster labels are bit-identical to the
/// uncached implementation.
#[derive(Debug, Clone)]
pub struct NeighborCache {
    eps: f64,
    offsets: Vec<usize>,
    entries: Vec<u32>,
    position: Vec<u32>,
}

impl NeighborCache {
    /// Builds the cache for `matrix` at radius `eps`, measuring each pair
    /// the norm band admits once and only as far as its decision needs.
    /// The rows are walked in norm order, in tiles of [`tile_rows`]: row p
    /// measures the tile's rows from itself on (see [`scan_within`]), then
    /// the tile's rows together measure every later row up to the band's
    /// end above the tile's last row ([`NormOrder::reach`]). Tiles fan out
    /// over the pool for large matrices. The lower halves are then
    /// mirrored from the upper ones in place (see [`mirror`]), since
    /// [`dist2`] is symmetric bit for bit, and each list is mapped back to
    /// row indices ([`NormOrder::relabel`]). The diagonal is still
    /// measured, so a row whose self-distance is NaN stays out of its own
    /// list, as in a full scan. Every list comes out ascending and
    /// identical to a full scan at any thread count.
    ///
    /// The span records the pairs measured, diagonal included, as `pairs`
    /// out of the `n(n + 1)/2` a full half scan measures, as `of`.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` has more rows than `u32` can index.
    pub fn build(matrix: &FeatureMatrix, eps: f64) -> Self {
        let mut span = tpupoint_obs::span!("dbscan.neighbor_cache");
        let n = matrix.len();
        assert!(
            u32::try_from(n).is_ok(),
            "{n} rows overflow u32 row indices"
        );
        let eps2 = eps * eps;
        let order = NormOrder::new(matrix);
        let tile_rows = tile_rows(n);
        let tile = |t: usize| avx2_twin!(scan_tile(&order, t * tile_rows, tile_rows, eps2));
        let pool = tpupoint_par::pool();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        let mut pairs = 0;
        for batch in (0..n).step_by(BUILD_BATCH_ROWS) {
            let tiles = batch / tile_rows..n.min(batch + BUILD_BATCH_ROWS).div_ceil(tile_rows);
            let upper = if n >= PAR_NEIGHBOR_MIN_ROWS && pool.size() > 1 {
                pool.par_map_index(tiles.len(), |k| tile(tiles.start + k))
            } else {
                tiles.map(tile).collect()
            };
            for (up, measured) in &upper {
                pairs += measured;
                for up in up {
                    entries.extend_from_slice(up);
                    offsets.push(entries.len());
                }
            }
        }
        mirror(&mut offsets, &mut entries);
        order.relabel(&offsets, &mut entries);
        span.record("pairs", pairs);
        span.record("of", n * (n + 1) / 2);
        NeighborCache {
            eps,
            offsets,
            entries,
            position: order.position(),
        }
    }

    /// The radius the cache was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Rows covered by the cache.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// Whether the cache covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of row `i` (including `i` itself), ascending.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let p = self.position[i] as usize;
        &self.entries[self.offsets[p]..self.offsets[p + 1]]
    }
}

/// The upper halves of the `len` rows of `order` from position `start`
/// at radius² `eps2`, as norm order positions, with the pairs measured:
/// each row measures the tile's rows from itself on, then the tile's rows
/// together measure the later rows within the band above the tile's last
/// row.
#[inline(always)]
fn scan_tile(order: &NormOrder<'_>, start: usize, len: usize, eps2: f64) -> (Vec<Vec<u32>>, usize) {
    let rows = order.rows.as_slice();
    let seeds = start..rows.len().min(start + len);
    let end = order.reach(seeds.end - 1, eps2);
    let mut upper = vec![Vec::new(); seeds.len()];
    let mut push = |s: usize, q: usize, _| {
        upper[s].push(q as u32);
        eps2
    };
    for (s, p) in seeds.clone().enumerate() {
        scan_within(rows, &[rows[p]], p..seeds.end, &mut [eps2], |_, q, d| {
            push(s, q, d)
        });
    }
    let xs = &rows[seeds.clone()];
    scan_within(rows, xs, seeds.end..end, &mut vec![eps2; xs.len()], push);
    let pairs = xs.len() * (xs.len() + 1) / 2 + xs.len() * (end - seeds.end);
    (upper, pairs)
}

/// Calls `visit(s, j, dist2(xs[s], rows[j]))` for each seed s of `xs` and
/// each row j of `candidates`, in order, whose distance is at most s's
/// bound in force: `bounds[s]` at first, then whatever the latest visit
/// for s returned, which must never be larger. `bounds` ends holding the
/// bounds in force.
///
/// Candidates are measured [`LANES`] at a time by [`dist2_rows`], each
/// group against all the seeds, [`SEEDS_PER_CALL`] at a time, while it is
/// hot in cache. A call runs under each seed's bound in force when it
/// starts and stops early once all its partial sums are past their
/// bounds. The rest, fewer than [`LANES`], are measured by [`dist2`]. A
/// visited distance is exact.
#[inline(always)]
fn scan_within(
    rows: &[&[f64]],
    xs: &[&[f64]],
    candidates: Range<usize>,
    bounds: &mut [f64],
    mut visit: impl FnMut(usize, usize, f64) -> f64,
) {
    let (groups, rest) = rows[candidates.clone()].as_chunks::<LANES>();
    for (g, &group) in groups.iter().enumerate() {
        let j0 = candidates.start + g * LANES;
        let (fulls, odd) = xs.as_chunks::<SEEDS_PER_CALL>();
        for (c, &seeds) in fulls.iter().enumerate() {
            let s0 = c * SEEDS_PER_CALL;
            let d = dist2_rows(group, seeds, std::array::from_fn(|k| bounds[s0 + k]));
            take(s0, j0, &d, bounds, &mut visit);
        }
        let s0 = xs.len() - odd.len();
        for (s, &x) in (s0..).zip(odd) {
            take(
                s,
                j0,
                &dist2_rows(group, [x], [bounds[s]]),
                bounds,
                &mut visit,
            );
        }
    }
    let j0 = candidates.end - rest.len();
    for (j, row) in (j0..).zip(rest) {
        for (s, (x, bound)) in xs.iter().zip(bounds.iter_mut()).enumerate() {
            let d = dist2(row, x);
            if d <= *bound {
                *bound = visit(s, j, d);
            }
        }
    }
}

/// Visits lane l of `d[k]`, seed `s0 + k`'s distance to row `j0 + l`, when
/// it is within the seed's bound, for [`scan_within`].
#[inline(always)]
fn take(
    s0: usize,
    j0: usize,
    d: &[[f64; LANES]],
    bounds: &mut [f64],
    visit: &mut impl FnMut(usize, usize, f64) -> f64,
) {
    for (s, d) in (s0..).zip(d) {
        for (l, &d) in d.iter().enumerate() {
            if d <= bounds[s] {
                bounds[s] = visit(s, j0 + l, d);
            }
        }
    }
}

/// Turns the upper halves `entries[offsets[i]..offsets[i + 1]]` (row i's
/// neighbors j ≥ i, ascending) into the full lists in place: row i's list
/// becomes its lower neighbors h < i, ascending, then its upper half.
/// The buffer grows once, to the full size. The upper halves move up to
/// their final places last row first, so none overwrites a half not yet
/// moved; the lower parts are then written walking the rows in ascending
/// order, so each comes out ascending.
fn mirror(offsets: &mut [usize], entries: &mut Vec<u32>) {
    let n = offsets.len() - 1;
    // Row j's count of lower neighbors, then its next free lower slot.
    let mut cursor = vec![0usize; n];
    for i in 0..n {
        for &j in &entries[offsets[i]..offsets[i + 1]] {
            if j as usize > i {
                cursor[j as usize] += 1;
            }
        }
    }
    let total = entries.len() + cursor.iter().sum::<usize>();
    entries.reserve_exact(total - entries.len());
    entries.resize(total, 0);
    let mut end = total;
    for i in (0..n).rev() {
        let start = end - (offsets[i + 1] - offsets[i]);
        entries.copy_within(offsets[i]..offsets[i + 1], start);
        offsets[i + 1] = end;
        end = start - cursor[i];
        cursor[i] = end;
    }
    debug_assert_eq!(end, 0);
    for i in 0..n {
        // Every h < i has been walked, so row i's cursor sits at its
        // upper half.
        for k in cursor[i]..offsets[i + 1] {
            let j = entries[k] as usize;
            if j > i {
                entries[cursor[j]] = i as u32;
                cursor[j] += 1;
            }
        }
    }
}

/// DBSCAN configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanConfig {
    /// Neighborhood radius; `None` selects it automatically via the kNN
    /// heuristic.
    pub eps: Option<f64>,
    /// Minimum neighbors (including self) for a core point.
    pub min_samples: usize,
    /// Refuse inputs with more rows than this (the paper's observed memory
    /// limitation on large workloads). `None` = unlimited.
    pub max_points: Option<usize>,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        DbscanConfig {
            eps: None,
            min_samples: 30,
            max_points: Some(200_000),
        }
    }
}

impl DbscanConfig {
    /// Refuses `points` rows when they exceed [`DbscanConfig::max_points`].
    ///
    /// # Errors
    ///
    /// Returns [`DbscanError::MemoryLimit`] past the cap.
    pub fn check_points(&self, points: usize) -> Result<(), DbscanError> {
        match self.max_points {
            Some(limit) if points > limit => Err(DbscanError::MemoryLimit { points, limit }),
            _ => Ok(()),
        }
    }

    /// The radius this config uses on `matrix`: the fixed `eps`, or
    /// [`auto_eps`] when none is set.
    pub fn eps_for(&self, matrix: &FeatureMatrix) -> f64 {
        self.eps.unwrap_or_else(|| auto_eps(matrix))
    }
}

/// DBSCAN failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbscanError {
    /// The input exceeded [`DbscanConfig::max_points`].
    MemoryLimit {
        /// Rows in the input.
        points: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for DbscanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbscanError::MemoryLimit { points, limit } => write!(
                f,
                "dbscan memory limit: {points} points exceed the {limit}-point cap"
            ),
        }
    }
}

impl std::error::Error for DbscanError {}

/// Result of a DBSCAN run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbscanResult {
    /// Cluster label per row; [`NOISE`] for unclustered points.
    pub labels: Vec<isize>,
    /// Number of clusters found.
    pub clusters: usize,
    /// The eps actually used.
    pub eps: f64,
}

impl DbscanResult {
    /// Fraction of points labeled noise — the paper's Figure 5 metric.
    pub fn noise_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == NOISE).count() as f64 / self.labels.len() as f64
    }
}

/// Chooses eps as 1.5 × the median distance to the 4th-nearest neighbor.
/// The median is estimated over at most 512 sampled seed rows, but each
/// seed's 4th-nearest neighbor is found against the *full* matrix: the
/// 4th-nearest within a 1-in-`stride` subsample is really the
/// ~`4×stride`-th neighbor of the full data, so restricting the search to
/// the sample inflates eps and (time-weighted) phase coverage degrades as
/// dense step clusters get merged across real boundaries.
///
/// Each seed scans outward from its place in norm order ([`NormOrder`]),
/// both ways, and stops a way once the norm gap passes the band of the
/// seed's 4th-smallest distance so far: no row further on can come
/// nearer. Within that, it abandons a candidate as soon as it cannot be
/// among the seed's 4 nearest ([`kth_nearest`]), which leaves eps the bits
/// a selection over every distance gives. A NaN distance is never among
/// them, so on a matrix holding NaN or infinite values eps comes from the
/// 4th-smallest non-NaN distances, the same rule that makes a NaN row
/// nobody's neighbor.
///
/// The seeds' scans are independent and fan out over the pool; their
/// distances come back in seed order, so eps is bit-identical at any
/// thread count. The pool pays end to end: with serial scans, perfbench
/// `analyze-sweep` (2-core host) ran at 0.78x and lost 3 of 3 pairs.
///
/// The span records the pairs measured as `pairs`, out of the
/// `seeds·(n − 1)` a full scan of the seeds measures, as `of`.
pub fn auto_eps(matrix: &FeatureMatrix) -> f64 {
    let mut span = tpupoint_obs::span!("dbscan.auto_eps");
    let n = matrix.len();
    if n < 2 {
        return 1.0;
    }
    let order = NormOrder::new(matrix);
    let stride = n.div_ceil(512);
    let position = order.position();
    let sample: Vec<usize> = (0..n)
        .step_by(stride)
        .map(|i| position[i] as usize)
        .collect();
    let k = 3.min(n - 2);
    let knn = tpupoint_par::pool().par_map(&sample, |_, &p| avx2_twin!(kth_nearest(&order, p, k)));
    span.record("pairs", knn.iter().map(|&(_, pairs)| pairs).sum::<usize>());
    span.record("of", sample.len() * (n - 1));
    let mut knn: Vec<f64> = knn.into_iter().map(|(d2, _)| d2.sqrt()).collect();
    knn.sort_by(f64::total_cmp);
    let median = knn[knn.len() / 2];
    (1.5 * median).max(1e-9)
}

/// The k-th smallest (from 0) non-NaN [`dist2`] from the row at norm
/// order position `p` to the other rows, or `+inf` if fewer than k + 1
/// exist, for `k < 4` and `k + 2 <= n`, with the pairs it measured.
///
/// It keeps the k + 1 smallest distances seen so far. It walks up and then
/// down the norm order from `p`, [`LANES`] rows at a time, and stops a way
/// once the next row lies outside the band of the largest kept distance;
/// within the band it abandons a candidate once its partial sum is above
/// that distance (see [`scan_within`]). Neither kind of candidate could
/// change the k-th order statistic, so it comes out the same bits as a
/// selection over every distance. A NaN distance fails `d < smallest[k]`
/// and is never kept, so the kept distances lie in `[0, +inf]` and their
/// order is total.
#[inline(always)]
fn kth_nearest(order: &NormOrder<'_>, p: usize, k: usize) -> (f64, usize) {
    let rows = order.rows.as_slice();
    let mut smallest = [f64::INFINITY; 4];
    let smallest = &mut smallest[..=k];
    let mut visit = |_, _, d: f64| {
        if d < smallest[k] {
            smallest[k] = d;
            smallest.sort_by(f64::total_cmp);
        }
        smallest[k]
    };
    let (x, bound) = (&[rows[p]], &mut [f64::INFINITY]);
    let mut pairs = 0;
    let mut q = p + 1;
    while q < rows.len() && !order.apart(p, q, bound[0]) {
        let next = rows.len().min(q + LANES);
        scan_within(rows, x, q..next, bound, &mut visit);
        pairs += next - q;
        q = next;
    }
    let mut q = p;
    while q > 0 && !order.apart(p, q - 1, bound[0]) {
        let next = q.saturating_sub(LANES);
        scan_within(rows, x, next..q, bound, &mut visit);
        pairs += q - next;
        q = next;
    }
    (bound[0], pairs)
}

/// Runs DBSCAN.
///
/// # Errors
///
/// Returns [`DbscanError::MemoryLimit`] when the input exceeds the
/// configured point cap.
pub fn run(matrix: &FeatureMatrix, config: &DbscanConfig) -> Result<DbscanResult, DbscanError> {
    config.check_points(matrix.len())?;
    let cache = NeighborCache::build(matrix, config.eps_for(matrix));
    Ok(run_with_cache(&cache, config.min_samples))
}

/// Runs DBSCAN against a prebuilt [`NeighborCache`]. The BFS itself is
/// serial (its expansion order defines the labels); the parallelism and
/// the savings both live in the shared cache.
pub fn run_with_cache(cache: &NeighborCache, min_samples: usize) -> DbscanResult {
    let n = cache.len();
    let min_samples = min_samples.max(1);
    let mut labels = vec![isize::MIN; n]; // MIN = unvisited
    let mut cluster: isize = 0;
    for i in 0..n {
        if labels[i] != isize::MIN {
            continue;
        }
        let nbrs = cache.neighbors(i);
        if nbrs.len() < min_samples {
            labels[i] = NOISE;
            continue;
        }
        labels[i] = cluster;
        let mut queue: VecDeque<u32> = nbrs.iter().copied().collect();
        while let Some(j) = queue.pop_front() {
            let j = j as usize;
            if labels[j] == NOISE {
                labels[j] = cluster; // border point adopted by the cluster
            }
            if labels[j] != isize::MIN {
                continue;
            }
            labels[j] = cluster;
            let jn = cache.neighbors(j);
            if jn.len() >= min_samples {
                queue.extend(jn.iter().copied());
            }
        }
        cluster += 1;
    }
    DbscanResult {
        labels,
        clusters: cluster as usize,
        eps: cache.eps(),
    }
}

/// Sweeps `min_samples` over the paper's grid (default 5..=180 step 25),
/// returning `(min_samples, noise_ratio, clusters)` triples — Figure 5.
///
/// eps and the O(n²) neighbor lists are computed once and shared by every
/// grid point; see [`sweep_with_cache`].
///
/// # Errors
///
/// Returns [`DbscanError::MemoryLimit`] when the input exceeds
/// `base.max_points`.
pub fn sweep(
    matrix: &FeatureMatrix,
    grid: &[usize],
    base: &DbscanConfig,
) -> Result<Vec<(usize, f64, usize)>, DbscanError> {
    base.check_points(matrix.len())?;
    let cache = NeighborCache::build(matrix, base.eps_for(matrix));
    Ok(sweep_with_cache(&cache, grid))
}

/// [`sweep`] against a prebuilt [`NeighborCache`]: the per-point runs fan
/// out over the pool (each BFS is independent given the cache, and
/// results are ordered by grid index). The pool pays, a little: in one
/// process a serial loop took 1.5x–2.0x the pooled grid's time on the
/// three perfbench models, about 3% of an analyze round, and on perfbench
/// `analyze-sweep` (2-core host, alternating 30 s pairs) a tree with the
/// serial loop read 0.94x and won 1 of 11 pairs. Two other sets read
/// within noise (5 of 10 and 3 of 6 pairs won by the serial loop).
pub fn sweep_with_cache(cache: &NeighborCache, grid: &[usize]) -> Vec<(usize, f64, usize)> {
    tpupoint_par::pool().par_map(grid, |_, &m| {
        let result = run_with_cache(cache, m);
        (m, result.noise_ratio(), result.clusters)
    })
}

/// The paper's sweep grid: 5 to 180 in steps of 25.
pub fn paper_grid() -> Vec<usize> {
    (0..8).map(|i| 5 + 25 * i).collect()
}

/// Applies the elbow method to a sweep, returning the chosen min-samples.
pub fn elbow_min_samples(sweep: &[(usize, f64, usize)]) -> Option<usize> {
    let xs: Vec<f64> = sweep.iter().map(|(m, _, _)| *m as f64).collect();
    let ys: Vec<f64> = sweep.iter().map(|(_, r, _)| *r).collect();
    elbow_index(&xs, &ys).map(|i| sweep[i].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{Just, Strategy};
    use tpupoint_simcore::SimRng;

    fn blobs(sizes: &[usize]) -> FeatureMatrix {
        let mut rng = SimRng::seed_from(9);
        let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)];
        let mut rows = Vec::new();
        let mut steps = Vec::new();
        for (b, &size) in sizes.iter().enumerate() {
            let (cx, cy) = centers[b % centers.len()];
            for _ in 0..size {
                rows.push(vec![
                    cx + rng.standard_normal() * 0.5,
                    cy + rng.standard_normal() * 0.5,
                ]);
                steps.push(rows.len() as u64);
            }
        }
        FeatureMatrix { steps, rows }
    }

    #[test]
    fn separates_two_blobs() {
        let m = blobs(&[40, 40]);
        let result = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 5,
                max_points: None,
            },
        )
        .expect("within limits");
        assert_eq!(result.clusters, 2);
        assert_eq!(result.noise_ratio(), 0.0);
        assert!(result.labels[..40].iter().all(|&l| l == result.labels[0]));
        assert!(result.labels[40..].iter().all(|&l| l == result.labels[40]));
        assert_ne!(result.labels[0], result.labels[40]);
    }

    #[test]
    fn small_blobs_become_noise_as_min_samples_rises() {
        // One big blob (60) and one small (8).
        let m = blobs(&[60, 8]);
        let lo = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 5,
                max_points: None,
            },
        )
        .unwrap();
        let hi = run(
            &m,
            &DbscanConfig {
                eps: Some(3.0),
                min_samples: 20,
                max_points: None,
            },
        )
        .unwrap();
        assert_eq!(lo.clusters, 2);
        assert_eq!(hi.clusters, 1, "small blob no longer clusters");
        assert!(hi.noise_ratio() > lo.noise_ratio());
        assert!((hi.noise_ratio() - 8.0 / 68.0).abs() < 1e-9);
    }

    #[test]
    fn noise_ratio_is_monotone_in_min_samples() {
        let m = blobs(&[50, 30, 12]);
        let grid: Vec<usize> = vec![5, 10, 20, 40, 60];
        let sweep = sweep(
            &m,
            &grid,
            &DbscanConfig {
                eps: Some(3.0),
                ..DbscanConfig::default()
            },
        )
        .unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 1e-9,
                "noise must not drop: {pair:?}"
            );
        }
    }

    #[test]
    fn memory_limit_is_enforced() {
        let m = blobs(&[50]);
        let err = run(
            &m,
            &DbscanConfig {
                eps: Some(1.0),
                min_samples: 5,
                max_points: Some(10),
            },
        )
        .expect_err("limit exceeded");
        assert_eq!(
            err,
            DbscanError::MemoryLimit {
                points: 50,
                limit: 10
            }
        );
        assert!(err.to_string().contains("memory limit"));
    }

    #[test]
    fn auto_eps_is_positive_and_scales_with_spread() {
        let tight = blobs(&[50]);
        let eps_tight = auto_eps(&tight);
        assert!(eps_tight > 0.0);
        let mut wide = tight.clone();
        for row in &mut wide.rows {
            for x in row.iter_mut() {
                *x *= 10.0;
            }
        }
        assert!(auto_eps(&wide) > eps_tight * 5.0);
    }

    #[test]
    fn paper_grid_matches_figure_5() {
        assert_eq!(paper_grid(), vec![5, 30, 55, 80, 105, 130, 155, 180]);
    }

    #[test]
    fn cached_sweep_matches_per_run_results() {
        let m = blobs(&[50, 30, 12]);
        let base = DbscanConfig {
            eps: Some(3.0),
            ..DbscanConfig::default()
        };
        let grid = vec![5, 10, 20, 40];
        for &(ms, noise, clusters) in &sweep(&m, &grid, &base).unwrap() {
            let solo = run(
                &m,
                &DbscanConfig {
                    min_samples: ms,
                    ..base
                },
            )
            .unwrap();
            assert_eq!((noise, clusters), (solo.noise_ratio(), solo.clusters));
        }
    }

    #[test]
    fn sweep_enforces_memory_limit() {
        let m = blobs(&[50]);
        let err = sweep(
            &m,
            &paper_grid(),
            &DbscanConfig {
                eps: Some(1.0),
                min_samples: 5,
                max_points: Some(10),
            },
        )
        .expect_err("limit exceeded");
        assert_eq!(
            err,
            DbscanError::MemoryLimit {
                points: 50,
                limit: 10
            }
        );
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        // Big enough to cross PAR_NEIGHBOR_MIN_ROWS so the pooled cache
        // build actually runs.
        let m = blobs(&[120, 80, 40]);
        tpupoint_par::set_threads(1);
        let serial = sweep(&m, &paper_grid(), &DbscanConfig::default()).unwrap();
        tpupoint_par::set_threads(4);
        assert_eq!(
            sweep(&m, &paper_grid(), &DbscanConfig::default()).unwrap(),
            serial
        );
        tpupoint_par::set_threads(0);
    }

    /// The full scan the half scan replaced: row i measured against
    /// every row j, self included.
    fn full_scan(matrix: &FeatureMatrix, eps: f64) -> Vec<Vec<u32>> {
        let n = matrix.len();
        let eps2 = eps * eps;
        (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| dist2(&matrix.rows[i], &matrix.rows[j]) <= eps2)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    /// The estimate [`auto_eps`] replaced: each seed's distances to every
    /// other row collected, then a selection.
    fn auto_eps_by_selection(matrix: &FeatureMatrix) -> f64 {
        use std::cmp::Ordering;
        let n = matrix.len();
        if n < 2 {
            return 1.0;
        }
        let mut knn: Vec<f64> = (0..n)
            .step_by(n.div_ceil(512))
            .map(|i| {
                let mut d: Vec<f64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| matrix.dist2(i, j))
                    .collect();
                let k = 3.min(d.len() - 1);
                d.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
                d[k].sqrt()
            })
            .collect();
        knn.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        (1.5 * knn[knn.len() / 2]).max(1e-9)
    }

    /// What [`auto_eps`] must give a matrix holding NaN or infinite
    /// entries: each seed's k-th smallest non-NaN distance by a full sort,
    /// `+inf` when fewer than k + 1 exist.
    fn auto_eps_skipping_nan(matrix: &FeatureMatrix) -> f64 {
        let n = matrix.len();
        if n < 2 {
            return 1.0;
        }
        let k = 3.min(n - 2);
        let mut knn: Vec<f64> = (0..n)
            .step_by(n.div_ceil(512))
            .map(|i| {
                let mut d: Vec<f64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| matrix.dist2(i, j))
                    .filter(|d| !d.is_nan())
                    .collect();
                d.sort_by(f64::total_cmp);
                d.get(k).copied().unwrap_or(f64::INFINITY).sqrt()
            })
            .collect();
        knn.sort_by(f64::total_cmp);
        (1.5 * knn[knn.len() / 2]).max(1e-9)
    }

    /// Entries a scan must survive: NaN, both infinities, finite values
    /// whose squared differences overflow to infinity, and finite values
    /// whose squares overflow, so a row's norm is infinite.
    fn special_f64() -> impl Strategy<Value = f64> {
        proptest::prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(-f64::MAX),
            Just(1e160),
            Just(-1e160),
        ]
    }

    /// A row's norm, computed as [`NormOrder`] computes it.
    fn norm(row: &[f64]) -> f64 {
        row.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `x` moved by `ulps` units in the last place.
    fn nudge(mut x: f64, ulps: i32) -> f64 {
        for _ in 0..ulps.unsigned_abs() {
            x = if ulps > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    /// [`mixed_rows`] with row `b` overwritten by row `a` for each
    /// `(a, b)` of `dups`, then entry `(r, c)` set to `x` for each
    /// `(r, c, x)` of `specials`; indices wrap around the shape.
    fn edge_rows(
        (n, dims, seed): (usize, usize, u64),
        dups: &[(usize, usize)],
        specials: &[(usize, usize, f64)],
    ) -> FeatureMatrix {
        let mut m = mixed_rows(n, dims, seed);
        for &(a, b) in dups {
            m.rows[b % n] = m.rows[a % n].clone();
        }
        edge_rows_with(m, specials)
    }

    /// `m` with entry `(r, c)` set to `x` for each `(r, c, x)` of
    /// `specials`; indices wrap around the shape.
    fn edge_rows_with(mut m: FeatureMatrix, specials: &[(usize, usize, f64)]) -> FeatureMatrix {
        let (n, dims) = (m.len(), m.dims());
        for &(r, c, x) in specials.iter().filter(|_| dims > 0) {
            m.rows[r % n][c % dims] = x;
        }
        m
    }

    /// `n` rows of `dims` columns. Coarse-grid rows repeat one another
    /// exactly, so ties, zero distances and `eps = 0` neighbors all occur;
    /// the rest are Gaussian.
    fn mixed_rows(n: usize, dims: usize, seed: u64) -> FeatureMatrix {
        let mut rng = SimRng::seed_from(seed);
        let rows = (0..n)
            .map(|_| {
                let coarse = rng.chance(0.5);
                (0..dims)
                    .map(|_| {
                        if coarse {
                            rng.uniform_u64(0, 3) as f64 * 0.5
                        } else {
                            rng.standard_normal()
                        }
                    })
                    .collect()
            })
            .collect();
        FeatureMatrix {
            steps: (0..n as u64).collect(),
            rows,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The half scan plus mirror equals the full scan list for list,
        /// on both sides of `PAR_NEIGHBOR_MIN_ROWS` and at 1 and 4
        /// threads, with duplicate rows, `eps = 0` and a NaN row.
        #[test]
        fn half_scan_matches_the_full_scan(
            shape in (1usize..2 * PAR_NEIGHBOR_MIN_ROWS, 1usize..5, 0u64..1_000),
            eps in proptest::prop_oneof![Just(0.0), 0.0f64..3.0],
            nan_row in proptest::prop_oneof![
                Just(None),
                (0usize..2 * PAR_NEIGHBOR_MIN_ROWS).prop_map(Some),
            ],
            threads in proptest::prop_oneof![
                Just(1usize),
                Just(4usize),
            ],
        ) {
            let (n, dims, seed) = shape;
            let mut m = mixed_rows(n, dims, seed);
            if let Some(r) = nan_row.filter(|&r| r < n) {
                m.rows[r][0] = f64::NAN;
            }
            tpupoint_par::set_threads(threads);
            let cache = NeighborCache::build(&m, eps);
            let reference = full_scan(&m, eps);
            proptest::prop_assert_eq!(cache.len(), n);
            for (i, expected) in reference.iter().enumerate() {
                proptest::prop_assert_eq!(cache.neighbors(i), expected.as_slice(), "row {}", i);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The lane scan, which measures only the pairs the norm band
        /// admits and abandons a group of candidates once all are past
        /// `eps²`, equals the full scan list for list: at 1–9 and 76–78
        /// dimensions, at row counts on every side of a multiple of
        /// [`LANES`] and of `PAR_NEIGHBOR_MIN_ROWS`, at 1 and 4 threads,
        /// with duplicate rows, NaN and infinite entries, entries whose
        /// squares overflow, `eps = 0`, an `eps²` a pair's distance meets
        /// exactly, and an eps at a pair's norm gap or distance and 1 ulp
        /// either side of it.
        #[test]
        fn lane_scan_matches_the_full_scan(
            shape in (
                1usize..2 * PAR_NEIGHBOR_MIN_ROWS,
                proptest::prop_oneof![1usize..10, 76usize..79],
                0u64..1_000,
            ),
            dups in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..4),
            specials in proptest::collection::vec((0usize..1_000, 0usize..100, special_f64()), 0..4),
            eps_pick in (0usize..5, 0.0f64..1.5, (0usize..1_000, 0usize..1_000, 0usize..100, -2.0f64..2.0)),
            ulp_pick in 0usize..3,
            threads in proptest::prop_oneof![Just(1usize), Just(4usize)],
        ) {
            let (n, dims, _) = shape;
            let mut m = edge_rows(shape, &dups, &[]);
            let (mode, scale, (a, b, c, delta)) = eps_pick;
            let (a, b, c) = (a % n, b % n, c % dims);
            let ulps = ulp_pick as i32 - 1;
            let eps = match mode {
                0 => 0.0,
                1 => scale * (dims as f64).sqrt(),
                2 => {
                    // Row b is row a moved along one coordinate, so their
                    // distance is that move squared: eps² exactly.
                    let mut moved = m.rows[a].clone();
                    moved[c] += delta;
                    m.rows[b] = moved;
                    (m.rows[b][c] - m.rows[a][c]).abs()
                }
                3 => {
                    // Row b is row a scaled, so their norm gap is their
                    // distance up to rounding: eps sits on the band's edge.
                    m.rows[b] = m.rows[a].iter().map(|x| x * (1.0 + scale)).collect();
                    nudge((norm(&m.rows[b]) - norm(&m.rows[a])).abs(), ulps)
                }
                _ => {
                    let mut moved = m.rows[a].clone();
                    moved[c] += delta;
                    m.rows[b] = moved;
                    nudge(dist2(&m.rows[a], &m.rows[b]).sqrt(), ulps)
                }
            };
            for &(r, c, x) in &specials {
                m.rows[r % n][c % dims] = x;
            }
            tpupoint_par::set_threads(threads);
            let cache = NeighborCache::build(&m, eps);
            let reference = full_scan(&m, eps);
            proptest::prop_assert_eq!(cache.len(), n);
            for (i, expected) in reference.iter().enumerate() {
                proptest::prop_assert_eq!(cache.neighbors(i), expected.as_slice(), "row {}", i);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// [`auto_eps`] keeps the selection estimate's bits on finite
        /// matrices: with duplicate rows, with distances that overflow to
        /// infinity, with rows that are scaled copies of others (whose
        /// norm gap is their distance, on the band's edge), over a strided
        /// sample of seeds, and at 1 and 4 threads. With NaN or infinite
        /// entries, or entries whose squares overflow, it must not panic
        /// and gives the k-th smallest non-NaN distances' estimate.
        #[test]
        fn auto_eps_matches_the_selection_estimate(
            shape in (
                proptest::prop_oneof![2usize..64, 500usize..700],
                proptest::prop_oneof![0usize..10, 76usize..79],
                0u64..1_000,
            ),
            dups in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..8),
            specials in proptest::collection::vec((0usize..1_000, 0usize..100, special_f64()), 0..3),
            scaled in proptest::collection::vec((0usize..1_000, 0usize..1_000, 0.0f64..0.5), 0..4),
            threads in proptest::prop_oneof![Just(1usize), Just(4usize)],
        ) {
            let mut m = edge_rows(shape, &dups, &[]);
            let n = m.len();
            for &(a, b, t) in &scaled {
                m.rows[b % n] = m.rows[a % n].iter().map(|x| x * (1.0 + t)).collect();
            }
            let m = edge_rows_with(m, &specials);
            tpupoint_par::set_threads(threads);
            let oracle = if m.rows.iter().flatten().all(|x| x.is_finite()) {
                auto_eps_by_selection(&m)
            } else {
                auto_eps_skipping_nan(&m)
            };
            proptest::prop_assert_eq!(auto_eps(&m).to_bits(), oracle.to_bits());
        }
    }

    /// A pair whose computed norm gap rounds above its computed distance:
    /// row b is row a scaled by `1 + 1e-6`, so the gap cancels to a few
    /// significant digits. Fifteen rows of smaller norm put a last in
    /// the first tile and b first in the next, so only the band's
    /// margin keeps b in a's list.
    #[test]
    fn band_margin_keeps_a_pair_whose_norm_gap_rounds_past_eps() {
        let mut rng = SimRng::seed_from(5);
        let (a, b, eps) = (0..1_000)
            .find_map(|_| {
                let a: Vec<f64> = (0..78).map(|_| 1.0 + rng.standard_normal()).collect();
                let b: Vec<f64> = a.iter().map(|x| x * (1.0 + 1e-6)).collect();
                let d2 = dist2(&a, &b);
                let mut eps = d2.sqrt();
                while eps * eps < d2 {
                    eps = eps.next_up();
                }
                (norm(&b) > norm(&a) + (eps * eps).sqrt()).then_some((a, b, eps))
            })
            .expect("a pair whose gap rounds past eps");
        let mut rows = vec![vec![0.0; 78]; 15];
        rows.extend([a, b]);
        let m = FeatureMatrix {
            steps: (0..rows.len() as u64).collect(),
            rows,
        };
        let cache = NeighborCache::build(&m, eps);
        assert_eq!(cache.neighbors(15), [15, 16]);
        assert_eq!(cache.neighbors(16), [15, 16]);
    }

    /// Past 2048 rows the tiles grow beyond 16 rows; the lists still
    /// equal the full scan's, with a NaN row and an infinite one.
    #[test]
    fn wide_tiles_match_the_full_scan() {
        let mut m = mixed_rows(2 * 2048 + 37, 3, 17);
        assert!(tile_rows(m.len()) > 16);
        m.rows[9][0] = f64::NAN;
        for eps in [0.7, 0.0] {
            let cache = NeighborCache::build(&m, eps);
            for (i, expected) in full_scan(&m, eps).iter().enumerate() {
                assert_eq!(cache.neighbors(i), expected.as_slice(), "row {i}");
            }
        }
        m.rows[11][2] = f64::INFINITY;
        let cache = NeighborCache::build(&m, 0.7);
        for (i, expected) in full_scan(&m, 0.7).iter().enumerate() {
            assert_eq!(cache.neighbors(i), expected.as_slice(), "row {i}");
        }
    }

    #[test]
    fn nan_row_is_nobodys_neighbor_not_even_its_own() {
        let mut m = mixed_rows(PAR_NEIGHBOR_MIN_ROWS + 5, 3, 11);
        m.rows[7][1] = f64::NAN;
        let cache = NeighborCache::build(&m, 10.0);
        assert!(cache.neighbors(7).is_empty());
        assert!((0..m.len()).all(|i| !cache.neighbors(i).contains(&7)));
        assert_eq!(cache.neighbors(8), full_scan(&m, 10.0)[8].as_slice());
    }

    #[test]
    fn auto_eps_is_bit_identical_across_thread_counts() {
        // Over 512 rows, so the seeds are a strided sample.
        for m in [blobs(&[40, 30]), mixed_rows(700, 4, 3)] {
            tpupoint_par::set_threads(1);
            let serial = auto_eps(&m);
            tpupoint_par::set_threads(4);
            let pooled = auto_eps(&m);
            tpupoint_par::set_threads(0);
            assert_eq!(pooled.to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn border_points_join_clusters() {
        // A dense line of points: all should be one cluster, no noise.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.5, 0.0]).collect();
        let m = FeatureMatrix {
            steps: (0..30).collect(),
            rows,
        };
        let result = run(
            &m,
            &DbscanConfig {
                eps: Some(1.1),
                min_samples: 3,
                max_points: None,
            },
        )
        .unwrap();
        assert_eq!(result.clusters, 1);
        assert_eq!(result.noise_ratio(), 0.0);
    }
}
