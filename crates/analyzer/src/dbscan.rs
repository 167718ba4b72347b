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
use crate::features::{dist2, FeatureMatrix};
use std::collections::VecDeque;
use std::fmt;

/// Label DBSCAN gives to unclustered points.
pub const NOISE: isize = -1;

/// Row count below which the neighbor-cache build stays serial. The
/// pooled build pays end to end: with a serial build, perfbench
/// `analyze-sweep` (2-core host) ran at 0.68x and lost 3 of 3 pairs.
const PAR_NEIGHBOR_MIN_ROWS: usize = 128;

/// Pairwise eps-neighborhoods of a matrix, computed once and shared by
/// every DBSCAN run over it — a sweep varies only `min_samples`, so
/// recomputing the O(n²) neighbor scan per run is pure waste.
///
/// Each list keeps ascending row order (the same order the previous
/// inline `(0..n).filter` scan produced), so BFS expansion and therefore
/// the cluster labels are bit-identical to the uncached implementation.
#[derive(Debug, Clone)]
pub struct NeighborCache {
    eps: f64,
    lists: Vec<Vec<usize>>,
}

impl NeighborCache {
    /// Builds the cache for `matrix` at radius `eps`, measuring each
    /// pair once. Row i scans only j ≥ i, fanned out over the pool for
    /// large matrices; the lower half is then mirrored from it, since
    /// [`dist2`] is symmetric bit for bit. The diagonal is still
    /// measured, so a row whose self-distance is NaN stays out of its own
    /// list, as in a full scan. Mirroring walks rows in ascending order,
    /// so every list comes out ascending and identical to a full scan at
    /// any thread count.
    pub fn build(matrix: &FeatureMatrix, eps: f64) -> Self {
        let _span = tpupoint_obs::span!("dbscan.neighbor_cache");
        let n = matrix.len();
        let eps2 = eps * eps;
        let upper_half = |i: usize| -> Vec<usize> {
            let row = &matrix.rows[i];
            (i..n)
                .filter(|&j| dist2(row, &matrix.rows[j]) <= eps2)
                .collect()
        };
        let pool = tpupoint_par::pool();
        let upper = if n >= PAR_NEIGHBOR_MIN_ROWS && pool.size() > 1 {
            pool.par_map_index(n, upper_half)
        } else {
            (0..n).map(upper_half).collect()
        };
        // By the time row i is reached, every lower neighbor h < i has
        // already been pushed in ascending order; its own upper half,
        // all ≥ i, follows.
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, up) in upper.iter().enumerate() {
            lists[i].extend_from_slice(up);
            for &j in up.iter().filter(|&&j| j > i) {
                lists[j].push(i);
            }
        }
        NeighborCache { eps, lists }
    }

    /// The radius the cache was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Rows covered by the cache.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the cache covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Neighbors of row `i` (including `i` itself), ascending.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.lists[i]
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
/// The seeds' scans are independent and fan out over the pool; their
/// distances come back in seed order, so eps is bit-identical at any
/// thread count. The pool pays end to end: with serial scans, perfbench
/// `analyze-sweep` (2-core host) ran at 0.78x and lost 3 of 3 pairs.
pub fn auto_eps(matrix: &FeatureMatrix) -> f64 {
    let n = matrix.len();
    if n < 2 {
        return 1.0;
    }
    let stride = n.div_ceil(512);
    let sample: Vec<usize> = (0..n).step_by(stride).collect();
    let mut knn = tpupoint_par::pool().par_map(&sample, |_, &i| {
        let mut d: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| matrix.dist2(i, j))
            .collect();
        let k = 3.min(d.len() - 1);
        d.select_nth_unstable_by(k, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        d[k].sqrt()
    });
    knn.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median = knn[knn.len() / 2];
    (1.5 * median).max(1e-9)
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
        let mut queue: VecDeque<usize> = nbrs.iter().copied().collect();
        while let Some(j) = queue.pop_front() {
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
/// results are ordered by grid index). End to end this is within noise
/// of a serial loop: on perfbench `analyze-sweep` (2-core host, ten
/// alternating 15 s pairs) the serial loop won 5 pairs, with a median
/// 0.2% higher.
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
    fn full_scan(matrix: &FeatureMatrix, eps: f64) -> Vec<Vec<usize>> {
        let n = matrix.len();
        let eps2 = eps * eps;
        (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| dist2(&matrix.rows[i], &matrix.rows[j]) <= eps2)
                    .collect()
            })
            .collect()
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
