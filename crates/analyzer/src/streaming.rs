//! Streaming phase analysis: the offline k-means/PCA characterization,
//! recomputed incrementally while the job still runs.
//!
//! The offline [`crate::Analyzer`] sees the whole profile at once; serve
//! mode wants phase structure *live*, updated as the profiler seals
//! windows (DeepProf/SeqPoint argue representative behavior is visible
//! from a running stream). [`StreamingAnalyzer`] keeps that incremental
//! state:
//!
//! * a **seeded reservoir** (Algorithm R) of raw per-step feature rows,
//!   so memory stays bounded no matter how long the job runs;
//! * **running min-max bounds** per dimension — rows are rescaled with
//!   the *current* bounds, converging on the offline scaling as the
//!   stream covers the run. The scaled rows live in one flat cache that
//!   is rescaled only for fresh or replaced slots, or in full when a
//!   bound moves;
//! * **mini-batch k-means with warm-started centroids**: each update
//!   runs a few Lloyd iterations over the reservoir, seeded from the
//!   previous update's centroids (kept in raw space so they survive
//!   evolving bounds), growing toward `k` with k-means++ picks, plus one
//!   cold k-means++ restart adopted only when decisively better;
//! * **bound-pruned descents**: both descents run the exact
//!   bound-pruned Lloyd kernel in [`crate::kmeans`] (interleaved-lane
//!   distance kernels, Hamerly's bounds and separation test). The cold
//!   restart starts from the bounds its seeding's distances give. The
//!   warm descent starts from the previous update's bounds, which stay
//!   valid while the scaled rows stay put: they are dropped when a bound
//!   moves or a projection is active, and forgotten for fresh or
//!   replaced slots. Pruning never changes a label, centroid or SSE bit;
//! * a **bound-decided restart**: the cold restart's SSE is always taken
//!   exactly, the warm descent's only when its upper bound (`Σ upper²`
//!   over the row bounds, widened past rounding) leaves the
//!   [`RESTART_MARGIN`] comparison open. The decision is the one the
//!   exact warm SSE gives; the carried bounds are then merely looser,
//!   never wrong;
//! * **incremental PCA**: a rank-1-updated raw scatter matrix, converted
//!   to the scaled-space covariance on demand and diagonalized with the
//!   same Jacobi solver the offline path uses — only engaged when the
//!   dimensionality exceeds [`StreamingConfig::pca_dims`], mirroring
//!   [`crate::FeatureMatrix::reduced`];
//! * **per-step labels with running occupancy**: a step → phase map that
//!   only slots whose label changed are written into, and per-phase
//!   step counts kept with every write, so phase counts and `/phases`
//!   occupancy never walk the map;
//! * a **stability score** in the SeqPoint spirit: the fraction of
//!   previously-labeled sampled steps whose phase assignment survived
//!   the latest update (fresh steps joining an existing cluster are not
//!   instability — only centroid drift that relabels old steps is).
//!   [`StreamingAnalyzer::is_stable`] latches after
//!   [`StreamingConfig::stable_k`] consecutive stable updates and drives
//!   serve's `--stop-on-stable` early exit and the batch
//!   `--prefix-stable` truncation.
//!
//! Every path is deterministic for a fixed seed and delivery order: the
//! reservoir and seeding draw from dedicated [`SimRng`] streams, and the
//! Lloyd kernel's pooled assignment step computes each row
//! independently and folds in row order, so results never depend on the
//! thread count.

use std::collections::BTreeMap;

use crate::features::{dist2, MAX_DIMS};
use crate::kmeans;
use crate::pca;
use tpupoint_obs::{PhaseStat, PhaseTransition, PhasesReport};
use tpupoint_profiler::{Profile, StepRecord};
use tpupoint_simcore::SimRng;

/// Completed steps handed to the streaming analyzer per update when no
/// sealed window forces an earlier one (the profiler's 60 s window cap
/// rarely triggers on small simulated jobs, so both the serve observer
/// and [`replay`] also update on this step cadence).
pub const STREAM_CADENCE: usize = 8;

/// A cold restart must beat the warm-started descent's SSE by this
/// factor to be adopted; anything closer is local-optimum noise not
/// worth the label churn.
const RESTART_MARGIN: f64 = 0.9;

/// Tuning of one [`StreamingAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingConfig {
    /// Target number of phases (centroids), matching the offline
    /// [`kmeans::KmeansConfig::k`] default.
    pub k: usize,
    /// Reservoir capacity: feature rows kept for re-clustering. Runs
    /// shorter than this are sampled exactly.
    pub reservoir: usize,
    /// Seed of the reservoir and k-means++ RNG streams.
    pub seed: u64,
    /// Lloyd iterations per incremental update (mini-batch depth).
    pub minibatch_iters: usize,
    /// Dimensionality above which incremental PCA engages, mirroring
    /// the offline [`MAX_DIMS`] cap.
    pub pca_dims: usize,
    /// Stability score at or above which an update counts as stable.
    pub stability_threshold: f64,
    /// Consecutive stable updates before [`StreamingAnalyzer::is_stable`]
    /// latches (the SeqPoint-style early-stop condition).
    pub stable_k: u64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            k: 5,
            reservoir: 1024,
            seed: 0x7e57,
            minibatch_iters: 8,
            pca_dims: MAX_DIMS,
            stability_threshold: 0.95,
            stable_k: 3,
        }
    }
}

/// Incremental (rank-1 updated) PCA state over the *raw* rows: running
/// sum and scatter (`Σ x xᵀ`). The scaled-space covariance is derived on
/// demand — min-max scaling is affine per dimension, so
/// `cov_scaled[i][j] = cov_raw[i][j] / (range_i · range_j)`.
#[derive(Debug, Clone, Default)]
struct IncrementalPca {
    n: u64,
    sum: Vec<f64>,
    scatter: Vec<Vec<f64>>,
}

impl IncrementalPca {
    fn init(&mut self, dims: usize) {
        self.sum = vec![0.0; dims];
        self.scatter = vec![vec![0.0; dims]; dims];
    }

    fn push(&mut self, row: &[f64]) {
        self.n += 1;
        for (s, &x) in self.sum.iter_mut().zip(row) {
            *s += x;
        }
        for i in 0..row.len() {
            if row[i] == 0.0 {
                continue;
            }
            for j in i..row.len() {
                self.scatter[i][j] += row[i] * row[j];
            }
        }
    }
}

/// A fixed projection basis in the scaled space, captured per update.
#[derive(Debug, Clone)]
struct Projection {
    mean: Vec<f64>,
    /// Kept eigenvectors, each of raw (scaled-space) length.
    cols: Vec<Vec<f64>>,
}

impl Projection {
    fn project(&self, x: &[f64]) -> Vec<f64> {
        self.cols
            .iter()
            .map(|col| {
                x.iter()
                    .zip(&self.mean)
                    .zip(col)
                    .map(|((&xi, &mi), &ci)| (xi - mi) * ci)
                    .sum()
            })
            .collect()
    }

    /// Approximate inverse: `mean + Σ z_c · col_c` (exact on the kept
    /// subspace since the columns are orthonormal).
    fn unproject(&self, z: &[f64]) -> Vec<f64> {
        let mut x = self.mean.clone();
        for (zc, col) in z.iter().zip(&self.cols) {
            for (xi, &ci) in x.iter_mut().zip(col) {
                *xi += zc * ci;
            }
        }
        x
    }
}

/// Incremental phase tracker; see the module docs.
#[derive(Debug)]
pub struct StreamingAnalyzer {
    config: StreamingConfig,
    reservoir_rng: SimRng,
    kmeans_rng: SimRng,
    dims: usize,
    rows_seen: u64,
    /// Reservoir slots: step labels, raw rows, and each slot's label at
    /// the previous update (`None` for fresh or replaced slots).
    sample_steps: Vec<u64>,
    sample_rows: Vec<Vec<f64>>,
    slot_labels: Vec<Option<usize>>,
    /// The reservoir rows min-max scaled with the current bounds, one
    /// row-major buffer; rescaled only for fresh or replaced slots, or
    /// all of it when a bound moves.
    scaled: Vec<f64>,
    /// Running per-dimension (min, max) over *all* rows seen.
    bounds: Vec<(f64, f64)>,
    /// Whether a bound moved since the last update.
    bounds_moved: bool,
    /// The last update's k-means bounds against `centroids_view`, carried
    /// into the next warm descent while the scaled rows stay put (no
    /// bound moved, no projection).
    carried: Option<kmeans::RowBounds>,
    /// Centroids in raw feature space, so warm starts survive bound
    /// drift between updates.
    centroids_raw: Vec<Vec<f64>>,
    /// Centroids as of the latest update, in the update's scaled (and
    /// possibly projected) space — what `/phases` reports.
    centroids_view: Vec<Vec<f64>>,
    pca: IncrementalPca,
    /// Rows ingested since the last update.
    pending: Vec<(u64, Vec<f64>)>,
    /// Per-step phase labels. Steps still in the reservoir are
    /// refreshed every update; evicted steps keep their last label.
    assignments: BTreeMap<u64, usize>,
    /// Steps per label in `assignments`, kept in step with every write.
    occupancy: Vec<u64>,
    stability: f64,
    stable_windows: u64,
    updates: u64,
    /// Takes the warm SSE exactly even where its bound decides the
    /// restart: the reference the bound-decided twin must match.
    #[cfg(test)]
    exact_restart: bool,
}

impl StreamingAnalyzer {
    /// A fresh tracker with no observed rows.
    pub fn new(config: StreamingConfig) -> StreamingAnalyzer {
        StreamingAnalyzer {
            reservoir_rng: SimRng::seed_from(config.seed),
            kmeans_rng: SimRng::seed_from(config.seed ^ 0x5EED_CAFE),
            config,
            dims: 0,
            rows_seen: 0,
            sample_steps: Vec::new(),
            sample_rows: Vec::new(),
            slot_labels: Vec::new(),
            scaled: Vec::new(),
            bounds: Vec::new(),
            bounds_moved: false,
            carried: None,
            centroids_raw: Vec::new(),
            centroids_view: Vec::new(),
            pca: IncrementalPca::default(),
            pending: Vec::new(),
            assignments: BTreeMap::new(),
            occupancy: Vec::new(),
            stability: 0.0,
            stable_windows: 0,
            updates: 0,
            #[cfg(test)]
            exact_restart: false,
        }
    }

    /// Ingests one batch of newly completed step records (a sealed
    /// window, or a step-cadence slice of one) and re-clusters. Empty
    /// batches are a no-op so frequent seals cannot inflate the
    /// stability counter without new evidence.
    pub fn observe_seal(&mut self, records: &[StepRecord], n_ops: usize) {
        let _span =
            tpupoint_obs::span!("analyzer.streaming_update", records = records.len() as i64);
        for record in records {
            let row = row_of(record, n_ops);
            self.ingest(record.step, row);
        }
        if !self.pending.is_empty() {
            self.update();
        }
    }

    fn ingest(&mut self, step: u64, row: Vec<f64>) {
        if self.dims == 0 {
            self.dims = row.len();
            self.bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); self.dims];
            if self.dims > self.config.pca_dims {
                self.pca.init(self.dims);
            }
        }
        for (b, &x) in self.bounds.iter_mut().zip(&row) {
            let before = *b;
            b.0 = b.0.min(x);
            b.1 = b.1.max(x);
            self.bounds_moved |=
                b.0.to_bits() != before.0.to_bits() || b.1.to_bits() != before.1.to_bits();
        }
        if self.dims > self.config.pca_dims {
            self.pca.push(&row);
        }
        self.rows_seen += 1;
        // Algorithm R: every row seen so far had an equal chance of
        // occupying a slot; deterministic for the fixed seed and
        // delivery order.
        if self.sample_rows.len() < self.config.reservoir {
            self.sample_steps.push(step);
            self.sample_rows.push(row.clone());
            self.slot_labels.push(None);
        } else {
            let j = self.reservoir_rng.uniform_u64(0, self.rows_seen - 1) as usize;
            if j < self.config.reservoir {
                self.sample_steps[j] = step;
                self.sample_rows[j] = row.clone();
                self.slot_labels[j] = None;
            }
        }
        self.pending.push((step, row));
    }

    fn scale(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; row.len()];
        scale_into(&self.bounds, row, &mut out);
        out
    }

    /// Brings the scaled-row cache up to date with the reservoir and the
    /// bounds.
    fn refresh_scaled(&mut self) {
        let d = self.dims;
        self.scaled.resize(self.sample_rows.len() * d, 0.0);
        for (i, row) in self.sample_rows.iter().enumerate() {
            if self.bounds_moved || self.slot_labels[i].is_none() {
                scale_into(&self.bounds, row, &mut self.scaled[i * d..(i + 1) * d]);
            }
        }
    }

    fn unscale(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.bounds)
            .map(|(&z, &(lo, hi))| {
                let range = hi - lo;
                if range > 0.0 {
                    lo + z * range
                } else {
                    lo
                }
            })
            .collect()
    }

    /// Derives the projection basis from the incremental scatter, or
    /// `None` while the dimensionality fits without reduction.
    fn projection_basis(&self) -> Option<Projection> {
        if self.dims <= self.config.pca_dims || self.pca.n < 2 {
            return None;
        }
        let d = self.dims;
        let n = self.pca.n as f64;
        let mean_raw: Vec<f64> = self.pca.sum.iter().map(|s| s / n).collect();
        let inv_range: Vec<f64> = self
            .bounds
            .iter()
            .map(|&(lo, hi)| {
                let range = hi - lo;
                if range > 0.0 {
                    1.0 / range
                } else {
                    0.0
                }
            })
            .collect();
        let mut cov = vec![vec![0.0; d]; d];
        let denom = n - 1.0;
        for i in 0..d {
            for j in i..d {
                let raw = self.pca.scatter[i][j] - n * mean_raw[i] * mean_raw[j];
                let scaled = raw * inv_range[i] * inv_range[j] / denom;
                cov[i][j] = scaled;
                cov[j][i] = scaled;
            }
        }
        let (eigenvalues, eigenvectors) = pca::jacobi_eigen(cov);
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| {
            eigenvalues[b]
                .partial_cmp(&eigenvalues[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let cols: Vec<Vec<f64>> = order
            .into_iter()
            .take(self.config.pca_dims)
            .filter(|&c| eigenvalues[c] > 1e-12)
            .map(|c| (0..d).map(|i| eigenvectors[i][c]).collect())
            .collect();
        Some(Projection {
            mean: self.scale(&mean_raw),
            cols,
        })
    }

    /// Renames `cold`'s cluster indices so each maps to its nearest
    /// centroid in `reference` (greedy injective matching by distance),
    /// keeping label identity continuous when a restart is adopted.
    fn align_to_reference(mut cold: kmeans::Descent, reference: &[Vec<f64>]) -> kmeans::Descent {
        let k = cold.centroids.len();
        if reference.len() != k {
            return cold;
        }
        let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(k * k);
        for (i, c) in cold.centroids.iter().enumerate() {
            for (j, r) in reference.iter().enumerate() {
                pairs.push((dist2(c, r), i, j));
            }
        }
        pairs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut rename = vec![usize::MAX; k];
        let mut taken = vec![false; k];
        for (_, i, j) in pairs {
            if rename[i] == usize::MAX && !taken[j] {
                rename[i] = j;
                taken[j] = true;
            }
        }
        let mut centroids = vec![Vec::new(); k];
        for (i, c) in cold.centroids.into_iter().enumerate() {
            centroids[rename[i]] = c;
        }
        cold.centroids = centroids;
        for label in cold.assignments.iter_mut().chain(&mut cold.bounds.nearest) {
            *label = rename[*label];
        }
        cold.bounds.centroids.clone_from(&cold.centroids);
        cold
    }

    /// Whether a cold restart of exact SSE `cold_sse` beats the warm
    /// descent by [`RESTART_MARGIN`]. The warm descent's SSE pass runs
    /// only when the upper bound its row bounds give leaves the answer
    /// open: `RESTART_MARGIN * x` rounds monotonically in `x`, so a cold
    /// SSE at or above the margin times the bound is at or above the
    /// margin times the exact SSE too, and the answer is the same.
    fn restart_wins(
        &self,
        cold_sse: f64,
        warm: &mut kmeans::Descent,
        points: kmeans::Points<'_>,
    ) -> bool {
        let bound_decides = cold_sse >= RESTART_MARGIN * warm.sse_bound(points);
        #[cfg(test)]
        let bound_decides = bound_decides && !self.exact_restart;
        !bound_decides && cold_sse < RESTART_MARGIN * warm.exact_sse(points)
    }

    /// Re-clusters the reservoir; returns whether the cold restart was
    /// adopted.
    fn update(&mut self) -> bool {
        self.updates += 1;
        let pending = std::mem::take(&mut self.pending);
        let basis = self.projection_basis();
        let view = |this: &Self, raw: &[f64]| -> Vec<f64> {
            let scaled = this.scale(raw);
            match &basis {
                Some(p) => p.project(&scaled),
                None => scaled,
            }
        };
        self.refresh_scaled();
        let n = self.sample_rows.len();
        // Carried bounds hold while the rows they describe are unchanged:
        // not across moved bounds or a re-derived projection, and never
        // for fresh or replaced slots.
        let mut carried = self
            .carried
            .take()
            .filter(|_| !self.bounds_moved && basis.is_none());
        self.bounds_moved = false;
        if let Some(carried) = &mut carried {
            for i in 0..n {
                if self.slot_labels[i].is_none() {
                    carried.invalidate(i);
                }
            }
        }
        let scaled = kmeans::Points::new(&self.scaled, n, self.dims);
        let projected: Vec<f64>;
        let points = match &basis {
            Some(p) => {
                projected = scaled.rows().flat_map(|row| p.project(row)).collect();
                kmeans::Points::new(&projected, n, p.cols.len())
            }
            None => scaled,
        };
        // Warm start from the previous centroids, mapped through the
        // current scaling/projection; grow toward k with k-means++.
        let mut centroids: Vec<Vec<f64>> =
            self.centroids_raw.iter().map(|c| view(self, c)).collect();
        let want = self.config.k.min(n);
        if centroids.is_empty() {
            let (seeds, bounds) = kmeans::seed_centroids(points, want, &mut self.kmeans_rng);
            centroids = seeds;
            carried = Some(bounds);
        }
        while centroids.len() < want {
            let min_d2: Vec<f64> = points
                .rows()
                .map(|row| {
                    centroids
                        .iter()
                        .map(|c| dist2(row, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let idx = kmeans::kmeanspp_pick(&min_d2, &mut self.kmeans_rng);
            centroids.push(points.row(idx).to_vec());
        }
        let mut warm = kmeans::descend(points, centroids, self.config.minibatch_iters, carried);
        // Restart guard: a purely warm-started descent inherits whatever
        // optimum the first few rows suggested and can stay trapped
        // spending clusters on early outliers while the dominant mass
        // goes unsplit. Each update also tries one cold k-means++
        // restart and adopts it only when decisively better, its
        // clusters renamed to the nearest warm centroids so surviving
        // phases keep their labels across the switch.
        let (result, adopted) = if n >= want && want > 0 {
            let (seeds, seed_bounds) = kmeans::seed_centroids(points, want, &mut self.kmeans_rng);
            let mut cold = kmeans::descend(
                points,
                seeds,
                self.config.minibatch_iters,
                Some(seed_bounds),
            );
            let cold_sse = cold.exact_sse(points);
            if self.restart_wins(cold_sse, &mut warm, points) {
                (Self::align_to_reference(cold, &warm.centroids), true)
            } else {
                (warm, false)
            }
        } else {
            (warm, false)
        };
        self.carried = basis.is_none().then_some(result.bounds);

        // Stability: previously-labeled sampled steps whose label
        // survived this update. Fresh and replaced slots are excluded —
        // a new step landing in an existing cluster is not instability;
        // only centroid drift strong enough to *relabel* old steps is.
        let prev = (0..n).filter(|&i| self.slot_labels[i].is_some()).count();
        let matched = (0..n)
            .filter(|&i| self.slot_labels[i] == Some(result.assignments[i]))
            .count();
        self.stability = if prev == 0 {
            0.0
        } else {
            matched as f64 / prev as f64
        };
        if self.stability >= self.config.stability_threshold {
            self.stable_windows += 1;
        } else {
            self.stable_windows = 0;
        }

        // A slot whose label held already has it in the map.
        for i in 0..n {
            let label = result.assignments[i];
            if self.slot_labels[i] != Some(label) {
                self.slot_labels[i] = Some(label);
                self.label_step(self.sample_steps[i], label);
            }
        }
        // Pending rows evicted from the reservoir before this update
        // still get a label against the fresh centroids.
        for (step, raw) in &pending {
            if self.assignments.contains_key(step) {
                continue;
            }
            let v = view(self, raw);
            self.label_step(*step, kmeans::nearest(&v, &result.centroids));
        }
        // Store centroids in raw space so the next update's warm start
        // survives shifting bounds (and a re-derived projection).
        self.centroids_raw = result
            .centroids
            .iter()
            .map(|c| {
                let scaled = match &basis {
                    Some(p) => p.unproject(c),
                    None => c.clone(),
                };
                self.unscale(&scaled)
            })
            .collect();
        self.centroids_view = result.centroids;
        adopted
    }

    /// Writes one step's label, keeping the per-label occupancy in step.
    fn label_step(&mut self, step: u64, label: usize) {
        if let Some(old) = self.assignments.insert(step, label) {
            self.occupancy[old] -= 1;
        }
        if self.occupancy.len() <= label {
            self.occupancy.resize(label + 1, 0);
        }
        self.occupancy[label] += 1;
    }

    /// Steps per phase, one entry per current centroid.
    fn phase_occupancy(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.centroids_view.len()).map(|id| self.occupancy.get(id).copied().unwrap_or(0))
    }

    /// Fraction of previously-labeled sampled steps whose assignment
    /// survived the latest update.
    pub fn stability(&self) -> f64 {
        self.stability
    }

    /// Consecutive updates at or above the stability threshold.
    pub fn stable_windows(&self) -> u64 {
        self.stable_windows
    }

    /// Whether assignments have been stable for
    /// [`StreamingConfig::stable_k`] consecutive updates.
    pub fn is_stable(&self) -> bool {
        self.stable_windows >= self.config.stable_k
    }

    /// Incremental updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Steps assigned to a phase so far.
    pub fn steps_assigned(&self) -> u64 {
        self.assignments.len() as u64
    }

    /// Phases with at least one assigned step.
    pub fn phase_count(&self) -> usize {
        self.phase_occupancy().filter(|&o| o > 0).count()
    }

    /// The live `/phases` snapshot: per-phase occupancy and centroids,
    /// the transition timeline, and the stability state.
    pub fn report(&self) -> PhasesReport {
        let occupancy: Vec<u64> = self.phase_occupancy().collect();
        let total: u64 = occupancy.iter().sum();
        let phases = self
            .centroids_view
            .iter()
            .enumerate()
            .map(|(id, centroid)| PhaseStat {
                id,
                occupancy: occupancy[id],
                share: if total > 0 {
                    occupancy[id] as f64 / total as f64
                } else {
                    0.0
                },
                centroid: centroid.clone(),
            })
            .collect();
        let mut transitions = Vec::new();
        let mut prev: Option<usize> = None;
        for (&step, &label) in &self.assignments {
            if prev.is_some() && prev != Some(label) {
                transitions.push(PhaseTransition { step, phase: label });
            }
            prev = Some(label);
        }
        PhasesReport {
            phases,
            stability: self.stability,
            stable_windows: self.stable_windows,
            updates: self.updates,
            steps_assigned: total,
            last_transition_step: transitions.last().map(|t| t.step),
            transitions,
        }
    }

    /// Final per-step labels (step → phase), for convergence checks
    /// against the offline assignment.
    pub fn assignments(&self) -> &BTreeMap<u64, usize> {
        &self.assignments
    }
}

/// Min-max scales `row` into `out` with the per-dimension `bounds`; a
/// constant dimension scales to zero.
fn scale_into(bounds: &[(f64, f64)], row: &[f64], out: &mut [f64]) {
    for ((o, &x), &(lo, hi)) in out.iter_mut().zip(row).zip(bounds) {
        let range = hi - lo;
        *o = if range > 0.0 { (x - lo) / range } else { 0.0 };
    }
}

/// The per-step feature row, exactly as [`crate::FeatureMatrix::from_profile`]
/// builds it: two dimensions per operator — invocation count and total
/// duration in microseconds.
fn row_of(record: &StepRecord, n_ops: usize) -> Vec<f64> {
    let mut row = vec![0.0; 2 * n_ops];
    for (op, stats) in &record.ops {
        let i = op.0 as usize;
        row[2 * i] = stats.count as f64;
        row[2 * i + 1] = stats.total.as_micros() as f64;
    }
    row
}

/// Result of replaying a recorded profile through the streaming
/// analyzer, as `analyze --prefix-stable` does.
#[derive(Debug)]
pub struct StreamingReplay {
    /// The tracker's final state.
    pub analyzer: StreamingAnalyzer,
    /// Last step of the update at which stability first latched
    /// ([`StreamingAnalyzer::is_stable`]), if it ever did.
    pub stable_at_step: Option<u64>,
    /// Update batches replayed.
    pub chunks: u64,
}

/// Replays `profile`'s step records through a fresh tracker in
/// [`STREAM_CADENCE`]-sized batches — the batch-mode twin of the serve
/// observer, used by `--prefix-stable` to find the stable prefix.
pub fn replay(profile: &Profile, config: StreamingConfig) -> StreamingReplay {
    let n_ops = profile.op_names.len();
    let mut analyzer = StreamingAnalyzer::new(config);
    let mut stable_at_step = None;
    let mut chunks = 0;
    for chunk in profile.steps.chunks(STREAM_CADENCE) {
        analyzer.observe_seal(chunk, n_ops);
        chunks += 1;
        if stable_at_step.is_none() && analyzer.is_stable() {
            stable_at_step = Some(chunk.last().expect("non-empty chunk").step);
        }
    }
    StreamingReplay {
        analyzer,
        stable_at_step,
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

    /// A step whose ops and durations follow `pattern` (op id, count,
    /// total duration µs).
    fn step_record(step: u64, pattern: &[(u32, u64, u64)]) -> StepRecord {
        let mut r = StepRecord::new(step);
        for &(op, count, total) in pattern {
            for i in 0..count {
                r.absorb(
                    OpId(op),
                    Track::TpuCore(0),
                    SimTime::from_micros(step * 1_000 + i),
                    SimDuration::from_micros(total / count.max(1)),
                    SimDuration::ZERO,
                );
            }
        }
        r
    }

    /// Alternating two-phase stream: even steps heavy on op 0, odd
    /// blocks heavy on op 1.
    fn two_phase_steps(n: u64) -> Vec<StepRecord> {
        (0..n)
            .map(|s| {
                if (s / 8) % 2 == 0 {
                    step_record(s, &[(0, 4, 400), (1, 1, 10)])
                } else {
                    step_record(s, &[(0, 1, 10), (1, 6, 900)])
                }
            })
            .collect()
    }

    fn feed(analyzer: &mut StreamingAnalyzer, records: &[StepRecord], n_ops: usize) {
        for chunk in records.chunks(STREAM_CADENCE) {
            analyzer.observe_seal(chunk, n_ops);
        }
    }

    #[test]
    fn repetitive_stream_stabilizes_and_latches() {
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig {
            k: 2,
            ..StreamingConfig::default()
        });
        feed(&mut analyzer, &two_phase_steps(160), 2);
        assert!(analyzer.updates() >= 10);
        assert!(
            analyzer.stability() >= 0.95,
            "stability {}",
            analyzer.stability()
        );
        assert!(
            analyzer.is_stable(),
            "stable for {}",
            analyzer.stable_windows()
        );
        assert_eq!(analyzer.steps_assigned(), 160);
        assert_eq!(analyzer.phase_count(), 2);
    }

    #[test]
    fn assignments_separate_the_two_phases() {
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig {
            k: 2,
            ..StreamingConfig::default()
        });
        let steps = two_phase_steps(160);
        feed(&mut analyzer, &steps, 2);
        let labels: Vec<usize> = analyzer.assignments().values().copied().collect();
        // Steps within one block share a label; blocks alternate.
        for block in 0..20 {
            let block_labels = &labels[block * 8..(block + 1) * 8];
            assert!(
                block_labels.iter().all(|&l| l == block_labels[0]),
                "block {block} split: {block_labels:?}"
            );
        }
        assert_ne!(labels[0], labels[8], "adjacent blocks differ");
        let report = analyzer.report();
        assert!(!report.transitions.is_empty());
        assert_eq!(report.steps_assigned, 160);
        let share: f64 = report.phases.iter().map(|p| p.share).sum();
        assert!((share - 1.0).abs() < 1e-9, "shares sum to 1, got {share}");
    }

    #[test]
    fn deterministic_for_fixed_seed_and_any_thread_count() {
        let steps = two_phase_steps(300);
        let run = |threads: usize| -> (Vec<(u64, usize)>, Vec<Vec<f64>>, f64) {
            tpupoint_par::set_threads(threads);
            let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
            feed(&mut analyzer, &steps, 2);
            let out = (
                analyzer
                    .assignments()
                    .iter()
                    .map(|(&s, &l)| (s, l))
                    .collect(),
                analyzer.centroids_view.clone(),
                analyzer.stability(),
            );
            tpupoint_par::set_threads(0);
            out
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn reservoir_stays_bounded_and_keeps_assigning() {
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig {
            k: 2,
            reservoir: 32,
            ..StreamingConfig::default()
        });
        feed(&mut analyzer, &two_phase_steps(400), 2);
        assert_eq!(analyzer.sample_rows.len(), 32);
        assert_eq!(analyzer.rows_seen, 400);
        // Every step got a label even though most rows were evicted.
        assert_eq!(analyzer.steps_assigned(), 400);
    }

    #[test]
    fn incremental_pca_engages_above_the_cap() {
        // 4 ops → 8 raw dims, cap at 3: the projection must engage and
        // the clustering still separates the two phases.
        let steps: Vec<StepRecord> = (0..120)
            .map(|s| {
                if (s / 8) % 2 == 0 {
                    step_record(s, &[(0, 4, 400), (1, 4, 380), (2, 1, 10), (3, 1, 12)])
                } else {
                    step_record(s, &[(0, 1, 10), (1, 1, 12), (2, 6, 900), (3, 6, 880)])
                }
            })
            .collect();
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig {
            k: 2,
            pca_dims: 3,
            ..StreamingConfig::default()
        });
        feed(&mut analyzer, &steps, 4);
        assert!(
            analyzer.centroids_view.iter().all(|c| c.len() <= 3),
            "centroids live in the projected space: {:?}",
            analyzer.centroids_view
        );
        let labels: Vec<usize> = analyzer.assignments().values().copied().collect();
        assert_ne!(labels[0], labels[8], "phases still separate after PCA");
    }

    /// Three noisy phases with periodic outlier steps that stretch the
    /// min-max bounds after the phases settle; `seed` varies the noise,
    /// the outlier period and magnitude.
    fn outlier_steps(seed: u64) -> Vec<StepRecord> {
        let mut rng = SimRng::seed_from(seed);
        let period = 20 + seed % 50;
        let big = 2 + seed % 7;
        (0..600u64)
            .map(|s| {
                let mut noisy = |v: u64| v + rng.uniform_u64(0, v / 2);
                match (s % period == period - 1, (s / 8) % 3) {
                    (true, _) => step_record(
                        s,
                        &[
                            (0, noisy(4 * big), noisy(400 * big)),
                            (1, noisy(6 * (s % 3)), noisy(900 * (s % 2))),
                        ],
                    ),
                    (false, 0) => step_record(s, &[(0, noisy(4), noisy(400)), (1, 1, 10)]),
                    (false, 1) => step_record(s, &[(0, 1, 10), (1, noisy(6), noisy(900))]),
                    (false, _) => step_record(s, &[(0, noisy(3), noisy(300)), (1, 3, 300)]),
                }
            })
            .collect()
    }

    #[test]
    fn carried_bounds_never_change_an_update() {
        // Against a twin whose carried bounds are dropped before every
        // update, over small reservoirs (so slots are replaced) and
        // bounds that keep moving.
        for seed in 0..60 {
            let config = StreamingConfig {
                k: 2 + (seed % 4) as usize,
                reservoir: 32 + (seed % 5) as usize * 32,
                ..StreamingConfig::default()
            };
            let mut carried = StreamingAnalyzer::new(config);
            let mut fresh = StreamingAnalyzer::new(config);
            for chunk in outlier_steps(seed).chunks(STREAM_CADENCE) {
                carried.observe_seal(chunk, 2);
                fresh.carried = None;
                fresh.observe_seal(chunk, 2);
                assert_eq!(
                    carried.report().to_json(),
                    fresh.report().to_json(),
                    "seed {seed}"
                );
                assert_eq!(carried.assignments(), fresh.assignments(), "seed {seed}");
            }
        }
    }

    #[test]
    fn bound_decided_restart_matches_the_exact_decision() {
        // Against a twin that takes the warm SSE exactly on every update:
        // the same restart decision, report and labels, update by update.
        let mut adopted = 0;
        for seed in 0..60 {
            let config = StreamingConfig {
                k: 2 + (seed % 4) as usize,
                reservoir: 32 + (seed % 5) as usize * 32,
                ..StreamingConfig::default()
            };
            let mut bounded = StreamingAnalyzer::new(config);
            let mut exact = StreamingAnalyzer::new(config);
            exact.exact_restart = true;
            for chunk in outlier_steps(seed).chunks(STREAM_CADENCE) {
                let decisions = [&mut bounded, &mut exact].map(|analyzer| {
                    for record in chunk {
                        analyzer.ingest(record.step, row_of(record, 2));
                    }
                    analyzer.update()
                });
                assert_eq!(decisions[0], decisions[1], "seed {seed}");
                adopted += usize::from(decisions[0]);
                assert_eq!(
                    bounded.report().to_json(),
                    exact.report().to_json(),
                    "seed {seed}"
                );
                assert_eq!(bounded.assignments(), exact.assignments(), "seed {seed}");
            }
        }
        assert!(
            adopted > 0,
            "no restart was adopted, so the test covers only one outcome"
        );
    }

    #[test]
    fn empty_batches_do_not_advance_stability() {
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
        feed(&mut analyzer, &two_phase_steps(64), 2);
        let stable_before = analyzer.stable_windows();
        let updates_before = analyzer.updates();
        for _ in 0..10 {
            analyzer.observe_seal(&[], 2);
        }
        assert_eq!(analyzer.stable_windows(), stable_before);
        assert_eq!(analyzer.updates(), updates_before);
    }

    #[test]
    fn report_starts_empty_and_serializes() {
        let analyzer = StreamingAnalyzer::new(StreamingConfig::default());
        let report = analyzer.report();
        assert!(report.phases.is_empty());
        assert_eq!(report.steps_assigned, 0);
        assert!(report.to_json().contains("\"phases\": []"));
    }
}
