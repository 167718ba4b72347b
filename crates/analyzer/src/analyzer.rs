//! The top-level analyzer facade tying features, clustering, OLS, phases,
//! checkpoints, and visualization together.

use crate::checkpoint::{associate, PhaseCheckpoint};
use crate::dbscan::{self, DbscanConfig, DbscanError, NeighborCache};
use crate::features::{FeatureMatrix, MAX_DIMS};
use crate::kmeans::{self, KmeansConfig};
use crate::ols::{self, OlsConfig};
use crate::phases::{top_operators, Phase, PhaseSet, TopOps};
use crate::viz;
use std::io;
use std::sync::OnceLock;
use tpupoint_profiler::Profile;

/// Tuning knobs for [`Analyzer`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyzerOptions {
    /// Worker-pool size for the parallel sweeps. `0` (the default) leaves
    /// the process-wide pool untouched — auto-sized from
    /// `TPUPOINT_THREADS` or the machine on first use — so constructing
    /// an analyzer never undoes an explicit `--threads` choice.
    pub threads: usize,
}

/// Post-execution analyzer over one [`Profile`].
///
/// The PCA-reduced feature matrix is extracted on first use, by
/// [`Analyzer::features`] or a k-means or DBSCAN method, and reused
/// after that. DBSCAN's eps and O(n²) neighbor lists are likewise built
/// once, by the first DBSCAN method, and shared by the sweep and every
/// [`Analyzer::dbscan_phases`] call. OLS, checkpoints, top operators and
/// the visualization writers read the profile directly and never build
/// either.
#[derive(Debug)]
pub struct Analyzer<'a> {
    profile: &'a Profile,
    features: OnceLock<FeatureMatrix>,
    neighbors: OnceLock<NeighborCache>,
}

impl<'a> Analyzer<'a> {
    /// Builds the analyzer over `profile`.
    pub fn new(profile: &'a Profile) -> Self {
        Analyzer::with_options(profile, AnalyzerOptions::default())
    }

    /// Builds the analyzer with explicit tuning knobs. A non-zero
    /// `options.threads` re-sizes the process-wide pool here, so the
    /// sweeps run at the requested width.
    pub fn with_options(profile: &'a Profile, options: AnalyzerOptions) -> Self {
        if options.threads != 0 {
            tpupoint_par::set_threads(options.threads);
        }
        Analyzer {
            profile,
            features: OnceLock::new(),
            neighbors: OnceLock::new(),
        }
    }

    /// The profile under analysis.
    pub fn profile(&self) -> &Profile {
        self.profile
    }

    /// The reduced feature matrix, extracted and PCA-reduced on first use.
    pub fn features(&self) -> &FeatureMatrix {
        self.features.get_or_init(|| {
            let _span = tpupoint_obs::span!(
                "analyzer.pca",
                steps = self.profile.steps.len(),
                threads = tpupoint_par::current_threads()
            );
            FeatureMatrix::from_profile(self.profile).reduced(MAX_DIMS)
        })
    }

    /// k-means sum-of-squared-distances sweep (Figure 4).
    pub fn kmeans_sweep(&self, range: std::ops::RangeInclusive<usize>) -> Vec<(usize, f64)> {
        let _span = tpupoint_obs::span!("analyzer.kmeans", k_max = *range.end());
        kmeans::sweep(self.features(), range, &KmeansConfig::default())
    }

    /// Phases from k-means with the given k (Figure 9 uses k = 5).
    pub fn kmeans_phases(&self, k: usize) -> PhaseSet {
        let _span = tpupoint_obs::span!("analyzer.kmeans", k = k);
        let result = kmeans::run(
            self.features(),
            &KmeansConfig {
                k,
                ..KmeansConfig::default()
            },
        );
        let labels: Vec<isize> = result.assignments.iter().map(|&a| a as isize).collect();
        PhaseSet::from_labels(&self.profile.steps, &labels)
    }

    /// DBSCAN's neighbor lists at [`DbscanConfig::default`]'s eps, built
    /// on first use. The point cap is checked before every use, so an
    /// oversized profile fails each call alike and never builds them.
    fn neighbors(&self) -> Result<&NeighborCache, DbscanError> {
        let config = DbscanConfig::default();
        let features = self.features();
        config.check_points(features.len())?;
        Ok(self
            .neighbors
            .get_or_init(|| NeighborCache::build(features, config.eps_for(features))))
    }

    /// DBSCAN noise-ratio sweep over the paper's min-samples grid
    /// (Figure 5).
    ///
    /// # Errors
    ///
    /// Returns [`DbscanError::MemoryLimit`] on oversized inputs.
    pub fn dbscan_sweep(&self) -> Result<Vec<(usize, f64, usize)>, DbscanError> {
        let _span = tpupoint_obs::span!("analyzer.dbscan", sweep = true);
        Ok(dbscan::sweep_with_cache(
            self.neighbors()?,
            &dbscan::paper_grid(),
        ))
    }

    /// Phases from DBSCAN with the given min-samples (Figure 8 uses 30);
    /// noise points form their own phase.
    ///
    /// # Errors
    ///
    /// Returns [`DbscanError::MemoryLimit`] on oversized inputs.
    pub fn dbscan_phases(&self, min_samples: usize) -> Result<PhaseSet, DbscanError> {
        let _span = tpupoint_obs::span!("analyzer.dbscan", min_samples = min_samples);
        let result = dbscan::run_with_cache(self.neighbors()?, min_samples);
        Ok(PhaseSet::from_labels(&self.profile.steps, &result.labels))
    }

    /// OLS phase counts across thresholds (Figure 6).
    pub fn ols_threshold_sweep(&self, thresholds: &[f64]) -> Vec<(f64, usize)> {
        let _span = tpupoint_obs::span!("analyzer.ols", thresholds = thresholds.len());
        ols::threshold_sweep(&self.profile.steps, thresholds)
    }

    /// Phases from the online linear scan at `threshold` (Figure 7 uses
    /// 0.7).
    pub fn ols_phases(&self, threshold: f64) -> PhaseSet {
        let _span = tpupoint_obs::span!("analyzer.ols", threshold = threshold);
        let segments = ols::scan(&self.profile.steps, &OlsConfig { threshold });
        PhaseSet::from_segments(&self.profile.steps, &segments)
    }

    /// Top operators of a phase, split host/TPU (Table II).
    pub fn top_operators(&self, phase: &Phase, n: usize) -> TopOps {
        top_operators(self.profile, phase, n)
    }

    /// Top operators of the longest phase of a set.
    pub fn top_operators_of_longest(&self, set: &PhaseSet, n: usize) -> Option<TopOps> {
        set.by_time_desc()
            .first()
            .map(|phase| self.top_operators(phase, n))
    }

    /// Checkpoint association for every phase (Section IV-C).
    pub fn checkpoints_for(&self, set: &PhaseSet) -> Vec<Option<PhaseCheckpoint>> {
        let steps: Vec<u64> = self.profile.checkpoints.iter().map(|(s, _)| *s).collect();
        associate(&set.phases, &steps)
    }

    /// Writes the Chrome-tracing visualization.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `writer`.
    pub fn write_chrome_trace<W: io::Write>(&self, set: &PhaseSet, writer: W) -> io::Result<()> {
        viz::write_chrome_trace(self.profile, set, writer)
    }

    /// Writes the phase CSV.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `writer`.
    pub fn write_phase_csv<W: io::Write>(&self, set: &PhaseSet, writer: W) -> io::Result<()> {
        viz::write_phase_csv(self.profile, set, writer)
    }

    /// Writes the per-step operations CSV (Section IV-B's second file).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `writer`.
    pub fn write_step_csv<W: io::Write>(&self, writer: W) -> io::Result<()> {
        viz::write_step_csv(self.profile, writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_profiler::{ProfilerOptions, ProfilerSink};
    use tpupoint_runtime::{JobConfig, TrainingJob};

    fn demo_profile() -> Profile {
        let job = TrainingJob::new(JobConfig::demo());
        let mut sink = ProfilerSink::new(job.catalog().clone(), ProfilerOptions::default());
        sink.set_source(&job.config().model, &job.config().dataset.name);
        job.run(&mut sink);
        sink.finish()
    }

    #[test]
    fn ols_finds_few_phases_at_the_default_threshold() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let set = analyzer.ols_phases(0.7);
        assert!(
            (2..=6).contains(&set.len()),
            "expected a handful of phases, got {}",
            set.len()
        );
        // Top 3 phases dominate execution (Observation 2).
        assert!(
            set.coverage_top(3) > 0.9,
            "coverage {}",
            set.coverage_top(3)
        );
    }

    #[test]
    fn ols_phase_count_is_monotone_in_threshold() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let sweep = analyzer.ols_threshold_sweep(&[0.0, 0.3, 0.5, 0.7, 0.9, 1.0]);
        for pair in sweep.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "{pair:?}");
        }
    }

    #[test]
    fn kmeans_sweep_is_nonincreasing() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let sweep = analyzer.kmeans_sweep(1..=8);
        for pair in sweep.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-6, "{pair:?}");
        }
    }

    #[test]
    fn kmeans_phases_cover_all_steps() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let set = analyzer.kmeans_phases(5);
        let member_count: usize = set.phases.iter().map(|p| p.steps.len()).sum();
        assert_eq!(member_count, profile.steps.len());
        assert!((set.coverage_top(100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dbscan_sweep_and_phases_run_on_real_profiles() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let sweep = analyzer.dbscan_sweep().expect("within limits");
        assert_eq!(sweep.len(), 8);
        let set = analyzer.dbscan_phases(5).expect("within limits");
        assert!(!set.is_empty());
    }

    #[test]
    fn dbscan_phases_share_one_cache_and_match_a_fresh_run() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        for m in dbscan::paper_grid() {
            let fresh = dbscan::run(
                analyzer.features(),
                &DbscanConfig {
                    min_samples: m,
                    ..DbscanConfig::default()
                },
            )
            .expect("within limits");
            assert_eq!(
                analyzer.dbscan_phases(m).expect("within limits"),
                PhaseSet::from_labels(&profile.steps, &fresh.labels),
                "min_samples {m}"
            );
        }
        let first = analyzer.neighbors().expect("within limits");
        analyzer.dbscan_sweep().expect("within limits");
        assert!(std::ptr::eq(
            first,
            analyzer.neighbors().expect("within limits")
        ));
    }

    #[test]
    fn longest_phase_top_ops_include_the_expected_suspects() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let set = analyzer.ols_phases(0.7);
        // The demo run is tiny, so session init can outweigh training;
        // rank phases by time and take the longest one with TPU work (on
        // real workloads that IS the longest phase).
        let top = set
            .by_time_desc()
            .into_iter()
            .map(|p| analyzer.top_operators(p, 5))
            .find(|t| !t.tpu.is_empty())
            .expect("a phase with TPU work exists");
        let tpu_names: Vec<&str> = top.tpu.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(
            tpu_names.contains(&"fusion") || tpu_names.contains(&"MatMul"),
            "tpu top ops: {tpu_names:?}"
        );
        assert!(!top.host.is_empty());
    }

    #[test]
    fn checkpoints_associate_with_phases() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let set = analyzer.ols_phases(0.7);
        let assoc = analyzer.checkpoints_for(&set);
        assert_eq!(assoc.len(), set.len());
        assert!(assoc.iter().any(Option::is_some));
    }

    #[test]
    fn visualization_outputs_are_nonempty() {
        let profile = demo_profile();
        let analyzer = Analyzer::new(&profile);
        let set = analyzer.ols_phases(0.7);
        let mut json = Vec::new();
        analyzer.write_chrome_trace(&set, &mut json).unwrap();
        assert!(json.len() > 100);
        let mut csv = Vec::new();
        analyzer.write_phase_csv(&set, &mut csv).unwrap();
        assert!(csv.len() > 50);
    }
}
