//! # tpupoint-analyzer
//!
//! TPUPoint-Analyzer (Section IV of the paper): post-execution analysis of
//! profiles into program *phases* — similar, repetitive step behaviours —
//! plus the artifacts built on top of phases:
//!
//! * [`features`] — per-step frequency/duration vectors with PCA
//!   dimensionality reduction ([`pca`]), capped at 100 dimensions as the
//!   paper prescribes;
//! * [`kmeans`] — Lloyd's k-means (k-means++ seeded) swept over k = 1..15,
//!   each k warm-started from the previous one, summarized by the sum of
//!   squared distances and the elbow method ([`elbow`]) — Figure 4;
//! * [`dbscan`] — density-based clustering swept over the minimum-samples
//!   parameter, summarized by the noise ratio — Figure 5;
//! * [`ols`] — the paper's novel Online Linear Scan: Equation 1 step-set
//!   similarity with a threshold (default 70%), merging consecutive steps
//!   into phases with O(1) memory — Figure 6;
//! * [`phases`] — phase construction, execution-time coverage (Figures
//!   7–9), and per-phase top-operator rankings split by host/TPU
//!   (Table II);
//! * [`checkpoint`] — association of each phase with its nearest model
//!   checkpoint for fast-forwarding (Section IV-C);
//! * [`viz`] — the Chrome-tracing JSON and CSV visualization files
//!   (Section IV-B, Figure 3).
//!
//! The k-means assignment step and DBSCAN's neighbor build, eps
//! estimate and min-samples sweep fan out over the `tpupoint-par` scoped
//! pool (sized by [`AnalyzerOptions::threads`], `--threads`, or
//! `TPUPOINT_THREADS`); every parallel path is bit-identical to the
//! serial one, so phase boundaries never depend on the thread count.
//!
//! ```
//! use tpupoint_runtime::{JobConfig, TrainingJob};
//! use tpupoint_profiler::{ProfilerOptions, ProfilerSink};
//! use tpupoint_analyzer::Analyzer;
//!
//! let job = TrainingJob::new(JobConfig::demo());
//! let mut sink = ProfilerSink::new(job.catalog().clone(), ProfilerOptions::default());
//! job.run(&mut sink);
//! let profile = sink.finish();
//! let analyzer = Analyzer::new(&profile);
//! let phases = analyzer.ols_phases(0.7);
//! assert!(!phases.phases.is_empty());
//! ```

pub mod analyzer;
pub mod checkpoint;
pub mod compare;
pub mod dbscan;
pub mod elbow;
pub mod features;
pub mod kmeans;
pub mod ols;
pub mod pca;
pub mod phases;
pub mod report;
pub mod streaming;
pub mod viz;

pub use analyzer::{Analyzer, AnalyzerOptions};
pub use compare::{compare, ProfileComparison};
pub use dbscan::{DbscanConfig, DbscanError, DbscanResult, NeighborCache};
pub use elbow::elbow_index;
pub use features::FeatureMatrix;
pub use kmeans::{KmeansConfig, KmeansResult};
pub use ols::{step_similarity, OlsConfig};
pub use phases::{Phase, PhaseSet};
pub use report::{characterize, Bottleneck};
pub use streaming::{replay, StreamingAnalyzer, StreamingConfig, StreamingReplay, STREAM_CADENCE};
