//! # tpupoint
//!
//! The facade crate of the TPUPoint reproduction: *automatic
//! characterization of hardware-accelerated machine-learning behavior for
//! cloud computing* (Wudenhe & Tseng, ISPASS 2021), rebuilt as a pure-Rust
//! simulation-backed toolchain.
//!
//! The paper's Figure 2 workflow —
//!
//! ```python
//! tpprofiler = TPUPoint(...)
//! tpprofiler.Start(analyzer=True)
//! estimator.train(...)
//! tpprofiler.Stop()
//! ```
//!
//! — maps here to:
//!
//! ```
//! use tpupoint::{TpuPoint, workloads::{build, BuildOptions, WorkloadId}};
//! use tpupoint::hw::TpuGeneration;
//!
//! # fn main() -> std::io::Result<()> {
//! let config = build(
//!     WorkloadId::DcganCifar10,
//!     TpuGeneration::V2,
//!     &BuildOptions { scale: 0.005, ..BuildOptions::default() },
//! );
//! let tp = TpuPoint::builder().analyzer(true).build();
//! let run = tp.profile(config)?;            // Start + train + Stop
//! let analysis = tp.analyze(&run.profile)?; // TPUPoint-Analyzer
//! assert!(analysis.ols_phases.coverage_top(3) > 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! The sub-crates are re-exported under topic modules: [`sim`], [`hw`],
//! [`graph`], [`runtime`], [`profiler`], [`analyzer`], [`optimizer`],
//! [`workloads`], and [`obs`].

pub mod facade;
pub mod fleet;
mod serve;

pub use facade::{AnalysisArtifacts, ProfiledRun, ProfilerHandle, TpuPoint, TpuPointBuilder};
pub use fleet::{FleetJobRequest, FleetOutcome, FleetSession};

/// The discrete-event simulation engine.
pub mod sim {
    pub use tpupoint_simcore::*;
}

/// Hardware models: TPU chips, hosts, links, cost model.
pub mod hw {
    pub use tpupoint_hw::*;
}

/// The TensorFlow-like graph substrate.
pub mod graph {
    pub use tpupoint_graph::*;
}

/// The training-job executor.
pub mod runtime {
    pub use tpupoint_runtime::*;
}

/// TPUPoint-Profiler.
pub mod profiler {
    pub use tpupoint_profiler::*;
}

/// TPUPoint-Analyzer.
pub mod analyzer {
    pub use tpupoint_analyzer::*;
}

/// TPUPoint-Optimizer.
pub mod optimizer {
    pub use tpupoint_optimizer::*;
}

/// The paper's workload suite.
pub mod workloads {
    pub use tpupoint_workloads::*;
}

/// Self-observability: the metrics registry, span tracer, exporters, and
/// the [`obs::ObsReport`] summarizer the toolchain instruments itself
/// with.
pub mod obs {
    pub use tpupoint_obs::*;
}

/// Convenience imports for examples and the benchmark harness.
pub mod prelude {
    pub use crate::facade::{AnalysisArtifacts, ProfiledRun, TpuPoint};
    pub use tpupoint_analyzer::{Analyzer, PhaseSet};
    pub use tpupoint_hw::{TpuChipSpec, TpuGeneration};
    pub use tpupoint_optimizer::{OptimizerReport, TpuPointOptimizer};
    pub use tpupoint_profiler::{Profile, ProfilerOptions, ProfilerSink};
    pub use tpupoint_runtime::{JobConfig, RunReport, TrainingJob};
    pub use tpupoint_simcore::trace::NullSink;
    pub use tpupoint_workloads::{build, BuildOptions, Variant, WorkloadId};
}

/// Re-exports used by the calibration probe binary.
#[doc(hidden)]
pub mod prelude_probe {
    pub use tpupoint_hw::TpuGeneration;
    pub use tpupoint_runtime::TrainingJob;
    pub use tpupoint_simcore::trace::NullSink;
    pub use tpupoint_workloads::{build, BuildOptions, WorkloadId};
}
