//! # tpupoint-profiler
//!
//! TPUPoint-Profiler (Section III of the paper): converts the raw event
//! stream of a (simulated) Cloud TPU training session into *statistical
//! profile records* — per-step operator histograms plus per-window TPU idle
//! time and MXU utilization — instead of storing every event.
//!
//! The real profiler runs a dedicated thread that periodically requests
//! profiles from the TPU; each response carries at most 1,000,000 events
//! spanning at most 60,000 ms. [`ProfilerSink`] reproduces that windowing:
//! it consumes the trace online (as a [`tpupoint_simcore::trace::TraceSink`])
//! and seals a [`window::WindowRecord`] whenever either cap is hit. Per-step
//! aggregation happens simultaneously, producing the [`record::StepRecord`]s
//! that TPUPoint-Analyzer clusters into phases.
//!
//! Records can be buffered in memory (optimizer mode) or streamed to
//! storage (analyzer mode) via [`store::RecordStore`]. In analyzer mode
//! the record directory is the profile: the sink ends the stream with one
//! [`record::RunRecord`], and [`recover_records`]`(dir).to_profile()`
//! reads back the [`Profile`] the run returned.
//!
//! ```
//! use tpupoint_runtime::{JobConfig, TrainingJob};
//! use tpupoint_profiler::{ProfilerOptions, ProfilerSink};
//!
//! let job = TrainingJob::new(JobConfig::demo());
//! let mut sink = ProfilerSink::new(job.catalog().clone(), ProfilerOptions::default());
//! let report = job.run(&mut sink);
//! let profile = sink.finish();
//! assert_eq!(profile.steps.len() as u64, report.steps_completed + 2); // + init & shutdown
//! ```

pub mod audit;
pub mod binfmt;
pub mod pipeline;
pub mod profile;
pub mod record;
pub mod resilience;
pub mod segstore;
pub mod sink;
pub mod store;
pub mod window;

pub use audit::{audit_windows, WindowAudit};
pub use pipeline::{PipelineConfig, SealPipeline};
pub use profile::Profile;
pub use record::{OpStats, RunRecord, StepRecord};
pub use resilience::{FaultConfig, FaultStore, RetryPolicy, RetryStore, ThrottledStore};
pub use segstore::{BinaryStore, BinaryStoreConfig};
pub use sink::{ProfilerOptions, ProfilerSink};
pub use store::{
    record_files, recover_records, InMemoryStore, JsonlStore, RecordStore, RecoveredLoad,
    RecoverySummary, SegmentMeta, StoreFormat, StoreManifest,
};
pub use window::WindowRecord;
