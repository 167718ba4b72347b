//! Integration: a sealed record directory is the run's profile. What
//! `recover_records(dir).to_profile()` reads back must equal, field for
//! field, the `Profile` the run returned in memory: steps, windows, the op
//! catalog, step and checkpoint marks, and the loss and store-error
//! counts. This holds for every workload on either seal lane and for a
//! run whose store faults the retries absorb. A served job's records are
//! checked against the batch profile by the `modes` harness's fleet cases.

use std::path::{Path, PathBuf};
use tpupoint::prelude::*;
use tpupoint::profiler::{recover_records, BinaryStore, PipelineConfig, RecordStore, RetryStore};

fn config(id: WorkloadId, scale: f64) -> JobConfig {
    build(
        id,
        TpuGeneration::V2,
        &BuildOptions {
            scale: id.default_sim_scale() * scale,
            seed: 7,
            ..BuildOptions::default()
        },
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-exact-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn recovered(records: &Path) -> Profile {
    let summary = recover_records(records).expect("records recover");
    assert!(
        summary.sealed_files && !summary.is_torn(),
        "{}",
        records.display()
    );
    summary.to_profile()
}

/// One job recorded through the default store chain with the seal lane
/// the process-wide pool picks: queued on two or more threads, inline on
/// one.
fn pooled_profile(config: &JobConfig, records: &Path) -> Profile {
    let store: Box<dyn RecordStore + Send> =
        Box::new(RetryStore::new(BinaryStore::create(records).unwrap()));
    let job = TrainingJob::new(config.clone());
    let mut sink = ProfilerSink::with_pipelined_store(
        job.catalog().clone(),
        ProfilerOptions::default(),
        store,
        PipelineConfig::default(),
    );
    sink.set_source(&job.config().model, &job.config().dataset.name);
    job.run(&mut sink);
    sink.finish()
}

#[test]
fn every_workload_reads_back_its_exact_profile_on_either_lane() {
    let dir = scratch("suite");
    for threads in [1, 4] {
        tpupoint_par::set_threads(threads);
        for id in WorkloadId::all() {
            let config = config(id, 0.2);
            let out = dir.join(format!("{threads}-{}", id.label().replace('/', "-")));
            let run = TpuPoint::builder()
                .analyzer(true)
                .output_dir(&out)
                .build()
                .profile(config.clone())
                .expect("profile");
            assert!(!run.profile.checkpoints.is_empty(), "{id:?}");
            assert_eq!(
                recovered(&out.join("records")),
                run.profile,
                "{id:?} at {threads} threads, inline lane"
            );
            let pooled = pooled_profile(&config, &out.join("pooled"));
            assert_eq!(
                recovered(&out.join("pooled")),
                pooled,
                "{id:?} at {threads} threads, pooled lane"
            );
            std::fs::remove_dir_all(&out).unwrap();
        }
    }
    tpupoint_par::set_threads(0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn absorbed_store_faults_and_dropped_windows_read_back_exactly() {
    let dir = scratch("faults");
    let run = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&dir)
        .profiler_options(ProfilerOptions {
            window_max_events: 200,
            drop_probability: 0.2,
            ..ProfilerOptions::default()
        })
        .store_fault(0.4, 11)
        .store_retries(8)
        .build()
        .profile(config(WorkloadId::DcganMnist, 0.2))
        .expect("profile");
    assert_eq!(
        run.profile.store_errors, 0,
        "the retries absorb every fault"
    );
    assert!(run.profile.dropped_windows > 0 && run.profile.lost_events > 0);
    assert_eq!(recovered(&dir.join("records")), run.profile);
    std::fs::remove_dir_all(&dir).unwrap();
}
