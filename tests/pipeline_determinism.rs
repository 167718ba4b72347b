//! Integration: the sink's two seal lanes — inline on the simulation
//! thread ([`ProfilerSink::with_store`], the batch lane) and queued on the
//! shared worker pool ([`ProfilerSink::with_pipelined_store`], the served
//! lane) — are byte-for-byte interchangeable. For every pool size, the
//! sealed record files, the manifest, and the finished [`Profile`] must be
//! identical across lanes — and seeded store-fault scenarios must replay
//! the exact same error sequence, because determinism that breaks under
//! faults is no determinism at all.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tpupoint::prelude::*;
use tpupoint::profiler::{
    record_files, BinaryStore, BinaryStoreConfig, FaultConfig, FaultStore, PipelineConfig,
    ProfilerOptions, RecordStore, RetryPolicy, RetryStore,
};
use tpupoint::runtime::TrainingJob;

fn config() -> JobConfig {
    build(
        WorkloadId::DcganCifar10,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.05,
            seed: 7,
            ..BuildOptions::default()
        },
    )
}

/// Small windows so the run seals many of them — the queued lane gets
/// real traffic, not one window at shutdown.
fn options() -> ProfilerOptions {
    ProfilerOptions {
        window_max_events: 64,
        ..ProfilerOptions::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-pipedet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The analyzer-mode store chain: binary segments under `dir/records`,
/// seeded faults `(probability, seed)` when given, and a retry layer
/// unless `retries` is 0.
fn store_chain(dir: &Path, fault: Option<(f64, u64)>, retries: u32) -> Box<dyn RecordStore + Send> {
    let mut store: Box<dyn RecordStore + Send> = Box::new(
        BinaryStore::with_config(&dir.join("records"), BinaryStoreConfig::default())
            .expect("create store"),
    );
    if let Some((error_probability, seed)) = fault {
        store = Box::new(FaultStore::new(
            store,
            FaultConfig {
                error_probability,
                seed,
                ..FaultConfig::default()
            },
        ));
    }
    if retries > 0 {
        store = Box::new(RetryStore::with_policy(
            store,
            RetryPolicy {
                max_retries: retries,
                ..RetryPolicy::default()
            },
        ));
    }
    store
}

fn run_lane(dir: &Path, pipelined: bool, fault: Option<(f64, u64, u32)>) -> ProfiledRun {
    let (fault, retries) = match fault {
        Some((prob, seed, retries)) => (Some((prob, seed)), retries),
        None => (None, 0),
    };
    let store = store_chain(dir, fault, retries);
    let job = TrainingJob::new(config());
    let catalog = job.catalog().clone();
    let mut sink = if pipelined {
        ProfilerSink::with_pipelined_store(catalog, options(), store, PipelineConfig::default())
    } else {
        ProfilerSink::with_store(catalog, options(), store)
    };
    sink.set_source(&job.config().model, &job.config().dataset.name);
    let report = job.run(&mut sink);
    ProfiledRun {
        report,
        profile: sink.finish(),
    }
}

fn record_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let files = record_files(&dir.join("records"))
        .unwrap_or_else(|e| panic!("records missing under {}: {e}", dir.display()));
    assert!(
        files.contains_key("manifest.json") && files.len() > 1,
        "no records beside the manifest under {}",
        dir.display()
    );
    files
}

#[test]
fn pipelined_sealing_is_byte_identical_for_every_pool_size() {
    let serial_dir = tmp_dir("serial");
    let serial = run_lane(&serial_dir, false, None);
    let serial_bytes = record_bytes(&serial_dir);
    assert!(
        !serial.profile.windows.is_empty(),
        "fixture must seal windows"
    );

    for threads in [1usize, 2, 4, 8] {
        tpupoint_par::set_threads(threads);
        let dir = tmp_dir(&format!("pipe-{threads}"));
        let pipelined = run_lane(&dir, true, None);
        assert_eq!(
            pipelined.report, serial.report,
            "ground-truth run diverged at {threads} threads"
        );
        assert_eq!(
            pipelined.profile, serial.profile,
            "profile diverged at {threads} threads"
        );
        assert!(
            serial_bytes == record_bytes(&dir),
            "records not byte-identical to serial at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    tpupoint_par::set_threads(0);
    std::fs::remove_dir_all(&serial_dir).unwrap();
}

#[test]
fn seeded_faults_replay_identically_through_the_pipeline() {
    // Retries on: the seeded fault stream is absorbed the same way on
    // both lanes, so the sealed bytes still match.
    let serial_dir = tmp_dir("fault-serial");
    let serial = run_lane(&serial_dir, false, Some((0.3, 21, 10)));
    let serial_bytes = record_bytes(&serial_dir);
    assert_eq!(serial.profile.store_errors, 0, "retries absorb the faults");

    tpupoint_par::set_threads(4);
    let pipe_dir = tmp_dir("fault-pipe");
    let pipelined = run_lane(&pipe_dir, true, Some((0.3, 21, 10)));
    assert_eq!(pipelined.profile, serial.profile);
    assert!(
        serial_bytes == record_bytes(&pipe_dir),
        "records diverged under seeded faults"
    );

    // Retries off: both lanes must surface the *same* error accounting.
    let raw_serial_dir = tmp_dir("rawfault-serial");
    let raw_serial = run_lane(&raw_serial_dir, false, Some((0.4, 9, 0)));
    let raw_pipe_dir = tmp_dir("rawfault-pipe");
    let raw_pipelined = run_lane(&raw_pipe_dir, true, Some((0.4, 9, 0)));
    tpupoint_par::set_threads(0);
    assert!(raw_serial.profile.store_errors > 0, "fixture must fault");
    assert_eq!(
        raw_pipelined.profile.store_errors,
        raw_serial.profile.store_errors
    );
    assert_eq!(
        raw_pipelined.profile.store_error,
        raw_serial.profile.store_error
    );
    assert_eq!(raw_pipelined.profile, raw_serial.profile);

    for dir in [serial_dir, pipe_dir, raw_serial_dir, raw_pipe_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
