//! Crash-tolerance integration tests: kill the writer at injected points,
//! reload the record directory, and check the recovered prefix against
//! what the store had acknowledged — plus property tests that the
//! retry/spill layer never loses an acknowledged record.

use proptest::prelude::*;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tpupoint_par::ThreadPool;
use tpupoint_profiler::{
    record_files, recover_records, BinaryStore, BinaryStoreConfig, FaultConfig, FaultStore,
    InMemoryStore, JsonlStore, PipelineConfig, RecordStore, RetryPolicy, RetryStore, SealPipeline,
    StepRecord, StoreFormat, ThrottledStore, WindowRecord,
};
use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

const BOTH_FORMATS: [StoreFormat; 2] = [StoreFormat::Jsonl, StoreFormat::Binary];

/// Opens a fresh store of either format on `dir`. The binary store uses a
/// tiny segment size (forcing rotations even in small tests), so
/// format-parameterized tests exercise the full rotation machinery rather
/// than a single never-rotated part file.
fn format_store(format: StoreFormat, dir: &Path) -> Box<dyn RecordStore + Send> {
    match format {
        StoreFormat::Jsonl => Box::new(JsonlStore::create(dir).unwrap()),
        StoreFormat::Binary => Box::new(
            BinaryStore::with_config(
                dir,
                BinaryStoreConfig {
                    segment_bytes: 512,
                    ..BinaryStoreConfig::default()
                },
            )
            .unwrap(),
        ),
    }
}

fn step(n: u64) -> StepRecord {
    let mut r = StepRecord::new(n);
    r.absorb(
        OpId((n % 3) as u32),
        Track::TpuCore(0),
        SimTime::from_micros(n * 10),
        SimDuration::from_micros(7),
        SimDuration::from_micros(2),
    );
    r
}

fn window(i: u64) -> WindowRecord {
    WindowRecord {
        index: i,
        start: SimTime::from_micros(i * 100),
        end: SimTime::from_micros(i * 100 + 100),
        events: 5,
        tpu_busy: SimDuration::from_micros(60),
        mxu_busy: SimDuration::from_micros(20),
        first_step: i,
        last_step: i + 1,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `total` records, flushing after every `flush_every`, then
/// "kills" the writer at `kill_after` records: the store is leaked so no
/// destructor flushes buffered data, exactly like a `kill -9`.
fn crash_writer(dir: &Path, total: u64, flush_every: u64, kill_after: u64) -> u64 {
    let mut store = JsonlStore::create(dir).unwrap();
    store.set_meta("crash-model", "crash-data");
    let mut flushed = 0;
    for n in 0..total.min(kill_after) {
        store.put_step(&step(n)).unwrap();
        if (n + 1) % flush_every == 0 {
            store.flush().unwrap();
            flushed = n + 1;
        }
    }
    // The crash: no flush, no seal, no Drop (which would flush buffers).
    std::mem::forget(store);
    flushed
}

#[test]
fn kill_points_recover_at_least_the_acknowledged_prefix() {
    for (tag, kill_after) in [("k3", 3u64), ("k10", 10), ("k17", 17), ("k29", 29)] {
        let dir = tmp_dir(tag);
        let flushed = crash_writer(&dir, 30, 5, kill_after);

        let summary = JsonlStore::recover(&dir).unwrap();
        assert!(!summary.sealed_files, "crashed run leaves .part streams");
        assert_eq!(
            summary.missing_acknowledged(),
            (0, 0),
            "every flushed record must survive the crash at {kill_after}"
        );
        assert!(
            summary.steps.len() as u64 >= flushed,
            "recovered {} < acknowledged {flushed}",
            summary.steps.len()
        );
        // The recovered records are exactly the written prefix, in order.
        for (i, r) in summary.steps.iter().enumerate() {
            assert_eq!(r, &step(i as u64));
        }
        let manifest = summary.manifest.as_ref().expect("manifest survives");
        assert!(!manifest.sealed);
        assert_eq!(manifest.model, "crash-model");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn torn_tail_after_crash_is_skipped_not_fatal() {
    let dir = tmp_dir("torn");
    let flushed = crash_writer(&dir, 12, 4, 12);
    assert_eq!(flushed, 12);
    // The kill tore the final line mid-write.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("steps.jsonl.part"))
        .unwrap();
    f.write_all(b"{\"step\":99,\"ops\":{\"trunc").unwrap();
    drop(f);

    let summary = JsonlStore::recover(&dir).unwrap();
    assert_eq!(summary.steps.len(), 12);
    assert_eq!(summary.skipped_step_lines, 1);
    assert!(summary.is_torn());
    assert_eq!(summary.missing_acknowledged(), (0, 0));
    // The salvage is analyzable: profile shape survives.
    let profile = summary.to_profile();
    assert_eq!(profile.model, "crash-model");
    assert_eq!(profile.steps.len(), 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_behind_retry_layer_still_recovers_acknowledged_records() {
    let dir = tmp_dir("retry-chain");
    let jsonl = JsonlStore::create(&dir).unwrap();
    let fault = FaultStore::new(
        jsonl,
        FaultConfig {
            error_probability: 0.3,
            seed: 21,
            ..FaultConfig::default()
        },
    );
    let mut store = RetryStore::with_policy(
        fault,
        RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        },
    );
    for n in 0..20 {
        store.put_step(&step(n)).unwrap();
    }
    for i in 0..3 {
        store.put_window(&window(i)).unwrap();
    }
    store.inner_mut().set_error_probability(0.0);
    store.flush().unwrap();
    assert_eq!(store.spilled_pending(), 0);
    // Crash after the flush: leak the whole chain, no seal.
    std::mem::forget(store);

    let summary = JsonlStore::recover(&dir).unwrap();
    assert_eq!(summary.missing_acknowledged(), (0, 0));
    assert_eq!(summary.steps.len(), 20);
    assert_eq!(summary.windows.len(), 3);
    let recovered: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
    assert_eq!(recovered, (0..20).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_kill_points_lose_no_acknowledged_record() {
    let pool = Arc::new(ThreadPool::new(4));
    for (tag, kill_after) in [("pk0", 0u64), ("pk7", 7), ("pk19", 19), ("pk30", 30)] {
        let dir = tmp_dir(&format!("pipe-{tag}"));
        let store = JsonlStore::create(&dir).unwrap();
        let pipeline = SealPipeline::on_pool(
            Box::new(store),
            PipelineConfig { high_water: 4 },
            Arc::clone(&pool),
        );
        pipeline.set_meta("crash-model", "crash-data");
        let mut acked = 0;
        for n in 0..kill_after {
            pipeline.put_step(&step(n));
            if (n + 1) % 5 == 0 {
                // A flush counts as acknowledged only once the drain
                // barrier confirms the workers applied it.
                pipeline.flush();
                pipeline.wait_idle();
                acked = n + 1;
            }
        }
        pipeline.simulate_crash();

        let summary = JsonlStore::recover(&dir).unwrap();
        assert!(!summary.sealed_files, "crashed run leaves .part streams");
        assert_eq!(
            summary.missing_acknowledged(),
            (0, 0),
            "acknowledged record lost at kill point {kill_after}"
        );
        assert!(
            summary.steps.len() as u64 >= acked,
            "recovered {} < acknowledged {acked} at kill point {kill_after}",
            summary.steps.len()
        );
        for (i, r) in summary.steps.iter().enumerate() {
            assert_eq!(r, &step(i as u64), "salvaged prefix must stay in order");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_with_records_in_flight_on_workers_salvages_an_ordered_prefix() {
    let pool = Arc::new(ThreadPool::new(4));
    let dir = tmp_dir("pipe-inflight");
    // Throttle the store so the queue is guaranteed to hold records (and a
    // worker to be mid-write) when the crash lands.
    let store = ThrottledStore::new(JsonlStore::create(&dir).unwrap(), Duration::from_millis(2));
    let pipeline = SealPipeline::on_pool(Box::new(store), PipelineConfig { high_water: 64 }, pool);
    pipeline.set_meta("crash-model", "crash-data");
    for n in 0..40 {
        pipeline.put_step(&step(n));
        if (n + 1) % 10 == 0 {
            pipeline.flush();
        }
    }
    // With a 2ms throttle the drainer is almost certainly mid-write here;
    // if it somehow finished, the test degenerates to full recovery, which
    // the asserts below still cover.
    pipeline.simulate_crash();

    let summary = JsonlStore::recover(&dir).unwrap();
    assert_eq!(summary.missing_acknowledged(), (0, 0));
    assert!(summary.steps.len() <= 40);
    for (i, r) in summary.steps.iter().enumerate() {
        assert_eq!(r, &step(i as u64), "salvaged prefix must stay in order");
    }
    // The salvage is analyzable (what `analyze --recover` loads). The
    // queued set_meta may itself have died with the crash, so only the
    // record shape is guaranteed, not the labels.
    let profile = summary.to_profile();
    assert_eq!(profile.steps.len(), summary.steps.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_profile_reports_real_op_names_after_crash() {
    let dir = tmp_dir("catalog");
    let names = [
        "Conv2D".to_owned(),
        "Fusion".to_owned(),
        "CrossReplicaSum".to_owned(),
    ];
    let mut store = JsonlStore::create(&dir).unwrap();
    store.set_meta("crash-model", "crash-data");
    store.set_catalog(&names, &[true, true, false], &[false, false, false]);
    for n in 0..6 {
        store.put_step(&step(n)).unwrap();
    }
    store.flush().unwrap();
    std::mem::forget(store);

    let profile = JsonlStore::recover(&dir).unwrap().to_profile();
    // Regression: before the catalog was persisted in the manifest, a
    // salvaged profile could only produce placeholder `op<N>` names.
    assert_eq!(profile.op_names, names);
    assert_eq!(profile.op_uses_mxu, vec![true, true, false]);
    assert_eq!(profile.op_on_host, vec![false, false, false]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sustained_outage_sheds_oldest_spilled_records_first() {
    let fault = FaultStore::new(
        InMemoryStore::new(),
        FaultConfig {
            error_probability: 1.0,
            seed: 3,
            ..FaultConfig::default()
        },
    );
    let mut store = RetryStore::with_policy(
        fault,
        RetryPolicy {
            max_retries: 1,
            max_spill: 8,
            ..RetryPolicy::default()
        },
    );
    // A sustained outage: every put fails, every record spills, and once
    // the bounded queue is full the oldest spilled record is shed.
    for i in 0..20 {
        store.put_step(&step(i)).unwrap();
    }
    assert_eq!(store.records_shed(), 12);
    assert_eq!(store.spilled_pending(), 8);

    store.inner_mut().set_error_probability(0.0);
    store.flush().unwrap();
    assert_eq!(store.spilled_pending(), 0);
    let delivered: Vec<u64> = store
        .inner()
        .inner()
        .steps()
        .iter()
        .map(|r| r.step)
        .collect();
    assert_eq!(
        delivered,
        (12..20).collect::<Vec<_>>(),
        "the freshest tail survives shedding, in submission order"
    );
}

#[test]
fn kill_points_recover_the_acknowledged_prefix_in_both_formats() {
    for format in BOTH_FORMATS {
        for kill_after in [3u64, 10, 17, 29] {
            let dir = tmp_dir(&format!("fmt-{format}-k{kill_after}"));
            let mut store = format_store(format, &dir);
            store.set_meta("crash-model", "crash-data");
            for n in 0..kill_after {
                store.put_step(&step(n)).unwrap();
                if (n + 1) % 5 == 0 {
                    store.flush().unwrap();
                }
            }
            // The crash: no flush, no seal, no Drop.
            std::mem::forget(store);

            let summary = recover_records(&dir).unwrap();
            assert!(!summary.sealed_files, "{format}: crashed run is unsealed");
            assert_eq!(
                summary.missing_acknowledged(),
                (0, 0),
                "{format}: acknowledged record lost at kill point {kill_after}"
            );
            for (i, r) in summary.steps.iter().enumerate() {
                assert_eq!(r, &step(i as u64), "{format}: prefix in order");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn crash_behind_retry_layer_recovers_acknowledged_records_in_both_formats() {
    for format in BOTH_FORMATS {
        let dir = tmp_dir(&format!("retry-chain-{format}"));
        let fault = FaultStore::new(
            format_store(format, &dir),
            FaultConfig {
                error_probability: 0.3,
                seed: 21,
                ..FaultConfig::default()
            },
        );
        let mut store = RetryStore::with_policy(
            fault,
            RetryPolicy {
                max_retries: 10,
                ..RetryPolicy::default()
            },
        );
        for n in 0..20 {
            store.put_step(&step(n)).unwrap();
        }
        for i in 0..3 {
            store.put_window(&window(i)).unwrap();
        }
        store.inner_mut().set_error_probability(0.0);
        store.flush().unwrap();
        assert_eq!(store.spilled_pending(), 0);
        // Crash after the flush: leak the whole chain, no seal.
        std::mem::forget(store);

        let summary = recover_records(&dir).unwrap();
        assert_eq!(summary.missing_acknowledged(), (0, 0), "{format}");
        assert_eq!(summary.steps.len(), 20, "{format}");
        assert_eq!(summary.windows.len(), 3, "{format}");
        let recovered: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
        assert_eq!(recovered, (0..20).collect::<Vec<_>>(), "{format}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_between_manifest_commit_and_sealing_rename_loses_nothing() {
    // rotate() commits the sealed segment to the manifest BEFORE the
    // `.part` → `.bin` rename; a kill -9 between the two leaves a listed
    // segment still under its part name. The auto-detecting recovery
    // path must read it in place — every record in it was acknowledged.
    let dir = tmp_dir("rotate-window");
    let mut store = BinaryStore::with_config(
        &dir,
        BinaryStoreConfig {
            segment_bytes: 512,
            ..BinaryStoreConfig::default()
        },
    )
    .unwrap();
    for n in 0..50 {
        store.put_step(&step(n)).unwrap();
    }
    store.flush().unwrap();
    std::mem::forget(store); // kill -9
    let manifest = recover_records(&dir).unwrap().manifest.unwrap();
    let last = manifest.segments.last().unwrap();
    std::fs::rename(
        dir.join(&last.name),
        dir.join(format!("{}.part", last.name)),
    )
    .unwrap();

    let summary = recover_records(&dir).unwrap();
    assert_eq!(summary.missing_acknowledged(), (0, 0));
    let steps: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
    assert_eq!(
        steps,
        (0..50).collect::<Vec<_>>(),
        "no loss, no duplication"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipelined_seal_runs_retention_on_the_drain_worker() {
    // With the seal pipeline on a 2-thread pool, rotation, retention and
    // seal all run inside the drain task on a pool worker. Retention must
    // still account every retired record and leave the budget enforced.
    let pool = Arc::new(ThreadPool::new(2));
    let dir = tmp_dir("pipe-seal-retain");
    let store = BinaryStore::with_config(
        &dir,
        BinaryStoreConfig {
            segment_bytes: 512,
            retention_bytes: 2048,
        },
    )
    .unwrap();
    let pipeline = SealPipeline::on_pool(Box::new(store), PipelineConfig::default(), pool);
    for n in 0..200 {
        pipeline.put_step(&step(n));
    }
    pipeline.seal();
    pipeline.wait_idle();
    assert!(pipeline.take_errors().is_empty());

    let summary = recover_records(&dir).unwrap();
    assert_eq!(summary.missing_acknowledged(), (0, 0));
    let manifest = summary.manifest.clone().unwrap();
    assert!(manifest.sealed);
    assert!(manifest.steps_retired > 0, "the budget must have retired");
    let total: u64 = manifest.segments.iter().map(|m| m.bytes).sum();
    assert!(total <= 2048, "budget enforced, {total} bytes remain");
    // The survivors are exactly the most recent suffix.
    let steps: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
    assert_eq!(steps, (manifest.steps_retired..200).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Whatever the fault rate, seed, or record count: every put the
    /// retry layer acknowledges is delivered (in order) once the backing
    /// store recovers — no acknowledged record is ever lost.
    #[test]
    fn retry_over_faults_never_loses_an_acknowledged_record(
        prob in 0u32..90,
        seed in 0u64..50,
        n in 1u64..60,
    ) {
        let fault = FaultStore::new(
            InMemoryStore::new(),
            FaultConfig {
                error_probability: f64::from(prob) / 100.0,
                seed,
                ..FaultConfig::default()
            },
        );
        let mut store = RetryStore::with_policy(
            fault,
            RetryPolicy { max_retries: 3, seed, ..RetryPolicy::default() },
        );
        for i in 0..n {
            // The resilient layer acknowledges every put.
            prop_assert!(store.put_step(&step(i)).is_ok());
        }
        // The backing store comes back; the final flush must drain all.
        store.inner_mut().set_error_probability(0.0);
        prop_assert!(store.flush().is_ok());
        prop_assert_eq!(store.spilled_pending(), 0);
        let delivered: Vec<u64> =
            store.inner().inner().steps().iter().map(|r| r.step).collect();
        prop_assert_eq!(delivered, (0..n).collect::<Vec<_>>());
    }

    /// A flushed JSONL stream plus arbitrary appended garbage always
    /// recovers the full acknowledged prefix.
    #[test]
    fn any_garbage_tail_recovers_the_flushed_prefix(
        n in 1u64..25,
        garbage in proptest::collection::vec(0u32..256, 1usize..64),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tpupoint-crash-prop-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = JsonlStore::create(&dir).unwrap();
        for i in 0..n {
            store.put_step(&step(i)).unwrap();
        }
        store.flush().unwrap();
        std::mem::forget(store);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("steps.jsonl.part"))
            .unwrap();
        // Never a bare newline first: garbage joins the (empty) last line.
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        f.write_all(b"{").unwrap();
        f.write_all(&garbage).unwrap();
        drop(f);

        let summary = JsonlStore::recover(&dir).unwrap();
        prop_assert_eq!(summary.missing_acknowledged(), (0, 0));
        prop_assert!(summary.steps.len() as u64 >= n);
        let recovered: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
        prop_assert_eq!(&recovered[..n as usize], &(0..n).collect::<Vec<_>>()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Format-generic twin of the retry property: whatever the fault rate
    /// or seed, a fault-injected, retry-decorated store of EITHER format
    /// that acknowledged every put hands every record back through the
    /// auto-detecting recovery path once the faults clear.
    #[test]
    fn retry_over_faults_never_loses_acknowledged_records_in_either_format(
        prob in 0u32..90,
        seed in 0u64..30,
        n in 1u64..40,
    ) {
        for format in BOTH_FORMATS {
            let dir = std::env::temp_dir().join(format!(
                "tpupoint-crash-fprop-{format}-{prob}-{seed}-{n}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let fault = FaultStore::new(
                format_store(format, &dir),
                FaultConfig {
                    error_probability: f64::from(prob) / 100.0,
                    seed,
                    ..FaultConfig::default()
                },
            );
            let mut store = RetryStore::with_policy(
                fault,
                RetryPolicy { max_retries: 10, seed, ..RetryPolicy::default() },
            );
            for i in 0..n {
                prop_assert!(store.put_step(&step(i)).is_ok());
            }
            store.inner_mut().set_error_probability(0.0);
            prop_assert!(store.flush().is_ok());
            prop_assert_eq!(store.spilled_pending(), 0);
            std::mem::forget(store);

            let summary = recover_records(&dir).unwrap();
            prop_assert_eq!(summary.missing_acknowledged(), (0, 0));
            let recovered: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
            prop_assert_eq!(recovered, (0..n).collect::<Vec<_>>());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Binary twin of the garbage-tail property: arbitrary bytes appended
    /// to the active segment after a flush never panic the frame decoder
    /// and never cost an acknowledged record.
    #[test]
    fn binary_garbage_tail_recovers_the_flushed_prefix(
        n in 1u64..40,
        garbage in proptest::collection::vec(0u32..256, 1usize..96),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tpupoint-crash-bprop-{n}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = format_store(StoreFormat::Binary, &dir);
        for i in 0..n {
            store.put_step(&step(i)).unwrap();
        }
        store.flush().unwrap();
        std::mem::forget(store);
        let part = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().ends_with(".bin.part"))
            .expect("crashed binary run leaves an active .bin.part");
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let mut f = std::fs::OpenOptions::new().append(true).open(part).unwrap();
        f.write_all(&garbage).unwrap();
        drop(f);

        let summary = recover_records(&dir).unwrap();
        prop_assert_eq!(summary.missing_acknowledged(), (0, 0));
        prop_assert!(summary.steps.len() as u64 >= n);
        let recovered: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
        prop_assert_eq!(&recovered[..n as usize], &(0..n).collect::<Vec<_>>()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping or truncating ANY byte of ANY sealed segment never panics
    /// the decoder: recovery still returns, the surviving records are
    /// genuine (CRC-verified) and in order, and nothing is silently
    /// invented — corrupted acknowledged records show up as missing, not
    /// as garbage steps.
    #[test]
    fn binary_corruption_anywhere_never_panics_or_invents_records(
        n in 5u64..40,
        file_pick in 0usize..8,
        offset in 0usize..4096,
        mode in 0u32..2,
        flip in 0u32..255,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tpupoint-crash-cprop-{n}-{file_pick}-{offset}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BinaryStore::with_config(
            &dir,
            BinaryStoreConfig {
                segment_bytes: 256,
                ..BinaryStoreConfig::default()
            },
        )
        .unwrap();
        for i in 0..n {
            store.put_step(&step(i)).unwrap();
        }
        store.seal().unwrap();
        drop(store);
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "bin"))
            .collect();
        segments.sort();
        prop_assert!(!segments.is_empty());
        let victim = &segments[file_pick % segments.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        if mode == 0 {
            bytes.truncate(offset % (bytes.len() + 1));
        } else {
            let at = offset % bytes.len();
            bytes[at] ^= (flip as u8).wrapping_add(1); // nonzero xor: a real flip
        }
        std::fs::write(victim, &bytes).unwrap();

        let summary = recover_records(&dir).unwrap();
        let mut last = None;
        for r in &summary.steps {
            prop_assert_eq!(r, &step(r.step), "surviving records are genuine");
            prop_assert!(last.is_none_or(|l| l < r.step), "strictly ordered");
            last = Some(r.step);
        }
        // Accounting closes: what recovery didn't hand back is reported
        // missing, never silently dropped.
        let (missing_steps, _) = summary.missing_acknowledged();
        prop_assert_eq!(summary.steps.len() as u64 + missing_steps, n);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The files of a small sealed record directory of `format`, by name:
/// several binary segments, or the two sealed JSONL streams, plus the
/// manifest.
fn sealed_dir_files(format: StoreFormat) -> Vec<(String, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!(
        "tpupoint-crash-sealed-{format}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = format_store(format, &dir);
    store.set_meta("model", "dataset");
    for i in 0..30 {
        store.put_step(&step(i)).unwrap();
        if i % 3 == 0 {
            store.put_window(&window(i / 3)).unwrap();
        }
    }
    store.seal().unwrap();
    drop(store);
    let files = record_files(&dir).unwrap().into_iter().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

/// Numbers spliced over the manifest's counts: type limits and values
/// no writer produces.
const ODD_NUMBERS: [&str; 7] = [
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775807",
    "4294967295",
    "0",
    "-1",
    "1e400",
];

/// `manifest` with each digit run whose bit is set in `mask` replaced by
/// one of [`ODD_NUMBERS`].
fn odd_counts(manifest: &[u8], mask: u64, pick: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(manifest.len());
    let mut run = 0;
    let mut i = 0;
    while i < manifest.len() {
        if !manifest[i].is_ascii_digit() {
            out.push(manifest[i]);
            i += 1;
            continue;
        }
        let end = manifest[i..]
            .iter()
            .position(|b| !b.is_ascii_digit())
            .map_or(manifest.len(), |len| i + len);
        if mask >> (run % 64) & 1 == 1 {
            out.extend_from_slice(ODD_NUMBERS[(pick + run) % ODD_NUMBERS.len()].as_bytes());
        } else {
            out.extend_from_slice(&manifest[i..end]);
        }
        run += 1;
        i = end;
    }
    out
}

proptest! {
    /// Recovery of a record directory whose manifest is garbage, cut
    /// short or carries impossible counts, and whose record files are
    /// flipped, cut, replaced by garbage or gone, returns a summary or an
    /// error and never panics; neither does the summary's accounting.
    #[test]
    fn garbage_manifests_and_records_never_panic_recovery(
        manifest_mode in 0u32..5,
        mask in any::<u64>(),
        at in any::<usize>(),
        file_modes in proptest::collection::vec(0u32..5, 16usize..17),
        garbage in proptest::collection::vec(0u32..256, 0usize..128),
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        for format in BOTH_FORMATS {
            let dir = std::env::temp_dir().join(format!(
                "tpupoint-crash-garbage-{format}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let files = sealed_dir_files(format);
            for (i, (name, bytes)) in files.iter().enumerate() {
                let at = at.wrapping_add(i) % (bytes.len() + 1);
                let mutated = if name == "manifest.json" {
                    match manifest_mode {
                        0 => Some(bytes.clone()),
                        1 => Some(garbage.clone()),
                        2 => Some(bytes[..at].to_vec()),
                        3 => Some(odd_counts(bytes, mask, at)),
                        _ => None,
                    }
                } else {
                    match file_modes[i % file_modes.len()] {
                        0 => Some(bytes.clone()),
                        1 => {
                            let mut flipped = bytes.clone();
                            if let Some(b) = flipped.get_mut(at) {
                                *b ^= (mask as u8) | 1;
                            }
                            Some(flipped)
                        }
                        2 => Some(bytes[..at].to_vec()),
                        3 => Some(garbage.clone()),
                        _ => None,
                    }
                };
                if let Some(mutated) = mutated {
                    std::fs::write(dir.join(name), mutated).unwrap();
                }
            }
            // A stray in-progress segment of garbage beside the rest.
            if mask & 1 == 1 {
                std::fs::write(dir.join("seg-999999.bin.part"), &garbage).unwrap();
            }
            if let Ok(summary) = recover_records(&dir) {
                let _ = summary.missing_acknowledged();
                let _ = summary.is_torn();
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
