//! Integration: the binary segment store is a drop-in for the JSONL store.
//! The same job profiled through either format must produce the same
//! [`Profile`], and recovering either record directory must hand back the
//! same records with the same accounting — across every worker-pool size
//! and under seeded store faults. The
//! format knob may change bytes on disk; it may never change answers.

use std::path::{Path, PathBuf};
use tpupoint::prelude::*;
use tpupoint::profiler::{recover_records, ProfilerOptions, RecoverySummary, StoreFormat};
use tpupoint::TpuPoint;

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

/// Small windows so every run streams real record traffic, and a tiny
/// segment budget so the binary lane rotates through several segments
/// instead of testing a single never-rotated file.
const SEGMENT_BYTES: u64 = 4 * 1024;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-fmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_format(dir: &Path, format: StoreFormat, fault: Option<(f64, u64, u32)>) -> ProfiledRun {
    let mut builder = TpuPoint::builder()
        .analyzer(true)
        .output_dir(dir)
        .profiler_options(ProfilerOptions {
            window_max_events: 64,
            ..ProfilerOptions::default()
        })
        .store_format(format)
        .store_segment_bytes(SEGMENT_BYTES);
    builder = match fault {
        Some((prob, seed, retries)) => builder.store_fault(prob, seed).store_retries(retries),
        None => builder.store_retries(0),
    };
    builder.build().profile(config()).expect("profiling run")
}

fn recover(dir: &Path) -> RecoverySummary {
    recover_records(&dir.join("records")).expect("recoverable records dir")
}

#[test]
fn both_formats_yield_equal_profiles_across_pool_sizes() {
    let baseline_dir = tmp_dir("baseline");
    let baseline = run_format(&baseline_dir, StoreFormat::Jsonl, None);
    assert!(
        !baseline.profile.windows.is_empty(),
        "fixture must seal windows"
    );

    for threads in [1usize, 2, 4, 8] {
        tpupoint_par::set_threads(threads);
        let jsonl_dir = tmp_dir(&format!("jsonl-t{threads}"));
        let binary_dir = tmp_dir(&format!("binary-t{threads}"));
        let jsonl = run_format(&jsonl_dir, StoreFormat::Jsonl, None);
        let binary = run_format(&binary_dir, StoreFormat::Binary, None);

        // Same answers in memory...
        assert_eq!(
            jsonl.profile, baseline.profile,
            "jsonl diverged from baseline at {threads} threads"
        );
        assert_eq!(
            binary.profile, jsonl.profile,
            "format changed the profile at {threads} threads"
        );
        assert_eq!(binary.report, jsonl.report);

        // ...and the same records back off disk, with clean accounting.
        let jr = recover(&jsonl_dir);
        let br = recover(&binary_dir);
        for (tag, summary) in [("jsonl", &jr), ("binary", &br)] {
            assert!(summary.sealed_files, "{tag}: sealed run");
            assert!(!summary.is_torn(), "{tag}: clean seal is not torn");
            assert_eq!(summary.missing_acknowledged(), (0, 0), "{tag}");
        }
        assert_eq!(jr.steps, br.steps, "recovered steps diverged");
        assert_eq!(jr.windows, br.windows, "recovered windows diverged");
        assert_eq!(
            jr.to_profile(),
            br.to_profile(),
            "salvaged profiles diverged at {threads} threads"
        );

        std::fs::remove_dir_all(&jsonl_dir).unwrap();
        std::fs::remove_dir_all(&binary_dir).unwrap();
    }
    tpupoint_par::set_threads(0);
    std::fs::remove_dir_all(&baseline_dir).unwrap();
}

#[test]
fn seeded_store_faults_recover_identically_in_both_formats() {
    // The same seeded fault stream hits both formats; the retry layer must
    // absorb it identically regardless of what sits underneath.
    let jsonl_dir = tmp_dir("fault-jsonl");
    let binary_dir = tmp_dir("fault-binary");
    let jsonl = run_format(&jsonl_dir, StoreFormat::Jsonl, Some((0.3, 21, 10)));
    let binary = run_format(&binary_dir, StoreFormat::Binary, Some((0.3, 21, 10)));
    assert_eq!(jsonl.profile.store_errors, 0, "retries absorb the faults");
    assert_eq!(binary.profile, jsonl.profile);

    let jr = recover(&jsonl_dir);
    let br = recover(&binary_dir);
    assert_eq!(jr.missing_acknowledged(), (0, 0));
    assert_eq!(br.missing_acknowledged(), (0, 0));
    assert_eq!(jr.steps, br.steps);
    assert_eq!(jr.windows, br.windows);

    std::fs::remove_dir_all(&jsonl_dir).unwrap();
    std::fs::remove_dir_all(&binary_dir).unwrap();
}
