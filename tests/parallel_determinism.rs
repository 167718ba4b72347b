//! Integration: analyzer results are bit-identical for any worker-pool
//! size. Phase boundaries, elbow picks, and DBSCAN noise ratios must
//! never depend on how many threads happen to run the sweeps.

use tpupoint::analyzer::{kmeans, Analyzer, AnalyzerOptions, PhaseSet};
use tpupoint::prelude::*;

fn profile_of(id: WorkloadId, scale: f64) -> Profile {
    let config = build(
        id,
        TpuGeneration::V2,
        &BuildOptions {
            scale,
            seed: 7,
            ..BuildOptions::default()
        },
    );
    let tp = TpuPoint::builder().analyzer(false).build();
    tp.profile(config).unwrap().profile
}

/// Everything the analyzer derives from one profile at one pool size.
#[derive(Debug, PartialEq)]
struct Derived {
    kmeans_sweep: Vec<(usize, f64)>,
    elbow_k: Option<usize>,
    kmeans_phases: Vec<(u64, u64)>,
    dbscan_sweep: Vec<(usize, f64, usize)>,
    dbscan_phases: PhaseSet,
    ols_phases: Vec<(u64, u64)>,
}

fn derive(profile: &Profile, threads: usize) -> Derived {
    let analyzer = Analyzer::with_options(profile, AnalyzerOptions { threads });
    let kmeans_sweep = analyzer.kmeans_sweep(1..=8);
    let elbow_k = kmeans::elbow_k(&kmeans_sweep);
    let boundaries = |set: &PhaseSet| -> Vec<(u64, u64)> {
        set.phases
            .iter()
            .map(|p| (*p.steps.first().unwrap(), *p.steps.last().unwrap()))
            .collect()
    };
    Derived {
        elbow_k,
        kmeans_phases: boundaries(&analyzer.kmeans_phases(5)),
        dbscan_sweep: analyzer.dbscan_sweep().expect("within limits"),
        dbscan_phases: analyzer.dbscan_phases(30).expect("within limits"),
        ols_phases: boundaries(&analyzer.ols_phases(0.7)),
        kmeans_sweep,
    }
}

#[test]
fn thread_count_never_changes_analysis_results() {
    for (id, scale) in [
        (WorkloadId::BertMrpc, 0.3),
        (WorkloadId::DcganCifar10, 0.05),
    ] {
        let profile = profile_of(id, scale);
        let serial = derive(&profile, 1);
        for threads in [2, 4, 8] {
            let parallel = derive(&profile, threads);
            assert_eq!(parallel, serial, "{id:?} diverged at {threads} threads");
        }
        tpupoint_par::set_threads(0);
        // The noise-ratio curve is monotone in min-samples regardless of
        // how the sweep was scheduled.
        for pair in serial.dbscan_sweep.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9, "{pair:?}");
        }
    }
}

#[test]
fn pipelined_profiling_feeds_identical_analysis() {
    use tpupoint::profiler::{BinaryStore, PipelineConfig, RecordStore, RetryStore};
    use tpupoint::runtime::TrainingJob;
    let config = build(
        WorkloadId::DcganCifar10,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.05,
            seed: 7,
            ..BuildOptions::default()
        },
    );
    let dir = |tag: &str| {
        let d = std::env::temp_dir().join(format!("tpupoint-pardet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    // One job through the default analyzer-mode store chain (binary
    // segments behind a retry layer), on the inline or the queued lane.
    let profile = |dir: &std::path::Path, pipelined: bool| -> Profile {
        let store: Box<dyn RecordStore + Send> = Box::new(RetryStore::new(
            BinaryStore::create(&dir.join("records")).unwrap(),
        ));
        let job = TrainingJob::new(config.clone());
        let (catalog, options) = (job.catalog().clone(), ProfilerOptions::default());
        let mut sink = if pipelined {
            ProfilerSink::with_pipelined_store(catalog, options, store, PipelineConfig::default())
        } else {
            ProfilerSink::with_store(catalog, options, store)
        };
        sink.set_source(&job.config().model, &job.config().dataset.name);
        job.run(&mut sink);
        sink.finish()
    };
    let serial_dir = dir("serial");
    let serial = profile(&serial_dir, false);
    tpupoint_par::set_threads(4);
    let pipe_dir = dir("pipe");
    let pipelined = profile(&pipe_dir, true);
    assert_eq!(pipelined, serial);
    // The downstream analysis (itself running on the work-stealing pool)
    // sees no difference either.
    assert_eq!(derive(&pipelined, 4), derive(&serial, 1));
    tpupoint_par::set_threads(0);
    for d in [serial_dir, pipe_dir] {
        std::fs::remove_dir_all(&d).unwrap();
    }
}

#[test]
fn facade_threads_knob_matches_default_analysis() {
    let profile = profile_of(WorkloadId::BertMrpc, 0.2);
    let wide = TpuPoint::builder().analyzer(false).threads(4).build();
    let narrow = TpuPoint::builder().analyzer(false).threads(1).build();
    let a = wide.analyze(&profile).unwrap();
    let b = narrow.analyze(&profile).unwrap();
    tpupoint_par::set_threads(0);
    assert_eq!(a.ols_phases, b.ols_phases);
    assert_eq!(a.phase_checkpoints, b.phase_checkpoints);
}
