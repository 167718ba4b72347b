//! Integration: profile → analyze round trips across the workload suite.

use tpupoint::prelude::*;

fn small(id: WorkloadId) -> tpupoint::runtime::JobConfig {
    build(
        id,
        TpuGeneration::V2,
        &BuildOptions {
            scale: id.default_sim_scale(),
            ..BuildOptions::default()
        },
    )
}

#[test]
fn every_workload_profiles_and_analyzes() {
    let tp = TpuPoint::builder().analyzer(false).build();
    for id in WorkloadId::paper_nine() {
        let run = tp.profile(small(id)).expect("profiling");
        assert!(run.report.steps_completed > 0, "{id}");
        let analysis = tp.analyze(&run.profile).expect("analysis");
        assert!(
            (2..=8).contains(&analysis.ols_phases.len()),
            "{id}: {} OLS phases at 70%",
            analysis.ols_phases.len()
        );
        assert!(
            analysis.ols_phases.coverage_top(3) > 0.95,
            "{id}: top-3 coverage {}",
            analysis.ols_phases.coverage_top(3)
        );
    }
}

#[test]
fn dominant_phase_shows_the_papers_bottleneck_operators() {
    let tp = TpuPoint::builder().analyzer(false).build();
    for id in [
        WorkloadId::BertMrpc,
        WorkloadId::DcganCifar10,
        WorkloadId::QanetSquad,
    ] {
        let run = tp.profile(small(id)).expect("profiling");
        let analyzer = Analyzer::new(&run.profile);
        let phases = analyzer.ols_phases(0.7);
        let top = analyzer
            .top_operators_of_longest(&phases, 5)
            .expect("phases exist");
        let tpu_names: Vec<&str> = top.tpu.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(
            tpu_names.contains(&"fusion"),
            "{id}: fusion should be a top TPU op, got {tpu_names:?}"
        );
        let host_names: Vec<&str> = top.host.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(
            host_names.contains(&"OutfeedDequeueTuple")
                || host_names.contains(&"TransferBufferToInfeedLocked"),
            "{id}: infeed/outfeed exchange should top host ops, got {host_names:?}"
        );
    }
}

#[test]
fn profiler_metrics_track_runtime_ground_truth() {
    let tp = TpuPoint::builder()
        .analyzer(false)
        .profiling_overhead(0.0)
        .build();
    for id in [WorkloadId::BertCola, WorkloadId::ResnetImagenet] {
        let run = tp.profile(small(id)).expect("profiling");
        let profiler_idle = run.profile.steady_tpu_idle_fraction();
        let runtime_idle = run.report.tpu_idle_fraction();
        assert!(
            (profiler_idle - runtime_idle).abs() < 0.08,
            "{id}: profiler {profiler_idle} vs runtime {runtime_idle}"
        );
    }
}

#[test]
fn v3_halves_mxu_utilization_and_raises_idle() {
    let tp = TpuPoint::builder().analyzer(false).build();
    for id in [WorkloadId::BertMrpc, WorkloadId::DcganMnist] {
        let opts = BuildOptions {
            scale: id.default_sim_scale(),
            ..BuildOptions::default()
        };
        let v2 = tp.profile(build(id, TpuGeneration::V2, &opts)).unwrap();
        let v3 = tp.profile(build(id, TpuGeneration::V3, &opts)).unwrap();
        let ratio = v3.profile.steady_mxu_utilization() / v2.profile.steady_mxu_utilization();
        assert!(
            (0.4..0.62).contains(&ratio),
            "{id}: v3/v2 MXU ratio {ratio}"
        );
        assert!(
            v3.profile.steady_tpu_idle_fraction() > v2.profile.steady_tpu_idle_fraction(),
            "{id}: idle should rise on TPUv3"
        );
    }
}

#[test]
fn clustering_methods_agree_on_few_dominant_phases() {
    let tp = TpuPoint::builder().analyzer(false).build();
    let run = tp.profile(small(WorkloadId::DcganCifar10)).unwrap();
    let analyzer = Analyzer::new(&run.profile);
    // k-means at the elbow and OLS at 70% both find a dominant phase
    // covering most of the run.
    let kmeans = analyzer.kmeans_phases(5);
    let ols = analyzer.ols_phases(0.7);
    let dbscan = analyzer.dbscan_phases(10).expect("fits memory limit");
    for (name, floor, set) in [
        ("kmeans", 0.8, &kmeans),
        ("ols", 0.8, &ols),
        ("dbscan", 0.8, &dbscan),
    ] {
        assert!(
            set.coverage_top(3) > floor,
            "{name}: top-3 coverage {}",
            set.coverage_top(3)
        );
    }
}

#[test]
fn chrome_trace_is_valid_json_with_both_tracks() {
    let tp = TpuPoint::builder().analyzer(false).build();
    let run = tp.profile(small(WorkloadId::BertMrpc)).unwrap();
    let analyzer = Analyzer::new(&run.profile);
    let phases = analyzer.ols_phases(0.7);
    let mut buf = Vec::new();
    analyzer.write_chrome_trace(&phases, &mut buf).unwrap();
    let value: serde_json::Value = serde_json::from_slice(&buf).expect("valid JSON");
    let events = value["traceEvents"].as_array().expect("trace events");
    assert!(events.iter().any(|e| e["cat"] == "profile"));
    assert!(events.iter().any(|e| e["cat"] == "phase"));
}

#[test]
fn profile_round_trips_through_its_records() {
    let out = std::env::temp_dir().join(format!("tpupoint-full-records-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let tp = TpuPoint::builder().analyzer(true).output_dir(&out).build();
    let run = tp.profile(small(WorkloadId::DcganMnist)).unwrap();
    let loaded = tpupoint::profiler::recover_records(&out.join("records"))
        .unwrap()
        .to_profile();
    assert_eq!(loaded, run.profile);
    // The reloaded profile analyzes identically.
    let a = Analyzer::new(&run.profile).ols_phases(0.7);
    let b = Analyzer::new(&loaded).ols_phases(0.7);
    assert_eq!(a, b);
    std::fs::remove_dir_all(&out).unwrap();
}
