//! Criterion benches for the analyzer's parallel sweep engine: the
//! k-means k-sweep and the DBSCAN min-samples sweep measured at one
//! worker and at four, DBSCAN's two O(n²) scans (the neighbor-list build
//! and the eps estimate) on perfbench's `analyze-sweep` profile shapes,
//! the (serial) PCA projection, and the streaming analyzer's replay of a
//! served job's records.
//!
//! Run with `cargo bench -p tpupoint-bench --bench analyzer_sweeps`.
//! Set `TPUPOINT_BENCH_QUICK=1` to shrink the sample count to a CI-sized
//! smoke run. Every configuration produces bit-identical results — the
//! thread count only moves wall time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpupoint::analyzer::{
    dbscan, kmeans, pca, streaming, DbscanConfig, FeatureMatrix, KmeansConfig, NeighborCache,
    StreamingConfig,
};
use tpupoint::prelude::*;
use tpupoint_bench::Suite;

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn quick_or(samples: usize) -> usize {
    if std::env::var_os("TPUPOINT_BENCH_QUICK").is_some() {
        2
    } else {
        samples
    }
}

fn features_of(id: WorkloadId) -> (FeatureMatrix, FeatureMatrix) {
    let suite = Suite::new();
    let run = suite.tuned(id, TpuGeneration::V2);
    let raw = FeatureMatrix::from_profile(&run.profile);
    let reduced = Analyzer::new(&run.profile).features().clone();
    (raw, reduced)
}

fn bench_kmeans_sweep(c: &mut Criterion) {
    let (_, features) = features_of(WorkloadId::DcganCifar10);
    for threads in THREAD_COUNTS {
        tpupoint_par::set_threads(threads);
        c.bench_function(&format!("kmeans_sweep_warm/threads{threads}"), |b| {
            b.iter(|| black_box(kmeans::sweep(&features, 1..=15, &KmeansConfig::default())))
        });
    }
    tpupoint_par::set_threads(0);
}

fn bench_dbscan_sweep(c: &mut Criterion) {
    let (_, features) = features_of(WorkloadId::DcganCifar10);
    let grid = dbscan::paper_grid();
    for threads in THREAD_COUNTS {
        tpupoint_par::set_threads(threads);
        c.bench_function(&format!("dbscan_sweep_cached/threads{threads}"), |b| {
            b.iter(|| {
                black_box(
                    dbscan::sweep(&features, &grid, &DbscanConfig::default())
                        .expect("within memory limits"),
                )
            })
        });
    }
    tpupoint_par::set_threads(0);
    // The pre-cache baseline: one neighbor scan per grid point.
    let eps = dbscan::auto_eps(&features);
    c.bench_function("dbscan_sweep_uncached_baseline", |b| {
        b.iter(|| {
            for &m in &grid {
                black_box(
                    dbscan::run(
                        &features,
                        &DbscanConfig {
                            eps: Some(eps),
                            min_samples: m,
                            ..DbscanConfig::default()
                        },
                    )
                    .expect("within memory limits"),
                );
            }
        })
    });
}

/// The three profiles perfbench's `analyze-sweep` workload sweeps (each
/// model at its default simulated length, 1.2k–1.8k steps of 76–78
/// dimensions), PCA-reduced as the analyzer reduces them.
fn analyze_sweep_features() -> Vec<(WorkloadId, FeatureMatrix)> {
    let tp = TpuPoint::builder().analyzer(false).build();
    [
        WorkloadId::ResnetImagenet,
        WorkloadId::DcganMnist,
        WorkloadId::BertMnli,
    ]
    .into_iter()
    .map(|id| {
        let options = BuildOptions {
            scale: id.default_sim_scale(),
            ..BuildOptions::default()
        };
        let profile = tp
            .profile(build(id, TpuGeneration::V2, &options))
            .expect("in-memory profiling cannot fail")
            .profile;
        (id, Analyzer::new(&profile).features().clone())
    })
    .collect()
}

/// DBSCAN's two O(n²) scans at the default pool size: the neighbor-list
/// build at the eps the analyzer picks, and that eps estimate.
fn bench_dbscan_scans(c: &mut Criterion) {
    for (id, features) in analyze_sweep_features() {
        let eps = dbscan::auto_eps(&features);
        c.bench_function(&format!("dbscan_neighbor_cache/{id}"), |b| {
            b.iter(|| black_box(NeighborCache::build(&features, eps)))
        });
        c.bench_function(&format!("auto_eps/{id}"), |b| {
            b.iter(|| black_box(dbscan::auto_eps(&features)))
        });
    }
}

fn bench_pca_project(c: &mut Criterion) {
    let (raw, _) = features_of(WorkloadId::DcganCifar10);
    c.bench_function("pca_project", |b| {
        b.iter(|| black_box(pca::project(&raw.rows, 100)))
    });
}

/// The three job shapes perfbench's `fleet-live` workload serves (each
/// model at three times its default simulated length), replayed through
/// fresh streaming analyzers in `STREAM_CADENCE`-step chunks, as a
/// served job's seal observer feeds them.
fn bench_streaming_replay(c: &mut Criterion) {
    let tp = TpuPoint::builder().analyzer(false).build();
    let profiles: Vec<Profile> = [
        (WorkloadId::ResnetImagenet, 0.024),
        (WorkloadId::DcganMnist, 0.24),
        (WorkloadId::BertMnli, 0.075),
    ]
    .into_iter()
    .map(|(id, scale)| {
        let options = BuildOptions {
            scale,
            ..BuildOptions::default()
        };
        tp.profile(build(id, TpuGeneration::V2, &options))
            .expect("in-memory profiling cannot fail")
            .profile
    })
    .collect();
    c.bench_function("streaming_replay", |b| {
        b.iter(|| {
            for profile in &profiles {
                black_box(streaming::replay(profile, StreamingConfig::default()));
            }
        })
    });
}

criterion_group! {
    name = analyzer_sweeps;
    config = Criterion::default().sample_size(quick_or(10));
    targets = bench_kmeans_sweep, bench_dbscan_sweep, bench_dbscan_scans, bench_pca_project,
        bench_streaming_replay,
}
criterion_main!(analyzer_sweeps);
