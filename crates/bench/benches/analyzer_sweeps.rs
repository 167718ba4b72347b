//! Criterion benches for the analyzer's parallel sweep engine: the
//! k-means k-sweep and the DBSCAN min-samples sweep measured at one
//! worker and at four, and the (serial) PCA projection.
//!
//! Run with `cargo bench -p tpupoint-bench --bench analyzer_sweeps`.
//! Set `TPUPOINT_BENCH_QUICK=1` to shrink the sample count to a CI-sized
//! smoke run. Every configuration produces bit-identical results — the
//! thread count only moves wall time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpupoint::analyzer::{dbscan, kmeans, pca, DbscanConfig, FeatureMatrix, KmeansConfig};
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

fn bench_pca_project(c: &mut Criterion) {
    let (raw, _) = features_of(WorkloadId::DcganCifar10);
    c.bench_function("pca_project", |b| {
        b.iter(|| black_box(pca::project(&raw.rows, 100)))
    });
}

criterion_group! {
    name = analyzer_sweeps;
    config = Criterion::default().sample_size(quick_or(10));
    targets = bench_kmeans_sweep, bench_dbscan_sweep, bench_pca_project,
}
criterion_main!(analyzer_sweeps);
