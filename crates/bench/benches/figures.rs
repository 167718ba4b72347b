//! Criterion benches: one group per paper artifact, measuring the cost of
//! the algorithm that produces it, plus the OLS-versus-clustering overhead
//! comparison of Section VI-B.
//!
//! Run with `cargo bench -p tpupoint-bench`. The actual figure *series*
//! are produced by the `reproduce` binary; these benches measure how long
//! each analysis costs on a real profile, and print the headline numbers
//! as they go.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use tpupoint::analyzer::{dbscan, kmeans, ols, DbscanConfig, KmeansConfig, OlsConfig};
use tpupoint::prelude::*;
use tpupoint_bench::Suite;

fn profile_for(id: WorkloadId) -> Profile {
    let suite = Suite::new();
    let run = suite.tuned(id, TpuGeneration::V2);
    run.profile.clone()
}

/// Figure 4: cost of one k-means sweep (k = 1..15) on a profile.
fn bench_fig4_kmeans(c: &mut Criterion) {
    let profile = profile_for(WorkloadId::DcganCifar10);
    let analyzer = Analyzer::new(&profile);
    c.bench_function("fig4_kmeans_sweep", |b| {
        b.iter(|| black_box(analyzer.kmeans_sweep(1..=15)))
    });
}

/// Figure 5: cost of the DBSCAN min-samples sweep, eps and neighbor
/// lists included. An `Analyzer` keeps its neighbor lists after the
/// first sweep, so the bench sweeps the bare feature matrix instead.
fn bench_fig5_dbscan(c: &mut Criterion) {
    let profile = profile_for(WorkloadId::DcganCifar10);
    let features = Analyzer::new(&profile).features().clone();
    let grid = dbscan::paper_grid();
    c.bench_function("fig5_dbscan_sweep", |b| {
        b.iter(|| {
            black_box(
                dbscan::sweep(&features, &grid, &DbscanConfig::default())
                    .expect("within memory limits"),
            )
        })
    });
}

/// Figure 6: cost of the OLS threshold sweep.
fn bench_fig6_ols(c: &mut Criterion) {
    let profile = profile_for(WorkloadId::DcganCifar10);
    let analyzer = Analyzer::new(&profile);
    let thresholds: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    c.bench_function("fig6_ols_sweep", |b| {
        b.iter(|| black_box(analyzer.ols_threshold_sweep(&thresholds)))
    });
}

/// Section VI-B: OLS competes with the clustering methods at a fraction of
/// their cost. Single-run comparison on the largest (ResNet) profile.
fn bench_ols_overhead(c: &mut Criterion) {
    let profile = profile_for(WorkloadId::ResnetImagenet);
    let analyzer = Analyzer::new(&profile);
    let features = analyzer.features().clone();
    let mut group = c.benchmark_group("ols_overhead");
    group.bench_function("ols_single_scan", |b| {
        b.iter(|| black_box(ols::scan(&profile.steps, &OlsConfig::default())))
    });
    group.bench_function("kmeans_single_k5", |b| {
        b.iter(|| {
            black_box(kmeans::run(
                &features,
                &KmeansConfig {
                    k: 5,
                    ..KmeansConfig::default()
                },
            ))
        })
    });
    group.bench_function("dbscan_single_min30", |b| {
        b.iter(|| {
            black_box(
                dbscan::run(
                    &features,
                    &DbscanConfig {
                        min_samples: 30,
                        ..DbscanConfig::default()
                    },
                )
                .expect("within memory limits"),
            )
        })
    });
    group.finish();
}

/// Figures 10–13 substrate: cost of simulating + profiling one workload.
fn bench_profile_capture(c: &mut Criterion) {
    let suite = Suite::new();
    let cfg = suite.config(WorkloadId::BertMrpc, TpuGeneration::V2, Variant::Tuned);
    c.bench_function("profile_capture_bert_mrpc", |b| {
        b.iter_batched(
            || cfg.clone(),
            |cfg| {
                let tp = TpuPoint::builder().analyzer(false).build();
                black_box(tp.profile(cfg).expect("in-memory profiling"))
            },
            BatchSize::SmallInput,
        )
    });
}

/// Figure 14: cost of one optimizer measurement segment (the unit the
/// online tuner pays per candidate).
fn bench_fig14_segment(c: &mut Criterion) {
    use tpupoint::optimizer::{SegmentRunner, Tuner, TunerOptions};
    let suite = Suite::new();
    let cfg = suite.config(WorkloadId::QanetSquad, TpuGeneration::V2, Variant::Tuned);
    c.bench_function("fig14_tuner_full_climb", |b| {
        b.iter_batched(
            || (cfg.clone(), cfg.pipeline.clone()),
            |(cfg, pipeline)| {
                let mut runner = SegmentRunner::new(cfg, 16);
                let tuner = Tuner::new(TunerOptions::default());
                let params = tpupoint::optimizer::discover(&pipeline).adjustable;
                black_box(tuner.tune(&pipeline, &params, &mut runner))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
        bench_fig4_kmeans,
        bench_fig5_dbscan,
        bench_fig6_ols,
        bench_ols_overhead,
        bench_profile_capture,
        bench_fig14_segment,
}
criterion_main!(figures);
