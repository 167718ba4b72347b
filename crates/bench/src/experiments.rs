//! One function per table/figure of the paper's evaluation.
//!
//! Every function prints the series the paper plots and writes it as CSV;
//! absolute values come from the simulated platform, so the *shapes*
//! (who wins, where elbows/crossovers fall) are the reproduction target.

use crate::csvout::write_csv;
use crate::suite::Suite;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tpupoint::analyzer::{dbscan, kmeans};
use tpupoint::optimizer::TpuPointOptimizer;
use tpupoint::prelude::*;
use tpupoint::profiler::PipelineConfig;

/// All experiment ids: the paper's artifacts in paper order, then the
/// beyond-the-paper ablations.
pub const ALL: &[&str] = &[
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "ablation_fusion",
    "ablation_pipeline",
    "ablation_substitution",
    "ablation_seeds",
    "bench_analyzer",
    "bench_pipeline",
    "bench_streaming",
    "bench_simcore",
    "bench_fleet",
    "bench_store",
];

/// True for experiments that are safe to run concurrently from a
/// grid-parallel `reproduce --grid` sweep. The `bench_*` experiments are
/// excluded: they resize the global worker pool and measure real wall
/// time, both of which other in-flight experiments would corrupt.
pub fn grid_safe(id: &str) -> bool {
    !id.starts_with("bench_")
}

/// Runs one experiment by id, writing CSVs under `out_dir` and returning a
/// console summary.
///
/// # Errors
///
/// Returns an error if output files cannot be written, or
/// `InvalidInput` for an unknown id.
pub fn run(id: &str, suite: &Suite, out_dir: &Path) -> io::Result<String> {
    match id {
        "table1" => table1(out_dir),
        "fig4" => fig4(suite, out_dir),
        "fig5" => fig5(suite, out_dir),
        "fig6" => fig6(suite, out_dir),
        "fig7" => fig7(suite, out_dir),
        "fig8" => fig8(suite, out_dir),
        "fig9" => fig9(suite, out_dir),
        "table2" => table2(suite, out_dir),
        "fig10" => fig10_11(suite, out_dir, "fig10", Metric::Idle),
        "fig11" => fig10_11(suite, out_dir, "fig11", Metric::Mxu),
        "fig12" => fig12_13(suite, out_dir, "fig12", Metric::Idle),
        "fig13" => fig12_13(suite, out_dir, "fig13", Metric::Mxu),
        "fig14" => fig14(suite, out_dir),
        "fig15" => fig15_16(suite, out_dir, "fig15", Metric::Idle),
        "fig16" => fig15_16(suite, out_dir, "fig16", Metric::Mxu),
        "ablation_fusion" => ablation_fusion(suite, out_dir),
        "ablation_pipeline" => ablation_pipeline(suite, out_dir),
        "ablation_substitution" => ablation_substitution(suite, out_dir),
        "ablation_seeds" => ablation_seeds(suite, out_dir),
        "bench_analyzer" => bench_analyzer(suite, out_dir),
        "bench_pipeline" => bench_pipeline(out_dir),
        "bench_streaming" => bench_streaming(out_dir),
        "bench_simcore" => bench_simcore(out_dir),
        "bench_fleet" => bench_fleet(out_dir),
        "bench_store" => bench_store(out_dir),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown experiment `{other}`; known: {ALL:?}"),
        )),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    Idle,
    Mxu,
}

impl Metric {
    fn of(self, profile: &Profile) -> f64 {
        match self {
            Metric::Idle => profile.steady_tpu_idle_fraction(),
            Metric::Mxu => profile.steady_mxu_utilization(),
        }
    }

    fn of_report(self, report: &RunReport) -> f64 {
        match self {
            Metric::Idle => report.tpu_idle_fraction(),
            Metric::Mxu => report.mxu_utilization(),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Metric::Idle => "tpu_idle_fraction",
            Metric::Mxu => "mxu_utilization",
        }
    }
}

/// Table I: workload breakdown and specifications.
fn table1(out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = String::from("Table I — workload breakdown:\n");
    for id in WorkloadId::paper_nine() {
        let cfg = build(id, TpuGeneration::V2, &BuildOptions::default());
        let row = format!(
            "{},{},{},{},{:.2},{},{}",
            id.label(),
            cfg.model,
            cfg.dataset.name,
            cfg.dataset.num_examples,
            cfg.dataset.size_bytes as f64 / (1024.0 * 1024.0),
            cfg.pipeline.batch_size,
            cfg.train_steps,
        );
        summary.push_str(&format!(
            "  {:18} {:10} batch {:5} train_steps {:7} dataset {:9.2} MiB\n",
            id.label(),
            cfg.dataset.name,
            cfg.pipeline.batch_size,
            cfg.train_steps,
            cfg.dataset.size_bytes as f64 / (1024.0 * 1024.0),
        ));
        rows.push(row);
    }
    write_csv(
        out_dir,
        "table1",
        "workload,model,dataset,examples,size_mib,batch_size,train_steps",
        rows,
    )?;
    Ok(summary)
}

/// Figure 4: k-means sum of squared distances for k = 1..15.
fn fig4(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = String::from("Figure 4 — k-means elbow (normalized SSE, elbow k):\n");
    for id in WorkloadId::paper_nine() {
        let run = suite.tuned(id, TpuGeneration::V2);
        let analyzer = Analyzer::new(&run.profile);
        let sweep = analyzer.kmeans_sweep(1..=15);
        let base = sweep.first().map(|(_, s)| *s).unwrap_or(1.0).max(1e-12);
        for (k, sse) in &sweep {
            rows.push(format!("{},{},{:.6}", id.label(), k, sse / base));
        }
        let elbow = kmeans::elbow_k(&sweep).unwrap_or(0);
        summary.push_str(&format!("  {:18} elbow at k = {}\n", id.label(), elbow));
    }
    write_csv(out_dir, "fig4", "workload,k,normalized_sse", rows)?;
    Ok(summary)
}

/// Figure 5: DBSCAN noise ratio across the min-samples grid.
fn fig5(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = String::from("Figure 5 — DBSCAN noise ratio (elbow min-samples):\n");
    for id in WorkloadId::paper_nine() {
        let run = suite.tuned(id, TpuGeneration::V2);
        let analyzer = Analyzer::new(&run.profile);
        match analyzer.dbscan_sweep() {
            Ok(sweep) => {
                for (m, noise, clusters) in &sweep {
                    rows.push(format!("{},{},{:.6},{}", id.label(), m, noise, clusters));
                }
                let elbow = dbscan::elbow_min_samples(&sweep).unwrap_or(0);
                let at = sweep.iter().find(|(m, _, _)| *m == elbow);
                summary.push_str(&format!(
                    "  {:18} elbow at min_samples = {:3} ({} clusters)\n",
                    id.label(),
                    elbow,
                    at.map(|(_, _, c)| *c).unwrap_or(0)
                ));
            }
            Err(err) => {
                summary.push_str(&format!("  {:18} {}\n", id.label(), err));
                rows.push(format!("{},,,memory-limit", id.label()));
            }
        }
    }
    write_csv(
        out_dir,
        "fig5",
        "workload,min_samples,noise_ratio,clusters",
        rows,
    )?;
    Ok(summary)
}

/// Figure 6: OLS phase counts vs similarity threshold.
fn fig6(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let thresholds: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let mut rows = Vec::new();
    let mut summary = String::from("Figure 6 — OLS phases vs threshold (70% / 100%):\n");
    for id in WorkloadId::paper_nine() {
        let run = suite.tuned(id, TpuGeneration::V2);
        let analyzer = Analyzer::new(&run.profile);
        let sweep = analyzer.ols_threshold_sweep(&thresholds);
        for (t, phases) in &sweep {
            rows.push(format!("{},{:.0},{}", id.label(), t * 100.0, phases));
        }
        let at = |t: f64| {
            sweep
                .iter()
                .find(|(x, _)| (*x - t).abs() < 1e-9)
                .map(|(_, p)| *p)
                .unwrap_or(0)
        };
        summary.push_str(&format!(
            "  {:18} phases@70% = {:3}   phases@100% = {:4}\n",
            id.label(),
            at(0.7),
            at(1.0)
        ));
    }
    write_csv(out_dir, "fig6", "workload,threshold_pct,phases", rows)?;
    Ok(summary)
}

fn coverage_rows(
    name: &str,
    sets: Vec<(WorkloadId, PhaseSet)>,
    out_dir: &Path,
) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = format!("{name} — top-3 phase coverage of execution time:\n");
    for (id, set) in sets {
        let fractions = set.top_coverages(3);
        let total: f64 = fractions.iter().sum();
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{}",
            id.label(),
            fractions.first().copied().unwrap_or(0.0),
            fractions.get(1).copied().unwrap_or(0.0),
            fractions.get(2).copied().unwrap_or(0.0),
            total,
            set.len(),
        ));
        summary.push_str(&format!(
            "  {:18} top3 = {:5.1}%  (phases: {})\n",
            id.label(),
            total * 100.0,
            set.len()
        ));
    }
    write_csv(
        out_dir,
        name,
        "workload,phase1,phase2,phase3,top3_total,phase_count",
        rows,
    )?;
    Ok(summary)
}

/// Figure 7: top-3 coverage, OLS at the 70% threshold.
fn fig7(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let sets = WorkloadId::paper_nine()
        .into_iter()
        .map(|id| {
            let run = suite.tuned(id, TpuGeneration::V2);
            (id, Analyzer::new(&run.profile).ols_phases(0.7))
        })
        .collect();
    coverage_rows("fig7", sets, out_dir)
}

/// Figure 8: top-3 coverage, DBSCAN with min-samples 30 (noise counted as
/// a cluster).
fn fig8(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let sets = WorkloadId::paper_nine()
        .into_iter()
        .map(|id| {
            let run = suite.tuned(id, TpuGeneration::V2);
            let set = Analyzer::new(&run.profile)
                .dbscan_phases(30)
                .expect("sim-scale profiles fit the memory limit");
            (id, set)
        })
        .collect();
    coverage_rows("fig8", sets, out_dir)
}

/// Figure 9: top-3 coverage, k-means with k = 5.
fn fig9(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let sets = WorkloadId::paper_nine()
        .into_iter()
        .map(|id| {
            let run = suite.tuned(id, TpuGeneration::V2);
            (id, Analyzer::new(&run.profile).kmeans_phases(5))
        })
        .collect();
    coverage_rows("fig9", sets, out_dir)
}

/// Table II: top-5 operators of the most time-consuming phase per
/// workload and algorithm, plus per-generation appearance totals.
fn table2(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    use std::collections::BTreeMap;
    let mut rows = Vec::new();
    let mut totals: BTreeMap<(String, &'static str, &'static str), u32> = BTreeMap::new();
    for generation in [TpuGeneration::V2, TpuGeneration::V3] {
        let gen_label = match generation {
            TpuGeneration::V2 => "TPUv2",
            TpuGeneration::V3 => "TPUv3",
        };
        for id in WorkloadId::paper_nine() {
            let run = suite.tuned(id, generation);
            let analyzer = Analyzer::new(&run.profile);
            let sets: Vec<(&str, PhaseSet)> = vec![
                ("k-means", analyzer.kmeans_phases(5)),
                (
                    "DBSCAN",
                    analyzer
                        .dbscan_phases(30)
                        .expect("sim-scale profiles fit the memory limit"),
                ),
                ("OLS", analyzer.ols_phases(0.7)),
            ];
            for (algo, set) in sets {
                let Some(top) = analyzer.top_operators_of_longest(&set, 5) else {
                    continue;
                };
                for (side, list) in [("host", &top.host), ("tpu", &top.tpu)] {
                    for (rank, (op, dur, count)) in list.iter().enumerate() {
                        rows.push(format!(
                            "{gen_label},{},{algo},{side},{},{op},{},{count}",
                            id.label(),
                            rank + 1,
                            dur.as_micros(),
                        ));
                        *totals.entry((op.clone(), side, gen_label)).or_default() += 1;
                    }
                }
            }
        }
    }
    write_csv(
        out_dir,
        "table2",
        "generation,workload,algorithm,side,rank,op,total_us,invocations",
        rows,
    )?;
    let mut total_rows = Vec::new();
    let mut summary = String::from(
        "Table II — appearances of each op in per-(workload,algorithm) top-5 lists:\n",
    );
    // Collect per-op totals across generations for the summary.
    let mut by_op: BTreeMap<(String, &'static str), (u32, u32)> = BTreeMap::new();
    for ((op, side, generation), count) in &totals {
        let entry = by_op.entry((op.clone(), side)).or_default();
        if *generation == "TPUv2" {
            entry.0 = *count;
        } else {
            entry.1 = *count;
        }
    }
    let mut ranked: Vec<_> = by_op.into_iter().collect();
    ranked.sort_by_key(|(_, (v2, v3))| std::cmp::Reverse(v2 + v3));
    for ((op, side), (v2, v3)) in &ranked {
        total_rows.push(format!("{op},{side},{v2},{v3}"));
    }
    for ((op, side), (v2, v3)) in ranked.iter().take(12) {
        summary.push_str(&format!("  {side:4} {op:32} TPUv2 {v2:3}   TPUv3 {v3:3}\n"));
    }
    write_csv(
        out_dir,
        "table2_totals",
        "op,side,total_tpuv2,total_tpuv3",
        total_rows,
    )?;
    Ok(summary)
}

/// Figures 10 and 11: idle / MXU across workloads on both generations.
fn fig10_11(suite: &Suite, out_dir: &Path, name: &str, metric: Metric) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = format!("{name} — {} (TPUv2 / TPUv3):\n", metric.label());
    let mut sums = (0.0, 0.0);
    for id in WorkloadId::paper_nine() {
        let v2 = metric.of(&suite.tuned(id, TpuGeneration::V2).profile);
        let v3 = metric.of(&suite.tuned(id, TpuGeneration::V3).profile);
        sums.0 += v2;
        sums.1 += v3;
        rows.push(format!("{},{:.4},{:.4}", id.label(), v2, v3));
        summary.push_str(&format!(
            "  {:18} {:5.1}%  /  {:5.1}%\n",
            id.label(),
            v2 * 100.0,
            v3 * 100.0
        ));
    }
    let n = WorkloadId::paper_nine().len() as f64;
    summary.push_str(&format!(
        "  {:18} {:5.1}%  /  {:5.1}%\n",
        "AVERAGE",
        sums.0 / n * 100.0,
        sums.1 / n * 100.0
    ));
    write_csv(
        out_dir,
        name,
        &format!("workload,{}_v2,{}_v3", metric.label(), metric.label()),
        rows,
    )?;
    Ok(summary)
}

/// Figures 12 and 13: reduced-dataset runs (QANet, RetinaNet halved;
/// ResNet fed CIFAR-10), compared with the originals.
fn fig12_13(suite: &Suite, out_dir: &Path, name: &str, metric: Metric) -> io::Result<String> {
    let pairs = [
        (WorkloadId::QanetSquad, WorkloadId::QanetSquadHalf),
        (WorkloadId::RetinanetCoco, WorkloadId::RetinanetCocoHalf),
        (WorkloadId::ResnetImagenet, WorkloadId::ResnetCifar10),
    ];
    let mut rows = Vec::new();
    let mut summary = format!(
        "{name} — {} with reduced datasets (TPUv2 / TPUv3, original in parens):\n",
        metric.label()
    );
    for (orig, reduced) in pairs {
        let r2 = metric.of(&suite.tuned(reduced, TpuGeneration::V2).profile);
        let r3 = metric.of(&suite.tuned(reduced, TpuGeneration::V3).profile);
        let o2 = metric.of(&suite.tuned(orig, TpuGeneration::V2).profile);
        let o3 = metric.of(&suite.tuned(orig, TpuGeneration::V3).profile);
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            reduced.label(),
            r2,
            r3,
            o2,
            o3
        ));
        summary.push_str(&format!(
            "  {:18} {:5.1}% ({:5.1}%)  /  {:5.1}% ({:5.1}%)\n",
            reduced.label(),
            r2 * 100.0,
            o2 * 100.0,
            r3 * 100.0,
            o3 * 100.0
        ));
    }
    write_csv(
        out_dir,
        name,
        &format!(
            "workload,{m}_v2,{m}_v3,original_{m}_v2,original_{m}_v3",
            m = metric.label()
        ),
        rows,
    )?;
    Ok(summary)
}

/// Figure 14: TPUPoint-Optimizer speedups over default parameters on
/// TPUv2. Long-running workloads (QANet, RetinaNet) benefit; short ones
/// (BERT, DCGAN) do not amortize the tuning overhead.
fn fig14(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let entries = [
        (WorkloadId::QanetSquad, true),
        (WorkloadId::RetinanetCoco, true),
        (WorkloadId::BertMrpc, false),
        (WorkloadId::DcganCifar10, false),
    ];
    let mut rows = Vec::new();
    let mut summary =
        String::from("Figure 14 — TPUPoint-Optimizer speedup over defaults (TPUv2):\n");
    for (id, long_running) in entries {
        let cfg = suite.config(id, TpuGeneration::V2, Variant::Tuned);
        let report = TpuPointOptimizer::new(cfg).optimize();
        let full_steps = build(id, TpuGeneration::V2, &BuildOptions::default())
            .step_plan()
            .len() as u64;
        let projected = report.projected_full_run_speedup(full_steps);
        let throughput = report.throughput_speedup();
        assert!(report.output_preserved(), "{id}: output guard violated");
        rows.push(format!(
            "{},{:.4},{:.4},{},{}",
            id.label(),
            projected,
            throughput,
            full_steps,
            if long_running { "long" } else { "short" }
        ));
        summary.push_str(&format!(
            "  {:18} projected {:.3}x (throughput {:.3}x, {} run)\n",
            id.label(),
            projected,
            throughput,
            if long_running { "long" } else { "short" }
        ));
    }
    write_csv(
        out_dir,
        "fig14",
        "workload,projected_speedup,throughput_speedup,full_plan_steps,class",
        rows,
    )?;
    Ok(summary)
}

/// Figures 15 and 16: naive implementations with and without
/// TPUPoint-Optimizer on both generations.
fn fig15_16(suite: &Suite, out_dir: &Path, name: &str, metric: Metric) -> io::Result<String> {
    let ids = [WorkloadId::QanetSquad, WorkloadId::RetinanetCoco];
    let mut rows = Vec::new();
    let mut summary = format!(
        "{name} — naive implementations, {} without → with optimizer:\n",
        metric.label()
    );
    for id in ids {
        for generation in [TpuGeneration::V2, TpuGeneration::V3] {
            let cfg = suite.config(id, generation, Variant::Naive);
            let report = TpuPointOptimizer::new(cfg).optimize();
            let before = metric.of_report(&report.baseline);
            let after = metric.of_report(&report.optimized);
            let gen_label = match generation {
                TpuGeneration::V2 => "TPUv2",
                TpuGeneration::V3 => "TPUv3",
            };
            rows.push(format!(
                "{},{gen_label},{:.4},{:.4}",
                id.label(),
                before,
                after
            ));
            summary.push_str(&format!(
                "  {:18} {gen_label}: {:5.1}% → {:5.1}%\n",
                id.label(),
                before * 100.0,
                after * 100.0
            ));
        }
    }
    write_csv(
        out_dir,
        name,
        &format!(
            "workload,generation,naive_{m},optimized_{m}",
            m = metric.label()
        ),
        rows,
    )?;
    Ok(summary)
}

/// Ablation: XLA fusion on versus off. Quantifies why `fusion` tops
/// Table II — without the pass, element-wise intermediates round-trip HBM
/// and steps slow down.
fn ablation_fusion(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    use tpupoint::workloads::models;
    let mut rows = Vec::new();
    let mut summary = String::from("Ablation — fusion on/off (TPUv2):\n");
    let graphs: Vec<(
        &str,
        tpupoint::graph::Graph,
        tpupoint::graph::Graph,
        WorkloadId,
    )> = vec![
        (
            "BERT",
            models::bert::train_graph_raw(32, 128),
            models::bert::train_graph(32, 128),
            WorkloadId::BertMrpc,
        ),
        (
            "DCGAN",
            models::dcgan::train_graph_raw(1024),
            models::dcgan::train_graph(1024),
            WorkloadId::DcganCifar10,
        ),
        (
            "ResNet-50",
            models::resnet::train_graph_raw(1024, 224),
            models::resnet::train_graph(1024, 224),
            WorkloadId::ResnetImagenet,
        ),
    ];
    for (name, raw, fused, id) in graphs {
        // Static effect: nodes and HBM traffic.
        let hbm_saved = 1.0 - fused.total_hbm_bytes() / raw.total_hbm_bytes();
        // Dynamic effect: run short jobs with each graph.
        let mut unfused_cfg = suite.config(id, TpuGeneration::V2, Variant::Tuned);
        unfused_cfg.train_steps = unfused_cfg.train_steps.min(60);
        unfused_cfg.steps_per_eval = None;
        unfused_cfg.eval_steps = 0;
        let mut fused_cfg = unfused_cfg.clone();
        unfused_cfg.train_graph = raw.clone();
        fused_cfg.train_graph = fused.clone();
        let r_raw = TrainingJob::new(unfused_cfg).run(&mut NullSink);
        let r_fused = TrainingJob::new(fused_cfg).run(&mut NullSink);
        let speedup = r_raw.steady_window.as_secs_f64() / r_fused.steady_window.as_secs_f64();
        rows.push(format!(
            "{name},{},{},{:.4},{:.4}",
            raw.node_count(),
            fused.node_count(),
            hbm_saved,
            speedup
        ));
        summary.push_str(&format!(
            "  {:10} nodes {:>4} -> {:>3}, HBM traffic -{:.1}%, step speedup {:.3}x\n",
            name,
            raw.node_count(),
            fused.node_count(),
            hbm_saved * 100.0,
            speedup
        ));
    }
    write_csv(
        out_dir,
        "ablation_fusion",
        "model,nodes_raw,nodes_fused,hbm_traffic_saved,fused_speedup",
        rows,
    )?;
    Ok(summary)
}

/// Ablation: pipeline-knob sweep on QANet — the response surface the
/// optimizer hill-climbs (idle falls with threads until the TPU binds).
fn ablation_pipeline(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary =
        String::from("Ablation — decode threads vs idle/throughput (QANet, TPUv2):\n");
    for threads in [1u32, 2, 4, 8, 16, 32, 64] {
        let mut cfg = suite.config(WorkloadId::QanetSquad, TpuGeneration::V2, Variant::Tuned);
        cfg.train_steps = cfg.train_steps.min(200);
        cfg.steps_per_eval = None;
        cfg.eval_steps = 0;
        cfg.pipeline.num_parallel_calls = threads;
        let report = TrainingJob::new(cfg).run(&mut NullSink);
        rows.push(format!(
            "{threads},{:.4},{:.3}",
            report.tpu_idle_fraction(),
            report.throughput_steps_per_sec()
        ));
        summary.push_str(&format!(
            "  threads {:>2}: idle {:>5.1}%  {:>7.2} steps/s\n",
            threads,
            report.tpu_idle_fraction() * 100.0,
            report.throughput_steps_per_sec()
        ));
    }
    write_csv(
        out_dir,
        "ablation_pipeline",
        "decode_threads,tpu_idle_fraction,steps_per_sec",
        rows,
    )?;
    Ok(summary)
}

/// Ablation: operator-substitution rate vs OLS fragmentation at the 100%
/// threshold — the design choice behind Figure 6's per-workload tails.
fn ablation_substitution(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary =
        String::from("Ablation — substitution rate vs OLS phases @100% (BERT-CoLA, TPUv2):\n");
    for prob in [0.0, 0.005, 0.01, 0.02, 0.05] {
        let mut cfg = suite.config(WorkloadId::BertCola, TpuGeneration::V2, Variant::Tuned);
        cfg.substitution_prob = prob;
        let tp = TpuPoint::builder().analyzer(false).build();
        let run = tp.profile(cfg)?;
        let analyzer = Analyzer::new(&run.profile);
        let sweep = analyzer.ols_threshold_sweep(&[0.7, 1.0]);
        rows.push(format!("{prob},{},{}", sweep[0].1, sweep[1].1));
        summary.push_str(&format!(
            "  q = {:>5.3}: phases@70% = {:>2}, phases@100% = {:>4}\n",
            prob, sweep[0].1, sweep[1].1
        ));
    }
    write_csv(
        out_dir,
        "ablation_substitution",
        "substitution_prob,phases_at_70,phases_at_100",
        rows,
    )?;
    Ok(summary)
}

/// Ablation: seed stability. The jitter seed must not change any reported
/// conclusion — phases, coverage, idle, and MXU stay put across seeds.
fn ablation_seeds(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    let mut rows = Vec::new();
    let mut summary = String::from("Ablation — seed stability (DCGAN-CIFAR10, TPUv2):\n");
    let mut idles = Vec::new();
    for seed in [1u64, 7, 42, 1234, 99999] {
        let mut cfg = suite.config(WorkloadId::DcganCifar10, TpuGeneration::V2, Variant::Tuned);
        cfg.seed = seed;
        let tp = TpuPoint::builder().analyzer(false).build();
        let run = tp.profile(cfg)?;
        let analyzer = Analyzer::new(&run.profile);
        let phases = analyzer.ols_phases(0.7);
        let idle = run.profile.steady_tpu_idle_fraction();
        idles.push(idle);
        rows.push(format!(
            "{seed},{:.4},{:.4},{},{:.4}",
            idle,
            run.profile.steady_mxu_utilization(),
            phases.len(),
            phases.coverage_top(3)
        ));
        summary.push_str(&format!(
            "  seed {:>6}: idle {:.2}%  mxu {:.2}%  phases@70% = {}\n",
            seed,
            idle * 100.0,
            run.profile.steady_mxu_utilization() * 100.0,
            phases.len()
        ));
    }
    let mean = idles.iter().sum::<f64>() / idles.len() as f64;
    let spread = idles
        .iter()
        .map(|x| (x - mean).abs())
        .fold(0.0f64, f64::max);
    summary.push_str(&format!(
        "  max idle deviation across seeds: {:.3} points\n",
        spread * 100.0
    ));
    write_csv(
        out_dir,
        "ablation_seeds",
        "seed,tpu_idle_fraction,mxu_utilization,ols_phases_70,top3_coverage",
        rows,
    )?;
    Ok(summary)
}

/// Wall time since `start`, in microseconds.
fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// How many times faster the change lane ran, its wall floored at 1 µs.
fn speedup(baseline_us: f64, change_us: f64) -> f64 {
    baseline_us / change_us.max(1.0)
}

/// Workload `id` on TPUv2 at `scale`, jittered by `seed`.
fn scaled_config(id: WorkloadId, scale: f64, seed: u64) -> JobConfig {
    let options = BuildOptions {
        scale,
        seed,
        ..BuildOptions::default()
    };
    build(id, TpuGeneration::V2, &options)
}

/// A bench's scratch directory under the system temp dir. It starts
/// empty and is removed on drop, so a failed assert or `?` leaves
/// nothing behind either.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(bench: &str) -> ScratchDir {
        let path =
            std::env::temp_dir().join(format!("tpupoint-bench-{bench}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    fn join(&self, path: impl AsRef<Path>) -> PathBuf {
        self.0.join(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of one `bench_*` experiment: the same work timed end to end
/// in a baseline lane and a change lane, the layers that wall splits
/// into, and the configuration and checked invariants behind the
/// comparison. [`BenchReport::write`] is the one writer of the bench
/// JSON files; the console summary renders from the same values, end to
/// end first, then the layer rows, then the host.
struct BenchReport {
    /// The experiment is `bench_<name>`.
    name: &'static str,
    workload: &'static str,
    /// Threads the change lane runs its work on: pool workers, or job
    /// slots for the fleet.
    threads: usize,
    /// Label and end-to-end wall (µs) of the reference lane.
    baseline: (&'static str, f64),
    /// Label and end-to-end wall (µs) of the lane under test.
    change: (&'static str, f64),
    target_speedup: Option<f64>,
    /// Layer name, baseline µs, change µs.
    layers: Vec<(&'static str, f64, f64)>,
    /// Configuration and checked invariants, one JSON object.
    facts: serde_json::Value,
}

impl BenchReport {
    /// Writes `BENCH_<name>.json` under `out_dir` and returns the console
    /// summary.
    fn write(self, out_dir: &Path) -> io::Result<String> {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (baseline, baseline_us) = self.baseline;
        let (change, change_us) = self.change;
        let layers: Vec<serde_json::Value> = self
            .layers
            .iter()
            .map(|&(name, base, with)| {
                serde_json::json!({
                    "name": name,
                    "baseline_us": base,
                    "change_us": with,
                    "speedup": speedup(base, with),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "bench": self.name,
            "workload": self.workload,
            "threads": self.threads,
            "host_cores": host_cores,
            "end_to_end": {
                "baseline": baseline,
                "baseline_us": baseline_us,
                "change": change,
                "change_us": change_us,
                "speedup": speedup(baseline_us, change_us),
                "target_speedup": self.target_speedup,
            },
            "layers": layers,
            "facts": self.facts,
        });
        std::fs::create_dir_all(out_dir)?;
        let json = serde_json::to_string_pretty(&doc).map_err(io::Error::other)?;
        std::fs::write(out_dir.join(format!("BENCH_{}.json", self.name)), json)?;

        let row = |name: &str, base: f64, with: f64, note: &str| {
            format!(
                "  {name:16} {:>9.1} ms -> {:>9.1} ms  ({:.2}x{note})\n",
                base / 1e3,
                with / 1e3,
                speedup(base, with)
            )
        };
        let target = self
            .target_speedup
            .map_or(String::new(), |t| format!(", target >= {t}x"));
        let mut summary = format!(
            "bench_{} ({}): {baseline} -> {change}\n",
            self.name, self.workload
        );
        summary.push_str(&row("end to end", baseline_us, change_us, &target));
        for &(name, base, with) in &self.layers {
            summary.push_str(&row(name, base, with, ""));
        }
        summary.push_str(&format!(
            "  host: {host_cores} core(s), {} thread(s)\n",
            self.threads
        ));
        for (key, value) in self.facts.as_object().into_iter().flatten() {
            summary.push_str(&format!("  {key}: {value}\n"));
        }
        Ok(summary)
    }
}

/// Analyzer engine benchmark: the three sweep hot paths timed in the
/// baseline configuration (one worker, an independent k-means fit per k,
/// one neighbor scan per DBSCAN grid point — what the analyzer did before
/// the engine, though each scan is now the half scan
/// `NeighborCache::build` does) and on the engine (one neighbor cache per
/// analyzer, warm-started k-means, 4 workers). Feature construction is
/// serial in both lanes.
fn bench_analyzer(suite: &Suite, out_dir: &Path) -> io::Result<String> {
    use tpupoint::analyzer::{AnalyzerOptions, DbscanConfig, KmeansConfig};

    const THREADS: usize = 4;
    let id = WorkloadId::DcganCifar10;
    let profile = &suite.tuned(id, TpuGeneration::V2).profile;
    let analyzer = |threads| Analyzer::with_options(profile, AnalyzerOptions { threads });

    // Baseline: one worker, pre-engine algorithms.
    tpupoint_par::set_threads(1);
    let t = Instant::now();
    let serial = analyzer(1);
    let features = serial.features();
    let serial_features_us = elapsed_us(t);
    let t = Instant::now();
    let serial_kmeans: Vec<(usize, f64)> = (1..=15)
        .map(|k| {
            let config = KmeansConfig {
                k,
                ..KmeansConfig::default()
            };
            (k, kmeans::run(features, &config).sse)
        })
        .collect();
    let serial_kmeans_us = elapsed_us(t);
    let t = Instant::now();
    let eps = dbscan::auto_eps(features);
    let mut serial_dbscan = Vec::new();
    for m in dbscan::paper_grid() {
        let result = dbscan::run(
            features,
            &DbscanConfig {
                eps: Some(eps),
                min_samples: m,
                ..DbscanConfig::default()
            },
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        serial_dbscan.push((m, result.noise_ratio(), result.clusters));
    }
    let serial_dbscan_us = elapsed_us(t);

    // Engine: shared cache, warm start, THREADS workers.
    let t = Instant::now();
    let engine = analyzer(THREADS);
    engine.features();
    let engine_features_us = elapsed_us(t);
    let t = Instant::now();
    let engine_kmeans = engine.kmeans_sweep(1..=15);
    let engine_kmeans_us = elapsed_us(t);
    let t = Instant::now();
    let engine_dbscan = engine
        .dbscan_sweep()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let engine_dbscan_us = elapsed_us(t);
    tpupoint_par::set_threads(0);

    // The shared cache must reproduce the per-run baseline bit for bit,
    // and the warm-started SSD curve must stay monotone non-increasing.
    assert_eq!(
        engine_dbscan, serial_dbscan,
        "shared neighbor cache changed DBSCAN results"
    );
    for pair in engine_kmeans.windows(2) {
        assert!(pair[1].1 <= pair[0].1 + 1e-12, "warm sweep rose: {pair:?}");
    }

    BenchReport {
        name: "analyzer",
        workload: id.label(),
        threads: THREADS,
        baseline: (
            "serial",
            serial_kmeans_us + serial_dbscan_us + serial_features_us,
        ),
        change: (
            "engine",
            engine_kmeans_us + engine_dbscan_us + engine_features_us,
        ),
        target_speedup: None,
        layers: vec![
            ("k-means sweep", serial_kmeans_us, engine_kmeans_us),
            ("DBSCAN sweep", serial_dbscan_us, engine_dbscan_us),
            ("features", serial_features_us, engine_features_us),
        ],
        facts: serde_json::json!({
            "serial_elbow_k": kmeans::elbow_k(&serial_kmeans),
            "engine_elbow_k": kmeans::elbow_k(&engine_kmeans),
            "dbscan_results_identical": true,
            "kmeans_ssd_monotone": true,
        }),
    }
    .write(out_dir)
}

/// Asserts that `other` holds exactly the record files of `reference`,
/// byte for byte, and that `reference` recorded steps and windows: the
/// byte-identity check of the determinism benches, whatever the format.
fn assert_same_records(reference: &Path, other: &Path, what: &str) -> io::Result<()> {
    use tpupoint::profiler::{record_files, recover_records};
    let recovered = recover_records(reference)?;
    assert!(
        !recovered.steps.is_empty() && !recovered.windows.is_empty(),
        "{what}: no records under {}",
        reference.display()
    );
    assert!(
        record_files(reference)? == record_files(other)?,
        "{what}: records diverged"
    );
    Ok(())
}

/// Window size of the throttled-store benches.
const WINDOW_MAX_EVENTS: u64 = 256;

/// Runs `config` into a JSONL store under `dir` that sleeps `throttle_us`
/// per call, standing in for slow cloud storage. Records are written
/// inline on the simulation thread ([`ProfilerSink::with_store`], the
/// batch lane), or queued on the pool when `queue` is given
/// ([`ProfilerSink::with_pipelined_store`], the served lane). Returns the
/// report, the profile, and the run and finish walls in µs.
fn run_throttled(
    config: &JobConfig,
    dir: &Path,
    throttle_us: u64,
    queue: Option<PipelineConfig>,
) -> io::Result<(RunReport, Profile, f64, f64)> {
    use tpupoint::profiler::{JsonlStore, RecordStore, ThrottledStore};
    let job = TrainingJob::new(config.clone());
    let store: Box<dyn RecordStore + Send> = Box::new(ThrottledStore::new(
        JsonlStore::create(dir)?,
        Duration::from_micros(throttle_us),
    ));
    let options = ProfilerOptions {
        window_max_events: WINDOW_MAX_EVENTS,
        ..ProfilerOptions::default()
    };
    let catalog = job.catalog().clone();
    let mut sink = match queue {
        Some(queue) => ProfilerSink::with_pipelined_store(catalog, options, store, queue),
        None => ProfilerSink::with_store(catalog, options, store),
    };
    sink.set_source(&config.model, &config.dataset.name);
    let t = Instant::now();
    let report = job.run(&mut sink);
    let run_us = elapsed_us(t);
    let t = Instant::now();
    let profile = sink.finish();
    Ok((report, profile, run_us, elapsed_us(t)))
}

/// Seal-lane benchmark: one job into a throttled store through each sink
/// constructor — inline, where every store call blocks the simulation
/// thread, and queued, where the pipeline drains records on the shared
/// pool. End to end is run plus finish: the queued lane moves the store
/// latency off the simulation thread and into the drain barrier, so it
/// hides latency from the simulation (what a served job needs) rather
/// than raising throughput (why batch runs stay inline). Records must
/// stay byte-identical across the lanes.
fn bench_pipeline(out_dir: &Path) -> io::Result<String> {
    const THREADS: usize = 4;
    const THROTTLE_US: u64 = 500;
    let id = WorkloadId::DcganMnist;
    let config = build(id, TpuGeneration::V2, &BuildOptions::default());
    let tmp = ScratchDir::new("pipeline");
    tpupoint_par::set_threads(THREADS);
    let inline = run_throttled(&config, &tmp.join("inline"), THROTTLE_US, None);
    // The high-water mark is past the full op count (windows plus the
    // steps streamed at window seals), so the simulation thread never
    // waits on the queue.
    let queue = PipelineConfig { high_water: 16384 };
    let queued = run_throttled(&config, &tmp.join("queued"), THROTTLE_US, Some(queue));
    tpupoint_par::set_threads(0);
    let (inline_report, inline_profile, inline_run_us, inline_finish_us) = inline?;
    let (queued_report, queued_profile, queued_run_us, queued_finish_us) = queued?;

    // Off-critical-path sealing must not change a single byte of output.
    assert_eq!(inline_report, queued_report, "run reports diverged");
    assert_eq!(inline_profile, queued_profile, "profiles diverged");
    assert_same_records(
        &tmp.join("inline"),
        &tmp.join("queued"),
        "inline vs queued sealing",
    )?;

    BenchReport {
        name: "pipeline",
        workload: id.label(),
        threads: THREADS,
        baseline: ("inline", inline_run_us + inline_finish_us),
        change: ("queued", queued_run_us + queued_finish_us),
        target_speedup: None,
        layers: vec![
            ("simulation wall", inline_run_us, queued_run_us),
            ("drain barrier", inline_finish_us, queued_finish_us),
        ],
        facts: serde_json::json!({
            "store_throttle_us_per_op": THROTTLE_US,
            "window_max_events": WINDOW_MAX_EVENTS,
            "windows_sealed": inline_profile.windows.len(),
            "steps_recorded": inline_profile.steps.len(),
            "byte_identical": true,
        }),
    }
    .write(out_dir)
}

/// Streaming early-stop benchmark: the same paced served job (a fleet of
/// one) twice — once to completion and once with `--stop-on-stable` —
/// measuring the real wall-clock win from skipping the paced tail after
/// the live phase structure latches. Early stop cancels only the pacing:
/// the remaining steps rush at batch speed, so both runs' records must
/// stay byte-identical.
fn bench_streaming(out_dir: &Path) -> io::Result<String> {
    use tpupoint::{runtime::JobPhase, FleetJobRequest};

    const PACE_US: u64 = 2_000;
    const STABLE_K: u64 = 3;
    const SCALE: f64 = 0.3;
    let id = WorkloadId::BertMrpc;
    let tmp = ScratchDir::new("streaming");

    // One served run: a fleet of one, waited on until its job settles.
    let job_id = "bert-mrpc";
    let serve_once = |dir: &Path, stop: Option<u64>| -> io::Result<(f64, u64)> {
        let mut builder = TpuPoint::builder()
            .analyzer(true)
            .output_dir(dir)
            .serve("127.0.0.1:0")
            .serve_pace_us(PACE_US);
        if let Some(k) = stop {
            builder = builder.stop_on_stable(k);
        }
        let t = Instant::now();
        let session = builder.build().serve_fleet()?;
        session
            .submit(FleetJobRequest::new(scaled_config(id, SCALE, 7)).id(job_id))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let outcome = session.wait_for(Some(job_id))?;
        let wall_us = elapsed_us(t);
        let job = &outcome.jobs[0];
        assert_eq!(job.phase, JobPhase::Completed, "{:?}", job.error);
        Ok((wall_us, job.steps_completed))
    };

    let (full_us, steps) = serve_once(&tmp.join("full"), None)?;
    let (early_us, early_steps) = serve_once(&tmp.join("early"), Some(STABLE_K))?;

    // Early stop skips pacing, never recording.
    assert_eq!(steps, early_steps, "early stop lost recorded steps");
    let records = |lane: &str| tmp.join(lane).join("jobs").join(job_id).join("records");
    assert_same_records(&records("full"), &records("early"), "--stop-on-stable")?;

    BenchReport {
        name: "streaming",
        workload: id.label(),
        threads: 1,
        baseline: ("full", full_us),
        change: ("early stop", early_us),
        target_speedup: None,
        layers: Vec::new(),
        facts: serde_json::json!({
            "scale": SCALE,
            "pace_us_per_step": PACE_US,
            "stop_on_stable_k": STABLE_K,
            "steps_recorded": steps,
            "byte_identical_records": true,
        }),
    }
    .write(out_dir)
}

/// Parallel-simulation benchmark: a (workload, seed) grid of throttled
/// jobs, as in `bench_pipeline`, run two ways — the serial engine one
/// cell at a time, and the same engine per cell with the cells
/// grid-parallel on the shared pool. End to end is run plus drain of
/// every cell: the grid overlaps whole cells, so cells hide each other's
/// store latency, while every record stays byte-identical to the
/// sequential run.
fn bench_simcore(out_dir: &Path) -> io::Result<String> {
    const THREADS: usize = 4;
    const THROTTLE_US: u64 = 75;
    const SCALE: f64 = 0.35;
    let id = WorkloadId::DcganMnist;
    let seeds: &[u64] = &[7, 11, 13, 17];
    let tmp = ScratchDir::new("simcore");
    let cell_dir = |lane: &str, seed: u64| tmp.join(lane).join(format!("{}-{seed}", id.label()));
    let run_cell = |lane: &str, seed: u64| {
        let config = scaled_config(id, SCALE, seed);
        run_throttled(&config, &cell_dir(lane, seed), THROTTLE_US, None)
    };
    tpupoint_par::set_threads(THREADS);

    // Cells one after another: every store sleep lands on the one
    // simulation thread.
    let t = Instant::now();
    let serial_runs: Vec<_> = seeds.iter().map(|&seed| run_cell("serial", seed)).collect();
    let serial_us = elapsed_us(t);

    // The same cells grid-parallel across the pool.
    let t = Instant::now();
    let grid_runs = tpupoint_par::pool().par_map(seeds, |_, &seed| run_cell("grid", seed));
    let grid_us = elapsed_us(t);
    tpupoint_par::set_threads(0);

    // The grid may not change a single byte of output.
    let (mut windows_sealed, mut steps_recorded) = (0, 0);
    for ((&seed, serial), grid) in seeds.iter().zip(serial_runs).zip(grid_runs) {
        let (serial_report, serial_profile, ..) = serial?;
        let (grid_report, grid_profile, ..) = grid?;
        assert_eq!(serial_report, grid_report, "grid report diverged");
        assert_eq!(serial_profile, grid_profile, "grid profile diverged");
        assert_same_records(
            &cell_dir("serial", seed),
            &cell_dir("grid", seed),
            &format!("serial vs grid for seed {seed}"),
        )?;
        windows_sealed += serial_profile.windows.len();
        steps_recorded += serial_profile.steps.len();
    }

    BenchReport {
        name: "simcore",
        workload: id.label(),
        threads: THREADS,
        baseline: ("sequential", serial_us),
        change: ("grid", grid_us),
        target_speedup: Some(2.0),
        layers: Vec::new(),
        facts: serde_json::json!({
            "seeds": seeds,
            "scale": SCALE,
            "store_throttle_us_per_op": THROTTLE_US,
            "window_max_events": WINDOW_MAX_EVENTS,
            "windows_sealed": windows_sealed,
            "steps_recorded": steps_recorded,
            "byte_identical": true,
        }),
    }
    .write(out_dir)
}

/// Multi-job fleet benchmark: the same (workload, seed) grid as a
/// sequential chain of solo batch profiles and as one fleet of concurrent
/// serve-style jobs behind a single scrape plane, at dozens-of-tenants
/// scale with churn. 16 steady cells are submitted over the real
/// `POST /jobs` control API (each its own tenant) and 12 churn jobs are
/// submitted and then cancelled in waves mid-run, while two scraper
/// threads hammer `GET /metrics` and `GET /healthz` on a 2 ms cadence
/// for the whole run, collecting every scrape latency; resident memory
/// is sampled throughout against an explicit `--fleet-memory-mib`-style
/// budget. The checks: every job's series stays separately labeled on
/// the one scrape plane, the plane keeps serving under churn (p99 scrape
/// latency within bound — scrapes read published snapshots, never a live
/// job registry), memory stays under the budget, and each steady job's
/// sealed records are byte-identical to its solo run. End to end, the
/// fleet lane does more than the solo chain: every job also runs a
/// streaming analyzer, and the scrapers and churn share the same cores.
fn bench_fleet(out_dir: &Path) -> io::Result<String> {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use tpupoint::runtime::FleetLimits;

    const STEADY_JOBS: u64 = 16;
    const CHURN_WAVES: u64 = 3;
    const CHURN_PER_WAVE: u64 = 4;
    const SCALE: f64 = 0.15;
    const CHURN_SCALE: f64 = 0.05;
    const MEMORY_BUDGET_MIB: u64 = 1024;
    const P99_BOUND_US: u64 = 250_000;
    let id = WorkloadId::DcganMnist;
    let limits = FleetLimits {
        max_running: 8,
        max_queued: 256,
        per_tenant_active: 4,
        ..FleetLimits::default()
    };
    let tmp = ScratchDir::new("fleet");
    let rss_bytes = || -> u64 {
        std::fs::read_to_string("/proc/self/statm")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map(|pages| pages * 4096)
            .unwrap_or(0)
    };

    // Baseline: the steady cells one after another as solo batch profiles
    // — the byte-identity references and the sequential wall.
    let t = Instant::now();
    for seed in 0..STEADY_JOBS {
        TpuPoint::builder()
            .analyzer(true)
            .output_dir(tmp.join("solo").join(format!("cell-{seed}")))
            .build()
            .profile(scaled_config(id, SCALE, seed))?;
    }
    let solo_us = elapsed_us(t);

    // The fleet: every steady cell admitted through the control API under
    // its own tenant, running concurrently at batch speed behind one
    // scrape plane, with an explicit memory budget.
    let fleet_dir = tmp.join("fleet");
    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(&fleet_dir)
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .fleet_limits(limits)
        .fleet_memory_mib(MEMORY_BUDGET_MIB)
        .build()
        .serve_fleet()
        .map_err(|e| io::Error::other(format!("fleet: {e}")))?;
    let addr = session.addr();
    let http = move |request: &str| -> io::Result<String> {
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.write_all(request.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };

    // Scrapers ride along for the whole fleet run: real HTTP clients
    // pulling the multi-job exposition and health on a 2 ms cadence
    // while jobs execute and churn, recording every scrape's latency.
    let done = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
    let peak_rss = Arc::new(AtomicU64::new(rss_bytes()));
    let scrapers: Vec<_> = (0..2)
        .map(|_| {
            let done = Arc::clone(&done);
            let latencies = Arc::clone(&latencies);
            let peak_rss = Arc::clone(&peak_rss);
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    let metrics = http("GET /metrics HTTP/1.1\r\nHost: b\r\n\r\n");
                    let elapsed = elapsed_us(t) as u64;
                    let _ = http("GET /healthz HTTP/1.1\r\nHost: b\r\n\r\n");
                    if metrics.is_ok() {
                        latencies.lock().unwrap().push(elapsed);
                    }
                    peak_rss.fetch_max(rss_bytes(), Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    // Admits one job through the control API under its own tenant.
    let post_job = |job: &str, tenant: &str, scale: f64, seed: u64| -> io::Result<()> {
        let body = format!(
            "{{\"workload\": \"{}\", \"id\": \"{job}\", \"tenant\": \"{tenant}\", \
             \"scale\": {scale}, \"seed\": {seed}}}",
            id.label()
        );
        let response = http(&format!(
            "POST /jobs HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))?;
        assert!(response.starts_with("HTTP/1.1 201"), "{response}");
        Ok(())
    };
    let rss_before = rss_bytes();
    let t = Instant::now();
    for seed in 0..STEADY_JOBS {
        post_job(
            &format!("cell-{seed}"),
            &format!("tenant-{seed}"),
            SCALE,
            seed,
        )?;
    }
    // Churn storm: waves of short-lived tenants admitted and cancelled
    // while the steady cells execute — the admission queue, the cancel
    // path, and the scrape plane all take the hit at once.
    for wave in 0..CHURN_WAVES {
        for i in 0..CHURN_PER_WAVE {
            let job = format!("churn-{wave}-{i}");
            post_job(&job, &job, CHURN_SCALE, 100 + wave * CHURN_PER_WAVE + i)?;
        }
        std::thread::sleep(Duration::from_millis(30));
        for i in 0..CHURN_PER_WAVE {
            let response = http(&format!(
                "DELETE /jobs/churn-{wave}-{i} HTTP/1.1\r\nHost: b\r\n\r\n"
            ))?;
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
    }
    session.wait_jobs_idle();
    let fleet_us = elapsed_us(t);
    done.store(true, Ordering::SeqCst);
    for scraper in scrapers {
        let _ = scraper.join();
    }

    // Every steady job completed, separately labeled on the one
    // exposition; churn jobs all settled in a legal terminal phase.
    let scrape = session.scrape();
    let mut steps_recorded = 0;
    for job in session.list() {
        if job.id.starts_with("cell-") {
            assert_eq!(
                job.phase.as_str(),
                "completed",
                "{}: {:?}",
                job.id,
                job.error
            );
            steps_recorded += job.steps_completed;
        } else {
            assert!(
                matches!(job.phase.as_str(), "completed" | "cancelled"),
                "{}: {} ({:?})",
                job.id,
                job.phase.as_str(),
                job.error
            );
        }
        assert!(
            scrape.contains(&format!("job=\"{}\"", job.id)),
            "missing series for {}:\n{scrape}",
            job.id
        );
    }
    let total_jobs = session.list().len() as u64;
    assert!(total_jobs >= 24, "only {total_jobs} jobs in the storm");
    assert!(scrape.contains("job=\"fleet\""), "aggregate missing");
    assert!(
        scrape.contains("tpupoint_fleet_memory_budget_bytes"),
        "budget gauge missing"
    );
    let header_count = scrape
        .matches("# TYPE tpupoint_profiler_windows_sealed")
        .count();
    assert_eq!(
        header_count, 1,
        "one header per family across {total_jobs} jobs"
    );

    // Sharded stores match the solo references byte for byte.
    for seed in 0..STEADY_JOBS {
        let cell = format!("cell-{seed}");
        assert_same_records(
            &tmp.join("solo").join(&cell).join("records"),
            &fleet_dir.join("jobs").join(&cell).join("records"),
            &format!("{cell} solo vs fleet"),
        )?;
    }
    session.request_quit();
    session
        .wait()
        .map_err(|e| io::Error::other(format!("drain: {e}")))?;

    let budget_bytes = MEMORY_BUDGET_MIB * 1024 * 1024;
    let rss_growth = peak_rss.load(Ordering::SeqCst).saturating_sub(rss_before);
    assert!(
        rss_growth < budget_bytes,
        "fleet overran its memory budget: RSS grew by {rss_growth} of {budget_bytes} bytes"
    );
    let mut sorted = latencies.lock().unwrap().clone();
    sorted.sort_unstable();
    assert!(!sorted.is_empty(), "no scrape ever succeeded mid-run");
    let percentile = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let p99 = percentile(0.99);
    assert!(
        p99 < P99_BOUND_US,
        "p99 scrape latency {p99} us blew the {P99_BOUND_US} us bound"
    );

    BenchReport {
        name: "fleet",
        workload: id.label(),
        threads: limits.max_running,
        baseline: ("solo chain", solo_us),
        change: ("fleet", fleet_us),
        target_speedup: None,
        layers: Vec::new(),
        facts: serde_json::json!({
            "scale": SCALE,
            "jobs": total_jobs,
            "steady_jobs": STEADY_JOBS,
            "churn_jobs": CHURN_WAVES * CHURN_PER_WAVE,
            "steps_recorded": steps_recorded,
            "byte_identical_to_solo": true,
            "scrapes_served_mid_run": sorted.len(),
            "scrape_p50_us": percentile(0.5),
            "scrape_p99_us": p99,
            "max_scrape_us": sorted[sorted.len() - 1],
            "scrape_p99_bound_us": P99_BOUND_US,
            "scrape_p99_within_bound": true,
            "one_header_per_family": true,
            "rss_growth_bytes": rss_growth,
            "budget_bytes": budget_bytes,
            "within_budget": true,
        }),
    }
    .write(out_dir)
}

/// Record-store format benchmark: the same synthetic record stream
/// ingested once through the JSONL store and once through the binary
/// segment store, then recovered from each. End to end is ingest plus
/// recovery; the recovered records must be equal.
fn bench_store(out_dir: &Path) -> io::Result<String> {
    use std::collections::BTreeMap;
    use tpupoint::profiler::{
        recover_records, BinaryStore, JsonlStore, OpStats, RecordStore, StepRecord, WindowRecord,
    };
    use tpupoint::sim::{OpId, SimDuration, SimTime};

    const STEPS: u64 = 40_000;
    const WINDOWS: u64 = 4_000;
    const OPS_PER_STEP: u64 = 4;
    const FLUSH_EVERY: u64 = 1_024;

    // Deterministic synthetic records: field values vary with the index so
    // neither encoder benefits from degenerate constant payloads.
    let synth_step = |i: u64| {
        let mut ops = BTreeMap::new();
        for op in 0..OPS_PER_STEP {
            ops.insert(
                OpId((op * 7 + i % 3) as u32),
                OpStats {
                    count: 1 + i % 5,
                    total: SimDuration::from_micros(200 + (i * 37 + op * 11) % 900),
                },
            );
        }
        StepRecord {
            step: i,
            ops,
            tpu_time: SimDuration::from_micros(2_000 + i % 700),
            mxu_time: SimDuration::from_micros(1_000 + i % 350),
            host_time: SimDuration::from_micros(500 + i % 130),
            first_start: SimTime::from_micros(i * 3_000),
            last_end: SimTime::from_micros(i * 3_000 + 2_800),
        }
    };
    let synth_window = |i: u64| WindowRecord {
        index: i,
        start: SimTime::from_micros(i * 30_000),
        end: SimTime::from_micros((i + 1) * 30_000),
        events: 1_000 + i % 97,
        tpu_busy: SimDuration::from_micros(24_000 + i % 3_000),
        mxu_busy: SimDuration::from_micros(12_000 + i % 1_500),
        first_step: i * 10,
        last_step: i * 10 + 9,
    };

    let ingest = |mut store: Box<dyn RecordStore>| -> io::Result<f64> {
        let t = Instant::now();
        let mut windows = 0u64;
        for i in 0..STEPS {
            store.put_step(&synth_step(i))?;
            // Interleave windows at the profiler's natural ratio.
            if (i + 1) % (STEPS / WINDOWS) == 0 && windows < WINDOWS {
                store.put_window(&synth_window(windows))?;
                windows += 1;
            }
            if (i + 1) % FLUSH_EVERY == 0 {
                store.flush()?;
            }
        }
        store.seal()?;
        Ok(elapsed_us(t))
    };
    let disk_bytes = |dir: &Path| -> io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    };

    let tmp = ScratchDir::new("store");
    let (jsonl_dir, binary_dir) = (tmp.join("jsonl"), tmp.join("binary"));
    let jsonl_ingest_us = ingest(Box::new(JsonlStore::create(&jsonl_dir)?))?;
    let binary_ingest_us = ingest(Box::new(BinaryStore::create(&binary_dir)?))?;

    let t = Instant::now();
    let jsonl_recovered = recover_records(&jsonl_dir)?;
    let jsonl_recover_us = elapsed_us(t);
    let t = Instant::now();
    let binary_recovered = recover_records(&binary_dir)?;
    let binary_recover_us = elapsed_us(t);

    // Both formats must hand back the identical record stream.
    assert_eq!(jsonl_recovered.steps.len() as u64, STEPS);
    assert_eq!(jsonl_recovered.windows.len() as u64, WINDOWS);
    assert_eq!(jsonl_recovered.steps, binary_recovered.steps);
    assert_eq!(jsonl_recovered.windows, binary_recovered.windows);
    assert_eq!(jsonl_recovered.missing_acknowledged(), (0, 0));
    assert_eq!(binary_recovered.missing_acknowledged(), (0, 0));

    let records_per_sec = |ingest_us: f64| (STEPS + WINDOWS) as f64 / (ingest_us / 1e6).max(1e-9);
    let jsonl_bytes = disk_bytes(&jsonl_dir)?;
    let binary_bytes = disk_bytes(&binary_dir)?;
    BenchReport {
        name: "store",
        workload: "synthetic records",
        threads: 1,
        baseline: ("JSONL", jsonl_ingest_us + jsonl_recover_us),
        change: ("binary", binary_ingest_us + binary_recover_us),
        target_speedup: Some(2.0),
        layers: vec![
            ("ingest", jsonl_ingest_us, binary_ingest_us),
            ("recovery", jsonl_recover_us, binary_recover_us),
        ],
        facts: serde_json::json!({
            "steps": STEPS,
            "windows": WINDOWS,
            "ops_per_step": OPS_PER_STEP,
            "flush_every": FLUSH_EVERY,
            "jsonl_records_per_sec": records_per_sec(jsonl_ingest_us),
            "binary_records_per_sec": records_per_sec(binary_ingest_us),
            "jsonl_disk_bytes": jsonl_bytes,
            "binary_disk_bytes": binary_bytes,
            "compression_ratio": jsonl_bytes as f64 / binary_bytes.max(1) as f64,
            "recovered_equal": true,
        }),
    }
    .write(out_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_dispatches() {
        // Smoke: the cheap experiments actually run end to end; the heavy
        // ones at least resolve to a handler (checked via the unknown-id
        // error NOT firing — compile-time match coverage).
        let suite = Suite::new();
        let dir = std::env::temp_dir().join(format!("tpupoint-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for id in ["table1", "fig6", "fig7"] {
            let summary = run(id, &suite, &dir).expect(id);
            assert!(!summary.is_empty());
            assert!(dir.join(format!("{id}.csv")).exists());
        }
        let err = run("fig99", &suite, &dir).expect_err("unknown id");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_list_has_no_duplicates() {
        let mut ids: Vec<&str> = ALL.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
    }

    #[test]
    fn bench_report_summary_leads_with_end_to_end_then_layers_then_host() {
        let dir = ScratchDir::new("report-unit");
        let summary = BenchReport {
            name: "unit",
            workload: "toy",
            threads: 3,
            baseline: ("before", 4_000.0),
            change: ("after", 1_000.0),
            target_speedup: Some(2.0),
            layers: vec![("layer", 3_000.0, 500.0)],
            facts: serde_json::json!({ "checked": true }),
        }
        .write(&dir.0)
        .unwrap();
        let lines: Vec<&str> = summary.lines().collect();
        assert_eq!(lines[0], "bench_unit (toy): before -> after", "{summary}");
        assert!(lines[1].starts_with("  end to end"), "{summary}");
        assert!(lines[1].ends_with("(4.00x, target >= 2x)"), "{summary}");
        assert!(lines[2].starts_with("  layer") && lines[2].ends_with("(6.00x)"));
        assert!(lines[3].starts_with("  host: ") && lines[3].ends_with(", 3 thread(s)"));
        assert_eq!(lines[4], "  checked: true", "{summary}");

        let json = std::fs::read_to_string(dir.join("BENCH_unit.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(doc["end_to_end"]["speedup"], 4.0);
        assert_eq!(doc["end_to_end"]["baseline"], "before");
        assert_eq!(doc["layers"][0]["speedup"], 6.0);
        assert_eq!(doc["facts"]["checked"], true);
        assert!(doc["host_cores"].as_u64().is_some_and(|n| n >= 1));
    }

    #[test]
    fn every_committed_bench_report_records_end_to_end_and_host() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&results).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let json = std::fs::read_to_string(&path).unwrap();
            let doc: serde_json::Value =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            for key in ["host_cores", "threads"] {
                assert!(doc[key].as_u64().is_some_and(|n| n >= 1), "{name}: {key}");
            }
            let end_to_end = &doc["end_to_end"];
            let lane = |key: &str| {
                end_to_end[key]
                    .as_f64()
                    .filter(|us| *us > 0.0)
                    .unwrap_or_else(|| panic!("{name}: end_to_end.{key}"))
            };
            let (baseline_us, change_us) = (lane("baseline_us"), lane("change_us"));
            let speedup = lane("speedup");
            let expected = baseline_us / change_us.max(1.0);
            assert!(
                (speedup - expected).abs() <= 1e-9 * expected,
                "{name}: speedup {speedup} is not baseline / change = {expected}"
            );
            found.push(name);
        }
        found.sort();
        let mut expected: Vec<String> = ALL
            .iter()
            .filter_map(|id| id.strip_prefix("bench_"))
            .map(|bench| format!("BENCH_{bench}.json"))
            .collect();
        expected.sort();
        assert_eq!(found, expected, "one committed report per bench experiment");
    }
}
