//! [`ObsReport`]: the maintainer-facing summary of a metrics snapshot.
//!
//! Collapses the raw registry into the four questions the ISSUE-level
//! workflow keeps asking: where did the wall time go (per stage), what
//! did profiling itself cost (overhead ratio), did the profiler's window
//! pipeline stay healthy, and how do the phase-detection algorithms
//! compare in runtime.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;

/// Wall time attributed to one instrumentation stage (the first
/// dot-separated segment of a span name: `analyzer`, `profiler`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTime {
    /// Stage name.
    pub name: String,
    /// Total wall time across the stage's spans, microseconds.
    pub total_us: u64,
    /// Number of spans recorded for the stage.
    pub spans: u64,
}

/// Runtime of one analyzer algorithm (`span.analyzer.<algorithm>`).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmRuntime {
    /// Algorithm name: `kmeans`, `dbscan`, `ols`, `pca`, ...
    pub name: String,
    /// Number of recorded runs.
    pub runs: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
    /// Mean wall time per run, microseconds.
    pub mean_us: f64,
}

/// Results of the window-coverage audit, when one actually ran. Kept
/// separate from [`WindowHealth`] so a run where the audit never executed
/// is distinguishable from one where it ran and found nothing — the
/// `audit.unobserved_fraction` gauge is the sentinel: it is published
/// whenever the audit runs, even when the answer is `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAudit {
    /// Coverage gaps found by the audit.
    pub gaps: u64,
    /// Window overlaps found by the audit.
    pub overlaps: u64,
    /// Fraction of the profiled span not covered by any window.
    pub unobserved_fraction: f64,
}

/// Health of the profiler's window pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowHealth {
    /// Windows sealed and kept.
    pub sealed: u64,
    /// Windows lost to simulated collection faults.
    pub dropped: u64,
    /// Events recorded into kept windows.
    pub events_recorded: u64,
    /// Events lost with dropped windows.
    pub events_lost: u64,
    /// Coverage-audit results; `None` when the audit never ran.
    pub audit: Option<WindowAudit>,
    /// Whether the pipeline lost nothing and the audit (if it ran) found
    /// no gaps or overlaps. A run without an audit can still be `clean`
    /// on the loss counters alone — the render makes the missing audit
    /// explicit instead of silently vouching for coverage.
    pub clean: bool,
}

/// Live phase structure from the streaming analyzer, when one ran. Kept
/// as an `Option` on [`ObsReport`] following the [`WindowAudit`]
/// convention: the `analyzer.phase_stability` gauge is the sentinel — it
/// is published on every streaming update, even when the score is `0.0`,
/// so its absence means the streaming analyzer never ran rather than
/// that it ran and found nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseHealth {
    /// Phases with at least one assigned step.
    pub phases: u64,
    /// Fraction of sampled steps whose assignment survived the latest
    /// update unchanged.
    pub stability: f64,
    /// Consecutive updates at or above the stability threshold.
    pub stable_windows: u64,
    /// Step of the most recent phase transition; `None` when the
    /// timeline has no transition yet.
    pub last_transition_step: Option<u64>,
}

/// Health of the binary segment store, when one ran. Kept as an `Option`
/// on [`ObsReport`] following the [`PhaseHealth`] convention: the
/// `store.segments` gauge is the sentinel — the binary store publishes it
/// on every rotation, every retention retirement, and on a registry rebind
/// (any binary run that stored records has published it by seal time), so
/// its absence means the JSONL store (which has no segment tier) ran
/// instead. Publication is deferred past construction so a fleet job's
/// store never registers the sentinel with the global registry before
/// rebinding to its own.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreFormatHealth {
    /// Sealed segments currently listed in the manifest.
    pub segments: u64,
    /// Bytes of disk freed by segments retired by the retention budget,
    /// which runs inline at each rotation and at seal.
    pub bytes_reclaimed: u64,
    /// Bytes of encoded frames written to segment files.
    pub bytes_written: u64,
    /// Acknowledged records retired (accounted, not lost) by the
    /// per-tenant retention budget.
    pub records_retired: u64,
}

/// Health of the profiler's record-store layer (retry/spill resilience).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHealth {
    /// Store operations that failed after exhausting retries (surfaced to
    /// the profile) plus transient failures the retry layer absorbed.
    pub errors: u64,
    /// Retry attempts performed by the resilience layer.
    pub retries: u64,
    /// Records spilled to the in-memory fallback queue.
    pub records_spilled: u64,
    /// Spill-queue depth at snapshot time; nonzero means records were
    /// still awaiting delivery when the run ended.
    pub spill_depth: u64,
    /// Oldest spilled records shed when the bounded spill queue hit its
    /// high-water mark during a sustained outage.
    pub records_shed: u64,
    /// Total simulated retry backoff, microseconds.
    pub backoff_us: u64,
    /// True when nothing is pending delivery or lost: no faults occurred,
    /// or the retry/spill layer absorbed all of them without shedding.
    pub lossless: bool,
}

/// Health of the pipelined (off-critical-path) seal queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineHealth {
    /// Store operations drained by pipeline workers.
    pub ops_drained: u64,
    /// Total time spent applying drained operations, microseconds.
    pub drain_us: u64,
    /// Mean per-operation drain latency, microseconds.
    pub mean_latency_us: f64,
    /// Times the simulation thread blocked on the queue's high-water mark.
    pub backpressure_waits: u64,
    /// Seal-queue depth at snapshot time; nonzero means the snapshot was
    /// taken before the drain barrier.
    pub queue_depth: u64,
}

/// Wall time reading record directories back: the profiler's
/// `recover_records` and the profile built from what it recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryTime {
    /// Record directories recovered.
    pub reads: u64,
    /// Total recovery time, microseconds (`store.recover_us`).
    pub recover_us: u64,
    /// Total profile-building time, microseconds (`store.to_profile_us`).
    pub to_profile_us: u64,
}

/// Summary computed from a [`MetricsSnapshot`]; see the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Per-stage wall time, sorted by descending total.
    pub stages: Vec<StageTime>,
    /// Per-algorithm analyzer runtimes, sorted by descending total.
    pub algorithms: Vec<AlgorithmRuntime>,
    /// Instrumented-to-uninstrumented wall-clock ratio for the profiled
    /// job, when the profiler recorded one (gauge
    /// `profiler.overhead_ratio`).
    pub overhead_ratio: Option<f64>,
    /// Whether the overhead ratio was *measured* against a paired
    /// uninstrumented twin run (gauge `profiler.overhead_measured`)
    /// rather than modeled as `1 + profiling_overhead_frac`.
    pub overhead_measured: bool,
    /// Streaming-analyzer phase structure, when one ran.
    pub phase_health: Option<PhaseHealth>,
    /// Window-pipeline health, when profiler counters are present.
    pub window_health: Option<WindowHealth>,
    /// Record-store resilience health, when store metrics are present.
    pub store_health: Option<StoreHealth>,
    /// Binary segment-store health, when the binary format ran.
    pub store_format: Option<StoreFormatHealth>,
    /// Seal-pipeline health, when a store was attached.
    pub pipeline_health: Option<PipelineHealth>,
    /// Record-directory reads, when any ran.
    pub recovery: Option<RecoveryTime>,
    /// Whether the analyzer's lane kernels ran at AVX2 width (gauge
    /// `analyzer.lanes_avx2`), when any ran; false is degraded.
    pub lanes_avx2: Option<bool>,
}

impl ObsReport {
    /// Builds the report from a snapshot.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> ObsReport {
        let mut stages: BTreeMap<&str, StageTime> = BTreeMap::new();
        let mut algorithms = Vec::new();
        for (name, hist) in &snapshot.histograms {
            let Some(span_name) = name.strip_prefix("span.") else {
                continue;
            };
            let stage = span_name.split('.').next().unwrap_or(span_name);
            let entry = stages.entry(stage).or_insert_with(|| StageTime {
                name: stage.to_owned(),
                total_us: 0,
                spans: 0,
            });
            entry.total_us += hist.sum;
            entry.spans += hist.count;
            if let Some(algorithm) = span_name.strip_prefix("analyzer.") {
                algorithms.push(AlgorithmRuntime {
                    name: algorithm.to_owned(),
                    runs: hist.count,
                    total_us: hist.sum,
                    mean_us: hist.mean(),
                });
            }
        }
        let mut stages: Vec<StageTime> = stages.into_values().collect();
        stages.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        algorithms.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));

        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| snapshot.gauges.get(name).copied();
        let has_profiler_counters = snapshot
            .counters
            .keys()
            .any(|name| name.starts_with("profiler."));
        let window_health = has_profiler_counters.then(|| {
            let dropped = counter("profiler.windows_dropped");
            let events_lost = counter("profiler.events_lost");
            // The audit publishes `audit.unobserved_fraction` whenever it
            // runs (even at 0.0), so its absence means "audit never ran"
            // rather than "audit found nothing".
            let audit = gauge("audit.unobserved_fraction").map(|unobserved_fraction| WindowAudit {
                gaps: gauge("audit.gaps").unwrap_or(0.0) as u64,
                overlaps: gauge("audit.overlaps").unwrap_or(0.0) as u64,
                unobserved_fraction,
            });
            let audit_clean = audit
                .as_ref()
                .is_none_or(|a| a.gaps == 0 && a.overlaps == 0);
            WindowHealth {
                sealed: counter("profiler.windows_sealed"),
                dropped,
                events_recorded: counter("profiler.events_recorded"),
                events_lost,
                audit,
                clean: dropped == 0 && events_lost == 0 && audit_clean,
            }
        });

        let has_store_metrics = snapshot
            .counters
            .keys()
            .chain(snapshot.gauges.keys())
            .any(|name| name.starts_with("profiler.store_") || name == "profiler.records_spilled");
        let store_health = has_store_metrics.then(|| {
            let errors = counter("profiler.store_errors");
            let spill_depth = gauge("profiler.store_spill_depth").unwrap_or(0.0) as u64;
            let records_shed = counter("profiler.records_shed");
            StoreHealth {
                errors,
                retries: counter("profiler.store_retries"),
                records_spilled: counter("profiler.records_spilled"),
                spill_depth,
                records_shed,
                backoff_us: snapshot
                    .histograms
                    .get("profiler.store_backoff_us")
                    .map_or(0, |h| h.sum),
                lossless: spill_depth == 0 && records_shed == 0,
            }
        });

        // `store.segments` is published by the binary segment store on
        // every rotation and retention retirement and on a registry
        // rebind — by seal time for any binary run that stored records —
        // so its absence means the JSONL store ran: the same sentinel
        // convention as the phase gauges.
        let store_format = gauge("store.segments").map(|segments| StoreFormatHealth {
            segments: segments as u64,
            bytes_reclaimed: counter("store.bytes_reclaimed"),
            bytes_written: counter("store.bytes_written"),
            records_retired: counter("store.records_retired"),
        });

        let seal_latency = snapshot.histograms.get("profiler.seal_latency_us");
        let pipeline_health = seal_latency.map(|latency| PipelineHealth {
            ops_drained: latency.count,
            drain_us: latency.sum,
            mean_latency_us: latency.mean(),
            backpressure_waits: counter("profiler.seal_backpressure_waits"),
            queue_depth: gauge("profiler.seal_queue_depth").unwrap_or(0.0) as u64,
        });

        // `analyzer.phase_stability` is published on every streaming
        // update (even at 0.0), so its absence means "streaming analyzer
        // never ran" — the same sentinel convention as the window audit.
        let phase_health = gauge("analyzer.phase_stability").map(|stability| PhaseHealth {
            phases: gauge("analyzer.phase_count").unwrap_or(0.0) as u64,
            stability,
            stable_windows: gauge("analyzer.stable_windows").unwrap_or(0.0) as u64,
            last_transition_step: gauge("analyzer.last_transition_step").map(|s| s as u64),
        });

        let histogram_sum = |name: &str| snapshot.histograms.get(name).map_or(0, |h| h.sum);
        let recovery = snapshot
            .histograms
            .get("store.recover_us")
            .map(|recover| RecoveryTime {
                reads: recover.count,
                recover_us: recover.sum,
                to_profile_us: histogram_sum("store.to_profile_us"),
            });

        ObsReport {
            stages,
            algorithms,
            overhead_ratio: gauge("profiler.overhead_ratio"),
            overhead_measured: gauge("profiler.overhead_measured").is_some_and(|v| v > 0.0),
            phase_health,
            window_health,
            store_health,
            store_format,
            pipeline_health,
            recovery,
            lanes_avx2: gauge("analyzer.lanes_avx2").map(|v| v > 0.0),
        }
    }

    /// Human-readable rendering, the `tpupoint obs-report` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== observability report ==\n");

        out.push_str("\nper-stage wall time:\n");
        if self.stages.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for stage in &self.stages {
            let _ = writeln!(
                out,
                "  {:<12} {:>12}  ({} spans)",
                stage.name,
                format_us(stage.total_us),
                stage.spans
            );
        }

        out.push_str("\nanalyzer algorithm runtimes:\n");
        if self.algorithms.is_empty() {
            out.push_str("  (no analyzer spans recorded)\n");
        }
        for algorithm in &self.algorithms {
            let _ = writeln!(
                out,
                "  {:<12} {:>12} total over {} runs ({}/run)",
                algorithm.name,
                format_us(algorithm.total_us),
                algorithm.runs,
                format_us(algorithm.mean_us.round() as u64)
            );
        }

        match self.overhead_ratio {
            Some(ratio) => {
                let source = if self.overhead_measured {
                    "measured against an uninstrumented twin"
                } else {
                    "modeled"
                };
                let _ = writeln!(
                    out,
                    "\nprofiler overhead: {:.2}% (instrumented/uninstrumented wall ratio {ratio:.4}, {source})",
                    (ratio - 1.0) * 100.0
                );
            }
            None => out.push_str("\nprofiler overhead: (not measured)\n"),
        }

        match &self.phase_health {
            Some(phase) => {
                let last = match phase.last_transition_step {
                    Some(step) => format!("last transition @ step {step}"),
                    None => "no transitions".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "streaming analyzer: {} phases, stability {:.2} (stable for {} windows), {last}",
                    phase.phases, phase.stability, phase.stable_windows
                );
            }
            None => out.push_str("streaming analyzer: not run\n"),
        }

        match &self.window_health {
            Some(health) => {
                let _ = writeln!(
                    out,
                    "\nwindow pipeline: {} sealed, {} dropped, {} events recorded, {} lost",
                    health.sealed, health.dropped, health.events_recorded, health.events_lost
                );
                match &health.audit {
                    Some(audit) => {
                        let _ = writeln!(
                            out,
                            "window audit:    {} gaps, {} overlaps, {:.2}% unobserved -> {}",
                            audit.gaps,
                            audit.overlaps,
                            audit.unobserved_fraction * 100.0,
                            if health.clean { "clean" } else { "NOT CLEAN" }
                        );
                    }
                    None => out.push_str("window audit:    not run\n"),
                }
            }
            None => out.push_str("\nwindow pipeline: (no profiler activity)\n"),
        }

        match &self.store_health {
            Some(store) => {
                let _ = writeln!(
                    out,
                    "record store:    {} errors, {} retries, {} spilled (pending {}, shed {}) -> {}",
                    store.errors,
                    store.retries,
                    store.records_spilled,
                    store.spill_depth,
                    store.records_shed,
                    if store.lossless {
                        "lossless"
                    } else {
                        "RECORDS LOST OR PENDING"
                    }
                );
                if store.backoff_us > 0 {
                    let _ = writeln!(
                        out,
                        "retry backoff:   {} total (simulated)",
                        format_us(store.backoff_us)
                    );
                }
            }
            None => out.push_str("record store:    (no store activity)\n"),
        }

        if let Some(format) = &self.store_format {
            let _ = writeln!(
                out,
                "segment store:   {} segments ({} written), {} reclaimed, {} records retired",
                format.segments,
                format_bytes(format.bytes_written),
                format_bytes(format.bytes_reclaimed),
                format.records_retired
            );
        }

        if let Some(pipeline) = &self.pipeline_health {
            let _ = writeln!(
                out,
                "seal pipeline:   {} ops drained in {} ({}/op), {} backpressure waits, {} queued",
                pipeline.ops_drained,
                format_us(pipeline.drain_us),
                format_us(pipeline.mean_latency_us.round() as u64),
                pipeline.backpressure_waits,
                pipeline.queue_depth
            );
        }

        if let Some(recovery) = &self.recovery {
            let _ = writeln!(
                out,
                "record recovery: {} read(s) in {}, profile built in {}",
                recovery.reads,
                format_us(recovery.recover_us),
                format_us(recovery.to_profile_us)
            );
        }

        match self.lanes_avx2 {
            Some(true) => out.push_str("analyzer lanes:  AVX2\n"),
            Some(false) => out.push_str("analyzer lanes:  baseline, no AVX2 -> DEGRADED\n"),
            None => {}
        }
        out
    }
}

fn format_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2}MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.2}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn instrumented_snapshot() -> MetricsSnapshot {
        let metrics = Metrics::new();
        metrics.histogram("span.analyzer.kmeans").record(4000);
        metrics.histogram("span.analyzer.kmeans").record(6000);
        metrics.histogram("span.analyzer.dbscan").record(20_000);
        metrics.histogram("span.analyzer.ols").record(500);
        metrics.histogram("span.profiler.seal_window").record(50);
        metrics.histogram("span.runtime.step").record(100);
        metrics.counter("profiler.windows_sealed").add(8);
        metrics.counter("profiler.windows_dropped").add(1);
        metrics.counter("profiler.events_recorded").add(4000);
        metrics.counter("profiler.events_lost").add(120);
        metrics.gauge("profiler.overhead_ratio").set(1.03);
        metrics.gauge("audit.gaps").set(1.0);
        metrics.gauge("audit.unobserved_fraction").set(0.05);
        metrics.snapshot()
    }

    #[test]
    fn stages_aggregate_and_sort_by_total_time() {
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["analyzer", "runtime", "profiler"]);
        let analyzer = &report.stages[0];
        assert_eq!(analyzer.total_us, 30_500);
        assert_eq!(analyzer.spans, 4);
    }

    #[test]
    fn algorithms_report_runs_and_means() {
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        let names: Vec<&str> = report.algorithms.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["dbscan", "kmeans", "ols"]);
        let kmeans = report
            .algorithms
            .iter()
            .find(|a| a.name == "kmeans")
            .unwrap();
        assert_eq!(kmeans.runs, 2);
        assert_eq!(kmeans.total_us, 10_000);
        assert!((kmeans.mean_us - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn window_health_reflects_drops_and_audit_gauges() {
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        let health = report.window_health.expect("profiler counters present");
        assert_eq!(health.sealed, 8);
        assert_eq!(health.dropped, 1);
        assert_eq!(health.events_lost, 120);
        let audit = health.audit.as_ref().expect("audit gauges present");
        assert_eq!(audit.gaps, 1);
        assert!((audit.unobserved_fraction - 0.05).abs() < 1e-12);
        assert!(!health.clean);
        assert_eq!(report.overhead_ratio, Some(1.03));
    }

    #[test]
    fn missing_audit_gauge_reports_not_run_instead_of_clean_zero() {
        // Profiler counters present, but the window audit never executed:
        // `audit.unobserved_fraction` was never published. The report must
        // say so instead of claiming a perfect 0.00%-unobserved audit.
        let metrics = Metrics::new();
        metrics.counter("profiler.windows_sealed").add(4);
        metrics.counter("profiler.events_recorded").add(900);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let health = report
            .window_health
            .as_ref()
            .expect("profiler counters present");
        assert!(health.audit.is_none(), "no audit gauges -> no audit");
        assert!(health.clean, "loss counters alone are clean");
        let text = report.render();
        assert!(text.contains("window audit:    not run"), "{text}");
        assert!(!text.contains("unobserved"), "{text}");

        // Whereas an audit that ran and measured exactly 0.0 still prints
        // its figures.
        metrics.gauge("audit.unobserved_fraction").set(0.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let health = report
            .window_health
            .as_ref()
            .expect("profiler counters present");
        let audit = health.audit.as_ref().expect("audit ran");
        assert_eq!(audit.unobserved_fraction, 0.0);
        assert!(report.render().contains("0.00% unobserved -> clean"));
    }

    #[test]
    fn missing_phase_gauges_report_not_run() {
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        assert!(report.phase_health.is_none());
        let text = report.render();
        assert!(text.contains("streaming analyzer: not run"), "{text}");
    }

    #[test]
    fn phase_health_reflects_streaming_gauges() {
        let metrics = Metrics::new();
        metrics.gauge("analyzer.phase_stability").set(0.97);
        metrics.gauge("analyzer.phase_count").set(3.0);
        metrics.gauge("analyzer.stable_windows").set(4.0);
        metrics.gauge("analyzer.last_transition_step").set(120.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let phase = report
            .phase_health
            .as_ref()
            .expect("stability gauge present");
        assert_eq!(phase.phases, 3);
        assert!((phase.stability - 0.97).abs() < 1e-12);
        assert_eq!(phase.stable_windows, 4);
        assert_eq!(phase.last_transition_step, Some(120));
        let text = report.render();
        assert!(
            text.contains("streaming analyzer: 3 phases, stability 0.97"),
            "{text}"
        );
        assert!(text.contains("last transition @ step 120"), "{text}");
    }

    #[test]
    fn phase_health_without_transitions_prints_none() {
        // A streaming run whose timeline never changed label publishes
        // stability but no `analyzer.last_transition_step` gauge.
        let metrics = Metrics::new();
        metrics.gauge("analyzer.phase_stability").set(1.0);
        metrics.gauge("analyzer.phase_count").set(1.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let phase = report.phase_health.as_ref().expect("ran");
        assert_eq!(phase.last_transition_step, None);
        assert!(report.render().contains("no transitions"));
    }

    #[test]
    fn overhead_source_distinguishes_measured_from_modeled() {
        let metrics = Metrics::new();
        metrics.gauge("profiler.overhead_ratio").set(1.021);
        let modeled = ObsReport::from_snapshot(&metrics.snapshot());
        assert!(!modeled.overhead_measured);
        assert!(modeled.render().contains("ratio 1.0210, modeled"));
        metrics.gauge("profiler.overhead_measured").set(1.0);
        let measured = ObsReport::from_snapshot(&metrics.snapshot());
        assert!(measured.overhead_measured);
        assert!(
            measured
                .render()
                .contains("ratio 1.0210, measured against an uninstrumented twin"),
            "{}",
            measured.render()
        );
    }

    #[test]
    fn empty_snapshot_renders_placeholders() {
        let report = ObsReport::from_snapshot(&MetricsSnapshot::default());
        assert!(report.stages.is_empty());
        assert!(report.window_health.is_none());
        assert!(report.store_health.is_none());
        let text = report.render();
        assert!(text.contains("(no spans recorded)"));
        assert!(text.contains("(not measured)"));
        assert!(text.contains("(no profiler activity)"));
        assert!(text.contains("(no store activity)"));
    }

    #[test]
    fn store_health_reflects_resilience_counters() {
        let metrics = Metrics::new();
        metrics.counter("profiler.store_errors").add(4);
        metrics.counter("profiler.store_retries").add(6);
        metrics.counter("profiler.records_spilled").add(2);
        metrics.gauge("profiler.store_spill_depth").set(0.0);
        metrics.histogram("profiler.store_backoff_us").record(1_500);
        metrics.histogram("profiler.store_backoff_us").record(2_500);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let store = report.store_health.as_ref().expect("store metrics present");
        assert_eq!(store.errors, 4);
        assert_eq!(store.retries, 6);
        assert_eq!(store.records_spilled, 2);
        assert_eq!(store.spill_depth, 0);
        assert_eq!(store.backoff_us, 4_000);
        assert!(store.lossless, "nothing left pending");
        let text = report.render();
        assert!(text.contains("4 errors, 6 retries, 2 spilled"), "{text}");
        assert!(text.contains("lossless"), "{text}");
        assert!(text.contains("retry backoff:   4.000ms"), "{text}");
    }

    #[test]
    fn pending_spilled_records_flag_the_store_unhealthy() {
        let metrics = Metrics::new();
        metrics.counter("profiler.store_errors").add(9);
        metrics.counter("profiler.records_spilled").add(3);
        metrics.gauge("profiler.store_spill_depth").set(3.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let store = report.store_health.as_ref().expect("store metrics present");
        assert!(!store.lossless);
        assert!(report.render().contains("RECORDS LOST OR PENDING"));
    }

    #[test]
    fn shed_records_flag_the_store_unhealthy() {
        let metrics = Metrics::new();
        metrics.counter("profiler.records_spilled").add(8);
        metrics.counter("profiler.records_shed").add(5);
        metrics.gauge("profiler.store_spill_depth").set(0.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let store = report.store_health.as_ref().expect("store metrics present");
        assert_eq!(store.records_shed, 5);
        assert!(!store.lossless, "shed records are lost records");
        assert!(report.render().contains("shed 5"));
    }

    #[test]
    fn store_format_health_reflects_segment_metrics() {
        let metrics = Metrics::new();
        metrics.gauge("store.segments").set(5.0);
        metrics
            .counter("store.bytes_reclaimed")
            .add(2 * 1024 * 1024);
        metrics.counter("store.bytes_written").add(9 * 1024);
        metrics.counter("store.records_retired").add(120);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let format = report
            .store_format
            .as_ref()
            .expect("segments gauge present");
        assert_eq!(format.segments, 5);
        assert_eq!(format.bytes_reclaimed, 2 * 1024 * 1024);
        assert_eq!(format.bytes_written, 9 * 1024);
        assert_eq!(format.records_retired, 120);
        let text = report.render();
        assert!(
            text.contains("segment store:   5 segments (9.00KiB written)"),
            "{text}"
        );
        assert!(
            text.contains("(9.00KiB written), 2.00MiB reclaimed, 120 records retired"),
            "{text}"
        );
    }

    #[test]
    fn store_format_section_is_omitted_without_segment_gauge() {
        // The JSONL store publishes no `store.segments` gauge, so the
        // segment-store section must stay silent instead of printing an
        // all-zero binary tier that never existed.
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        assert!(report.store_format.is_none());
        assert!(!report.render().contains("segment store"));
    }

    #[test]
    fn pipeline_health_summarizes_seal_queue_metrics() {
        let metrics = Metrics::new();
        metrics.histogram("profiler.seal_latency_us").record(1_000);
        metrics.histogram("profiler.seal_latency_us").record(3_000);
        metrics.counter("profiler.seal_backpressure_waits").add(2);
        metrics.gauge("profiler.seal_queue_depth").set(0.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        let pipeline = report
            .pipeline_health
            .as_ref()
            .expect("seal metrics present");
        assert_eq!(pipeline.ops_drained, 2);
        assert_eq!(pipeline.drain_us, 4_000);
        assert!((pipeline.mean_latency_us - 2_000.0).abs() < 1e-9);
        assert_eq!(pipeline.backpressure_waits, 2);
        assert_eq!(pipeline.queue_depth, 0);
        let text = report.render();
        assert!(text.contains("seal pipeline:   2 ops drained"), "{text}");
        assert!(text.contains("2 backpressure waits"), "{text}");
    }

    #[test]
    fn pipeline_section_is_omitted_without_seal_metrics() {
        let report = ObsReport::from_snapshot(&instrumented_snapshot());
        assert!(report.pipeline_health.is_none());
        assert!(!report.render().contains("seal pipeline"));
    }

    #[test]
    fn recovery_and_lane_width_show_when_recorded() {
        let empty = ObsReport::from_snapshot(&Metrics::new().snapshot());
        assert_eq!((empty.recovery, empty.lanes_avx2), (None, None));
        let metrics = Metrics::new();
        metrics.histogram("store.recover_us").record(1500);
        metrics.histogram("store.to_profile_us").record(700);
        metrics.gauge("analyzer.lanes_avx2").set(0.0);
        let report = ObsReport::from_snapshot(&metrics.snapshot());
        assert_eq!(
            report.recovery,
            Some(RecoveryTime {
                reads: 1,
                recover_us: 1500,
                to_profile_us: 700,
            })
        );
        let text = report.render();
        assert!(text.contains("record recovery: 1 read(s)"), "{text}");
        assert!(text.contains("no AVX2 -> DEGRADED"), "{text}");
        metrics.gauge("analyzer.lanes_avx2").set(1.0);
        let text = ObsReport::from_snapshot(&metrics.snapshot()).render();
        assert!(text.contains("analyzer lanes:  AVX2\n"), "{text}");
    }

    #[test]
    fn render_mentions_each_section() {
        let text = ObsReport::from_snapshot(&instrumented_snapshot()).render();
        assert!(text.contains("per-stage wall time"));
        assert!(text.contains("analyzer"));
        assert!(text.contains("kmeans"));
        assert!(text.contains("profiler overhead: 3.00%"));
        assert!(text.contains("NOT CLEAN"));
        assert!(text.contains("5.00% unobserved"));
    }
}
