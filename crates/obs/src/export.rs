//! Exporters turning a [`MetricsSnapshot`] into JSON or Prometheus text.

use crate::metrics::MetricsSnapshot;
use crate::trace::json_string;

/// Renders the snapshot as a JSON document:
///
/// ```json
/// {
///   "counters": {"profiler.windows_sealed": 12},
///   "gauges": {"profiler.overhead_ratio": 1.03},
///   "histograms": {
///     "span.analyzer.kmeans": {
///       "count": 3, "sum": 4500, "min": 900, "max": 2100,
///       "buckets": [[1023, 1], [2047, 2]]
///     }
///   }
/// }
/// ```
///
/// Bucket entries are `[inclusive_upper_bound, count]` pairs over the
/// registry's power-of-two boundaries. Keys are emitted sorted, so the
/// output is deterministic for a given snapshot.
pub fn to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {value}", json_string(name)));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {}: {}",
            json_string(name),
            float_json(*value)
        ));
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, (name, hist)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets: Vec<String> = hist
            .buckets
            .iter()
            .map(|(le, n)| format!("[{le}, {n}]"))
            .collect();
        out.push_str(&format!(
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
            json_string(name),
            hist.count,
            hist.sum,
            hist.min,
            hist.max,
            buckets.join(", ")
        ));
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Metric names are sanitized (`.` and `-` become `_`) and prefixed with
/// `tpupoint_`; every series carries a `# HELP` and `# TYPE` header, and
/// histograms expand into the conventional `_bucket` (cumulative, with a
/// final `+Inf`), `_sum`, and `_count` series.
pub fn to_prometheus(snapshot: &MetricsSnapshot) -> String {
    to_prometheus_labeled(snapshot, &[])
}

/// [`to_prometheus`] with a set of constant labels attached to every
/// series — serve mode uses this to stamp each scrape with the workload
/// it observes. Label values are escaped per the exposition format.
pub fn to_prometheus_labeled(snapshot: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    to_prometheus_multi_ref(&[LabeledSnapshotRef::new(labels, snapshot)])
}

/// One labeled registry view inside a multi-registry exposition; see
/// [`to_prometheus_multi_ref`]. The labels are owned, the registry view
/// is not: the fleet's scrape plane renders its *published* snapshots
/// (shared `Arc`s swapped by the jobs themselves) through this type, so
/// a scrape never clones a snapshot just to exposition it.
#[derive(Debug, Clone)]
pub struct LabeledSnapshotRef<'a> {
    /// Constant labels stamped on every series from this snapshot.
    pub labels: Vec<(String, String)>,
    /// The borrowed registry view.
    pub snapshot: &'a MetricsSnapshot,
}

impl<'a> LabeledSnapshotRef<'a> {
    /// Convenience constructor from borrowed label pairs.
    pub fn new(labels: &[(&str, &str)], snapshot: &'a MetricsSnapshot) -> LabeledSnapshotRef<'a> {
        LabeledSnapshotRef {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            snapshot,
        }
    }
}

/// Renders several labeled registries (the fleet's per-job registries
/// plus the process-wide one) as a single Prometheus exposition.
///
/// Naive concatenation of per-registry expositions would repeat each
/// family's `# HELP`/`# TYPE` headers once per registry — invalid
/// exposition text. This exporter groups series by family first: one
/// header per family, then every registry's series for it, each stamped
/// with that registry's constant labels. The `analyzer.phase_occupancy.*`
/// dotted-name family exports as one series name with a `phase=` label.
pub fn to_prometheus_multi_ref(groups: &[LabeledSnapshotRef<'_>]) -> String {
    type Labels = Vec<(String, String)>;
    type Series = Vec<(Labels, String)>;
    type HistSeries = Vec<(Labels, crate::metrics::HistogramSnapshot)>;
    let mut counters: std::collections::BTreeMap<String, Series> = Default::default();
    let mut gauges: std::collections::BTreeMap<String, Series> = Default::default();
    let mut histograms: std::collections::BTreeMap<String, HistSeries> = Default::default();
    // Splits family members like `analyzer.phase_occupancy.3` into the
    // family name and an extra `phase="3"` pair; plain names pass through
    // unchanged.
    let family_of = |name: &str| -> (String, Option<(String, String)>) {
        if let Some(suffix) = name.strip_prefix(PHASE_OCCUPANCY_PREFIX) {
            if !suffix.is_empty() && suffix.chars().all(|c| c.is_ascii_digit()) {
                return (
                    PHASE_OCCUPANCY_PREFIX.trim_end_matches('.').to_owned(),
                    Some(("phase".to_owned(), suffix.to_owned())),
                );
            }
        }
        (name.to_owned(), None)
    };
    for group in groups {
        for (name, value) in &group.snapshot.counters {
            counters
                .entry(name.clone())
                .or_default()
                .push((group.labels.clone(), value.to_string()));
        }
        for (name, value) in &group.snapshot.gauges {
            let (family, extra) = family_of(name);
            let mut labels = group.labels.clone();
            labels.extend(extra);
            gauges
                .entry(family)
                .or_default()
                .push((labels, float_json(*value)));
        }
        for (name, hist) in &group.snapshot.histograms {
            histograms
                .entry(name.clone())
                .or_default()
                .push((group.labels.clone(), hist.clone()));
        }
    }
    let owned_block = |labels: &[(String, String)], le: Option<&str>| {
        let borrowed: Vec<(&str, &str)> = labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        label_block(&borrowed, le)
    };
    let mut out = String::new();
    for (kind, families) in [("counter", &counters), ("gauge", &gauges)] {
        for (family, series) in families {
            let prom = prom_name(family);
            push_headers(&mut out, &prom, family, kind);
            for (labels, value) in series {
                out.push_str(&format!("{prom}{} {value}\n", owned_block(labels, None)));
            }
        }
    }
    for (name, series) in &histograms {
        let prom = prom_name(name);
        push_headers(&mut out, &prom, name, "histogram");
        for (labels, hist) in series {
            let mut cumulative = 0u64;
            for (le, count) in &hist.buckets {
                cumulative += count;
                let with_le = owned_block(labels, Some(&le.to_string()));
                out.push_str(&format!("{prom}_bucket{with_le} {cumulative}\n"));
            }
            let inf = owned_block(labels, Some("+Inf"));
            let plain = owned_block(labels, None);
            out.push_str(&format!("{prom}_bucket{inf} {}\n", hist.count));
            out.push_str(&format!("{prom}_sum{plain} {}\n", hist.sum));
            out.push_str(&format!("{prom}_count{plain} {}\n", hist.count));
        }
    }
    out
}

/// Gauge-name prefix whose suffix is a phase id, exported as a
/// `phase="N"` label on the family series.
const PHASE_OCCUPANCY_PREFIX: &str = "analyzer.phase_occupancy.";

fn push_headers(out: &mut String, prom: &str, raw: &str, kind: &str) {
    out.push_str(&format!(
        "# HELP {prom} {}\n# TYPE {prom} {kind}\n",
        prom_escape_help(&help_text(raw))
    ));
}

/// Renders a `{k="v",...}` label block; empty labels (and no `le`) render
/// as the empty string so unlabeled series keep their bare form.
fn label_block(labels: &[(&str, &str)], le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Escapes a `# HELP` text: `\` and newlines per the exposition format.
pub fn prom_escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: `\`, `"`, and newlines per the exposition
/// format.
pub fn prom_escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Human description served on the `# HELP` line of a series.
fn help_text(name: &str) -> String {
    let known = match name {
        "profiler.store_errors" => "Record-store operations that failed, including transient failures later absorbed by the retry layer",
        "profiler.store_retries" => "Retry attempts performed by the record-store resilience layer",
        "profiler.records_spilled" => "Records diverted to the in-memory spill queue while the backing store was down",
        "profiler.records_shed" => "Oldest spilled records shed at the spill queue's high-water mark",
        "profiler.store_spill_depth" => "Spilled records still awaiting redelivery to the backing store",
        "profiler.store_backoff_us" => "Jittered exponential retry backoff per attempt, microseconds",
        "profiler.windows_sealed" => "Profile windows sealed and kept",
        "profiler.windows_dropped" => "Profile windows lost to simulated collection faults",
        "profiler.events_recorded" => "Trace events recorded into kept windows",
        "profiler.events_lost" => "Trace events lost with dropped windows",
        "profiler.seal_latency_us" => "Wall time applying one seal-pipeline operation, inline or drained from the queue, microseconds",
        "profiler.seal_backpressure_waits" => "Times the simulation thread blocked on the seal queue's high-water mark",
        "profiler.seal_queue_depth" => "Operations queued in the seal pipeline",
        "profiler.overhead_ratio" => "Instrumented-to-uninstrumented wall-clock ratio (measured when profiler.overhead_measured is set, modeled otherwise)",
        "profiler.overhead_measured" => "1 when the overhead ratio was measured against an uninstrumented twin run; absent when modeled",
        "analyzer.phase_occupancy" => "Training steps currently assigned to each streaming-analyzer phase",
        "analyzer.phase_stability" => "Fraction of previously-labeled sampled steps whose phase assignment survived the latest streaming update",
        "analyzer.phase_count" => "Phases with at least one assigned step in the streaming analyzer",
        "analyzer.stable_windows" => "Consecutive streaming updates at or above the stability threshold",
        "analyzer.last_transition_step" => "Step of the most recent phase-label change in the streaming timeline",
        "analyzer.lanes_avx2" => "1 when the analyzer's lane kernels run at AVX2 width, 0 when this CPU lacks AVX2 and they run the baseline build",
        "store.recover_us" => "Wall time recovering one record directory, microseconds",
        "store.to_profile_us" => "Wall time building a profile from recovered records, microseconds",
        "store.segments" => "Sealed binary segments currently listed in the store manifest",
        "store.bytes_reclaimed" => "Bytes of disk freed by segments retired by retention",
        "store.bytes_written" => "Bytes of encoded frames written to binary segment files",
        "store.records_retired" => "Acknowledged records retired (accounted, not lost) by the retention budget",
        "fleet.jobs_running" => "Fleet jobs currently executing on their job threads",
        "fleet.jobs_queued" => "Fleet jobs admitted and waiting for a running slot",
        "fleet.jobs_total" => "Fleet jobs ever admitted, terminal phases included",
        "fleet.memory_budget_bytes" => "Configured fleet-wide memory budget; 0 means unbounded",
        "fleet.memory_inuse_bytes" => "Admission-accounted memory of active fleet jobs (per-job floor times active jobs)",
        "fleet.poisoned" => "Poisoned-lock recoveries performed by the fleet orchestrator",
        "fleet.snapshot_publishes" => "Per-job metrics snapshots published into the scrape plane's slots",
        "audit.gaps" => "Coverage gaps found by the window audit",
        "audit.overlaps" => "Window overlaps found by the window audit",
        "audit.unobserved_fraction" => "Fraction of the profiled span not covered by any window",
        "obs.http_requests" => "HTTP requests served by the live observability endpoint",
        _ => "",
    };
    if !known.is_empty() {
        return known.to_owned();
    }
    if let Some(span) = name.strip_prefix("span.") {
        return format!("Wall time of `{span}` spans, microseconds");
    }
    format!("TPUPoint self-observability series `{name}`")
}

fn prom_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("tpupoint_{sanitized}")
}

fn float_json(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn sample() -> MetricsSnapshot {
        let metrics = Metrics::new();
        metrics.counter("profiler.windows_sealed").add(12);
        metrics.gauge("profiler.overhead_ratio").set(1.03);
        let h = metrics.histogram("span.analyzer.kmeans");
        h.record(900);
        h.record(1500);
        h.record(2100);
        metrics.snapshot()
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let json = to_json(&sample());
        assert!(json.contains("\"profiler.windows_sealed\": 12"));
        assert!(json.contains("\"profiler.overhead_ratio\": 1.03"));
        assert!(json.contains("\"span.analyzer.kmeans\""));
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("\"sum\": 4500"));
        // Balanced braces as a cheap well-formedness check; the CLI
        // integration test parses it with a real JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let json = to_json(&MetricsSnapshot::default());
        assert!(json.contains("\"counters\": {}"));
        assert_eq!(to_prometheus(&MetricsSnapshot::default()), "");
    }

    #[test]
    fn prometheus_export_expands_histograms_cumulatively() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE tpupoint_profiler_windows_sealed counter"));
        assert!(text.contains("tpupoint_profiler_windows_sealed 12"));
        assert!(text.contains("# TYPE tpupoint_profiler_overhead_ratio gauge"));
        assert!(text.contains("# TYPE tpupoint_span_analyzer_kmeans histogram"));
        // 900 falls in [512, 1024), 1500 and 2100 in the next two.
        assert!(text.contains("tpupoint_span_analyzer_kmeans_bucket{le=\"1023\"} 1"));
        assert!(text.contains("tpupoint_span_analyzer_kmeans_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tpupoint_span_analyzer_kmeans_sum 4500"));
        assert!(text.contains("tpupoint_span_analyzer_kmeans_count 3"));
    }

    #[test]
    fn prometheus_export_carries_help_lines() {
        let text = to_prometheus(&sample());
        assert!(
            text.contains("# HELP tpupoint_profiler_windows_sealed Profile windows sealed"),
            "{text}"
        );
        assert!(
            text.contains("# HELP tpupoint_span_analyzer_kmeans Wall time of `analyzer.kmeans`"),
            "{text}"
        );
        // Every TYPE line is preceded by its HELP line.
        assert_eq!(
            text.matches("# HELP").count(),
            text.matches("# TYPE").count()
        );
    }

    #[test]
    fn constant_labels_attach_to_every_series_and_compose_with_le() {
        let text = to_prometheus_labeled(&sample(), &[("workload", "bert-mrpc")]);
        assert!(text.contains("tpupoint_profiler_windows_sealed{workload=\"bert-mrpc\"} 12"));
        assert!(text.contains(
            "tpupoint_span_analyzer_kmeans_bucket{workload=\"bert-mrpc\",le=\"+Inf\"} 3"
        ));
        assert!(text.contains("tpupoint_span_analyzer_kmeans_sum{workload=\"bert-mrpc\"} 4500"));
        // HELP/TYPE headers stay unlabeled.
        assert!(text.contains("# TYPE tpupoint_profiler_windows_sealed counter\n"));
    }

    #[test]
    fn phase_occupancy_gauges_export_as_one_labeled_family() {
        let metrics = Metrics::new();
        metrics.gauge("analyzer.phase_occupancy.0").set(12.0);
        metrics.gauge("analyzer.phase_occupancy.1").set(30.0);
        metrics.gauge("analyzer.phase_stability").set(0.97);
        let text = to_prometheus_labeled(&metrics.snapshot(), &[("workload", "bert-mrpc")]);
        assert!(
            text.contains(
                "tpupoint_analyzer_phase_occupancy{workload=\"bert-mrpc\",phase=\"0\"} 12"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "tpupoint_analyzer_phase_occupancy{workload=\"bert-mrpc\",phase=\"1\"} 30"
            ),
            "{text}"
        );
        // One HELP/TYPE header for the whole family, none per member.
        assert_eq!(
            text.matches("# TYPE tpupoint_analyzer_phase_occupancy gauge")
                .count(),
            1,
            "{text}"
        );
        // Unsuffixed analyzer gauges keep their bare form.
        assert!(
            text.contains("tpupoint_analyzer_phase_stability{workload=\"bert-mrpc\"} 0.97"),
            "{text}"
        );
    }

    #[test]
    fn non_numeric_phase_suffix_falls_back_to_a_plain_series() {
        let metrics = Metrics::new();
        metrics.gauge("analyzer.phase_occupancy.odd-name").set(1.0);
        let text = to_prometheus(&metrics.snapshot());
        assert!(
            text.contains("tpupoint_analyzer_phase_occupancy_odd_name 1"),
            "{text}"
        );
        assert!(!text.contains("phase=\""), "{text}");
    }

    #[test]
    fn multi_registry_export_emits_one_header_per_family() {
        let job_a = Metrics::new();
        job_a.counter("profiler.windows_sealed").add(5);
        job_a.gauge("analyzer.phase_occupancy.0").set(3.0);
        job_a.histogram("profiler.store_backoff_us").record(100);
        let job_b = Metrics::new();
        job_b.counter("profiler.windows_sealed").add(9);
        job_b.gauge("analyzer.phase_occupancy.1").set(7.0);
        job_b.histogram("profiler.store_backoff_us").record(900);
        let (snapshot_a, snapshot_b) = (job_a.snapshot(), job_b.snapshot());
        let text = to_prometheus_multi_ref(&[
            LabeledSnapshotRef::new(&[("job", "a")], &snapshot_a),
            LabeledSnapshotRef::new(&[("job", "b")], &snapshot_b),
        ]);
        // Both jobs' series share one HELP/TYPE header per family.
        assert_eq!(
            text.matches("# TYPE tpupoint_profiler_windows_sealed counter")
                .count(),
            1,
            "{text}"
        );
        assert!(text.contains("tpupoint_profiler_windows_sealed{job=\"a\"} 5"));
        assert!(text.contains("tpupoint_profiler_windows_sealed{job=\"b\"} 9"));
        // The phase-occupancy family keeps its phase label treatment.
        assert!(
            text.contains("tpupoint_analyzer_phase_occupancy{job=\"a\",phase=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tpupoint_analyzer_phase_occupancy{job=\"b\",phase=\"1\"} 7"),
            "{text}"
        );
        // Histograms expand per job under one header.
        assert_eq!(
            text.matches("# TYPE tpupoint_profiler_store_backoff_us histogram")
                .count(),
            1,
            "{text}"
        );
        assert!(text.contains("tpupoint_profiler_store_backoff_us_sum{job=\"a\"} 100"));
        assert!(text.contains("tpupoint_profiler_store_backoff_us_sum{job=\"b\"} 900"));
        // An unlabeled group (the process-wide registry) keeps bare series.
        let plain = Metrics::new();
        plain.counter("obs.http_requests").add(2);
        let text = to_prometheus_multi_ref(&[LabeledSnapshotRef::new(&[], &plain.snapshot())]);
        assert!(text.contains("tpupoint_obs_http_requests 2\n"), "{text}");
    }

    #[test]
    fn multi_registry_export_matches_single_for_one_group() {
        let snapshot = sample();
        let single = to_prometheus_labeled(&snapshot, &[("workload", "bert-mrpc")]);
        let multi = to_prometheus_multi_ref(&[LabeledSnapshotRef::new(
            &[("workload", "bert-mrpc")],
            &snapshot,
        )]);
        assert_eq!(single, multi);
    }

    #[test]
    fn label_values_and_help_text_are_escaped() {
        assert_eq!(prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(
            prom_escape_help("line\nbreak\\slash"),
            "line\\nbreak\\\\slash"
        );
        let metrics = Metrics::new();
        metrics.counter("weird").inc();
        let text = to_prometheus_labeled(&metrics.snapshot(), &[("path", "C:\\tmp\n\"x\"")]);
        assert!(
            text.contains("tpupoint_weird{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 1"),
            "{text}"
        );
    }
}
