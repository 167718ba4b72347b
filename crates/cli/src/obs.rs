//! CLI plumbing for the toolchain's self-observability.
//!
//! Every run-style subcommand accepts `--metrics-out <path>`,
//! `--self-trace <path>`, and `--obs-format {json,prom}`. An
//! [`ObsSession`] captures a snapshot of the global metrics registry
//! before the command body runs and, on [`ObsSession::finish`], exports
//! only that command's activity (the diff) plus the Chrome-tracing JSON
//! of the spans it recorded.

use crate::args::Args;
use crate::commands::CliResult;
use std::path::PathBuf;
use tpupoint::obs::{self, MetricsSnapshot, ObsReport};

/// Option names added to a subcommand that supports observability output.
pub const OBS_OPTIONS: [&str; 3] = ["metrics-out", "self-trace", "obs-format"];

/// Export format for `--metrics-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Prometheus,
}

/// Scoped observability capture for one CLI command. The requested files
/// are written on every exit path: by [`ObsSession::finish`] on success,
/// and on drop when the command ends early with an error or a closed
/// stdout.
#[derive(Debug)]
pub struct ObsSession {
    before: MetricsSnapshot,
    metrics_out: Option<PathBuf>,
    self_trace: Option<PathBuf>,
    format: Format,
    /// Set once the files are written, so a finished session does not
    /// write them again on drop.
    exported: bool,
}

impl ObsSession {
    /// Reads the obs options and starts capturing. Enables the span
    /// tracer when a `--self-trace` path was given.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown `--obs-format`.
    pub fn start(args: &Args) -> Result<ObsSession, String> {
        let format = match args.get("obs-format").unwrap_or("json") {
            "json" => Format::Json,
            "prom" | "prometheus" => Format::Prometheus,
            other => return Err(format!("--obs-format must be json or prom, got `{other}`")),
        };
        let self_trace = args.get("self-trace").map(PathBuf::from);
        if self_trace.is_some() {
            obs::tracer().enable();
        }
        Ok(ObsSession {
            before: obs::metrics().snapshot(),
            metrics_out: args.get("metrics-out").map(PathBuf::from),
            self_trace,
            format,
            exported: false,
        })
    }

    /// Writes the requested artifacts and prints where they went.
    ///
    /// # Errors
    ///
    /// Returns a message when an output file cannot be written, or the
    /// error writing to stdout.
    pub fn finish(self) -> CliResult {
        self.finish_with(&MetricsSnapshot::default())
    }

    /// [`ObsSession::finish`], with `jobs` — the final metrics of the
    /// jobs a `serve` ran, each in its own registry — folded into the
    /// command's own activity before export.
    ///
    /// # Errors
    ///
    /// Returns a message when an output file cannot be written, or the
    /// error writing to stdout.
    pub fn finish_with(mut self, jobs: &MetricsSnapshot) -> CliResult {
        self.export(jobs)?;
        if let Some(path) = &self.metrics_out {
            outln!("metrics written to {}", path.display())?;
        }
        if let Some(path) = &self.self_trace {
            outln!(
                "self-trace written to {} (chrome://tracing)",
                path.display()
            )?;
        }
        Ok(())
    }

    /// Writes the metrics diff and the self-trace, once.
    fn export(&mut self, jobs: &MetricsSnapshot) -> Result<(), String> {
        self.exported = true;
        let mut snapshot = obs::metrics().snapshot().since(&self.before);
        snapshot.merge(jobs);
        if let Some(path) = &self.metrics_out {
            let text = match self.format {
                Format::Json => obs::to_json(&snapshot),
                Format::Prometheus => obs::to_prometheus(&snapshot),
            };
            write(path, &text)?;
        }
        if let Some(path) = &self.self_trace {
            let tracer = obs::tracer();
            tracer.disable();
            write(path, &tracer.to_chrome_json())?;
            tracer.drain();
        }
        Ok(())
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if !self.exported {
            // The command is already failing or its reader is gone; the
            // files are best effort and their error would mask its own.
            let _ = self.export(&MetricsSnapshot::default());
        }
    }
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {parent:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Implements `tpupoint obs-report <metrics.json>`: re-reads a
/// `--metrics-out` JSON file and prints the [`ObsReport`] summary.
///
/// # Errors
///
/// Returns a message when the file is missing or not a metrics document.
pub fn obs_report_cmd(argv: &[String]) -> CliResult {
    let args = Args::parse(argv, &[], &[])?;
    let path = args.positional0("metrics.json path (from --metrics-out)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let snapshot = parse_metrics_json(&text).map_err(|e| format!("{path}: {e}"))?;
    out!("{}", ObsReport::from_snapshot(&snapshot).render())?;
    Ok(())
}

/// Parses the `--obs-format json` document back into a snapshot.
pub(crate) fn parse_metrics_json(text: &str) -> Result<MetricsSnapshot, String> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let root = value
        .as_object()
        .ok_or("metrics document must be a JSON object")?;
    if !["counters", "gauges", "histograms"]
        .iter()
        .any(|key| root.contains_key(*key))
    {
        return Err("not a metrics document (no counters/gauges/histograms; \
             expected a file written by --metrics-out)"
            .to_owned());
    }
    let mut snapshot = MetricsSnapshot::default();
    if let Some(counters) = root.get("counters").and_then(|v| v.as_object()) {
        for (name, v) in counters {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("counter `{name}` is not an unsigned integer"))?;
            snapshot.counters.insert(name.clone(), n);
        }
    }
    if let Some(gauges) = root.get("gauges").and_then(|v| v.as_object()) {
        for (name, v) in gauges {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("gauge `{name}` is not a number"))?;
            snapshot.gauges.insert(name.clone(), n);
        }
    }
    if let Some(histograms) = root.get("histograms").and_then(|v| v.as_object()) {
        for (name, v) in histograms {
            let h = v
                .as_object()
                .ok_or_else(|| format!("histogram `{name}` is not an object"))?;
            let field = |key: &str| {
                h.get(key)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("histogram `{name}` is missing `{key}`"))
            };
            let mut buckets = Vec::new();
            if let Some(raw) = h.get("buckets").and_then(|v| v.as_array()) {
                for pair in raw {
                    let pair = pair.as_array().filter(|p| p.len() == 2);
                    let (le, n) = pair
                        .and_then(|p| Some((p[0].as_u64()?, p[1].as_u64()?)))
                        .ok_or_else(|| {
                            format!("histogram `{name}` has a malformed bucket entry")
                        })?;
                    buckets.push((le, n));
                }
            }
            snapshot.histograms.insert(
                name.clone(),
                tpupoint::obs::HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    buckets,
                },
            );
        }
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_round_trips_through_the_parser() {
        let metrics = tpupoint::obs::Metrics::new();
        metrics.counter("profiler.windows_sealed").add(7);
        metrics.gauge("profiler.overhead_ratio").set(1.05);
        let h = metrics.histogram("span.analyzer.kmeans");
        h.record(1000);
        h.record(3000);
        let snapshot = metrics.snapshot();
        let parsed = parse_metrics_json(&obs::to_json(&snapshot)).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn non_metrics_json_is_rejected() {
        assert!(parse_metrics_json("[1, 2]").is_err());
        assert!(parse_metrics_json("{nope").is_err());
        let err = parse_metrics_json(r#"{"traceEvents": []}"#).unwrap_err();
        assert!(err.contains("not a metrics document"), "{err}");
        let err = parse_metrics_json(r#"{"counters": {"x": -1}}"#).unwrap_err();
        assert!(err.contains("`x`"), "{err}");
    }

    #[test]
    fn obs_format_is_validated() {
        let args = Args::parse(
            &["--obs-format".to_owned(), "xml".to_owned()],
            &OBS_OPTIONS,
            &[],
        )
        .unwrap();
        let err = ObsSession::start(&args).unwrap_err();
        assert!(err.contains("json or prom"), "{err}");
    }
}
