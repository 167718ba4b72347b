//! Self-observability for the TPUPoint reproduction.
//!
//! The paper's central claim is that profiling can be cheap enough to run
//! always-on; this crate lets the reproduction make the same argument
//! about *itself*. It provides three layers, all dependency-free so every
//! other crate can afford to link it:
//!
//! * a metrics registry ([`Metrics`]) of named counters, gauges, and
//!   log-scale histograms behind cheap atomically-updated handles, with
//!   JSON and Prometheus-text exporters;
//! * a span-based self-tracer ([`span!`], [`Tracer`]) that times scopes,
//!   feeds their durations back into the registry, and can export the
//!   collected spans as Chrome-tracing JSON;
//! * a summarizer ([`ObsReport`]) that turns a metrics snapshot into the
//!   numbers a maintainer actually asks for: per-stage wall time,
//!   profiler overhead, window-audit health, and per-algorithm analyzer
//!   runtimes.
//!
//! Instrumented crates use the process-wide registry via [`metrics`] and
//! the process-wide tracer via [`tracer`]; both are no-ops cheap enough
//! to leave enabled (an atomic load when tracing is off, an atomic add
//! per metric update).

mod export;
mod http;
mod metrics;
mod phases;
mod report;
mod trace;

pub use export::{
    prom_escape_help, prom_escape_label, to_json, to_prometheus, to_prometheus_labeled,
    to_prometheus_multi_ref, LabeledSnapshotRef,
};
pub use http::{Health, MetricsServer, Request, Response, ServeHooks};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use phases::{PhaseStat, PhaseTransition, PhasesReport};
pub use report::{
    AlgorithmRuntime, ObsReport, PhaseHealth, StageTime, StoreHealth, WindowAudit, WindowHealth,
};
pub use trace::{
    current_tid, register_thread_lane, ArgValue, SpanEvent, SpanGuard, Tracer, MAIN_TID,
};

use std::sync::OnceLock;

static GLOBAL_METRICS: OnceLock<Metrics> = OnceLock::new();
static GLOBAL_TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide metrics registry used by instrumented crates.
pub fn metrics() -> &'static Metrics {
    GLOBAL_METRICS.get_or_init(Metrics::new)
}

/// The process-wide span tracer. Collection is off until
/// [`Tracer::enable`] is called, so untraced runs pay one atomic load
/// per span.
pub fn tracer() -> &'static Tracer {
    GLOBAL_TRACER.get_or_init(Tracer::new)
}

/// Times the enclosing scope.
///
/// Expands to a guard value that must be bound (`let _span = span!(..)`);
/// when the guard drops, the elapsed wall time is recorded into the
/// histogram `span.<name>` of the global registry and, if the global
/// tracer is enabled, appended to the Chrome trace with the given
/// key/value arguments.
///
/// ```
/// use tpupoint_obs::span;
/// {
///     let _span = span!("analyzer.kmeans", k = 4);
///     // ... work ...
/// }
/// let snap = tpupoint_obs::metrics().snapshot();
/// assert_eq!(snap.histograms["span.analyzer.kmeans"].count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter(
            $name,
            ::std::vec![$((stringify!($key), $crate::ArgValue::from($value))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_handles_are_singletons() {
        let a = metrics() as *const Metrics;
        let b = metrics() as *const Metrics;
        assert_eq!(a, b);
        let t1 = tracer() as *const Tracer;
        let t2 = tracer() as *const Tracer;
        assert_eq!(t1, t2);
    }

    #[test]
    fn span_macro_records_into_the_global_registry() {
        {
            let _span = span!("test.lib_span", k = 3, tag = "x");
        }
        let snap = metrics().snapshot();
        let hist = &snap.histograms["span.test.lib_span"];
        assert!(hist.count >= 1);
    }
}
