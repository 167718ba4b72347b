//! `fleet-live`: one `serve_fleet` session at batch speed (pace 0) with
//! `max_running` = nproc. A submitter thread sends jobs of the three paper
//! models under several tenants through `POST /jobs`, keeping one job
//! queued behind the running ones, and times each job from its submit to
//! its completion; one open-loop scraper alternates `GET /metrics` and
//! `GET /phases` at a fixed rate. Two client threads, one connection each
//! at a time.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpupoint::analyzer::{StreamingAnalyzer, StreamingConfig, STREAM_CADENCE};
use tpupoint::obs::Metrics;
use tpupoint::profiler::{PipelineConfig, ProfilerOptions, ProfilerSink};
use tpupoint::runtime::{FleetLimits, JobConfig, JobPhase, LiveSink, LiveStatus, TrainingJob};
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::{FleetSession, TpuPoint};

use crate::http;
use crate::layers::{
    counter_since, default_store, dir_bytes, dispatch_probe, par_metrics, secs, LayerTable,
    StoreTally, TimedSink, TimedStore,
};
use crate::{
    repeated_setup, stats, Check, Ctx, EndToEnd, Outcome, GENERATION, MODELS, OLS_THRESHOLD,
    PROFILING_OVERHEAD,
};

/// The scraper's fixed period: requests are due every period, alternating
/// `/metrics` and `/phases`. A request sent more than one period late
/// counts as failed.
const SCRAPE_PERIOD: Duration = Duration::from_millis(50);

/// Job length relative to each model's default simulated length. Short
/// enough that a 30 s run finishes 48 jobs, so the turnaround tail can
/// leave ten samples beyond p79.
const JOB_SIZE: f64 = 3.0;

/// Jobs per second of `--seconds` in the plan: the rate this fleet
/// sustained on a 2-core host when the benchmark was written. The plan
/// is fixed by `--seconds` and `--seed` alone, so a faster or slower
/// program finishes the same jobs sooner or later.
const PLAN_JOBS_PER_SECOND: f64 = 1.6;

/// Tenants the submitter rotates through.
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Requests made in-process and over HTTP for the render/HTTP split.
const PLANE_PROBES: usize = 50;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One of the three job shapes the submitter sends.
struct Shape {
    id: WorkloadId,
    options: BuildOptions,
    /// The solo `TpuPoint::profile` records of this shape.
    reference: PathBuf,
}

impl Shape {
    fn config(&self) -> JobConfig {
        build(self.id, GENERATION, &self.options)
    }

    fn request_body(&self, job: &str, tenant: &str) -> String {
        format!(
            "{{\"id\": \"{job}\", \"tenant\": \"{tenant}\", \"workload\": \"{}\", \"scale\": {}, \"seed\": {}}}",
            self.id.label(),
            self.options.scale,
            self.options.seed
        )
    }
}

struct Setup {
    session: FleetSession,
    root: PathBuf,
    shapes: Vec<Shape>,
}

fn setup(ctx: &Ctx, rep: usize) -> io::Result<Setup> {
    let root = ctx.dir(&format!("fleet-{rep}"))?;
    let mut shapes = Vec::new();
    for (i, id) in MODELS.iter().enumerate() {
        let options = ctx.job_options(i as u64, *id, JOB_SIZE);
        let reference = root.join("reference").join(i.to_string());
        let shape = Shape {
            id: *id,
            options,
            reference: reference.join("records"),
        };
        TpuPoint::builder()
            .analyzer(true)
            .output_dir(&reference)
            .build()
            .profile(shape.config())?;
        shapes.push(shape);
    }
    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(root.join("fleet"))
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .fleet_limits(FleetLimits {
            max_running: nproc(),
            ..FleetLimits::default()
        })
        .build()
        .serve_fleet()?;
    Ok(Setup {
        session,
        root,
        shapes,
    })
}

fn teardown(state: Setup) {
    state.session.request_quit();
    let _ = state.session.wait();
    let _ = std::fs::remove_dir_all(&state.root);
}

/// What the open-loop scraper saw.
#[derive(Default)]
struct ScrapeLog {
    /// Latency of each successful scrape from its due time, ms.
    latency_ms: Vec<f64>,
    /// How late each request was sent, ms.
    lag_ms: Vec<f64>,
    attempted: u64,
    /// Non-200 replies and connection errors.
    errors: u64,
    /// Requests sent more than a period late.
    late: u64,
}

/// Sends `GET /metrics` and `GET /phases` alternately, each due at a
/// fixed period from `start`, until `stop` is set.
fn scrape_loop(addr: SocketAddr, start: Instant, stop: &AtomicBool) -> ScrapeLog {
    let mut log = ScrapeLog::default();
    let mut n: u32 = 0;
    while !stop.load(Ordering::Relaxed) {
        let due = start + SCRAPE_PERIOD * n;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let lag = Instant::now().saturating_duration_since(due);
        let path = if n.is_multiple_of(2) {
            "/metrics"
        } else {
            "/phases"
        };
        let reply = http::get(addr, path);
        log.attempted += 1;
        log.lag_ms.push(secs(lag) * 1e3);
        match reply {
            Ok(reply) if reply.status == 200 => {
                if lag <= SCRAPE_PERIOD {
                    log.latency_ms.push(secs(due.elapsed()) * 1e3);
                } else {
                    log.late += 1;
                }
            }
            _ => log.errors += 1,
        }
        n += 1;
    }
    log
}

/// What the submitter saw.
struct DriveLog {
    /// `(job id, shape index)` of every admitted job.
    jobs: Vec<(String, usize)>,
    admit_us: Vec<f64>,
    /// Each admitted job's turnaround: from sending its `POST /jobs` to
    /// the first status poll that finds it finished, ms.
    turnaround_ms: Vec<f64>,
    refused: u64,
    elapsed: Duration,
    scrapes: ScrapeLog,
}

/// How often the submitter polls the status of unfinished jobs.
const POLL_PERIOD: Duration = Duration::from_millis(1);

/// Polls each job of `pending` (id and submit time) once; each one found
/// finished leaves the list and its turnaround goes to `turnaround_ms`.
fn reap(
    pending: &mut Vec<(String, Instant)>,
    session: &FleetSession,
    turnaround_ms: &mut Vec<f64>,
) {
    pending.retain(|(id, submitted)| {
        let finished = session
            .status(id)
            .is_none_or(|status| status.phase.is_terminal());
        if finished {
            turnaround_ms.push(secs(submitted.elapsed()) * 1e3);
        }
        !finished
    });
}

/// The timed part: submit the `jobs`-long plan, keeping one job queued
/// behind the running ones, and wait until every job has finished; the
/// scraper runs throughout.
fn drive(state: &Setup, jobs: usize) -> DriveLog {
    let addr = state.session.addr();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape_loop(addr, start, &stop));
        let mut admitted = Vec::new();
        let mut admit_us = Vec::new();
        let mut refused = 0;
        let mut pending = Vec::new();
        let mut turnaround_ms = Vec::new();
        for n in 0..jobs {
            while state.session.active_count() > nproc() {
                reap(&mut pending, &state.session, &mut turnaround_ms);
                std::thread::sleep(POLL_PERIOD);
            }
            let shape = n % state.shapes.len();
            let id = format!("job-{n}");
            let tenant = TENANTS[(n / state.shapes.len()) % TENANTS.len()];
            let body = state.shapes[shape].request_body(&id, tenant);
            let t = Instant::now();
            let reply = http::request(addr, "POST", "/jobs", &body);
            admit_us.push(secs(t.elapsed()) * 1e6);
            match reply {
                Ok(reply) if reply.status == 201 => {
                    pending.push((id.clone(), t));
                    admitted.push((id, shape));
                }
                _ => refused += 1,
            }
        }
        while !pending.is_empty() {
            reap(&mut pending, &state.session, &mut turnaround_ms);
            std::thread::sleep(POLL_PERIOD);
        }
        state.session.wait_jobs_idle();
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().unwrap_or_default();
        DriveLog {
            jobs: admitted,
            admit_us,
            turnaround_ms,
            refused,
            elapsed,
            scrapes,
        }
    })
}

/// The plan length for `seconds`: a whole number of rounds over the
/// shapes, at least one.
fn plan_jobs(seconds: f64, shapes: usize) -> usize {
    let rounds = (seconds * PLAN_JOBS_PER_SECOND / shapes as f64).round() as usize;
    rounds.max(1) * shapes
}

/// Whether every file of `reference` exists with the same bytes in `dir`,
/// and `dir` holds nothing else.
fn same_files(reference: &Path, dir: &Path) -> Result<(), String> {
    let names = |d: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        Ok(names)
    };
    let expected = names(reference)?;
    let found = names(dir)?;
    if expected != found {
        return Err(format!("files {found:?}, reference has {expected:?}"));
    }
    for name in &expected {
        let a = std::fs::read(reference.join(name)).map_err(|e| e.to_string())?;
        let b = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
        if a != b {
            return Err(format!("{name} differs from the solo run"));
        }
    }
    Ok(())
}

/// Every admitted job completed, with records byte-identical to a solo
/// run of its shape. Returns the check and the total steps completed.
fn check_jobs(state: &Setup, log: &DriveLog) -> (Check, u64, u64) {
    let mut problems = Vec::new();
    let mut steps = 0;
    let mut failed_jobs = 0;
    for (id, shape) in &log.jobs {
        match state.session.status(id) {
            Some(status) if status.phase == JobPhase::Completed => {
                steps += status.steps_completed;
            }
            other => {
                failed_jobs += 1;
                problems.push(format!("{id}: {:?}", other.map(|s| (s.phase, s.error))));
                continue;
            }
        }
        let records = state.root.join("fleet/jobs").join(id).join("records");
        if let Err(why) = same_files(&state.shapes[*shape].reference, &records) {
            problems.push(format!("{id}: {why}"));
        }
    }
    let check = Check::new(
        "fleet-records-equal-solo",
        problems.is_empty() && !log.jobs.is_empty(),
        if problems.is_empty() {
            format!(
                "{} jobs completed with records byte-identical to a solo profile",
                log.jobs.len()
            )
        } else {
            problems.join("; ")
        },
    );
    (check, steps, failed_jobs)
}

pub fn bench(ctx: &Ctx) -> io::Result<Outcome> {
    let (state, setup_s) = repeated_setup(|rep| setup(ctx, rep), teardown)?;
    let mut layers = None;
    let mut seconds = ctx.args.seconds;
    if ctx.args.trace {
        let t = Instant::now();
        let mut table = LayerTable::new();
        for (i, shape) in state.shapes.iter().enumerate() {
            let scratch = state.root.join(format!("chain-{i}"));
            let untraced = chain(&shape.config(), &scratch, None)?;
            let traced = chain(&shape.config(), &scratch, Some(&mut table))?;
            table.walls(traced, untraced);
        }
        layers = Some(table);
        seconds = (seconds - secs(t.elapsed())).max(1.0);
    }
    let rss = crate::RssSampler::start();
    let before = tpupoint::obs::metrics().snapshot();
    let log = drive(&state, plan_jobs(seconds, state.shapes.len()));
    let rss = rss.stop();
    let (job_check, steps, failed_jobs) = check_jobs(&state, &log);
    let scrapes = &log.scrapes;
    let steps_per_s = steps as f64 / secs(log.elapsed).max(1e-9);

    let lag_p99 = stats::percentile(&scrapes.lag_ms, 0.99);
    if let Some(table) = layers.as_mut() {
        probe_plane(table, &state, &log)?;
        table.set(
            "fleet.snapshot_publishes",
            counter_since(&before, "fleet.snapshot_publishes"),
        );
        table.set("load.lag_ms_p99", lag_p99);
        par_metrics(table, &before, 1);
        let configs: Vec<JobConfig> = state.shapes.iter().map(Shape::config).collect();
        dispatch_probe(table, &configs, PROFILING_OVERHEAD);
    }
    let named = vec![
        (
            "scrape_p50_ms".into(),
            stats::median(&scrapes.latency_ms),
            "ms",
        ),
        (
            "scrape_p95_ms".into(),
            stats::percentile(&scrapes.latency_ms, 0.95),
            "ms",
        ),
        (
            "scrape_p99_ms".into(),
            stats::percentile(&scrapes.latency_ms, 0.99),
            "ms",
        ),
        ("scrapes".into(), scrapes.latency_ms.len() as f64, "count"),
        (
            "scrapes_beyond_p99".into(),
            stats::beyond(&scrapes.latency_ms, 0.99) as f64,
            "count",
        ),
        ("scrapes_late".into(), scrapes.late as f64, "count"),
        ("scrape_errors".into(), scrapes.errors as f64, "count"),
        ("load.lag_ms_p99".into(), lag_p99, "ms"),
        ("jobs".into(), log.jobs.len() as f64, "count"),
        ("admit_us_p50".into(), stats::median(&log.admit_us), "us"),
    ];
    let attempted = log.admit_us.len() as u64 + scrapes.attempted + log.jobs.len() as u64;
    let failed = log.refused + scrapes.late + scrapes.errors + failed_jobs;
    let e2e = (!ctx.args.trace).then(|| EndToEnd {
        steps_per_s,
        rss,
        latency_ms: log.turnaround_ms.clone(),
        latency_of: "job, from its POST /jobs to its completion",
    });
    let outcome = Outcome {
        setup_s,
        attempted,
        failed,
        checks: vec![job_check],
        e2e,
        layers,
        named,
    };
    teardown(state);
    Ok(outcome)
}

/// Beside the traced chain, on the settled fleet: render and HTTP cost of
/// a scrape, admission latency, and the seal pipeline's own histogram
/// from the fleet's `/metrics`.
fn probe_plane(table: &mut LayerTable, state: &Setup, log: &DriveLog) -> io::Result<()> {
    let addr = state.session.addr();
    let mut render_us = Vec::new();
    let mut get_us = Vec::new();
    let mut body = String::new();
    for _ in 0..PLANE_PROBES {
        let t = Instant::now();
        state.session.scrape();
        render_us.push(secs(t.elapsed()) * 1e6);
        let t = Instant::now();
        body = http::get(addr, "/metrics")?.body;
        get_us.push(secs(t.elapsed()) * 1e6);
    }
    let render = stats::median(&render_us);
    table.set("obs.render_us_p50", render);
    table.set(
        "obs.http_us_p50",
        (stats::median(&get_us) - render).max(0.0),
    );
    table.set("obs.scrape_bytes", body.len() as f64);
    table.set("fleet.admit_us_p50", stats::median(&log.admit_us));
    let seal = bucket_quantiles(&body, "tpupoint_profiler_seal_latency_us", "job=\"fleet\"");
    table.set("profiler.seal_latency_us_p50", seal.0);
    table.set("profiler.seal_latency_us_p99", seal.1);
    table.set(
        "profiler.seal_backpressure_waits",
        series_value(
            &body,
            "tpupoint_profiler_seal_backpressure_waits{",
            "job=\"fleet\"",
        ),
    );
    table.beside("obs.render_us_p50 (in-process scrape)", render, "us");
    table.beside(
        "fleet.admit_us_p50 (POST /jobs)",
        stats::median(&log.admit_us),
        "us",
    );
    table.beside("live fleet wall", secs(log.elapsed), "s");
    Ok(())
}

fn series_value(text: &str, series: &str, label: &str) -> f64 {
    text.lines()
        .find(|line| line.starts_with(series) && line.contains(label))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

/// p50 and p99 of a Prometheus histogram, as the upper bound of the
/// bucket each falls in (the exposition's resolution).
fn bucket_quantiles(text: &str, family: &str, label: &str) -> (f64, f64) {
    let prefix = format!("{family}_bucket{{{label},le=\"");
    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    let quantile = |q: f64| {
        let finite_max = buckets
            .iter()
            .filter(|b| b.0.is_finite())
            .map(|b| b.0)
            .fold(0.0, f64::max);
        buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= q * total && total > 0.0)
            .map_or(0.0, |(le, _)| if le.is_finite() { *le } else { finite_max })
    };
    (quantile(0.5), quantile(0.99))
}

/// Time spent in the streaming-analyzer observer, shared with the sink.
#[derive(Default)]
struct ObserverTally {
    update_s: f64,
    update_us: Vec<f64>,
    report_s: f64,
    snapshot_s: f64,
}

impl ObserverTally {
    fn total(&self) -> f64 {
        self.update_s + self.report_s + self.snapshot_s
    }
}

/// One fleet job's recording chain, rebuilt from public parts the way the
/// fleet wires it: a pipelined store, a per-job registry, a streaming
/// analyzer fed by the seal observer, and the live sink, at pace 0. With
/// a table, each layer boundary is timed and added to it. Returns the
/// chain's wall time.
fn chain(config: &JobConfig, scratch: &Path, table: Option<&mut LayerTable>) -> io::Result<f64> {
    let t_wall = Instant::now();
    let mut config = config.clone();
    config.host_overhead_frac += PROFILING_OVERHEAD;
    let job = TrainingJob::new(config);
    let registry = Metrics::new();
    let tally = Arc::new(StoreTally::default());
    let store = TimedStore::new(default_store(&scratch.join("records"))?, Arc::clone(&tally));
    let mut sink = ProfilerSink::with_pipelined_store(
        job.catalog().clone(),
        ProfilerOptions::default(),
        Box::new(store),
        PipelineConfig::default(),
    );
    sink.use_registry(&registry);
    sink.set_source(&job.config().model, &job.config().dataset.name);

    let observed = Arc::new(Mutex::new(ObserverTally::default()));
    let n_ops = job.catalog().len();
    let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
    let (obs_registry, obs_tally) = (registry.clone(), Arc::clone(&observed));
    sink.set_seal_observer(
        Box::new(move |records| {
            let t = Instant::now();
            analyzer.observe_seal(records, n_ops);
            let update = t.elapsed();
            let t = Instant::now();
            obs_registry
                .gauge("analyzer.phase_stability")
                .set(analyzer.stability());
            obs_registry
                .gauge("analyzer.phase_count")
                .set(analyzer.phase_count() as f64);
            let json = analyzer.report().to_json();
            let report = t.elapsed();
            let t = Instant::now();
            let snapshot = obs_registry.snapshot();
            let snap = t.elapsed();
            drop((json, snapshot));
            let mut tally = obs_tally.lock().unwrap_or_else(|p| p.into_inner());
            tally.update_s += secs(update);
            tally.update_us.push(secs(update) * 1e6);
            tally.report_s += secs(report);
            tally.snapshot_s += secs(snap);
        }),
        STREAM_CADENCE as u64,
    );
    let live = LiveSink::new(
        TimedSink::new(sink),
        LiveStatus::new(),
        Arc::new(AtomicBool::new(false)),
        Duration::ZERO,
        OLS_THRESHOLD,
    );
    let mut outer = TimedSink::new(live);
    let t = Instant::now();
    job.run(&mut outer);
    let run_s = secs(t.elapsed());
    let outer_s = secs(outer.busy());
    let inner = outer.into_inner().into_inner();
    let inner_s = secs(inner.busy());
    let sink = inner.into_inner();
    let events = sink.events_seen();
    let observed_in_run = observed.lock().unwrap_or_else(|p| p.into_inner()).total();
    let t = Instant::now();
    let profile = sink.finish();
    let finish_s = secs(t.elapsed());
    let wall = secs(t_wall.elapsed());
    let store_bytes = dir_bytes(&scratch.join("records"));
    std::fs::remove_dir_all(scratch)?;
    if profile.store_errors > 0 {
        return Err(io::Error::other(format!(
            "chain store errors: {:?}",
            profile.store_error
        )));
    }

    if let Some(table) = table {
        let tally_obs = observed.lock().unwrap_or_else(|p| p.into_inner());
        let observed_in_finish = tally_obs.total() - observed_in_run;
        table.row("simcore (engine self)", run_s - outer_s);
        table.row("runtime.live_sink (self)", outer_s - inner_s);
        table.layer("profiler.sink_self_s", inner_s - observed_in_run);
        table.layer("analyzer.stream_update_s", tally_obs.update_s);
        table.layer("analyzer.stream_report_s", tally_obs.report_s);
        table.layer("obs.snapshot_s", tally_obs.snapshot_s);
        table.layer("profiler.finish_s", finish_s - observed_in_finish);
        table.add("simcore.events", events as f64);
        table.add("profiler.windows_sealed", profile.windows.len() as f64);
        table.add("profiler.store_s", secs(tally.busy()));
        table.add("profiler.store_calls", tally.calls() as f64);
        table.add("profiler.store_bytes", store_bytes as f64);
        table.add("analyzer.stream_updates", tally_obs.update_us.len() as f64);
        // The slowest job shape's p99 across the chains of a run.
        let p99 = stats::percentile(&tally_obs.update_us, 0.99);
        table.set(
            "analyzer.stream_update_us_p99",
            table.get("analyzer.stream_update_us_p99").max(p99),
        );
        table.beside(
            &format!("profiler.store_s ({}, seal-pipeline worker)", profile.model),
            secs(tally.busy()),
            "s",
        );
    }
    Ok(wall)
}
