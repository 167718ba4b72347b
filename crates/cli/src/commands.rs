//! Subcommand implementations.

use crate::args::Args;
use crate::obs::{obs_report_cmd, ObsSession, OBS_OPTIONS};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::{fmt, io};
use tpupoint::analyzer::PhaseSet;
use tpupoint::optimizer::{TpuPointOptimizer, TrialOutcome};
use tpupoint::prelude::*;
use tpupoint::profiler::audit_windows;
use tpupoint::sim::SimDuration;
use tpupoint::FleetJobRequest;

const USAGE: &str = "\
tpupoint — automatic characterization of (simulated) TPU ML behavior

USAGE:
  tpupoint workloads
      List every workload of the suite with its Table I parameters.

  tpupoint profile --workload <id> [--generation v2|v3] [--scale F]
                   [--seed N] [--naive] [--out DIR] [--store-retries N]
                   [--store-fault-prob F] [--store-fault-seed N]
                   [--store-format jsonl|binary] [--store-segment-kib N]
                   [--store-retain-mib N] [--paired-baseline]
      Simulate and profile a training session; writes <DIR>/records, the
      record directory every other command reads.
      --store-retries bounds record-store retries before spilling to
      memory (default 3; 0 disables resilience). --store-fault-prob
      injects store failures with the given per-call probability
      (deterministic under --store-fault-seed) to exercise that path.
      --store-format picks the record encoding (default binary): binary
      writes length-prefixed checksummed segments, one file per
      --store-segment-kib KiB of records (default 256; raise it for
      fewer files); --store-retain-mib budgets the sealed bytes kept,
      retiring the oldest segments inline at each rotation with manifest
      accounting (0 = keep everything). jsonl writes human-readable JSON lines instead. Both
      formats share the crash-recovery contract; `analyze` auto-detects
      whichever was written.
      Records are written on the simulation thread; served jobs (see
      serve) queue theirs on the shared worker pool instead, with
      byte-identical output. --paired-baseline also runs an
      uninstrumented twin of the job and reports the *measured*
      instrumented-to-baseline wall ratio instead of the modeled bound.

  tpupoint analyze <RECORDS> [--algorithm ols|kmeans|dbscan]
                   [--threshold F] [--k N] [--min-samples N] [--out DIR]
                   [--threads N] [--prefix-stable]
      Detect phases and print coverage, top operators, and checkpoints.
      <RECORDS> is a records directory: <out>/records of a profile run,
      <out>/jobs/<id>/records of a served job. A sealed directory reads
      back as exactly the profile the run produced; from a crashed run
      the valid record prefix is salvaged past any torn tail, with the
      losses reported. report, audit and compare read the same way.
      --threads sizes the analyzer worker pool (default: TPUPOINT_THREADS
      or all cores); results are identical for any value. --prefix-stable
      replays the streaming analyzer over the profile and, once its phase
      assignments stabilize, analyzes only that prefix of the steps — a
      SeqPoint-style answer to \"how little of the run characterizes it\".
      --out DIR writes the Chrome trace (trace.json), the phase CSV
      (phases.csv) and the per-step operator CSV (steps.csv) there.

  tpupoint serve [--workload <id> [--generation v2|v3] [--scale F]
                  [--seed N] [--naive] [--store-fault-prob F]
                  [--store-fault-seed N]]
                 [--out DIR] [--metrics-listen HOST:PORT] [--pace-us N]
                 [--max-running N] [--max-queued N] [--per-tenant N]
                 [--fleet-memory-mib N] [--store-retries N]
                 [--store-format jsonl|binary] [--store-segment-kib N]
                 [--store-retain-mib N] [--recorded-backoff]
                 [--stop-on-stable K] [--paired-baseline]
      Serve live training jobs on wall-clock recording threads behind one
      HTTP plane (default listen 127.0.0.1:9090; port 0 is ephemeral).
      With --workload it is a fleet of one: that job runs under its suite
      id (e.g. bert-mrpc) and the daemon exits once it settles. Without
      it the daemon starts empty and takes jobs over POST /jobs until
      /quit. Each job records to <DIR>/jobs/<id>/ (records/, final
      metrics.prom) in its own metrics registry; DIR defaults to
      tpupoint-out with --workload, tpupoint-fleet without.
        GET    /metrics    every job's series labeled {job,tenant,
                           workload}, plus a merged job=\"fleet\" aggregate
        GET    /healthz    200 ok, or 503 + causes attributed per job
        GET    /status     JSON: job counts per lifecycle phase
        GET    /phases     JSON: each job's live streaming phase set
        POST   /jobs       admit a job; JSON body: {\"workload\": \"...\",
                           \"id\"?, \"tenant\"?, \"generation\"?, \"scale\"?,
                           \"seed\"?, \"naive\"?, \"pace_us\"?,
                           \"store_fault_prob\"?, \"store_fault_seed\"?}
        GET    /jobs[/<id>[/phases]]  all jobs; one job (step, online OLS
                           phase, checkpoints, streaming stability); its phases
        DELETE /jobs/<id>  cancel (queued exits now, running drains)
        POST   /quit       drain every job and exit (as does Ctrl-C)
      --pace-us sleeps N real microseconds per step (default 500; 0 is
      batch speed); retry backoff is slept too unless --recorded-backoff.
      Draining seals every .part record file and flushes a final scrape
      to <DIR>/metrics.prom; each job's sealed records are byte-identical
      to a solo profile run of the same workload, scale, and seed.
      --stop-on-stable K ends a job's pacing once its live phases hold
      stable for K analyzer updates (the rest rushes at batch speed, so
      records stay complete). --paired-baseline exports each job's
      measured overhead ratio. --max-running (default 4), --max-queued
      (64) and --per-tenant (8) bound admission; --fleet-memory-mib
      (default 0 = unbounded) sheds admissions past the budget with 429
      and sizes each job's seal-queue and spill caps from its share.
      Under --store-format binary, --store-retain-mib applies per job.
      --metrics-out exports the process registry merged with every
      job's final metrics.

  tpupoint optimize --workload <id> [--generation v2|v3] [--scale F]
                    [--naive]
      Run TPUPoint-Optimizer and print the tuning report.

  tpupoint compare <RECORDS_A> <RECORDS_B> [--top N]
      Compare two profiles op by op (v2 vs v3, naive vs tuned, ...).

  tpupoint report <RECORDS>
      Print a full characterization report (phases, operators, bottleneck).

  tpupoint audit <RECORDS>
      Audit the profile's window stream for gaps, overlaps, and losses.

  tpupoint obs-report <metrics.json>
      Summarize a --metrics-out file: per-stage wall time, analyzer
      algorithm runtimes, profiler overhead, and window health.

OBSERVABILITY (profile, serve, analyze, optimize):
  --metrics-out <path>   Write the command's own metrics (counters,
                         gauges, histograms) to <path>.
  --self-trace <path>    Write a Chrome-tracing JSON of the command's
                         internal spans to <path>.
  --obs-format json|prom Format for --metrics-out (default json).
";

/// Why a command stopped.
#[derive(Debug)]
pub enum CliError {
    /// A human-readable message for the user.
    Message(String),
    /// Writing to stdout failed, e.g. because its reader went away.
    Output(io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Message(message) => f.write_str(message),
            CliError::Output(err) => write!(f, "cannot write output: {err}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Message(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Message(message.to_owned())
    }
}

impl From<io::Error> for CliError {
    fn from(err: io::Error) -> Self {
        CliError::Output(err)
    }
}

/// What every command returns.
pub type CliResult = Result<(), CliError>;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message on any failure, or the output error
/// when stdout could not be written.
pub fn dispatch(argv: &[String]) -> CliResult {
    match argv.first().map(String::as_str) {
        Some("workloads") => workloads(),
        Some("profile") => profile(&argv[1..]),
        Some("serve") => serve(&argv[1..]),
        Some("analyze") => analyze(&argv[1..]),
        Some("optimize") => optimize(&argv[1..]),
        Some("compare") => compare_cmd(&argv[1..]),
        Some("report") => report(&argv[1..]),
        Some("audit") => audit(&argv[1..]),
        Some("obs-report") => obs_report_cmd(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            outln!("{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}").into()),
    }
}

fn parse_generation(args: &Args) -> Result<TpuGeneration, String> {
    match args.get("generation").unwrap_or("v2") {
        "v2" | "V2" => Ok(TpuGeneration::V2),
        "v3" | "V3" => Ok(TpuGeneration::V3),
        other => Err(format!("--generation must be v2 or v3, got `{other}`")),
    }
}

fn workload_id(args: &Args) -> Result<WorkloadId, String> {
    args.get("workload")
        .ok_or("--workload is required")?
        .parse()
        .map_err(|e| format!("{e}"))
}

fn build_from_args(args: &Args) -> Result<JobConfig, String> {
    let id = workload_id(args)?;
    let generation = parse_generation(args)?;
    let opts = BuildOptions {
        scale: args.get_or("scale", id.default_sim_scale())?,
        seed: args.get_or("seed", 42)?,
        variant: if args.flag("naive") {
            Variant::Naive
        } else {
            Variant::Tuned
        },
        ..BuildOptions::default()
    };
    Ok(build(id, generation, &opts))
}

fn workloads() -> CliResult {
    outln!(
        "{:20} {:10} {:>7} {:>12} {:>12} {:>8}",
        "id",
        "dataset",
        "batch",
        "train steps",
        "size (MiB)",
        "scale"
    )?;
    for id in WorkloadId::all() {
        let cfg = build(id, TpuGeneration::V2, &BuildOptions::default());
        outln!(
            "{:20} {:10} {:>7} {:>12} {:>12.2} {:>8.3}",
            id.label().to_ascii_lowercase(),
            cfg.dataset.name,
            cfg.pipeline.batch_size,
            cfg.train_steps,
            cfg.dataset.size_bytes as f64 / (1024.0 * 1024.0),
            id.default_sim_scale(),
        )?;
    }
    Ok(())
}

const BUILD_OPTIONS: [&str; 4] = ["workload", "generation", "scale", "seed"];

fn with_obs<'a>(options: &[&'a str]) -> Vec<&'a str> {
    options.iter().chain(OBS_OPTIONS.iter()).copied().collect()
}

/// The record-store tuning options shared by `profile` and `serve`.
const STORE_OPTIONS: [&str; 3] = ["store-format", "store-segment-kib", "store-retain-mib"];

/// The analyzer-mode builder `profile` and `serve` share: records under
/// `out`, `--store-retries`, `--paired-baseline`, `--store-format`,
/// `--store-segment-kib`, and `--store-retain-mib`.
fn recording_builder(args: &Args, out: &Path) -> Result<tpupoint::TpuPointBuilder, String> {
    let segment_kib: u64 = args.get_or("store-segment-kib", 256)?;
    let retain_mib: u64 = args.get_or("store-retain-mib", 0)?;
    let mut builder = TpuPoint::builder()
        .analyzer(true)
        .output_dir(out)
        .store_retries(args.get_or("store-retries", 3)?)
        .paired_baseline(args.flag("paired-baseline"))
        .store_segment_bytes(segment_kib.max(1) * 1024)
        .store_retention_bytes(retain_mib * 1024 * 1024);
    if let Some(format) = args.get("store-format") {
        builder = builder.store_format(format.parse()?);
    }
    Ok(builder)
}

fn profile(argv: &[String]) -> CliResult {
    let mut options = with_obs(&BUILD_OPTIONS);
    options.extend([
        "out",
        "store-retries",
        "store-fault-prob",
        "store-fault-seed",
    ]);
    options.extend(STORE_OPTIONS);
    let args = Args::parse(argv, &options, &["naive", "paired-baseline"])?;
    let session = ObsSession::start(&args)?;
    let config = build_from_args(&args)?;
    let out: PathBuf = args.get("out").unwrap_or("tpupoint-out").into();
    let tp = recording_builder(&args, &out)?
        .store_fault(
            parse_fault_prob(&args)?,
            args.get_or("store-fault-seed", 0xFA117)?,
        )
        .build();
    let run = tp
        .profile(config)
        .map_err(|e| format!("profiling failed: {e}"))?;
    outln!(
        "profiled {} ({}) on {:?}: {} steps, wall {:.1}s",
        run.profile.model,
        run.profile.dataset,
        run.report.generation,
        run.report.steps_completed,
        run.report.session_wall.as_secs_f64()
    )?;
    outln!(
        "TPU idle {:.1}%  MXU util {:.1}%  windows {}  checkpoints {}",
        run.profile.steady_tpu_idle_fraction() * 100.0,
        run.profile.steady_mxu_utilization() * 100.0,
        run.profile.windows.len(),
        run.profile.checkpoints.len()
    )?;
    if run.profile.store_errors > 0 {
        eprintln!(
            "warning: {} record-store error(s) surfaced past the retry layer{}; \
             the persisted record stream under {} may be incomplete",
            run.profile.store_errors,
            run.profile
                .store_error
                .as_deref()
                .map(|e| format!(" (first: {e})"))
                .unwrap_or_default(),
            out.join("records").display()
        );
    }
    outln!("records written to {}", out.join("records").display())?;
    session.finish()
}

fn serve(argv: &[String]) -> CliResult {
    let mut options = with_obs(&BUILD_OPTIONS);
    options.extend([
        "out",
        "metrics-listen",
        "pace-us",
        "store-retries",
        "store-fault-prob",
        "store-fault-seed",
        "stop-on-stable",
        "max-running",
        "max-queued",
        "per-tenant",
        "fleet-memory-mib",
    ]);
    options.extend(STORE_OPTIONS);
    let args = Args::parse(
        argv,
        &options,
        &["naive", "recorded-backoff", "paired-baseline"],
    )?;
    // The command-line job, if any: a fleet of one under its suite id.
    let job = match args.get("workload") {
        Some(_) => {
            // The job id is the suite id; the half-size variants'
            // `/` is not an id character, so `qanet-squad/2` runs as
            // `qanet-squad-2`.
            let id = workload_id(&args)?
                .label()
                .to_ascii_lowercase()
                .replace('/', "-");
            Some(
                FleetJobRequest::new(build_from_args(&args)?)
                    .id(id)
                    .store_fault(
                        parse_fault_prob(&args)?,
                        args.get_or("store-fault-seed", 0xFA117)?,
                    ),
            )
        }
        None => {
            let job_only = [
                "generation",
                "scale",
                "seed",
                "naive",
                "store-fault-prob",
                "store-fault-seed",
            ];
            if let Some(name) = job_only
                .iter()
                .find(|name| args.get(name).is_some() || args.flag(name))
            {
                return Err(format!(
                    "--{name} applies to the --workload job; jobs sent to POST /jobs \
                     take their settings in the request body"
                )
                .into());
            }
            None
        }
    };
    let session = ObsSession::start(&args)?;
    let default_out = if job.is_some() {
        "tpupoint-out"
    } else {
        "tpupoint-fleet"
    };
    let out: PathBuf = args.get("out").unwrap_or(default_out).into();
    let memory_mib: u64 = args.get_or("fleet-memory-mib", 0)?;
    let limits = tpupoint::runtime::FleetLimits {
        max_running: args.get_or("max-running", 4)?,
        max_queued: args.get_or("max-queued", 64)?,
        per_tenant_active: args.get_or("per-tenant", 8)?,
        memory_budget_bytes: memory_mib * 1024 * 1024,
    };
    let mut builder = recording_builder(&args, &out)?
        .serve(args.get("metrics-listen").unwrap_or("127.0.0.1:9090"))
        .serve_pace_us(args.get_or("pace-us", 500)?)
        .serve_real_backoff(!args.flag("recorded-backoff"))
        .serve_sigint(true)
        .fleet_limits(limits);
    if args.get("stop-on-stable").is_some() {
        builder = builder.stop_on_stable(args.get_or("stop-on-stable", 0)?);
    }
    let fleet = builder
        .build()
        .serve_fleet()
        .map_err(|e| format!("serve failed to start: {e}"))?;
    let job_id = match job {
        Some(request) => Some(
            fleet
                .submit(request)
                .map_err(|e| format!("cannot admit the --workload job: {e}"))?,
        ),
        None => None,
    };
    outln!("serving on http://{}", fleet.addr())?;
    outln!(
        "  GET /metrics  GET /healthz  GET /status  GET /phases  POST /quit  (Ctrl-C to stop)\n  \
         POST /jobs  GET /jobs[/<id>[/phases]]  DELETE /jobs/<id>"
    )?;
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let outcome = fleet
        .wait_for(job_id.as_deref())
        .map_err(|e| format!("serve drain failed: {e}"))?;
    outln!("drained {} job(s)", outcome.jobs.len())?;
    for job in &outcome.jobs {
        outln!(
            "  {:20} tenant {:10} {:9} {:>6} steps {:>4} checkpoints{}",
            job.id,
            job.tenant,
            job.phase.as_str(),
            job.steps_completed,
            job.checkpoints,
            job.error
                .as_deref()
                .map(|e| format!("  error: {e}"))
                .unwrap_or_default()
        )?;
    }
    outln!(
        "records and metrics.prom per job under {}; final scrape at {}",
        out.join("jobs").display(),
        out.join("metrics.prom").display()
    )?;
    session.finish_with(&outcome.job_metrics)?;
    match outcome.jobs.iter().find(|j| Some(&j.id) == job_id.as_ref()) {
        Some(job) if job.phase == tpupoint::runtime::JobPhase::Failed => Err(format!(
            "job {} failed: {}",
            job.id,
            job.error.as_deref().unwrap_or("no error recorded")
        )
        .into()),
        _ => Ok(()),
    }
}

/// `--store-fault-prob`, validated to `[0, 1]` (default 0).
fn parse_fault_prob(args: &Args) -> Result<f64, String> {
    let fault_prob: f64 = args.get_or("store-fault-prob", 0.0)?;
    if !(0.0..=1.0).contains(&fault_prob) {
        return Err(format!(
            "--store-fault-prob must be in [0, 1], got {fault_prob}"
        ));
    }
    Ok(fault_prob)
}

/// Reads the profile of a record directory of either format — JSONL
/// lines or binary segments, auto-detected — and reports what the
/// recovery could and could not produce. A sealed directory reads back
/// exactly; a crashed run's is salvaged past its torn tail.
fn load_profile(dir: &str) -> Result<Profile, CliError> {
    let summary = tpupoint::profiler::recover_records(std::path::Path::new(dir))
        .map_err(|e| format!("cannot recover records from {dir}: {e}"))?;
    outln!(
        "recovered {} step record(s) and {} window(s) from {dir} ({})",
        summary.steps.len(),
        summary.windows.len(),
        if summary.sealed_files {
            "sealed stream"
        } else {
            "unsealed .part stream of a crashed writer"
        }
    )?;
    if let Some(manifest) = &summary.manifest {
        if manifest.steps_retired > 0 || manifest.windows_retired > 0 {
            outln!(
                "  retention retired {} step(s) and {} window(s) (accounted, not lost)",
                manifest.steps_retired,
                manifest.windows_retired
            )?;
        }
    }
    if summary.skipped_step_lines > 0 || summary.skipped_window_lines > 0 {
        outln!(
            "  skipped torn tail: {} step line(s), {} window line(s)",
            summary.skipped_step_lines,
            summary.skipped_window_lines
        )?;
    }
    let (missing_steps, missing_windows) = summary.missing_acknowledged();
    if missing_steps > 0 || missing_windows > 0 {
        outln!(
            "  WARNING: {missing_steps} acknowledged step(s) and \
             {missing_windows} acknowledged window(s) are missing"
        )?;
    } else if summary.manifest.is_some() {
        outln!("  every acknowledged record survived")?;
    }
    Ok(summary.into_profile())
}

fn analyze(argv: &[String]) -> CliResult {
    let args = Args::parse(
        argv,
        &with_obs(&[
            "algorithm",
            "threshold",
            "k",
            "min-samples",
            "out",
            "threads",
        ]),
        &["prefix-stable"],
    )?;
    let session = ObsSession::start(&args)?;
    let mut profile = load_profile(args.positional0("records directory")?)?;
    if args.flag("prefix-stable") {
        profile = prefix_stable(profile)?;
    }
    let analyzer = Analyzer::with_options(
        &profile,
        tpupoint::analyzer::AnalyzerOptions {
            threads: args.get_or("threads", 0)?,
        },
    );
    let algorithm = args.get("algorithm").unwrap_or("ols");
    let set: PhaseSet = match algorithm {
        "ols" => analyzer.ols_phases(args.get_or("threshold", 0.7)?),
        "kmeans" => analyzer.kmeans_phases(args.get_or("k", 5)?),
        "dbscan" => analyzer
            .dbscan_phases(args.get_or("min-samples", 30)?)
            .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown --algorithm `{other}`").into()),
    };
    outln!(
        "{} found {} phases; top 3 cover {:.1}% of execution time",
        algorithm,
        set.len(),
        set.coverage_top(3) * 100.0
    )?;
    let checkpoints = analyzer.checkpoints_for(&set);
    for phase in set.by_time_desc().into_iter().take(5) {
        let share = phase.total_time.as_micros() as f64 / set.total_time.as_micros().max(1) as f64;
        let ckpt = checkpoints[phase.id]
            .map(|c| format!("ckpt@{}", c.checkpoint_step))
            .unwrap_or_else(|| "no ckpt".to_owned());
        outln!(
            "  phase {:>3}{}: {:>6} steps, {:>5.1}% of time, {}",
            phase.id,
            if phase.is_noise { " (noise)" } else { "" },
            phase.steps.len(),
            share * 100.0,
            ckpt
        )?;
    }
    if let Some(top) = analyzer.top_operators_of_longest(&set, 5) {
        outln!("top TPU ops:  {}", fmt_ops(&top.tpu))?;
        outln!("top host ops: {}", fmt_ops(&top.host))?;
    }
    if let Some(dir) = args.get("out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let trace = dir.join("trace.json");
        let csv = dir.join("phases.csv");
        let steps = dir.join("steps.csv");
        analyzer
            .write_chrome_trace(&set, File::create(&trace).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        analyzer
            .write_phase_csv(&set, File::create(&csv).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        analyzer
            .write_step_csv(File::create(&steps).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        outln!(
            "wrote {}, {} and {}",
            trace.display(),
            csv.display(),
            steps.display()
        )?;
    }
    session.finish()
}

/// Replays the streaming analyzer over `profile` and, if its phase
/// assignments stabilized, truncates the profile to that stable prefix
/// (the `--prefix-stable` early-stop answer). Falls back to the full
/// profile when the run never stabilized.
fn prefix_stable(profile: Profile) -> Result<Profile, CliError> {
    use tpupoint::analyzer::{replay, StreamingConfig};
    let replayed = replay(&profile, StreamingConfig::default());
    match replayed.stable_at_step {
        Some(step) => {
            let prefix = profile.prefix_through(step);
            outln!(
                "streaming analyzer stable at step {step}; analyzing the \
                 {}-step prefix of {} recorded steps",
                prefix.steps.len(),
                profile.steps.len()
            )?;
            Ok(prefix)
        }
        None => {
            outln!(
                "streaming analyzer never stabilized over {} steps; \
                 analyzing the full profile",
                profile.steps.len()
            )?;
            Ok(profile)
        }
    }
}

fn fmt_ops(rows: &[(String, SimDuration, u64)]) -> String {
    rows.iter()
        .map(|(n, d, _)| format!("{n} ({d})"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn optimize(argv: &[String]) -> CliResult {
    let args = Args::parse(argv, &with_obs(&BUILD_OPTIONS), &["naive"])?;
    let session = ObsSession::start(&args)?;
    let config = build_from_args(&args)?;
    let report = TpuPointOptimizer::new(config).optimize();
    outln!(
        "critical phase detected: {}",
        report.critical_phase_detected
    )?;
    for trial in &report.trials {
        let marker = match trial.outcome {
            TrialOutcome::Accepted => "accept",
            TrialOutcome::NoImprovement => "revert",
            TrialOutcome::OutputChanged => "guard!",
            TrialOutcome::Invalid => "error ",
        };
        outln!(
            "  [{marker}] {:22} {:>6} -> {:<6} {:>9.2} steps/s",
            trial.param.to_string(),
            trial.from,
            trial.to,
            trial.steps_per_sec
        )?;
    }
    outln!(
        "throughput {:.2} -> {:.2} steps/s ({:.3}x), idle {:.1}% -> {:.1}%, mxu {:.1}% -> {:.1}%",
        report.baseline.throughput_steps_per_sec(),
        report.optimized.throughput_steps_per_sec(),
        report.throughput_speedup(),
        report.baseline.tpu_idle_fraction() * 100.0,
        report.optimized.tpu_idle_fraction() * 100.0,
        report.baseline.mxu_utilization() * 100.0,
        report.optimized.mxu_utilization() * 100.0,
    )?;
    outln!(
        "output preserved: {}; online tuning overhead {}",
        report.output_preserved(),
        report.tuning_overhead
    )?;
    session.finish()
}

fn compare_cmd(argv: &[String]) -> CliResult {
    let args = Args::parse(argv, &["top"], &[])?;
    let a = args.positional0("first records directory")?;
    let b = args
        .positional
        .get(1)
        .ok_or("missing second records directory")?;
    let pa = load_profile(a)?;
    let pb = load_profile(b)?;
    let cmp = tpupoint::analyzer::compare(&pa, &pb);
    out!("{}", cmp.render(args.get_or("top", 10)?))?;
    Ok(())
}

fn report(argv: &[String]) -> CliResult {
    let args = Args::parse(argv, &[], &[])?;
    let profile = load_profile(args.positional0("records directory")?)?;
    out!("{}", tpupoint::analyzer::characterize(&profile))?;
    Ok(())
}

fn audit(argv: &[String]) -> CliResult {
    let args = Args::parse(argv, &[], &[])?;
    let profile = load_profile(args.positional0("records directory")?)?;
    let audit = audit_windows(&profile.windows, SimDuration::from_millis(1));
    outln!(
        "windows {}  events {}  span {:.1}s",
        audit.windows,
        audit.events,
        audit.covered_span.as_secs_f64()
    )?;
    outln!(
        "gaps {} ({:.2}% unobserved)  overlaps {}",
        audit.gaps.len(),
        audit.unobserved_fraction() * 100.0,
        audit.overlaps.len()
    )?;
    outln!(
        "max window: {} events, {:.1}s span (caps: 1,000,000 / 60s)",
        audit.max_window_events,
        audit.max_window_span.as_secs_f64()
    )?;
    outln!(
        "dropped responses: {} windows, {} events ({:.2}% loss)",
        profile.dropped_windows,
        profile.lost_events,
        profile.loss_fraction() * 100.0
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint::profiler::recover_records;

    fn run(parts: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        dispatch(&argv).map_err(|err| err.to_string())
    }

    #[test]
    fn help_and_workloads_succeed() {
        run(&["--help"]).unwrap();
        run(&["workloads"]).unwrap();
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn profile_analyze_audit_round_trip() {
        let dir = std::env::temp_dir().join(format!("tpupoint-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap().to_owned();
        run(&[
            "profile",
            "--workload",
            "bert-mrpc",
            "--scale",
            "0.1",
            "--out",
            &out,
        ])
        .unwrap();
        assert!(
            !dir.join("profile.json").exists(),
            "the records are the profile"
        );
        let p = dir.join("records").to_str().unwrap().to_owned();
        let analysis = dir.join("analysis");
        run(&[
            "analyze",
            &p,
            "--algorithm",
            "ols",
            "--out",
            analysis.to_str().unwrap(),
        ])
        .unwrap();
        for file in ["trace.json", "phases.csv", "steps.csv"] {
            let len = std::fs::metadata(analysis.join(file)).unwrap().len();
            assert!(len > 0, "{file} is empty");
        }
        run(&["analyze", &p, "--algorithm", "kmeans", "--k", "4"]).unwrap();
        run(&["analyze", &p, "--algorithm", "kmeans", "--prefix-stable"]).unwrap();
        run(&["report", &p]).unwrap();
        run(&["compare", &p, &p, "--top", "5"]).unwrap();
        run(&["audit", &p]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_profile_recovers_and_analyzes() {
        let dir = std::env::temp_dir().join(format!("tpupoint-cli-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap().to_owned();
        run(&[
            "profile",
            "--workload",
            "bert-mrpc",
            "--scale",
            "0.1",
            "--out",
            &out,
            "--store-format",
            "binary",
            "--store-segment-kib",
            "4",
        ])
        .unwrap();
        let records = dir.join("records");
        assert!(records.join("manifest.json").exists());
        assert!(
            !records.join("steps.jsonl").exists(),
            "binary runs must not write JSONL"
        );
        let recs = records.to_str().unwrap().to_owned();
        run(&["analyze", &recs, "--algorithm", "kmeans"]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_format_rejects_unknown_value() {
        let err = run(&[
            "profile",
            "--workload",
            "bert-mrpc",
            "--store-format",
            "parquet",
        ])
        .unwrap_err();
        assert!(err.contains("unknown store format"), "{err}");
    }

    #[test]
    fn faulty_profile_and_recover_analyze_round_trip() {
        let dir = std::env::temp_dir().join(format!("tpupoint-cli-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap().to_owned();
        run(&[
            "profile",
            "--workload",
            "bert-mrpc",
            "--scale",
            "0.1",
            "--out",
            &out,
            "--store-fault-prob",
            "0.4",
            "--store-retries",
            "8",
            "--store-fault-seed",
            "11",
        ])
        .unwrap();
        let records = dir.join("records");
        assert!(
            recover_records(&records).expect("records").sealed_files,
            "sealed despite faults"
        );
        run(&["analyze", records.to_str().unwrap()]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_fault_probability_is_rejected() {
        let err = run(&[
            "profile",
            "--workload",
            "bert-mrpc",
            "--store-fault-prob",
            "1.5",
        ])
        .unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn recover_on_missing_directory_is_a_clear_error() {
        for command in ["analyze", "report", "audit"] {
            let err = run(&[command, "/definitely/not/here"]).unwrap_err();
            assert!(err.contains("cannot recover records"), "{command}: {err}");
        }
    }

    #[test]
    fn profile_requires_a_workload() {
        let err = run(&["profile"]).unwrap_err();
        assert!(err.contains("--workload"));
    }

    #[test]
    fn bad_workload_name_lists_options() {
        let err = run(&["profile", "--workload", "alexnet"]).unwrap_err();
        assert!(err.contains("unknown workload"));
    }

    #[test]
    fn bad_generation_is_rejected() {
        let err = run(&["profile", "--workload", "bert-mrpc", "--generation", "v4"]).unwrap_err();
        assert!(err.contains("v2 or v3"));
    }

    #[test]
    fn serve_at_batch_speed_completes_and_seals_records() {
        let dir = std::env::temp_dir().join(format!("tpupoint-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = dir.join("obs/metrics.json");
        run(&[
            "serve",
            "--workload",
            "bert-mrpc",
            "--scale",
            "0.1",
            "--out",
            dir.to_str().unwrap(),
            "--metrics-listen",
            "127.0.0.1:0",
            "--pace-us",
            "0",
            "--stop-on-stable",
            "3",
            "--paired-baseline",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        let job = dir.join("jobs/bert-mrpc");
        assert!(
            !job.join("profile.json").exists(),
            "the records are the profile"
        );
        let records = recover_records(&job.join("records")).expect("records");
        assert!(records.sealed_files && !records.steps.is_empty());
        assert!(dir.join("metrics.prom").exists(), "fleet scrape flushed");
        // --paired-baseline measured this job's overhead, in its own
        // labeled series.
        let scrape = std::fs::read_to_string(job.join("metrics.prom")).unwrap();
        assert!(
            scrape.contains("tpupoint_profiler_overhead_measured{job=\"bert-mrpc\""),
            "{scrape}"
        );
        // --metrics-out folds the job's registry into the process one,
        // so obs-report keeps its store, pipeline and analyzer sections.
        let text = std::fs::read_to_string(&metrics).unwrap();
        let report = tpupoint::obs::ObsReport::from_snapshot(
            &crate::obs::parse_metrics_json(&text).unwrap(),
        )
        .render();
        for section in [
            "measured against an uninstrumented twin",
            "record store:    0 errors",
            "seal pipeline:",
            "window audit:",
        ] {
            assert!(report.contains(section), "{section}:\n{report}");
        }
        assert!(!report.contains("streaming analyzer: not run"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_without_a_workload_rejects_job_only_flags() {
        for flag in [
            &["--store-fault-prob", "0.5"][..],
            &["--scale", "0.1"],
            &["--naive"],
        ] {
            let mut argv = vec!["serve", "--metrics-listen", "127.0.0.1:0"];
            argv.extend(flag);
            let err = run(&argv).unwrap_err();
            assert!(
                err.contains(flag[0]) && err.contains("--workload"),
                "{flag:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_fleet_admits_scrapes_and_drains_over_http() {
        use std::io::{Read, Write};
        let dir = std::env::temp_dir().join(format!("tpupoint-cli-fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap().to_owned();
        // The daemon blocks until /quit, so drive it from a second thread
        // through the control API on a fixed ephemeral port.
        let listen = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().to_string()
        };
        let addr = listen.clone();
        let driver = std::thread::spawn(move || {
            let http = |request: String| -> String {
                for _ in 0..250 {
                    if let Ok(mut stream) = std::net::TcpStream::connect(&addr) {
                        stream.write_all(request.as_bytes()).unwrap();
                        let mut response = String::new();
                        stream.read_to_string(&mut response).unwrap();
                        return response;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                panic!("fleet endpoint never came up on {addr}");
            };
            let body = "{\"workload\": \"bert-mrpc\", \"id\": \"cli-a\", \"scale\": 0.05}";
            let created = http(format!(
                "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ));
            assert!(created.starts_with("HTTP/1.1 201"), "{created}");
            let scrape = http("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".to_owned());
            assert!(scrape.contains("job=\"cli-a\""), "{scrape}");
            // Let the job finish so its final metrics are in the export.
            for _ in 0..500 {
                let job = http("GET /jobs/cli-a HTTP/1.1\r\nHost: t\r\n\r\n".to_owned());
                if job.contains("\"completed\"") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            http("POST /quit HTTP/1.1\r\nHost: t\r\n\r\n".to_owned());
        });
        let metrics = dir.join("metrics.json");
        run(&[
            "serve",
            "--out",
            &out,
            "--metrics-listen",
            &listen,
            "--pace-us",
            "0",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        driver.join().unwrap();
        assert!(dir.join("metrics.prom").exists());
        let records = recover_records(&dir.join("jobs/cli-a/records")).expect("records");
        assert!(records.sealed_files && !records.steps.is_empty());
        // Every serve flag takes effect: --metrics-out carries the jobs'
        // own series, not only the process registry's.
        let text = std::fs::read_to_string(&metrics).expect("--metrics-out written");
        let snapshot = crate::obs::parse_metrics_json(&text).unwrap();
        assert!(
            snapshot.counters.get("profiler.windows_sealed").copied() > Some(0),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn optimize_runs_on_a_small_naive_workload() {
        run(&[
            "optimize",
            "--workload",
            "qanet-squad",
            "--scale",
            "0.001",
            "--naive",
        ])
        .unwrap();
    }
}
