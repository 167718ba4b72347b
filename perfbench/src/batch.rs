//! `batch-profile`: the paper's Start → train → Stop path in analyzer
//! mode. Each job is one `TpuPoint::profile` call recording to disk,
//! followed by `TpuPoint::analyze`; the three paper models run back to
//! back, round after round, until the time budget is spent.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tpupoint::analyzer::{Analyzer, AnalyzerOptions};
use tpupoint::profiler::{recover_records, Profile, ProfilerOptions, ProfilerSink};
use tpupoint::runtime::{JobConfig, TrainingJob};
use tpupoint::workloads::build;
use tpupoint::TpuPoint;

use crate::layers::{
    default_store, dir_bytes, dispatch_probe, par_metrics, secs, LayerTable, StoreTally, TimedSink,
    TimedStore,
};
use crate::{
    repeated_setup, stats, Check, Ctx, EndToEnd, Outcome, GENERATION, MODELS, OLS_THRESHOLD,
    PROFILING_OVERHEAD,
};

/// Size of the warm-up job set-up runs, relative to a benchmark job.
const WARMUP_SIZE: f64 = 0.05;

struct Setup {
    configs: Vec<JobConfig>,
}

fn setup(ctx: &Ctx, rep: usize) -> io::Result<Setup> {
    let configs: Vec<JobConfig> = MODELS
        .iter()
        .enumerate()
        .map(|(i, id)| build(*id, GENERATION, &ctx.job_options(i as u64, *id, 1.0)))
        .collect();
    // Warm the allocator, the page cache and the program's lazy statics
    // with one small job per model, so the first timed job pays no
    // first-use cost.
    let warm = ctx.dir(&format!("warmup-{rep}"))?;
    for (i, id) in MODELS.iter().enumerate() {
        let config = build(
            *id,
            GENERATION,
            &ctx.job_options(i as u64, *id, WARMUP_SIZE),
        );
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(warm.join(i.to_string()))
            .build();
        let run = tp.profile(config)?;
        tp.analyze(&run.profile)?;
    }
    std::fs::remove_dir_all(&warm)?;
    Ok(Setup { configs })
}

/// The records read back from disk must equal the in-memory profile.
fn records_match(dir: &Path, profile: &Profile) -> Result<(), String> {
    let recovered = recover_records(dir).map_err(|e| format!("recover: {e}"))?;
    if recovered.missing_acknowledged() != (0, 0) {
        return Err(format!(
            "missing acknowledged records {:?}",
            recovered.missing_acknowledged()
        ));
    }
    if recovered.steps != profile.steps {
        return Err(format!(
            "{} steps on disk, {} in memory (or contents differ)",
            recovered.steps.len(),
            profile.steps.len()
        ));
    }
    if recovered.windows != profile.windows {
        return Err(format!(
            "{} windows on disk, {} in memory (or contents differ)",
            recovered.windows.len(),
            profile.windows.len()
        ));
    }
    Ok(())
}

pub fn bench(ctx: &Ctx) -> io::Result<Outcome> {
    let (state, setup_s) = repeated_setup(|rep| setup(ctx, rep), drop)?;
    if ctx.args.trace {
        return traced(ctx, &state, setup_s);
    }
    let rss = crate::RssSampler::start();
    let mut tally = Tally::default();
    let mut round_rates = Vec::new();
    let mut round_analyze = Vec::new();
    let mut analyze_ms = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < ctx.budget() {
        let dir = ctx.dir(&format!("round-{round}"))?;
        let (mut steps, mut profile_s, mut analyze_s) = (0u64, 0.0, 0.0);
        for (i, config) in state.configs.iter().enumerate() {
            let out = dir.join(i.to_string());
            let tp = TpuPoint::builder().analyzer(true).output_dir(&out).build();
            tally.attempted += 2;
            let t = Instant::now();
            let run = tp.profile(config.clone());
            profile_s += secs(t.elapsed());
            let run = match run {
                Ok(run) if run.profile.store_errors == 0 => run,
                _ => {
                    tally.failed += 2;
                    continue;
                }
            };
            steps += run.report.steps_completed;
            let t = Instant::now();
            let analyzed = tp.analyze(&run.profile);
            let took = secs(t.elapsed());
            analyze_s += took;
            analyze_ms.push(took * 1e3);
            if analyzed.is_err() {
                tally.failed += 1;
            }
            if let Err(why) = records_match(&out.join("records"), &run.profile) {
                tally
                    .mismatches
                    .push(format!("round {round} {}: {why}", config.model));
            }
        }
        std::fs::remove_dir_all(&dir)?;
        round_rates.push(steps as f64 / profile_s.max(1e-9));
        round_analyze.push(analyze_s);
        round += 1;
    }
    let rss = rss.stop();
    let checks = vec![Check::new(
        "records-equal-profile",
        tally.mismatches.is_empty(),
        if tally.mismatches.is_empty() {
            format!(
                "{} jobs: recovered steps and windows equal the in-memory profile, nothing acknowledged missing",
                analyze_ms.len()
            )
        } else {
            tally.mismatches.join("; ")
        },
    )];
    Ok(Outcome {
        setup_s,
        attempted: tally.attempted,
        failed: tally.failed,
        checks,
        e2e: Some(EndToEnd {
            steps_per_s: stats::median(&round_rates),
            rss,
            latency_ms: analyze_ms,
            latency_of: "TpuPoint::analyze call",
        }),
        layers: None,
        named: vec![
            ("analyze_s".into(), stats::median(&round_analyze), "s"),
            ("rounds".into(), round as f64, "count"),
        ],
    })
}

/// Operations attempted and failed, and record mismatches, of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

/// One round through the facade, untimed per layer. Returns its wall.
fn untraced_round(ctx: &Ctx, state: &Setup, tally: &mut Tally) -> io::Result<f64> {
    let dir = ctx.dir("untraced")?;
    let t = Instant::now();
    for (i, config) in state.configs.iter().enumerate() {
        let tp = TpuPoint::builder()
            .analyzer(true)
            .output_dir(dir.join(i.to_string()))
            .build();
        tally.attempted += 1;
        let run = tp.profile(config.clone());
        if run.and_then(|run| tp.analyze(&run.profile)).is_err() {
            tally.failed += 1;
        }
    }
    let wall = secs(t.elapsed());
    std::fs::remove_dir_all(&dir)?;
    Ok(wall)
}

/// The same round with every layer wrapped. Returns its traced wall,
/// which leaves out the records check.
fn traced_round(
    ctx: &Ctx,
    state: &Setup,
    table: &mut LayerTable,
    tally: &mut Tally,
) -> io::Result<f64> {
    let dir = ctx.dir("traced")?;
    let mut wall = 0.0;
    for (i, config) in state.configs.iter().enumerate() {
        let out = dir.join(i.to_string());
        tally.attempted += 1;
        let (profile, job_wall) = traced_job(table, config, &out)?;
        wall += job_wall;
        if profile.store_errors > 0 {
            tally.failed += 1;
        }
        if let Err(why) = records_match(&out.join("records"), &profile) {
            tally.mismatches.push(format!("{}: {why}", config.model));
        }
        table.add(
            "profiler.store_bytes",
            dir_bytes(&out.join("records")) as f64,
        );
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(wall)
}

/// The traced run: untraced and traced rounds in alternating order until
/// the budget is spent, reported per round, then a NullSink dispatch
/// probe.
fn traced(ctx: &Ctx, state: &Setup, setup_s: f64) -> io::Result<Outcome> {
    let mut table = LayerTable::new();
    let mut tally = Tally::default();
    let before = tpupoint::obs::metrics().snapshot();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < ctx.budget() {
        let (traced, untraced) = if rounds % 2 == 0 {
            let untraced = untraced_round(ctx, state, &mut tally)?;
            (traced_round(ctx, state, &mut table, &mut tally)?, untraced)
        } else {
            let traced = traced_round(ctx, state, &mut table, &mut tally)?;
            (traced, untraced_round(ctx, state, &mut tally)?)
        };
        table.walls(traced, untraced);
        rounds += 1;
    }
    table.per_round(rounds);
    par_metrics(&mut table, &before, 2 * rounds);
    dispatch_probe(&mut table, &state.configs, PROFILING_OVERHEAD);

    Ok(Outcome {
        setup_s,
        attempted: tally.attempted,
        failed: tally.failed,
        checks: vec![Check::new(
            "records-equal-profile",
            tally.mismatches.is_empty(),
            if tally.mismatches.is_empty() {
                format!("{rounds} traced rounds: recovered records equal the in-memory profile")
            } else {
                tally.mismatches.join("; ")
            },
        )],
        e2e: None,
        layers: Some(table),
        named: vec![("rounds".into(), rounds as f64, "count")],
    })
}

/// One job through the facade's analyzer-mode chain, rebuilt from public
/// parts with a timing wrapper at each layer boundary, then analyzed the
/// way `TpuPoint::analyze` does. Returns the profile and the job's wall.
fn traced_job(
    table: &mut LayerTable,
    config: &JobConfig,
    out: &Path,
) -> io::Result<(Profile, f64)> {
    let t_job = Instant::now();
    let mut config = config.clone();
    config.host_overhead_frac += PROFILING_OVERHEAD;
    let job = TrainingJob::new(config);
    let tally = Arc::new(StoreTally::default());
    let store = TimedStore::new(default_store(&out.join("records"))?, Arc::clone(&tally));
    let mut sink = ProfilerSink::with_store(
        job.catalog().clone(),
        ProfilerOptions::default(),
        Box::new(store),
    );
    sink.set_source(&job.config().model, &job.config().dataset.name);
    let mut timed = TimedSink::new(sink);

    let t = Instant::now();
    job.run(&mut timed);
    let run_s = secs(t.elapsed());
    let sink_s = secs(timed.busy());
    let store_in_run = secs(tally.busy());
    let sink = timed.into_inner();
    table.add("simcore.events", sink.events_seen() as f64);
    let t = Instant::now();
    let profile = sink.finish();
    let finish_s = secs(t.elapsed());
    let store_s = secs(tally.busy());

    table.row("simcore (engine self)", run_s - sink_s);
    table.layer("profiler.sink_self_s", sink_s - store_in_run);
    table.layer("profiler.store_s", store_s);
    table.layer("profiler.finish_s", finish_s - (store_s - store_in_run));
    table.add("profiler.store_calls", tally.calls() as f64);
    table.add("profiler.windows_sealed", profile.windows.len() as f64);

    // TpuPoint::analyze: features at construction, OLS and checkpoints,
    // then the Chrome trace and the CSVs.
    let t = Instant::now();
    let analyzer = Analyzer::with_options(&profile, AnalyzerOptions::default());
    let features_s = secs(t.elapsed());
    let t = Instant::now();
    let phases = analyzer.ols_phases(OLS_THRESHOLD);
    let _checkpoints = analyzer.checkpoints_for(&phases);
    let ols_s = secs(t.elapsed());
    let t = Instant::now();
    let create = |name: String| std::fs::File::create(out.join(name));
    analyzer.write_chrome_trace(&phases, create(format!("{}-trace.json", profile.model))?)?;
    analyzer.write_phase_csv(&phases, create(format!("{}-phases.csv", profile.model))?)?;
    analyzer.write_step_csv(create(format!("{}-steps.csv", profile.model))?)?;
    let viz_s = secs(t.elapsed());
    for (name, seconds) in [
        ("analyzer.features_s", features_s),
        ("analyzer.ols_s", ols_s),
        ("analyzer.viz_s", viz_s),
    ] {
        table.layer(name, seconds);
    }
    Ok((profile, secs(t_job.elapsed())))
}
