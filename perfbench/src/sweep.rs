//! `analyze-sweep`: the offline TPUPoint-Analyzer over in-memory profiles
//! that set-up captures. Each timed sweep runs features and PCA, the
//! k-means sweep with its elbow and phases, the DBSCAN sweep with its
//! choice and phases, OLS phases, and top operators.

use std::io;
use std::time::Instant;

use tpupoint::analyzer::{dbscan, kmeans, Analyzer, AnalyzerOptions, PhaseSet};
use tpupoint::profiler::Profile;
use tpupoint::workloads::build;
use tpupoint::TpuPoint;

use crate::layers::{par_metrics, secs, LayerTable};
use crate::{
    repeated_setup, stats, Check, Ctx, EndToEnd, Outcome, GENERATION, MODELS, OLS_THRESHOLD,
};

/// Profile length relative to each model's default simulated length. The
/// DBSCAN sweep grows quadratically with steps, so profiles stay at a few
/// thousand steps.
const PROFILE_SIZE: f64 = 1.0;

/// Size of the warm-up profile set-up sweeps, relative to a benchmark
/// profile.
const WARMUP_SIZE: f64 = 0.1;

/// Operators ranked per phase.
const TOP_N: usize = 5;

/// What one sweep decides; a `threads: 1` run must decide the same.
#[derive(Debug, Clone, PartialEq)]
struct Decisions {
    elbow_k: usize,
    kmeans_phases: usize,
    dbscan_min_samples: usize,
    dbscan_phases: usize,
    ols_phases: usize,
}

fn setup(ctx: &Ctx) -> io::Result<Vec<Profile>> {
    let tp = TpuPoint::builder().analyzer(false).build();
    let profile = |i: usize, size: f64| {
        let id = MODELS[i];
        let config = build(id, GENERATION, &ctx.job_options(i as u64, id, size));
        tp.profile(config).map(|run| run.profile)
    };
    // Warm the allocator, the caches and the par pool with one small
    // sweep, so the first timed sweep pays no first-use cost.
    let warm = profile(0, WARMUP_SIZE)?;
    sweep(&warm, AnalyzerOptions::default(), None).map_err(io::Error::other)?;
    (0..MODELS.len())
        .map(|i| profile(i, PROFILE_SIZE))
        .collect()
}

/// Adds the seconds `f` takes to `row` of `table`, when tracing.
fn timed<T>(table: &mut Option<&mut LayerTable>, row: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = f();
    if let Some(table) = table.as_deref_mut() {
        table.layer(row, secs(t.elapsed()));
    }
    value
}

/// The full offline characterization of one profile.
fn sweep(
    profile: &Profile,
    options: AnalyzerOptions,
    mut table: Option<&mut LayerTable>,
) -> Result<Decisions, String> {
    let analyzer = timed(&mut table, "analyzer.features_s", || {
        Analyzer::with_options(profile, options)
    });
    let (elbow_k, kmeans_set) = timed(&mut table, "analyzer.kmeans_sweep_s", || {
        let sweep = analyzer.kmeans_sweep(1..=15);
        let k = kmeans::elbow_k(&sweep).unwrap_or(1);
        (k, analyzer.kmeans_phases(k))
    });
    let (min_samples, dbscan_set) = timed(&mut table, "analyzer.dbscan_sweep_s", || {
        let sweep = analyzer.dbscan_sweep().map_err(|e| e.to_string())?;
        let m = dbscan::elbow_min_samples(&sweep).unwrap_or(1);
        let set = analyzer.dbscan_phases(m).map_err(|e| e.to_string())?;
        Ok::<_, String>((m, set))
    })?;
    let ols_set = timed(&mut table, "analyzer.ols_s", || {
        analyzer.ols_phases(OLS_THRESHOLD)
    });
    timed(&mut table, "analyzer.viz_s", || {
        for set in [&kmeans_set, &dbscan_set, &ols_set] {
            top_ops(&analyzer, set);
        }
    });
    Ok(Decisions {
        elbow_k,
        kmeans_phases: kmeans_set.len(),
        dbscan_min_samples: min_samples,
        dbscan_phases: dbscan_set.len(),
        ols_phases: ols_set.len(),
    })
}

fn top_ops(analyzer: &Analyzer<'_>, set: &PhaseSet) -> usize {
    set.phases
        .iter()
        .map(|phase| {
            let top = analyzer.top_operators(phase, TOP_N);
            top.host.len() + top.tpu.len()
        })
        .sum()
}

/// Compares each profile's decisions with a `threads: 1` run of the same
/// profile. Runs after the timed part; it re-sizes the shared pool.
fn serial_check(profiles: &[Profile], seen: &[Decisions]) -> Check {
    let mut diffs = Vec::new();
    for (profile, decided) in profiles.iter().zip(seen) {
        let serial = sweep(
            profile,
            AnalyzerOptions {
                threads: 1,
                ..AnalyzerOptions::default()
            },
            None,
        );
        if serial.as_ref() != Ok(decided) {
            diffs.push(format!(
                "{}: {decided:?} vs serial {serial:?}",
                profile.model
            ));
        }
    }
    tpupoint_par::set_threads(0);
    Check::new(
        "decisions-equal-serial",
        diffs.is_empty(),
        if diffs.is_empty() {
            format!(
                "elbow k, phase counts and DBSCAN choice equal a threads: 1 run for {} profiles",
                profiles.len()
            )
        } else {
            diffs.join("; ")
        },
    )
}

pub fn bench(ctx: &Ctx) -> io::Result<Outcome> {
    let (profiles, setup_s) = repeated_setup(|_| setup(ctx), drop)?;
    let steps: f64 = profiles.iter().map(|p| p.steps.len() as f64).sum();
    let mut attempted = 0;
    let mut failed = 0;
    let mut rounds: Vec<Vec<Decisions>> = Vec::new();
    // One sweep of every profile; per-profile milliseconds in `ms`.
    let mut round = |table: Option<&mut LayerTable>, ms: &mut Vec<f64>| {
        let mut decided = Vec::new();
        let mut table = table;
        for profile in &profiles {
            let t = Instant::now();
            let result = sweep(profile, AnalyzerOptions::default(), table.as_deref_mut());
            ms.push(secs(t.elapsed()) * 1e3);
            attempted += 1;
            match result {
                Ok(d) => decided.push(d),
                Err(_) => failed += 1,
            }
        }
        decided
    };

    let mut sweep_ms = Vec::new();
    let mut rates = Vec::new();
    let mut round_s = Vec::new();
    let mut layers = None;
    let mut rss = None;
    if ctx.args.trace {
        // Untraced and traced rounds in alternating order until the
        // budget is spent, reported per round.
        let mut table = LayerTable::new();
        let before = tpupoint::obs::metrics().snapshot();
        let start = Instant::now();
        let mut pairs = 0;
        while pairs == 0 || start.elapsed() < ctx.budget() {
            let mut walls = [0.0; 2];
            for traced in [pairs % 2 == 1, pairs % 2 == 0] {
                let t = Instant::now();
                rounds.push(round(traced.then_some(&mut table), &mut sweep_ms));
                walls[usize::from(traced)] = secs(t.elapsed());
            }
            table.walls(walls[1], walls[0]);
            pairs += 1;
        }
        table.per_round(pairs);
        par_metrics(&mut table, &before, 2 * pairs);
        layers = Some(table);
    } else {
        let sampler = crate::RssSampler::start();
        let start = Instant::now();
        while rounds.is_empty() || start.elapsed() < ctx.budget() {
            let t = Instant::now();
            rounds.push(round(None, &mut sweep_ms));
            let took = secs(t.elapsed());
            round_s.push(took);
            rates.push(steps / took);
        }
        rss = Some(sampler.stop());
    }

    let first = rounds.first().cloned().unwrap_or_default();
    let repeat = first.len() == profiles.len() && rounds.iter().all(|r| *r == first);
    let checks = vec![
        Check::new(
            "decisions-repeat",
            repeat,
            format!("{} rounds decide the same for every profile", rounds.len()),
        ),
        serial_check(&profiles, &first),
    ];
    let e2e = rss.map(|rss| EndToEnd {
        steps_per_s: stats::median(&rates),
        rss,
        latency_ms: sweep_ms,
        latency_of: "full sweep of one profile",
    });
    let mut named = vec![
        ("rounds".into(), rounds.len() as f64, "count"),
        ("profile_steps".into(), steps, "count"),
    ];
    if !round_s.is_empty() {
        named.insert(0, ("analyze_s".into(), stats::median(&round_s), "s"));
    }
    Ok(Outcome {
        setup_s,
        attempted,
        failed,
        checks,
        e2e,
        layers,
        named,
    })
}
