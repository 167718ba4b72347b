//! The TPUPoint benchmark: three workloads, each timed end to end from
//! outside the program, plus a traced run that times every layer's public
//! entry points and prints a per-layer table.
//!
//! ```text
//! perfbench --workload <batch-profile|fleet-live|analyze-sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md next to this crate
//! for what each workload exercises and which metric each layer moves.

mod batch;
mod fleet;
mod http;
mod layers;
mod stats;
mod sweep;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use layers::LayerTable;
use tpupoint::hw::TpuGeneration;
use tpupoint::workloads::{BuildOptions, WorkloadId};

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

pub const WORKLOADS: &[&str] = &["batch-profile", "fleet-live", "analyze-sweep"];

/// The three paper workloads every benchmark workload draws its jobs
/// from: many windows, host-bound with few windows, most events per step.
pub const MODELS: [WorkloadId; 3] = [
    WorkloadId::ResnetImagenet,
    WorkloadId::DcganMnist,
    WorkloadId::BertMnli,
];

/// The simulation generation every job runs on.
pub const GENERATION: TpuGeneration = TpuGeneration::V2;

/// OLS similarity threshold of `TpuPoint::analyze` (the builder default).
pub const OLS_THRESHOLD: f64 = 0.7;

/// Host slowdown `TpuPoint` charges a job for its profiling thread (the
/// builder default); the chains the traced runs rebuild charge the same.
pub const PROFILING_OVERHEAD: f64 = 0.03;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every job's simulated length; 1 is the benchmark size.
    pub scale: f64,
}

/// What a run hands to its workload: arguments and a scratch directory
/// inside the working directory.
pub struct Ctx {
    pub args: Args,
    pub root: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the run's scratch root.
    pub fn dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// The measured time budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.args.seconds)
    }

    /// Build options for job `index` of model `id` at `size` times its
    /// default simulated length (and `--scale`), seeded from `--seed`.
    pub fn job_options(&self, index: u64, id: WorkloadId, size: f64) -> BuildOptions {
        BuildOptions {
            scale: id.default_sim_scale() * size * self.args.scale,
            seed: self.seed_for(index),
            ..BuildOptions::default()
        }
    }

    /// A seed for item `salt` of this run, derived from `--seed`.
    pub fn seed_for(&self, salt: u64) -> u64 {
        splitmix(self.args.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The end-to-end figures of an untraced run.
pub struct EndToEnd {
    /// Simulated steps carried through the timed path per host second.
    pub steps_per_s: f64,
    /// Resident memory over the timed part.
    pub rss: Rss,
    /// Latency samples, in milliseconds, of the workload's unit operation.
    pub latency_ms: Vec<f64>,
    /// What one latency sample is.
    pub latency_of: &'static str,
}

/// What a workload reports back.
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Set by an untraced run.
    pub e2e: Option<EndToEnd>,
    /// Set by a traced run.
    pub layers: Option<LayerTable>,
    /// The workload's figures under the names the documentation uses
    /// (`analyze_s`, `scrape_p99_ms`, ...), printed for people.
    pub named: Vec<(String, f64, &'static str)>,
}

/// Runs `make` [`SETUP_REPS`] times and keeps the last result; earlier
/// ones go to `discard` outside the timed region. Returns the state and
/// the median set-up time.
pub fn repeated_setup<T>(
    mut make: impl FnMut(usize) -> io::Result<T>,
    mut discard: impl FnMut(T),
) -> io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let state = make(rep)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(state) {
            discard(previous);
        }
    }
    let state = kept.ok_or_else(|| io::Error::other("no set-up ran"))?;
    Ok((state, stats::median(&times)))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--scale" => args.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_owned());
    }
    Ok(args)
}

/// Resident memory over a timed part: a sampler thread reads `VmRSS`
/// every [`RSS_PERIOD`], and the kernel's high-water mark (reset at start,
/// Linux `clear_refs` mode 5) gives the peak. Printed, not gated: see
/// README.md.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

/// How often [`RssSampler`] reads the resident set size.
const RSS_PERIOD: Duration = Duration::from_millis(20);

/// Median and peak resident memory of a timed part, MiB.
pub struct Rss {
    pub median_mib: f64,
    pub peak_mib: f64,
}

impl RssSampler {
    /// Starts sampling; call right before the timed part.
    pub fn start() -> RssSampler {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.extend(status_mib("VmRSS:"));
                std::thread::sleep(RSS_PERIOD);
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling; call right after the timed part.
    pub fn stop(self) -> Rss {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.handle.join().unwrap_or_default();
        samples.extend(status_mib("VmRSS:"));
        Rss {
            median_mib: stats::median(&samples),
            peak_mib: status_mib("VmHWM:").unwrap_or(0.0),
        }
    }
}

/// A `/proc/self/status` size field, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|line| line.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The commit of the working directory, read from `.git` when there is
/// one (the benchmark may run in an exported tree without history).
fn commit() -> String {
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown (no .git in the working directory)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&Path::new(".git").join(reference)) {
        return hash.trim().to_owned();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} not found)"))
}

/// A JSON number: finite values as Rust prints them (shortest exact
/// form), anything else as 0.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn run(ctx: &Ctx) -> io::Result<Outcome> {
    std::fs::create_dir_all(&ctx.root)?;
    // The par pool sizes itself lazily on first use; start it here so no
    // workload pays for it inside its timed part.
    let _ = tpupoint_par::pool();
    match ctx.args.workload.as_str() {
        "batch-profile" => batch::bench(ctx),
        "fleet-live" => fleet::bench(ctx),
        _ => sweep::bench(ctx),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".bench_tmp")
        .join(format!("run-{}", std::process::id()));
    let ctx = Ctx { args, root };

    println!("perfbench: workload {}", ctx.args.workload);
    println!(
        "host: nproc {} | par workers {} | TPUPOINT_THREADS {} | seed {} | seconds {} | scale {} | trace {} | commit {}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
        tpupoint_par::current_threads(),
        std::env::var("TPUPOINT_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        ctx.args.seed,
        ctx.args.seconds,
        ctx.args.scale,
        u8::from(ctx.args.trace),
        commit(),
    );

    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.root);
    let _ = std::fs::remove_dir(ctx.root.parent().unwrap_or(&ctx.root));
    let mut outcome = match result {
        Ok(done) => done,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", ctx.args.workload);
            std::process::exit(1);
        }
    };

    for check in &outcome.checks {
        println!(
            "check {}: {} ({})",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
    let correct = !outcome.checks.is_empty() && outcome.checks.iter().all(|c| c.ok);
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "operations: {} attempted, {} failed, error_rate {error_rate}",
        outcome.attempted, outcome.failed
    );
    for (name, value, unit) in &outcome.named {
        println!("  {name:<28} {value:>14.4} {unit}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if let Some(table) = outcome.layers.as_mut() {
        metrics = table.finish();
        table.print(&ctx.args.workload);
    }
    if let Some(e2e) = &outcome.e2e {
        let samples = &e2e.latency_ms;
        let (q, tail) = stats::tail(samples);
        metrics = vec![
            ("setup_s", outcome.setup_s, "s"),
            ("steps_per_s", e2e.steps_per_s, "1/s"),
            ("latency_p50_ms", stats::median(samples), "ms"),
            ("latency_tail_ms", tail, "ms"),
        ];
        println!("end-to-end ({}):", ctx.args.workload);
        for (name, value, unit) in &metrics {
            println!("  {name:<28} {value:>14.4} {unit}");
        }
        println!(
            "  {:<28} {:>14.4} MiB (not gated)",
            "peak_rss_mib", e2e.rss.peak_mib
        );
        println!(
            "  {:<28} {:>14.4} MiB (not gated)",
            "rss_p50_mib", e2e.rss.median_mib
        );
        println!(
            "  latency is per {}: {} samples; the tail is p{:.1}, {} samples beyond it",
            e2e.latency_of,
            samples.len(),
            100.0 * q,
            stats::beyond(samples, q)
        );
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
