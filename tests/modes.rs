//! The mode harness: a profile taken in any execution mode is the profile
//! a serial in-memory batch run takes. One [`Case`] is a point in the
//! product of modes: workload and build seed; pool threads (1/2/4/8);
//! store format; seal lane (inline, or queued on the pool); store faults
//! (none, absorbed by retries, or raw); dropped windows; runner (batch
//! [`TpuPoint::profile`], a hand-wired sink, a fleet job alone, or one
//! beside a faulty neighbour); and an in-process kill point.
//!
//! Every case is checked against one oracle, the serial in-memory batch
//! profile of its workload, seed and drops. A clean or absorbed-fault run
//! returns it, reads back as it, and leaves the bytes of the inline
//! one-thread batch run of its format; a raw-fault run matches that batch
//! run with the same faults, errors included; a killed run keeps every
//! acknowledged record, and what it left is a prefix of the oracle's. The
//! oracle's analysis (analyzer sweeps, streaming timeline, the facade's
//! `threads()` knob) at the case's pool size is the one-thread analysis.
//!
//! [`pinned`] cases always run, and [`RANDOM_CASES`] more are drawn from
//! the whole product with a fixed seed. A failing case prints one line;
//! pasted into [`PINNED`], it replays the case. The pool size is
//! process-global, so cases run one at a time under one lock.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Debug};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};

use tpupoint::analyzer::checkpoint::PhaseCheckpoint;
use tpupoint::analyzer::{replay, AnalyzerOptions, StreamingConfig};
use tpupoint::prelude::*;
use tpupoint::profiler::{
    record_files, recover_records, BinaryStore, BinaryStoreConfig, FaultConfig, FaultStore,
    JsonlStore, PipelineConfig, RecordStore, RetryPolicy, RetryStore, RunRecord, StepRecord,
    StoreFormat, WindowRecord,
};
use tpupoint::runtime::JobPhase;
use tpupoint::sim::SimRng;
use tpupoint::{FleetJobRequest, TpuPointBuilder};

/// Each run's scale, as a fraction of its workload's default.
const SCALE: f64 = 0.05;
/// Small windows and segments, so runs seal and rotate often and the
/// queued lane and kill points see real record traffic.
const WINDOW_EVENTS: u64 = 200;
const SEGMENT_BYTES: u64 = 4 * 1024;
const DROP_PROBABILITY: f64 = 0.2;
/// The profiling overhead every runner charges, the hand-wired one too.
const OVERHEAD: f64 = 0.03;
/// The faulty neighbour: a short job whose store faults with this
/// probability and seed. Two equal jobs, for health attribution, run in
/// `fleet_isolation.rs`.
const NEIGHBOUR: (WorkloadId, f64, u64) = (WorkloadId::BertMrpc, 0.6, 11);
/// The analysis axis analyzes the oracle up to this step: enough for the
/// sweeps to split their work across threads, few enough to stay cheap.
const ANALYZED_STEPS: u64 = 48;
const RANDOM_CASES: usize = 8;
const RANDOM_SEED: u64 = 0x00de_5eed;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    Inline,
    Queued,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    None,
    Absorbed,
    Raw,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Runner {
    Batch,
    Sink,
    Fleet,
    FleetBesideFaulty,
}

const SEEDS: [u64; 3] = [7, 42, 99];
const FORMATS: [StoreFormat; 2] = [StoreFormat::Jsonl, StoreFormat::Binary];
const LANES: [Lane; 2] = [Lane::Inline, Lane::Queued];
const FAULTS: [Faults; 3] = [Faults::None, Faults::Absorbed, Faults::Raw];
const RUNNERS: [Runner; 4] = [
    Runner::Batch,
    Runner::Sink,
    Runner::Fleet,
    Runner::FleetBesideFaulty,
];

#[derive(Debug, Clone, Copy, PartialEq)]
struct Case {
    workload: WorkloadId,
    seed: u64,
    drops: bool,
    threads: usize,
    format: StoreFormat,
    lane: Lane,
    faults: Faults,
    runner: Runner,
    /// Store operations before the store dies, if it does.
    kill: Option<u64>,
}

impl Case {
    /// The case as it can run: a batch run seals inline and a fleet job
    /// queued; a kill point needs the hand-wired sink (and gets absorbed,
    /// not raw, faults), raw faults a runner that returns its profile.
    fn normalized(mut self) -> Case {
        if self.kill.is_some() {
            self.runner = Runner::Sink;
            if self.faults == Faults::Raw {
                self.faults = Faults::Absorbed;
            }
        }
        if self.faults == Faults::Raw && self.runner != Runner::Batch {
            self.runner = Runner::Sink;
        }
        match self.runner {
            Runner::Batch => self.lane = Lane::Inline,
            Runner::Fleet | Runner::FleetBesideFaulty => self.lane = Lane::Queued,
            Runner::Sink => {}
        }
        self
    }

    /// The run whose bytes this case must match: the inline one-thread
    /// batch run of the same format, clean unless faults surface.
    fn reference(&self) -> Case {
        let mut reference = *self;
        (reference.threads, reference.lane, reference.runner) = (1, Lane::Inline, Runner::Batch);
        reference.kill = None;
        if reference.faults == Faults::Absorbed {
            reference.faults = Faults::None;
        }
        reference
    }

    fn config(&self) -> JobConfig {
        let options = BuildOptions {
            scale: self.workload.default_sim_scale() * SCALE,
            seed: self.seed,
            ..BuildOptions::default()
        };
        build(self.workload, TpuGeneration::V2, &options)
    }

    fn options(&self) -> ProfilerOptions {
        ProfilerOptions {
            window_max_events: WINDOW_EVENTS,
            drop_probability: if self.drops { DROP_PROBABILITY } else { 0.0 },
            ..ProfilerOptions::default()
        }
    }

    /// Fault probability, seed and retries when the store faults: enough
    /// retries to absorb every fault, or none, so faults surface.
    fn fault_plan(&self) -> Option<(f64, u64, u32)> {
        match self.faults {
            Faults::None => None,
            Faults::Absorbed => Some((0.3, 21, 10)),
            Faults::Raw => Some((0.4, 9, 0)),
        }
    }

    /// The in-memory profile depends on nothing else.
    fn oracle_key(&self) -> String {
        let workload = self.workload.label().to_ascii_lowercase();
        format!("{workload} seed={} drops={}", self.seed, self.drops)
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kill = self.kill.map_or("none".to_owned(), |ops| ops.to_string());
        let (format, lane, faults, runner) = (self.format, self.lane, self.faults, self.runner);
        write!(f, "{} threads={} ", self.oracle_key(), self.threads)?;
        write!(f, "{format:?} {lane:?} faults={faults:?} ")?;
        write!(f, "{runner:?} kill={kill}")
    }
}

/// The value of `all` named `name` by its `Debug` form.
fn named<T: Debug + Copy>(all: &[T], name: &str) -> Result<T, String> {
    let mut values = all.iter().copied();
    let found = values.find(|value| format!("{value:?}") == name);
    found.ok_or_else(|| format!("{name:?} is none of {all:?}"))
}

/// The value of a `key=value` token, parsed.
fn value<T: FromStr<Err: Debug>>(token: &str, key: &str) -> Result<T, String> {
    match token.split_once('=') {
        Some((k, value)) if k == key => value.parse().map_err(|err| format!("{token}: {err:?}")),
        _ => Err(format!("expected {key}=… in {token:?}")),
    }
}

impl FromStr for Case {
    type Err = String;

    fn from_str(line: &str) -> Result<Case, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let [workload, seed, drops, threads, format, lane, faults, runner, kill] = tokens[..]
        else {
            return Err(format!("a case line has nine fields: {line:?}"));
        };
        let case = Case {
            workload: workload.parse().map_err(|err| format!("{err}"))?,
            seed: value(seed, "seed")?,
            drops: value(drops, "drops")?,
            threads: value(threads, "threads")?,
            format: named(&FORMATS, format)?,
            lane: named(&LANES, lane)?,
            faults: named(&FAULTS, &value::<String>(faults, "faults")?)?,
            runner: named(&RUNNERS, runner)?,
            kill: match kill {
                "kill=none" => None,
                _ => Some(value(kill, "kill")?),
            },
        };
        Ok(case.normalized())
    }
}

/// Cases run beside the suite sweep of [`pinned`]: what the per-mode
/// suites before this harness pinned, and any line a failure printed.
const PINNED: &[&str] = &[
    // A served job, alone or beside a faulty tenant, records the batch bytes.
    "bert-mrpc seed=42 drops=false threads=4 Binary Queued faults=None Fleet kill=none",
    "bert-mrpc seed=42 drops=false threads=2 Binary Queued faults=None FleetBesideFaulty kill=none",
    "bert-mrpc seed=42 drops=false threads=4 Jsonl Queued faults=Absorbed Fleet kill=none",
    // Absorbed faults and dropped windows read back exactly.
    "dcgan-mnist seed=7 drops=true threads=1 Binary Inline faults=Absorbed Batch kill=none",
    // Seeded faults replay on the queued lane, absorbed or raw, in both formats.
    "dcgan-cifar10 seed=7 drops=false threads=4 Binary Queued faults=Absorbed Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=4 Binary Queued faults=Raw Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=2 Jsonl Queued faults=Absorbed Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=8 Jsonl Queued faults=Raw Sink kill=none",
    // Either lane in either format, and the analysis, at every pool size.
    "dcgan-cifar10 seed=7 drops=false threads=2 Binary Queued faults=None Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=8 Binary Queued faults=None Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=1 Jsonl Inline faults=None Batch kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=4 Jsonl Queued faults=None Sink kill=none",
    "dcgan-cifar10 seed=7 drops=false threads=8 Jsonl Inline faults=None Batch kill=none",
    "bert-mrpc seed=7 drops=false threads=2 Binary Inline faults=None Batch kill=none",
    "bert-mrpc seed=7 drops=false threads=8 Binary Queued faults=None Sink kill=none",
    // Kill points on either lane and format, early and late.
    "dcgan-cifar10 seed=7 drops=false threads=4 Binary Queued faults=None Sink kill=3",
    "dcgan-cifar10 seed=7 drops=false threads=4 Binary Queued faults=Absorbed Sink kill=60",
    "dcgan-cifar10 seed=7 drops=false threads=1 Binary Inline faults=None Sink kill=150",
    "dcgan-cifar10 seed=7 drops=false threads=2 Jsonl Queued faults=None Sink kill=40",
    "dcgan-cifar10 seed=7 drops=true threads=1 Jsonl Inline faults=None Sink kill=0",
];

/// Every workload batch and queued at one and four threads, then [`PINNED`].
fn pinned() -> Vec<Case> {
    let mut lines = Vec::new();
    for threads in [1, 4] {
        for workload in WorkloadId::all().map(|id| id.label().to_ascii_lowercase()) {
            let head = format!("{workload} seed=7 drops=false threads={threads} Binary");
            lines.push(format!("{head} Inline faults=None Batch kill=none"));
            lines.push(format!("{head} Queued faults=None Sink kill=none"));
        }
    }
    lines.extend(PINNED.iter().map(|line| line.to_string()));
    let parse = |line: &String| line.parse().unwrap_or_else(|err| panic!("{err}"));
    lines.iter().map(parse).collect()
}

fn random_cases() -> Vec<Case> {
    let mut rng = SimRng::seed_from(RANDOM_SEED);
    let mut pick = |len: usize| rng.uniform_u64(0, len as u64 - 1) as usize;
    let workloads = WorkloadId::all();
    let mut case = || Case {
        workload: workloads[pick(workloads.len())],
        seed: SEEDS[pick(SEEDS.len())],
        drops: pick(2) == 1,
        threads: 1 << pick(4),
        format: FORMATS[pick(FORMATS.len())],
        lane: LANES[pick(LANES.len())],
        faults: FAULTS[pick(FAULTS.len())],
        runner: RUNNERS[pick(RUNNERS.len())],
        kill: (pick(2) == 1).then(|| pick(1200) as u64),
    };
    (0..RANDOM_CASES).map(|_| case().normalized()).collect()
}

/// Leaks its store after `ops_left` operations, as a `kill -9` would:
/// nothing later reaches the disk or is flushed, sealed or dropped. Later
/// operations report success, so the sink never learns of the kill.
struct KillAfter {
    store: Option<Box<dyn RecordStore + Send>>,
    ops_left: u64,
}

impl KillAfter {
    /// Applies one operation to the store, if it still lives.
    fn apply<R>(&mut self, op: impl FnOnce(&mut dyn RecordStore) -> R) -> Option<R> {
        if self.ops_left == 0 {
            std::mem::forget(self.store.take());
        }
        self.ops_left = self.ops_left.saturating_sub(1);
        self.store.as_deref_mut().map(|store| op(store))
    }
}

impl RecordStore for KillAfter {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        self.apply(|store| store.put_step(record)).unwrap_or(Ok(()))
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        self.apply(|store| store.put_window(record))
            .unwrap_or(Ok(()))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.apply(|store| store.flush()).unwrap_or(Ok(()))
    }

    fn seal(&mut self) -> io::Result<()> {
        self.apply(|store| store.seal()).unwrap_or(Ok(()))
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.apply(|store| store.set_meta(model, dataset));
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.apply(|store| store.set_catalog(names, uses_mxu, on_host));
    }

    fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
        self.apply(|store| store.put_run(run)).unwrap_or(Ok(()))
    }
}

/// What one run left: its report and profile (a fleet job returns only
/// its live checkpoint count) and its record directory.
struct Run {
    profiled: Option<ProfiledRun>,
    live_checkpoints: Option<u64>,
    records: PathBuf,
}

fn run(case: &Case, dir: &Path) -> io::Result<Run> {
    tpupoint_par::set_threads(case.threads);
    let mut run = Run {
        profiled: None,
        live_checkpoints: None,
        records: dir.join("records"),
    };
    match case.runner {
        Runner::Batch => {
            let mut builder = builder(case, dir);
            if let Some((probability, seed, retries)) = case.fault_plan() {
                builder = builder.store_fault(probability, seed);
                builder = builder.store_retries(retries);
            }
            run.profiled = Some(builder.build().profile(case.config())?);
        }
        Runner::Sink => run.profiled = Some(hand_wired(case, &run.records)?),
        Runner::Fleet | Runner::FleetBesideFaulty => {
            run.live_checkpoints = Some(served(case, dir)?);
            run.records = dir.join("jobs/steady/records");
        }
    }
    Ok(run)
}

fn builder(case: &Case, dir: &Path) -> TpuPointBuilder {
    TpuPoint::builder()
        .analyzer(true)
        .output_dir(dir)
        .profiling_overhead(OVERHEAD)
        .profiler_options(case.options())
        .store_format(case.format)
        .store_segment_bytes(SEGMENT_BYTES)
}

/// The facade's store chain and overhead, wired by hand onto the case's
/// seal lane, with the kill point innermost.
fn hand_wired(case: &Case, records: &Path) -> io::Result<ProfiledRun> {
    let mut store: Box<dyn RecordStore + Send> = match case.format {
        StoreFormat::Jsonl => Box::new(JsonlStore::create(records)?),
        StoreFormat::Binary => {
            let config = BinaryStoreConfig {
                segment_bytes: SEGMENT_BYTES,
                ..BinaryStoreConfig::default()
            };
            Box::new(BinaryStore::with_config(records, config)?)
        }
    };
    if let Some(ops_left) = case.kill {
        store = Box::new(KillAfter {
            store: Some(store),
            ops_left,
        });
    }
    let mut max_retries = RetryPolicy::default().max_retries;
    if let Some((error_probability, seed, retries)) = case.fault_plan() {
        let config = FaultConfig {
            error_probability,
            seed,
            ..FaultConfig::default()
        };
        store = Box::new(FaultStore::new(store, config));
        max_retries = retries;
    }
    if max_retries > 0 {
        let policy = RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        };
        store = Box::new(RetryStore::with_policy(store, policy));
    }
    let mut config = case.config();
    config.host_overhead_frac += OVERHEAD;
    let job = TrainingJob::new(config);
    let (catalog, options) = (job.catalog().clone(), case.options());
    let mut sink = match case.lane {
        Lane::Inline => ProfilerSink::with_store(catalog, options, store),
        Lane::Queued => {
            ProfilerSink::with_pipelined_store(catalog, options, store, PipelineConfig::default())
        }
    };
    sink.set_source(&job.config().model, &job.config().dataset.name);
    let report = job.run(&mut sink);
    let profile = sink.finish();
    Ok(ProfiledRun { report, profile })
}

/// Serves the case's job as fleet job `steady`, beside the faulty
/// [`NEIGHBOUR`] `noisy` when the runner says so; returns the job's live
/// checkpoint count.
fn served(case: &Case, dir: &Path) -> io::Result<u64> {
    let mut builder = builder(case, dir).serve("127.0.0.1:0").serve_pace_us(0);
    let mut steady = FleetJobRequest::new(case.config()).id("steady");
    if let Some((probability, seed, retries)) = case.fault_plan() {
        builder = builder.store_retries(retries);
        steady = steady.store_fault(probability, seed);
    }
    let session = builder.serve_real_backoff(false).build().serve_fleet()?;
    session.submit(steady).map_err(io::Error::other)?;
    if case.runner == Runner::FleetBesideFaulty {
        let (workload, probability, seed) = NEIGHBOUR;
        let noisy = FleetJobRequest::new(Case { workload, ..*case }.config());
        let noisy = noisy.id("noisy").store_fault(probability, seed);
        session.submit(noisy).map_err(io::Error::other)?;
    }
    session.wait_jobs_idle();
    session.request_quit();
    match session.wait()?.into_iter().find(|job| job.id == "steady") {
        Some(job) if job.phase == JobPhase::Completed => Ok(job.checkpoints),
        job => Err(io::Error::other(format!("steady job ended as {job:?}"))),
    }
}

/// Everything the analysis of one profile yields at one pool size.
#[derive(Debug, PartialEq)]
struct Analysis {
    kmeans_sweep: Vec<(usize, f64)>,
    kmeans_phases: PhaseSet,
    dbscan_sweep: Vec<(usize, f64, usize)>,
    dbscan_phases: PhaseSet,
    /// The replay's `/phases` JSON, per-step labels and stability latch.
    timeline: (String, Vec<(u64, usize)>, Option<u64>),
    /// The facade's OLS phases and their checkpoints.
    facade: (PhaseSet, Vec<Option<PhaseCheckpoint>>),
}

fn analyze(profile: &Profile, threads: usize) -> Analysis {
    let analyzer = Analyzer::with_options(profile, AnalyzerOptions { threads });
    let kmeans_sweep = analyzer.kmeans_sweep(1..=8);
    tpupoint_par::set_threads(threads);
    let streaming = replay(profile, StreamingConfig::default());
    let labels = streaming.analyzer.assignments().iter();
    let timeline = (
        streaming.analyzer.report().to_json(),
        labels.map(|(&step, &label)| (step, label)).collect(),
        streaming.stable_at_step,
    );
    let facade = TpuPoint::builder().analyzer(false).threads(threads).build();
    let facade = facade.analyze(profile).expect("in-memory analysis");
    Analysis {
        kmeans_sweep,
        kmeans_phases: analyzer.kmeans_phases(5),
        dbscan_sweep: analyzer.dbscan_sweep().expect("within limits"),
        dbscan_phases: analyzer.dbscan_phases(30).expect("within limits"),
        timeline,
        facade: (facade.ols_phases, facade.phase_checkpoints),
    }
}

/// Fails the check with a message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// Checks `got` against `want`; a mismatch names the top-level field of
/// the first differing line of their pretty `Debug` forms.
fn same_profile(got: &Profile, want: &Profile, what: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let (got, want) = (format!("{got:#?}"), format!("{want:#?}"));
    let at = got.lines().zip(want.lines()).position(|(a, b)| a != b);
    let lines = got.lines().take(at.map_or(usize::MAX, |at| at + 1));
    let field = lines.filter(|line| line.starts_with("    ") && !line.starts_with("     "));
    let field = field.last().unwrap_or("its length");
    Err(format!("{what} differs in {field:?}"))
}

type Files = BTreeMap<String, Vec<u8>>;

/// The record files of a run, which must hold records beside the manifest.
fn files(run: &Run) -> Result<Files, String> {
    let files = record_files(&run.records).map_err(|err| err.to_string())?;
    let sealed = files.contains_key("manifest.json") && files.len() > 1;
    ensure!(sealed, "no records beside the manifest");
    Ok(files)
}

fn same_files(got: &Files, want: &Files) -> Result<(), String> {
    let names = |files: &Files| files.keys().cloned().collect::<Vec<_>>();
    ensure!(names(got) == names(want), "files {:?}", names(got));
    let differing = got.keys().find(|name| got[*name] != want[*name]);
    differing.map_or(Ok(()), |name| Err(format!("{name} is not the reference's")))
}

/// A killed run loses no acknowledged record, and every record it left
/// is the oracle's: its windows are the oracle's first windows, and its
/// numbered steps the oracle's first numbered steps (step 0 is written at
/// finish, after them). Whole-profile prefix equality waits on ROADMAP
/// item 10: a torn directory has no run record, so it loses its
/// checkpoints and counts.
fn check_killed(run: &Run, oracle: &Profile) -> Result<(), String> {
    let summary = match recover_records(&run.records) {
        Ok(summary) => summary,
        // Killed before its first write, a store leaves nothing to read.
        Err(_) if record_files(&run.records).is_ok_and(|f| f.is_empty()) => return Ok(()),
        Err(err) => return Err(format!("recovery failed: {err}")),
    };
    let missing = summary.missing_acknowledged();
    ensure!(missing == (0, 0), "acknowledged records lost: {missing:?}");
    let windows = oracle.windows.starts_with(&summary.windows);
    ensure!(windows, "the windows are not the oracle's");
    let (zero, steps): (Vec<&StepRecord>, Vec<_>) = summary.steps.iter().partition(|r| r.step == 0);
    let oracle_steps = oracle.steps.iter().filter(|r| r.step > 0);
    let prefix = oracle_steps.take(steps.len()).eq(steps);
    ensure!(prefix, "the steps are not a prefix of the oracle's");
    let zero_is_oracles = zero.iter().all(|&r| oracle.steps.first() == Some(r));
    ensure!(zero_is_oracles, "step 0 is not the oracle's");
    Ok(())
}

/// The oracles, reference runs and analyses the cases are checked
/// against, each computed once.
#[derive(Default)]
struct Harness {
    oracles: HashMap<String, Arc<ProfiledRun>>,
    /// Each reference run's profile and record bytes.
    references: HashMap<String, Arc<(Profile, Files)>>,
    analyses: HashMap<String, Arc<Analysis>>,
    runs: u64,
}

impl Harness {
    fn scratch(&mut self) -> PathBuf {
        self.runs += 1;
        let dir = format!("tpupoint-modes-{}-{}", std::process::id(), self.runs);
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn oracle(&mut self, case: &Case) -> Arc<ProfiledRun> {
        let oracle = self.oracles.entry(case.oracle_key()).or_insert_with(|| {
            tpupoint_par::set_threads(1);
            let tp = TpuPoint::builder().analyzer(false);
            let tp = tp.profiling_overhead(OVERHEAD);
            let tp = tp.profiler_options(case.options()).build();
            Arc::new(tp.profile(case.config()).expect("a profile"))
        });
        Arc::clone(oracle)
    }

    fn reference(&mut self, case: &Case) -> Result<Arc<(Profile, Files)>, String> {
        let key = case.reference().to_string();
        if let Some(found) = self.references.get(&key) {
            return Ok(Arc::clone(found));
        }
        let dir = self.scratch();
        let run = run(&case.reference(), &dir).map_err(|err| format!("{key}: {err}"))?;
        let profile = run.profiled.as_ref().expect("a batch run").profile.clone();
        let found = Arc::new((profile, files(&run)?));
        let _ = std::fs::remove_dir_all(&dir);
        self.references.insert(key, Arc::clone(&found));
        Ok(found)
    }

    fn analysis(&mut self, profile: &Profile, key: &str, threads: usize) -> Arc<Analysis> {
        let analysis = self.analyses.entry(format!("{key} threads={threads}"));
        Arc::clone(analysis.or_insert_with(|| Arc::new(analyze(profile, threads))))
    }

    fn check(&mut self, case: &Case) -> Result<(), String> {
        let (oracle_run, dir) = (self.oracle(case), self.scratch());
        let oracle = &oracle_run.profile;
        let run = run(case, &dir).map_err(|err| format!("run failed: {err}"))?;
        if let Some(profiled) = &run.profiled {
            ensure!(
                profiled.report == oracle_run.report,
                "the run report differs"
            );
            let mut profile = profiled.profile.clone();
            if case.faults == Faults::Raw {
                (profile.store_errors, profile.store_error) = (0, None);
            }
            same_profile(&profile, oracle, "the run")?;
        }
        if case.kill.is_some() {
            check_killed(&run, oracle)?;
        } else if case.faults == Faults::Raw {
            let reference = self.reference(case)?;
            let profile = &run.profiled.as_ref().expect("a raw-fault run").profile;
            ensure!(profile.store_errors > 0, "the raw faults never surfaced");
            same_profile(profile, &reference.0, "the raw-fault run")?;
            same_files(&files(&run)?, &reference.1)?;
        } else {
            let summary = recover_records(&run.records).map_err(|err| err.to_string())?;
            let whole = summary.sealed_files && !summary.is_torn();
            ensure!(whole, "the records are torn");
            same_profile(&summary.to_profile(), oracle, "the records")?;
            let marked = !oracle.windows.is_empty() && !oracle.checkpoints.is_empty();
            ensure!(marked, "no windows or checkpoints to read back");
            ensure!(
                !case.drops || oracle.dropped_windows > 0,
                "no window dropped"
            );
            let want = oracle.checkpoints.len() as u64;
            let live = run.live_checkpoints.unwrap_or(want);
            ensure!(live == want, "{live} checkpoints live, not {want}");
            same_files(&files(&run)?, &self.reference(case)?.1)?;
        }
        if case.threads > 1 {
            let (key, prefix) = (case.oracle_key(), oracle.prefix_through(ANALYZED_STEPS));
            let serial = self.analysis(&prefix, &key, 1);
            let assigned = serial.timeline.1.len() == prefix.steps.len();
            ensure!(assigned, "the replay left steps unassigned");
            let noise = serial.dbscan_sweep.windows(2);
            let monotone = noise.into_iter().all(|w| w[1].1 >= w[0].1 - 1e-9);
            ensure!(monotone, "the DBSCAN noise ratio fell as min-samples grew");
            let wide = self.analysis(&prefix, &key, case.threads);
            ensure!(serial == wide, "the analysis differs from one thread's");
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// Checks every case in turn under the one harness lock; the first
/// failure panics with its case line.
fn check_all(cases: &[Case]) {
    static HARNESS: OnceLock<Mutex<Harness>> = OnceLock::new();
    let harness = HARNESS.get_or_init(Mutex::default).lock();
    let mut harness = harness.unwrap_or_else(|poisoned| poisoned.into_inner());
    for case in cases {
        let why = match std::panic::catch_unwind(AssertUnwindSafe(|| harness.check(case))) {
            Ok(Ok(())) => continue,
            Ok(Err(why)) => why,
            Err(_) => "the case panicked (see above)".to_owned(),
        };
        tpupoint_par::set_threads(0);
        let replay = format!("replay it by adding this line to PINNED:\n    \"{case}\",");
        panic!("mode case failed: {why}\n{replay}");
    }
    tpupoint_par::set_threads(0);
}

#[test]
fn pinned_cases_match_the_serial_oracle() {
    check_all(&pinned());
}

#[test]
fn random_cases_match_the_serial_oracle() {
    check_all(&random_cases());
}

#[test]
fn a_case_line_replays_its_case() {
    for case in pinned().into_iter().chain(random_cases()) {
        assert_eq!(case.to_string().parse(), Ok(case), "{case}");
    }
}
