//! Recording backends for profile records.
//!
//! The paper's profiler either buffers records in host memory (optimizer
//! mode) or has a recording thread persist them to Cloud Storage (analyzer
//! mode). [`InMemoryStore`] and [`JsonlStore`] are those two backends; the
//! JSONL files stand in for the Storage Bucket.
//!
//! # Crash tolerance
//!
//! [`JsonlStore`] streams records into `steps.jsonl.part` and
//! `windows.jsonl.part` while the run is live, tracking the acknowledged
//! (flushed) counts in a small `manifest.json` that is always replaced
//! atomically (written to `manifest.json.part`, then renamed). A clean
//! shutdown calls [`RecordStore::seal`], which renames the `.part` record
//! files to their final names and marks the manifest sealed. After a crash
//! (`kill -9` mid-write) the directory holds a torn `.part` stream; every
//! loader here recovers the valid record prefix past the torn tail instead
//! of failing the whole load, and [`JsonlStore::recover`] cross-checks the
//! manifest so callers can tell "everything acknowledged survived" from
//! "N acknowledged records are missing".
//!
//! Resilience decorators (bounded retry with deterministic backoff,
//! spill-to-memory, fault injection) live in [`crate::resilience`].

use crate::profile::Profile;
use crate::record::{RunRecord, StepRecord};
use crate::window::WindowRecord;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tpupoint_simcore::OpId;

/// Op ids [`RecoverySummary::to_profile`] keeps for a stream whose
/// manifest has no catalog: ids at or past it are dropped as corrupt.
/// The largest workload catalog is a few hundred ops, and 65,536
/// `op<N>` placeholders cost about 1 MB.
pub const MAX_UNCATALOGED_OPS: u32 = 1 << 16;

/// Destination for sealed profile records.
pub trait RecordStore {
    /// Persists one step record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backing medium.
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()>;

    /// Persists one window record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backing medium.
    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()>;

    /// Flushes buffered writes. After a successful flush every record put
    /// so far counts as *acknowledged*: it must survive a crash of the
    /// writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backing medium.
    fn flush(&mut self) -> io::Result<()>;

    /// Flushes and marks the record stream complete (a clean shutdown).
    /// Defaults to [`RecordStore::flush`] for backends with no notion of
    /// sealing.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backing medium.
    fn seal(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// Labels the stream with its source model/dataset (informational;
    /// defaults to a no-op).
    fn set_meta(&mut self, _model: &str, _dataset: &str) {}

    /// Persists the op-name catalog alongside the records, so a crashed
    /// run can be recovered with real operator names instead of `op<N>`
    /// placeholders. Defaults to a no-op for backends with no sidecar
    /// metadata.
    fn set_catalog(&mut self, _names: &[String], _uses_mxu: &[bool], _on_host: &[bool]) {}

    /// Persists the run record: the sink sends it once, at finish, after
    /// every step and window record and before [`RecordStore::seal`].
    /// Defaults to a no-op for backends that keep no run record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backing medium.
    fn put_run(&mut self, _run: &RunRecord) -> io::Result<()> {
        Ok(())
    }

    /// Redirects this store's self-observability series into `metrics`
    /// instead of the process-wide registry. The fleet layer gives every
    /// job its own registry so degradations attribute to the tenant that
    /// suffered them; decorators rebind their handles and forward to the
    /// wrapped store. Defaults to a no-op for backends with no metrics.
    fn use_registry(&mut self, _metrics: &tpupoint_obs::Metrics) {}
}

macro_rules! impl_record_store_for_box {
    ($ty:ty) => {
        impl RecordStore for $ty {
            fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
                (**self).put_step(record)
            }

            fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
                (**self).put_window(record)
            }

            fn flush(&mut self) -> io::Result<()> {
                (**self).flush()
            }

            fn seal(&mut self) -> io::Result<()> {
                (**self).seal()
            }

            fn set_meta(&mut self, model: &str, dataset: &str) {
                (**self).set_meta(model, dataset);
            }

            fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
                (**self).set_catalog(names, uses_mxu, on_host);
            }

            fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
                (**self).put_run(run)
            }

            fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
                (**self).use_registry(metrics);
            }
        }
    };
}

impl_record_store_for_box!(Box<dyn RecordStore>);
// The `+ Send` trait object is what the queued seal lane hands to
// pool workers; see [`crate::pipeline`].
impl_record_store_for_box!(Box<dyn RecordStore + Send>);

/// Buffers records in memory (the profiler's optimizer mode).
#[derive(Debug, Default)]
pub struct InMemoryStore {
    steps: Vec<StepRecord>,
    windows: Vec<WindowRecord>,
}

impl InMemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored step records.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Stored window records.
    pub fn windows(&self) -> &[WindowRecord] {
        &self.windows
    }
}

impl RecordStore for InMemoryStore {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        self.steps.push(record.clone());
        Ok(())
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        self.windows.push(record.clone());
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// On-disk record encodings a record directory can hold. Both formats
/// share the manifest, the `.part`-then-rename sealing discipline, and the
/// acknowledged-prefix recovery contract; [`recover_records`] picks the
/// right loader from what is on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreFormat {
    /// One JSON object per line (`steps.jsonl` / `windows.jsonl`): the
    /// human-readable opt-in.
    Jsonl,
    /// Length-prefixed checksummed binary segments (`seg-*.bin`); see
    /// [`crate::binfmt`] and [`crate::segstore::BinaryStore`]. The
    /// default: smaller and cheaper to write than JSON lines.
    #[default]
    Binary,
}

impl StoreFormat {
    /// Canonical CLI/manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreFormat::Jsonl => "jsonl",
            StoreFormat::Binary => "binary",
        }
    }
}

impl std::fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for StoreFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(StoreFormat::Jsonl),
            "binary" => Ok(StoreFormat::Binary),
            other => Err(format!(
                "unknown store format {other:?} (expected jsonl or binary)"
            )),
        }
    }
}

/// Accounting for one sealed binary segment file, carried in the manifest.
/// The manifest's segment list is the authoritative set *and order* of
/// sealed segments: rotation appends to it before renaming the segment
/// into place, and retention drops from it before deleting the file —
/// recovery ignores segment files the manifest does not name.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name within the record directory (e.g. `seg-000002.bin`).
    #[serde(default)]
    pub name: String,
    /// Step records the segment holds.
    #[serde(default)]
    pub steps: u64,
    /// Window records the segment holds.
    #[serde(default)]
    pub windows: u64,
    /// File size in bytes, counted against the retention budget.
    #[serde(default)]
    pub bytes: u64,
}

/// Sidecar metadata of a record directory, replaced atomically on
/// every flush. The flushed counts are the store's acknowledgement
/// watermark: records beyond them were never guaranteed durable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Model of the recorded run, when the profiler labeled it.
    #[serde(default)]
    pub model: String,
    /// Dataset of the recorded run.
    #[serde(default)]
    pub dataset: String,
    /// Step records acknowledged (written and flushed).
    #[serde(default)]
    pub steps_flushed: u64,
    /// Window records acknowledged.
    #[serde(default)]
    pub windows_flushed: u64,
    /// Whether the stream was sealed by a clean shutdown.
    #[serde(default)]
    pub sealed: bool,
    /// Op names indexed by op id, persisted so recovery can label the
    /// records of a crashed run. Empty for streams written before the
    /// catalog was recorded.
    #[serde(default)]
    pub op_names: Vec<String>,
    /// Whether each op drives the MXUs, indexed like `op_names`.
    #[serde(default)]
    pub op_uses_mxu: Vec<bool>,
    /// Whether each op was observed on the host side, indexed like
    /// `op_names`.
    #[serde(default)]
    pub op_on_host: Vec<bool>,
    /// Record encoding of the directory: `"binary"` for segment streams,
    /// empty (the pre-format default) or `"jsonl"` for JSON lines.
    #[serde(default)]
    pub format: String,
    /// Sealed binary segments in record order. Empty for JSONL streams.
    #[serde(default)]
    pub segments: Vec<SegmentMeta>,
    /// Acknowledged step records deliberately dropped by the retention
    /// tier. Retired records are accounted, never silently lost:
    /// [`RecoverySummary::missing_acknowledged`] subtracts them.
    #[serde(default)]
    pub steps_retired: u64,
    /// Acknowledged window records dropped by retention.
    #[serde(default)]
    pub windows_retired: u64,
    /// The run record of a JSONL stream. Binary streams carry theirs as
    /// the last segment frame instead and leave this empty.
    #[serde(default)]
    pub run: Option<RunRecord>,
}

/// One tolerant JSONL load: the valid record prefix plus how many trailing
/// lines (torn or corrupt) were skipped to obtain it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLoad<T> {
    /// Records parsed from the valid prefix.
    pub records: Vec<T>,
    /// Non-empty lines skipped after the first malformed one.
    pub skipped_lines: usize,
}

/// Everything salvageable from a record directory, together with the
/// accounting needed to say what (if anything) was lost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySummary {
    /// Recovered step records, sorted by step number.
    pub steps: Vec<StepRecord>,
    /// Recovered window records, sorted by window index.
    pub windows: Vec<WindowRecord>,
    /// Torn/corrupt step lines skipped at the tail.
    pub skipped_step_lines: usize,
    /// Torn/corrupt window lines skipped at the tail.
    pub skipped_window_lines: usize,
    /// The manifest, when one survived.
    pub manifest: Option<StoreManifest>,
    /// The run record, when the writer got as far as persisting it.
    pub run: Option<RunRecord>,
    /// True when the sealed (renamed) record files were found; false when
    /// recovery had to read the in-progress `.part` stream of a crashed
    /// writer.
    pub sealed_files: bool,
}

impl RecoverySummary {
    /// Acknowledged records the recovery could NOT produce:
    /// `(missing_steps, missing_windows)` relative to the manifest's
    /// flushed counts. Zero means every acknowledged record survived; the
    /// unacknowledged suffix (post-last-flush) is not counted because the
    /// store never promised it.
    /// Records retired by the retention tier are subtracted first: they
    /// were dropped *with accounting*, which is not a loss.
    pub fn missing_acknowledged(&self) -> (u64, u64) {
        match &self.manifest {
            Some(m) => (
                m.steps_flushed
                    .saturating_sub(m.steps_retired)
                    .saturating_sub(self.steps.len() as u64),
                m.windows_flushed
                    .saturating_sub(m.windows_retired)
                    .saturating_sub(self.windows.len() as u64),
            ),
            None => (0, 0),
        }
    }

    /// True when any line had to be skipped or any acknowledged record is
    /// missing — i.e. the directory was left by a crashed writer.
    pub fn is_torn(&self) -> bool {
        let (ms, mw) = self.missing_acknowledged();
        self.skipped_step_lines > 0 || self.skipped_window_lines > 0 || ms > 0 || mw > 0
    }

    /// [`RecoverySummary::into_profile`] of a copy of the summary, for a
    /// caller that keeps the summary.
    pub fn to_profile(&self) -> Profile {
        self.clone().into_profile()
    }

    /// Reconstructs the [`Profile`] from the recovered records, moving
    /// them into it. For a sealed directory with its run record it is
    /// exactly the profile the run returned; for a torn one it is a best
    /// effort, good enough for the analyzer to cluster phases.
    ///
    /// The op catalog comes from the manifest when the writer persisted
    /// one ([`RecordStore::set_catalog`]); for streams recorded before the
    /// catalog was stored, ops fall back to `op<N>` placeholders. Op ids
    /// are bounded, because record files are external input and one
    /// corrupt id must not size the op table: an id at or past the
    /// catalog, or past [`MAX_UNCATALOGED_OPS`] without one, is dropped
    /// from its step and its invocations are counted in `lost_events`.
    /// Marks, checkpoints and the loss and store-error counts come from
    /// the run record. Without one, checkpoints and counts are zero, and
    /// step marks are synthesized from the step records themselves (every
    /// step's last event end); when three or more records survive, the
    /// highest step is treated as the session-shutdown record, mirroring a
    /// live profile's shape.
    ///
    /// Its wall time is the `store.to_profile` span and the
    /// `store.to_profile_us` histogram.
    pub fn into_profile(self) -> Profile {
        let _span = tpupoint_obs::span!("store.to_profile", steps = self.steps.len());
        let started = Instant::now();
        let manifest = self.manifest.unwrap_or_default();
        let bound = match manifest.op_names.len() {
            0 => MAX_UNCATALOGED_OPS,
            n => u32::try_from(n).unwrap_or(u32::MAX),
        };
        let run = self.run.unwrap_or_else(|| {
            let shutdown_step = if self.steps.len() >= 3 {
                self.steps.iter().map(|r| r.step).max().unwrap_or(0)
            } else {
                u64::MAX
            };
            RunRecord {
                step_marks: self
                    .steps
                    .iter()
                    .filter(|r| r.step > 0 && r.step < shutdown_step)
                    .map(|r| (r.step, r.last_end))
                    .collect(),
                ..RunRecord::default()
            }
        });
        let mut lost_events = 0u64;
        let steps: Vec<StepRecord> = self
            .steps
            .into_iter()
            .map(|mut r| {
                for stats in r.ops.split_off(&OpId(bound)).values() {
                    lost_events = lost_events.saturating_add(stats.count);
                }
                r
            })
            .collect();
        let op_count = steps
            .iter()
            .filter_map(|r| r.ops.keys().next_back())
            .map(|op| op.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let op_count = op_count.max(manifest.op_names.len());
        let mut op_names = manifest.op_names;
        for i in op_names.len()..op_count {
            op_names.push(format!("op{i}"));
        }
        let mut op_uses_mxu = manifest.op_uses_mxu;
        op_uses_mxu.resize(op_count, false);
        let mut op_on_host = manifest.op_on_host;
        op_on_host.resize(op_count, true);
        let profile = Profile {
            model: manifest.model,
            dataset: manifest.dataset,
            op_names,
            op_uses_mxu,
            op_on_host,
            steps,
            windows: self.windows,
            step_marks: run.step_marks,
            checkpoints: run.checkpoints,
            dropped_windows: run.dropped_windows,
            lost_events: run.lost_events.saturating_add(lost_events),
            store_errors: run.store_errors,
            store_error: run.store_error,
        };
        record_us("store.to_profile_us", started);
        profile
    }
}

/// Records the microseconds since `started` into histogram `name`.
fn record_us(name: &str, started: Instant) {
    let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    tpupoint_obs::metrics().histogram(name).record(us);
}

/// Streams records as JSON lines into `<dir>/steps.jsonl.part` and
/// `<dir>/windows.jsonl.part` (the profiler's analyzer mode), sealing them
/// to `steps.jsonl` / `windows.jsonl` on clean shutdown. See the module
/// docs for the crash-tolerance protocol.
#[derive(Debug)]
pub struct JsonlStore {
    dir: PathBuf,
    steps: BufWriter<File>,
    windows: BufWriter<File>,
    manifest: StoreManifest,
    steps_written: u64,
    windows_written: u64,
}

pub(crate) const STEPS_FILE: &str = "steps.jsonl";
pub(crate) const WINDOWS_FILE: &str = "windows.jsonl";
pub(crate) const MANIFEST_FILE: &str = "manifest.json";
pub(crate) const PART_SUFFIX: &str = ".part";
/// `StoreManifest::format` value of binary segment directories.
pub(crate) const FORMAT_BINARY: &str = "binary";

impl JsonlStore {
    /// Creates (or truncates) the record files under `dir`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dir` cannot be created or the files cannot be
    /// opened.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        // Clear any sealed files from a previous run so loaders never mix
        // the old sealed stream with the new in-progress one. Stale binary
        // segments are cleared too: re-recording a directory in the other
        // format must not confuse format auto-detection.
        for name in [STEPS_FILE, WINDOWS_FILE, MANIFEST_FILE] {
            let _ = std::fs::remove_file(dir.join(name));
        }
        crate::segstore::remove_segment_files(dir);
        let store = JsonlStore {
            dir: dir.to_owned(),
            steps: BufWriter::new(File::create(part_path(dir, STEPS_FILE))?),
            windows: BufWriter::new(File::create(part_path(dir, WINDOWS_FILE))?),
            manifest: StoreManifest::default(),
            steps_written: 0,
            windows_written: 0,
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// The directory records are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically replaces `manifest.json` (write `.part`, then rename).
    fn write_manifest(&self) -> io::Result<()> {
        let part = part_path(&self.dir, MANIFEST_FILE);
        let text = serde_json::to_string(&self.manifest).map_err(io::Error::other)?;
        std::fs::write(&part, text)?;
        std::fs::rename(&part, self.dir.join(MANIFEST_FILE))
    }

    /// Reads back all step records from `dir`, recovering past a torn
    /// tail. Prefer [`JsonlStore::recover`] when the skip counts matter.
    ///
    /// # Errors
    ///
    /// Returns an error when neither `steps.jsonl` nor its `.part` stream
    /// exists or cannot be read.
    pub fn load_steps(dir: &Path) -> io::Result<Vec<StepRecord>> {
        Ok(load_jsonl(&record_path(dir, STEPS_FILE)?)?.records)
    }

    /// Reads back all window records from `dir`, recovering past a torn
    /// tail.
    ///
    /// # Errors
    ///
    /// Returns an error when neither `windows.jsonl` nor its `.part`
    /// stream exists or cannot be read.
    pub fn load_windows(dir: &Path) -> io::Result<Vec<WindowRecord>> {
        Ok(load_jsonl(&record_path(dir, WINDOWS_FILE)?)?.records)
    }

    /// Reads the manifest, when one exists.
    ///
    /// # Errors
    ///
    /// Returns an error when the manifest exists but cannot be parsed.
    pub fn load_manifest(dir: &Path) -> io::Result<Option<StoreManifest>> {
        let path = dir.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map(Some)
            .map_err(io::Error::other)
    }

    /// Recovers everything salvageable from a record directory: the valid
    /// prefix of both record streams (sealed files when present, the torn
    /// `.part` streams of a crashed writer otherwise) plus the manifest
    /// accounting.
    ///
    /// # Errors
    ///
    /// Returns an error when `dir` holds no recognizable record stream at
    /// all.
    pub fn recover(dir: &Path) -> io::Result<RecoverySummary> {
        let steps_path = record_path(dir, STEPS_FILE);
        let windows_path = record_path(dir, WINDOWS_FILE);
        if steps_path.is_err() && windows_path.is_err() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no record stream (steps.jsonl[.part]) under {}",
                    dir.display()
                ),
            ));
        }
        let sealed_files = dir.join(STEPS_FILE).exists() || dir.join(WINDOWS_FILE).exists();
        let steps = match steps_path {
            Ok(path) => load_jsonl::<StepRecord>(&path)?,
            Err(_) => RecoveredLoad {
                records: Vec::new(),
                skipped_lines: 0,
            },
        };
        let windows = match windows_path {
            Ok(path) => load_jsonl::<WindowRecord>(&path)?,
            Err(_) => RecoveredLoad {
                records: Vec::new(),
                skipped_lines: 0,
            },
        };
        let mut manifest = Self::load_manifest(dir).unwrap_or(None);
        let run = manifest.as_mut().and_then(|m| m.run.take());
        let mut summary = RecoverySummary {
            steps: steps.records,
            windows: windows.records,
            skipped_step_lines: steps.skipped_lines,
            skipped_window_lines: windows.skipped_lines,
            manifest,
            run,
            sealed_files,
        };
        summary.steps.sort_by_key(|r| r.step);
        summary.windows.sort_by_key(|w| w.index);
        Ok(summary)
    }
}

/// The live path of a record file: the sealed name when present, else the
/// in-progress `.part` stream.
fn record_path(dir: &Path, name: &str) -> io::Result<PathBuf> {
    let sealed = dir.join(name);
    if sealed.exists() {
        return Ok(sealed);
    }
    let part = part_path(dir, name);
    if part.exists() {
        return Ok(part);
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} not found (nor its .part stream)", sealed.display()),
    ))
}

pub(crate) fn part_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}{PART_SUFFIX}"))
}

/// Recovers a record directory of either format, auto-detecting the
/// encoding: the manifest's `format` field when one survived, else the
/// presence of binary segment files, else JSONL. The CLI's `analyze`,
/// `report`, `audit` and `compare` and the facade route through here, so
/// callers never need to know which format wrote the directory.
///
/// Its wall time is the `store.recover` span and the `store.recover_us`
/// histogram.
///
/// # Errors
///
/// Returns an error when `dir` holds no recognizable record stream at all.
pub fn recover_records(dir: &Path) -> io::Result<RecoverySummary> {
    let _span = tpupoint_obs::span!("store.recover");
    let started = Instant::now();
    let manifest = JsonlStore::load_manifest(dir).unwrap_or(None);
    let binary = match &manifest {
        Some(m) if m.format == FORMAT_BINARY => true,
        Some(_) => false,
        None => crate::segstore::has_segment_files(dir),
    };
    let summary = if binary {
        crate::segstore::BinaryStore::recover(dir)
    } else {
        JsonlStore::recover(dir)
    };
    record_us("store.recover_us", started);
    summary
}

/// Every file of a record directory, keyed by name: the byte-level view
/// of what a run left on disk, whatever format wrote it. Two runs that
/// must be byte-identical compare these maps.
///
/// # Errors
///
/// Returns an error when `dir` or one of its files cannot be read.
pub fn record_files(dir: &Path) -> io::Result<std::collections::BTreeMap<String, Vec<u8>>> {
    let mut files = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(entry.path())?);
        }
    }
    Ok(files)
}

/// Loads a JSONL file tolerantly: parses records until the first malformed
/// line (a torn tail after a crash, or corruption), then stops and reports
/// how many non-empty lines were left unparsed. A `kill -9` mid-write can
/// only tear the final line, so the valid prefix is exactly the records
/// fully written before the crash.
fn load_jsonl<T: serde::de::DeserializeOwned>(path: &Path) -> io::Result<RecoveredLoad<T>> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut records = Vec::new();
    let mut skipped_lines = 0usize;
    let mut torn = false;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read raw bytes: a torn tail may not even be valid UTF-8, and
        // that must count as a skipped line, not a failed load.
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        if torn {
            skipped_lines += 1;
            continue;
        }
        match serde_json::from_str(line.trim_end()) {
            Ok(record) => records.push(record),
            Err(_) => {
                torn = true;
                skipped_lines += 1;
            }
        }
    }
    Ok(RecoveredLoad {
        records,
        skipped_lines,
    })
}

impl RecordStore for JsonlStore {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        serde_json::to_writer(&mut self.steps, record).map_err(io::Error::other)?;
        self.steps.write_all(b"\n")?;
        self.steps_written += 1;
        Ok(())
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        serde_json::to_writer(&mut self.windows, record).map_err(io::Error::other)?;
        self.windows.write_all(b"\n")?;
        self.windows_written += 1;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.steps.flush()?;
        self.windows.flush()?;
        // Only now are the written records acknowledged.
        self.manifest.steps_flushed = self.steps_written;
        self.manifest.windows_flushed = self.windows_written;
        self.write_manifest()
    }

    fn seal(&mut self) -> io::Result<()> {
        self.steps.flush()?;
        self.windows.flush()?;
        std::fs::rename(part_path(&self.dir, STEPS_FILE), self.dir.join(STEPS_FILE))?;
        std::fs::rename(
            part_path(&self.dir, WINDOWS_FILE),
            self.dir.join(WINDOWS_FILE),
        )?;
        self.manifest.steps_flushed = self.steps_written;
        self.manifest.windows_flushed = self.windows_written;
        self.manifest.sealed = true;
        self.write_manifest()
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.manifest.model = model.to_owned();
        self.manifest.dataset = dataset.to_owned();
        // Persist right away so a crash before the first flush still
        // leaves a labeled manifest. Best-effort: a failure here recurs
        // (and is counted) at the next flush, which rewrites the manifest.
        let _ = self.write_manifest();
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.manifest.op_names = names.to_vec();
        self.manifest.op_uses_mxu = uses_mxu.to_vec();
        self.manifest.op_on_host = on_host.to_vec();
        // Same best-effort persistence as set_meta: a crash at any later
        // point must still recover real operator names.
        let _ = self.write_manifest();
    }

    /// Kept in the manifest, which the seal rewrites next.
    fn put_run(&mut self, run: &RunRecord) -> io::Result<()> {
        self.manifest.run = Some(run.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::{SimDuration, SimTime, Track};

    fn sample_step(step: u64) -> StepRecord {
        let mut r = StepRecord::new(step);
        r.absorb(
            OpId(1),
            Track::TpuCore(0),
            SimTime::from_micros(10),
            SimDuration::from_micros(5),
            SimDuration::from_micros(2),
        );
        r
    }

    fn sample_window() -> WindowRecord {
        WindowRecord {
            index: 0,
            start: SimTime::from_micros(0),
            end: SimTime::from_micros(100),
            events: 3,
            tpu_busy: SimDuration::from_micros(40),
            mxu_busy: SimDuration::from_micros(10),
            first_step: 1,
            last_step: 2,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tpupoint-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_store_accumulates() {
        let mut store = InMemoryStore::new();
        store.put_step(&sample_step(1)).unwrap();
        store.put_step(&sample_step(2)).unwrap();
        store.put_window(&sample_window()).unwrap();
        assert_eq!(store.steps().len(), 2);
        assert_eq!(store.windows().len(), 1);
    }

    #[test]
    fn jsonl_store_round_trips_after_seal() {
        let dir = tmp_dir("roundtrip");
        {
            let mut store = JsonlStore::create(&dir).unwrap();
            store.set_meta("demo-mlp", "synthetic");
            store.put_step(&sample_step(7)).unwrap();
            store.put_window(&sample_window()).unwrap();
            store.seal().unwrap();
        }
        assert!(dir.join("steps.jsonl").exists(), "sealed file renamed");
        assert!(!dir.join("steps.jsonl.part").exists());
        let steps = JsonlStore::load_steps(&dir).unwrap();
        let windows = JsonlStore::load_windows(&dir).unwrap();
        assert_eq!(steps, vec![sample_step(7)]);
        assert_eq!(windows, vec![sample_window()]);
        let manifest = JsonlStore::load_manifest(&dir).unwrap().unwrap();
        assert!(manifest.sealed);
        assert_eq!(manifest.steps_flushed, 1);
        assert_eq!(manifest.model, "demo-mlp");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsealed_part_stream_is_loadable() {
        let dir = tmp_dir("unsealed");
        let mut store = JsonlStore::create(&dir).unwrap();
        store.put_step(&sample_step(1)).unwrap();
        store.flush().unwrap();
        // No seal: the writer "crashed". The .part stream still loads.
        let steps = JsonlStore::load_steps(&dir).unwrap();
        assert_eq!(steps, vec![sample_step(1)]);
        let manifest = JsonlStore::load_manifest(&dir).unwrap().unwrap();
        assert!(!manifest.sealed);
        assert_eq!(manifest.steps_flushed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_valid_prefix() {
        let dir = tmp_dir("torn");
        let mut store = JsonlStore::create(&dir).unwrap();
        for step in 1..=3 {
            store.put_step(&sample_step(step)).unwrap();
        }
        store.flush().unwrap();
        // Tear the tail: append half a record, as a kill -9 would leave.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("steps.jsonl.part"))
            .unwrap();
        f.write_all(b"{\"step\":4,\"ops\"").unwrap();
        drop(store);

        let summary = JsonlStore::recover(&dir).unwrap();
        assert_eq!(summary.steps.len(), 3);
        assert_eq!(summary.skipped_step_lines, 1);
        assert_eq!(summary.missing_acknowledged(), (0, 0));
        assert!(summary.is_torn());
        assert!(!summary.sealed_files);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_reports_missing_acknowledged_records() {
        let dir = tmp_dir("missing");
        let mut store = JsonlStore::create(&dir).unwrap();
        for step in 1..=5 {
            store.put_step(&sample_step(step)).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        // Corrupt record 3 in place: everything acknowledged after it is
        // lost to prefix recovery.
        let path = dir.join("steps.jsonl.part");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!(
            "{}\n{}\nGARBAGE\n{}\n{}\n",
            lines[0], lines[1], lines[3], lines[4]
        );
        std::fs::write(&path, mangled).unwrap();

        let summary = JsonlStore::recover(&dir).unwrap();
        assert_eq!(summary.steps.len(), 2);
        assert_eq!(
            summary.skipped_step_lines, 3,
            "garbage line + 2 good ones after it"
        );
        assert_eq!(summary.missing_acknowledged().0, 3);
        assert!(summary.is_torn());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_profile_is_analyzable_shape() {
        let dir = tmp_dir("to-profile");
        let mut store = JsonlStore::create(&dir).unwrap();
        store.set_meta("bert", "mrpc");
        for step in 0..=6 {
            store.put_step(&sample_step(step)).unwrap();
        }
        store.put_window(&sample_window()).unwrap();
        store.seal().unwrap();
        let summary = JsonlStore::recover(&dir).unwrap();
        let profile = summary.to_profile();
        assert_eq!(profile.model, "bert");
        assert_eq!(profile.dataset, "mrpc");
        assert_eq!(profile.steps.len(), 7);
        assert_eq!(profile.windows.len(), 1);
        assert_eq!(profile.op_names.len(), 2, "max OpId was 1");
        // Marks exclude step 0 and the highest (shutdown) record.
        let marked: Vec<u64> = profile.step_marks.iter().map(|(s, _)| *s).collect();
        assert_eq!(marked, vec![1, 2, 3, 4, 5]);
        assert_eq!(profile.training_records().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A step record carrying `extra` invocations of op `id` beside
    /// `sample_step`'s op 1.
    fn step_with_op(step: u64, id: u32, extra: u64) -> StepRecord {
        let mut r = sample_step(step);
        for _ in 0..extra {
            r.absorb(
                OpId(id),
                Track::Host,
                SimTime::from_micros(10),
                SimDuration::from_micros(1),
                SimDuration::ZERO,
            );
        }
        r
    }

    #[test]
    fn corrupt_op_ids_past_the_catalog_are_dropped_as_lost_events() {
        let dir = tmp_dir("op-bound");
        let mut store = JsonlStore::create(&dir).unwrap();
        let names = ["a".to_owned(), "b".to_owned()];
        store.set_catalog(&names, &[false, true], &[true, false]);
        store.put_step(&sample_step(1)).unwrap();
        store.put_step(&step_with_op(2, u32::MAX, 3)).unwrap();
        store.put_step(&step_with_op(3, 2, 2)).unwrap();
        store.seal().unwrap();
        let line = std::fs::read_to_string(dir.join("steps.jsonl")).unwrap();
        assert!(line.contains("\"4294967295\":"), "{line}");
        let profile = recover_records(&dir).unwrap().to_profile();
        assert_eq!(profile.op_names, names);
        assert_eq!(profile.op_on_host, vec![true, false]);
        assert!(profile
            .steps
            .iter()
            .all(|r| r.ops.keys().all(|op| op.0 < 2)));
        assert_eq!(profile.lost_events, 5);
        assert_eq!(profile.steps[1].ops.len(), 1, "op 1 survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncataloged_op_ids_are_bounded() {
        let dir = tmp_dir("op-bound-no-catalog");
        let mut store = JsonlStore::create(&dir).unwrap();
        store
            .put_step(&step_with_op(1, MAX_UNCATALOGED_OPS - 1, 1))
            .unwrap();
        store
            .put_step(&step_with_op(2, MAX_UNCATALOGED_OPS, 4))
            .unwrap();
        store.put_step(&step_with_op(3, u32::MAX, 2)).unwrap();
        store.seal().unwrap();
        let profile = recover_records(&dir).unwrap().to_profile();
        assert_eq!(profile.op_names.len(), MAX_UNCATALOGED_OPS as usize);
        assert_eq!(profile.op_names[1], "op1");
        assert_eq!(profile.lost_events, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_missing_dir_errors() {
        let missing = Path::new("/definitely/not/here");
        assert!(JsonlStore::load_steps(missing).is_err());
        assert!(JsonlStore::recover(missing).is_err());
    }

    #[test]
    fn create_clears_previous_sealed_run() {
        let dir = tmp_dir("recreate");
        {
            let mut store = JsonlStore::create(&dir).unwrap();
            store.put_step(&sample_step(1)).unwrap();
            store.seal().unwrap();
        }
        {
            let mut store = JsonlStore::create(&dir).unwrap();
            store.put_step(&sample_step(2)).unwrap();
            store.put_step(&sample_step(3)).unwrap();
            store.seal().unwrap();
        }
        let steps = JsonlStore::load_steps(&dir).unwrap();
        assert_eq!(steps.len(), 2, "old sealed stream must not leak through");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn boxed_dyn_store_delegates() {
        let mut store: Box<dyn RecordStore> = Box::new(InMemoryStore::new());
        store.put_step(&sample_step(1)).unwrap();
        store.put_window(&sample_window()).unwrap();
        store.flush().unwrap();
        store.seal().unwrap();
        store.set_meta("m", "d");
    }
}
