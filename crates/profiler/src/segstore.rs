//! [`BinaryStore`]: the binary segment backend behind [`RecordStore`],
//! with inline retention.
//!
//! # Layout and crash tolerance
//!
//! Records stream into one active segment, `seg-NNNNNN.bin.part`, framed
//! by [`crate::binfmt`]. When the active segment reaches
//! [`BinaryStoreConfig::segment_bytes`] it is flushed, committed to the
//! manifest's segment list — the *authoritative* set and order of sealed
//! segments — and then renamed to `seg-NNNNNN.bin`, the same
//! `.part`-then-rename discipline as the JSONL store. Each segment is
//! written once and never rewritten. The manifest itself is always
//! replaced atomically, so every on-disk state a `kill -9` can leave is
//! one of:
//!
//! * a torn active `.part` tail — recovery salvages the valid frame
//!   prefix, exactly like the JSONL torn-line recovery;
//! * a manifest-listed segment still under its `.part` name (the commit
//!   precedes the sealing rename) — recovery reads the part file in its
//!   place, so the acknowledged records it holds are never orphaned;
//! * a sealed segment the manifest no longer names — one retention
//!   retired but had not yet unlinked, ignored because its records are
//!   already in the retired counts.
//!
//! Because rotation commits before it renames, no sealed file the
//! manifest does not name ever holds unaccounted records, so recovery
//! ignores every unlisted `seg-*.bin`. That rule also covers directories
//! written by older versions, which merged segments in a background
//! compaction pass: an unlisted merge output or a leftover
//! `seg-*.bin.tmp` merge scratch file holds only copies of records the
//! listed segments still carry. [`BinaryStore::with_config`] removes
//! both when it resets a directory.
//!
//! # Retention
//!
//! After each rotation and at seal, on whatever thread drives the store,
//! the retention budget is enforced by *retiring* the oldest sealed
//! segments: their record counts move into the manifest's
//! `steps_retired`/`windows_retired` **before** the file is deleted, so
//! [`RecoverySummary::missing_acknowledged`] stays zero — a budgeted drop
//! is accounted, never a loss.
//!
//! Observability: gauge `store.segments`, counters
//! `store.bytes_reclaimed`, `store.bytes_written`, `store.records_retired`.

use crate::binfmt::{self, KIND_STEP, KIND_WINDOW, SEGMENT_HEADER_LEN};
use crate::record::StepRecord;
use crate::store::{
    part_path, RecordStore, RecoverySummary, SegmentMeta, StoreManifest, FORMAT_BINARY,
    MANIFEST_FILE, STEPS_FILE, WINDOWS_FILE,
};
use crate::window::WindowRecord;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use tpupoint_obs::{Counter, Gauge};

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_EXT: &str = ".bin";
const PART_EXT: &str = ".bin.part";
/// Merge scratch suffix of older versions' compaction; never written,
/// only removed when a directory is reset.
const TMP_EXT: &str = ".bin.tmp";

/// Tuning of the binary segment store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryStoreConfig {
    /// Rotation threshold: the active segment is sealed once it holds at
    /// least this many bytes.
    pub segment_bytes: u64,
    /// Retention budget over sealed segment bytes; oldest segments are
    /// retired (with accounting) while the total exceeds it. `0` means
    /// unlimited.
    pub retention_bytes: u64,
}

impl Default for BinaryStoreConfig {
    fn default() -> Self {
        BinaryStoreConfig {
            segment_bytes: 256 * 1024,
            retention_bytes: 0,
        }
    }
}

/// Self-observability handles, rebindable per job registry.
struct StoreObs {
    segments: Gauge,
    bytes_reclaimed: Counter,
    bytes_written: Counter,
    records_retired: Counter,
}

impl StoreObs {
    fn in_registry(metrics: &tpupoint_obs::Metrics) -> Self {
        StoreObs {
            segments: metrics.gauge("store.segments"),
            bytes_reclaimed: metrics.counter("store.bytes_reclaimed"),
            bytes_written: metrics.counter("store.bytes_written"),
            records_retired: metrics.counter("store.records_retired"),
        }
    }
}

/// Streams records into checksummed binary segments (see [`crate::binfmt`])
/// with budgeted retention. A drop-in [`RecordStore`]: the retry/fault
/// decorators, the seal pipeline, and the fleet's per-job sharding
/// compose with it unchanged.
pub struct BinaryStore {
    dir: PathBuf,
    config: BinaryStoreConfig,
    manifest: StoreManifest,
    writer: BufWriter<File>,
    active_path: PathBuf,
    /// Id of the active segment; the next rotation opens `active_index + 1`.
    active_index: u64,
    active_bytes: u64,
    active_steps: u64,
    active_windows: u64,
    steps_written: u64,
    windows_written: u64,
    /// Reusable encode scratch, so the hot path allocates nothing.
    payload: Vec<u8>,
    frame: Vec<u8>,
    /// Self-observability handles, bound lazily on first use (to the
    /// process-wide registry) or by [`RecordStore::use_registry`] (to a
    /// fleet job's registry). Deferred past construction so a store the
    /// fleet rebinds right after creation never registers its series —
    /// in particular the `store.segments` sentinel the obs report keys
    /// on — with the global registry.
    obs: Option<StoreObs>,
}

impl std::fmt::Debug for BinaryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryStore")
            .field("dir", &self.dir)
            .field("active_index", &self.active_index)
            .field("steps_written", &self.steps_written)
            .field("windows_written", &self.windows_written)
            .finish()
    }
}

impl BinaryStore {
    /// Creates (or resets) a binary record directory with default tuning.
    ///
    /// # Errors
    ///
    /// Returns an error if `dir` cannot be created or the first segment
    /// cannot be opened.
    pub fn create(dir: &Path) -> io::Result<Self> {
        Self::with_config(dir, BinaryStoreConfig::default())
    }

    /// Creates (or resets) a binary record directory.
    ///
    /// # Errors
    ///
    /// Returns an error if `dir` cannot be created or the first segment
    /// cannot be opened.
    pub fn with_config(dir: &Path, config: BinaryStoreConfig) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        // Clear every artifact of a previous run, in either format, so
        // loaders and format auto-detection never mix streams.
        remove_segment_files(dir);
        for name in [STEPS_FILE, WINDOWS_FILE, MANIFEST_FILE] {
            let _ = std::fs::remove_file(dir.join(name));
            let _ = std::fs::remove_file(part_path(dir, name));
        }
        let active_path = dir.join(format!("{SEGMENT_PREFIX}000000{PART_EXT}"));
        let mut writer = BufWriter::new(File::create(&active_path)?);
        writer.write_all(&binfmt::segment_header())?;
        let store = BinaryStore {
            dir: dir.to_owned(),
            config,
            manifest: StoreManifest {
                format: FORMAT_BINARY.to_owned(),
                ..StoreManifest::default()
            },
            writer,
            active_path,
            active_index: 0,
            active_bytes: SEGMENT_HEADER_LEN as u64,
            active_steps: 0,
            active_windows: 0,
            steps_written: 0,
            windows_written: 0,
            payload: Vec::with_capacity(256),
            frame: Vec::with_capacity(256),
            obs: None,
        };
        store.write_manifest()?;
        Ok(store)
    }

    /// The directory records are written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The obs handles, created against the process-wide registry on
    /// first use when no `use_registry` rebind happened earlier.
    fn obs(&mut self) -> &StoreObs {
        self.obs
            .get_or_insert_with(|| StoreObs::in_registry(tpupoint_obs::metrics()))
    }

    fn publish_segments(&mut self) {
        let segments = self.manifest.segments.len() as f64;
        self.obs().segments.set(segments);
    }

    /// Atomically replaces `manifest.json` (write `.part`, then rename).
    fn write_manifest(&self) -> io::Result<()> {
        let part = part_path(&self.dir, MANIFEST_FILE);
        let text = serde_json::to_string(&self.manifest).map_err(io::Error::other)?;
        std::fs::write(&part, text)?;
        std::fs::rename(&part, self.dir.join(MANIFEST_FILE))
    }

    fn put_frame(&mut self, kind: u8) -> io::Result<()> {
        self.frame.clear();
        binfmt::append_frame(kind, &self.payload, &mut self.frame);
        self.writer.write_all(&self.frame)?;
        let len = self.frame.len() as u64;
        self.active_bytes += len;
        self.obs().bytes_written.add(len);
        if self.active_bytes >= self.config.segment_bytes {
            self.rotate(true)?;
            self.retire();
        }
        Ok(())
    }

    /// Seals the active segment: flush, commit it to the manifest's
    /// segment list, then rename `.part` → `.bin`. Rotation is also an
    /// acknowledgement point — everything in a sealed segment is durable.
    ///
    /// The manifest commit deliberately comes *before* the rename: a
    /// crash between the two leaves a manifest-listed segment still under
    /// its part name, which recovery reads in its place. The reverse
    /// order would leave a renamed-but-unnamed segment full of
    /// acknowledged records that the orphan rule (unnamed `.bin` files
    /// hold no unaccounted records) deliberately ignores.
    fn rotate(&mut self, open_next: bool) -> io::Result<()> {
        self.writer.flush()?;
        let sealed_name = segment_name(self.active_index);
        self.manifest.segments.push(SegmentMeta {
            name: sealed_name.clone(),
            steps: self.active_steps,
            windows: self.active_windows,
            bytes: self.active_bytes,
        });
        self.manifest.steps_flushed = self.steps_written;
        self.manifest.windows_flushed = self.windows_written;
        self.write_manifest()?;
        self.publish_segments();
        if let Err(err) = std::fs::rename(&self.active_path, self.dir.join(&sealed_name)) {
            // Roll the commit back so a store that keeps running after
            // the error never appends to a segment the manifest already
            // lists; the `.part` stays readable as the active stream.
            self.manifest.segments.pop();
            let _ = self.write_manifest();
            self.publish_segments();
            return Err(err);
        }
        self.active_steps = 0;
        self.active_windows = 0;
        self.active_bytes = 0;
        if open_next {
            self.active_index += 1;
            self.active_path = self.dir.join(format!(
                "{SEGMENT_PREFIX}{:06}{PART_EXT}",
                self.active_index
            ));
            self.writer = BufWriter::new(File::create(&self.active_path)?);
            self.writer.write_all(&binfmt::segment_header())?;
            self.active_bytes = SEGMENT_HEADER_LEN as u64;
        }
        Ok(())
    }

    /// Enforces the retention budget. Best-effort: an I/O failure never
    /// fails the write that triggered it, and the next rotation (or seal)
    /// tries again.
    fn retire(&mut self) {
        while let Ok(true) = self.retire_once() {}
    }

    /// Retires the oldest sealed segment while the retention budget is
    /// exceeded. The manifest moves the records into the retired counts
    /// *before* the file is unlinked, so a crash anywhere in between
    /// still accounts for every acknowledged record.
    fn retire_once(&mut self) -> io::Result<bool> {
        if self.config.retention_bytes == 0 {
            return Ok(false);
        }
        let manifest = &self.manifest;
        let total: u64 = manifest.segments.iter().map(|m| m.bytes).sum();
        if total <= self.config.retention_bytes {
            return Ok(false);
        }
        let Some(oldest) = manifest.segments.first() else {
            return Ok(false);
        };
        // Never retire records beyond the acknowledgement watermark:
        // dropping an unacknowledged record is allowed, but dropping it
        // *with retired accounting* would overstate the watermark.
        let acked = manifest.steps_retired + oldest.steps <= manifest.steps_flushed
            && manifest.windows_retired + oldest.windows <= manifest.windows_flushed;
        if !acked {
            return Ok(false);
        }
        let oldest = self.manifest.segments.remove(0);
        self.manifest.steps_retired += oldest.steps;
        self.manifest.windows_retired += oldest.windows;
        self.write_manifest()?;
        let obs = self.obs();
        obs.bytes_reclaimed.add(oldest.bytes);
        obs.records_retired.add(oldest.steps + oldest.windows);
        self.publish_segments();
        let _ = std::fs::remove_file(self.dir.join(&oldest.name));
        Ok(true)
    }

    /// Recovers everything salvageable from a binary record directory:
    /// each manifest-listed segment's valid frame prefix (falling back to
    /// its still-present `.part` when a crash interrupted the sealing
    /// rename), plus the torn active `.part` stream of a crashed writer.
    /// Segment files the manifest does not name are ignored — they hold
    /// no record the manifest has not already accounted for (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns an error when `dir` holds no recognizable record stream.
    pub fn recover(dir: &Path) -> io::Result<RecoverySummary> {
        let manifest = crate::store::JsonlStore::load_manifest(dir).unwrap_or(None);
        let mut steps = Vec::new();
        let mut windows = Vec::new();
        // The expected counts come from the manifest, which may be
        // corrupt, so the tallies saturate instead of overflowing.
        let mut skipped_steps = 0u64;
        let mut skipped_windows = 0u64;
        let metas: Vec<SegmentMeta> = match &manifest {
            Some(m) => m.segments.clone(),
            // No manifest survived (a crash before the very first write
            // barely counts as a stream): fall back to every sealed
            // segment in name order.
            None => {
                let mut names = list_segment_files(dir, SEGMENT_EXT)?;
                names.sort();
                names
                    .into_iter()
                    .map(|name| SegmentMeta {
                        name,
                        ..SegmentMeta::default()
                    })
                    .collect()
            }
        };
        let mut found_any = manifest.is_some();
        // Part files read in place of a listed segment, excluded from the
        // active-part scan below so their records are not counted twice.
        let mut consumed_parts: Vec<String> = Vec::new();
        for meta in &metas {
            // A listed segment may still sit under its `.part` name:
            // `rotate` commits the manifest *before* the sealing rename,
            // so a crash between the two leaves exactly this state. The
            // part file holds the full flushed segment — read it in the
            // missing `.bin`'s place instead of orphaning its records.
            let bytes = std::fs::read(dir.join(&meta.name)).or_else(|err| {
                let part_name = format!("{}{}", meta.name, crate::store::PART_SUFFIX);
                match std::fs::read(dir.join(&part_name)) {
                    Ok(bytes) => {
                        consumed_parts.push(part_name);
                        Ok(bytes)
                    }
                    Err(_) => Err(err),
                }
            });
            match bytes {
                Ok(bytes) => {
                    found_any = true;
                    let read = binfmt::read_segment(&bytes);
                    skipped_steps = skipped_steps
                        .saturating_add(meta.steps.saturating_sub(read.steps.len() as u64));
                    skipped_windows = skipped_windows
                        .saturating_add(meta.windows.saturating_sub(read.windows.len() as u64));
                    if !read.clean && meta.steps == 0 && meta.windows == 0 {
                        // Fallback metas carry no expected counts; still
                        // mark the stream torn.
                        skipped_steps = skipped_steps.saturating_add(1);
                    }
                    steps.extend(read.steps);
                    windows.extend(read.windows);
                }
                // The whole segment vanished without being retired: every
                // record it held is missing.
                Err(_) => {
                    skipped_steps = skipped_steps.saturating_add(meta.steps);
                    skipped_windows = skipped_windows.saturating_add(meta.windows);
                }
            }
        }
        let mut parts = list_segment_files(dir, PART_EXT)?;
        parts.retain(|name| !consumed_parts.contains(name));
        parts.sort();
        for name in parts {
            let Ok(bytes) = std::fs::read(dir.join(&name)) else {
                continue;
            };
            found_any = true;
            let read = binfmt::read_segment(&bytes);
            if !read.clean {
                // A torn tail; attribute it to the stream of the frame
                // it tore in when the kind byte survived.
                if read.torn_kind == Some(KIND_WINDOW) {
                    skipped_windows = skipped_windows.saturating_add(1);
                } else {
                    skipped_steps = skipped_steps.saturating_add(1);
                }
            }
            steps.extend(read.steps);
            windows.extend(read.windows);
        }
        if !found_any {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no binary record stream (seg-*.bin) under {}",
                    dir.display()
                ),
            ));
        }
        let sealed_files = manifest.as_ref().is_some_and(|m| m.sealed);
        let mut summary = RecoverySummary {
            steps,
            windows,
            skipped_step_lines: usize::try_from(skipped_steps).unwrap_or(usize::MAX),
            skipped_window_lines: usize::try_from(skipped_windows).unwrap_or(usize::MAX),
            manifest,
            sealed_files,
        };
        summary.steps.sort_by_key(|r| r.step);
        summary.windows.sort_by_key(|w| w.index);
        Ok(summary)
    }
}

impl RecordStore for BinaryStore {
    fn put_step(&mut self, record: &StepRecord) -> io::Result<()> {
        self.payload.clear();
        binfmt::encode_step(record, &mut self.payload);
        self.steps_written += 1;
        self.active_steps += 1;
        self.put_frame(KIND_STEP)
    }

    fn put_window(&mut self, record: &WindowRecord) -> io::Result<()> {
        self.payload.clear();
        binfmt::encode_window(record, &mut self.payload);
        self.windows_written += 1;
        self.active_windows += 1;
        self.put_frame(KIND_WINDOW)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.manifest.steps_flushed = self.steps_written;
        self.manifest.windows_flushed = self.windows_written;
        self.write_manifest()
    }

    fn seal(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        if self.active_steps + self.active_windows > 0 {
            self.rotate(false)?;
        } else {
            let _ = std::fs::remove_file(&self.active_path);
        }
        // A cleanly sealed directory is also within budget.
        self.retire();
        self.manifest.steps_flushed = self.steps_written;
        self.manifest.windows_flushed = self.windows_written;
        self.manifest.sealed = true;
        self.write_manifest()
    }

    fn set_meta(&mut self, model: &str, dataset: &str) {
        self.manifest.model = model.to_owned();
        self.manifest.dataset = dataset.to_owned();
        // Best-effort, like the JSONL store: a failure recurs (and is
        // counted) at the next flush.
        let _ = self.write_manifest();
    }

    fn set_catalog(&mut self, names: &[String], uses_mxu: &[bool], on_host: &[bool]) {
        self.manifest.op_names = names.to_vec();
        self.manifest.op_uses_mxu = uses_mxu.to_vec();
        self.manifest.op_on_host = on_host.to_vec();
        let _ = self.write_manifest();
    }

    fn use_registry(&mut self, metrics: &tpupoint_obs::Metrics) {
        self.obs = Some(StoreObs::in_registry(metrics));
        self.publish_segments();
    }
}

fn segment_name(id: u64) -> String {
    format!("{SEGMENT_PREFIX}{id:06}{SEGMENT_EXT}")
}

fn list_segment_files(dir: &Path, ext: &str) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // `.bin` never matches `.bin.part`/`.bin.tmp`: those end
        // differently.
        if name.starts_with(SEGMENT_PREFIX) && name.ends_with(ext) {
            names.push(name.to_owned());
        }
    }
    Ok(names)
}

/// True when `dir` holds binary segment files (sealed or in-progress).
pub(crate) fn has_segment_files(dir: &Path) -> bool {
    list_segment_files(dir, SEGMENT_EXT)
        .map(|v| !v.is_empty())
        .unwrap_or(false)
        || list_segment_files(dir, PART_EXT)
            .map(|v| !v.is_empty())
            .unwrap_or(false)
}

/// Removes every binary segment artifact (`seg-*.bin`, `.part`, and older
/// versions' `.tmp`) under `dir`; used when (re)creating a store in either
/// format.
pub(crate) fn remove_segment_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(SEGMENT_PREFIX)
            && (name.ends_with(SEGMENT_EXT) || name.ends_with(PART_EXT) || name.ends_with(TMP_EXT))
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::JsonlStore;
    use tpupoint_simcore::{OpId, SimDuration, SimTime, Track};

    fn sample_step(step: u64) -> StepRecord {
        let mut r = StepRecord::new(step);
        r.absorb(
            OpId(1),
            Track::TpuCore(0),
            SimTime::from_micros(10 + step),
            SimDuration::from_micros(5),
            SimDuration::from_micros(2),
        );
        r
    }

    fn sample_window(index: u64) -> WindowRecord {
        WindowRecord {
            index,
            start: SimTime::from_micros(index * 100),
            end: SimTime::from_micros(index * 100 + 90),
            events: 3,
            tpu_busy: SimDuration::from_micros(40),
            mxu_busy: SimDuration::from_micros(10),
            first_step: index,
            last_step: index + 1,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tpupoint-segstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config() -> BinaryStoreConfig {
        BinaryStoreConfig {
            segment_bytes: 200,
            retention_bytes: 0,
        }
    }

    fn write_run(store: &mut BinaryStore, steps: u64, windows: u64) {
        for step in 0..steps {
            store.put_step(&sample_step(step)).unwrap();
        }
        for index in 0..windows {
            store.put_window(&sample_window(index)).unwrap();
        }
    }

    #[test]
    fn round_trips_after_seal_across_rotations() {
        let dir = tmp_dir("roundtrip");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        store.set_meta("demo-mlp", "synthetic");
        write_run(&mut store, 40, 6);
        store.seal().unwrap();
        drop(store);

        assert!(!has_part_files(&dir), "no .part after seal");
        let summary = BinaryStore::recover(&dir).unwrap();
        assert_eq!(summary.steps.len(), 40);
        assert_eq!(summary.windows.len(), 6);
        assert_eq!(summary.steps[7], sample_step(7));
        assert_eq!(summary.windows[3], sample_window(3));
        assert_eq!(summary.missing_acknowledged(), (0, 0));
        assert!(!summary.is_torn());
        assert!(summary.sealed_files);
        let manifest = summary.manifest.unwrap();
        assert!(manifest.sealed);
        assert_eq!(manifest.model, "demo-mlp");
        assert_eq!(manifest.format, FORMAT_BINARY);
        assert!(manifest.segments.len() > 1, "tiny segments must rotate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn has_part_files(dir: &Path) -> bool {
        !list_segment_files(dir, PART_EXT).unwrap().is_empty()
    }

    #[test]
    fn crashed_writer_recovers_acknowledged_prefix() {
        let dir = tmp_dir("crash");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        write_run(&mut store, 10, 2);
        store.flush().unwrap();
        // More records the store never acknowledged, then a kill -9.
        store.put_step(&sample_step(10)).unwrap();
        std::mem::forget(store);

        let summary = BinaryStore::recover(&dir).unwrap();
        assert!(summary.steps.len() >= 10, "every acknowledged step");
        assert_eq!(summary.windows.len(), 2);
        assert_eq!(summary.missing_acknowledged(), (0, 0));
        assert!(!summary.sealed_files);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_in_active_part_recovers_prefix() {
        let dir = tmp_dir("torn");
        let mut store = BinaryStore::with_config(
            &dir,
            BinaryStoreConfig {
                segment_bytes: u64::MAX,
                ..tiny_config()
            },
        )
        .unwrap();
        write_run(&mut store, 5, 0);
        store.flush().unwrap();
        let part = dir.join(format!("{SEGMENT_PREFIX}000000{PART_EXT}"));
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&part)
            .unwrap();
        f.write_all(&[KIND_STEP, 200, 0]).unwrap(); // half a frame header
        drop(store);

        let summary = BinaryStore::recover(&dir).unwrap();
        assert_eq!(summary.steps.len(), 5);
        assert_eq!(summary.skipped_step_lines, 1);
        assert!(summary.is_torn());
        assert_eq!(summary.missing_acknowledged(), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_retires_with_accounting_never_losing_records() {
        let dir = tmp_dir("retention");
        let metrics = tpupoint_obs::Metrics::new();
        let mut store = BinaryStore::with_config(
            &dir,
            BinaryStoreConfig {
                retention_bytes: 600,
                ..tiny_config()
            },
        )
        .unwrap();
        store.use_registry(&metrics);
        write_run(&mut store, 80, 0);
        store.seal().unwrap();
        drop(store);

        let summary = BinaryStore::recover(&dir).unwrap();
        let manifest = summary.manifest.clone().unwrap();
        assert!(manifest.steps_retired > 0, "budget must have retired");
        assert_eq!(
            summary.steps.len() as u64 + manifest.steps_retired,
            80,
            "retired + recovered covers every record"
        );
        // Retired drops are accounted: nothing counts as *lost*.
        assert_eq!(summary.missing_acknowledged(), (0, 0));
        // The survivors are the most recent suffix.
        let first = summary.steps.first().unwrap().step;
        assert_eq!(first, manifest.steps_retired);
        let total: u64 = manifest.segments.iter().map(|m| m.bytes).sum();
        assert!(total <= 600, "budget enforced, {total} bytes remain");
        let snapshot = metrics.snapshot();
        assert!(
            snapshot
                .counters
                .get("store.bytes_reclaimed")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            snapshot
                .counters
                .get("store.records_retired")
                .copied()
                .unwrap_or(0)
                > 0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn listed_segment_still_under_part_name_recovers_without_loss() {
        // The crash window inside rotate(): manifest committed, sealing
        // rename not yet executed. The listed segment is still a `.part`
        // on disk; recovery must read it in place — and only once.
        let dir = tmp_dir("rotate-window");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        write_run(&mut store, 40, 0);
        store.flush().unwrap();
        std::mem::forget(store); // kill -9
        let manifest = JsonlStore::load_manifest(&dir).unwrap().unwrap();
        let last = manifest.segments.last().unwrap();
        assert!(last.steps > 0, "the reverted segment holds flushed records");
        std::fs::rename(
            dir.join(&last.name),
            dir.join(format!("{}.part", last.name)),
        )
        .unwrap();

        let summary = BinaryStore::recover(&dir).unwrap();
        assert_eq!(
            summary.missing_acknowledged(),
            (0, 0),
            "acknowledged records in the un-renamed segment must survive"
        );
        let steps: Vec<u64> = summary.steps.iter().map(|r| r.step).collect();
        assert_eq!(
            steps,
            (0..40).collect::<Vec<_>>(),
            "the fallback part read must not duplicate into the part scan"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn construction_registers_no_series_before_registry_rebind() {
        let dir = tmp_dir("lazy-obs");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        // Creating a handle is the only way a series reaches a registry,
        // so no handle may exist yet: a fleet job rebinds right after
        // construction, and the global registry must not gain a spurious
        // `store.segments` sentinel (or zeroed counters) in the meantime.
        assert!(store.obs.is_none());
        let metrics = tpupoint_obs::Metrics::new();
        store.use_registry(&metrics);
        write_run(&mut store, 10, 1);
        store.seal().unwrap();
        let snapshot = metrics.snapshot();
        assert!(snapshot.gauges.contains_key("store.segments"));
        assert!(
            snapshot
                .counters
                .get("store.bytes_written")
                .copied()
                .unwrap_or(0)
                > 0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_ignores_uncommitted_orphan_segments() {
        let dir = tmp_dir("orphan");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        write_run(&mut store, 20, 0);
        store.seal().unwrap();
        drop(store);
        // What older versions' background compaction could leave behind:
        // a merge output that crashed before its manifest commit, and a
        // merge scratch file that crashed before its rename.
        let orphan = |step: u64| {
            let mut bytes = binfmt::segment_header().to_vec();
            let mut payload = Vec::new();
            binfmt::encode_step(&sample_step(step), &mut payload);
            binfmt::append_frame(KIND_STEP, &payload, &mut bytes);
            bytes
        };
        std::fs::write(dir.join("seg-000099.bin"), orphan(999)).unwrap();
        std::fs::write(dir.join("seg-000100.bin.tmp"), orphan(998)).unwrap();

        let summary = BinaryStore::recover(&dir).unwrap();
        assert_eq!(summary.steps.len(), 20, "orphans must not leak through");
        assert!(summary.steps.iter().all(|r| r.step < 20));
        assert_eq!(summary.missing_acknowledged(), (0, 0));

        // Resetting the directory clears both leftovers.
        let store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        drop(store);
        assert!(!dir.join("seg-000099.bin").exists());
        assert!(!dir.join("seg-000100.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_rotation_writes_one_segment_exactly_once() {
        let dir = tmp_dir("write-once");
        let config = tiny_config();
        let mut store = BinaryStore::with_config(&dir, config).unwrap();
        write_run(&mut store, 300, 20);
        store.seal().unwrap();
        drop(store);

        // Replay the rotation rule over the same frames: a segment seals
        // once it reaches `segment_bytes`, and seal closes the last one.
        let frames: Vec<u64> = (0..300)
            .map(|step| {
                let mut payload = Vec::new();
                binfmt::encode_step(&sample_step(step), &mut payload);
                (KIND_STEP, payload)
            })
            .chain((0..20).map(|index| {
                let mut payload = Vec::new();
                binfmt::encode_window(&sample_window(index), &mut payload);
                (KIND_WINDOW, payload)
            }))
            .map(|(kind, payload)| {
                let mut frame = Vec::new();
                binfmt::append_frame(kind, &payload, &mut frame);
                frame.len() as u64
            })
            .collect();
        let max_frame = frames.iter().copied().max().unwrap();
        let mut rotations = 0;
        let mut active = SEGMENT_HEADER_LEN as u64;
        for len in frames {
            active += len;
            if active >= config.segment_bytes {
                rotations += 1;
                active = SEGMENT_HEADER_LEN as u64;
            }
        }
        if active > SEGMENT_HEADER_LEN as u64 {
            rotations += 1;
        }
        assert!(rotations >= 20, "the run must rotate many times");

        let manifest = JsonlStore::load_manifest(&dir).unwrap().unwrap();
        let names: Vec<&str> = manifest.segments.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<String> = (0..rotations).map(segment_name).collect();
        assert_eq!(names, expected, "one segment per rotation, in order");
        for meta in &manifest.segments {
            let on_disk = std::fs::metadata(dir.join(&meta.name)).unwrap().len();
            assert_eq!(meta.bytes, on_disk, "{}", meta.name);
            assert!(
                meta.bytes <= config.segment_bytes + max_frame,
                "{} holds {} bytes",
                meta.name,
                meta.bytes
            );
        }
        assert_eq!(
            list_segment_files(&dir, SEGMENT_EXT).unwrap().len() as u64,
            rotations
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_autodetect_routes_both_formats() {
        let dir_b = tmp_dir("detect-bin");
        let mut store = BinaryStore::with_config(&dir_b, tiny_config()).unwrap();
        write_run(&mut store, 4, 1);
        store.seal().unwrap();
        drop(store);
        let summary = crate::store::recover_records(&dir_b).unwrap();
        assert_eq!(summary.steps.len(), 4);

        let dir_j = tmp_dir("detect-jsonl");
        let mut store = JsonlStore::create(&dir_j).unwrap();
        store.put_step(&sample_step(1)).unwrap();
        store.seal().unwrap();
        drop(store);
        let summary = crate::store::recover_records(&dir_j).unwrap();
        assert_eq!(summary.steps.len(), 1);

        std::fs::remove_dir_all(&dir_b).unwrap();
        std::fs::remove_dir_all(&dir_j).unwrap();
    }

    #[test]
    fn creating_either_store_clears_the_other_format() {
        let dir = tmp_dir("switch");
        let mut store = BinaryStore::with_config(&dir, tiny_config()).unwrap();
        write_run(&mut store, 30, 0);
        store.seal().unwrap();
        drop(store);
        // Re-record the same directory as JSONL: segments must vanish.
        let mut store = JsonlStore::create(&dir).unwrap();
        store.put_step(&sample_step(1)).unwrap();
        store.seal().unwrap();
        drop(store);
        assert!(!has_segment_files(&dir));
        let summary = crate::store::recover_records(&dir).unwrap();
        assert_eq!(summary.steps.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
