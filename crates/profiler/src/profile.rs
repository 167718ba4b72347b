//! The complete profile of one run: what TPUPoint-Analyzer consumes.
//!
//! A [`Profile`] persists as `profile.json`. [`Profile::save_json`]
//! renders it directly into one pre-sized string and makes one write;
//! the bytes equal `serde_json::to_string` of the derived `Serialize`
//! impl, which stays as the test oracle, and [`Profile::load_json`]
//! reads them back through the derived `Deserialize`.

use crate::record::{OpStats, StepRecord};
use crate::window::WindowRecord;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use tpupoint_simcore::{OpId, SimDuration, SimTime};

/// A self-contained profile: op-name table, per-step statistical records,
/// sealed windows, and the step/checkpoint markers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Model the profile was captured from.
    pub model: String,
    /// Dataset the model trained on.
    pub dataset: String,
    /// Op names indexed by [`OpId`].
    pub op_names: Vec<String>,
    /// Whether each op drives the MXUs, indexed by [`OpId`].
    pub op_uses_mxu: Vec<bool>,
    /// Whether each op was observed on the host (or storage) side rather
    /// than on a TPU core, indexed by [`OpId`]. Ops never observed default
    /// to host.
    pub op_on_host: Vec<bool>,
    /// Per-step records, sorted by step number. Step 0 is session
    /// initialization; the largest step is session shutdown.
    pub steps: Vec<StepRecord>,
    /// Sealed profile windows in order.
    pub windows: Vec<WindowRecord>,
    /// `(step, time)` markers for every step completion.
    pub step_marks: Vec<(u64, SimTime)>,
    /// `(step, time)` markers for every checkpoint write.
    pub checkpoints: Vec<(u64, SimTime)>,
    /// Profile windows whose responses were lost (fault injection or real
    /// transport loss); their events are absent from `steps`.
    #[serde(default)]
    pub dropped_windows: u64,
    /// Events inside dropped windows.
    #[serde(default)]
    pub lost_events: u64,
    /// Record-store operations that failed while recording (after any
    /// retry/spill resilience); the in-memory profile is complete, but the
    /// persisted record stream may not be.
    #[serde(default)]
    pub store_errors: u64,
    /// The first store error observed, for diagnostics.
    #[serde(default)]
    pub store_error: Option<String>,
}

impl Profile {
    /// Resolves an op id to its name.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not part of this profile's catalog.
    pub fn op_name(&self, op: OpId) -> &str {
        &self.op_names[op.0 as usize]
    }

    /// Finds the id of an op name, if it occurred.
    pub fn op_id(&self, name: &str) -> Option<OpId> {
        self.op_names
            .iter()
            .position(|n| n == name)
            .map(|i| OpId(i as u32))
    }

    /// The records of actual profile steps: excludes the synthetic init
    /// (step 0) and shutdown (last step) records.
    pub fn training_records(&self) -> &[StepRecord] {
        let mut lo = 0;
        let mut hi = self.steps.len();
        if self.steps.first().is_some_and(|r| r.step == 0) {
            lo = 1;
        }
        let max_mark = self.step_marks.iter().map(|(s, _)| *s).max().unwrap_or(0);
        if self.steps.last().is_some_and(|r| r.step > max_mark) {
            hi -= 1;
        }
        &self.steps[lo..hi]
    }

    /// The profile truncated to steps at or below `step`: records,
    /// windows, step marks, and checkpoints past the cut are dropped.
    /// Used by `analyze --prefix-stable` to characterize only the prefix
    /// the streaming analyzer declared stable.
    #[must_use]
    pub fn prefix_through(&self, step: u64) -> Profile {
        let mut prefix = self.clone();
        prefix.steps.retain(|r| r.step <= step);
        prefix.windows.retain(|w| w.first_step <= step);
        prefix.step_marks.retain(|&(s, _)| s <= step);
        prefix.checkpoints.retain(|&(s, _)| s <= step);
        prefix
    }

    /// TPU idle fraction over the stepped portion of the run, computed from
    /// the statistical records exactly as TPUPoint reports it (Figure 10).
    pub fn steady_tpu_idle_fraction(&self) -> f64 {
        let records = self.training_records();
        let Some(window) = Self::records_span(records) else {
            return 0.0;
        };
        let busy: SimDuration = records.iter().map(|r| r.tpu_time).sum();
        (1.0 - busy.as_micros() as f64 / window.as_micros() as f64).clamp(0.0, 1.0)
    }

    /// MXU utilization over the stepped portion of the run (Figure 11).
    pub fn steady_mxu_utilization(&self) -> f64 {
        let records = self.training_records();
        let Some(window) = Self::records_span(records) else {
            return 0.0;
        };
        let mxu: SimDuration = records.iter().map(|r| r.mxu_time).sum();
        (mxu.as_micros() as f64 / window.as_micros() as f64).clamp(0.0, 1.0)
    }

    fn records_span(records: &[StepRecord]) -> Option<SimDuration> {
        let first = records.iter().map(|r| r.first_start).min()?;
        let last = records.iter().map(|r| r.last_end).max()?;
        (last > first).then(|| last - first)
    }

    /// True when capture or recording lost anything: dropped profile
    /// responses or failed store operations. A clean profile means both
    /// the in-memory view and the persisted record stream are complete.
    pub fn is_degraded(&self) -> bool {
        self.dropped_windows > 0 || self.store_errors > 0
    }

    /// Fraction of observed events lost to dropped profile responses.
    pub fn loss_fraction(&self) -> f64 {
        let total = self
            .steps
            .iter()
            .map(StepRecord::total_invocations)
            .sum::<u64>()
            + self.lost_events;
        if total == 0 {
            return 0.0;
        }
        self.lost_events as f64 / total as f64
    }

    /// Serializes the profile as compact JSON in one `write_all`.
    ///
    /// The bytes are exactly `serde_json::to_string(self)`'s, but they are
    /// rendered straight into one pre-sized `String` rather than through
    /// serde's `Value` tree, whose build, render and drop cost several
    /// times the render alone on a full-size profile.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save_json<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(self.render_json().as_bytes())
    }

    /// The compact JSON of [`Profile::save_json`]. Keys come in the
    /// order serde's map keeps them, which is lexicographic: the fields
    /// of every struct, and each step's op ids as decimal strings (`"10"`
    /// before `"2"`).
    fn render_json(&self) -> String {
        let op_entries: usize = self.steps.iter().map(|r| r.ops.len()).sum();
        let names: usize = self.op_names.iter().map(|n| n.len() + 3).sum();
        let mut out = String::with_capacity(
            256 + names
                + 12 * self.op_names.len()
                + 128 * self.steps.len()
                + 36 * op_entries
                + 200 * self.windows.len()
                + 32 * (self.step_marks.len() + self.checkpoints.len()),
        );
        out.push_str("{\"checkpoints\":");
        push_marks(&mut out, &self.checkpoints);
        out.push_str(",\"dataset\":");
        push_str_escaped(&mut out, &self.dataset);
        out.push_str(",\"dropped_windows\":");
        push_u64(&mut out, self.dropped_windows);
        out.push_str(",\"lost_events\":");
        push_u64(&mut out, self.lost_events);
        out.push_str(",\"model\":");
        push_str_escaped(&mut out, &self.model);
        out.push_str(",\"op_names\":[");
        for (i, name) in self.op_names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, name);
        }
        out.push_str("],\"op_on_host\":");
        push_bools(&mut out, &self.op_on_host);
        out.push_str(",\"op_uses_mxu\":");
        push_bools(&mut out, &self.op_uses_mxu);
        out.push_str(",\"step_marks\":");
        push_marks(&mut out, &self.step_marks);
        out.push_str(",\"steps\":[");
        let mut ops = Vec::new();
        for (i, r) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_step(&mut out, r, &mut ops);
        }
        out.push_str("],\"store_error\":");
        match &self.store_error {
            Some(err) => push_str_escaped(&mut out, err),
            None => out.push_str("null"),
        }
        out.push_str(",\"store_errors\":");
        push_u64(&mut out, self.store_errors);
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_window(&mut out, w);
        }
        out.push_str("]}");
        out
    }

    /// Deserializes a profile from JSON.
    ///
    /// # Errors
    ///
    /// Returns any deserialization or I/O error.
    pub fn load_json<R: Read>(reader: R) -> io::Result<Profile> {
        serde_json::from_reader(reader).map_err(io::Error::other)
    }
}

/// One [`StepRecord`] as JSON. `ops` is scratch space reused across
/// steps, so sorting op ids into string order allocates nothing per step
/// and nothing sized by the largest id.
fn push_step(out: &mut String, r: &StepRecord, ops: &mut Vec<(u64, OpId, OpStats)>) {
    out.push_str("{\"first_start\":");
    push_u64(out, r.first_start.as_micros());
    out.push_str(",\"host_time\":");
    push_u64(out, r.host_time.as_micros());
    out.push_str(",\"last_end\":");
    push_u64(out, r.last_end.as_micros());
    out.push_str(",\"mxu_time\":");
    push_u64(out, r.mxu_time.as_micros());
    out.push_str(",\"ops\":{");
    ops.clear();
    ops.extend(r.ops.iter().map(|(&op, &s)| (decimal_order(op.0), op, s)));
    ops.sort_unstable_by_key(|&(key, _, _)| key);
    for (i, (_, op, stats)) in ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push_u64(out, u64::from(op.0));
        out.push_str("\":{\"count\":");
        push_u64(out, stats.count);
        out.push_str(",\"total\":");
        push_u64(out, stats.total.as_micros());
        out.push('}');
    }
    out.push_str("},\"step\":");
    push_u64(out, r.step);
    out.push_str(",\"tpu_time\":");
    push_u64(out, r.tpu_time.as_micros());
    out.push('}');
}

/// A sort key that orders ids as their decimal strings compare: the
/// digits left-aligned in ten places, then the shorter string first (one
/// that is a prefix of another pads to the same value).
fn decimal_order(id: u32) -> u64 {
    let digits = id.checked_ilog10().unwrap_or(0) + 1;
    (u64::from(id) * 10u64.pow(10 - digits)) << 4 | u64::from(digits)
}

fn push_window(out: &mut String, w: &WindowRecord) {
    out.push_str("{\"end\":");
    push_u64(out, w.end.as_micros());
    out.push_str(",\"events\":");
    push_u64(out, w.events);
    out.push_str(",\"first_step\":");
    push_u64(out, w.first_step);
    out.push_str(",\"index\":");
    push_u64(out, w.index);
    out.push_str(",\"last_step\":");
    push_u64(out, w.last_step);
    out.push_str(",\"mxu_busy\":");
    push_u64(out, w.mxu_busy.as_micros());
    out.push_str(",\"start\":");
    push_u64(out, w.start.as_micros());
    out.push_str(",\"tpu_busy\":");
    push_u64(out, w.tpu_busy.as_micros());
    out.push('}');
}

/// `(step, time)` markers as an array of two-element arrays.
fn push_marks(out: &mut String, marks: &[(u64, SimTime)]) {
    out.push('[');
    for (i, &(step, time)) in marks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, step);
        out.push(',');
        push_u64(out, time.as_micros());
        out.push(']');
    }
    out.push(']');
}

fn push_bools(out: &mut String, flags: &[bool]) {
    out.push('[');
    for (i, &flag) in flags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if flag { "true" } else { "false" });
    }
    out.push(']');
}

/// A JSON string, escaped exactly as the vendored serde stand-in does:
/// the short escapes it knows, `\u00xx` in lowercase hex for any other
/// control character, everything else verbatim. Every escaped byte is
/// ASCII, so the verbatim runs between them are whole UTF-8 slices.
fn push_str_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::{SimRng, Track};

    fn record(step: u64, start: u64, dur: u64, tpu: bool) -> StepRecord {
        let mut r = StepRecord::new(step);
        r.absorb(
            OpId(0),
            if tpu { Track::TpuCore(0) } else { Track::Host },
            SimTime::from_micros(start),
            SimDuration::from_micros(dur),
            SimDuration::from_micros(if tpu { dur / 2 } else { 0 }),
        );
        r
    }

    fn profile() -> Profile {
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: vec!["fusion".into(), "Reshape".into()],
            op_uses_mxu: vec![true, false],
            op_on_host: vec![false, false],
            steps: vec![
                record(0, 0, 100, false), // init
                record(1, 100, 60, true), // steps: busy 60 of [100, 400]
                record(2, 200, 90, true),
                record(3, 300, 100, true),
                record(42, 500, 10, false), // shutdown
            ],
            windows: vec![],
            step_marks: vec![
                (1, SimTime::from_micros(160)),
                (2, SimTime::from_micros(290)),
                (3, SimTime::from_micros(400)),
            ],
            checkpoints: vec![(3, SimTime::from_micros(400))],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    #[test]
    fn training_records_strip_init_and_shutdown() {
        let p = profile();
        let steps: Vec<u64> = p.training_records().iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![1, 2, 3]);
    }

    #[test]
    fn steady_metrics_cover_step_window_only() {
        let p = profile();
        // Window 100..400 = 300us, busy 250us → idle 1/6.
        assert!((p.steady_tpu_idle_fraction() - (1.0 - 250.0 / 300.0)).abs() < 1e-9);
        // MXU 125us of 300us.
        assert!((p.steady_mxu_utilization() - 125.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn op_lookup_round_trips() {
        let p = profile();
        assert_eq!(p.op_name(OpId(0)), "fusion");
        assert_eq!(p.op_id("Reshape"), Some(OpId(1)));
        assert_eq!(p.op_id("nope"), None);
    }

    #[test]
    fn json_round_trip() {
        let p = profile();
        let mut buf = Vec::new();
        p.save_json(&mut buf).unwrap();
        let q = Profile::load_json(buf.as_slice()).unwrap();
        assert_eq!(p, q);
    }

    /// Characters a name may draw: every escape the JSON writer knows,
    /// other control characters, and multi-byte UTF-8.
    const NAME_CHARS: [char; 16] = [
        'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
        '\u{7f}', 'é', '𝄞',
    ];

    fn name(rng: &mut SimRng) -> String {
        let len = rng.uniform_u64(0, 6) as usize;
        (0..len)
            .map(|_| NAME_CHARS[rng.uniform_u64(0, NAME_CHARS.len() as u64 - 1) as usize])
            .collect()
    }

    /// An op id of 1 to 10 decimal digits, `u32::MAX` included.
    fn op_id(rng: &mut SimRng) -> OpId {
        if rng.chance(0.05) {
            return OpId(u32::MAX);
        }
        let digits = rng.uniform_u64(1, 10) as u32;
        let lo = if digits == 1 {
            0
        } else {
            10u64.pow(digits - 1)
        };
        let hi = (10u64.pow(digits) - 1).min(u64::from(u32::MAX));
        OpId(rng.uniform_u64(lo, hi) as u32)
    }

    /// Any `u64`, with the extremes drawn often.
    fn number(rng: &mut SimRng) -> u64 {
        match rng.uniform_u64(0, 3) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.uniform_u64(0, 1000),
            _ => rng.uniform_u64(0, u64::MAX),
        }
    }

    fn time(rng: &mut SimRng) -> SimTime {
        SimTime::from_micros(number(rng))
    }

    fn duration(rng: &mut SimRng) -> SimDuration {
        SimDuration::from_micros(number(rng))
    }

    fn random_profile(seed: u64, steps: usize, ops: usize, windows: usize) -> Profile {
        let mut rng = SimRng::seed_from(seed);
        let catalog = rng.uniform_u64(0, 4) as usize;
        let steps = (0..steps)
            .map(|_| {
                let mut r = StepRecord::new(number(&mut rng));
                for _ in 0..rng.uniform_u64(0, ops as u64) {
                    let stats = OpStats {
                        count: number(&mut rng),
                        total: duration(&mut rng),
                    };
                    r.ops.insert(op_id(&mut rng), stats);
                }
                r.tpu_time = duration(&mut rng);
                r.mxu_time = duration(&mut rng);
                r.host_time = duration(&mut rng);
                r.first_start = time(&mut rng);
                r.last_end = time(&mut rng);
                r
            })
            .collect();
        let windows = (0..windows)
            .map(|_| WindowRecord {
                index: number(&mut rng),
                start: time(&mut rng),
                end: time(&mut rng),
                events: number(&mut rng),
                tpu_busy: duration(&mut rng),
                mxu_busy: duration(&mut rng),
                first_step: number(&mut rng),
                last_step: number(&mut rng),
            })
            .collect();
        let marks = |rng: &mut SimRng| -> Vec<(u64, SimTime)> {
            (0..rng.uniform_u64(0, 3))
                .map(|_| (number(rng), time(rng)))
                .collect()
        };
        Profile {
            model: name(&mut rng),
            dataset: name(&mut rng),
            op_names: (0..catalog).map(|_| name(&mut rng)).collect(),
            op_uses_mxu: (0..catalog).map(|_| rng.chance(0.5)).collect(),
            op_on_host: (0..catalog).map(|_| rng.chance(0.5)).collect(),
            steps,
            windows,
            step_marks: marks(&mut rng),
            checkpoints: marks(&mut rng),
            dropped_windows: number(&mut rng),
            lost_events: number(&mut rng),
            store_errors: number(&mut rng),
            store_error: rng.chance(0.5).then(|| name(&mut rng)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// `save_json` writes exactly what `serde_json::to_string` renders
        /// (key order, op-id keys in string order, escapes, `null`), and
        /// `load_json` reads it back to the same profile.
        #[test]
        fn save_json_matches_serde_and_round_trips(
            seed in proptest::prelude::any::<u64>(),
            steps in 0usize..5,
            ops in 0usize..12,
            windows in 0usize..3,
        ) {
            let p = random_profile(seed, steps, ops, windows);
            let mut buf = Vec::new();
            p.save_json(&mut buf).unwrap();
            let oracle = serde_json::to_string(&p).unwrap();
            proptest::prop_assert_eq!(String::from_utf8(buf.clone()).unwrap(), oracle);
            proptest::prop_assert_eq!(Profile::load_json(buf.as_slice()).unwrap(), p);
        }
    }

    #[test]
    fn empty_profile_metrics_are_zero() {
        let p = Profile {
            model: String::new(),
            dataset: String::new(),
            op_names: vec![],
            op_uses_mxu: vec![],
            op_on_host: vec![],
            steps: vec![],
            windows: vec![],
            step_marks: vec![],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        };
        assert_eq!(p.steady_tpu_idle_fraction(), 0.0);
        assert_eq!(p.steady_mxu_utilization(), 0.0);
    }
}
