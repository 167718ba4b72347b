//! Visualization exports (Section IV-B, Figure 3).
//!
//! TPUPoint-Analyzer writes a JSON file compatible with Chrome's
//! `chrome://tracing` viewer showing two horizontal tracks — "Profile
//! Breakdown" (the sealed profile windows) and "Phase Breakdown" (the
//! detected phases spanning them) — plus two CSVs: the per-phase
//! description and top operators, and each step's host and TPU
//! operators. Every file is rendered in memory and handed to its writer
//! in one `write_all`, so an unbuffered `File` costs one `write(2)` per
//! file rather than several per row.

use crate::phases::{PhaseSet, PhaseTotals};
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::io::{self, Write};
use tpupoint_profiler::Profile;
use tpupoint_simcore::SimDuration;

/// Builds the Chrome-tracing JSON value for a profile and its phases.
pub fn chrome_trace(profile: &Profile, phases: &PhaseSet) -> Value {
    let mut events = Vec::new();
    // Track naming metadata.
    for (tid, name) in [(1u32, "Profile Breakdown"), (2u32, "Phase Breakdown")] {
        events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": name},
        }));
    }
    for window in &profile.windows {
        events.push(json!({
            "name": format!("profile.{}", window.index),
            "cat": "profile",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": window.start.as_micros(),
            "dur": window.span().as_micros(),
            "args": {
                "events": window.events,
                "tpu_idle_fraction": window.tpu_idle_fraction(),
                "mxu_utilization": window.mxu_utilization(),
                "steps": format!("{}..{}", window.first_step, window.last_step),
            },
        }));
    }
    let totals = PhaseTotals::new(profile, &phases.phases);
    for (i, phase) in phases.phases.iter().enumerate() {
        let Some((start, end)) = totals.extent(i) else {
            continue;
        };
        let top = totals.top_operators(i, 5);
        let describe = |rows: &[(String, SimDuration, u64)]| -> Vec<String> {
            rows.iter()
                .map(|(name, dur, count)| format!("{name} ({count}x, {dur})"))
                .collect()
        };
        events.push(json!({
            "name": format!("phase.{}{}", phase.id, if phase.is_noise { " (noise)" } else { "" }),
            "cat": "phase",
            "ph": "X",
            "pid": 1,
            "tid": 2,
            "ts": start.as_micros(),
            "dur": (end - start).as_micros(),
            "args": {
                "steps": phase.steps.len(),
                "first_step": phase.steps.first(),
                "last_step": phase.steps.last(),
                "total_op_time_us": phase.total_time.as_micros(),
                "top_host_ops": describe(&top.host),
                "top_tpu_ops": describe(&top.tpu),
            },
        }));
    }
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "tool": "tpupoint-analyzer",
            "model": profile.model,
            "dataset": profile.dataset,
        },
    })
}

/// Writes the Chrome-tracing JSON file.
///
/// # Errors
///
/// Returns any I/O error from `writer`.
pub fn write_chrome_trace<W: Write>(
    profile: &Profile,
    phases: &PhaseSet,
    writer: W,
) -> io::Result<()> {
    serde_json::to_writer_pretty(writer, &chrome_trace(profile, phases)).map_err(io::Error::other)
}

/// Writes the companion CSV: one row per phase with description and top
/// operators. The file is rendered in memory and handed to `writer` in
/// one `write_all`.
///
/// # Errors
///
/// Returns any I/O error from `writer`.
pub fn write_phase_csv<W: Write>(
    profile: &Profile,
    phases: &PhaseSet,
    mut writer: W,
) -> io::Result<()> {
    let totals = PhaseTotals::new(profile, &phases.phases);
    let mut out = String::with_capacity(80 + 200 * phases.phases.len());
    out.push_str(
        "phase,steps,first_step,last_step,total_op_time_us,share,top_host_ops,top_tpu_ops\n",
    );
    let total = phases.total_time.as_micros().max(1) as f64;
    for (i, phase) in phases.phases.iter().enumerate() {
        let top = totals.top_operators(i, 5);
        let fmt_ops = |rows: &[(String, SimDuration, u64)]| -> String {
            rows.iter()
                .map(|(n, _, _)| n.as_str())
                .collect::<Vec<_>>()
                .join("|")
        };
        writeln!(
            out,
            "{},{},{},{},{},{:.4},{},{}",
            phase.id,
            phase.steps.len(),
            phase.steps.first().copied().unwrap_or(0),
            phase.steps.last().copied().unwrap_or(0),
            phase.total_time.as_micros(),
            phase.total_time.as_micros() as f64 / total,
            fmt_ops(&top.host),
            fmt_ops(&top.tpu),
        )
        .expect("writing to a String cannot fail");
    }
    writer.write_all(out.as_bytes())
}

/// Writes the per-step operations CSV: "the TPU and Host CPU operations
/// executed during training steps" (Section IV-B). One row per
/// (step, operator) with counts and durations, rendered in memory and
/// handed to `writer` in one `write_all`.
///
/// # Errors
///
/// Returns any I/O error from `writer`.
pub fn write_step_csv<W: Write>(profile: &Profile, mut writer: W) -> io::Result<()> {
    // The `,{name},{side},` middle of every row, built once per op id.
    let middles: Vec<String> = profile
        .op_names
        .iter()
        .zip(&profile.op_on_host)
        .map(|(name, &on_host)| format!(",{name},{},", if on_host { "host" } else { "tpu" }))
        .collect();
    let rows: usize = profile.steps.iter().map(|r| r.ops.len()).sum();
    let widest = middles.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::with_capacity(32 + rows * (widest + 32));
    out.push_str("step,op,side,invocations,total_us\n");
    for record in &profile.steps {
        for (op, stats) in &record.ops {
            push_u64(&mut out, record.step);
            out.push_str(&middles[op.0 as usize]);
            push_u64(&mut out, stats.count);
            out.push(',');
            push_u64(&mut out, stats.total.as_micros());
            out.push('\n');
        }
    }
    writer.write_all(out.as_bytes())
}

/// Appends `v` in decimal.
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
    use crate::phases::Phase;
    use tpupoint_profiler::{StepRecord, WindowRecord};
    use tpupoint_simcore::{OpId, SimTime, Track};

    fn profile() -> Profile {
        let mut r1 = StepRecord::new(1);
        r1.absorb(
            OpId(0),
            Track::TpuCore(0),
            SimTime::from_micros(100),
            SimDuration::from_micros(50),
            SimDuration::from_micros(25),
        );
        let mut r2 = StepRecord::new(2);
        r2.absorb(
            OpId(1),
            Track::Host,
            SimTime::from_micros(200),
            SimDuration::from_micros(80),
            SimDuration::ZERO,
        );
        Profile {
            model: "m".into(),
            dataset: "d".into(),
            op_names: vec!["fusion".into(), "OutfeedDequeueTuple".into()],
            op_uses_mxu: vec![true, false],
            op_on_host: vec![false, true],
            steps: vec![r1, r2],
            windows: vec![WindowRecord {
                index: 0,
                start: SimTime::from_micros(100),
                end: SimTime::from_micros(300),
                events: 2,
                tpu_busy: SimDuration::from_micros(50),
                mxu_busy: SimDuration::from_micros(25),
                first_step: 1,
                last_step: 2,
            }],
            step_marks: vec![
                (1, SimTime::from_micros(150)),
                (2, SimTime::from_micros(280)),
            ],
            checkpoints: vec![],
            dropped_windows: 0,
            lost_events: 0,
            store_errors: 0,
            store_error: None,
        }
    }

    fn phase_set(profile: &Profile) -> PhaseSet {
        PhaseSet::from_labels(&profile.steps, &[0, 1])
    }

    #[test]
    fn trace_contains_both_tracks() {
        let p = profile();
        let trace = chrome_trace(&p, &phase_set(&p));
        let events = trace["traceEvents"].as_array().expect("array");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"] == "M")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert!(names.contains(&"Profile Breakdown"));
        assert!(names.contains(&"Phase Breakdown"));
    }

    #[test]
    fn trace_events_cover_windows_and_phases() {
        let p = profile();
        let trace = chrome_trace(&p, &phase_set(&p));
        let events = trace["traceEvents"].as_array().expect("array");
        let profiles = events.iter().filter(|e| e["cat"] == "profile").count();
        let phases = events.iter().filter(|e| e["cat"] == "phase").count();
        assert_eq!(profiles, 1);
        assert_eq!(phases, 2);
    }

    #[test]
    fn phase_events_carry_top_ops() {
        let p = profile();
        let trace = chrome_trace(&p, &phase_set(&p));
        let phase_event = trace["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["cat"] == "phase")
            .expect("phase event")
            .clone();
        let tpu_ops = phase_event["args"]["top_tpu_ops"].as_array().unwrap();
        assert!(tpu_ops[0].as_str().unwrap().contains("fusion"));
    }

    #[test]
    fn json_is_valid_and_round_trips() {
        let p = profile();
        let mut buf = Vec::new();
        write_chrome_trace(&p, &phase_set(&p), &mut buf).unwrap();
        let parsed: Value = serde_json::from_slice(&buf).expect("valid JSON");
        assert_eq!(parsed["metadata"]["model"], "m");
    }

    #[test]
    fn csv_has_one_row_per_phase() {
        let p = profile();
        let mut buf = Vec::new();
        write_phase_csv(&p, &phase_set(&p), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 phases
        assert!(lines[0].starts_with("phase,steps"));
        assert!(lines[1].contains("fusion") || lines[2].contains("fusion"));
    }

    #[test]
    fn step_csv_lists_every_step_operator_pair() {
        let p = profile();
        let mut buf = Vec::new();
        write_step_csv(&p, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 (step, op) rows
        assert!(lines[1].starts_with("1,fusion,tpu,1,50"));
        assert!(lines[2].starts_with("2,OutfeedDequeueTuple,host,1,80"));
    }

    /// Accepts every byte and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_writer_makes_one_write_call() {
        // 1500 steps of two ops each: 3000 step-CSV rows, three phases.
        let mut p = profile();
        let template = p.steps.clone();
        p.steps = (0..1500u64)
            .map(|i| {
                let mut record = template[(i % 2) as usize].clone();
                record.step = i + 1;
                record.absorb(
                    OpId((i % 2) as u32 ^ 1),
                    Track::Host,
                    SimTime::from_micros(300 * i),
                    SimDuration::from_micros(i % 7),
                    SimDuration::ZERO,
                );
                record
            })
            .collect();
        let labels: Vec<isize> = (0..1500).map(|i| i % 3).collect();
        let set = PhaseSet::from_labels(&p.steps, &labels);

        let mut trace = CountingWriter::default();
        write_chrome_trace(&p, &set, &mut trace).unwrap();
        let mut phases = CountingWriter::default();
        write_phase_csv(&p, &set, &mut phases).unwrap();
        let mut steps = CountingWriter::default();
        write_step_csv(&p, &mut steps).unwrap();
        assert_eq!(
            [trace.writes, phases.writes, steps.writes],
            [1, 1, 1],
            "trace, phase CSV and step CSV must each be one write"
        );
    }

    #[test]
    fn step_csv_renders_integers_of_every_width() {
        let mut p = profile();
        p.steps[0].step = 0;
        p.steps[1].step = u64::MAX;
        p.steps[1]
            .ops
            .get_mut(&OpId(1))
            .expect("op 1 in step 2")
            .count = 1_000_000_007;
        let mut buf = Vec::new();
        write_step_csv(&p, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!(
                "step,op,side,invocations,total_us\n0,fusion,tpu,1,50\n{},OutfeedDequeueTuple,host,1000000007,80\n",
                u64::MAX
            )
        );
    }

    #[test]
    fn empty_phase_is_skipped_in_trace() {
        let p = profile();
        let mut set = phase_set(&p);
        set.phases.push(Phase {
            id: 9,
            steps: vec![999],
            total_time: SimDuration::ZERO,
            is_noise: false,
        });
        let trace = chrome_trace(&p, &set);
        let phases = trace["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"] == "phase")
            .count();
        assert_eq!(phases, 2);
    }
}
