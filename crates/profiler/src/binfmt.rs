//! Length-prefixed binary segment codec for profile records.
//!
//! A segment is a self-describing byte stream: an 8-byte header (magic
//! `TPSG`, format version, three reserved bytes) followed by frames. Each
//! frame carries one [`StepRecord`] or [`WindowRecord`], or the stream's
//! one [`RunRecord`], which the writer appends last:
//!
//! ```text
//! +------+-------------+-------------+-----------------+
//! | kind | payload len | payload crc |     payload     |
//! | u8   | u32 LE      | u32 LE      | len bytes       |
//! +------+-------------+-------------+-----------------+
//! ```
//!
//! Payloads are LEB128 varints — the integer-heavy records (step numbers,
//! op counts, microsecond durations) compress to a fraction of their JSON
//! size and encode without any formatting work. The CRC-32 (IEEE) over the
//! payload plus the strict decoder make every torn tail, truncation, or
//! flipped byte detectable: [`read_segment`] stops at the first frame that
//! fails its length, checksum, or decode, and returns the valid prefix —
//! the same salvage contract as the JSONL loader's line-prefix recovery.
//!
//! The byte layout is locked by the golden test in
//! `crates/profiler/tests/binary_golden.rs`; bump [`SEGMENT_VERSION`] on
//! a layout change. A new frame kind is not one: it leaves every existing
//! frame as it was, and a reader that does not know the kind stops there
//! as it would at a torn tail.

use crate::record::{OpStats, RunRecord, StepRecord};
use crate::window::WindowRecord;
use std::collections::BTreeMap;
use tpupoint_simcore::{OpId, SimDuration, SimTime};

/// First four bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"TPSG";
/// Format version carried in byte 4 of the header.
pub const SEGMENT_VERSION: u8 = 1;
/// Header length: magic + version + three reserved zero bytes.
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Frame kind byte of a [`StepRecord`].
pub const KIND_STEP: u8 = 1;
/// Frame kind byte of a [`WindowRecord`].
pub const KIND_WINDOW: u8 = 2;
/// Frame kind byte of a [`RunRecord`].
pub const KIND_RUN: u8 = 3;
/// Bytes of framing around each payload (kind + length + checksum).
pub const FRAME_OVERHEAD: usize = 9;

/// The 8-byte header opening every segment file.
pub fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4] = SEGMENT_VERSION;
    header
}

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven. The
// table is built at compile time so the hot ingest path pays one lookup
// per byte and nothing else.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends `value` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint, advancing the cursor. `None` on truncation or
/// a varint longer than 10 bytes (which can never encode a `u64`).
fn get_varint(cursor: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = cursor.split_first()?;
        *cursor = rest;
        if shift == 63 && byte > 1 {
            return None; // overflow: more than 64 bits of payload
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encodes a step record payload (no framing) into `out`.
pub fn encode_step(record: &StepRecord, out: &mut Vec<u8>) {
    put_varint(out, record.step);
    put_varint(out, record.ops.len() as u64);
    for (op, stats) in &record.ops {
        put_varint(out, u64::from(op.0));
        put_varint(out, stats.count);
        put_varint(out, stats.total.as_micros());
    }
    put_varint(out, record.tpu_time.as_micros());
    put_varint(out, record.mxu_time.as_micros());
    put_varint(out, record.host_time.as_micros());
    put_varint(out, record.first_start.as_micros());
    put_varint(out, record.last_end.as_micros());
}

/// Decodes a step record payload. `None` unless the payload parses exactly
/// (no trailing bytes, ops in strictly ascending id order as encoded).
pub fn decode_step(payload: &[u8]) -> Option<StepRecord> {
    let mut cursor = payload;
    let step = get_varint(&mut cursor)?;
    let op_count = get_varint(&mut cursor)?;
    let mut ops = BTreeMap::new();
    let mut last_op: Option<u32> = None;
    for _ in 0..op_count {
        let op = u32::try_from(get_varint(&mut cursor)?).ok()?;
        if last_op.is_some_and(|prev| prev >= op) {
            return None; // not the canonical BTreeMap order: corrupt
        }
        last_op = Some(op);
        let count = get_varint(&mut cursor)?;
        let total = SimDuration::from_micros(get_varint(&mut cursor)?);
        ops.insert(OpId(op), OpStats { count, total });
    }
    let record = StepRecord {
        step,
        ops,
        tpu_time: SimDuration::from_micros(get_varint(&mut cursor)?),
        mxu_time: SimDuration::from_micros(get_varint(&mut cursor)?),
        host_time: SimDuration::from_micros(get_varint(&mut cursor)?),
        first_start: SimTime::from_micros(get_varint(&mut cursor)?),
        last_end: SimTime::from_micros(get_varint(&mut cursor)?),
    };
    cursor.is_empty().then_some(record)
}

/// Encodes a window record payload (no framing) into `out`.
pub fn encode_window(record: &WindowRecord, out: &mut Vec<u8>) {
    put_varint(out, record.index);
    put_varint(out, record.start.as_micros());
    put_varint(out, record.end.as_micros());
    put_varint(out, record.events);
    put_varint(out, record.tpu_busy.as_micros());
    put_varint(out, record.mxu_busy.as_micros());
    put_varint(out, record.first_step);
    put_varint(out, record.last_step);
}

/// Decodes a window record payload; strict like [`decode_step`].
pub fn decode_window(payload: &[u8]) -> Option<WindowRecord> {
    let mut cursor = payload;
    let record = WindowRecord {
        index: get_varint(&mut cursor)?,
        start: SimTime::from_micros(get_varint(&mut cursor)?),
        end: SimTime::from_micros(get_varint(&mut cursor)?),
        events: get_varint(&mut cursor)?,
        tpu_busy: SimDuration::from_micros(get_varint(&mut cursor)?),
        mxu_busy: SimDuration::from_micros(get_varint(&mut cursor)?),
        first_step: get_varint(&mut cursor)?,
        last_step: get_varint(&mut cursor)?,
    };
    cursor.is_empty().then_some(record)
}

fn put_marks(out: &mut Vec<u8>, marks: &[(u64, SimTime)]) {
    put_varint(out, marks.len() as u64);
    for &(step, at) in marks {
        put_varint(out, step);
        put_varint(out, at.as_micros());
    }
}

/// Reads a mark list. The count is bounded by the bytes left (a mark
/// takes at least two), so a corrupt count can never size an allocation.
fn get_marks(cursor: &mut &[u8]) -> Option<Vec<(u64, SimTime)>> {
    let count = usize::try_from(get_varint(cursor)?).ok()?;
    if count > cursor.len() / 2 {
        return None;
    }
    let mut marks = Vec::with_capacity(count);
    for _ in 0..count {
        marks.push((
            get_varint(cursor)?,
            SimTime::from_micros(get_varint(cursor)?),
        ));
    }
    Some(marks)
}

/// Encodes a run record payload (no framing) into `out`. The first store
/// error, when there is one, is its byte length plus one, then its UTF-8
/// bytes; `0` means none.
pub fn encode_run(record: &RunRecord, out: &mut Vec<u8>) {
    put_marks(out, &record.step_marks);
    put_marks(out, &record.checkpoints);
    put_varint(out, record.dropped_windows);
    put_varint(out, record.lost_events);
    put_varint(out, record.store_errors);
    match &record.store_error {
        Some(err) => {
            put_varint(out, err.len() as u64 + 1);
            out.extend_from_slice(err.as_bytes());
        }
        None => put_varint(out, 0),
    }
}

/// Decodes a run record payload; strict like [`decode_step`].
pub fn decode_run(payload: &[u8]) -> Option<RunRecord> {
    let mut cursor = payload;
    let step_marks = get_marks(&mut cursor)?;
    let checkpoints = get_marks(&mut cursor)?;
    let dropped_windows = get_varint(&mut cursor)?;
    let lost_events = get_varint(&mut cursor)?;
    let store_errors = get_varint(&mut cursor)?;
    let store_error = match usize::try_from(get_varint(&mut cursor)?).ok()? {
        0 => None,
        len => {
            let (bytes, rest) = cursor.split_at_checked(len - 1)?;
            cursor = rest;
            Some(String::from_utf8(bytes.to_vec()).ok()?)
        }
    };
    cursor.is_empty().then_some(RunRecord {
        step_marks,
        checkpoints,
        dropped_windows,
        lost_events,
        store_errors,
        store_error,
    })
}

/// Wraps an already-encoded payload in a frame (kind, length, checksum)
/// and appends it to `out`.
pub fn append_frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Everything salvageable from one segment's bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentRead {
    /// Step records decoded, in stream order.
    pub steps: Vec<StepRecord>,
    /// Window records decoded, in stream order.
    pub windows: Vec<WindowRecord>,
    /// The run record, when the segment holds one.
    pub run: Option<RunRecord>,
    /// True when the stream ended exactly on a frame boundary; false on a
    /// torn tail, corrupt frame, or bad header.
    pub clean: bool,
    /// Kind byte of the first invalid frame, when one was readable — lets
    /// recovery attribute a torn tail to the right record stream.
    pub torn_kind: Option<u8>,
}

/// Decodes a segment byte stream tolerantly: the valid frame prefix, never
/// a panic. A bad or truncated header yields an empty, unclean read;
/// corruption mid-stream keeps everything before the first bad frame.
pub fn read_segment(bytes: &[u8]) -> SegmentRead {
    let mut read = SegmentRead::default();
    if bytes.len() < SEGMENT_HEADER_LEN
        || bytes[..4] != SEGMENT_MAGIC
        || bytes[4] != SEGMENT_VERSION
    {
        return read;
    }
    let mut pos = SEGMENT_HEADER_LEN;
    loop {
        if pos == bytes.len() {
            read.clean = true;
            break;
        }
        let rest = &bytes[pos..];
        read.torn_kind = rest.first().copied();
        if rest.len() < FRAME_OVERHEAD {
            break; // torn mid-frame-header
        }
        let kind = rest[0];
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let want = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]);
        // checked_add: on 32-bit targets a corrupt length near u32::MAX
        // would overflow the index sum — that must read as corruption,
        // never a (debug) panic.
        let Some(frame_len) = len.checked_add(FRAME_OVERHEAD) else {
            break;
        };
        let Some(payload) = rest.get(FRAME_OVERHEAD..frame_len) else {
            break; // length runs past the end: torn tail
        };
        if crc32(payload) != want {
            break;
        }
        match kind {
            KIND_STEP => match decode_step(payload) {
                Some(record) => read.steps.push(record),
                None => break,
            },
            KIND_WINDOW => match decode_window(payload) {
                Some(record) => read.windows.push(record),
                None => break,
            },
            KIND_RUN => match decode_run(payload) {
                Some(record) => read.run = Some(record),
                None => break,
            },
            _ => break, // unknown kind: cannot resync past it safely
        }
        pos += frame_len;
        read.torn_kind = None;
    }
    read
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpupoint_simcore::Track;

    fn sample_step(step: u64) -> StepRecord {
        let mut r = StepRecord::new(step);
        r.absorb(
            OpId(3),
            Track::TpuCore(0),
            SimTime::from_micros(10 + step),
            SimDuration::from_micros(5),
            SimDuration::from_micros(2),
        );
        r.absorb(
            OpId(700),
            Track::Host,
            SimTime::from_micros(20 + step),
            SimDuration::from_micros(9),
            SimDuration::ZERO,
        );
        r
    }

    fn sample_window(index: u64) -> WindowRecord {
        WindowRecord {
            index,
            start: SimTime::from_micros(index * 100),
            end: SimTime::from_micros(index * 100 + 90),
            events: 12,
            tpu_busy: SimDuration::from_micros(40),
            mxu_busy: SimDuration::from_micros(10),
            first_step: index,
            last_step: index + 1,
        }
    }

    fn encode_segment(steps: &[StepRecord], windows: &[WindowRecord]) -> Vec<u8> {
        let mut bytes = segment_header().to_vec();
        let mut payload = Vec::new();
        for record in steps {
            payload.clear();
            encode_step(record, &mut payload);
            append_frame(KIND_STEP, &payload, &mut bytes);
        }
        for record in windows {
            payload.clear();
            encode_window(record, &mut payload);
            append_frame(KIND_WINDOW, &payload, &mut bytes);
        }
        bytes
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut cursor = buf.as_slice();
            assert_eq!(get_varint(&mut cursor), Some(value));
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut cursor: &[u8] = &[0x80];
        assert_eq!(get_varint(&mut cursor), None);
        // 11 continuation bytes cannot encode a u64.
        let long = [0x80u8; 10];
        let mut cursor: &[u8] = &long;
        assert_eq!(get_varint(&mut cursor), None);
    }

    #[test]
    fn records_round_trip() {
        let step = sample_step(42);
        let mut payload = Vec::new();
        encode_step(&step, &mut payload);
        assert_eq!(decode_step(&payload), Some(step));

        let window = sample_window(7);
        payload.clear();
        encode_window(&window, &mut payload);
        assert_eq!(decode_window(&payload), Some(window));
    }

    #[test]
    fn decoder_rejects_trailing_bytes() {
        let mut payload = Vec::new();
        encode_step(&sample_step(1), &mut payload);
        payload.push(0);
        assert_eq!(decode_step(&payload), None);
    }

    #[test]
    fn segment_round_trips_interleaved_frames() {
        let steps: Vec<StepRecord> = (0..5).map(sample_step).collect();
        let windows: Vec<WindowRecord> = (0..2).map(sample_window).collect();
        let bytes = encode_segment(&steps, &windows);
        let read = read_segment(&bytes);
        assert!(read.clean);
        assert_eq!(read.steps, steps);
        assert_eq!(read.windows, windows);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let steps: Vec<StepRecord> = (0..4).map(sample_step).collect();
        let bytes = encode_segment(&steps, &[]);
        // Frame boundaries (including the bare header) are clean cuts;
        // every other truncation must read unclean and keep the prefix.
        let mut boundaries = vec![SEGMENT_HEADER_LEN];
        let mut payload = Vec::new();
        for record in &steps {
            payload.clear();
            encode_step(record, &mut payload);
            boundaries.push(boundaries.last().unwrap() + FRAME_OVERHEAD + payload.len());
        }
        for cut in SEGMENT_HEADER_LEN..bytes.len() {
            let read = read_segment(&bytes[..cut]);
            assert_eq!(read.clean, boundaries.contains(&cut), "cut at {cut}");
            assert_eq!(read.steps, steps[..read.steps.len()], "prefix at {cut}");
            if !read.clean {
                assert_eq!(read.torn_kind, Some(KIND_STEP));
            }
        }
    }

    #[test]
    fn any_byte_flip_is_detected_and_prefix_salvaged() {
        let steps: Vec<StepRecord> = (0..3).map(sample_step).collect();
        let bytes = encode_segment(&steps, &[sample_window(0)]);
        for i in 0..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x41;
            let read = read_segment(&mangled);
            // Never a panic; decoded steps always form an exact prefix.
            assert_eq!(read.steps, steps[..read.steps.len()], "flip at {i}");
        }
    }

    #[test]
    fn corrupt_length_near_u32_max_reads_as_torn_never_panics() {
        // On 32-bit targets `len + FRAME_OVERHEAD` would overflow usize
        // for lengths near u32::MAX; the salvage contract demands that
        // read as a torn tail, not a (debug) panic.
        let steps: Vec<StepRecord> = (0..2).map(sample_step).collect();
        let mut bytes = encode_segment(&steps, &[]);
        bytes.push(KIND_STEP);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // corrupt length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let read = read_segment(&bytes);
        assert!(!read.clean);
        assert_eq!(read.steps, steps, "valid prefix survives");
        assert_eq!(read.torn_kind, Some(KIND_STEP));
    }

    fn sample_run() -> RunRecord {
        RunRecord {
            step_marks: (1..=4).map(|s| (s, SimTime::from_micros(s * 97))).collect(),
            checkpoints: vec![
                (2, SimTime::from_micros(200)),
                (4, SimTime::from_micros(401)),
            ],
            dropped_windows: 3,
            lost_events: 1_234,
            store_errors: 1,
            store_error: Some("seal: disk full é".into()),
        }
    }

    #[test]
    fn run_frame_round_trips_and_any_damage_reads_as_torn() {
        let steps: Vec<StepRecord> = (0..2).map(sample_step).collect();
        let mut bytes = encode_segment(&steps, &[]);
        let run_at = bytes.len();
        let mut payload = Vec::new();
        encode_run(&sample_run(), &mut payload);
        append_frame(KIND_RUN, &payload, &mut bytes);
        let read = read_segment(&bytes);
        assert!(read.clean);
        assert_eq!(read.run, Some(sample_run()));
        assert_eq!(read.steps, steps);
        // The payload layout, pinned byte for byte: marks, checkpoints,
        // the three counts, then the store error's length plus one.
        payload.clear();
        encode_run(
            &RunRecord {
                step_marks: vec![
                    (1, SimTime::from_micros(97)),
                    (2, SimTime::from_micros(300)),
                ],
                checkpoints: vec![(2, SimTime::from_micros(301))],
                dropped_windows: 1,
                lost_events: 130,
                store_errors: 1,
                store_error: Some("e".into()),
            },
            &mut payload,
        );
        let pinned = [2, 1, 97, 2, 0xAC, 2, 1, 2, 0xAD, 2, 1, 0x82, 1, 1, 2, b'e'];
        assert_eq!(payload, pinned);
        // No store error round-trips as none, not as an empty string.
        for store_error in [None, Some(String::new())] {
            let run = RunRecord {
                store_error,
                ..RunRecord::default()
            };
            payload.clear();
            encode_run(&run, &mut payload);
            assert_eq!(decode_run(&payload), Some(run));
        }

        // Every cut and every flipped byte of the run frame reads torn,
        // keeps the steps before it, and invents no run record.
        for cut in run_at + 1..bytes.len() {
            let read = read_segment(&bytes[..cut]);
            assert!(!read.clean && read.run.is_none(), "cut at {cut}");
            assert_eq!(read.steps, steps);
        }
        for i in run_at..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x41;
            let read = read_segment(&mangled);
            assert!(!read.clean && read.run.is_none(), "flip at {i}");
            assert_eq!(read.steps, steps);
        }

        // Garbage payloads framed with a valid checksum decode strictly:
        // counts past the payload, a string past the payload, invalid
        // UTF-8 and trailing bytes all read as torn.
        let mut huge_count = Vec::new();
        put_varint(&mut huge_count, u64::MAX);
        let mut long_error = Vec::new();
        for _ in 0..5 {
            put_varint(&mut long_error, 0);
        }
        put_varint(&mut long_error, 1_000);
        let mut trailing = payload.clone();
        trailing.push(0);
        for garbage in [
            huge_count,
            vec![0x80; 12],
            vec![40, 1, 2],
            long_error,
            vec![0, 0, 0, 0, 0, 2, 0xFF],
            trailing,
            Vec::new(),
        ] {
            assert_eq!(decode_run(&garbage), None, "{garbage:?}");
            let mut bytes = encode_segment(&steps, &[]);
            append_frame(KIND_RUN, &garbage, &mut bytes);
            let read = read_segment(&bytes);
            assert!(!read.clean && read.run.is_none());
            assert_eq!(read.torn_kind, Some(KIND_RUN));
            assert_eq!(read.steps, steps);
        }
    }

    #[test]
    fn bad_header_reads_empty() {
        let read = read_segment(b"JUNKJUNKJUNK");
        assert!(!read.clean);
        assert!(read.steps.is_empty() && read.windows.is_empty());
        let read = read_segment(&[]);
        assert!(!read.clean);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
