//! Seeded fault injection for trace logs, text and binary.
//!
//! Each mutator is deterministic: given the same input and the same
//! [`Rng`] state it produces the same corruption, so a failing property
//! case replays exactly from its seed. The faults model what crashed,
//! killed, and out-of-disk runs actually do to trace files.
//!
//! For line-oriented text logs ([`Fault`], [`inject`]):
//!
//! * [`Fault::TruncateAtByte`] — the file simply stops (kill -9, ENOSPC).
//! * [`Fault::FlipByte`] — a character is replaced (bit rot, bad copy).
//! * [`Fault::DeleteLine`] — a whole line is lost (dropped write buffer).
//! * [`Fault::DuplicateChunk`] — consecutive lines appear twice (replayed
//!   write buffer after a partial flush).
//! * [`Fault::TornTail`] — the final line is cut mid-write, leaving no
//!   terminator.
//!
//! For length-prefixed HDLOG v2 binary logs ([`BinaryFault`],
//! [`inject_binary`]), the same failure modes expressed at the frame
//! level: truncation at an arbitrary byte or strictly inside a frame, a
//! corrupted length prefix (framing lost), a flipped checksum or payload
//! byte, and whole frames deleted or replayed. The injector carries its
//! own minimal frame walker — tag byte, LEB128 length prefix, payload,
//! 2-byte checksum — so the testkit stays dependency-free and the walker
//! is an oracle of the frame grammar independent of the codec under test.
//!
//! All mutators are total: on inputs too small to corrupt meaningfully
//! they degrade gracefully (possibly to a no-op) instead of panicking, so
//! property loops never have to special-case tiny logs.

use crate::rng::Rng;

/// A kind of log corruption to inject. See the module docs for the
/// real-world failure each one models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Cut the log at a random byte (snapped to a char boundary).
    TruncateAtByte,
    /// Replace one character with a different printable ASCII character.
    FlipByte,
    /// Remove one whole line, terminator included.
    DeleteLine,
    /// Duplicate a run of 1–8 consecutive lines in place.
    DuplicateChunk,
    /// Cut within the final line so it loses its terminator.
    TornTail,
}

impl Fault {
    /// Every fault kind, for exhaustive property sweeps.
    pub const ALL: [Fault; 5] = [
        Fault::TruncateAtByte,
        Fault::FlipByte,
        Fault::DeleteLine,
        Fault::DuplicateChunk,
        Fault::TornTail,
    ];

    /// A short kebab-case name for case labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            Fault::TruncateAtByte => "truncate-at-byte",
            Fault::FlipByte => "flip-byte",
            Fault::DeleteLine => "delete-line",
            Fault::DuplicateChunk => "duplicate-chunk",
            Fault::TornTail => "torn-tail",
        }
    }

    /// True for the faults that only *remove or repeat* well-formed
    /// content, never alter it: any record surviving the fault is verbatim
    /// from the clean log, so salvaged analyses must be a subset of the
    /// clean analysis. [`Fault::FlipByte`] is the exception — a flip can
    /// yield a *different but valid* line, changing records rather than
    /// dropping them.
    pub fn is_structural(self) -> bool {
        !matches!(self, Fault::FlipByte)
    }
}

/// What [`inject`] actually did: the fault, where it struck, and how many
/// bytes it affected — enough to reconstruct the corruption in a failure
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// The fault that was injected.
    pub fault: Fault,
    /// Byte offset where the corruption starts.
    pub offset: usize,
    /// Bytes removed, replaced, or inserted (0 for a no-op degrade).
    pub len: usize,
}

/// Snaps `offset` down to the nearest char boundary of `text`.
fn snap(text: &str, mut offset: usize) -> usize {
    while offset > 0 && !text.is_char_boundary(offset) {
        offset -= 1;
    }
    offset
}

/// The byte ranges of `text`'s lines, terminators included.
fn line_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    while start < text.len() {
        let end = match text[start..].find('\n') {
            Some(i) => start + i + 1,
            None => text.len(),
        };
        spans.push((start, end));
        start = end;
    }
    spans
}

/// Applies one seeded `fault` to `text`, returning the corrupted log and
/// a [`FaultReport`] of what was done. Deterministic in `(text, fault,
/// rng state)`; total on every input including the empty string.
pub fn inject(text: &str, fault: Fault, rng: &mut Rng) -> (String, FaultReport) {
    let noop = FaultReport {
        fault,
        offset: 0,
        len: 0,
    };
    match fault {
        Fault::TruncateAtByte => {
            if text.len() < 2 {
                return (text.to_string(), noop);
            }
            let cut = snap(text, rng.range_usize(1, text.len()));
            if cut == 0 {
                return (text.to_string(), noop);
            }
            let report = FaultReport {
                fault,
                offset: cut,
                len: text.len() - cut,
            };
            (text[..cut].to_string(), report)
        }
        Fault::FlipByte => {
            if text.is_empty() {
                return (String::new(), noop);
            }
            let at = snap(text, rng.range_usize(0, text.len()));
            let original = text[at..].chars().next().expect("snapped to a char");
            // Pick a printable ASCII replacement that differs from the
            // original, so the flip is never a silent no-op.
            let mut replacement = rng.range_u8(0x20, 0x7f) as char;
            if replacement == original {
                replacement = if replacement == '~' { '!' } else { '~' };
            }
            let mut out = String::with_capacity(text.len());
            out.push_str(&text[..at]);
            out.push(replacement);
            out.push_str(&text[at + original.len_utf8()..]);
            let report = FaultReport {
                fault,
                offset: at,
                len: original.len_utf8(),
            };
            (out, report)
        }
        Fault::DeleteLine => {
            let spans = line_spans(text);
            if spans.is_empty() {
                return (text.to_string(), noop);
            }
            let (start, end) = spans[rng.range_usize(0, spans.len())];
            let mut out = String::with_capacity(text.len());
            out.push_str(&text[..start]);
            out.push_str(&text[end..]);
            let report = FaultReport {
                fault,
                offset: start,
                len: end - start,
            };
            (out, report)
        }
        Fault::DuplicateChunk => {
            let spans = line_spans(text);
            if spans.is_empty() {
                return (text.to_string(), noop);
            }
            let first = rng.range_usize(0, spans.len());
            let count = rng.range_usize(1, 9.min(spans.len() - first + 1));
            let start = spans[first].0;
            let end = spans[first + count - 1].1;
            let mut chunk = text[start..end].to_string();
            // Terminate an unterminated final line before repeating it, so
            // the duplicate is a parseable copy rather than a splice.
            if !chunk.ends_with('\n') {
                chunk.push('\n');
            }
            let mut out = String::with_capacity(text.len() + chunk.len());
            out.push_str(&text[..end]);
            out.push_str(&chunk);
            out.push_str(&text[end..]);
            let report = FaultReport {
                fault,
                offset: end,
                len: chunk.len(),
            };
            (out, report)
        }
        Fault::TornTail => {
            let spans = line_spans(text);
            let Some(&(start, end)) = spans.last() else {
                return (text.to_string(), noop);
            };
            // Cut strictly inside the last line: past its first byte,
            // before its terminator — leaving a torn, unterminated tail.
            if end - start < 2 {
                return (text.to_string(), noop);
            }
            let content_end = if text.ends_with('\n') { end - 1 } else { end };
            if content_end <= start + 1 {
                return (text.to_string(), noop);
            }
            let cut = snap(text, rng.range_usize(start + 1, content_end));
            if cut <= start {
                return (text.to_string(), noop);
            }
            let report = FaultReport {
                fault,
                offset: cut,
                len: text.len() - cut,
            };
            (text[..cut].to_string(), report)
        }
    }
}

/// A kind of corruption to inject into an HDLOG v2 binary log. Each one
/// is the frame-level expression of a real failure mode; see the module
/// docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryFault {
    /// Cut the log at a random byte — anywhere, including inside the
    /// magic (kill -9, ENOSPC).
    TruncateAtByte,
    /// Cut strictly inside a random frame, so every earlier frame stays
    /// intact (the torn final write).
    TruncateMidFrame,
    /// Overwrite the first byte of a frame's length prefix, destroying
    /// framing from that frame on.
    CorruptFrameLength,
    /// Flip one of the two stored checksum bytes of a frame — the payload
    /// is untouched, so the frame is dropped whole, never altered.
    FlipChecksumByte,
    /// Flip one payload byte of a frame (bit rot the checksum is there to
    /// catch).
    FlipPayloadByte,
    /// Remove one whole frame (dropped write buffer).
    DeleteFrame,
    /// Duplicate a run of 1–8 consecutive frames in place (replayed write
    /// buffer after a partial flush).
    DuplicateFrames,
}

impl BinaryFault {
    /// Every binary fault kind, for exhaustive property sweeps.
    pub const ALL: [BinaryFault; 7] = [
        BinaryFault::TruncateAtByte,
        BinaryFault::TruncateMidFrame,
        BinaryFault::CorruptFrameLength,
        BinaryFault::FlipChecksumByte,
        BinaryFault::FlipPayloadByte,
        BinaryFault::DeleteFrame,
        BinaryFault::DuplicateFrames,
    ];

    /// A short kebab-case name for case labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            BinaryFault::TruncateAtByte => "truncate-at-byte",
            BinaryFault::TruncateMidFrame => "truncate-mid-frame",
            BinaryFault::CorruptFrameLength => "corrupt-frame-length",
            BinaryFault::FlipChecksumByte => "flip-checksum-byte",
            BinaryFault::FlipPayloadByte => "flip-payload-byte",
            BinaryFault::DeleteFrame => "delete-frame",
            BinaryFault::DuplicateFrames => "duplicate-frames",
        }
    }

    /// True for the faults that only *remove or repeat* intact frames:
    /// any record surviving them is verbatim from the clean log.
    /// [`BinaryFault::FlipPayloadByte`] and
    /// [`BinaryFault::CorruptFrameLength`] are excluded — a flipped
    /// payload byte survives as a *different* record if the folded 16-bit
    /// checksum collides (once in 65536), and a corrupted length can
    /// splice arbitrary bytes into frame positions.
    pub fn is_structural(self) -> bool {
        !matches!(
            self,
            BinaryFault::FlipPayloadByte | BinaryFault::CorruptFrameLength
        )
    }
}

/// What [`inject_binary`] actually did; the binary analogue of
/// [`FaultReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryFaultReport {
    /// The fault that was injected.
    pub fault: BinaryFault,
    /// Byte offset where the corruption starts.
    pub offset: usize,
    /// Bytes removed, replaced, or inserted (0 for a no-op degrade).
    pub len: usize,
}

/// The eight magic bytes of an HDLOG v2 log. Kept in sync with the codec
/// by a cross-crate test; duplicated here so the testkit stays
/// dependency-free.
pub const HDLOG2_MAGIC: [u8; 8] = [0x89, b'H', b'D', b'L', b'G', b'2', 0x0D, 0x0A];

/// One well-formed frame located by [`frame_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameSpan {
    /// Offset of the tag byte.
    start: usize,
    /// Offset of the first payload byte.
    payload_start: usize,
    /// Offset one past the last payload byte (= offset of the checksum).
    payload_end: usize,
    /// Offset one past the checksum — the next frame's start.
    end: usize,
}

/// Minimal LEB128 reader: value plus bytes consumed, `None` on overflow
/// or a varint that runs off the slice.
fn read_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 || (shift == 63 && b & 0x7f > 1) {
            return None;
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Walks the frame stream, returning the spans of every structurally
/// complete frame (checksums are *not* verified — framing only). Stops at
/// the first byte that cannot be framed; an input without the magic has
/// no frames.
fn frame_spans(bytes: &[u8]) -> Vec<FrameSpan> {
    let mut spans = Vec::new();
    if !bytes.starts_with(&HDLOG2_MAGIC) {
        return spans;
    }
    let mut pos = HDLOG2_MAGIC.len();
    while pos < bytes.len() {
        let Some((payload_len, len_used)) = read_varint(&bytes[pos + 1..]) else {
            break;
        };
        let payload_start = pos + 1 + len_used;
        let Some(payload_end) = payload_start.checked_add(payload_len as usize) else {
            break;
        };
        let Some(end) = payload_end.checked_add(2) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        spans.push(FrameSpan {
            start: pos,
            payload_start,
            payload_end,
            end,
        });
        pos = end;
    }
    spans
}

/// The `(start, end, tag)` byte extents of every structurally complete
/// frame in `bytes` — the walker behind the binary injectors, exposed so
/// property tests can reason about which frames a corruption left intact
/// (e.g. "every complete `obj` frame before the cut must be salvaged").
/// Checksums are not verified; an input without the magic has no frames.
pub fn complete_frames(bytes: &[u8]) -> Vec<(usize, usize, u8)> {
    frame_spans(bytes)
        .into_iter()
        .map(|f| (f.start, f.end, bytes[f.start]))
        .collect()
}

/// Applies one seeded binary `fault` to `bytes`, returning the corrupted
/// log and a [`BinaryFaultReport`] of what was done. Deterministic in
/// `(bytes, fault, rng state)`; total on every input including streams
/// without the magic (frame-targeting faults degrade to a no-op there).
pub fn inject_binary(
    bytes: &[u8],
    fault: BinaryFault,
    rng: &mut Rng,
) -> (Vec<u8>, BinaryFaultReport) {
    let noop = |bytes: &[u8]| {
        (
            bytes.to_vec(),
            BinaryFaultReport {
                fault,
                offset: 0,
                len: 0,
            },
        )
    };
    let spans = frame_spans(bytes);
    match fault {
        BinaryFault::TruncateAtByte => {
            if bytes.len() < 2 {
                return noop(bytes);
            }
            let cut = rng.range_usize(1, bytes.len());
            let report = BinaryFaultReport {
                fault,
                offset: cut,
                len: bytes.len() - cut,
            };
            (bytes[..cut].to_vec(), report)
        }
        BinaryFault::TruncateMidFrame => {
            let Some(&f) = spans.as_slice().get(rng.range_usize(0, spans.len().max(1))) else {
                return noop(bytes);
            };
            let cut = rng.range_usize(f.start + 1, f.end);
            let report = BinaryFaultReport {
                fault,
                offset: cut,
                len: bytes.len() - cut,
            };
            (bytes[..cut].to_vec(), report)
        }
        BinaryFault::CorruptFrameLength => {
            let Some(&f) = spans.as_slice().get(rng.range_usize(0, spans.len().max(1))) else {
                return noop(bytes);
            };
            let mut out = bytes.to_vec();
            // Set the continuation bit and scramble the low bits: the
            // prefix now decodes to a different (usually huge) length or
            // to no varint at all.
            out[f.start + 1] = 0x80 | rng.range_u8(0, 0x80);
            if out[f.start + 1] == bytes[f.start + 1] {
                out[f.start + 1] ^= 0x41;
            }
            let report = BinaryFaultReport {
                fault,
                offset: f.start + 1,
                len: 1,
            };
            (out, report)
        }
        BinaryFault::FlipChecksumByte => {
            let Some(&f) = spans.as_slice().get(rng.range_usize(0, spans.len().max(1))) else {
                return noop(bytes);
            };
            let at = f.payload_end + rng.range_usize(0, 2);
            let mut out = bytes.to_vec();
            out[at] ^= rng.range_u8(1, 0xff);
            let report = BinaryFaultReport {
                fault,
                offset: at,
                len: 1,
            };
            (out, report)
        }
        BinaryFault::FlipPayloadByte => {
            // Only frames with a payload qualify; a log of empty payloads
            // degrades to a no-op.
            let with_payload: Vec<FrameSpan> = spans
                .into_iter()
                .filter(|f| f.payload_end > f.payload_start)
                .collect();
            let Some(&f) = with_payload
                .as_slice()
                .get(rng.range_usize(0, with_payload.len().max(1)))
            else {
                return noop(bytes);
            };
            let at = rng.range_usize(f.payload_start, f.payload_end);
            let mut out = bytes.to_vec();
            out[at] ^= rng.range_u8(1, 0xff);
            let report = BinaryFaultReport {
                fault,
                offset: at,
                len: 1,
            };
            (out, report)
        }
        BinaryFault::DeleteFrame => {
            let Some(&f) = spans.as_slice().get(rng.range_usize(0, spans.len().max(1))) else {
                return noop(bytes);
            };
            let mut out = Vec::with_capacity(bytes.len() - (f.end - f.start));
            out.extend_from_slice(&bytes[..f.start]);
            out.extend_from_slice(&bytes[f.end..]);
            let report = BinaryFaultReport {
                fault,
                offset: f.start,
                len: f.end - f.start,
            };
            (out, report)
        }
        BinaryFault::DuplicateFrames => {
            if spans.is_empty() {
                return noop(bytes);
            }
            let first = rng.range_usize(0, spans.len());
            let count = rng.range_usize(1, 9.min(spans.len() - first + 1));
            let start = spans[first].start;
            let end = spans[first + count - 1].end;
            let mut out = Vec::with_capacity(bytes.len() + (end - start));
            out.extend_from_slice(&bytes[..end]);
            out.extend_from_slice(&bytes[start..end]);
            out.extend_from_slice(&bytes[end..]);
            let report = BinaryFaultReport {
                fault,
                offset: end,
                len: end - start,
            };
            (out, report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\ngc 500 840 2\nend 1000\n";

    #[test]
    fn all_faults_are_total_on_tiny_inputs() {
        for fault in Fault::ALL {
            for input in ["", "x", "x\n", "\n"] {
                let mut rng = Rng::new(7);
                let (out, report) = inject(input, fault, &mut rng);
                assert_eq!(report.fault, fault);
                if report.len == 0 {
                    assert_eq!(out, input, "{}: no-op must return input", fault.name());
                }
            }
        }
    }

    #[test]
    fn truncate_shortens_and_keeps_a_prefix() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject(LOG, Fault::TruncateAtByte, &mut rng);
            assert!(out.len() < LOG.len());
            assert_eq!(out, &LOG[..report.offset]);
        }
    }

    #[test]
    fn flip_changes_exactly_one_char() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject(LOG, Fault::FlipByte, &mut rng);
            assert_ne!(out, LOG);
            assert_eq!(out.len(), LOG.len());
            assert_eq!(&out[..report.offset], &LOG[..report.offset]);
            assert_eq!(&out[report.offset + 1..], &LOG[report.offset + 1..]);
        }
    }

    #[test]
    fn delete_line_removes_one_whole_line() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed);
            let (out, _) = inject(LOG, Fault::DeleteLine, &mut rng);
            assert_eq!(out.lines().count(), LOG.lines().count() - 1);
        }
    }

    #[test]
    fn duplicate_chunk_repeats_consecutive_lines() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject(LOG, Fault::DuplicateChunk, &mut rng);
            assert!(out.len() > LOG.len());
            assert!(report.len > 0);
            // Every line of the corrupted log already existed in the input.
            for line in out.lines() {
                assert!(LOG.lines().any(|l| l == line), "foreign line `{line}`");
            }
        }
    }

    #[test]
    fn torn_tail_leaves_an_unterminated_final_line() {
        for seed in 0..32 {
            let mut rng = Rng::new(seed);
            let (out, _) = inject(LOG, Fault::TornTail, &mut rng);
            assert!(!out.ends_with('\n'));
            assert!(out.len() < LOG.len());
            // Only the final line was affected.
            let kept = out.lines().count() - 1;
            assert!(LOG.lines().take(kept).eq(out.lines().take(kept)));
        }
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        for fault in Fault::ALL {
            let mut a = Rng::new(99);
            let mut b = Rng::new(99);
            assert_eq!(inject(LOG, fault, &mut a), inject(LOG, fault, &mut b));
        }
    }

    #[test]
    fn structural_classification_excludes_flip() {
        assert!(!Fault::FlipByte.is_structural());
        assert_eq!(Fault::ALL.iter().filter(|f| f.is_structural()).count(), 4);
    }

    /// A structurally valid HDLOG v2 stream: magic plus four frames with
    /// 1-byte length prefixes. Checksums are dummies — the walker frames,
    /// it does not verify.
    fn binary_log() -> Vec<u8> {
        let mut buf = HDLOG2_MAGIC.to_vec();
        for (tag, payload) in [
            (0x01u8, &b"\x00Main.main"[..]),
            (0x02, &b"\x01\x02\x10\x05\x07\x00\x00\x00\x00"[..]),
            (0x03, &b"\x05\x20\x02"[..]),
            (0x04, &b"\x64"[..]),
        ] {
            buf.push(tag);
            buf.push(payload.len() as u8);
            buf.extend_from_slice(payload);
            buf.extend_from_slice(&[0xAA, 0xBB]); // dummy checksum
        }
        buf
    }

    #[test]
    fn walker_frames_the_sample_stream() {
        let log = binary_log();
        let spans = frame_spans(&log);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].start, HDLOG2_MAGIC.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "frames are contiguous");
        }
        assert_eq!(spans.last().unwrap().end, log.len());
        // No magic, no frames; a torn final frame is not a span.
        assert!(frame_spans(b"not a log").is_empty());
        assert_eq!(frame_spans(&log[..log.len() - 1]).len(), 3);
    }

    #[test]
    fn all_binary_faults_are_total_on_degenerate_inputs() {
        for fault in BinaryFault::ALL {
            for input in [&b""[..], &b"\x89"[..], &HDLOG2_MAGIC[..], b"text log\n"] {
                let mut rng = Rng::new(7);
                let (out, report) = inject_binary(input, fault, &mut rng);
                assert_eq!(report.fault, fault);
                if report.len == 0 {
                    assert_eq!(out, input, "{}: no-op must return input", fault.name());
                }
            }
        }
    }

    #[test]
    fn mid_frame_truncation_keeps_earlier_frames_intact() {
        let log = binary_log();
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject_binary(&log, BinaryFault::TruncateMidFrame, &mut rng);
            assert!(out.len() < log.len());
            assert_eq!(out, &log[..report.offset]);
            // Every span of the truncated stream was a span of the clean one.
            let kept = frame_spans(&out);
            let clean = frame_spans(&log);
            assert_eq!(kept.as_slice(), &clean[..kept.len()]);
        }
    }

    #[test]
    fn checksum_and_payload_flips_change_exactly_one_byte() {
        let log = binary_log();
        let spans = frame_spans(&log);
        for fault in [BinaryFault::FlipChecksumByte, BinaryFault::FlipPayloadByte] {
            for seed in 0..64 {
                let mut rng = Rng::new(seed);
                let (out, report) = inject_binary(&log, fault, &mut rng);
                assert_eq!(out.len(), log.len());
                let diff: Vec<usize> = (0..log.len()).filter(|&i| out[i] != log[i]).collect();
                assert_eq!(diff, vec![report.offset], "{}", fault.name());
                let f = spans
                    .iter()
                    .find(|f| f.start <= report.offset && report.offset < f.end)
                    .expect("flip lands inside a frame");
                match fault {
                    BinaryFault::FlipChecksumByte => assert!(report.offset >= f.payload_end),
                    _ => assert!(
                        (f.payload_start..f.payload_end).contains(&report.offset),
                        "payload flip must land in the payload"
                    ),
                }
            }
        }
    }

    #[test]
    fn delete_frame_removes_one_whole_frame() {
        let log = binary_log();
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject_binary(&log, BinaryFault::DeleteFrame, &mut rng);
            assert_eq!(out.len(), log.len() - report.len);
            let clean = frame_spans(&log);
            assert!(clean
                .iter()
                .any(|f| f.start == report.offset && f.end - f.start == report.len));
            assert_eq!(frame_spans(&out).len(), clean.len() - 1);
        }
    }

    #[test]
    fn duplicate_frames_repeats_a_contiguous_run() {
        let log = binary_log();
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject_binary(&log, BinaryFault::DuplicateFrames, &mut rng);
            assert_eq!(out.len(), log.len() + report.len);
            assert_eq!(
                &out[report.offset..report.offset + report.len],
                &out[report.offset - report.len..report.offset],
                "the inserted run repeats the bytes just before it"
            );
            assert!(frame_spans(&out).len() > frame_spans(&log).len());
        }
    }

    #[test]
    fn corrupt_length_prefix_changes_the_length_byte() {
        let log = binary_log();
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let (out, report) = inject_binary(&log, BinaryFault::CorruptFrameLength, &mut rng);
            assert_eq!(out.len(), log.len());
            assert_ne!(out[report.offset], log[report.offset]);
            assert!(out[report.offset] & 0x80 != 0, "continuation bit is set");
            let spans = frame_spans(&log);
            assert!(spans.iter().any(|f| f.start + 1 == report.offset));
        }
    }

    #[test]
    fn binary_injection_is_deterministic_in_the_seed() {
        let log = binary_log();
        for fault in BinaryFault::ALL {
            let mut a = Rng::new(99);
            let mut b = Rng::new(99);
            assert_eq!(
                inject_binary(&log, fault, &mut a),
                inject_binary(&log, fault, &mut b)
            );
        }
    }

    #[test]
    fn binary_structural_classification() {
        assert!(!BinaryFault::FlipPayloadByte.is_structural());
        assert!(!BinaryFault::CorruptFrameLength.is_structural());
        assert_eq!(
            BinaryFault::ALL
                .iter()
                .filter(|f| f.is_structural())
                .count(),
            5
        );
    }
}
