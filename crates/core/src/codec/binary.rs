//! HDLOG v2: the length-prefixed binary trace codec.
//!
//! # Frame grammar
//!
//! ```text
//! file    := MAGIC frame*
//! MAGIC   := 89 48 44 4C 47 32 0D 0A        ; "\x89HDLG2\r\n"
//! frame   := tag varint(payload_len) payload checksum
//! tag     := 01 (chain) | 02 (obj) | 03 (gc) | 04 (end) | 05 (retain)
//! checksum:= u16 LE — FNV-1a32 over tag+payload, folded to 16 bits
//! ```
//!
//! Payloads are LEB128 varints; optional fields are a presence flag
//! (`0` = absent, `1` = present followed by the value):
//!
//! ```text
//! chain  := varint(id) name-bytes           ; name is the rest of the payload
//! obj    := varint(object) varint(class) varint(size) varint(created)
//!           varint(freed - created) opt(last_use - created)
//!           varint(alloc_chain) opt(use_chain) varint(at_exit)
//! gc     := varint(time) varint(reachable_bytes) varint(reachable_count)
//! end    := varint(end_time)
//! retain := varint(alloc_chain) varint(size) varint(time) varint(depth)
//!           varint(truncated) path-bytes    ; path is the rest of the payload
//! ```
//!
//! The two time deltas are *wrapping* differences mod 2^64 — a bijection,
//! so every `u64` round-trips even if a record's `freed` precedes its
//! `created`. They are deltas because an object's lifetime is tiny next to
//! the absolute clock value late in a trace: one or two varint bytes
//! instead of three or four.
//!
//! The magic's first byte has the high bit set, so no UTF-8 text log can
//! alias it — that's what makes [`super::LogFormat::detect`] sound.
//!
//! # Error mapping and salvage
//!
//! The taxonomy is shared with the text codec ([`crate::log::ErrorCode`]);
//! the binary-specific mapping follows from whether *framing* survives the
//! fault:
//!
//! * **Checksum mismatch** (`E011`): the length prefix still walks to the
//!   next frame, so salvage drops just that frame and continues.
//! * **Payload decode failure** (`E004` short payload / `E005` bad or
//!   oversized varint): framing intact — that frame is dropped.
//! * **Unknown tag** (`E003`): the envelope is tag-independent, so if the
//!   length prefix decodes and the whole frame is present, salvage skips
//!   exactly that frame and continues — a reader at this revision walks
//!   cleanly over frames minted by a future one. This mirrors the text
//!   codec, where an unknown directive drops one line.
//! * **Undecodable length prefix** (`E005`): framing is lost and there is
//!   no resync marker, so salvage keeps the intact prefix and drops the
//!   rest of the input as one unit — whatever the tag byte said.
//! * **Truncation mid-frame** (`E007`): the torn write — salvage recovers
//!   every complete frame before the tear, known tag or not.
//!
//! In a [`LogError`] from this codec, `line` is the 1-based *frame* number
//! and `byte` the frame's start offset.

use std::io::{self, Write};

use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

use crate::log::{ErrorCode, LogError};
use crate::record::{GcSample, ObjectRecord, RetainRecord};

use super::{
    check_retain_path, frame_checksum, normalize_chain_name, read_varint, write_varint, ChunkOut,
    FrameMeta, OwnedChunk, OwnedFrames, StreamScanState, TraceSink,
};
#[cfg(test)]
use super::{Chunk, ScanOutput};

/// The eight magic bytes every HDLOG v2 file starts with.
pub const MAGIC: [u8; 8] = [0x89, b'H', b'D', b'L', b'G', b'2', 0x0D, 0x0A];

/// Frame tag: one chain-name table entry.
pub(crate) const TAG_CHAIN: u8 = 0x01;
/// Frame tag: one object record.
pub(crate) const TAG_OBJ: u8 = 0x02;
/// Frame tag: one deep-GC sample.
pub(crate) const TAG_GC: u8 = 0x03;
/// Frame tag: the end-of-log marker.
pub(crate) const TAG_END: u8 = 0x04;
/// Frame tag: one retaining-path sample.
pub(crate) const TAG_RETAIN: u8 = 0x05;

/// Streams a trace as HDLOG v2 frames to any [`io::Write`].
#[derive(Debug)]
pub struct BinarySink<W> {
    writer: W,
    scratch: Vec<u8>,
}

impl<W: Write> BinarySink<W> {
    /// Wraps `writer` in a binary-format sink.
    pub fn new(writer: W) -> Self {
        BinarySink {
            writer,
            scratch: Vec::with_capacity(64),
        }
    }

    fn frame(&mut self, tag: u8) -> io::Result<()> {
        let mut head = Vec::with_capacity(11);
        head.push(tag);
        write_varint(&mut head, self.scratch.len() as u64);
        self.writer.write_all(&head)?;
        self.writer.write_all(&self.scratch)?;
        let crc = frame_checksum(tag, &self.scratch);
        self.writer.write_all(&crc.to_le_bytes())?;
        self.scratch.clear();
        Ok(())
    }
}

fn push_opt(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => write_varint(buf, 0),
        Some(v) => {
            write_varint(buf, 1);
            write_varint(buf, v);
        }
    }
}

impl<W: Write> TraceSink for BinarySink<W> {
    fn begin(&mut self) -> io::Result<()> {
        self.writer.write_all(&MAGIC)
    }

    fn chain(&mut self, id: ChainId, name: &str) -> io::Result<()> {
        write_varint(&mut self.scratch, u64::from(id.0));
        self.scratch.extend_from_slice(name.as_bytes());
        self.frame(TAG_CHAIN)
    }

    fn record(&mut self, r: &ObjectRecord) -> io::Result<()> {
        write_varint(&mut self.scratch, r.object.0);
        write_varint(&mut self.scratch, u64::from(r.class.0));
        write_varint(&mut self.scratch, r.size);
        write_varint(&mut self.scratch, r.created);
        write_varint(&mut self.scratch, r.freed.wrapping_sub(r.created));
        push_opt(
            &mut self.scratch,
            r.last_use.map(|t| t.wrapping_sub(r.created)),
        );
        write_varint(&mut self.scratch, u64::from(r.alloc_site.0));
        push_opt(&mut self.scratch, r.last_use_site.map(|c| u64::from(c.0)));
        write_varint(&mut self.scratch, u64::from(r.at_exit));
        self.frame(TAG_OBJ)
    }

    fn sample(&mut self, s: &GcSample) -> io::Result<()> {
        write_varint(&mut self.scratch, s.time);
        write_varint(&mut self.scratch, s.reachable_bytes);
        write_varint(&mut self.scratch, s.reachable_count);
        self.frame(TAG_GC)
    }

    fn retain(&mut self, r: &RetainRecord) -> io::Result<()> {
        check_retain_path(r)?;
        write_varint(&mut self.scratch, u64::from(r.alloc_site.0));
        write_varint(&mut self.scratch, r.size);
        write_varint(&mut self.scratch, r.time);
        write_varint(&mut self.scratch, u64::from(r.depth));
        write_varint(&mut self.scratch, u64::from(r.truncated));
        self.scratch
            .extend_from_slice(normalize_chain_name(&r.path).as_bytes());
        self.frame(TAG_RETAIN)
    }

    fn end(&mut self, end_time: u64) -> io::Result<()> {
        write_varint(&mut self.scratch, end_time);
        self.frame(TAG_END)
    }
}

/// One raw frame with its byte extent: a borrowed view the chunk decoder
/// works on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawFrame<'a> {
    /// 1-based frame number (reported as the error `line`).
    pub(crate) frame: usize,
    /// Byte offset of the frame start (the tag byte).
    pub(crate) byte: u64,
    /// Total frame length: tag + length prefix + payload + checksum.
    pub(crate) len: u64,
    /// The frame tag.
    pub(crate) tag: u8,
    /// The payload bytes (length prefix and checksum stripped).
    pub(crate) payload: &'a [u8],
    /// The stored (little-endian) checksum, not yet verified.
    pub(crate) crc: u16,
}

impl RawFrame<'_> {
    /// Verifies the stored checksum against the tag and payload.
    fn verify(&self) -> Result<(), LogError> {
        let want = frame_checksum(self.tag, self.payload);
        if want == self.crc {
            return Ok(());
        }
        Err(LogError::new(
            ErrorCode::FrameChecksum,
            self.frame,
            format!(
                "frame checksum mismatch (stored {:#06x}, computed {want:#06x})",
                self.crc
            ),
        ))
    }
}

/// A varint reader over one frame payload, mapping failures to the shared
/// taxonomy: an exhausted payload is `E004` (missing field), a broken or
/// overflowing varint — or a value too wide for its field — is `E005`.
struct Fields<'a> {
    payload: &'a [u8],
    pos: usize,
    frame: usize,
}

impl<'a> Fields<'a> {
    fn new(f: &RawFrame<'a>) -> Self {
        Fields {
            payload: f.payload,
            pos: 0,
            frame: f.frame,
        }
    }

    fn u64_field(&mut self, what: &str) -> Result<u64, LogError> {
        if self.pos >= self.payload.len() {
            return Err(LogError::new(
                ErrorCode::MissingField,
                self.frame,
                format!("missing field `{what}`"),
            ));
        }
        match read_varint(&self.payload[self.pos..]) {
            Some((v, used)) => {
                self.pos += used;
                Ok(v)
            }
            None => Err(LogError::new(
                ErrorCode::BadFieldValue,
                self.frame,
                format!("bad varint for `{what}`"),
            )),
        }
    }

    fn u32_field(&mut self, what: &str) -> Result<u32, LogError> {
        let v = self.u64_field(what)?;
        u32::try_from(v).map_err(|_| {
            LogError::new(
                ErrorCode::BadFieldValue,
                self.frame,
                format!("bad value `{v}` for `{what}`"),
            )
        })
    }

    fn opt_field(&mut self, what: &str) -> Result<Option<u64>, LogError> {
        match self.u64_field(what)? {
            0 => Ok(None),
            1 => self.u64_field(what).map(Some),
            flag => Err(LogError::new(
                ErrorCode::BadFieldValue,
                self.frame,
                format!("bad presence flag `{flag}` for `{what}`"),
            )),
        }
    }

    /// The payload must be consumed exactly; trailing bytes are `E005`.
    fn finish(self) -> Result<(), LogError> {
        if self.pos == self.payload.len() {
            return Ok(());
        }
        Err(LogError::new(
            ErrorCode::BadFieldValue,
            self.frame,
            format!(
                "{} trailing payload byte(s) after the last field",
                self.payload.len() - self.pos
            ),
        ))
    }
}

fn decode_obj(f: &RawFrame<'_>) -> Result<ObjectRecord, LogError> {
    let mut p = Fields::new(f);
    let object = ObjectId(p.u64_field("object id")?);
    let class = ClassId(p.u32_field("class id")?);
    let size = p.u64_field("size")?;
    let created = p.u64_field("created")?;
    let record = ObjectRecord {
        object,
        class,
        size,
        created,
        freed: created.wrapping_add(p.u64_field("freed delta")?),
        last_use: p
            .opt_field("last-use delta")?
            .map(|d| created.wrapping_add(d)),
        alloc_site: ChainId(p.u32_field("alloc chain")?),
        last_use_site: match p.opt_field("use chain")? {
            None => None,
            Some(v) => Some(ChainId(u32::try_from(v).map_err(|_| {
                LogError::new(
                    ErrorCode::BadFieldValue,
                    f.frame,
                    format!("bad value `{v}` for `use chain`"),
                )
            })?)),
        },
        at_exit: p.u64_field("at-exit flag")? != 0,
    };
    p.finish()?;
    Ok(record)
}

fn decode_gc(f: &RawFrame<'_>) -> Result<GcSample, LogError> {
    let mut p = Fields::new(f);
    let sample = GcSample {
        time: p.u64_field("time")?,
        reachable_bytes: p.u64_field("reachable bytes")?,
        reachable_count: p.u64_field("reachable count")?,
    };
    p.finish()?;
    Ok(sample)
}

fn decode_retain(f: &RawFrame<'_>) -> Result<RetainRecord, LogError> {
    let mut p = Fields::new(f);
    let alloc_site = ChainId(p.u32_field("alloc chain")?);
    let size = p.u64_field("size")?;
    let time = p.u64_field("time")?;
    let depth = p.u32_field("depth")?;
    let truncated = match p.u64_field("truncated flag")? {
        0 => false,
        1 => true,
        flag => {
            return Err(LogError::new(
                ErrorCode::BadFieldValue,
                f.frame,
                format!("bad truncated flag `{flag}`"),
            ))
        }
    };
    let path = normalize_chain_name(&String::from_utf8_lossy(&f.payload[p.pos..]));
    if path.is_empty() {
        return Err(LogError::new(
            ErrorCode::MissingField,
            f.frame,
            "missing field `path`".into(),
        ));
    }
    Ok(RetainRecord {
        alloc_site,
        size,
        time,
        depth,
        truncated,
        path,
    })
}

/// Decodes one chunk of `obj`/`gc`/`retain` frames: per-frame checksum verification
/// first (`E011` on mismatch), then payload decoding. In strict mode the
/// first bad frame ends the chunk; in salvage mode bad frames are dropped
/// and counted, and decoding continues — framing is already settled, so a
/// bad frame never takes its neighbours with it.
pub(crate) fn parse_chunk(frames: &[RawFrame<'_>], chunk: usize, salvage: bool) -> ChunkOut {
    let mut out = ChunkOut::default();
    for f in frames {
        let result = f.verify().and_then(|()| match f.tag {
            TAG_OBJ => decode_obj(f).map(|r| out.records.push(r)),
            TAG_GC => decode_gc(f).map(|s| out.samples.push(s)),
            TAG_RETAIN => decode_retain(f).map(|r| out.retains.push(r)),
            tag => unreachable!("chunked frame {} is not obj/gc/retain: {tag:#04x}", f.frame),
        });
        if let Err(mut e) = result {
            e.byte = f.byte;
            e.chunk = Some(chunk);
            out.errors.push(e);
            if !salvage {
                break;
            }
            out.units_dropped += 1;
            out.bytes_skipped += f.len;
        }
    }
    out
}

/// The whole-input reference scan that [`StreamScanner`] is tested
/// against: walk the frame stream once, hopping from length prefix to
/// length prefix — no delimiter search. `chain`/`end` frames are verified
/// and decoded in place; `obj`/`gc`/`retain` frames are batched into
/// chunks of `chunk_records` frames, checksums deferred to the chunk
/// decode.
///
/// Framing-destroying faults (undecodable length prefix, truncation) end
/// the scan: strict aborts, salvage keeps the intact prefix and counts
/// the remainder as skipped. A complete frame with an unknown tag is
/// skipped frame-by-frame (`E003`) — the envelope still walks. Payload-
/// level faults in `chain`/`end` frames drop just that frame.
#[cfg(test)]
pub(crate) fn scan(bytes: &[u8], salvage: bool, chunk_records: usize) -> ScanOutput<'_> {
    let mut out = ScanOutput::new();
    let mut chunks: Vec<Vec<RawFrame<'_>>> = Vec::new();
    let mut current: Vec<RawFrame<'_>> = Vec::new();
    let mut n = 0usize;

    // The caller dispatched here on the magic, but scan() re-checks so it
    // is safe on any byte slice (fuzzed inputs included).
    let mut pos = if bytes.starts_with(&MAGIC) {
        MAGIC.len()
    } else {
        let e = LogError::new(
            ErrorCode::BadHeader,
            1,
            "input does not start with the HDLOG v2 magic".into(),
        );
        out.note(e, bytes.len() as u64, salvage);
        out.next_position = (2, bytes.len() as u64);
        return out;
    };

    while pos < bytes.len() {
        n += 1;
        let start = pos;
        let remaining = (bytes.len() - start) as u64;
        let tag = bytes[start];
        let (payload_len, len_used) = match read_varint(&bytes[start + 1..]) {
            Some(v) => v,
            None => {
                // A varint that dies within 10 available bytes is corrupt;
                // one that runs off the end of the input is a torn write.
                let (code, what) = if bytes.len() - (start + 1) >= 10 {
                    (ErrorCode::BadFieldValue, "corrupt frame length prefix")
                } else {
                    (
                        ErrorCode::TornTail,
                        "input ends inside a frame length prefix",
                    )
                };
                let mut e =
                    LogError::new(code, n, format!("{what}; dropping the rest of the input"));
                e.byte = start as u64;
                out.note(e, remaining, salvage);
                break;
            }
        };
        let header = 1 + len_used as u64;
        let frame_total = match payload_len
            .checked_add(header)
            .and_then(|v| v.checked_add(2))
        {
            Some(total) if total <= remaining => total,
            _ => {
                let mut e = LogError::new(
                    ErrorCode::TornTail,
                    n,
                    format!(
                        "input ends inside frame {n} (payload length {payload_len}, {} byte(s) left)",
                        remaining.saturating_sub(header)
                    ),
                );
                e.byte = start as u64;
                out.note(e, remaining, salvage);
                break;
            }
        };
        let payload_start = start + header as usize;
        let payload_end = payload_start + payload_len as usize;
        let frame = RawFrame {
            frame: n,
            byte: start as u64,
            len: frame_total,
            tag,
            payload: &bytes[payload_start..payload_end],
            crc: u16::from_le_bytes([bytes[payload_end], bytes[payload_end + 1]]),
        };
        pos = start + frame_total as usize;

        match tag {
            TAG_OBJ | TAG_GC | TAG_RETAIN => {
                current.push(frame);
                if current.len() >= chunk_records {
                    chunks.push(std::mem::take(&mut current));
                }
            }
            TAG_END => {
                let result = frame.verify().and_then(|()| {
                    let mut p = Fields::new(&frame);
                    let t = p.u64_field("end time")?;
                    p.finish()?;
                    Ok(t)
                });
                match result {
                    Ok(t) => {
                        out.end_time = t;
                        out.saw_end = true;
                    }
                    Err(mut e) => {
                        e.byte = frame.byte;
                        if out.note(e, frame.len, salvage) {
                            break;
                        }
                    }
                }
            }
            TAG_CHAIN => {
                let result = frame.verify().and_then(|()| {
                    let mut p = Fields::new(&frame);
                    let id = p.u32_field("chain id")?;
                    let name = &frame.payload[p.pos..];
                    Ok((id, normalize_chain_name(&String::from_utf8_lossy(name))))
                });
                match result {
                    Ok((id, name)) => {
                        out.chain_names.insert(ChainId(id), name);
                    }
                    Err(mut e) => {
                        e.byte = frame.byte;
                        if out.note(e, frame.len, salvage) {
                            break;
                        }
                    }
                }
            }
            _ => {
                // Unknown tag, but the length prefix walked to the next
                // frame: skip exactly this frame (forward compatibility).
                let mut e = LogError::new(
                    ErrorCode::UnknownDirective,
                    n,
                    format!("unknown frame tag {tag:#04x}; skipping one frame"),
                );
                e.byte = frame.byte;
                if out.note(e, frame.len, salvage) {
                    break;
                }
            }
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    out.chunks = chunks.into_iter().map(Chunk::Frames).collect();
    out.next_position = (n + 1, bytes.len() as u64);
    out
}

/// The largest claimed payload the incremental scanner will buffer while
/// waiting for the rest of a frame. Real frames are tens of bytes; a
/// claim beyond this bound is corruption, and buffering it would let a
/// three-byte length prefix demand gigabytes of memory. Past the bound
/// the scanner stops buffering, counts the remaining input, and reports
/// the frame as a torn tail at end-of-stream. (The one divergence from
/// the reference scan: a *legitimate* frame larger than this would have
/// decoded there — no real trace contains one.)
const MAX_BUFFERED_FRAME: u64 = 64 * 1024 * 1024;

/// Why the incremental scanner stopped walking frames before
/// end-of-input.
#[derive(Debug)]
enum StallKind {
    /// Framing lost (corrupt length prefix, missing magic): the error is
    /// already recorded; the remaining input is counted and charged as
    /// skipped at end-of-stream. (An unknown tag no longer lands here —
    /// its frame is skipped individually as long as the envelope walks.)
    Dead { from: u64 },
    /// A frame claimed more than [`MAX_BUFFERED_FRAME`]: reported as a
    /// torn tail at end-of-stream, once the leftover byte count is known.
    OverCap {
        frame: usize,
        start: u64,
        payload_len: u64,
        header: u64,
    },
}

/// The incremental scanner behind [`crate::stream`]: fed arbitrary byte
/// blocks, it walks the frame stream across block boundaries, holding
/// only the current incomplete frame, and replays the exact error
/// classification of the whole-input reference scan its tests hold it
/// against — including the E005-vs-E007 distinction for a length prefix
/// that is corrupt versus merely truncated.
#[derive(Debug)]
pub(crate) struct StreamScanner {
    chunk_records: usize,
    /// Unconsumed bytes: at most one incomplete frame (plus whatever the
    /// last block appended).
    buf: Vec<u8>,
    /// Absolute input offset of `buf[0]`.
    base: u64,
    /// Total bytes fed so far.
    total: u64,
    /// Frames walked so far (including a final failed attempt).
    n: usize,
    checked_magic: bool,
    /// Set on a missing-magic error, which reports `next_position`
    /// differently from the frame walk.
    no_magic: bool,
    stall: Option<StallKind>,
    current: OwnedFrames,
    /// The accumulated shared state; read it after [`Self::finish`].
    pub(crate) state: StreamScanState,
}

impl StreamScanner {
    pub(crate) fn new(salvage: bool, chunk_records: usize) -> Self {
        StreamScanner {
            chunk_records: chunk_records.max(1),
            buf: Vec::new(),
            base: 0,
            total: 0,
            n: 0,
            checked_magic: false,
            no_magic: false,
            stall: None,
            current: OwnedFrames::default(),
            state: StreamScanState::new(salvage),
        }
    }

    /// Bytes currently held by the scanner itself (the incomplete frame
    /// plus the partially-filled chunk), for the peak-memory gauge.
    pub(crate) fn buffered_bytes(&self) -> u64 {
        (self.buf.len() + self.current.buf.len()) as u64
    }

    /// Feeds one block of input; completed chunks are appended to `out`.
    pub(crate) fn feed(&mut self, data: &[u8], out: &mut Vec<OwnedChunk>) {
        self.total += data.len() as u64;
        if self.state.aborted || self.stall.is_some() {
            return; // dead input is only counted, never buffered
        }
        self.buf.extend_from_slice(data);
        self.scan_buf(out);
    }

    /// Signals end-of-input: classifies whatever is left in the buffer,
    /// settles deferred framing-loss byte counts, flushes the partial
    /// chunk, and finalises `next_position`.
    pub(crate) fn finish(&mut self, out: &mut Vec<OwnedChunk>) {
        match self.stall.take() {
            Some(StallKind::Dead { from }) => {
                if self.state.salvage() {
                    self.state.bytes_skipped += self.total - from;
                }
            }
            Some(StallKind::OverCap {
                frame,
                start,
                payload_len,
                header,
            }) => {
                let remaining = self.total - start;
                let mut e = LogError::new(
                    ErrorCode::TornTail,
                    frame,
                    format!(
                        "input ends inside frame {frame} (payload length {payload_len}, {} byte(s) left)",
                        remaining.saturating_sub(header)
                    ),
                );
                e.byte = start;
                self.state.note(e, remaining);
            }
            None => {
                if !self.checked_magic && !self.no_magic && !self.state.aborted {
                    // Input ended before the eight magic bytes.
                    let e = LogError::new(
                        ErrorCode::BadHeader,
                        1,
                        "input does not start with the HDLOG v2 magic".into(),
                    );
                    self.state.note(e, self.total);
                    self.no_magic = true;
                } else if !self.buf.is_empty() && !self.state.aborted {
                    self.classify_tail();
                }
            }
        }
        if !self.current.metas.is_empty() {
            out.push(OwnedChunk::Frames(std::mem::take(&mut self.current)));
        }
        self.state.next_position = if self.no_magic {
            (2, self.total)
        } else {
            (self.n + 1, self.total)
        };
    }

    /// Records a framing-loss error and switches to counting the rest of
    /// the input (strict mode aborts via the latch inside `note`).
    fn framing_lost(&mut self, e: LogError, from: u64) {
        self.state.note(e, 0);
        if !self.state.aborted {
            self.stall = Some(StallKind::Dead { from });
        }
        self.buf.clear();
    }

    fn scan_buf(&mut self, out: &mut Vec<OwnedChunk>) {
        if !self.checked_magic {
            if self.buf.len() < MAGIC.len() {
                return;
            }
            if !self.buf.starts_with(&MAGIC) {
                self.no_magic = true;
                let e = LogError::new(
                    ErrorCode::BadHeader,
                    1,
                    "input does not start with the HDLOG v2 magic".into(),
                );
                self.framing_lost(e, 0);
                return;
            }
            self.checked_magic = true;
            self.buf.drain(..MAGIC.len());
            self.base = MAGIC.len() as u64;
        }
        let mut off = 0usize;
        loop {
            if self.state.aborted || self.stall.is_some() {
                break;
            }
            let avail = self.buf.len() - off;
            if avail == 0 {
                break;
            }
            let start_abs = self.base + off as u64;
            let tag = self.buf[off];
            let (payload_len, len_used) = match read_varint(&self.buf[off + 1..]) {
                Some(v) => v,
                None => {
                    // A varint still undecodable with 10 bytes in hand is
                    // corrupt; with fewer we wait for more input (at EOF,
                    // `classify_tail` calls it a torn write).
                    if avail > 10 {
                        self.n += 1;
                        let mut e = LogError::new(
                            ErrorCode::BadFieldValue,
                            self.n,
                            "corrupt frame length prefix; dropping the rest of the input".into(),
                        );
                        e.byte = start_abs;
                        self.base += self.buf.len() as u64;
                        self.framing_lost(e, start_abs);
                        return;
                    }
                    break;
                }
            };
            let header = 1 + len_used as u64;
            let frame_total = match payload_len
                .checked_add(header)
                .and_then(|v| v.checked_add(2))
            {
                Some(total) if total <= avail as u64 => total,
                Some(total) if total <= MAX_BUFFERED_FRAME => break, // wait for the rest
                _ => {
                    self.n += 1;
                    self.stall = Some(StallKind::OverCap {
                        frame: self.n,
                        start: start_abs,
                        payload_len,
                        header,
                    });
                    self.base += self.buf.len() as u64;
                    self.buf.clear();
                    return;
                }
            };
            self.n += 1;
            let payload_start = off + header as usize;
            let payload_end = payload_start + payload_len as usize;
            let frame = RawFrame {
                frame: self.n,
                byte: start_abs,
                len: frame_total,
                tag,
                payload: &self.buf[payload_start..payload_end],
                crc: u16::from_le_bytes([self.buf[payload_end], self.buf[payload_end + 1]]),
            };
            match tag {
                TAG_OBJ | TAG_GC | TAG_RETAIN => {
                    let start = self.current.buf.len();
                    self.current.buf.extend_from_slice(frame.payload);
                    self.current.metas.push(FrameMeta {
                        frame: self.n,
                        byte: start_abs,
                        len: frame_total,
                        tag,
                        crc: frame.crc,
                        start,
                        end: self.current.buf.len(),
                    });
                    if self.current.metas.len() >= self.chunk_records {
                        out.push(OwnedChunk::Frames(std::mem::take(&mut self.current)));
                    }
                }
                TAG_END => {
                    let result = frame.verify().and_then(|()| {
                        let mut p = Fields::new(&frame);
                        let t = p.u64_field("end time")?;
                        p.finish()?;
                        Ok(t)
                    });
                    match result {
                        Ok(t) => {
                            self.state.end_time = t;
                            self.state.saw_end = true;
                        }
                        Err(mut e) => {
                            e.byte = start_abs;
                            self.state.note(e, frame_total);
                        }
                    }
                }
                TAG_CHAIN => {
                    let result = frame.verify().and_then(|()| {
                        let mut p = Fields::new(&frame);
                        let id = p.u32_field("chain id")?;
                        let name = &frame.payload[p.pos..];
                        Ok((id, normalize_chain_name(&String::from_utf8_lossy(name))))
                    });
                    match result {
                        Ok((id, name)) => {
                            self.state.chain_names.insert(ChainId(id), name);
                        }
                        Err(mut e) => {
                            e.byte = start_abs;
                            self.state.note(e, frame_total);
                        }
                    }
                }
                _ => {
                    // Mirrors the batch scan: a complete frame with an
                    // unknown tag is skipped on its own.
                    let mut e = LogError::new(
                        ErrorCode::UnknownDirective,
                        self.n,
                        format!("unknown frame tag {tag:#04x}; skipping one frame"),
                    );
                    e.byte = start_abs;
                    self.state.note(e, frame_total);
                }
            }
            off += frame_total as usize;
        }
        self.buf.drain(..off);
        self.base += off as u64;
    }

    /// End-of-input reached with a frame still open: the torn-tail
    /// classification of the reference scan. (The corrupt-prefix case is
    /// impossible here — `scan_buf` flags it as soon as ten bytes are in
    /// hand.)
    fn classify_tail(&mut self) {
        let start_abs = self.base;
        let remaining = self.total - start_abs;
        self.n += 1;
        let mut e = match read_varint(&self.buf[1..]) {
            None => LogError::new(
                ErrorCode::TornTail,
                self.n,
                "input ends inside a frame length prefix; dropping the rest of the input".into(),
            ),
            Some((payload_len, len_used)) => {
                let header = 1 + len_used as u64;
                LogError::new(
                    ErrorCode::TornTail,
                    self.n,
                    format!(
                        "input ends inside frame {} (payload length {payload_len}, {} byte(s) left)",
                        self.n,
                        remaining.saturating_sub(header)
                    ),
                )
            }
        };
        e.byte = start_abs;
        self.state.note(e, remaining);
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        let mut buf = Vec::new();
        {
            let mut sink = BinarySink::new(&mut buf);
            sink.begin().unwrap();
            sink.chain(ChainId(0), "Main.main@3 \"big array\"").unwrap();
            sink.record(&ObjectRecord {
                object: ObjectId(1),
                class: ClassId(2),
                size: 816,
                created: 16,
                freed: 900,
                last_use: Some(320),
                alloc_site: ChainId(0),
                last_use_site: Some(ChainId(0)),
                at_exit: false,
            })
            .unwrap();
            sink.record(&ObjectRecord {
                object: ObjectId(2),
                class: ClassId(2),
                size: 24,
                created: 32,
                freed: 1000,
                last_use: None,
                alloc_site: ChainId(0),
                last_use_site: None,
                at_exit: true,
            })
            .unwrap();
            sink.sample(&GcSample {
                time: 500,
                reachable_bytes: 840,
                reachable_count: 2,
            })
            .unwrap();
            sink.retain(&RetainRecord {
                alloc_site: ChainId(0),
                size: 816,
                time: 500,
                depth: 2,
                truncated: false,
                path: "static jess.Engine.debugCache -> [Ljava.lang.Object;".into(),
            })
            .unwrap();
            sink.end(1000).unwrap();
        }
        buf
    }

    fn decode_all(bytes: &[u8], salvage: bool) -> (ScanOutput<'_>, ChunkOut) {
        let scan_out = scan(bytes, salvage, 8192);
        let mut all = ChunkOut::default();
        for (i, chunk) in scan_out.chunks.iter().enumerate() {
            let (out, _) = chunk.decode(i, salvage);
            all.records.extend(out.records);
            all.samples.extend(out.samples);
            all.retains.extend(out.retains);
            all.errors.extend(out.errors);
            all.units_dropped += out.units_dropped;
            all.bytes_skipped += out.bytes_skipped;
        }
        (scan_out, all)
    }

    #[test]
    fn roundtrips_records_samples_and_chains() {
        let bytes = sample_log();
        let (s, out) = decode_all(&bytes, false);
        assert!(s.errors.is_empty());
        assert!(s.saw_end);
        assert_eq!(s.end_time, 1000);
        assert_eq!(s.chain_names[&ChainId(0)], "Main.main@3 \"big array\"");
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.records[0].last_use, Some(320));
        assert_eq!(out.records[1].last_use, None);
        assert!(out.records[1].at_exit);
        assert_eq!(out.retains.len(), 1);
        assert_eq!(out.retains[0].alloc_site, ChainId(0));
        assert_eq!(out.retains[0].size, 816);
        assert_eq!(out.retains[0].depth, 2);
        assert!(!out.retains[0].truncated);
        assert_eq!(
            out.retains[0].path,
            "static jess.Engine.debugCache -> [Ljava.lang.Object;"
        );
        assert!(out.errors.is_empty());
    }

    #[test]
    fn retain_paths_are_normalized_on_write() {
        let mut buf = Vec::new();
        let ragged = RetainRecord {
            alloc_site: ChainId(3),
            size: 1,
            time: u64::MAX,
            depth: u32::MAX,
            truncated: true,
            path: "  static  a.B.c \t->  d.E  ".into(),
        };
        {
            let mut sink = BinarySink::new(&mut buf);
            sink.begin().unwrap();
            sink.retain(&ragged).unwrap();
            sink.end(0).unwrap();
        }
        let (s, out) = decode_all(&buf, false);
        assert!(s.errors.is_empty() && out.errors.is_empty());
        assert_eq!(out.retains.len(), 1);
        assert_eq!(out.retains[0].path, "static a.B.c -> d.E");
        assert_eq!(out.retains[0].time, u64::MAX);
        assert_eq!(out.retains[0].depth, u32::MAX);
        assert!(out.retains[0].truncated);
    }

    #[test]
    fn checksum_mismatch_drops_only_that_frame() {
        let mut bytes = sample_log();
        // The last two bytes are the end frame's checksum; flip a payload
        // byte of the first obj frame instead. Find it: it's the frame
        // after the chain frame. Easier: flip one byte in the middle and
        // verify salvage still returns the other record.
        let scan_clean = scan(&bytes, false, 8192);
        let first_obj_byte = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0].byte as usize,
            _ => unreachable!(),
        };
        drop(scan_clean);
        // Flip a payload byte (skip tag + 1-byte length prefix).
        bytes[first_obj_byte + 2] ^= 0x20;
        let (s, out) = decode_all(&bytes, true);
        assert!(s.errors.is_empty(), "framing is intact");
        assert_eq!(out.records.len(), 1, "one frame dropped, one kept");
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].code, ErrorCode::FrameChecksum);
        assert_eq!(out.units_dropped, 1);
        // Strict decoding reports the same frame.
        let (_, strict) = decode_all(&bytes, false);
        assert_eq!(strict.errors[0].code, ErrorCode::FrameChecksum);
    }

    #[test]
    fn truncation_recovers_the_intact_prefix() {
        let bytes = sample_log();
        for cut in MAGIC.len() + 1..bytes.len() {
            let (s, out) = decode_all(&bytes[..cut], true);
            // Never panics, never invents data, and a cut strictly inside
            // the stream can't have seen the (final) end frame intact.
            assert!(out.records.len() <= 2);
            assert!(out.samples.len() <= 1);
            assert!(!s.saw_end, "cut at {cut} kept a torn end frame");
        }
        // A cut just before the end frame keeps both records and the
        // sample but loses the end marker.
        let (s, out) = decode_all(&bytes[..bytes.len() - 5], true);
        assert!(!s.saw_end);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.samples.len(), 1);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.errors[0].code, ErrorCode::TornTail);
    }

    #[test]
    fn unknown_tag_skips_one_frame() {
        let mut bytes = sample_log();
        let scan_clean = scan(&bytes, false, 8192);
        let first_obj = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0],
            _ => unreachable!(),
        };
        let (obj_byte, obj_len) = (first_obj.byte as usize, first_obj.len);
        drop(scan_clean);
        bytes[obj_byte] = 0x7f;
        // Salvage: the envelope still walks, so exactly one frame is lost.
        let (s, out) = decode_all(&bytes, true);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.errors[0].code, ErrorCode::UnknownDirective);
        assert_eq!(s.errors[0].byte, obj_byte as u64);
        assert!(s.saw_end, "frames after the bad tag survive");
        assert_eq!(out.records.len(), 1, "only the retagged record is lost");
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.retains.len(), 1);
        assert_eq!(s.units_dropped, 1);
        assert_eq!(s.bytes_skipped, obj_len, "exactly one frame skipped");
        // Strict: the first error still aborts the scan.
        let (s, out) = decode_all(&bytes, false);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.errors[0].code, ErrorCode::UnknownDirective);
        assert!(!s.saw_end);
        assert_eq!(out.records.len(), 0);
    }

    #[test]
    fn future_tag_frame_is_skipped_by_this_reader() {
        // A frame minted by a future writer (tag 0x06, opaque payload)
        // inserted mid-stream: this reader skips it and keeps everything
        // else — the forward-compatibility contract for new frame kinds.
        let bytes = sample_log();
        let scan_clean = scan(&bytes, false, 8192);
        let first_obj_byte = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0].byte as usize,
            _ => unreachable!(),
        };
        drop(scan_clean);
        let mut future = Vec::new();
        future.push(0x06);
        let payload = b"opaque future payload";
        write_varint(&mut future, payload.len() as u64);
        future.extend_from_slice(payload);
        future.extend_from_slice(&frame_checksum(0x06, payload).to_le_bytes());
        let mut spliced = bytes[..first_obj_byte].to_vec();
        spliced.extend_from_slice(&future);
        spliced.extend_from_slice(&bytes[first_obj_byte..]);

        let (s, out) = decode_all(&spliced, true);
        assert_eq!(s.errors.len(), 1);
        assert_eq!(s.errors[0].code, ErrorCode::UnknownDirective);
        assert!(s.errors[0].message.contains("0x06"));
        assert!(s.saw_end);
        assert_eq!(s.end_time, 1000);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.retains.len(), 1);
        assert_eq!(s.units_dropped, 1);
        assert_eq!(s.bytes_skipped, future.len() as u64);
        assert!(out.errors.is_empty());
        // And the incremental scanner classifies it identically.
        assert_stream_matches_batch(&spliced, "future tag");
    }

    #[test]
    fn bad_length_prefix_is_classified_by_cause() {
        let bytes = sample_log();
        let scan_clean = scan(&bytes, false, 8192);
        let obj_byte = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0].byte as usize,
            _ => unreachable!(),
        };
        drop(scan_clean);
        // Claim a payload far larger than the input: torn-tail territory.
        let mut huge = bytes[..obj_byte + 1].to_vec();
        huge.extend_from_slice(&[0xff, 0xff, 0x7f]); // ~2 MiB length
        huge.extend_from_slice(&[0u8; 16]);
        let (s, _) = decode_all(&huge, true);
        assert_eq!(s.errors.last().unwrap().code, ErrorCode::TornTail);
        // A length varint that never terminates within 10 bytes: corrupt.
        let mut corrupt = bytes[..obj_byte + 1].to_vec();
        corrupt.extend_from_slice(&[0x80; 12]);
        let (s, _) = decode_all(&corrupt, true);
        assert_eq!(s.errors.last().unwrap().code, ErrorCode::BadFieldValue);
    }

    #[test]
    fn missing_magic_is_a_bad_header() {
        let s = scan(b"heapdrag-log v1\n", false, 8192);
        assert_eq!(s.errors[0].code, ErrorCode::BadHeader);
    }

    /// Runs the incremental scanner over `bytes` in blocks of `feed`
    /// bytes and decodes every chunk it produced.
    fn stream_scan(
        bytes: &[u8],
        salvage: bool,
        chunk_records: usize,
        feed: usize,
    ) -> (StreamScanner, ChunkOut, usize) {
        let mut scanner = StreamScanner::new(salvage, chunk_records);
        let mut chunks: Vec<OwnedChunk> = Vec::new();
        for block in bytes.chunks(feed.max(1)) {
            scanner.feed(block, &mut chunks);
        }
        scanner.finish(&mut chunks);
        let mut all = ChunkOut::default();
        for (i, chunk) in chunks.iter().enumerate() {
            let (out, _) = chunk.decode(i, salvage);
            all.records.extend(out.records);
            all.samples.extend(out.samples);
            all.retains.extend(out.retains);
            all.errors.extend(out.errors);
            all.units_dropped += out.units_dropped;
            all.bytes_skipped += out.bytes_skipped;
        }
        (scanner, all, chunks.len())
    }

    /// Asserts the incremental scanner agrees with the batch scan on
    /// `bytes` for every combination of mode, chunk size, and feed size.
    fn assert_stream_matches_batch(bytes: &[u8], label: &str) {
        for salvage in [false, true] {
            for chunk_records in [1, 3, 8192] {
                let want = scan(bytes, salvage, chunk_records);
                let mut want_out = ChunkOut::default();
                for (i, chunk) in want.chunks.iter().enumerate() {
                    let (out, _) = chunk.decode(i, salvage);
                    want_out.records.extend(out.records);
                    want_out.samples.extend(out.samples);
                    want_out.retains.extend(out.retains);
                    want_out.errors.extend(out.errors);
                    want_out.units_dropped += out.units_dropped;
                    want_out.bytes_skipped += out.bytes_skipped;
                }
                for feed in [1, 2, 3, 7, 64, 4096] {
                    let ctx = format!(
                        "{label}: salvage={salvage} chunk_records={chunk_records} feed={feed}"
                    );
                    let (scanner, got_out, got_chunks) =
                        stream_scan(bytes, salvage, chunk_records, feed);
                    assert_eq!(want.chunks.len(), got_chunks, "{ctx}: chunk count");
                    assert_eq!(want_out.records, got_out.records, "{ctx}: records");
                    assert_eq!(want_out.samples, got_out.samples, "{ctx}: samples");
                    assert_eq!(want_out.retains, got_out.retains, "{ctx}: retains");
                    assert_eq!(want_out.errors, got_out.errors, "{ctx}: chunk errors");
                    assert_eq!(want.errors, scanner.state.errors, "{ctx}: scan errors");
                    if !scanner.state.aborted {
                        assert_eq!(want.chain_names, scanner.state.chain_names, "{ctx}");
                        assert_eq!(want.end_time, scanner.state.end_time, "{ctx}");
                        assert_eq!(want.saw_end, scanner.state.saw_end, "{ctx}");
                        assert_eq!(want.units_dropped, scanner.state.units_dropped, "{ctx}");
                        assert_eq!(want.bytes_skipped, scanner.state.bytes_skipped, "{ctx}");
                        assert_eq!(want.next_position, scanner.state.next_position, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_scan_matches_batch_on_clean_log() {
        assert_stream_matches_batch(&sample_log(), "clean");
    }

    #[test]
    fn incremental_scan_matches_batch_on_truncations() {
        let bytes = sample_log();
        for cut in 0..bytes.len() {
            assert_stream_matches_batch(&bytes[..cut], &format!("cut at {cut}"));
        }
    }

    #[test]
    fn incremental_scan_matches_batch_on_faults() {
        let bytes = sample_log();
        let scan_clean = scan(&bytes, false, 8192);
        let first_obj_byte = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0].byte as usize,
            _ => unreachable!(),
        };
        drop(scan_clean);

        // Unknown tag: framing lost.
        let mut unknown = bytes.clone();
        unknown[first_obj_byte] = 0x7f;
        assert_stream_matches_batch(&unknown, "unknown tag");

        // Flipped payload byte: checksum mismatch, framing intact.
        let mut flipped = bytes.clone();
        flipped[first_obj_byte + 2] ^= 0x20;
        assert_stream_matches_batch(&flipped, "checksum mismatch");

        // Huge claimed payload (fits a varint, exceeds the input).
        let mut huge = bytes[..first_obj_byte + 1].to_vec();
        huge.extend_from_slice(&[0xff, 0xff, 0x7f]); // ~2 MiB length claim
        huge.extend_from_slice(&[0u8; 16]);
        assert_stream_matches_batch(&huge, "huge claim");

        // A length varint that never terminates within 10 bytes.
        let mut corrupt = bytes[..first_obj_byte + 1].to_vec();
        corrupt.extend_from_slice(&[0x80; 12]);
        assert_stream_matches_batch(&corrupt, "corrupt prefix");

        // No magic at all.
        assert_stream_matches_batch(b"heapdrag-log v1\n", "text input");
        assert_stream_matches_batch(b"\x89HDL", "short bad prefix");
    }

    #[test]
    fn over_cap_claim_is_a_torn_tail_without_buffering() {
        // A frame claiming more than MAX_BUFFERED_FRAME: the scanner must
        // not buffer the claim; it reports E007 with the true leftover
        // count once the input ends.
        let bytes = sample_log();
        let scan_clean = scan(&bytes, false, 8192);
        let first_obj_byte = match &scan_clean.chunks[0] {
            Chunk::Frames(frames) => frames[0].byte as usize,
            _ => unreachable!(),
        };
        drop(scan_clean);
        let mut input = bytes[..first_obj_byte + 1].to_vec();
        let mut prefix = Vec::new();
        write_varint(&mut prefix, MAX_BUFFERED_FRAME + 1);
        input.extend_from_slice(&prefix);
        let junk = 100_000usize;
        input.extend_from_slice(&vec![0u8; junk]);

        let (scanner, _, _) = stream_scan(&input, true, 8192, 4096);
        assert!(
            scanner.buffered_bytes() < 8192,
            "claim must not be buffered"
        );
        let e = scanner.state.errors.last().unwrap();
        assert_eq!(e.code, ErrorCode::TornTail);
        let left = (prefix.len() + junk) as u64 - prefix.len() as u64 - 1 + 1;
        // left = remaining - header = (1 + prefix + junk) - (1 + prefix)
        assert_eq!(left, junk as u64);
        assert!(
            e.message.contains(&format!("{junk} byte(s) left")),
            "message `{}` must count the true leftover",
            e.message
        );
        // The reference scan classifies this identically (the claim also
        // exceeds that input's length).
        let batch = scan(&input, true, 8192);
        assert_eq!(batch.errors.last().unwrap(), e);
    }

    #[test]
    fn option_fields_are_lossless_at_extremes() {
        let mut buf = Vec::new();
        let record = ObjectRecord {
            object: ObjectId(u64::MAX),
            class: ClassId(u32::MAX),
            size: u64::MAX,
            created: 0,
            freed: u64::MAX,
            last_use: Some(u64::MAX),
            alloc_site: ChainId(u32::MAX),
            last_use_site: Some(ChainId(u32::MAX)),
            at_exit: true,
        };
        {
            let mut sink = BinarySink::new(&mut buf);
            sink.begin().unwrap();
            sink.record(&record).unwrap();
            sink.end(u64::MAX).unwrap();
        }
        let (s, out) = decode_all(&buf, false);
        assert_eq!(out.records, vec![record]);
        assert_eq!(s.end_time, u64::MAX);
    }
}
