//! Trace codecs: the serialisation boundary between the two phases.
//!
//! A phase-1 trace can be written in either of two formats behind the same
//! [`TraceSink`] streaming interface, and every ingest entry point
//! autodetects the format from the first bytes of the input:
//!
//! * **Text** (`heapdrag-log v1`, [`text`]) — the original line-oriented
//!   format: human-readable, greppable, diffable.
//! * **Binary** (HDLOG v2, [`binary`]) — a length-prefixed frame format
//!   (magic header, varint-encoded record/sample/end frames, a per-frame
//!   checksum) that is substantially smaller on disk and faster to decode,
//!   and whose frames shard on length prefixes instead of newline scans.
//!
//! Both formats decode through the single engine in [`crate::stream`]:
//! the same strict/salvage semantics, the same `E0xx` error taxonomy, and
//! byte-identical analyzer reports for the same run — for every shard
//! count. The codec-specific pieces are the incremental *scanner* (walk
//! the input once on the coordinating thread, batching record payloads
//! into owned chunks at line or frame boundaries) and the *chunk
//! decode* (run on worker threads). The text scanner copies record lines
//! into a chunk as it finds them, tagged with their directive
//! (`LineMeta`), and the text decoder parses each line straight from
//! those bytes, keeping the whitespace-split ladder for any line not in
//! the encoder's shape.
//!
//! Each codec also keeps, in its tests only, a whole-input `scan` over
//! one borrowed buffer. It is the reference the incremental scanner is
//! held against, for every feed size.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::str::FromStr;
use std::time::Instant;

use heapdrag_vm::ids::ChainId;

use crate::log::LogError;
use crate::parallel::ShardMetrics;
use crate::record::{GcSample, ObjectRecord, RetainRecord};

pub mod binary;
pub mod text;

pub use binary::BinarySink;
pub use text::TextSink;

/// The on-disk encodings of a phase-1 trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LogFormat {
    /// The line-oriented `heapdrag-log v1` text format.
    #[default]
    Text,
    /// HDLOG v2: length-prefixed binary frames with per-frame checksums.
    Binary,
}

impl LogFormat {
    /// The label used in metric names, footers, and `--log-format` values.
    pub fn name(self) -> &'static str {
        match self {
            LogFormat::Text => "text",
            LogFormat::Binary => "binary",
        }
    }

    /// Detects the format of `input` from its magic bytes: an input
    /// starting with the HDLOG v2 magic ([`binary::MAGIC`]) is binary,
    /// anything else is treated as text (whose own header check rejects
    /// garbage with `E002`). The magic's first byte has the high bit set,
    /// so no UTF-8 text file can ever alias it.
    pub fn detect(input: &[u8]) -> LogFormat {
        if input.starts_with(&binary::MAGIC) {
            LogFormat::Binary
        } else {
            LogFormat::Text
        }
    }
}

impl fmt::Display for LogFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(LogFormat::Text),
            "binary" => Ok(LogFormat::Binary),
            other => Err(format!("unknown log format `{other}` (text|binary)")),
        }
    }
}

/// A streaming encoder for phase-1 traces.
///
/// The profiler's write path drives a sink event by event — header, chain
/// table, one call per record and sample, the end marker last — so a trace
/// streams straight to its writer without ever materialising in memory.
/// [`TextSink`] and [`BinarySink`] implement the two formats;
/// [`crate::Pipeline::write_to`] drives either from a
/// [`ProfileRun`](crate::profiler::ProfileRun).
pub trait TraceSink {
    /// Writes the format preamble (text header line or binary magic).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn begin(&mut self) -> io::Result<()>;

    /// Writes one chain-name table entry.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn chain(&mut self, id: ChainId, name: &str) -> io::Result<()>;

    /// Writes one object record.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn record(&mut self, record: &ObjectRecord) -> io::Result<()>;

    /// Writes one deep-GC sample.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn sample(&mut self, sample: &GcSample) -> io::Result<()>;

    /// Writes one retaining-path sample (text `retain` line, binary tag-05
    /// frame). Readers that predate the frame skip it per-unit — see the
    /// salvage decision table in [`binary`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], with nothing written, when the
    /// path is empty or all whitespace: both decoders reject such a unit
    /// (`E004`, missing `path`). Otherwise propagates writer errors.
    fn retain(&mut self, retain: &RetainRecord) -> io::Result<()>;

    /// Writes the end-of-log marker. Must be called last: its presence is
    /// what certifies the trace complete to the strict parser.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn end(&mut self, end_time: u64) -> io::Result<()>;
}

/// Collapses every run of whitespace (including newlines) in a chain name
/// to a single space, so the name survives the text format's
/// whitespace-splitting roundtrip unchanged — which is exactly what makes
/// text-encode→ingest and binary-encode→ingest agree byte for byte.
pub(crate) fn normalize_chain_name(name: &str) -> String {
    name.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Refuses a retain sample whose path is empty or all whitespace, which
/// no decoder accepts back — see [`TraceSink::retain`].
pub(crate) fn check_retain_path(r: &RetainRecord) -> io::Result<()> {
    if r.path.split_whitespace().next().is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "retain sample has an empty path",
        ));
    }
    Ok(())
}

/// An `io::Write` adapter counting the bytes that pass through it.
pub(crate) struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: io::Write> CountingWriter<W> {
    pub(crate) fn new(inner: W) -> Self {
        CountingWriter { inner, written: 0 }
    }

    pub(crate) fn written(&self) -> u64 {
        self.written
    }
}

impl<W: io::Write> io::Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// LEB128-encodes `v` into `buf`.
pub(crate) fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from the front of `bytes`, returning the
/// value and how many bytes it consumed. `None` when the input ends
/// mid-varint or the value overflows a `u64`.
pub(crate) fn read_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return None;
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// The per-frame checksum: FNV-1a over the tag byte and the payload,
/// folded to 16 bits. Two bytes per frame buys detection of any single
/// flipped byte (and all but 1/2¹⁶ of larger corruptions) without giving
/// back the size advantage over text.
pub(crate) fn frame_checksum(tag: u8, payload: &[u8]) -> u16 {
    const OFFSET: u32 = 0x811c_9dc5;
    const PRIME: u32 = 0x0100_0193;
    let mut h = (OFFSET ^ u32::from(tag)).wrapping_mul(PRIME);
    for &b in payload {
        h = (h ^ u32::from(b)).wrapping_mul(PRIME);
    }
    ((h >> 16) ^ (h & 0xffff)) as u16
}

/// What one chunk worker decoded: the record/sample streams in input
/// order, plus — in salvage mode — everything it had to drop.
#[derive(Debug, Default)]
pub(crate) struct ChunkOut {
    pub(crate) records: Vec<ObjectRecord>,
    pub(crate) samples: Vec<GcSample>,
    pub(crate) retains: Vec<RetainRecord>,
    pub(crate) errors: Vec<LogError>,
    pub(crate) units_dropped: u64,
    pub(crate) bytes_skipped: u64,
}

/// One parse work-unit of the whole-input reference scans: a batch of
/// record-bearing lines (text) or frames (binary) borrowed from the input.
#[cfg(test)]
#[derive(Debug)]
pub(crate) enum Chunk<'a> {
    /// Text `obj`/`gc`/`retain` lines.
    Lines(Vec<text::reference::RawLine<'a>>),
    /// Binary `obj`/`gc`/`retain` frames.
    Frames(Vec<binary::RawFrame<'a>>),
}

#[cfg(test)]
impl Chunk<'_> {
    /// Decodes the chunk, timing the decode and counting what it produced.
    pub(crate) fn decode(&self, index: usize, salvage: bool) -> (ChunkOut, ShardMetrics) {
        let t = Instant::now();
        let out = match self {
            Chunk::Lines(lines) => text::reference::parse_chunk(lines, index, salvage),
            Chunk::Frames(frames) => binary::parse_chunk(frames, index, salvage),
        };
        let m = ShardMetrics {
            shard: index,
            records: out.records.len() as u64,
            samples: out.samples.len() as u64,
            groups: 0,
            elapsed: t.elapsed(),
        };
        (out, m)
    }
}

/// One record-bearing line batched by the text [`text::StreamScanner`]:
/// where it sat in the input, which directive it carries, and its extent
/// in the owning [`OwnedLines::buf`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineMeta {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Byte offset of the line start, in lossy-decoded coordinates.
    pub(crate) byte: u64,
    /// The directive, as the scanner classified it.
    pub(crate) kind: text::LineKind,
    /// Extent of the line content (terminator excluded) in `buf`.
    pub(crate) start: usize,
    /// One past the end of the line content in `buf`.
    pub(crate) end: usize,
}

impl LineMeta {
    /// The line's length in lossy-decoded input bytes, terminator
    /// included: the stored content is the lossy decoding of the line.
    pub(crate) fn len(&self) -> u64 {
        (self.end - self.start) as u64 + 1
    }
}

/// An owned batch of `obj`/`gc`/`retain` text lines: the contents are
/// copied into one contiguous buffer so the chunk can cross a channel to
/// a worker thread without borrowing the input, which the streaming
/// reader has already thrown away.
#[derive(Debug, Default)]
pub(crate) struct OwnedLines {
    /// Concatenated line contents, terminators excluded: each line as it
    /// was read when it is valid UTF-8, lossy-decoded otherwise.
    pub(crate) buf: Vec<u8>,
    /// One entry per line, in input order.
    pub(crate) metas: Vec<LineMeta>,
}

impl OwnedLines {
    /// An empty batch with room for as much as `full` holds, so the next
    /// chunk of a trace fills without regrowing.
    pub(crate) fn with_capacity_of(full: &OwnedLines) -> Self {
        OwnedLines {
            buf: Vec::with_capacity(full.buf.len()),
            metas: Vec::with_capacity(full.metas.len()),
        }
    }
}

/// One record-bearing frame batched by the binary
/// [`binary::StreamScanner`]: the frame envelope plus its payload extent
/// in the owning [`OwnedFrames::buf`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameMeta {
    /// 1-based frame number.
    pub(crate) frame: usize,
    /// Byte offset of the frame start (the tag byte).
    pub(crate) byte: u64,
    /// Total frame length: tag + length prefix + payload + checksum.
    pub(crate) len: u64,
    /// The frame tag.
    pub(crate) tag: u8,
    /// The stored checksum, not yet verified.
    pub(crate) crc: u16,
    /// Extent of the payload in `buf`.
    pub(crate) start: usize,
    /// One past the end of the payload in `buf`.
    pub(crate) end: usize,
}

/// An owned batch of `obj`/`gc` binary frames (payloads only — the
/// envelopes are re-described by the metas).
#[derive(Debug, Default)]
pub(crate) struct OwnedFrames {
    /// Concatenated frame payloads.
    pub(crate) buf: Vec<u8>,
    /// One entry per frame, in input order.
    pub(crate) metas: Vec<FrameMeta>,
}

/// One parse work-unit: a batch of record-bearing lines (text) or frames
/// (binary), cut at line/frame boundaries by the incremental scanners
/// behind [`crate::stream`] so workers never search the input for
/// delimiters. Text chunks decode straight from their buffer; binary
/// decoding rebuilds borrowed `RawFrame` views over it first.
#[derive(Debug)]
pub(crate) enum OwnedChunk {
    /// Text `obj`/`gc`/`retain` lines.
    Lines(OwnedLines),
    /// Binary `obj`/`gc`/`retain` frames.
    Frames(OwnedFrames),
}

impl OwnedChunk {
    /// Units (lines or frames) in the chunk. Chunks are never empty.
    pub(crate) fn len(&self) -> usize {
        match self {
            OwnedChunk::Lines(c) => c.metas.len(),
            OwnedChunk::Frames(c) => c.metas.len(),
        }
    }

    /// (line-or-frame number, byte offset) of the chunk's first unit.
    pub(crate) fn first_position(&self) -> (usize, u64) {
        match self {
            OwnedChunk::Lines(c) => {
                let first = c.metas.first().expect("chunks are never empty");
                (first.line, first.byte)
            }
            OwnedChunk::Frames(c) => {
                let first = c.metas.first().expect("chunks are never empty");
                (first.frame, first.byte)
            }
        }
    }

    /// Total raw input bytes covered by the chunk's units. This is what
    /// the buffered-bytes accounting in [`crate::stream`] charges per
    /// chunk; the owned buffer is never larger (terminators and frame
    /// envelopes are not copied).
    pub(crate) fn byte_len(&self) -> u64 {
        match self {
            OwnedChunk::Lines(c) => c.metas.iter().map(LineMeta::len).sum(),
            OwnedChunk::Frames(c) => c.metas.iter().map(|m| m.len).sum(),
        }
    }

    /// Decodes the chunk, timing the decode and counting what it
    /// produced.
    pub(crate) fn decode(&self, index: usize, salvage: bool) -> (ChunkOut, ShardMetrics) {
        let t = Instant::now();
        let out = match self {
            OwnedChunk::Lines(c) => text::parse_chunk(c, index, salvage),
            OwnedChunk::Frames(c) => {
                let views: Vec<binary::RawFrame<'_>> = c
                    .metas
                    .iter()
                    .map(|m| binary::RawFrame {
                        frame: m.frame,
                        byte: m.byte,
                        len: m.len,
                        tag: m.tag,
                        payload: &c.buf[m.start..m.end],
                        crc: m.crc,
                    })
                    .collect();
                binary::parse_chunk(&views, index, salvage)
            }
        };
        let m = ShardMetrics {
            shard: index,
            records: out.records.len() as u64,
            samples: out.samples.len() as u64,
            groups: 0,
            elapsed: t.elapsed(),
        };
        (out, m)
    }
}

/// Shared state accumulated by the incremental scanners
/// ([`text::StreamScanner`], [`binary::StreamScanner`]): the header, chain
/// table, and end marker parsed in place, plus the scan-level errors and
/// drop counts. The chunks are handed off to workers as they fill instead
/// of piling up here.
#[derive(Debug)]
pub(crate) struct StreamScanState {
    /// Chain-name table entries seen so far.
    pub(crate) chain_names: HashMap<ChainId, String>,
    /// Value of the `end` marker (0 until seen).
    pub(crate) end_time: u64,
    /// True when the `end` marker was seen.
    pub(crate) saw_end: bool,
    /// Scan-level errors, in input order.
    pub(crate) errors: Vec<LogError>,
    /// Lines/frames dropped by the scan (salvage only).
    pub(crate) units_dropped: u64,
    /// Bytes skipped by those drops (salvage only).
    pub(crate) bytes_skipped: u64,
    /// Where a missing-end-marker error should point; valid after
    /// `finish`.
    pub(crate) next_position: (usize, u64),
    /// Latched by the first scan-level error in strict mode; the reader
    /// should stop feeding.
    pub(crate) aborted: bool,
    salvage: bool,
}

impl StreamScanState {
    pub(crate) fn new(salvage: bool) -> Self {
        StreamScanState {
            chain_names: HashMap::new(),
            end_time: 0,
            saw_end: false,
            errors: Vec::new(),
            units_dropped: 0,
            bytes_skipped: 0,
            next_position: (1, 0),
            aborted: false,
            salvage,
        }
    }

    /// True when decoding in salvage mode.
    pub(crate) fn salvage(&self) -> bool {
        self.salvage
    }

    /// Records a scan-level error over `raw_len` input bytes: salvage
    /// counts it as dropped, strict latches the abort.
    pub(crate) fn note(&mut self, e: LogError, raw_len: u64) {
        self.errors.push(e);
        if self.salvage {
            self.units_dropped += 1;
            self.bytes_skipped += raw_len;
        } else {
            self.aborted = true;
        }
    }
}

/// Everything a whole-input reference scan produces: the record chunks,
/// the shared state parsed in place (chain table, end marker), and the
/// scan-level errors and drop counts.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ScanOutput<'a> {
    /// Record-bearing chunks, in input order.
    pub(crate) chunks: Vec<Chunk<'a>>,
    /// Chain-name table entries seen by the scan.
    pub(crate) chain_names: HashMap<ChainId, String>,
    /// Value of the `end` marker (0 until seen).
    pub(crate) end_time: u64,
    /// True when the `end` marker was seen.
    pub(crate) saw_end: bool,
    /// Scan-level errors, in input order.
    pub(crate) errors: Vec<LogError>,
    /// Lines/frames dropped by the scan (salvage only).
    pub(crate) units_dropped: u64,
    /// Bytes skipped by those drops (salvage only).
    pub(crate) bytes_skipped: u64,
    /// Where a missing-end-marker error should point: one past the last
    /// unit, at the end of the input.
    pub(crate) next_position: (usize, u64),
}

#[cfg(test)]
impl ScanOutput<'_> {
    pub(crate) fn new() -> Self {
        ScanOutput {
            chunks: Vec::new(),
            chain_names: HashMap::new(),
            end_time: 0,
            saw_end: false,
            errors: Vec::new(),
            units_dropped: 0,
            bytes_skipped: 0,
            next_position: (1, 0),
        }
    }

    /// Records a scan-level error over `raw_len` input bytes. Returns true
    /// when the scan must abort (strict mode); in salvage mode the bytes
    /// are counted as dropped and the scan continues.
    pub(crate) fn note(&mut self, e: LogError, raw_len: u64, salvage: bool) -> bool {
        self.errors.push(e);
        if salvage {
            self.units_dropped += 1;
            self.bytes_skipped += raw_len;
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_by_magic() {
        assert_eq!(LogFormat::detect(b"heapdrag-log v1\n"), LogFormat::Text);
        assert_eq!(LogFormat::detect(&binary::MAGIC), LogFormat::Binary);
        assert_eq!(LogFormat::detect(b""), LogFormat::Text);
        assert_eq!(LogFormat::detect(&binary::MAGIC[..7]), LogFormat::Text);
        assert_eq!("binary".parse::<LogFormat>(), Ok(LogFormat::Binary));
        assert_eq!("text".parse::<LogFormat>(), Ok(LogFormat::Text));
        assert!("hdlog".parse::<LogFormat>().is_err());
        assert_eq!(LogFormat::Binary.to_string(), "binary");
    }

    #[test]
    fn varint_roundtrips() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let (got, used) = read_varint(&buf).expect("decodes");
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
            // Trailing bytes are not consumed.
            buf.push(0xaa);
            assert_eq!(read_varint(&buf), Some((v, buf.len() - 1)));
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(read_varint(&[]), None);
        assert_eq!(read_varint(&[0x80]), None, "ends mid-varint");
        assert_eq!(read_varint(&[0x80; 10]), None, "never terminates");
        // 11-byte encoding overflows u64.
        let mut over = [0x80u8; 10].to_vec();
        over.push(0x01);
        assert_eq!(read_varint(&over), None);
        // The 10th byte may only contribute one bit.
        let mut max = [0xffu8; 9].to_vec();
        max.push(0x01);
        assert_eq!(read_varint(&max), Some((u64::MAX, 10)));
        let mut too_big = [0xffu8; 9].to_vec();
        too_big.push(0x02);
        assert_eq!(read_varint(&too_big), None);
    }

    #[test]
    fn checksum_detects_single_byte_changes() {
        let payload = b"some frame payload bytes";
        let base = frame_checksum(0x02, payload);
        assert_ne!(base, frame_checksum(0x03, payload), "tag is covered");
        for i in 0..payload.len() {
            let mut altered = payload.to_vec();
            altered[i] ^= 0x40;
            assert_ne!(
                base,
                frame_checksum(0x02, &altered),
                "flip at byte {i} must change the checksum"
            );
        }
    }

    #[test]
    fn chain_names_normalize_for_cross_format_parity() {
        assert_eq!(normalize_chain_name("a  b\nc\t d"), "a b c d");
        assert_eq!(normalize_chain_name("plain"), "plain");
        assert_eq!(normalize_chain_name("  edge  "), "edge");
    }
}
