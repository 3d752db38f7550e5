//! The line-oriented `heapdrag-log v1` text codec.
//!
//! One line per directive, whitespace-separated fields, `-` for absent
//! optional fields:
//!
//! ```text
//! heapdrag-log v1
//! chain 3 Juru.readDocument@12 "new char[]" <- Juru.run@4
//! obj 17 8 816 1024 204800 2048 3 5 0
//! gc 102400 81920 512
//! retain 3 816 102400 2 0 static Juru.cache -> char[]
//! end 1048576
//! ```
//!
//! A `retain` line is `retain <alloc-chain> <size> <time> <depth>
//! <truncated 0|1> <path...>` — the path is the rest of the line,
//! whitespace-normalized on both write and read.
//!
//! `scan` is the codec's half of the ingest engine: it walks the input
//! once, parses the header/`chain`/`end` directives in place, and batches
//! `obj`/`gc`/`retain` lines into `Chunk`s for the worker pool.
//! [`TextSink`] is the streaming encoder. See [`crate::log`] for the
//! strict/salvage semantics shared with the binary codec.

use std::io::{self, Write};

use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

use crate::log::{ErrorCode, LogError};
use crate::record::{GcSample, ObjectRecord, RetainRecord};

use super::{
    Chunk, ChunkOut, LineMeta, OwnedChunk, OwnedLines, ScanOutput, StreamScanState, TraceSink,
};

/// The line-1 header every v1 text log starts with.
pub const TEXT_HEADER: &str = "heapdrag-log v1";

/// Streams a trace in the text format to any [`io::Write`].
///
/// Each line is assembled in a byte buffer the sink reuses — digits by
/// `push_u64`, `-` for an absent field — and handed to the writer in one
/// `write_all`, so encoding a record allocates nothing.
#[derive(Debug)]
pub struct TextSink<W> {
    writer: W,
    line: Vec<u8>,
}

impl<W: Write> TextSink<W> {
    /// Wraps `writer` in a text-format sink.
    pub fn new(writer: W) -> Self {
        TextSink {
            writer,
            line: Vec::with_capacity(128),
        }
    }

    /// Starts a new line with `directive`.
    fn start(&mut self, directive: &[u8]) {
        self.line.clear();
        self.line.extend_from_slice(directive);
    }

    /// Appends ` <v>`.
    fn push(&mut self, v: u64) {
        self.line.push(b' ');
        push_u64(&mut self.line, v);
    }

    /// Appends ` <v>`, or ` -` for an absent field.
    fn push_opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.push(v),
            None => self.line.extend_from_slice(b" -"),
        }
    }

    /// Terminates the line and writes it out.
    fn finish(&mut self) -> io::Result<()> {
        self.line.push(b'\n');
        self.writer.write_all(&self.line)
    }
}

/// Appends the decimal digits of `v` to `buf`.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

impl<W: Write> TraceSink for TextSink<W> {
    fn begin(&mut self) -> io::Result<()> {
        self.start(TEXT_HEADER.as_bytes());
        self.finish()
    }

    fn chain(&mut self, id: ChainId, name: &str) -> io::Result<()> {
        self.start(b"chain");
        self.push(id.0.into());
        self.line.push(b' ');
        self.line.extend_from_slice(name.as_bytes());
        self.finish()
    }

    fn record(&mut self, r: &ObjectRecord) -> io::Result<()> {
        self.start(b"obj");
        self.push(r.object.0);
        self.push(r.class.0.into());
        self.push(r.size);
        self.push(r.created);
        self.push(r.freed);
        self.push_opt(r.last_use);
        self.push(r.alloc_site.0.into());
        self.push_opt(r.last_use_site.map(|c| c.0.into()));
        self.push(r.at_exit.into());
        self.finish()
    }

    fn sample(&mut self, s: &GcSample) -> io::Result<()> {
        self.start(b"gc");
        self.push(s.time);
        self.push(s.reachable_bytes);
        self.push(s.reachable_count);
        self.finish()
    }

    fn retain(&mut self, r: &RetainRecord) -> io::Result<()> {
        self.start(b"retain");
        self.push(r.alloc_site.0.into());
        self.push(r.size);
        self.push(r.time);
        self.push(r.depth.into());
        self.push(r.truncated.into());
        // The path, whitespace-normalized as `normalize_chain_name` does.
        self.line.push(b' ');
        for (i, word) in r.path.split_whitespace().enumerate() {
            if i > 0 {
                self.line.push(b' ');
            }
            self.line.extend_from_slice(word.as_bytes());
        }
        self.finish()
    }

    fn end(&mut self, end_time: u64) -> io::Result<()> {
        self.start(b"end");
        self.push(end_time);
        self.finish()
    }
}

/// One raw input line with its byte extent, as produced by [`SplitLines`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawLine<'a> {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Byte offset of the line start.
    pub(crate) byte: u64,
    /// Raw byte length, terminator included when present.
    pub(crate) len: u64,
    /// Line content, terminator excluded.
    pub(crate) text: &'a str,
    /// False only for a final line with no `\n` — a torn write.
    pub(crate) terminated: bool,
}

/// Like `str::lines`, but tracking byte offsets and whether each line was
/// terminated, so torn tails are detectable and skipped bytes countable.
struct SplitLines<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> SplitLines<'a> {
    fn new(text: &'a str) -> Self {
        SplitLines { text, pos: 0, line: 0 }
    }
}

impl<'a> Iterator for SplitLines<'a> {
    type Item = RawLine<'a>;

    fn next(&mut self) -> Option<RawLine<'a>> {
        if self.pos >= self.text.len() {
            return None;
        }
        let start = self.pos;
        let rest = &self.text[start..];
        let (content, len, terminated) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1, true),
            None => (rest, rest.len(), false),
        };
        self.pos = start + len;
        self.line += 1;
        Some(RawLine {
            line: self.line,
            byte: start as u64,
            len: len as u64,
            text: content,
            terminated,
        })
    }
}

fn field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<T, LogError> {
    let word = parts.next().ok_or_else(|| {
        LogError::new(
            ErrorCode::MissingField,
            line,
            format!("missing field `{what}`"),
        )
    })?;
    word.parse().map_err(|_| {
        LogError::new(
            ErrorCode::BadFieldValue,
            line,
            format!("bad value `{word}` for `{what}`"),
        )
    })
}

fn opt_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<Option<T>, LogError> {
    let word = parts.next().ok_or_else(|| {
        LogError::new(
            ErrorCode::MissingField,
            line,
            format!("missing field `{what}`"),
        )
    })?;
    if word == "-" {
        return Ok(None);
    }
    word.parse().map(Some).map_err(|_| {
        LogError::new(
            ErrorCode::BadFieldValue,
            line,
            format!("bad value `{word}` for `{what}`"),
        )
    })
}

/// Parses one `obj` line body (after the directive word).
fn parse_obj<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<ObjectRecord, LogError> {
    let object = ObjectId(field(parts, n, "object id")?);
    let class = ClassId(field(parts, n, "class id")?);
    let size = field(parts, n, "size")?;
    let created = field(parts, n, "created")?;
    let freed = field(parts, n, "freed")?;
    let last_use = opt_field(parts, n, "last use")?;
    let alloc_site = ChainId(field(parts, n, "alloc chain")?);
    let last_use_site = opt_field::<u32>(parts, n, "use chain")?.map(ChainId);
    let at_exit: u8 = field(parts, n, "at-exit flag")?;
    Ok(ObjectRecord {
        object,
        class,
        size,
        created,
        freed,
        last_use,
        alloc_site,
        last_use_site,
        at_exit: at_exit != 0,
    })
}

/// Parses one `gc` line body (after the directive word).
fn parse_gc<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<GcSample, LogError> {
    Ok(GcSample {
        time: field(parts, n, "time")?,
        reachable_bytes: field(parts, n, "reachable bytes")?,
        reachable_count: field(parts, n, "reachable count")?,
    })
}

/// Parses one `retain` line body (after the directive word). The path is
/// the rest of the line, re-joined with single spaces — the same
/// normalization the sink applies on write.
fn parse_retain<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    n: usize,
) -> Result<RetainRecord, LogError> {
    let alloc_site = ChainId(field(parts, n, "alloc chain")?);
    let size = field(parts, n, "size")?;
    let time = field(parts, n, "time")?;
    let depth = field(parts, n, "depth")?;
    let truncated = match field::<u8>(parts, n, "truncated flag")? {
        0 => false,
        1 => true,
        flag => {
            return Err(LogError::new(
                ErrorCode::BadFieldValue,
                n,
                format!("bad truncated flag `{flag}`"),
            ))
        }
    };
    let rest: Vec<&str> = parts.collect();
    if rest.is_empty() {
        return Err(LogError::new(
            ErrorCode::MissingField,
            n,
            "missing field `path`".into(),
        ));
    }
    Ok(RetainRecord {
        alloc_site,
        size,
        time,
        depth,
        truncated,
        path: rest.join(" "),
    })
}

/// Decodes one chunk of `obj`/`gc`/`retain` lines. In strict mode the
/// first bad line ends the chunk (the sequential scan would stop there
/// too); in salvage mode bad lines are dropped and counted, and decoding
/// continues.
pub(crate) fn parse_chunk(lines: &[RawLine<'_>], chunk: usize, salvage: bool) -> ChunkOut {
    let mut out = ChunkOut::default();
    for raw in lines {
        let mut parts = raw.text.split_whitespace();
        let result = match parts.next() {
            Some("obj") => parse_obj(&mut parts, raw.line).map(|r| out.records.push(r)),
            Some("gc") => parse_gc(&mut parts, raw.line).map(|s| out.samples.push(s)),
            Some("retain") => parse_retain(&mut parts, raw.line).map(|r| out.retains.push(r)),
            other => unreachable!("chunked line {} is not obj/gc/retain: {other:?}", raw.line),
        };
        if let Err(mut e) = result {
            e.byte = raw.byte;
            e.chunk = Some(chunk);
            out.errors.push(e);
            if !salvage {
                break;
            }
            out.units_dropped += 1;
            out.bytes_skipped += raw.len;
        }
    }
    out
}

/// The text codec's scan pass: one walk over the input on the
/// coordinating thread. The header and the `end`/`chain` directives are
/// parsed in place (they are rare and carry shared state), while
/// `obj`/`gc`/`retain` lines — the bulk of a trace — are batched into
/// chunks of `chunk_records` lines for the worker pool. In strict mode the scan
/// aborts at the first scan-level error; in salvage mode bad lines are
/// dropped and counted.
pub(crate) fn scan(text: &str, salvage: bool, chunk_records: usize) -> ScanOutput<'_> {
    let mut out = ScanOutput::new();
    let mut chunks: Vec<Vec<RawLine<'_>>> = Vec::new();
    let mut current: Vec<RawLine<'_>> = Vec::new();
    let mut last_line = 0;

    for raw in SplitLines::new(text) {
        last_line = raw.line;
        // A torn tail can only be the final line; drop or abort on it.
        if !raw.terminated {
            let mut e = LogError::new(
                ErrorCode::TornTail,
                raw.line,
                "unterminated final line (torn write)".into(),
            );
            e.byte = raw.byte;
            if out.note(e, raw.len, salvage) {
                break;
            }
            continue;
        }
        let content = raw.text.trim();
        if raw.line == 1 {
            if content == TEXT_HEADER {
                continue;
            }
            let mut e = LogError::new(
                ErrorCode::BadHeader,
                raw.line,
                format!("unrecognised header `{content}`"),
            );
            e.byte = raw.byte;
            if out.note(e, raw.len, salvage) {
                break;
            }
            continue;
        }
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        match parts.next() {
            Some("end") => match field(&mut parts, raw.line, "end time") {
                Ok(t) => {
                    out.end_time = t;
                    out.saw_end = true;
                }
                Err(mut e) => {
                    e.byte = raw.byte;
                    if out.note(e, raw.len, salvage) {
                        break;
                    }
                }
            },
            Some("chain") => match field::<u32>(&mut parts, raw.line, "chain id") {
                Ok(id) => {
                    let rest: Vec<&str> = parts.collect();
                    out.chain_names.insert(ChainId(id), rest.join(" "));
                }
                Err(mut e) => {
                    e.byte = raw.byte;
                    if out.note(e, raw.len, salvage) {
                        break;
                    }
                }
            },
            Some("obj") | Some("gc") | Some("retain") => {
                current.push(raw);
                if current.len() >= chunk_records {
                    chunks.push(std::mem::take(&mut current));
                }
            }
            Some(other) => {
                let mut e = LogError::new(
                    ErrorCode::UnknownDirective,
                    raw.line,
                    format!("unknown directive `{other}`"),
                );
                e.byte = raw.byte;
                if out.note(e, raw.len, salvage) {
                    break;
                }
            }
            None => {}
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    out.chunks = chunks.into_iter().map(Chunk::Lines).collect();
    out.next_position = (last_line + 1, text.len() as u64);
    out
}

/// The incremental counterpart of [`scan`]: fed arbitrary byte blocks
/// (however a reader happens to split them), it cuts at raw `\n` bytes,
/// lossy-decodes each line on its own, and replays the exact per-line
/// decision ladder of the in-memory scan. Cutting on raw `0x0A` before
/// decoding is sound because `0x0A` never occurs inside a multi-byte
/// UTF-8 sequence and always terminates an invalid run, so per-line lossy
/// decoding concatenates to exactly the whole-input lossy decoding — line
/// numbers and (lossy) byte offsets match the in-memory scan bit for bit.
#[derive(Debug)]
pub(crate) struct StreamScanner {
    chunk_records: usize,
    /// Raw bytes of the current, incomplete line.
    carry: Vec<u8>,
    /// Lines processed so far.
    line: usize,
    /// Cumulative lossy-decoded length, i.e. the byte offset (in
    /// in-memory-scan coordinates) of the next line.
    lossy_pos: u64,
    current: OwnedLines,
    /// The accumulated shared state; read it after [`Self::finish`].
    pub(crate) state: StreamScanState,
}

impl StreamScanner {
    pub(crate) fn new(salvage: bool, chunk_records: usize) -> Self {
        StreamScanner {
            chunk_records: chunk_records.max(1),
            carry: Vec::new(),
            line: 0,
            lossy_pos: 0,
            current: OwnedLines::default(),
            state: StreamScanState::new(salvage),
        }
    }

    /// Bytes currently held by the scanner itself (the torn-line carry
    /// plus the partially-filled chunk), for the peak-memory gauge.
    pub(crate) fn buffered_bytes(&self) -> u64 {
        (self.carry.len() + self.current.buf.len()) as u64
    }

    /// Feeds one block of input; completed chunks are appended to `out`.
    /// After a strict-mode error the scanner ignores further input (the
    /// in-memory scan breaks at the same line).
    pub(crate) fn feed(&mut self, data: &[u8], out: &mut Vec<OwnedChunk>) {
        if self.state.aborted {
            return;
        }
        let mut rest = data;
        if !self.carry.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                None => {
                    self.carry.extend_from_slice(rest);
                    return;
                }
                Some(i) => {
                    self.carry.extend_from_slice(&rest[..i]);
                    let line = std::mem::take(&mut self.carry);
                    self.process_line(&line, true, out);
                    rest = &rest[i + 1..];
                }
            }
        }
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            if self.state.aborted {
                return;
            }
            self.process_line(&rest[..i], true, out);
            rest = &rest[i + 1..];
        }
        if !rest.is_empty() && !self.state.aborted {
            self.carry.extend_from_slice(rest);
        }
    }

    /// Signals end-of-input: classifies a torn tail, flushes the partial
    /// chunk, and finalises `next_position`.
    pub(crate) fn finish(&mut self, out: &mut Vec<OwnedChunk>) {
        if !self.state.aborted && !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.process_line(&line, false, out);
        }
        if !self.current.metas.is_empty() {
            out.push(OwnedChunk::Lines(std::mem::take(&mut self.current)));
        }
        self.state.next_position = (self.line + 1, self.lossy_pos);
    }

    fn process_line(&mut self, raw: &[u8], terminated: bool, out: &mut Vec<OwnedChunk>) {
        self.line += 1;
        let n = self.line;
        let content = String::from_utf8_lossy(raw);
        let len = content.len() as u64 + u64::from(terminated);
        let byte = self.lossy_pos;
        self.lossy_pos += len;
        if !terminated {
            let mut e = LogError::new(
                ErrorCode::TornTail,
                n,
                "unterminated final line (torn write)".into(),
            );
            e.byte = byte;
            self.state.note(e, len);
            return;
        }
        let trimmed = content.trim();
        if n == 1 {
            if trimmed == TEXT_HEADER {
                return;
            }
            let mut e = LogError::new(
                ErrorCode::BadHeader,
                n,
                format!("unrecognised header `{trimmed}`"),
            );
            e.byte = byte;
            self.state.note(e, len);
            return;
        }
        if trimmed.is_empty() {
            return;
        }
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            Some("end") => match field(&mut parts, n, "end time") {
                Ok(t) => {
                    self.state.end_time = t;
                    self.state.saw_end = true;
                }
                Err(mut e) => {
                    e.byte = byte;
                    self.state.note(e, len);
                }
            },
            Some("chain") => match field::<u32>(&mut parts, n, "chain id") {
                Ok(id) => {
                    let rest: Vec<&str> = parts.collect();
                    self.state.chain_names.insert(ChainId(id), rest.join(" "));
                }
                Err(mut e) => {
                    e.byte = byte;
                    self.state.note(e, len);
                }
            },
            Some("obj") | Some("gc") | Some("retain") => {
                let start = self.current.buf.len();
                self.current.buf.push_str(&content);
                self.current.metas.push(LineMeta {
                    line: n,
                    byte,
                    len,
                    start,
                    end: self.current.buf.len(),
                });
                if self.current.metas.len() >= self.chunk_records {
                    out.push(OwnedChunk::Lines(std::mem::take(&mut self.current)));
                }
            }
            Some(other) => {
                let mut e = LogError::new(
                    ErrorCode::UnknownDirective,
                    n,
                    format!("unknown directive `{other}`"),
                );
                e.byte = byte;
                self.state.note(e, len);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::OwnedChunk;

    /// Decodes every chunk of a batch scan, in order.
    fn batch_outs(scan_out: &ScanOutput<'_>, salvage: bool) -> Vec<ChunkOut> {
        scan_out
            .chunks
            .iter()
            .enumerate()
            .map(|(i, c)| c.decode(i, salvage).0)
            .collect()
    }

    /// Runs the incremental scanner over `bytes` in blocks of `feed`
    /// bytes and decodes every chunk it produced.
    fn stream_scan(
        bytes: &[u8],
        salvage: bool,
        chunk_records: usize,
        feed: usize,
    ) -> (StreamScanner, Vec<ChunkOut>) {
        let mut scanner = StreamScanner::new(salvage, chunk_records);
        let mut chunks: Vec<OwnedChunk> = Vec::new();
        for block in bytes.chunks(feed.max(1)) {
            scanner.feed(block, &mut chunks);
        }
        scanner.finish(&mut chunks);
        let outs = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| c.decode(i, salvage).0)
            .collect();
        (scanner, outs)
    }

    fn assert_same_out(a: &ChunkOut, b: &ChunkOut, ctx: &str) {
        assert_eq!(a.records, b.records, "{ctx}: records");
        assert_eq!(a.samples, b.samples, "{ctx}: samples");
        assert_eq!(a.retains, b.retains, "{ctx}: retains");
        assert_eq!(a.errors, b.errors, "{ctx}: errors");
        assert_eq!(a.units_dropped, b.units_dropped, "{ctx}: units_dropped");
        assert_eq!(a.bytes_skipped, b.bytes_skipped, "{ctx}: bytes_skipped");
    }

    /// Asserts the incremental scanner agrees with the batch scan on
    /// `bytes` for every combination of mode, chunk size, and feed size.
    fn assert_stream_matches_batch(bytes: &[u8], label: &str) {
        let text = String::from_utf8_lossy(bytes).into_owned();
        for salvage in [false, true] {
            for chunk_records in [1, 3, 8192] {
                let want = scan(&text, salvage, chunk_records);
                let want_outs = batch_outs(&want, salvage);
                for feed in [1, 2, 3, 7, 64, 4096] {
                    let ctx = format!(
                        "{label}: salvage={salvage} chunk_records={chunk_records} feed={feed}"
                    );
                    let (scanner, got_outs) = stream_scan(bytes, salvage, chunk_records, feed);
                    assert_eq!(want_outs.len(), got_outs.len(), "{ctx}: chunk count");
                    for (i, (a, b)) in want_outs.iter().zip(&got_outs).enumerate() {
                        assert_same_out(a, b, &format!("{ctx}: chunk {i}"));
                    }
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
        let log = "heapdrag-log v1\n\
                   chain 0 Main.main@3 \"big array\"\n\
                   chain 1 Main.run@9\n\
                   obj 1 2 816 16 900 320 0 1 0\n\
                   obj 2 2 24 32 1000 - 1 - 1\n\
                   gc 500 840 2\n\
                   retain 0 816 500 2 0 static Main.cache -> char[]\n\
                   end 1000\n";
        assert_stream_matches_batch(log.as_bytes(), "clean");
    }

    #[test]
    fn retain_lines_roundtrip_and_normalize() {
        let record = RetainRecord {
            alloc_site: ChainId(7),
            size: 4096,
            time: 123456,
            depth: 3,
            truncated: true,
            path: "  static a.B.c  ->   d.E[3] ".into(),
        };
        let mut buf = Vec::new();
        {
            let mut sink = TextSink::new(&mut buf);
            sink.begin().unwrap();
            sink.retain(&record).unwrap();
            sink.end(200000).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("retain 7 4096 123456 3 1 static a.B.c -> d.E[3]\n"));
        let s = scan(&text, false, 8192);
        assert!(s.errors.is_empty());
        let (out, _) = s.chunks[0].decode(0, false);
        assert!(out.errors.is_empty());
        assert_eq!(out.retains.len(), 1);
        assert_eq!(
            out.retains[0],
            RetainRecord {
                path: "static a.B.c -> d.E[3]".into(),
                ..record
            }
        );
    }

    #[test]
    fn retain_line_faults_are_classified() {
        // Bad truncated flag → E005; missing path → E004; both survive
        // salvage without taking neighbours.
        let log = "heapdrag-log v1\n\
                   retain 0 816 500 2 9 static Main.cache\n\
                   retain 0 816 500 2 0\n\
                   retain 0 24 600 1 1 static Main.pool -> int[]\n\
                   end 1000\n";
        let s = scan(log, true, 8192);
        assert!(s.errors.is_empty());
        let (out, _) = s.chunks[0].decode(0, true);
        assert_eq!(out.errors.len(), 2);
        assert_eq!(out.errors[0].code, ErrorCode::BadFieldValue);
        assert_eq!(out.errors[1].code, ErrorCode::MissingField);
        assert_eq!(out.retains.len(), 1);
        assert!(out.retains[0].truncated);
        assert_eq!(out.units_dropped, 2);
        assert_stream_matches_batch(log.as_bytes(), "retain faults");
    }

    #[test]
    fn incremental_scan_matches_batch_on_faults() {
        let cases: &[(&str, &str)] = &[
            ("torn tail", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\ngc 500 840"),
            ("bad header", "not a heapdrag log\nobj 1 2 816 16 900 320 0 1 0\nend 9\n"),
            ("unknown directive", "heapdrag-log v1\nwat 1 2 3\nobj 1 2 816 16 900 320 0 1 0\nend 9\n"),
            ("bad end value", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\nend soon\n"),
            ("bad chain id", "heapdrag-log v1\nchain x Main.main@3\nend 9\n"),
            ("blank lines", "heapdrag-log v1\n\n  \nobj 1 2 816 16 900 320 0 1 0\n\nend 9\n"),
            ("missing end", "heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\n"),
            ("bad obj field", "heapdrag-log v1\nobj 1 2 many 16 900 320 0 1 0\ngc 500 840 2\nend 9\n"),
            ("torn header", "heapdrag-log"),
            ("only header", "heapdrag-log v1\n"),
        ];
        for (label, log) in cases {
            assert_stream_matches_batch(log.as_bytes(), label);
        }
    }

    #[test]
    fn incremental_scan_matches_batch_on_invalid_utf8() {
        // Invalid UTF-8 inside a chain name and inside an obj line: the
        // per-line lossy decode must agree with the whole-input lossy
        // decode, offsets included.
        let mut log = b"heapdrag-log v1\nchain 0 Ma\xffin.m\xc3\x28ain@3\n".to_vec();
        log.extend_from_slice(b"obj 1 2 816 16 900 320 \xf0\x9f 0 1 0\n");
        log.extend_from_slice(b"obj 2 2 24 32 1000 - 0 - 1\nend 1000\n");
        assert_stream_matches_batch(&log, "invalid utf8");
    }

    #[test]
    fn scanner_buffered_bytes_tracks_carry_and_partial_chunk() {
        let mut scanner = StreamScanner::new(false, 8192);
        let mut out = Vec::new();
        scanner.feed(b"heapdrag-log v1\nobj 1 2 816 16 900 320 0 1 0\npartial", &mut out);
        assert!(out.is_empty());
        // The obj line sits in the partial chunk, "partial" in the carry.
        assert_eq!(
            scanner.buffered_bytes(),
            ("obj 1 2 816 16 900 320 0 1 0".len() + "partial".len()) as u64
        );
    }

    /// The `writeln!` encoder [`TextSink`] replaced, kept as the oracle
    /// the line-buffer encoder must match byte for byte.
    struct ReferenceSink<W>(W);

    impl<W: Write> TraceSink for ReferenceSink<W> {
        fn begin(&mut self) -> io::Result<()> {
            writeln!(self.0, "{TEXT_HEADER}")
        }

        fn chain(&mut self, id: ChainId, name: &str) -> io::Result<()> {
            writeln!(self.0, "chain {} {}", id.0, name)
        }

        fn record(&mut self, r: &ObjectRecord) -> io::Result<()> {
            writeln!(
                self.0,
                "obj {} {} {} {} {} {} {} {} {}",
                r.object.0,
                r.class.0,
                r.size,
                r.created,
                r.freed,
                r.last_use.map_or("-".to_string(), |t| t.to_string()),
                r.alloc_site.0,
                r.last_use_site.map_or("-".to_string(), |c| c.0.to_string()),
                r.at_exit as u8,
            )
        }

        fn sample(&mut self, s: &GcSample) -> io::Result<()> {
            writeln!(
                self.0,
                "gc {} {} {}",
                s.time, s.reachable_bytes, s.reachable_count
            )
        }

        fn retain(&mut self, r: &RetainRecord) -> io::Result<()> {
            writeln!(
                self.0,
                "retain {} {} {} {} {} {}",
                r.alloc_site.0,
                r.size,
                r.time,
                r.depth,
                r.truncated as u8,
                crate::codec::normalize_chain_name(&r.path),
            )
        }

        fn end(&mut self, end_time: u64) -> io::Result<()> {
            writeln!(self.0, "end {end_time}")
        }
    }

    /// A `u64` drawn mostly from the edges the digit loop can get wrong.
    fn edge_u64(rng: &mut heapdrag_testkit::Rng) -> u64 {
        match rng.range_u32(0, 8) {
            0 => 0,
            1 => u64::MAX,
            2 => u32::MAX.into(),
            3 => 10u64.pow(rng.range_u32(0, 20)),
            4 => 10u64.pow(rng.range_u32(1, 20)) - 1,
            5 => rng.range_u64(0, 1000),
            _ => rng.next_u64(),
        }
    }

    fn edge_u32(rng: &mut heapdrag_testkit::Rng) -> u32 {
        match rng.range_u32(0, 4) {
            0 => 0,
            1 => u32::MAX,
            2 => rng.range_u32(0, 100),
            _ => rng.next_u32(),
        }
    }

    /// Words and whitespace runs, so paths and names need normalizing.
    fn words(rng: &mut heapdrag_testkit::Rng) -> String {
        const PARTS: [&str; 10] = [
            "static",
            "Main.cache",
            "->",
            "char[]",
            "é",
            " ",
            "  ",
            "\t",
            "\n",
            "\u{2003}",
        ];
        rng.vec(0, 8, |rng| *rng.choose(&PARTS)).concat()
    }

    fn arb_record(rng: &mut heapdrag_testkit::Rng) -> ObjectRecord {
        let used = rng.bool();
        ObjectRecord {
            object: ObjectId(edge_u64(rng)),
            class: ClassId(edge_u32(rng)),
            size: edge_u64(rng),
            created: edge_u64(rng),
            freed: edge_u64(rng),
            last_use: used.then(|| edge_u64(rng)),
            alloc_site: ChainId(edge_u32(rng)),
            last_use_site: rng.bool().then(|| ChainId(edge_u32(rng))),
            at_exit: rng.bool(),
        }
    }

    fn arb_sample(rng: &mut heapdrag_testkit::Rng) -> GcSample {
        GcSample {
            time: edge_u64(rng),
            reachable_bytes: edge_u64(rng),
            reachable_count: edge_u64(rng),
        }
    }

    fn arb_retain(rng: &mut heapdrag_testkit::Rng) -> RetainRecord {
        RetainRecord {
            alloc_site: ChainId(edge_u32(rng)),
            size: edge_u64(rng),
            time: edge_u64(rng),
            depth: edge_u32(rng),
            truncated: rng.bool(),
            // Mostly a real root, now and then nothing but whitespace.
            path: format!(
                "{}{}",
                if rng.ratio(7, 8) {
                    "static Holder.x"
                } else {
                    ""
                },
                words(rng)
            ),
        }
    }

    /// Drives `sink` through a whole trace: header, chains, records,
    /// samples, retain samples, end marker.
    fn drive<S: TraceSink>(
        sink: &mut S,
        chains: &[(ChainId, String)],
        records: &[ObjectRecord],
        samples: &[GcSample],
        retains: &[RetainRecord],
        end: u64,
    ) {
        sink.begin().unwrap();
        for (id, name) in chains {
            sink.chain(*id, name).unwrap();
        }
        for r in records {
            sink.record(r).unwrap();
        }
        for s in samples {
            sink.sample(s).unwrap();
        }
        for r in retains {
            sink.retain(r).unwrap();
        }
        sink.end(end).unwrap();
    }

    #[test]
    fn line_buffer_encoder_matches_writeln_reference() {
        heapdrag_testkit::check(
            "line_buffer_encoder_matches_writeln_reference",
            256,
            |rng| {
                // The log ingester rejects duplicate records and samples, so
                // keep the first of each for the round trip below.
                let mut ids = std::collections::HashSet::new();
                let records: Vec<ObjectRecord> = rng
                    .vec(0, 12, arb_record)
                    .into_iter()
                    .filter(|r| ids.insert(r.object))
                    .collect();
                let mut seen = std::collections::HashSet::new();
                let samples: Vec<GcSample> = rng
                    .vec(0, 6, arb_sample)
                    .into_iter()
                    .filter(|s| seen.insert((s.time, s.reachable_bytes, s.reachable_count)))
                    .collect();
                let retains = rng.vec(0, 6, arb_retain);
                let chains: Vec<(ChainId, String)> = rng.vec(0, 6, |rng| {
                    let name =
                        crate::codec::normalize_chain_name(&format!("Main.run@3 {}", words(rng)));
                    (ChainId(edge_u32(rng)), name)
                });
                let end = edge_u64(rng);

                let mut want = Vec::new();
                drive(
                    &mut ReferenceSink(&mut want),
                    &chains,
                    &records,
                    &samples,
                    &retains,
                    end,
                );
                let mut got = Vec::new();
                drive(
                    &mut TextSink::new(&mut got),
                    &chains,
                    &records,
                    &samples,
                    &retains,
                    end,
                );
                assert_eq!(
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&want)
                );

                // A retain line with an empty path does not decode (the
                // path field is required), so only those logs round-trip.
                if retains.iter().any(|r| r.path.trim().is_empty()) {
                    return;
                }
                let log = crate::Pipeline::options().ingest_bytes(&got).unwrap().log;
                assert_eq!(log.records, records);
                assert_eq!(log.samples, samples);
                assert_eq!(log.end_time, end);
                let normalized: Vec<RetainRecord> = retains
                    .iter()
                    .map(|r| RetainRecord {
                        path: crate::codec::normalize_chain_name(&r.path),
                        ..r.clone()
                    })
                    .collect();
                assert_eq!(log.retains, normalized);
                for (id, name) in &chains {
                    assert!(
                        log.chain_names.contains_key(id),
                        "chain {} named {name:?}",
                        id.0
                    );
                }
            },
        );
    }
}
