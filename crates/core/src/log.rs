//! The log file format connecting the two phases of the tool.
//!
//! Phase 1 (the instrumented VM run) writes one record per object trailer,
//! per deep-GC sample, and per interned site chain; phase 2 parses the file
//! back and analyzes it without needing the program. Two on-disk encodings
//! exist behind the [`crate::codec`] abstraction:
//!
//! * the line-oriented **text** format (`heapdrag-log v1`,
//!   [`crate::codec::text`]), human-readable and greppable, and
//! * the length-prefixed **binary** frame format (HDLOG v2,
//!   [`crate::codec::binary`]), smaller on disk and faster to decode.
//!
//! Every ingest terminal of [`crate::Pipeline`] autodetects the format
//! from the input's first bytes ([`LogFormat::detect`]); the write path
//! picks a format explicitly ([`crate::Pipeline::format`]). The
//! end-of-log marker (the text `end` directive / the binary end frame) is
//! written **last** by the profiler's exit path, so its presence
//! certifies the log complete: a log without it was torn mid-write by a
//! crash, a kill, or a full disk.
//!
//! # Fault-tolerant ingestion
//!
//! Real traces come from runs that crashed, were killed, or hit `ENOSPC`,
//! and lifetime measurements remain meaningful on the surviving prefix.
//! Ingestion therefore supports two [`IngestMode`]s (see [`IngestConfig`]
//! for the full salvage rules):
//!
//! * **Strict** (the default): the first malformed line or frame aborts
//!   the parse with a [`LogError`] carrying a stable [`ErrorCode`], the
//!   1-based line/frame number, and the byte offset of the line or frame.
//! * **Salvage**: malformed or torn lines/frames are dropped and counted,
//!   exact duplicate records are collapsed, and a missing end marker is
//!   repaired by synthesizing the exit time from the latest event
//!   observed. The accompanying [`SalvageSummary`] reports exactly what
//!   was kept, dropped, and repaired — and which input format was
//!   detected — and renders as the report footer.
//!
//! Both modes, in both formats, run through the one streaming engine
//! ([`crate::stream`]) and produce results that are byte-identical for
//! every shard count (see [`crate::parallel`]); the same run serialised as
//! text or binary yields the identical [`ParsedLog`] and analyzer report.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::io;

use heapdrag_vm::ids::ChainId;
use heapdrag_vm::program::Program;

use crate::codec::{
    normalize_chain_name, BinarySink, CountingWriter, LogFormat, TextSink, TraceSink,
};
use crate::parallel::ParallelMetrics;
use crate::profiler::ProfileRun;
use crate::record::{GcSample, ObjectRecord, RetainRecord};
use crate::report::ChainNamer;

/// Stable, machine-readable codes for everything that can go wrong while
/// ingesting a phase-1 log.
///
/// The numeric codes are part of the tool's interface (scripts grep for
/// them, CI pins them, the troubleshooting table in the README maps them
/// to fixes) and must never be renumbered. The same taxonomy covers both
/// trace formats; "line" below means a text line or a binary frame.
///
/// | code | name | meaning | strict | salvage |
/// |------|------|---------|--------|---------|
/// | `E001` | `empty-log` | the file has no bytes at all | fatal | fatal |
/// | `E002` | `bad-header` | line 1 is not `heapdrag-log v1` (and the input is not HDLOG v2) | error | line dropped |
/// | `E003` | `unknown-directive` | a line starts with an unknown word / a frame has an unknown tag | error | line/frame dropped (binary: the length prefix still walks, so exactly one frame is skipped) |
/// | `E004` | `missing-field` | a record line/frame payload is short | error | line dropped |
/// | `E005` | `bad-field-value` | a field does not parse / a varint is corrupt | error | line dropped (binary length prefix: rest of input dropped — framing lost) |
/// | `E006` | `missing-end-marker` | no end marker — log truncated | error | exit time synthesized |
/// | `E007` | `torn-tail` | unterminated final line / truncated final frame | error | the torn tail dropped |
/// | `E008` | `too-many-errors` | salvage exceeded its `--max-errors` bound | — | fatal |
/// | `E009` | `duplicate-record` | a record/sample appears twice | undetected | duplicate collapsed |
/// | `E010` | `worker-lost` | a decode job panicked; its chunk is lost | error | chunk dropped |
/// | `E011` | `frame-checksum` | a binary frame's checksum does not match | error | frame dropped |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum ErrorCode {
    /// `E001`: the input has no bytes at all. Fatal in both modes — there
    /// is nothing to salvage.
    EmptyLog,
    /// `E002`: the input is neither a `heapdrag-log v1` text log nor an
    /// HDLOG v2 binary log.
    BadHeader,
    /// `E003`: a text line starts with a word other than
    /// `end`/`chain`/`obj`/`gc`/`retain`, or a binary frame carries an
    /// unknown tag. Framing survives in both formats (the line terminator
    /// or length prefix still walks to the next unit), so salvage drops
    /// exactly one line or frame — old readers skip frame kinds minted by
    /// newer writers.
    UnknownDirective,
    /// `E004`: a directive line or frame payload ends before all its
    /// fields.
    MissingField,
    /// `E005`: a field is present but does not parse as its type (text),
    /// or a varint is corrupt/overflowing (binary; a corrupt length
    /// prefix loses framing).
    BadFieldValue,
    /// `E006`: the log has no end marker — the run was cut short before
    /// the exit path could write it.
    MissingEndMarker,
    /// `E007`: the final line has no `\n` terminator, or the input ends
    /// inside a binary frame — the classic torn write of a crashed or
    /// out-of-disk run.
    TornTail,
    /// `E008`: salvage mode found more errors than
    /// [`IngestConfig::max_errors`] allows.
    TooManyErrors,
    /// `E009`: the same object record (by id) or an identical deep-GC
    /// sample appears more than once, e.g. from a replayed write buffer.
    DuplicateRecord,
    /// `E010`: a decode job panicked and the chunk it was decoding was
    /// lost. Every other chunk is unaffected.
    WorkerLost,
    /// `E011`: a binary frame's stored checksum does not match its
    /// contents. Framing survives (the length prefix still walks to the
    /// next frame), so salvage drops exactly that frame.
    FrameChecksum,
}

impl ErrorCode {
    /// Every code, in numeric order.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::EmptyLog,
        ErrorCode::BadHeader,
        ErrorCode::UnknownDirective,
        ErrorCode::MissingField,
        ErrorCode::BadFieldValue,
        ErrorCode::MissingEndMarker,
        ErrorCode::TornTail,
        ErrorCode::TooManyErrors,
        ErrorCode::DuplicateRecord,
        ErrorCode::WorkerLost,
        ErrorCode::FrameChecksum,
    ];

    /// The stable `E0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::EmptyLog => "E001",
            ErrorCode::BadHeader => "E002",
            ErrorCode::UnknownDirective => "E003",
            ErrorCode::MissingField => "E004",
            ErrorCode::BadFieldValue => "E005",
            ErrorCode::MissingEndMarker => "E006",
            ErrorCode::TornTail => "E007",
            ErrorCode::TooManyErrors => "E008",
            ErrorCode::DuplicateRecord => "E009",
            ErrorCode::WorkerLost => "E010",
            ErrorCode::FrameChecksum => "E011",
        }
    }

    /// A short kebab-case name for footers and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::EmptyLog => "empty-log",
            ErrorCode::BadHeader => "bad-header",
            ErrorCode::UnknownDirective => "unknown-directive",
            ErrorCode::MissingField => "missing-field",
            ErrorCode::BadFieldValue => "bad-field-value",
            ErrorCode::MissingEndMarker => "missing-end-marker",
            ErrorCode::TornTail => "torn-tail",
            ErrorCode::TooManyErrors => "too-many-errors",
            ErrorCode::DuplicateRecord => "duplicate-record",
            ErrorCode::WorkerLost => "worker-lost",
            ErrorCode::FrameChecksum => "frame-checksum",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A malformed or unsalvageable log, with enough context to find the bad
/// bytes: the stable [`ErrorCode`], the 1-based line number (text) or
/// frame number (binary), the byte offset of the line/frame start, and —
/// when the unit was decoded on a worker — the parse-chunk index.
///
/// See [`ErrorCode`] for the full code table and the strict/salvage
/// behaviour of each code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogError {
    /// What went wrong, as a stable code.
    pub code: ErrorCode,
    /// 1-based line number (text) or frame number (binary); 0 for
    /// whole-file conditions such as `E008`.
    pub line: usize,
    /// Byte offset of the start of the offending line or frame.
    pub byte: u64,
    /// Index of the parse chunk that decoded the unit, when sharded.
    pub chunk: Option<usize>,
    /// Problem description.
    pub message: String,
}

impl LogError {
    pub(crate) fn new(code: ErrorCode, line: usize, message: String) -> Self {
        LogError {
            code,
            line,
            byte: 0,
            chunk: None,
            message,
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "log line {} (byte {}) [{}]: {}",
            self.line, self.byte, self.code, self.message
        )
    }
}

impl Error for LogError {}

/// How ingestion treats malformed input (see [`IngestConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Abort at the first malformed line — the right default when a log
    /// is expected to be complete.
    #[default]
    Strict,
    /// Keep going: drop what cannot be decoded, collapse duplicates,
    /// synthesize a missing exit time, and report it all in the
    /// [`SalvageSummary`].
    Salvage,
}

/// Ingestion knobs: the [`IngestMode`] plus the salvage error budget.
/// [`crate::Pipeline::strict`] and [`crate::Pipeline::salvage`] set it;
/// every ingest terminal honours it the same way.
///
/// **Strict** ([`IngestConfig::strict`]) demands a complete log — a
/// well-formed header, decodable directives, a terminated final line
/// (text) or intact frames (binary), and the end-of-log marker — and
/// returns the first malformed unit's error (the smallest line/frame
/// number, for every shard count). **Salvage**
/// ([`IngestConfig::salvage`]) instead:
///
/// 1. drops undecodable lines/frames (counting units and bytes per
///    [`ErrorCode`]) — a binary checksum mismatch drops exactly one
///    frame, while a fault that destroys framing (corrupt length prefix,
///    truncation) keeps the intact prefix and drops the rest,
/// 2. drops a torn tail (unterminated final line / truncated frame),
/// 3. collapses exact duplicate records (by object id) and deep-GC
///    samples (`E009`), in input order; retain samples carry no identity
///    and are never collapsed,
/// 4. synthesizes the exit time from the latest observed
///    `freed`/sample/retain time when the end marker is missing (`E006`)
///    — the synthesized exit is never earlier than any kept record's
///    reclamation time, so every kept record's drag equals its value in
///    the complete log, and
/// 5. fails only on an empty input (`E001`) or when the error count
///    exceeds [`max_errors`](Self::max_errors) (`E008`).
///
/// The kept log and its [`SalvageSummary`] are identical for every
/// [`ParallelConfig`](crate::ParallelConfig): chunking is decided by the
/// scan (not the worker count), drops are per-unit decisions, and the
/// duplicate collapse runs at the ordered merge. A decode job that panics
/// loses only its own chunk (`E010`): an error under strict, a dropped
/// chunk under salvage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestConfig {
    /// Strict or salvage.
    pub mode: IngestMode,
    /// In salvage mode, abort with [`ErrorCode::TooManyErrors`] once more
    /// than this many errors (dropped lines, repairs, and collapsed
    /// duplicates combined) have accumulated. `None` means unbounded.
    pub max_errors: Option<u64>,
}

impl IngestConfig {
    /// The strict configuration (the [`Default`]).
    pub fn strict() -> Self {
        Self::default()
    }

    /// Unbounded salvage.
    pub fn salvage() -> Self {
        IngestConfig {
            mode: IngestMode::Salvage,
            max_errors: None,
        }
    }

    /// True when the mode is [`IngestMode::Salvage`].
    pub fn is_salvage(&self) -> bool {
        self.mode == IngestMode::Salvage
    }
}

/// How many leading errors a [`SalvageSummary`] retains verbatim for
/// display; the rest are only counted in the histogram.
pub const FIRST_ERRORS_CAP: usize = 5;

/// What salvage kept, dropped, and repaired — threaded from ingestion
/// through the analyzer to the report footer and the
/// `heapdrag_salvage_*` metrics.
///
/// Identical for every shard count: drops are decided per line/frame,
/// duplicates are collapsed in input order at the sequential merge, and
/// the error histogram is keyed by stable [`ErrorCode`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageSummary {
    /// True when the ingest ran in salvage mode (a strict ingest returns
    /// an all-zero summary).
    pub salvage: bool,
    /// The input format detected by magic bytes — disambiguates
    /// `heapdrag_salvage_*` reconciliation in mixed-format runs.
    pub format: LogFormat,
    /// Object records in the returned [`ParsedLog`].
    pub records_kept: u64,
    /// Deep-GC samples in the returned [`ParsedLog`].
    pub samples_kept: u64,
    /// Retaining-path samples in the returned [`ParsedLog`].
    pub retains_kept: u64,
    /// Input lines (text) or frames (binary) dropped because they could
    /// not be decoded.
    pub lines_dropped: u64,
    /// Bytes of input skipped by those drops (terminators and frame
    /// headers included).
    pub bytes_skipped: u64,
    /// Parsed records/samples collapsed as exact duplicates (`E009`).
    pub duplicates_dropped: u64,
    /// True when the end marker was missing and the exit time was
    /// synthesized from the latest observed event (`E006`).
    pub synthesized_end: bool,
    /// Error histogram: how many times each code fired.
    pub errors_by_code: BTreeMap<ErrorCode, u64>,
    /// The first [`FIRST_ERRORS_CAP`] errors in line order, verbatim.
    pub first_errors: Vec<LogError>,
}

impl SalvageSummary {
    /// Total errors across the histogram (drops, repairs, duplicates).
    pub fn total_errors(&self) -> u64 {
        self.errors_by_code.values().sum()
    }

    /// True when nothing was dropped, collapsed, or repaired.
    pub fn is_clean(&self) -> bool {
        self.total_errors() == 0
    }

    /// The report footer: a stable, diffable rendering of the summary —
    /// the exact text `heapdrag report --salvage` appends to its output
    /// and CI diffs against a golden copy.
    pub fn render_footer(&self) -> String {
        let mut out = String::from("--- salvage summary ---\n");
        out.push_str(&format!(
            "mode:               {}\n",
            if self.salvage { "salvage" } else { "strict" }
        ));
        out.push_str(&format!("input format:       {}\n", self.format));
        out.push_str(&format!("records kept:       {}\n", self.records_kept));
        out.push_str(&format!("samples kept:       {}\n", self.samples_kept));
        // Only traces with retain sampling enabled carry this line, so
        // rate-0 footers stay byte-identical to pre-retain goldens.
        if self.retains_kept > 0 {
            out.push_str(&format!("retains kept:       {}\n", self.retains_kept));
        }
        out.push_str(&format!("lines dropped:      {}\n", self.lines_dropped));
        out.push_str(&format!("bytes skipped:      {}\n", self.bytes_skipped));
        out.push_str(&format!(
            "duplicates dropped: {}\n",
            self.duplicates_dropped
        ));
        out.push_str(&format!(
            "end marker:         {}\n",
            if self.synthesized_end {
                "synthesized"
            } else {
                "present"
            }
        ));
        if !self.errors_by_code.is_empty() {
            out.push_str("errors by code:\n");
            for (code, n) in &self.errors_by_code {
                out.push_str(&format!("  {} {:<20} {}\n", code, code.name(), n));
            }
        }
        if !self.first_errors.is_empty() {
            out.push_str("first errors:\n");
            for e in &self.first_errors {
                out.push_str(&format!("  {e}\n"));
            }
        }
        out
    }

    /// Publishes the summary as the `heapdrag_salvage_*` metric family:
    /// kept/dropped/skipped totals as counters, the end-marker repair as a
    /// 0/1 gauge, the detected input format as
    /// `heapdrag_salvage_input_format{format="..."}`, and the histogram as
    /// `heapdrag_salvage_errors_total{code="E0xx"}` series.
    pub fn publish_metrics(&self, registry: &heapdrag_obs::Registry) {
        registry
            .counter("heapdrag_salvage_records_kept_total")
            .add(self.records_kept);
        registry
            .counter("heapdrag_salvage_samples_kept_total")
            .add(self.samples_kept);
        if self.retains_kept > 0 {
            registry
                .counter("heapdrag_salvage_retains_kept_total")
                .add(self.retains_kept);
        }
        registry
            .counter("heapdrag_salvage_lines_dropped_total")
            .add(self.lines_dropped);
        registry
            .counter("heapdrag_salvage_bytes_skipped_total")
            .add(self.bytes_skipped);
        registry
            .counter("heapdrag_salvage_duplicates_dropped_total")
            .add(self.duplicates_dropped);
        registry
            .gauge("heapdrag_salvage_end_synthesized")
            .set(i64::from(self.synthesized_end));
        registry
            .gauge(&format!(
                "heapdrag_salvage_input_format{{format=\"{}\"}}",
                self.format
            ))
            .set(1);
        for (code, n) in &self.errors_by_code {
            registry
                .counter(&format!("heapdrag_salvage_errors_total{{code=\"{code}\"}}"))
                .add(*n);
        }
    }
}

/// The parsed contents of a phase-1 log file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedLog {
    /// Final allocation-clock value.
    pub end_time: u64,
    /// Readable names for the chain ids appearing in the records.
    pub chain_names: HashMap<ChainId, String>,
    /// Object trailers.
    pub records: Vec<ObjectRecord>,
    /// Deep-GC samples.
    pub samples: Vec<GcSample>,
    /// Retaining-path samples (empty unless the run sampled retainers).
    pub retains: Vec<RetainRecord>,
}

impl ChainNamer for ParsedLog {
    fn chain_name(&self, chain: ChainId) -> String {
        self.chain_names
            .get(&chain)
            .cloned()
            .unwrap_or_else(|| format!("<chain {}>", chain.0))
    }
}

impl ParsedLog {
    /// Publishes the off-line side of the **reconciliation surface**: the
    /// same `heapdrag_*` metric names the on-line profiler emits
    /// ([`crate::profiler::ProfilerMetrics`]), recomputed from the parsed
    /// log. A lossless pipeline makes the two snapshots agree exactly, for
    /// any shard count — the differential oracle `tests/metrics_parity.rs`
    /// enforces.
    pub fn publish_metrics(&self, registry: &heapdrag_obs::Registry) {
        let at_exit = self.records.iter().filter(|r| r.at_exit).count() as u64;
        registry
            .counter("heapdrag_objects_created_total")
            .add(self.records.len() as u64);
        registry
            .counter("heapdrag_alloc_bytes_total")
            .add(self.records.iter().map(|r| r.size).sum());
        registry
            .counter("heapdrag_objects_reclaimed_total")
            .add(self.records.len() as u64 - at_exit);
        registry
            .counter("heapdrag_objects_at_exit_total")
            .add(at_exit);
        registry
            .counter("heapdrag_deep_gc_samples_total")
            .add(self.samples.len() as u64);
        registry
            .counter("heapdrag_retain_samples_total")
            .add(self.retains.len() as u64);
        registry
            .gauge("heapdrag_end_time_bytes")
            .set(i64::try_from(self.end_time).unwrap_or(i64::MAX));
    }
}

/// A fully ingested log: the parsed contents, the [`SalvageSummary`] of
/// what (if anything) had to be dropped or repaired, and the per-stage
/// [`ParallelMetrics`].
#[derive(Debug)]
pub struct Ingested {
    /// The decoded log.
    pub log: ParsedLog,
    /// What salvage kept, dropped, and repaired (all-zero under strict).
    pub salvage: SalvageSummary,
    /// Parse-stage sharding instrumentation.
    pub metrics: ParallelMetrics,
}

/// Streams a profiling run (phase-1 output) to `writer` in the chosen
/// format, returning the number of bytes written — the engine behind
/// [`crate::Pipeline::write_to`].
///
/// The trace is driven event by event through a [`TraceSink`] — header,
/// chain table, records, samples, end marker last — so nothing is buffered
/// beyond the writer's own buffering. The end marker written last is what
/// certifies the log complete, and its absence tells the salvage parser
/// the run was cut short. Chain names are whitespace-normalized at write
/// time, which is what makes the text and binary encodings of the same run
/// decode to identical [`ParsedLog`]s.
pub(crate) fn write_run_to<W: io::Write>(
    run: &ProfileRun,
    program: &Program,
    format: LogFormat,
    writer: W,
) -> io::Result<u64> {
    let mut counting = CountingWriter::new(writer);
    match format {
        LogFormat::Text => drive_sink(run, program, &mut TextSink::new(&mut counting))?,
        LogFormat::Binary => drive_sink(run, program, &mut BinarySink::new(&mut counting))?,
    }
    Ok(counting.written())
}

/// Drives a [`TraceSink`] through a complete run: preamble, deduplicated
/// chain table, records, samples, end marker.
fn drive_sink<S: TraceSink>(run: &ProfileRun, program: &Program, sink: &mut S) -> io::Result<()> {
    sink.begin()?;
    // Mark every chain a record or retain sample names, then emit the
    // marked ones in ascending id order.
    let mut used: Vec<bool> = Vec::new();
    let mut mark = |c: ChainId| {
        let i = c.0 as usize;
        if i >= used.len() {
            used.resize(i + 1, false);
        }
        used[i] = true;
    };
    for r in &run.records {
        mark(r.alloc_site);
        if let Some(c) = r.last_use_site {
            mark(c);
        }
    }
    for r in &run.retains {
        mark(r.alloc_site);
    }
    for (i, _) in used.iter().enumerate().filter(|(_, &u)| u) {
        let c = ChainId(i as u32);
        let name = normalize_chain_name(&run.sites.format_chain(program, c));
        sink.chain(c, &name)?;
    }
    for r in &run.records {
        sink.record(r)?;
    }
    for s in &run.samples {
        sink.sample(s)?;
    }
    for r in &run.retains {
        sink.retain(r)?;
    }
    sink.end(run.outcome.end_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BinarySink, TraceSink};
    use crate::parallel::ParallelConfig;
    use crate::{Pipeline, PipelineError};

    /// The pipeline a `ParallelConfig` and `IngestConfig` resolve to.
    fn pipeline(par: &ParallelConfig, ingest: &IngestConfig) -> Pipeline {
        let p = Pipeline::options()
            .shards(par.shards)
            .chunk_records(par.chunk_records);
        if ingest.is_salvage() {
            p.salvage(ingest.max_errors)
        } else {
            p.strict()
        }
    }

    fn ingest(
        input: impl AsRef<[u8]>,
        par: &ParallelConfig,
        cfg: &IngestConfig,
    ) -> Result<Ingested, LogError> {
        pipeline(par, cfg).ingest_bytes(input).map_err(|e| match e {
            PipelineError::Log(e) => e,
            PipelineError::Io(e) => panic!("a byte slice cannot fail to read: {e}"),
        })
    }

    /// Strict, sequential ingest of the whole input.
    fn parse(input: impl AsRef<[u8]>) -> Result<ParsedLog, LogError> {
        ingest(
            input,
            &ParallelConfig::sequential(),
            &IngestConfig::strict(),
        )
        .map(|i| i.log)
    }

    fn salvage_seq(input: impl AsRef<[u8]>) -> Ingested {
        ingest(
            input,
            &ParallelConfig::sequential(),
            &IngestConfig::salvage(),
        )
        .expect("salvage succeeds")
    }

    #[test]
    fn parse_rejects_bad_header() {
        let e = parse("not-a-log\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert_eq!(e.code, ErrorCode::BadHeader);
        assert_eq!(e.byte, 0);
    }

    #[test]
    fn parse_rejects_empty_log() {
        let e = parse("").unwrap_err();
        assert_eq!(e.code, ErrorCode::EmptyLog);
        // Even salvage has nothing to keep from an empty file.
        let e = ingest("", &ParallelConfig::sequential(), &IngestConfig::salvage()).unwrap_err();
        assert_eq!(e.code, ErrorCode::EmptyLog);
    }

    #[test]
    fn parse_handcrafted_log() {
        let text = "heapdrag-log v1\nend 1000\nchain 0 Main.main@3 \"big array\"\nobj 1 2 816 16 900 320 0 0 0\nobj 2 2 24 32 1000 - 0 - 1\ngc 500 840 2\n";
        let log = parse(text).unwrap();
        assert_eq!(log.end_time, 1000);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.samples.len(), 1);
        assert_eq!(log.records[0].last_use, Some(320));
        assert_eq!(log.records[1].last_use, None);
        assert!(log.records[1].at_exit);
        assert!(log.chain_name(ChainId(0)).contains("big array"));
        assert!(log.chain_name(ChainId(9)).contains("<chain 9>"));
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "heapdrag-log v1\nobj 1 bad\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.code, ErrorCode::BadFieldValue);
        assert_eq!(e.byte, 16, "byte offset of the line start");
        let text = "heapdrag-log v1\nwhat 1\n";
        let e = parse(text).unwrap_err();
        assert!(e.message.contains("what"));
        assert_eq!(e.code, ErrorCode::UnknownDirective);
    }

    #[test]
    fn strict_requires_the_end_marker() {
        let text = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\n";
        let e = parse(text).unwrap_err();
        assert_eq!(e.code, ErrorCode::MissingEndMarker);
        assert_eq!(e.line, 3, "reported just past the last line");

        let ing = salvage_seq(text);
        assert!(ing.salvage.synthesized_end);
        assert_eq!(ing.log.end_time, 900, "max freed time becomes the exit");
        assert_eq!(ing.log.records.len(), 1);
        assert_eq!(ing.salvage.errors_by_code[&ErrorCode::MissingEndMarker], 1);
    }

    #[test]
    fn strict_rejects_a_torn_tail() {
        let text = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\nend 90";
        let e = parse(text).unwrap_err();
        assert_eq!(e.code, ErrorCode::TornTail);
        assert_eq!(e.line, 3);

        // Salvage drops the torn line; `end` was on it, so the exit time
        // is synthesized from the surviving record.
        let ing = salvage_seq(text);
        assert_eq!(ing.log.records.len(), 1);
        assert!(ing.salvage.synthesized_end);
        assert_eq!(ing.salvage.lines_dropped, 1);
        assert_eq!(ing.salvage.bytes_skipped, 6, "`end 90` has 6 bytes");
        assert_eq!(ing.salvage.errors_by_code[&ErrorCode::TornTail], 1);
    }

    #[test]
    fn salvage_drops_bad_lines_and_keeps_the_rest() {
        let text = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\nobj 2 bad\nwhat 9\ngc 500 840 2\nend 1000\n";
        let ing = salvage_seq(text);
        assert_eq!(ing.log.records.len(), 1);
        assert_eq!(ing.log.samples.len(), 1);
        assert_eq!(ing.log.end_time, 1000);
        assert!(!ing.salvage.synthesized_end);
        assert_eq!(ing.salvage.lines_dropped, 2);
        assert_eq!(ing.salvage.records_kept, 1);
        assert_eq!(ing.salvage.errors_by_code[&ErrorCode::BadFieldValue], 1);
        assert_eq!(ing.salvage.errors_by_code[&ErrorCode::UnknownDirective], 1);
        assert_eq!(ing.salvage.total_errors(), 2);
        assert!(!ing.salvage.is_clean());
        assert_eq!(ing.salvage.first_errors.len(), 2);
        let footer = ing.salvage.render_footer();
        assert!(footer.contains("input format:       text"));
        assert!(footer.contains("lines dropped:      2"));
        assert!(footer.contains("E003 unknown-directive"));
    }

    #[test]
    fn salvage_collapses_duplicate_records_and_samples() {
        let text = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\ngc 500 840 2\nobj 1 2 816 16 900 320 0 0 0\ngc 500 840 2\nend 1000\n";
        let strict = parse(text).unwrap();
        assert_eq!(strict.records.len(), 2, "strict does not dedup");
        let ing = salvage_seq(text);
        assert_eq!(ing.log.records.len(), 1);
        assert_eq!(ing.log.samples.len(), 1);
        assert_eq!(ing.salvage.duplicates_dropped, 2);
        assert_eq!(ing.salvage.errors_by_code[&ErrorCode::DuplicateRecord], 2);
    }

    #[test]
    fn salvage_respects_max_errors() {
        let text = "heapdrag-log v1\nbad 1\nbad 2\nbad 3\nend 10\n";
        let ok = ingest(
            text,
            &ParallelConfig::sequential(),
            &IngestConfig {
                mode: IngestMode::Salvage,
                max_errors: Some(3),
            },
        )
        .expect("within bound");
        assert_eq!(ok.salvage.total_errors(), 3);
        let e = ingest(
            text,
            &ParallelConfig::sequential(),
            &IngestConfig {
                mode: IngestMode::Salvage,
                max_errors: Some(2),
            },
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::TooManyErrors);
    }

    #[test]
    fn salvage_summary_publishes_metrics() {
        let text = "heapdrag-log v1\nobj 1 2 816 16 900 320 0 0 0\nbad 1\n";
        let ing = salvage_seq(text);
        let registry = heapdrag_obs::Registry::new();
        ing.salvage.publish_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["heapdrag_salvage_records_kept_total"], 1);
        assert_eq!(snap.counters["heapdrag_salvage_lines_dropped_total"], 1);
        assert_eq!(
            snap.counters["heapdrag_salvage_errors_total{code=\"E003\"}"],
            1
        );
        assert_eq!(snap.gauges["heapdrag_salvage_end_synthesized"], 1);
        assert_eq!(
            snap.gauges["heapdrag_salvage_input_format{format=\"text\"}"],
            1
        );
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ErrorCode::ALL.len(), 11);
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(code.code(), format!("E{:03}", i + 1), "{code:?}");
        }
        let e = LogError::new(ErrorCode::TornTail, 7, "x".into());
        assert!(e.to_string().contains("[E007]"));
        let e = LogError::new(ErrorCode::FrameChecksum, 3, "x".into());
        assert!(e.to_string().contains("[E011]"));
    }

    /// A synthetic text log big enough to exercise multiple chunks.
    fn big_log(records: usize) -> String {
        let mut text = String::from("heapdrag-log v1\nend 1000000\nchain 0 Main.main@1\n");
        for i in 0..records {
            text.push_str(&format!(
                "obj {} 2 {} {} {} {} 0 {} {}\n",
                i,
                8 + (i % 13) * 8,
                i * 3,
                i * 3 + 500,
                if i % 4 == 0 {
                    "-".to_string()
                } else {
                    (i * 3 + 100).to_string()
                },
                if i % 4 == 0 {
                    "-".to_string()
                } else {
                    "0".to_string()
                },
                i % 2,
            ));
            if i % 50 == 0 {
                text.push_str(&format!("gc {} {} {}\n", i * 3, i * 10, i));
            }
        }
        text
    }

    /// The same synthetic log re-encoded as HDLOG v2 frames, via the
    /// parsed text log (so both encodings carry identical data).
    fn big_log_binary(records: usize) -> Vec<u8> {
        let log = parse(big_log(records)).unwrap();
        let mut buf = Vec::new();
        let mut sink = BinarySink::new(&mut buf);
        sink.begin().unwrap();
        let mut chains: Vec<_> = log.chain_names.keys().copied().collect();
        chains.sort_unstable();
        for c in chains {
            sink.chain(c, &log.chain_names[&c]).unwrap();
        }
        for r in &log.records {
            sink.record(r).unwrap();
        }
        for s in &log.samples {
            sink.sample(s).unwrap();
        }
        sink.end(log.end_time).unwrap();
        buf
    }

    #[test]
    fn sharded_parse_matches_sequential() {
        let text = big_log(500);
        let sequential = parse(&text).unwrap();
        for shards in [1, 2, 8] {
            let par = ParallelConfig {
                shards,
                chunk_records: 64,
            };
            let (sharded, metrics) = ingest(&text, &par, &IngestConfig::strict())
                .map(|i| (i.log, i.metrics))
                .unwrap();
            assert_eq!(sharded, sequential, "shards = {shards}");
            assert_eq!(metrics.total_records(), 500);
            assert!(metrics.shards.len() > 1, "chunked into multiple units");
        }
    }

    #[test]
    fn sharded_parse_reports_first_error_line() {
        // Two malformed lines; every shard count must report the earlier
        // one, exactly like the sequential scan.
        let mut text = big_log(200);
        let mut lines: Vec<&str> = text.lines().collect();
        let bad_early = "obj 7 nonsense";
        let bad_late = "what 1";
        lines[40] = bad_early; // 1-based line 41
        lines[150] = bad_late;
        text = lines.join("\n");
        text.push('\n');
        for shards in [1, 2, 8] {
            let par = ParallelConfig {
                shards,
                chunk_records: 16,
            };
            let e = ingest(&text, &par, &IngestConfig::strict()).unwrap_err();
            assert_eq!(e.line, 41, "shards = {shards}: {e}");
            assert_eq!(e.code, ErrorCode::BadFieldValue, "shards = {shards}");
        }
    }

    #[test]
    fn salvage_is_identical_across_shard_counts() {
        let mut text = big_log(300);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[41] = "obj 9 torn-val";
        lines[99] = "garbage directive";
        text = lines.join("\n"); // also tears the final line
                                 // Chunk indices in errors depend on `chunk_records` (the scan
                                 // decides chunking), so the baseline pins the same chunk size.
        let baseline = ingest(
            &text,
            &ParallelConfig {
                shards: 1,
                chunk_records: 16,
            },
            &IngestConfig::salvage(),
        )
        .expect("salvage succeeds");
        for shards in [2usize, 4, 7] {
            let par = ParallelConfig {
                shards,
                chunk_records: 16,
            };
            let ing = ingest(&text, &par, &IngestConfig::salvage()).expect("salvage succeeds");
            assert_eq!(ing.log, baseline.log, "shards = {shards}");
            assert_eq!(ing.salvage, baseline.salvage, "shards = {shards}");
        }
    }

    #[test]
    fn binary_ingest_matches_text_ingest() {
        let text = big_log(400);
        let binary = big_log_binary(400);
        // The full ≥2x ratio shows on real workload traces (perfbench's
        // `core.codec.text_bytes` against `binary_bytes`); this synthetic
        // log has unrealistically small field values, so just require a
        // solid saving here.
        assert!(
            binary.len() * 4 < text.len() * 3,
            "binary ({}) should be well under 3/4 of the text size ({})",
            binary.len(),
            text.len()
        );
        let from_text = parse(&text).unwrap();
        for shards in [1usize, 4, 7] {
            let par = ParallelConfig {
                shards,
                chunk_records: 32,
            };
            let ing = ingest(&binary, &par, &IngestConfig::strict()).unwrap();
            assert_eq!(ing.log, from_text, "shards = {shards}");
            assert_eq!(ing.salvage.format, LogFormat::Binary);
        }
    }

    #[test]
    fn binary_salvage_is_shard_invariant_and_reports_format() {
        let mut binary = big_log_binary(300);
        let cut = binary.len() * 2 / 3;
        binary.truncate(cut);
        let baseline = ingest(
            &binary,
            &ParallelConfig {
                shards: 1,
                chunk_records: 16,
            },
            &IngestConfig::salvage(),
        )
        .expect("salvage succeeds");
        assert_eq!(baseline.salvage.format, LogFormat::Binary);
        assert!(baseline.salvage.synthesized_end);
        assert!(baseline.salvage.records_kept > 0, "prefix recovered");
        let footer = baseline.salvage.render_footer();
        assert!(footer.contains("input format:       binary"));
        for shards in [2usize, 4, 7] {
            let par = ParallelConfig {
                shards,
                chunk_records: 16,
            };
            let ing = ingest(&binary, &par, &IngestConfig::salvage()).expect("salvage succeeds");
            assert_eq!(ing.log, baseline.log, "shards = {shards}");
            assert_eq!(ing.salvage, baseline.salvage, "shards = {shards}");
        }
    }

    #[test]
    fn binary_strict_reports_first_frame_error() {
        let binary = big_log_binary(100);
        // Corrupt one payload byte somewhere in the middle: strict must
        // fail with the checksum code, salvage must drop exactly one
        // frame.
        let mut corrupt = binary.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let strict = ingest(
            &corrupt,
            &ParallelConfig::sequential(),
            &IngestConfig::strict(),
        );
        let e = strict.unwrap_err();
        assert!(
            matches!(
                e.code,
                ErrorCode::FrameChecksum
                    | ErrorCode::UnknownDirective
                    | ErrorCode::BadFieldValue
                    | ErrorCode::TornTail
                    | ErrorCode::MissingEndMarker
            ),
            "stable code, got {e}"
        );
        let ing = salvage_seq(&corrupt);
        assert!(ing.salvage.total_errors() >= 1);
    }
}
