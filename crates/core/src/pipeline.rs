//! The unified ingestion facade: one builder, every knob, every input
//! shape.
//!
//! [`Pipeline`] carries the format, shard count, and fault policy; its
//! terminals pick the input shape and the result:
//!
//! ```
//! use heapdrag_core::{Pipeline, LogFormat};
//!
//! # fn main() -> Result<(), heapdrag_core::PipelineError> {
//! let log = b"heapdrag-log v1\nend 0\n";
//! // A whole buffer, strict, sequential:
//! let ingested = Pipeline::options().ingest_bytes(log)?;
//! assert_eq!(ingested.log.end_time, 0);
//!
//! // Streaming from any `io::Read`, sharded, salvaging, bounded memory:
//! let (ingested, stats) = Pipeline::options()
//!     .shards(4)
//!     .chunk_records(4096)
//!     .salvage(None)
//!     .ingest_reader(&log[..])?;
//! assert_eq!(stats.bytes_read, log.len() as u64);
//! # let _ = ingested;
//! # Ok(())
//! # }
//! ```
//!
//! Every ingest and analyze terminal runs the one streaming engine in
//! [`crate::stream`], so they all decide scanning, merging, and salvage
//! the same way; they differ only in input shape and in what the merge
//! folds records into:
//!
//! | terminal | input | memory | result |
//! |----------|-------|--------|--------|
//! | [`ingest_bytes`](Pipeline::ingest_bytes) | `impl AsRef<[u8]>` | O(shards × chunk) + records | [`Ingested`] |
//! | [`ingest_reader`](Pipeline::ingest_reader) | `impl io::Read` | O(shards × chunk) + records | ([`Ingested`], [`StreamStats`]) |
//! | [`analyze_reader`](Pipeline::analyze_reader) | `impl io::Read` | O(shards × chunk + groups) | [`StreamReport`] |
//! | [`analyze_records`](Pipeline::analyze_records) | `&[ObjectRecord]` | O(groups) | ([`DragReport`], [`ParallelMetrics`]) |
//! | [`write_to`](Pipeline::write_to) | [`ProfileRun`] | O(1) | bytes written |
//!
//! [`analyze_reader`](Pipeline::analyze_reader) is the fully streaming
//! path: records are folded into the analyzer's per-site partial
//! aggregates as chunks decode and are dropped immediately, so a trace of
//! any length is analyzed without ever materialising its record vector
//! (see [`crate::stream`] for the architecture and
//! `tests/streaming_parity.rs` for the byte-identical-report guarantee).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::time::{Duration, Instant};

use heapdrag_vm::ids::{ChainId, SiteId};
use heapdrag_vm::program::Program;

use crate::analyzer::{accumulate_shard, DragAnalyzer, DragReport, ShardAccum};
use crate::codec::LogFormat;
use crate::engine::DragEngine;
use crate::log::{
    write_run_to, IngestConfig, IngestMode, Ingested, LogError, ParsedLog, SalvageSummary,
};
use crate::parallel::{ParallelConfig, ParallelMetrics, ShardMetrics};
use crate::profiler::ProfileRun;
use crate::record::{ObjectRecord, RetainRecord};
use crate::report::ChainNamer;
use crate::serve::WorkerPool;
use crate::stream::{self, CollectFold, StreamStats};

/// What a [`Pipeline`] terminal can fail with: the reader itself, or the
/// log it carried.
#[derive(Debug)]
pub enum PipelineError {
    /// The underlying [`io::Read`] failed. Only the streaming terminals
    /// produce this.
    Io(io::Error),
    /// The log was malformed (strict) or unsalvageable, with the stable
    /// `E0xx` taxonomy of [`crate::ErrorCode`].
    Log(LogError),
}

impl PipelineError {
    /// The contained [`LogError`], if the failure was a log fault rather
    /// than an I/O fault.
    pub fn as_log(&self) -> Option<&LogError> {
        match self {
            PipelineError::Log(e) => Some(e),
            PipelineError::Io(_) => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "reading log: {e}"),
            PipelineError::Log(e) => e.fmt(f),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Io(e) => Some(e),
            PipelineError::Log(e) => Some(e),
        }
    }
}

impl From<LogError> for PipelineError {
    fn from(e: LogError) -> Self {
        PipelineError::Log(e)
    }
}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// The result of [`Pipeline::analyze_reader`]: the drag report plus
/// everything the record vector used to carry — log-level totals, chain
/// names, salvage accounting, per-stage metrics — without the record
/// vector itself.
#[derive(Debug)]
pub struct StreamReport {
    /// The drag report, byte-identical to analyzing the materialised log.
    pub report: DragReport,
    /// What salvage kept, dropped, and repaired (all-zero under strict).
    pub salvage: SalvageSummary,
    /// Final allocation-clock value (synthesized under salvage when the
    /// end marker was missing).
    pub end_time: u64,
    /// Readable names for the chain ids appearing in the records.
    pub chain_names: HashMap<ChainId, String>,
    /// Object records folded into the report.
    pub records: u64,
    /// Total bytes allocated by those records.
    pub alloc_bytes: u64,
    /// Records still live at exit.
    pub at_exit: u64,
    /// Deep-GC samples folded.
    pub samples: u64,
    /// Retaining-path samples folded.
    pub retains: u64,
    /// Parse-stage instrumentation (one shard entry per chunk).
    pub parse_metrics: ParallelMetrics,
    /// Aggregate-stage instrumentation. The fold runs on the merge thread
    /// concurrently with parsing, so its single shard entry reports the
    /// stream's wall-clock; `merge_elapsed` is the classification and
    /// sorting pass.
    pub analyze_metrics: ParallelMetrics,
    /// Streaming instrumentation (buffer high-water mark, stalls).
    pub stats: StreamStats,
}

impl ChainNamer for StreamReport {
    fn chain_name(&self, chain: ChainId) -> String {
        self.chain_names
            .get(&chain)
            .cloned()
            .unwrap_or_else(|| format!("<chain {}>", chain.0))
    }
}

impl StreamReport {
    /// Publishes the log-level side of the reconciliation surface — the
    /// same `heapdrag_*` names [`ParsedLog::publish_metrics`] emits,
    /// computed from the streamed totals. [`SalvageSummary`],
    /// [`DragReport`], [`ParallelMetrics`], and [`StreamStats`] publish
    /// their own families.
    pub fn publish_metrics(&self, registry: &heapdrag_obs::Registry) {
        registry
            .counter("heapdrag_objects_created_total")
            .add(self.records);
        registry
            .counter("heapdrag_alloc_bytes_total")
            .add(self.alloc_bytes);
        registry
            .counter("heapdrag_objects_reclaimed_total")
            .add(self.records - self.at_exit);
        registry
            .counter("heapdrag_objects_at_exit_total")
            .add(self.at_exit);
        registry
            .counter("heapdrag_deep_gc_samples_total")
            .add(self.samples);
        registry
            .counter("heapdrag_retain_samples_total")
            .add(self.retains);
        registry
            .gauge("heapdrag_end_time_bytes")
            .set(i64::try_from(self.end_time).unwrap_or(i64::MAX));
    }
}

/// The mergeable half of a streamed analysis: the exact-integer per-site
/// partial aggregates plus the log-level context, before classification
/// and sorting. This is what a serve session retains — partials of
/// different sessions merge commutatively (the same [`ShardAccum::merge`]
/// the shard merge uses), which is what makes the fleet report invariant
/// under session arrival order.
#[derive(Debug, Clone)]
pub(crate) struct AnalyzePartials {
    /// Per-site partial aggregates (exact integers, commutative merge).
    pub(crate) accum: ShardAccum,
    /// Object records folded.
    pub(crate) records: u64,
    /// Total bytes allocated by those records.
    pub(crate) alloc_bytes: u64,
    /// Records still live at exit.
    pub(crate) at_exit: u64,
    /// Deep-GC samples folded.
    pub(crate) samples: u64,
    /// Retaining-path samples folded (full records — they merge across
    /// sessions by concatenation, then aggregate at finalize).
    pub(crate) retains: Vec<RetainRecord>,
    /// What salvage kept, dropped, and repaired.
    pub(crate) salvage: SalvageSummary,
    /// Final allocation-clock value.
    pub(crate) end_time: u64,
    /// Chain-name table of this trace.
    pub(crate) chain_names: HashMap<ChainId, String>,
    /// Parse-stage instrumentation.
    pub(crate) parse_metrics: ParallelMetrics,
    /// Streaming instrumentation.
    pub(crate) stats: StreamStats,
}

/// One builder for the whole offline pipeline: configure once, then pick
/// a terminal. See the [module docs](self) for the terminal table.
///
/// The builder is plain data — cheap to clone, reusable across inputs.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    par: ParallelConfig,
    ingest: IngestConfig,
    format: LogFormat,
    analyzer: DragAnalyzer,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            par: ParallelConfig::default(),
            ingest: IngestConfig::strict(),
            format: LogFormat::Text,
            analyzer: DragAnalyzer::new(),
        }
    }
}

impl Pipeline {
    /// Starts a pipeline with the defaults: strict, sequential, text
    /// output format, default analyzer thresholds.
    pub fn options() -> Self {
        Self::default()
    }

    /// Number of decode/aggregate worker shards (0 and 1 both mean
    /// sequential decoding; the streaming terminals still overlap reading
    /// with decoding).
    pub fn shards(mut self, shards: usize) -> Self {
        self.par.shards = shards;
        self
    }

    /// Record-bearing units (text lines or binary frames) per parse
    /// chunk — the work-unit handed to decode workers, and the granularity
    /// of the streaming memory bound.
    pub fn chunk_records(mut self, chunk_records: usize) -> Self {
        self.par.chunk_records = chunk_records;
        self
    }

    /// Switches to salvage mode: drop what cannot be decoded, collapse
    /// duplicates, synthesize a missing end marker, and fail only on an
    /// empty input or when more than `max_errors` faults accumulate
    /// (`None` = unbounded).
    pub fn salvage(mut self, max_errors: Option<u64>) -> Self {
        self.ingest = IngestConfig {
            mode: IngestMode::Salvage,
            max_errors,
        };
        self
    }

    /// Switches (back) to strict mode: the first malformed unit aborts.
    pub fn strict(mut self) -> Self {
        self.ingest = IngestConfig::strict();
        self
    }

    /// Output format for [`write_to`](Self::write_to) (ingestion always
    /// autodetects the input format by magic bytes).
    pub fn format(mut self, format: LogFormat) -> Self {
        self.format = format;
        self
    }

    /// Replaces the analyzer (thresholds) used by the analyze terminals.
    pub fn analyzer(mut self, analyzer: DragAnalyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// The [`ParallelConfig`] this builder resolves to.
    pub fn parallel_config(&self) -> ParallelConfig {
        self.par
    }

    /// The [`IngestConfig`] this builder resolves to.
    pub fn ingest_config(&self) -> IngestConfig {
        self.ingest
    }

    /// Ingests a log held in memory (text or binary, autodetected):
    /// [`ingest_reader`](Self::ingest_reader) over the byte slice, without
    /// the [`StreamStats`].
    ///
    /// # Errors
    ///
    /// As [`ingest_reader`](Self::ingest_reader), except that reading a
    /// slice never fails, so never [`PipelineError::Io`].
    pub fn ingest_bytes(&self, input: impl AsRef<[u8]>) -> Result<Ingested, PipelineError> {
        self.ingest_reader(input.as_ref())
            .map(|(ingested, _)| ingested)
    }

    /// Ingests a log from any reader — a file, stdin, a socket — in
    /// bounded memory, returning the decoded log, its [`SalvageSummary`],
    /// and the [`StreamStats`] of the run. Peak *transit* memory is
    /// O(shards × chunk); the decoded records themselves are retained
    /// (use [`analyze_reader`](Self::analyze_reader) to avoid that too).
    ///
    /// The input format is detected by magic bytes. Under
    /// [`strict`](Self::strict) the first malformed line or frame fails
    /// the ingest; under [`salvage`](Self::salvage) undecodable and torn
    /// units are dropped, exact duplicate records and samples collapse, a
    /// missing end marker is repaired by synthesizing the exit time from
    /// the latest observed event, and everything dropped or repaired is
    /// counted in the summary — [`IngestConfig`] spells out each rule. The
    /// result is identical for every shard count and read geometry.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Io`] if the reader fails. Otherwise a
    /// [`PipelineError::Log`]: under strict, the malformed unit with the
    /// smallest line/frame number (or `E006` for a missing end marker);
    /// under salvage, only `E001` (empty input) or `E008` (more errors
    /// than `max_errors`).
    pub fn ingest_reader<R: io::Read>(
        &self,
        reader: R,
    ) -> Result<(Ingested, StreamStats), PipelineError> {
        let out = stream::run(
            reader,
            &self.par,
            &self.ingest,
            CollectFold::default(),
            WorkerPool::shared(),
        )?;
        let ingested = Ingested {
            log: ParsedLog {
                end_time: out.end_time,
                chain_names: out.chain_names,
                records: out.fold.records,
                samples: out.fold.samples,
                retains: out.fold.retains,
            },
            salvage: out.salvage,
            metrics: out.metrics,
        };
        Ok((ingested, out.stats))
    }

    /// The fully streaming terminal: reads, decodes, and aggregates in one
    /// pass, folding each record into the per-site partial aggregates the
    /// moment its chunk is merged. No record vector ever exists, so peak
    /// memory is O(shards × chunk + distinct sites) regardless of trace
    /// length — with one honest exception: salvage mode keeps a seen-id
    /// set for duplicate collapse, which grows with the kept record count.
    ///
    /// Chain ids in a trace are their own innermost sites, so the default
    /// resolver is the identity; use
    /// [`analyze_reader_with`](Self::analyze_reader_with) to supply a
    /// different one.
    ///
    /// # Errors
    ///
    /// As [`ingest_reader`](Self::ingest_reader).
    pub fn analyze_reader<R: io::Read>(&self, reader: R) -> Result<StreamReport, PipelineError> {
        self.analyze_reader_with(reader, |c| Some(SiteId(c.0)))
    }

    /// [`analyze_reader`](Self::analyze_reader) with an explicit
    /// innermost-site resolver (the fold runs on the calling thread, so
    /// the resolver needs no thread bounds).
    ///
    /// # Errors
    ///
    /// As [`ingest_reader`](Self::ingest_reader).
    pub fn analyze_reader_with<R, F>(
        &self,
        reader: R,
        innermost: F,
    ) -> Result<StreamReport, PipelineError>
    where
        R: io::Read,
        F: Fn(ChainId) -> Option<SiteId>,
    {
        let partials = self.analyze_partials_on(WorkerPool::shared(), reader, innermost)?;
        Ok(self.finalize_partials(partials))
    }

    /// The streaming-analyze front half: fold the whole trace into
    /// per-site partial aggregates (plus everything else the stream
    /// produced), decoding on `pool`, without finalizing a report. The
    /// serve layer runs one of these per session and keeps the partials:
    /// cloned-and-finalized for the per-session report, merged across
    /// sessions for the fleet report.
    pub(crate) fn analyze_partials_on<R, F>(
        &self,
        pool: &WorkerPool,
        reader: R,
        innermost: F,
    ) -> Result<AnalyzePartials, PipelineError>
    where
        R: io::Read,
        F: Fn(ChainId) -> Option<SiteId>,
    {
        let fold = DragEngine::offline(self.analyzer.config().patterns, innermost);
        let out = stream::run(reader, &self.par, &self.ingest, fold, pool)?;
        let (accum, records, alloc_bytes, at_exit, samples, retains) =
            out.fold.into_fold_parts();
        Ok(AnalyzePartials {
            accum,
            records,
            alloc_bytes,
            at_exit,
            samples,
            retains,
            salvage: out.salvage,
            end_time: out.end_time,
            chain_names: out.chain_names,
            parse_metrics: out.metrics,
            stats: out.stats,
        })
    }

    /// The streaming-analyze back half: classify, sort, and package the
    /// partial aggregates into a [`StreamReport`]. `finalize_partials ∘
    /// analyze_partials_on` is exactly `analyze_reader_with`.
    pub(crate) fn finalize_partials(&self, partials: AnalyzePartials) -> StreamReport {
        let finalize_start = Instant::now();
        let groups = partials.accum.group_count();
        let mut report = self.analyzer.finalize(partials.accum);
        report.attach_retains(&partials.retains);
        let finalize_elapsed = finalize_start.elapsed();
        let analyze_metrics = ParallelMetrics {
            shards: vec![ShardMetrics {
                shard: 0,
                records: partials.records,
                samples: partials.samples,
                groups,
                elapsed: partials.parse_metrics.total_elapsed,
            }],
            split_elapsed: Duration::ZERO,
            merge_elapsed: finalize_elapsed,
            total_elapsed: partials.parse_metrics.total_elapsed + finalize_elapsed,
        };
        StreamReport {
            report,
            salvage: partials.salvage,
            end_time: partials.end_time,
            chain_names: partials.chain_names,
            records: partials.records,
            alloc_bytes: partials.alloc_bytes,
            at_exit: partials.at_exit,
            samples: partials.samples,
            retains: partials.retains.len() as u64,
            parse_metrics: partials.parse_metrics,
            analyze_metrics,
            stats: partials.stats,
        }
    }

    /// Analyzes an already-materialised record slice with the builder's
    /// shard count: contiguous shards accumulate as jobs on the shared
    /// [`WorkerPool`], merge deterministically, and classify after the
    /// merge, so the report is byte-identical for every shard count.
    pub fn analyze_records<F>(
        &self,
        records: &[ObjectRecord],
        innermost: F,
    ) -> (DragReport, ParallelMetrics)
    where
        F: Fn(ChainId) -> Option<SiteId> + Sync,
    {
        self.analyzer.analyze_sharded_impl(records, innermost, &self.par)
    }

    /// Sequential analysis of a record slice (resolvers need not be
    /// `Sync`), the same as [`DragAnalyzer::analyze`].
    pub fn analyze_records_seq<F>(&self, records: &[ObjectRecord], innermost: F) -> DragReport
    where
        F: Fn(ChainId) -> Option<SiteId>,
    {
        let accum = accumulate_shard(records, &self.analyzer.config().patterns, &innermost);
        self.analyzer.finalize(accum)
    }

    /// Streams a profiling run to `writer` in the builder's
    /// [`format`](Self::format), returning the bytes written.
    ///
    /// # Errors
    ///
    /// As [`ProfileRun::write_log_to`].
    pub fn write_to<W: io::Write>(
        &self,
        run: &ProfileRun,
        program: &Program,
        writer: W,
    ) -> io::Result<u64> {
        write_run_to(run, program, self.format, writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BinarySink, TextSink, TraceSink};
    use crate::record::GcSample;
    use crate::report::ReportSections;
    use heapdrag_vm::ids::{ClassId, ObjectId};

    fn sample_log(format: LogFormat, end: bool) -> Vec<u8> {
        let records: Vec<ObjectRecord> = (0..40u64)
            .map(|i| ObjectRecord {
                object: ObjectId(i),
                class: ClassId((i % 2) as u32),
                size: 8 + (i % 6) * 16,
                created: i * 100,
                freed: i * 100 + 5_000,
                last_use: (i % 3 != 0).then_some(i * 100 + 2_000),
                alloc_site: ChainId((i % 5) as u32),
                last_use_site: (i % 3 != 0).then_some(ChainId((i % 5) as u32)),
                at_exit: i % 9 == 0,
            })
            .collect();
        let mut buf = Vec::new();
        let write = |sink: &mut dyn TraceSink| {
            sink.begin().unwrap();
            for c in 0..5u32 {
                sink.chain(ChainId(c), &format!("method{c} (file.java:{c})")).unwrap();
            }
            for (i, r) in records.iter().enumerate() {
                sink.record(r).unwrap();
                if i % 8 == 0 {
                    sink.sample(&GcSample {
                        time: (i as u64) * 100,
                        reachable_bytes: 4_000 + i as u64,
                        reachable_count: 40,
                    })
                    .unwrap();
                }
            }
            if end {
                sink.end(123_456).unwrap();
            }
        };
        match format {
            LogFormat::Text => write(&mut TextSink::new(&mut buf)),
            LogFormat::Binary => write(&mut BinarySink::new(&mut buf)),
        }
        buf
    }

    #[test]
    fn analyze_reader_report_matches_materialised_analysis() {
        for format in [LogFormat::Text, LogFormat::Binary] {
            for end in [true, false] {
                let bytes = sample_log(format, end);
                let pipe = Pipeline::options().shards(3).chunk_records(7).salvage(None);
                let ingested = pipe.ingest_bytes(&bytes).unwrap();
                let (expect_report, _) = pipe.analyze_records(&ingested.log.records, |c| {
                    Some(SiteId(c.0))
                });
                let streamed = pipe.analyze_reader(&bytes[..]).unwrap();
                assert_eq!(streamed.report, expect_report, "format {format:?} end {end}");
                assert_eq!(streamed.salvage, ingested.salvage);
                assert_eq!(streamed.end_time, ingested.log.end_time);
                assert_eq!(streamed.records, ingested.log.records.len() as u64);
                assert_eq!(streamed.samples, ingested.log.samples.len() as u64);
                assert_eq!(
                    streamed.alloc_bytes,
                    ingested.log.records.iter().map(|r| r.size).sum::<u64>()
                );
                // The rendered report (the user-facing artifact) must be
                // byte-identical too, chain names included.
                assert_eq!(
                    ReportSections::standard(&streamed.report, &streamed).render(),
                    ReportSections::standard(&expect_report, &ingested.log).render()
                );
            }
        }
    }

    #[test]
    fn strict_error_is_the_same_through_both_terminals() {
        let mut bytes = sample_log(LogFormat::Text, true);
        let insert_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes.splice(insert_at..insert_at, b"garbage line\n".iter().copied());
        let from_bytes = Pipeline::options().ingest_bytes(&bytes).unwrap_err();
        let from_reader = Pipeline::options().ingest_reader(&bytes[..]).unwrap_err();
        let from_analyze = Pipeline::options().analyze_reader(&bytes[..]).unwrap_err();
        let e1 = from_bytes.as_log().expect("log error").clone();
        let e2 = from_reader.as_log().expect("log error").clone();
        let e3 = from_analyze.as_log().expect("log error").clone();
        assert_eq!(e1, e2);
        assert_eq!(e1, e3);
        assert_eq!(e1.line, 2);
    }

    #[test]
    fn builder_is_plain_data() {
        let p = Pipeline::options().shards(8).chunk_records(64).salvage(Some(3));
        assert_eq!(p.parallel_config().shards, 8);
        assert_eq!(p.parallel_config().chunk_records, 64);
        assert!(p.ingest_config().is_salvage());
        assert_eq!(p.ingest_config().max_errors, Some(3));
        let q = p.strict();
        assert!(!q.ingest_config().is_salvage());
    }
}
