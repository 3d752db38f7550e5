//! The ingestion engine behind every [`Pipeline`](crate::pipeline::Pipeline)
//! ingest and analyze terminal.
//!
//! It reads any [`std::io::Read`] — a file, a socket, or a byte slice
//! already in memory — in fixed blocks and keeps peak transit memory at
//! O(shards × chunk):
//!
//! 1. The **coordinator** (the calling thread) reads blocks and feeds an
//!    incremental scanner that cuts the stream at line/frame boundaries,
//!    parses the header, chain table, and end marker in place, and emits
//!    self-contained owned chunks of record-bearing units. Chunk
//!    boundaries depend only on the input and
//!    [`ParallelConfig::chunk_records`], never on the read geometry. The
//!    coordinator does no record decoding: a text record line is found
//!    and classified by its directive in one pass over its bytes and
//!    copied into the chunk as it stands (see [`crate::codec::text`]), a
//!    binary frame is copied without checking its checksum.
//! 2. Each chunk is submitted as an independent decode job to the shared
//!    [`WorkerPool`] — text lines are parsed from their bytes in place,
//!    binary frames verified and decoded — whose threads outlive the call
//!    and are shared by every concurrent ingest in the process. The
//!    coordinator caps chunks in flight (dispatched but not yet merged)
//!    at `2 × shards`, blocking on results when the budget is full, so a
//!    slow consumer exerts backpressure on the reader instead of growing
//!    a queue. Stalls and the high-water mark of buffered bytes are
//!    reported in [`StreamStats`].
//! 3. The coordinator **merges** decode results strictly in chunk-index
//!    order (reordering out-of-order completions in a window the
//!    in-flight cap keeps bounded) and folds records into the caller's
//!    fold — either a record collector (ingest) or the analyzer's partial
//!    aggregates (streaming analyze, which never materialises the record
//!    vector at all). A decode job that panics loses only its chunk
//!    (`E010`).
//!
//! Because chunk boundaries are input-determined, the merge runs in input
//! order, and salvage's duplicate collapse happens at that ordered merge,
//! the result is byte-identical for every shard count, pool size, and
//! read geometry, in both formats, strict and salvage —
//! `tests/streaming_parity.rs` holds that across every workload.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

use heapdrag_vm::ids::{ChainId, ObjectId};

use crate::codec::{self, ChunkOut, LogFormat, OwnedChunk, StreamScanState};
use crate::log::{ErrorCode, IngestConfig, LogError, SalvageSummary, FIRST_ERRORS_CAP};
use crate::parallel::{ParallelConfig, ParallelMetrics, ShardMetrics};
use crate::pipeline::PipelineError;
use crate::record::{GcSample, ObjectRecord, RetainRecord};
use crate::serve::WorkerPool;

/// How many bytes the coordinator reads per `read()` call — also the
/// slack term of the memory bound, since the scanner may carry up to one
/// block (plus one incomplete unit) between chunk cuts.
pub const READ_BLOCK: usize = 256 * 1024;

/// Instrumentation of one streaming ingest: how hard the bounded-memory
/// machinery worked. Published as `heapdrag_ingest_*` metrics by
/// [`StreamStats::publish_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// High-water mark of bytes buffered by the pipeline at once: chunks
    /// in flight (dispatched to decode workers but not yet merged) plus
    /// the scanner's own carry. Bounded by roughly `2 × shards` chunks
    /// plus one incomplete unit — the bound `tests/streaming_parity.rs`
    /// asserts against a trace far larger than it.
    pub peak_buffered_bytes: u64,
    /// Times the reader had to wait because the full budget of in-flight
    /// chunks was already decoding — the backpressure at work.
    pub backpressure_stalls: u64,
    /// Total bytes read from the input.
    pub bytes_read: u64,
    /// The largest single chunk, in input bytes.
    pub max_chunk_bytes: u64,
    /// Chunks dispatched to decode workers.
    pub chunks: u64,
}

impl StreamStats {
    /// Publishes the stats as `heapdrag_ingest_*` metrics: the buffer
    /// high-water mark and stall count as high-water gauges, bytes and
    /// chunks as counters.
    pub fn publish_metrics(&self, registry: &heapdrag_obs::Registry) {
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        registry
            .gauge("heapdrag_ingest_peak_buffered_bytes")
            .set_max(clamp(self.peak_buffered_bytes));
        registry
            .gauge("heapdrag_ingest_backpressure_stalls")
            .set_max(clamp(self.backpressure_stalls));
        registry
            .counter("heapdrag_ingest_bytes_total")
            .add(self.bytes_read);
        registry
            .counter("heapdrag_ingest_chunks_total")
            .add(self.chunks);
    }
}

/// The in-flight-chunk budget of one streaming ingest at `shards` decode
/// shards: how many chunks may be dispatched-but-unmerged at once. This
/// is both the streaming memory bound (peak transit bytes ≈ this many
/// chunks) and the admission-control currency of the serve layer, which
/// charges each session exactly this many budget units.
pub(crate) fn flight_cap(shards: usize) -> usize {
    (2 * shards.max(1)).max(2)
}

/// Where the merge folds kept records and samples, in input order.
/// Implemented by the record collector (streaming ingest) and the
/// analyzer fold (streaming analyze). The fold runs on the coordinating
/// thread (the caller of [`run`]), never on pool workers.
pub(crate) trait StreamFold {
    /// Folds one kept object record (salvage duplicates never arrive).
    fn record(&mut self, r: ObjectRecord);
    /// Folds one kept deep-GC sample.
    fn sample(&mut self, s: GcSample);
    /// Folds one kept retaining-path sample. Default: ignore (folds that
    /// predate retain sampling keep working unchanged).
    fn retain(&mut self, r: RetainRecord) {
        let _ = r;
    }
}

/// Everything a streaming ingest produced besides the fold itself.
pub(crate) struct StreamedLog<F> {
    /// The caller's fold, now holding the records or aggregates.
    pub(crate) fold: F,
    /// Final allocation-clock value (synthesized under salvage when the
    /// end marker was missing).
    pub(crate) end_time: u64,
    /// Chain-name table.
    pub(crate) chain_names: HashMap<ChainId, String>,
    /// What salvage kept, dropped, and repaired.
    pub(crate) salvage: SalvageSummary,
    /// Parse-stage instrumentation (one [`ShardMetrics`] per chunk).
    pub(crate) metrics: ParallelMetrics,
    /// Streaming instrumentation.
    pub(crate) stats: StreamStats,
}

/// A decode result; `out` is `None` when the decode job panicked on this
/// chunk (degraded to a per-chunk `E010` by the merge).
struct WorkDone {
    index: usize,
    units: usize,
    first: (usize, u64),
    bytes: u64,
    out: Option<(ChunkOut, ShardMetrics)>,
}

/// The merge's running state: chunk-order error collection, salvage
/// accounting, duplicate collapse (in input order, hence shard-invariant),
/// and the fold itself.
struct Merger<F> {
    fold: F,
    salvage: bool,
    errors: Vec<LogError>,
    shard_metrics: Vec<ShardMetrics>,
    units_dropped: u64,
    bytes_skipped: u64,
    duplicates_dropped: u64,
    records_kept: u64,
    samples_kept: u64,
    retains_kept: u64,
    /// Latest `freed`/sample time over kept events, for end-time
    /// synthesis.
    max_event: Option<u64>,
    seen_objects: HashSet<ObjectId>,
    seen_samples: HashSet<(u64, u64, u64)>,
}

impl<F: StreamFold> Merger<F> {
    fn new(fold: F, salvage: bool) -> Self {
        Merger {
            fold,
            salvage,
            errors: Vec::new(),
            shard_metrics: Vec::new(),
            units_dropped: 0,
            bytes_skipped: 0,
            duplicates_dropped: 0,
            records_kept: 0,
            samples_kept: 0,
            retains_kept: 0,
            max_event: None,
            seen_objects: HashSet::new(),
            seen_samples: HashSet::new(),
        }
    }

    /// Consumes one chunk's result; must be called in chunk-index order.
    fn consume(&mut self, done: WorkDone) {
        let Some((out, m)) = done.out else {
            self.errors.push(LogError {
                code: ErrorCode::WorkerLost,
                line: done.first.0,
                byte: done.first.1,
                chunk: Some(done.index),
                message: format!(
                    "parse worker panicked; chunk {} ({} units) lost",
                    done.index, done.units
                ),
            });
            if self.salvage {
                self.units_dropped += done.units as u64;
                self.bytes_skipped += done.bytes;
            }
            return;
        };
        self.shard_metrics.push(m);
        self.errors.extend(out.errors);
        self.units_dropped += out.units_dropped;
        self.bytes_skipped += out.bytes_skipped;
        for r in out.records {
            if self.salvage {
                if !self.seen_objects.insert(r.object) {
                    self.duplicates_dropped += 1;
                    continue;
                }
                self.max_event = Some(self.max_event.map_or(r.freed, |m| m.max(r.freed)));
            }
            self.records_kept += 1;
            self.fold.record(r);
        }
        for s in out.samples {
            if self.salvage {
                if !self
                    .seen_samples
                    .insert((s.time, s.reachable_bytes, s.reachable_count))
                {
                    self.duplicates_dropped += 1;
                    continue;
                }
                self.max_event = Some(self.max_event.map_or(s.time, |m| m.max(s.time)));
            }
            self.samples_kept += 1;
            self.fold.sample(s);
        }
        for r in out.retains {
            if self.salvage {
                // Retain samples are *not* deduplicated: unlike object
                // records (identified by id) and deep-GC samples
                // (identified by their census), a retain sample carries no
                // identity — multiplicity is its weight. Ten identical
                // elements sampled at one census are ten legitimate
                // samples, and collapsing them would skew every per-path
                // weight and break the on-line/off-line
                // `heapdrag_retain_samples_total` reconciliation.
                self.max_event = Some(self.max_event.map_or(r.time, |m| m.max(r.time)));
            }
            self.retains_kept += 1;
            self.fold.retain(r);
        }
    }
}

/// The codec-dispatching wrapper over the two incremental scanners.
enum Scanner {
    Text(codec::text::StreamScanner),
    Binary(codec::binary::StreamScanner),
}

impl Scanner {
    fn new(format: LogFormat, salvage: bool, chunk_records: usize) -> Self {
        match format {
            LogFormat::Text => {
                Scanner::Text(codec::text::StreamScanner::new(salvage, chunk_records))
            }
            LogFormat::Binary => {
                Scanner::Binary(codec::binary::StreamScanner::new(salvage, chunk_records))
            }
        }
    }

    fn feed(&mut self, data: &[u8], out: &mut Vec<OwnedChunk>) {
        match self {
            Scanner::Text(s) => s.feed(data, out),
            Scanner::Binary(s) => s.feed(data, out),
        }
    }

    fn finish(&mut self, out: &mut Vec<OwnedChunk>) {
        match self {
            Scanner::Text(s) => s.finish(out),
            Scanner::Binary(s) => s.finish(out),
        }
    }

    fn buffered_bytes(&self) -> u64 {
        match self {
            Scanner::Text(s) => s.buffered_bytes(),
            Scanner::Binary(s) => s.buffered_bytes(),
        }
    }

    fn aborted(&self) -> bool {
        match self {
            Scanner::Text(s) => s.state.aborted,
            Scanner::Binary(s) => s.state.aborted,
        }
    }

    fn into_state(self) -> StreamScanState {
        match self {
            Scanner::Text(s) => s.state,
            Scanner::Binary(s) => s.state,
        }
    }
}

/// The coordinator's dispatch-and-merge state: chunks go out to the pool,
/// results come back over a channel and are merged in index order. The
/// in-flight count (dispatched − merged) is capped, which bounds both the
/// transit bytes and the reorder window — the role the old per-run gate
/// played, now without any dedicated threads.
struct Engine<'p, F> {
    merger: Merger<F>,
    pool: &'p WorkerPool,
    done_tx: mpsc::Sender<WorkDone>,
    done_rx: mpsc::Receiver<WorkDone>,
    /// Out-of-order completions parked until their index is next.
    window: BTreeMap<usize, WorkDone>,
    /// Next chunk index to dispatch.
    index: usize,
    /// Next chunk index to merge.
    next: usize,
    in_flight: usize,
    in_flight_bytes: u64,
    cap: usize,
    salvage: bool,
    stats: StreamStats,
}

impl<F: StreamFold> Engine<'_, F> {
    fn new(pool: &WorkerPool, cap: usize, fold: F, salvage: bool) -> Engine<'_, F> {
        let (done_tx, done_rx) = mpsc::channel();
        Engine {
            merger: Merger::new(fold, salvage),
            pool,
            done_tx,
            done_rx,
            window: BTreeMap::new(),
            index: 0,
            next: 0,
            in_flight: 0,
            in_flight_bytes: 0,
            cap,
            salvage,
            stats: StreamStats::default(),
        }
    }

    /// Accounts one completed decode and merges every now-contiguous
    /// result. Each merged chunk releases its in-flight slot — release
    /// happens at merge, not at decode completion, so the cap also bounds
    /// the reorder window and the memory bound stays airtight.
    fn accept(&mut self, done: WorkDone) {
        self.window.insert(done.index, done);
        while let Some(d) = self.window.remove(&self.next) {
            self.in_flight -= 1;
            self.in_flight_bytes -= d.bytes;
            self.merger.consume(d);
            self.next += 1;
        }
    }

    fn note_peak(&mut self, scanner_buffered: u64) {
        let current = self.in_flight_bytes + scanner_buffered;
        self.stats.peak_buffered_bytes = self.stats.peak_buffered_bytes.max(current);
    }

    /// Submits every pending chunk to the pool, blocking on completed
    /// results whenever the in-flight budget is full.
    fn dispatch(&mut self, pending: &mut Vec<OwnedChunk>, scanner_buffered: u64) {
        for chunk in pending.drain(..) {
            let bytes = chunk.byte_len();
            self.stats.max_chunk_bytes = self.stats.max_chunk_bytes.max(bytes);
            self.stats.chunks += 1;
            if self.in_flight >= self.cap {
                self.stats.backpressure_stalls += 1;
                while self.in_flight >= self.cap {
                    let done = self.recv();
                    self.accept(done);
                }
            }
            self.in_flight += 1;
            self.in_flight_bytes += bytes;
            self.note_peak(scanner_buffered);
            let index = self.index;
            self.index += 1;
            let units = chunk.len();
            let first = chunk.first_position();
            let salvage = self.salvage;
            let tx = self.done_tx.clone();
            self.pool.execute(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(|| chunk.decode(index, salvage))).ok();
                let _ = tx.send(WorkDone {
                    index,
                    units,
                    first,
                    bytes,
                    out,
                });
            }));
        }
    }

    /// Blocks until every dispatched chunk has been merged.
    fn drain(&mut self) {
        while self.in_flight > 0 {
            let done = self.recv();
            self.accept(done);
        }
    }

    fn recv(&self) -> WorkDone {
        // Every dispatched job sends exactly one result, even when the
        // decode panics (the send is outside the catch) and even when the
        // pool is shut down mid-run (post-shutdown submissions run inline
        // on this thread) — so this cannot block forever.
        self.done_rx
            .recv()
            .expect("decode job vanished without a result")
    }
}

/// Reads one block, retrying on `Interrupted`; 0 means end-of-input.
fn read_block<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize, PipelineError> {
    loop {
        match reader.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(PipelineError::Io(e)),
        }
    }
}

/// The ingestion engine: reads `reader` once in bounded blocks, decodes
/// chunks as jobs on `pool`, and folds kept records/samples into `fold`
/// in input order on the calling thread. The strict/salvage semantics
/// (errors, salvage summary, kept set, end-time synthesis) are those
/// documented on [`IngestConfig`], for any pool size.
pub(crate) fn run<R: Read, F: StreamFold>(
    mut reader: R,
    par: &ParallelConfig,
    ingest: &IngestConfig,
    fold: F,
    pool: &WorkerPool,
) -> Result<StreamedLog<F>, PipelineError> {
    let start = Instant::now();
    let salvage = ingest.is_salvage();
    let chunk_records = par.effective_chunk();

    // Prime the stream far enough to detect the format by magic bytes.
    let mut block = vec![0u8; READ_BLOCK];
    let mut head: Vec<u8> = Vec::new();
    let mut eof = false;
    while head.len() < codec::binary::MAGIC.len() && !eof {
        let n = read_block(&mut reader, &mut block)?;
        if n == 0 {
            eof = true;
        } else {
            head.extend_from_slice(&block[..n]);
        }
    }
    if head.is_empty() {
        return Err(LogError::new(ErrorCode::EmptyLog, 1, "empty log".into()).into());
    }
    let format = LogFormat::detect(&head);
    let mut scanner = Scanner::new(format, salvage, chunk_records);

    let mut bytes_read = head.len() as u64;
    let mut engine = Engine::new(pool, flight_cap(par.shards), fold, salvage);

    // The coordinator loop: read, scan, dispatch, merge what's ready,
    // repeat. A strict-mode scan abort stops the reading early; chunks
    // already cut are still decoded so the smallest line number wins
    // below.
    let split_start = Instant::now();
    let io_result = {
        let engine = &mut engine;
        let scanner = &mut scanner;
        let mut coordinate = || -> Result<(), PipelineError> {
            let mut pending: Vec<OwnedChunk> = Vec::new();
            scanner.feed(&head, &mut pending);
            engine.dispatch(&mut pending, scanner.buffered_bytes());
            while !scanner.aborted() {
                let n = read_block(&mut reader, &mut block)?;
                if n == 0 {
                    break;
                }
                bytes_read += n as u64;
                scanner.feed(&block[..n], &mut pending);
                engine.dispatch(&mut pending, scanner.buffered_bytes());
                engine.note_peak(scanner.buffered_bytes());
            }
            scanner.finish(&mut pending);
            engine.dispatch(&mut pending, scanner.buffered_bytes());
            Ok(())
        };
        coordinate()
    };
    let read_elapsed = split_start.elapsed();
    // Merge every outstanding chunk even on a read error — decode jobs
    // own their data and will send regardless; leaving them unmerged
    // would leak nothing but would leave results racing a dropped
    // receiver for no benefit.
    engine.drain();
    io_result?;
    let mut stats = engine.stats;
    stats.bytes_read = bytes_read;
    let merger = engine.merger;

    // Final assembly: the first error wins under strict; salvage tallies
    // the error histogram, synthesizes a missing end, and checks the
    // error budget.
    let merge_start = Instant::now();
    let StreamScanState {
        chain_names,
        end_time,
        saw_end,
        errors: scan_errors,
        units_dropped,
        bytes_skipped,
        next_position,
        ..
    } = scanner.into_state();

    let mut metrics = ParallelMetrics {
        shards: merger.shard_metrics,
        split_elapsed: read_elapsed,
        ..ParallelMetrics::default()
    };
    let mut summary = SalvageSummary {
        salvage,
        format,
        lines_dropped: units_dropped + merger.units_dropped,
        bytes_skipped: bytes_skipped + merger.bytes_skipped,
        duplicates_dropped: merger.duplicates_dropped,
        ..SalvageSummary::default()
    };
    let mut all_errors = scan_errors;
    all_errors.extend(merger.errors);
    // The smallest line/frame number wins, wherever the error was found.
    all_errors.sort_by_key(|e| e.line);

    let mut end_time = end_time;
    if !salvage {
        if let Some(e) = all_errors.into_iter().next() {
            return Err(e.into());
        }
        if !saw_end {
            return Err(LogError {
                code: ErrorCode::MissingEndMarker,
                line: next_position.0,
                byte: next_position.1,
                chunk: None,
                message: "no `end` marker — log truncated?".into(),
            }
            .into());
        }
    } else {
        if !saw_end {
            summary.synthesized_end = true;
            all_errors.push(LogError {
                code: ErrorCode::MissingEndMarker,
                line: next_position.0,
                byte: next_position.1,
                chunk: None,
                message: "no `end` marker — synthesizing exit time".into(),
            });
            end_time = merger.max_event.unwrap_or(0);
        }
        for e in &all_errors {
            *summary.errors_by_code.entry(e.code).or_insert(0) += 1;
        }
        if summary.duplicates_dropped > 0 {
            *summary
                .errors_by_code
                .entry(ErrorCode::DuplicateRecord)
                .or_insert(0) += summary.duplicates_dropped;
        }
        summary.first_errors = all_errors.iter().take(FIRST_ERRORS_CAP).cloned().collect();
        if let Some(max) = ingest.max_errors {
            let total = summary.total_errors();
            if total > max {
                return Err(LogError::new(
                    ErrorCode::TooManyErrors,
                    0,
                    format!("salvage found {total} errors, exceeding the bound of {max}"),
                )
                .into());
            }
        }
    }
    summary.records_kept = merger.records_kept;
    summary.samples_kept = merger.samples_kept;
    summary.retains_kept = merger.retains_kept;
    metrics.merge_elapsed = merge_start.elapsed();
    metrics.total_elapsed = start.elapsed();

    Ok(StreamedLog {
        fold: merger.fold,
        end_time,
        chain_names,
        salvage: summary,
        metrics,
        stats,
    })
}

/// The ingest fold: collects records and samples, in input order, into
/// the contents of a [`crate::ParsedLog`].
#[derive(Debug, Default)]
pub(crate) struct CollectFold {
    pub(crate) records: Vec<ObjectRecord>,
    pub(crate) samples: Vec<GcSample>,
    pub(crate) retains: Vec<RetainRecord>,
}

impl StreamFold for CollectFold {
    fn record(&mut self, r: ObjectRecord) {
        self.records.push(r);
    }

    fn sample(&mut self, s: GcSample) {
        self.samples.push(s);
    }

    fn retain(&mut self, r: RetainRecord) {
        self.retains.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BinarySink, TextSink, TraceSink};
    use crate::log::IngestConfig;
    use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

    /// A reader that hands out at most `max` bytes per `read()` call —
    /// the pathological case for boundary handling.
    struct TrickleReader<'a> {
        data: &'a [u8],
        pos: usize,
        max: usize,
    }

    impl<'a> Read for TrickleReader<'a> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos).min(self.max).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn sample_records(n: u64) -> (Vec<ObjectRecord>, Vec<GcSample>) {
        let records: Vec<ObjectRecord> = (0..n)
            .map(|i| ObjectRecord {
                object: ObjectId(i),
                class: ClassId((i % 3) as u32),
                size: 16 + (i % 5) * 8,
                created: i * 10,
                freed: i * 10 + 100,
                last_use: (i % 4 != 0).then_some(i * 10 + 40),
                alloc_site: ChainId((i % 4) as u32),
                last_use_site: (i % 2 == 0).then_some(ChainId((i % 4) as u32)),
                at_exit: i % 7 == 0,
            })
            .collect();
        let samples: Vec<GcSample> = (0..n / 4)
            .map(|i| GcSample {
                time: i * 40,
                reachable_bytes: 1000 + i * 3,
                reachable_count: 10 + i,
            })
            .collect();
        (records, samples)
    }

    fn encode(
        format: LogFormat,
        records: &[ObjectRecord],
        samples: &[GcSample],
        end: bool,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        let write = |sink: &mut dyn TraceSink| {
            sink.begin().unwrap();
            for c in 0..4u32 {
                sink.chain(ChainId(c), &format!("site {c}")).unwrap();
            }
            for (i, r) in records.iter().enumerate() {
                sink.record(r).unwrap();
                if i % 4 == 3 {
                    if let Some(s) = samples.get(i / 4) {
                        sink.sample(s).unwrap();
                    }
                }
            }
            if end {
                sink.end(99_999).unwrap();
            }
        };
        match format {
            LogFormat::Text => {
                let mut sink = TextSink::new(&mut buf);
                write(&mut sink);
            }
            LogFormat::Binary => {
                let mut sink = BinarySink::new(&mut buf);
                write(&mut sink);
            }
        }
        buf
    }

    /// Holds trickle reads of 1, 7 and 4096 bytes at 1, 4 and 7 shards
    /// against one whole-slice read at `shards = 1`, for every chunk size:
    /// the read geometry and the shard count must never change the result.
    fn assert_stream_matches_ingest(bytes: &[u8], ingest: IngestConfig) {
        for chunk_records in [1usize, 7, 8192] {
            let whole = ParallelConfig {
                chunk_records,
                ..ParallelConfig::sequential()
            };
            let baseline = run(
                bytes,
                &whole,
                &ingest,
                CollectFold::default(),
                WorkerPool::shared(),
            );
            for shards in [1usize, 4, 7] {
                let par = ParallelConfig {
                    shards,
                    chunk_records,
                };
                for max_read in [1usize, 7, 4096] {
                    let reader = TrickleReader {
                        data: bytes,
                        pos: 0,
                        max: max_read,
                    };
                    let streamed = run(
                        reader,
                        &par,
                        &ingest,
                        CollectFold::default(),
                        WorkerPool::shared(),
                    );
                    let ctx = format!(
                        "shards={shards} chunk_records={chunk_records} max_read={max_read}"
                    );
                    match (&baseline, streamed) {
                        (Ok(want), Ok(out)) => {
                            assert_eq!(out.fold.records, want.fold.records, "{ctx}");
                            assert_eq!(out.fold.samples, want.fold.samples, "{ctx}");
                            assert_eq!(out.fold.retains, want.fold.retains, "{ctx}");
                            assert_eq!(out.end_time, want.end_time, "{ctx}");
                            assert_eq!(out.chain_names, want.chain_names, "{ctx}");
                            assert_eq!(out.salvage, want.salvage, "{ctx}");
                            assert_eq!(out.stats.bytes_read, bytes.len() as u64, "{ctx}");
                        }
                        (Err(PipelineError::Log(be)), Err(PipelineError::Log(se))) => {
                            assert_eq!(&se, be, "{ctx}");
                        }
                        (b, s) => panic!(
                            "{ctx}: whole read ok={} vs trickle read ok={}",
                            b.is_ok(),
                            s.is_ok()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn trickle_reads_match_a_whole_read_on_clean_logs() {
        let (records, samples) = sample_records(50);
        for format in [LogFormat::Text, LogFormat::Binary] {
            let bytes = encode(format, &records, &samples, true);
            assert_stream_matches_ingest(&bytes, IngestConfig::strict());
            assert_stream_matches_ingest(&bytes, IngestConfig::salvage());
        }
    }

    #[test]
    fn trickle_reads_match_a_whole_read_on_torn_logs() {
        let (records, samples) = sample_records(30);
        for format in [LogFormat::Text, LogFormat::Binary] {
            let whole = encode(format, &records, &samples, false);
            for cut in [whole.len(), whole.len() - 3, whole.len() / 2, 9] {
                let bytes = &whole[..cut];
                assert_stream_matches_ingest(bytes, IngestConfig::strict());
                assert_stream_matches_ingest(bytes, IngestConfig::salvage());
            }
        }
    }

    #[test]
    fn trickle_reads_match_a_whole_read_on_duplicates_and_garbage() {
        let (records, samples) = sample_records(12);
        // Text: duplicate a record line, interleave garbage directives.
        let text = String::from_utf8(encode(LogFormat::Text, &records, &samples, true)).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let obj_line = *lines.iter().find(|l| l.starts_with("obj ")).unwrap();
        lines.insert(6, obj_line);
        lines.insert(3, "wat 1 2 3");
        lines.insert(9, "obj not-a-number");
        let mutated = lines.join("\n") + "\n";
        assert_stream_matches_ingest(mutated.as_bytes(), IngestConfig::salvage());
        assert_stream_matches_ingest(mutated.as_bytes(), IngestConfig::strict());
        // Salvage error budget: the same E008 for every read geometry.
        let bounded = IngestConfig {
            mode: crate::log::IngestMode::Salvage,
            max_errors: Some(1),
        };
        assert_stream_matches_ingest(mutated.as_bytes(), bounded);
        // Binary: flip a byte mid-frame (checksum error on one frame).
        let mut bin = encode(LogFormat::Binary, &records, &samples, true);
        let mid = bin.len() / 2;
        bin[mid] ^= 0x5a;
        assert_stream_matches_ingest(&bin, IngestConfig::salvage());
        assert_stream_matches_ingest(&bin, IngestConfig::strict());
    }

    #[test]
    fn empty_input_is_e001() {
        let r = TrickleReader {
            data: b"",
            pos: 0,
            max: 1,
        };
        let err = run(
            r,
            &ParallelConfig::default(),
            &IngestConfig::strict(),
            CollectFold::default(),
            WorkerPool::shared(),
        )
        .err()
        .expect("empty input must fail");
        match err {
            PipelineError::Log(e) => assert_eq!(e.code, ErrorCode::EmptyLog),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reader_errors_surface_as_io() {
        struct FailingReader {
            served: usize,
        }
        impl Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served == 0 {
                    self.served = 1;
                    let header = b"heapdrag-log v1\n";
                    buf[..header.len()].copy_from_slice(header);
                    Ok(header.len())
                } else {
                    Err(std::io::Error::other("disk on fire"))
                }
            }
        }
        let err = run(
            FailingReader { served: 0 },
            &ParallelConfig::default(),
            &IngestConfig::salvage(),
            CollectFold::default(),
            WorkerPool::shared(),
        )
        .err()
        .expect("io error must surface");
        match err {
            PipelineError::Io(e) => assert_eq!(e.to_string(), "disk on fire"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn merge_degrades_a_lost_chunk_to_e010() {
        // The envelope of a chunk whose decode panicked arrives with
        // `out: None`; the merge must degrade it to a per-chunk E010 and
        // keep going — the exact path a pool-worker panic takes.
        let mut merger = Merger::new(CollectFold::default(), true);
        merger.consume(WorkDone {
            index: 0,
            units: 5,
            first: (3, 120),
            bytes: 400,
            out: None,
        });
        assert_eq!(merger.errors.len(), 1);
        assert_eq!(merger.errors[0].code, ErrorCode::WorkerLost);
        assert_eq!(merger.errors[0].line, 3);
        assert_eq!(merger.errors[0].chunk, Some(0));
        assert_eq!(merger.units_dropped, 5);
        assert_eq!(merger.bytes_skipped, 400);
        // Subsequent chunks still merge normally.
        let (records, samples) = sample_records(4);
        merger.consume(WorkDone {
            index: 1,
            units: 4,
            first: (8, 520),
            bytes: 300,
            out: Some((
                ChunkOut {
                    records,
                    samples,
                    retains: Vec::new(),
                    errors: Vec::new(),
                    units_dropped: 0,
                    bytes_skipped: 0,
                },
                ShardMetrics::default(),
            )),
        });
        assert_eq!(merger.records_kept, 4);
        assert_eq!(merger.errors.len(), 1, "the lost chunk stays one error");
    }

    #[test]
    fn pool_size_does_not_change_the_result() {
        // The same trace through pools of 1, 2, and 5 workers must yield
        // identical folds — ordering comes from the merge window, not
        // from worker count.
        let (records, samples) = sample_records(80);
        let bytes = encode(LogFormat::Text, &records, &samples, true);
        let par = ParallelConfig {
            shards: 4,
            chunk_records: 8,
        };
        let mut outputs = Vec::new();
        for workers in [1usize, 2, 5] {
            let pool = WorkerPool::new(workers);
            let out = run(
                std::io::Cursor::new(&bytes),
                &par,
                &IngestConfig::salvage(),
                CollectFold::default(),
                &pool,
            )
            .expect("clean log");
            outputs.push((out.fold.records, out.fold.samples, out.end_time));
            pool.shutdown();
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn backpressure_bounds_buffered_bytes() {
        // A slow fold forces the in-flight budget to fill; the peak must
        // stay within the budget plus one unit of scanner carry.
        struct SlowFold(CollectFold);
        impl StreamFold for SlowFold {
            fn record(&mut self, r: ObjectRecord) {
                std::thread::sleep(std::time::Duration::from_micros(50));
                self.0.record(r);
            }
            fn sample(&mut self, s: GcSample) {
                self.0.sample(s);
            }
        }
        let (records, samples) = sample_records(600);
        let bytes = encode(LogFormat::Text, &records, &samples, true);
        let par = ParallelConfig {
            shards: 2,
            chunk_records: 8,
        };
        let out = run(
            std::io::Cursor::new(&bytes),
            &par,
            &IngestConfig::strict(),
            SlowFold(CollectFold::default()),
            WorkerPool::shared(),
        )
        .expect("clean log");
        assert_eq!(out.fold.0.records.len(), records.len());
        let cap = 2 * par.shards as u64 + 2;
        assert!(
            out.stats.peak_buffered_bytes <= cap * out.stats.max_chunk_bytes + READ_BLOCK as u64,
            "peak {} vs cap {} chunks of max {}",
            out.stats.peak_buffered_bytes,
            cap,
            out.stats.max_chunk_bytes
        );
        assert!(
            out.stats.backpressure_stalls > 0,
            "slow fold must stall the reader"
        );
        assert_eq!(out.stats.bytes_read, bytes.len() as u64);
    }
}
