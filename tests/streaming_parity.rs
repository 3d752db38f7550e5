//! Streaming-vs-in-memory parity: the bounded-memory streaming pipeline
//! (`Pipeline::analyze_reader` / `Pipeline::ingest_reader`) must produce
//! byte-identical user-facing artifacts — rendered report plus salvage
//! footer — to the in-memory path, for every workload, shard count,
//! trace format, and fault policy; and it must do so whatever the read
//! geometry, including 1-byte and misaligned-chunk readers. Finally, the
//! memory bound itself is asserted: streaming a trace two orders of
//! magnitude larger than the chunk budget must keep
//! `peak_buffered_bytes` under 4 × shards × chunk-bytes.

use std::io::Read;

use heapdrag::core::{LogFormat, Pipeline, ProfileRun, ReportSections};
use heapdrag::obs::Registry;
use heapdrag::vm::{Program, SiteId};
use heapdrag::workloads::workload_by_name;
use heapdrag_testkit::{check, inject, Fault, Rng, StutterReader, TrickleReader};

const WORKLOADS: [&str; 3] = ["jess", "jack", "juru"];
const SHARDS: [usize; 3] = [1, 4, 7];

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("writes");
    buf
}

fn pipe(shards: usize, salvage: bool) -> Pipeline {
    let p = Pipeline::options().shards(shards).chunk_records(64);
    if salvage {
        p.salvage(None)
    } else {
        p
    }
}

/// The user-facing artifact of `heapdrag report`, via the in-memory path.
fn rendered_in_memory(pipe: &Pipeline, bytes: &[u8]) -> String {
    let ingested = pipe.ingest_bytes(bytes).expect("ingests");
    let (report, _) = pipe.analyze_records(&ingested.log.records, |c| Some(SiteId(c.0)));
    let mut sections = ReportSections::standard(&report, &ingested.log);
    if ingested.salvage.salvage {
        sections = sections.salvage_footer(&ingested.salvage);
    }
    sections.render()
}

/// The same artifact via the fully streaming path.
fn rendered_streaming(pipe: &Pipeline, reader: impl Read) -> String {
    let streamed = pipe.analyze_reader(reader).expect("streams");
    let mut sections = ReportSections::standard(&streamed.report, &streamed);
    if streamed.salvage.salvage {
        sections = sections.salvage_footer(&streamed.salvage);
    }
    sections.render()
}

#[test]
fn streaming_report_is_byte_identical_for_every_workload_shard_format_and_mode() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("workload exists");
        let program = w.original();
        let run = profile(&program, name);
        for format in [LogFormat::Text, LogFormat::Binary] {
            let bytes = encode(&run, &program, format);
            for shards in SHARDS {
                for salvage in [false, true] {
                    let pipe = pipe(shards, salvage);
                    let want = rendered_in_memory(&pipe, &bytes);
                    let got = rendered_streaming(&pipe, &bytes[..]);
                    assert_eq!(
                        got, want,
                        "{name}: {format} at {shards} shards (salvage={salvage})"
                    );
                }
            }
        }
    }
}

fn profile(program: &Program, name: &str) -> ProfileRun {
    let w = workload_by_name(name).expect("workload exists");
    heapdrag::core::profile(
        program,
        &(w.default_input)(),
        heapdrag::core::VmConfig::profiling(),
    )
    .unwrap_or_else(|e| panic!("{name} profiles: {e}"))
}

/// A deterministic synthetic text trace small enough that 1-byte reads
/// stay fast, big enough that chunking and sharding engage.
fn synthetic_text_log() -> String {
    let mut text = String::from("heapdrag-log v1\n");
    for c in 0..6 {
        text.push_str(&format!("chain {c} Main.site{c}@{c}\n"));
    }
    for i in 0u64..400 {
        let (last, uchain) = if i.is_multiple_of(5) {
            ("-".to_string(), "-".to_string())
        } else {
            ((i * 5 + 90).to_string(), ((i % 6).to_string()))
        };
        text.push_str(&format!(
            "obj {i} {} {} {} {} {last} {} {uchain} {}\n",
            2 + i % 3,
            8 + (i % 17) * 24,
            i * 5,
            i * 5 + 350 + (i % 7) * 40,
            i % 6,
            u8::from(i.is_multiple_of(9)),
        ));
        if i.is_multiple_of(25) {
            text.push_str(&format!("gc {} {} {}\n", i * 5 + 10, 4000 + i * 11, 40 + i));
        }
    }
    text.push_str("end 2500\n");
    text
}

#[test]
fn pathological_read_geometry_does_not_change_the_report() {
    // The worst read geometries: one byte at a time, and a prime-size
    // cycle that misaligns every chunk — over both formats and both
    // fault policies. The report must not notice.
    let text = synthetic_text_log();
    let w = workload_by_name("juru").expect("workload exists");
    let program = w.original();
    let run = profile(&program, "juru");
    let binary = encode(&run, &program, LogFormat::Binary);
    for bytes in [text.as_bytes(), &binary[..]] {
        for salvage in [false, true] {
            let pipe = pipe(4, salvage);
            let want = rendered_in_memory(&pipe, bytes);
            let trickled = rendered_streaming(&pipe, TrickleReader::new(bytes, 1));
            assert_eq!(trickled, want, "1-byte reads (salvage={salvage})");
            let stuttered = rendered_streaming(&pipe, StutterReader::new(bytes));
            assert_eq!(stuttered, want, "misaligned reads (salvage={salvage})");
        }
    }
}

#[test]
fn corrupted_traces_stream_identically_at_every_shard_count() {
    // Every fault mutator, streamed through a misaligning reader: no
    // panics, and the salvage outcome — ParsedLog, SalvageSummary, the
    // whole `Ingested` — is identical to the in-memory path and invariant
    // across shard counts.
    let clean = synthetic_text_log();
    check("streaming-fault-parity", 48, |rng: &mut Rng| {
        let fault = *rng.choose(&Fault::ALL);
        let (text, _) = inject(&clean, fault, rng);
        let baseline = pipe(1, true).ingest_bytes(text.as_bytes());
        for shards in SHARDS {
            let streamed = pipe(shards, true).ingest_reader(StutterReader::new(text.as_bytes()));
            match (&baseline, &streamed) {
                (Ok(want), Ok((got, _))) => {
                    assert_eq!(got.log, want.log, "{fault:?} at {shards} shards");
                    assert_eq!(got.salvage, want.salvage, "{fault:?} at {shards} shards");
                }
                (Err(want), Err(got)) => {
                    assert_eq!(
                        got.as_log().expect("log error"),
                        want.as_log().expect("log error"),
                        "{fault:?} at {shards} shards"
                    );
                }
                (want, got) => {
                    panic!("{fault:?} at {shards} shards: in-memory {want:?} vs streamed {got:?}")
                }
            }
        }
    });
}

#[test]
fn truncated_traces_recover_a_prefix_through_the_streaming_reader() {
    // Prefix recovery: cutting the trace at any byte and salvaging through
    // the streaming reader keeps exactly a prefix of the clean record
    // sequence (the torn tail unit is dropped, nothing is reordered or
    // invented).
    let clean = synthetic_text_log();
    let clean_records = pipe(1, false)
        .ingest_bytes(clean.as_bytes())
        .expect("clean log ingests")
        .log
        .records;
    check("streaming-prefix-recovery", 32, |rng: &mut Rng| {
        let cut = rng.range_usize(1, clean.len());
        let (ingested, _) = pipe(4, true)
            .ingest_reader(TrickleReader::new(&clean.as_bytes()[..cut], 3))
            .expect("salvage succeeds on a truncated log");
        let got = &ingested.log.records;
        assert!(
            got.len() <= clean_records.len() && clean_records[..got.len()] == got[..],
            "salvaged records must be a prefix of the clean sequence \
             (cut at byte {cut}, kept {})",
            got.len()
        );
    });
}

/// An `io::Read` that synthesizes a text trace on the fly — the input
/// never exists in memory, so the only buffering is the pipeline's own.
struct SyntheticTraceReader {
    pending: Vec<u8>,
    off: usize,
    next_obj: u64,
    bytes_out: u64,
    target: u64,
    done: bool,
}

impl SyntheticTraceReader {
    fn new(target: u64) -> Self {
        let mut header = b"heapdrag-log v1\n".to_vec();
        for c in 0..8 {
            header.extend_from_slice(format!("chain {c} Gen.site{c}@{c}\n").as_bytes());
        }
        SyntheticTraceReader {
            pending: header,
            off: 0,
            next_obj: 0,
            bytes_out: 0,
            target,
            done: false,
        }
    }

    fn refill(&mut self) {
        self.pending.clear();
        self.off = 0;
        if self.bytes_out >= self.target {
            if !self.done {
                self.pending.extend_from_slice(b"end 999999999\n");
                self.done = true;
            }
            return;
        }
        use std::fmt::Write;
        let mut s = String::with_capacity(64 * 1024);
        for _ in 0..1024 {
            let i = self.next_obj;
            self.next_obj += 1;
            let created = i * 13;
            writeln!(
                s,
                "obj {i} {} {} {created} {} {} {} {} 0",
                i % 5,
                8 + (i % 31) * 16,
                created + 400 + (i % 11) * 50,
                created + 100,
                i % 8,
                i % 8,
            )
            .unwrap();
            if i.is_multiple_of(512) {
                writeln!(s, "gc {created} {} {}", i * 9 + 4096, i + 1).unwrap();
            }
        }
        self.pending.extend_from_slice(s.as_bytes());
    }
}

impl Read for SyntheticTraceReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.off == self.pending.len() {
            self.refill();
            if self.pending.is_empty() {
                return Ok(0);
            }
        }
        let n = buf.len().min(self.pending.len() - self.off);
        buf[..n].copy_from_slice(&self.pending[self.off..self.off + n]);
        self.off += n;
        self.bytes_out += n as u64;
        Ok(n)
    }
}

#[test]
fn peak_buffered_bytes_stays_bounded_on_a_64_mib_trace() {
    // The acceptance bound of the streaming engine: a trace of >= 64 MiB
    // (here ~1.3 M records, synthesized on the fly so the input itself is
    // never in memory) must stream with the buffer high-water mark below
    // 4 x shards x chunk-bytes. The fold keeps only per-site aggregates,
    // so this is also the peak footprint of the whole analysis, modulo
    // the distinct-site table.
    const TARGET: u64 = 64 * 1024 * 1024;
    let pipe = Pipeline::options().shards(4).chunk_records(4096);
    let streamed = pipe
        .analyze_reader(SyntheticTraceReader::new(TARGET))
        .expect("synthetic trace streams");
    assert!(
        streamed.stats.bytes_read >= TARGET,
        "trace must be >= 64 MiB, read {}",
        streamed.stats.bytes_read
    );
    assert!(
        streamed.records >= 1_000_000,
        "records folded: {}",
        streamed.records
    );
    let bound = 4 * 4 * streamed.stats.max_chunk_bytes;
    assert!(
        streamed.stats.peak_buffered_bytes < bound,
        "peak {} must stay under 4 x shards x chunk-bytes = {bound}",
        streamed.stats.peak_buffered_bytes
    );

    // The gauges the ISSUE names must carry the numbers out.
    let registry = Registry::new();
    streamed.stats.publish_metrics(&registry);
    let snap = registry.snapshot();
    assert_eq!(
        snap.gauges["heapdrag_ingest_peak_buffered_bytes"],
        i64::try_from(streamed.stats.peak_buffered_bytes).unwrap()
    );
    assert_eq!(
        snap.gauges["heapdrag_ingest_backpressure_stalls"],
        i64::try_from(streamed.stats.backpressure_stalls).unwrap()
    );
    assert_eq!(
        snap.counters["heapdrag_ingest_bytes_total"],
        streamed.stats.bytes_read
    );
}
