//! Fault-injection property suite for salvage ingestion of HDLOG v2
//! binary logs — the binary twin of `salvage_props.rs`.
//!
//! Each property runs 256 seeded cases per fault kind (replayable with
//! `TESTKIT_SEED`/`TESTKIT_CASES`), corrupting a synthetic binary log
//! with the `heapdrag-testkit` frame-level mutators and asserting the
//! same ingestion contract the text suite does:
//!
//! * **Salvage never panics** under any frame-level fault, for any shard
//!   count; the salvaged `ParsedLog` and `SalvageSummary` are identical
//!   at 1/4/7 shards.
//! * **Strict mode agrees across shard counts**: same `Ok` log or the
//!   same first error (code, frame, byte, message) everywhere.
//! * **Structural faults only lose data, never invent it**: a fault that
//!   removes or repeats intact frames (truncation, checksum flip, frame
//!   delete/duplicate) can only yield records verbatim from the clean
//!   log, so the salvaged total drag is bounded by the clean run's.
//!   (A payload flip or corrupted length prefix can — once in 2^16 —
//!   survive the checksum as a *different* record, so those two are only
//!   covered by the no-panic and parity properties.)
//! * **Truncation salvages at least the intact frame prefix**: every
//!   complete `obj` frame before the cut yields a kept record, and the
//!   summary still reports the binary input format.

use std::collections::HashMap;

use heapdrag::core::log::Ingested;
use heapdrag::core::{
    BinarySink, ErrorCode, GcSample, LogFormat, ObjectRecord, Pipeline, TraceSink,
};
use heapdrag::vm::{ChainId, ClassId, ObjectId};
use heapdrag_testkit::{check, complete_frames, inject_binary, BinaryFault, Rng};

/// Shard counts every property sweeps; `chunk_records` is pinned for the
/// same reason as in the text suite (chunking is the scan's decision,
/// results must not depend on the worker count).
const SHARDS: [usize; 3] = [1, 4, 7];
/// The `obj` frame tag of the HDLOG v2 grammar.
const TAG_OBJ: u8 = 0x02;

fn pipe(shards: usize) -> Pipeline {
    Pipeline::options().shards(shards).chunk_records(32)
}

/// A deterministic synthetic HDLOG v2 log, the frame-for-line mirror of
/// the text suite's `clean_log()`: ~400 obj frames with varied sizes,
/// lifetimes, and optional fields, interleaved deep-GC samples, the end
/// frame last — big enough that chunking engages and any fault lands
/// somewhere interesting.
fn clean_log() -> Vec<u8> {
    let mut buf = Vec::new();
    let mut sink = BinarySink::new(&mut buf);
    sink.begin().unwrap();
    sink.chain(ChainId(0), "Main.main@1 \"buf\"").unwrap();
    sink.chain(ChainId(1), "Main.work@9").unwrap();
    for i in 0u64..400 {
        sink.record(&ObjectRecord {
            object: ObjectId(i),
            class: ClassId(2 + (i % 3) as u32),
            size: 8 + (i % 17) * 24,
            created: i * 5,
            freed: i * 5 + 350 + (i % 7) * 40,
            last_use: if i % 5 == 0 { None } else { Some(i * 5 + 90) },
            alloc_site: ChainId((i % 2) as u32),
            last_use_site: if i % 5 == 0 {
                None
            } else {
                Some(ChainId((i % 2) as u32))
            },
            at_exit: i % 9 == 0,
        })
        .unwrap();
        if i % 25 == 0 {
            sink.sample(&GcSample {
                time: i * 5 + 10,
                reachable_bytes: 4000 + i * 11,
                reachable_count: 40 + i,
            })
            .unwrap();
        }
    }
    sink.end(2500).unwrap();
    buf
}

fn salvage(bytes: &[u8], shards: usize) -> Result<Ingested, heapdrag::core::LogError> {
    pipe(shards)
        .salvage(None)
        .ingest_bytes(bytes)
        .map_err(|e| e.as_log().expect("log error").clone())
}

fn strict(bytes: &[u8], shards: usize) -> Result<Ingested, heapdrag::core::LogError> {
    pipe(shards)
        .ingest_bytes(bytes)
        .map_err(|e| e.as_log().expect("log error").clone())
}

fn total_drag(records: &[ObjectRecord]) -> u128 {
    records.iter().map(|r| r.drag()).sum()
}

#[test]
fn testkit_walker_agrees_with_the_codec() {
    // The testkit carries its own magic and frame walker so it stays
    // dependency-free; this pins them to the codec under test.
    assert_eq!(
        heapdrag_testkit::fault::HDLOG2_MAGIC,
        heapdrag::core::codec::binary::MAGIC
    );
    let clean = clean_log();
    let frames = complete_frames(&clean);
    assert_eq!(
        frames.last().unwrap().1,
        clean.len(),
        "walker spans the log"
    );
    let objs = frames.iter().filter(|&&(_, _, tag)| tag == TAG_OBJ).count();
    let parsed = strict(&clean, 1).expect("clean log parses strictly");
    assert!(parsed.salvage.is_clean());
    assert_eq!(parsed.salvage.format, LogFormat::Binary);
    assert_eq!(objs, parsed.log.records.len());
}

#[test]
fn salvage_never_panics_and_is_shard_invariant_under_every_binary_fault() {
    let clean = clean_log();
    for fault in BinaryFault::ALL {
        check(
            &format!("binary-salvage-no-panic[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let (bytes, _) = inject_binary(&clean, fault, rng);
                let baseline = salvage(&bytes, 1)
                    .unwrap_or_else(|e| panic!("{}: salvage must succeed, got {e}", fault.name()));
                for shards in [4, 7] {
                    let got = salvage(&bytes, shards).expect("salvage succeeds");
                    assert_eq!(got.log, baseline.log, "{}: shards {shards}", fault.name());
                    assert_eq!(
                        got.salvage,
                        baseline.salvage,
                        "{}: shards {shards}",
                        fault.name()
                    );
                }
            },
        );
    }
}

#[test]
fn strict_mode_agrees_across_shard_counts_under_every_binary_fault() {
    let clean = clean_log();
    for fault in BinaryFault::ALL {
        check(
            &format!("binary-strict-parity[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let (bytes, _) = inject_binary(&clean, fault, rng);
                let results: Vec<_> = SHARDS.iter().map(|&s| strict(&bytes, s)).collect();
                match &results[0] {
                    Ok(first) => {
                        for r in &results[1..] {
                            let r = r.as_ref().expect("all shard counts parse");
                            assert_eq!(r.log, first.log, "{}", fault.name());
                        }
                    }
                    Err(first) => {
                        for r in &results[1..] {
                            let e = r.as_ref().expect_err("all shard counts fail");
                            assert_eq!(
                                (e.code, e.line, e.byte, &e.message),
                                (first.code, first.line, first.byte, &first.message),
                                "{}",
                                fault.name()
                            );
                        }
                    }
                }
            },
        );
    }
}

#[test]
fn structural_binary_faults_never_invent_records_and_drag_is_a_subset() {
    let clean = clean_log();
    let baseline = salvage(&clean, 1).expect("clean log ingests");
    assert!(baseline.salvage.is_clean(), "the sink emits a clean log");
    let clean_drag = total_drag(&baseline.log.records);
    let by_id: HashMap<ObjectId, &ObjectRecord> =
        baseline.log.records.iter().map(|r| (r.object, r)).collect();

    for fault in BinaryFault::ALL.into_iter().filter(|f| f.is_structural()) {
        check(
            &format!("binary-salvage-subset[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let (bytes, _) = inject_binary(&clean, fault, rng);
                let got = salvage(&bytes, 4).expect("salvage succeeds");
                for r in &got.log.records {
                    let original = by_id.get(&r.object).unwrap_or_else(|| {
                        panic!("{}: salvaged unknown object {:?}", fault.name(), r.object)
                    });
                    assert_eq!(&r, original, "{}: record altered", fault.name());
                }
                assert!(
                    total_drag(&got.log.records) <= clean_drag,
                    "{}: salvaged drag exceeds the clean run's",
                    fault.name()
                );
            },
        );
    }
}

#[test]
fn truncation_salvages_at_least_the_intact_frame_prefix() {
    let clean = clean_log();
    let frames = complete_frames(&clean);
    for fault in [BinaryFault::TruncateAtByte, BinaryFault::TruncateMidFrame] {
        check(
            &format!("binary-truncate-prefix-recovery[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let (bytes, report) = inject_binary(&clean, fault, rng);
                let intact_objs = frames
                    .iter()
                    .filter(|&&(_, end, tag)| tag == TAG_OBJ && end <= report.offset)
                    .count();
                let got = salvage(&bytes, 4).expect("salvage succeeds");
                assert!(
                    got.log.records.len() >= intact_objs,
                    "{}: salvaged {} records from a prefix holding {intact_objs} complete obj frames",
                    fault.name(),
                    got.log.records.len()
                );
                // A cut inside the 8 magic bytes demotes the input to an
                // unrecognised text log; past them it is still binary and
                // the summary must say so.
                if bytes.starts_with(&heapdrag_testkit::fault::HDLOG2_MAGIC) {
                    assert_eq!(got.salvage.format, LogFormat::Binary);
                }
            },
        );
    }
}

#[test]
fn max_errors_bounds_binary_salvage() {
    // A flipped checksum byte always yields at least one E011, so a zero
    // error budget must reject the log while unbounded salvage succeeds.
    let clean = clean_log();
    check("binary-max-errors-bound", 64, |rng: &mut Rng| {
        let (bytes, report) = inject_binary(&clean, BinaryFault::FlipChecksumByte, rng);
        assert!(report.len > 0, "the clean log always has frames to flip");
        let unbounded = salvage(&bytes, 4).expect("unbounded salvage succeeds");
        assert!(!unbounded.salvage.is_clean());
        let bounded = pipe(4).salvage(Some(0)).ingest_bytes(&bytes);
        let e = bounded.expect_err("zero budget rejects corruption");
        let e = e.as_log().expect("log error");
        assert_eq!(e.code, ErrorCode::TooManyErrors);
    });
}
