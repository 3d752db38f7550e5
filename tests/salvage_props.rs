//! Fault-injection property suite for the salvage ingester.
//!
//! Each property runs 256 seeded cases per fault kind (replayable with
//! `TESTKIT_SEED`/`TESTKIT_CASES`), corrupting a synthetic log with the
//! `heapdrag-testkit` mutators and asserting the ingestion contract:
//!
//! * **Salvage never panics** and — barring an empty input — never errors
//!   without a `--max-errors` bound, for any shard count; the salvaged
//!   `ParsedLog` and `SalvageSummary` are identical at 1/4/7 shards.
//! * **Strict mode agrees across shard counts**: every shard count
//!   returns the same `Ok` log or the same first error (code, line, byte,
//!   message).
//! * **Structural faults only lose data, never invent it**: every record
//!   surviving truncate/delete-line/duplicate-chunk/torn-tail is verbatim
//!   from the clean log, so each salvaged record's drag — and the total —
//!   is bounded by the clean run's. (Flip-byte can legally *alter* a
//!   record, so it is only covered by the no-panic and parity properties.)
//! * **Truncation salvages at least the intact prefix**: every complete
//!   `obj` line before the cut yields a kept record.

use std::collections::HashMap;

use heapdrag::core::log::Ingested;
use heapdrag::core::{ObjectRecord, Pipeline};
use heapdrag::vm::ObjectId;
use heapdrag_testkit::{check, inject, Fault, Rng};

/// Shard counts every property sweeps. `chunk_records` is pinned because
/// error chunk indices are a function of the chunk size (the scan decides
/// chunking), while the results must not depend on the worker count.
const SHARDS: [usize; 3] = [1, 4, 7];

fn pipe(shards: usize) -> Pipeline {
    Pipeline::options().shards(shards).chunk_records(32)
}

/// A deterministic synthetic log: ~400 records with varied sizes,
/// lifetimes, optional fields, and interleaved deep-GC samples — big
/// enough that chunking engages and any fault lands somewhere
/// interesting. The `end` marker is last, as `write_log` emits it.
fn clean_log() -> String {
    let mut text =
        String::from("heapdrag-log v1\nchain 0 Main.main@1 \"buf\"\nchain 1 Main.work@9\n");
    for i in 0u64..400 {
        text.push_str(&format!(
            "obj {} {} {} {} {} {} {} {} {}\n",
            i,
            2 + i % 3,
            8 + (i % 17) * 24,
            i * 5,
            i * 5 + 350 + (i % 7) * 40,
            if i % 5 == 0 {
                "-".to_string()
            } else {
                (i * 5 + 90).to_string()
            },
            i % 2,
            if i % 5 == 0 {
                "-".to_string()
            } else {
                (i % 2).to_string()
            },
            u8::from(i % 9 == 0),
        ));
        if i % 25 == 0 {
            text.push_str(&format!("gc {} {} {}\n", i * 5 + 10, 4000 + i * 11, 40 + i));
        }
    }
    text.push_str("end 2500\n");
    text
}

fn salvage(text: &str, shards: usize) -> Result<Ingested, heapdrag::core::LogError> {
    pipe(shards)
        .salvage(None)
        .ingest_bytes(text)
        .map_err(|e| e.as_log().expect("log error").clone())
}

fn strict(text: &str, shards: usize) -> Result<Ingested, heapdrag::core::LogError> {
    pipe(shards)
        .ingest_bytes(text)
        .map_err(|e| e.as_log().expect("log error").clone())
}

fn total_drag(records: &[ObjectRecord]) -> u128 {
    records.iter().map(|r| r.drag()).sum()
}

/// One corrupted case: applies `fault` to the clean log with the case's
/// `rng` and returns the corrupted text.
fn corrupt(clean: &str, fault: Fault, rng: &mut Rng) -> String {
    inject(clean, fault, rng).0
}

#[test]
fn salvage_never_panics_and_is_shard_invariant_under_every_fault() {
    let clean = clean_log();
    for fault in Fault::ALL {
        check(
            &format!("salvage-no-panic[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let text = corrupt(&clean, fault, rng);
                let baseline = salvage(&text, 1)
                    .unwrap_or_else(|e| panic!("{}: salvage must succeed, got {e}", fault.name()));
                for shards in [4, 7] {
                    let got = salvage(&text, shards).expect("salvage succeeds");
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
fn strict_mode_agrees_across_shard_counts_under_every_fault() {
    let clean = clean_log();
    for fault in Fault::ALL {
        check(
            &format!("strict-parity[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let text = corrupt(&clean, fault, rng);
                let results: Vec<_> = SHARDS.iter().map(|&s| strict(&text, s)).collect();
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
fn structural_faults_never_invent_records_and_drag_is_a_subset() {
    let clean_text = clean_log();
    let clean = salvage(&clean_text, 1).expect("clean log ingests");
    assert!(clean.salvage.is_clean(), "the builder emits a clean log");
    let clean_drag = total_drag(&clean.log.records);
    let by_id: HashMap<ObjectId, &ObjectRecord> =
        clean.log.records.iter().map(|r| (r.object, r)).collect();

    for fault in Fault::ALL.into_iter().filter(|f| f.is_structural()) {
        check(
            &format!("salvage-subset[{}]", fault.name()),
            256,
            |rng: &mut Rng| {
                let text = corrupt(&clean_text, fault, rng);
                let got = salvage(&text, 4).expect("salvage succeeds");
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
fn truncation_salvages_at_least_the_intact_prefix() {
    let clean_text = clean_log();
    check("truncate-prefix-recovery", 256, |rng: &mut Rng| {
        let (text, report) = inject(&clean_text, Fault::TruncateAtByte, rng);
        let intact_objs = clean_text[..report.offset]
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n') && l.starts_with("obj "))
            .count();
        let got = salvage(&text, 4).expect("salvage succeeds");
        assert!(
            got.log.records.len() >= intact_objs,
            "salvaged {} records from a prefix holding {intact_objs} complete obj lines",
            got.log.records.len()
        );
    });
}

#[test]
fn max_errors_bounds_salvage_under_heavy_corruption() {
    // Stacked faults accumulate errors; a zero budget must reject any
    // corrupted log with E008 while the unbounded ingest still succeeds.
    let clean_text = clean_log();
    check("max-errors-bound", 64, |rng: &mut Rng| {
        let mut text = corrupt(&clean_text, Fault::DeleteLine, rng);
        text = corrupt(&text, Fault::TruncateAtByte, rng);
        let unbounded = salvage(&text, 4).expect("unbounded salvage succeeds");
        let bounded = pipe(4).salvage(Some(0)).ingest_bytes(&text);
        if unbounded.salvage.is_clean() {
            // Deleting a line can excise a whole record cleanly; nothing
            // to bound in that case.
            assert!(bounded.is_ok());
        } else {
            let e = bounded.expect_err("zero budget rejects corruption");
            let e = e.as_log().expect("log error");
            assert_eq!(e.code, heapdrag::core::ErrorCode::TooManyErrors);
        }
    });
}
