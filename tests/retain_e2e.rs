//! End-to-end properties of retaining-path sampling: VM mark → tag-05
//! frames / `retain` lines → salvage → per-site report → byte-identical
//! renderings, on a stock workload.
//!
//! Pinned here:
//!
//! * **rate 0 is absence**: `RetainConfig::from_rate(0.0)` is `None`, and
//!   a run configured that way writes a log byte-identical to a run that
//!   never heard of sampling — old readers and golden diffs are safe;
//! * **sampling is seeded**: two runs with the same config draw the same
//!   samples and write byte-identical logs;
//! * **format parity**: text and binary logs of the same run decode to
//!   the same retains and render byte-identical reports;
//! * **shard/chunk invariance**: the retaining-path section is
//!   byte-identical at 1/4/7 shards and across chunk sizes;
//! * **pre-retain logs still work**: a log without tag-05 frames parses
//!   with no retains and no `retains kept:` salvage line;
//! * **faults only lose samples, never invent them**: under every
//!   structural frame fault, salvaged retains are a subset of the clean
//!   run's, and salvage never panics.

use heapdrag::core::codec::LogFormat;
use heapdrag::core::log::Ingested;
use heapdrag::core::{profile_with, Pipeline, ReportSections, RetainRecord, VmConfig};
use heapdrag::vm::retain::RetainConfig;
use heapdrag::workloads::{workload_by_name, Variant};
use heapdrag_testkit::{check, inject_binary, BinaryFault, Rng};

/// Sampling rate used throughout: high enough that the juru run draws a
/// few hundred samples, so every property has material to bite on.
const RATE: f64 = 0.25;

fn juru_run(
    retain: Option<RetainConfig>,
) -> (heapdrag::vm::program::Program, heapdrag::core::ProfileRun) {
    let w = workload_by_name("juru").expect("stock workload");
    let program = (w.build)(Variant::Original);
    let input = (w.default_input)();
    let mut config = VmConfig::profiling();
    config.retain = retain;
    let run = profile_with(&program, &input, config, None).expect("profile");
    (program, run)
}

fn log_bytes(
    program: &heapdrag::vm::program::Program,
    run: &heapdrag::core::ProfileRun,
    format: LogFormat,
) -> Vec<u8> {
    let mut buf = Vec::new();
    run.write_log_to(program, format, &mut buf)
        .expect("write log");
    buf
}

fn ingest(bytes: &[u8], shards: usize, chunk: usize) -> Ingested {
    Pipeline::options()
        .shards(shards)
        .chunk_records(chunk)
        .salvage(None)
        .ingest_bytes(bytes)
        .expect("ingest")
}

/// Renders the full report (summary + top sites + sure bets + retaining
/// paths) from an ingested log, the way `heapdrag report` does.
fn render(ingested: &Ingested) -> String {
    let (mut report, _) = Pipeline::options().analyze_records(&ingested.log.records, |_| None);
    report.attach_retains(&ingested.log.retains);
    ReportSections::standard(&report, &ingested.log).render()
}

#[test]
fn rate_zero_means_byte_identical_logs() {
    assert!(RetainConfig::from_rate(0.0).is_none(), "rate 0 is absence");
    assert!(RetainConfig::from_rate(-1.0).is_none());

    let (program, plain) = juru_run(None);
    let (_, zeroed) = juru_run(RetainConfig::from_rate(0.0));
    assert!(plain.retains.is_empty() && zeroed.retains.is_empty());
    for format in [LogFormat::Text, LogFormat::Binary] {
        assert_eq!(
            log_bytes(&program, &plain, format),
            log_bytes(&program, &zeroed, format),
            "{format:?} log differs at rate 0"
        );
    }
}

#[test]
fn sampling_is_seeded_and_reproducible() {
    let (program, a) = juru_run(RetainConfig::from_rate(RATE));
    let (_, b) = juru_run(RetainConfig::from_rate(RATE));
    assert!(!a.retains.is_empty(), "rate {RATE} drew no samples");
    assert_eq!(a.retains, b.retains, "same seed, same draws");
    assert_eq!(
        log_bytes(&program, &a, LogFormat::Binary),
        log_bytes(&program, &b, LogFormat::Binary)
    );

    // A different seed is a genuinely different stream (with ~232 draws
    // the chance of an identical sample set is negligible) — the knob is
    // wired through, not decorative.
    let (_, c) = juru_run(RetainConfig::from_rate_seeded(RATE, 1));
    assert_ne!(a.retains, c.retains, "seed is ignored");
}

#[test]
fn text_and_binary_logs_agree_end_to_end() {
    let (program, run) = juru_run(RetainConfig::from_rate(RATE));
    let text = ingest(&log_bytes(&program, &run, LogFormat::Text), 1, 64);
    let binary = ingest(&log_bytes(&program, &run, LogFormat::Binary), 1, 64);
    assert!(text.salvage.is_clean() && binary.salvage.is_clean());
    assert_eq!(text.log.retains, run.retains, "text roundtrip lost samples");
    assert_eq!(
        binary.log.retains, run.retains,
        "binary roundtrip lost samples"
    );
    assert_eq!(render(&text), render(&binary));
    let rendered = render(&text);
    assert!(
        rendered.contains("--- retaining paths: sampled holders at deep-GC marks ---"),
        "section missing:\n{rendered}"
    );
}

#[test]
fn retaining_report_is_shard_and_chunk_invariant() {
    let (program, run) = juru_run(RetainConfig::from_rate(RATE));
    let bytes = log_bytes(&program, &run, LogFormat::Binary);
    let baseline = ingest(&bytes, 1, 64);
    let want = render(&baseline);
    for (shards, chunk) in [(4, 64), (7, 64), (1, 7), (7, 501)] {
        let got = ingest(&bytes, shards, chunk);
        assert_eq!(
            got.log.retains, baseline.log.retains,
            "shards={shards} chunk={chunk}"
        );
        assert_eq!(render(&got), want, "shards={shards} chunk={chunk}");
    }
}

#[test]
fn logs_without_retain_frames_parse_with_no_retain_surface() {
    let (program, run) = juru_run(None);
    for format in [LogFormat::Text, LogFormat::Binary] {
        let ingested = ingest(&log_bytes(&program, &run, format), 4, 64);
        assert!(ingested.salvage.is_clean());
        assert!(ingested.log.retains.is_empty());
        assert_eq!(ingested.salvage.retains_kept, 0);
        assert!(
            !ingested.salvage.render_footer().contains("retains kept"),
            "footer mentions retains on a pre-retain log"
        );
        let rendered = render(&ingested);
        assert!(
            !rendered.contains("retaining paths"),
            "report grew a retaining section without samples:\n{rendered}"
        );
    }
}

#[test]
fn structural_faults_never_invent_retain_samples() {
    let (program, run) = juru_run(RetainConfig::from_rate(RATE));
    let clean = log_bytes(&program, &run, LogFormat::Binary);
    let baseline = ingest(&clean, 1, 64);
    assert_eq!(baseline.log.retains, run.retains);
    let is_known = |r: &RetainRecord| run.retains.contains(r);

    for fault in BinaryFault::ALL.into_iter().filter(|f| f.is_structural()) {
        check(
            &format!("retain-salvage-subset[{}]", fault.name()),
            128,
            |rng: &mut Rng| {
                let (bytes, _) = inject_binary(&clean, fault, rng);
                let got = Pipeline::options()
                    .shards(4)
                    .chunk_records(64)
                    .salvage(None)
                    .ingest_bytes(&bytes)
                    .expect("salvage never fails");
                // A frame-duplication fault may replay a window of up to 8
                // intact frames, so the count can exceed the clean run's
                // by at most that window — never by more.
                assert!(
                    got.log.retains.len() <= run.retains.len() + 8,
                    "{}: salvage kept {} retains, clean run had {}",
                    fault.name(),
                    got.log.retains.len(),
                    run.retains.len()
                );
                assert_eq!(got.salvage.retains_kept, got.log.retains.len() as u64);
                for r in &got.log.retains {
                    assert!(
                        is_known(r),
                        "{}: salvage invented a retain sample: {r:?}",
                        fault.name()
                    );
                }
                // The report still renders — possibly without the
                // retaining section, never with a corrupted one.
                let _ = render(&got);
            },
        );
    }
}
