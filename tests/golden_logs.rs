//! Golden log digests: every profile log in a fixed matrix is pinned by
//! its FNV-1a 64 digest and byte length in
//! `tests/golden/profile_log_digests.txt`.
//!
//! The differential suites compare two dispatch loops of the same build;
//! this file compares a build against the logs earlier builds wrote, so a
//! collector or profiler change that moves one free time, deep-GC sample
//! or retain draw fails here even when both loops agree.
//!
//! The matrix:
//!
//! * the nine workloads (original program, default input) at the paper's
//!   100 KB deep-GC interval and at 4 KB, with retain sampling off and at
//!   1/16, each encoded as a text and as a binary log;
//! * 32 seeded generated programs (finalizable garbage, exception unwinds,
//!   megamorphic calls) at a 4 KB interval with the same retain and
//!   format axes — the cases where a deep GC queues finalizers and so
//!   needs its second collection.
//!
//! After an intended log change, regenerate the file with
//! `HEAPDRAG_BLESS=1 cargo test --test golden_logs` and review the diff.

use std::fmt::Write as _;

use heapdrag::core::{profile, LogFormat, VmConfig};
use heapdrag::vm::retain::RetainConfig;
use heapdrag::vm::Program;
use heapdrag::workloads::all_workloads;
use heapdrag_testkit::{random_program, Rng};

const GOLDEN: &str = "tests/golden/profile_log_digests.txt";

/// Generated programs pinned by the file (seeds `0..GENERATED`).
const GENERATED: u64 = 32;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends one line per log format of `program` profiled under `config`.
fn digest_lines(out: &mut String, name: &str, program: &Program, input: &[i64], config: VmConfig) {
    let interval = config.deep_gc_interval.expect("profiling config");
    let retain = if config.retain.is_some() { "1/16" } else { "0" };
    let run = profile(program, input, config).expect("profiled run");
    for (tag, format) in [("text", LogFormat::Text), ("binary", LogFormat::Binary)] {
        let mut buf = Vec::new();
        run.write_log_to(program, format, &mut buf)
            .expect("writing to a Vec cannot fail");
        let (digest, len) = (fnv1a64(&buf), buf.len());
        let _ = writeln!(
            out,
            "{name} interval={interval} retain={retain} {tag} {digest:016x} {len}"
        );
    }
}

fn config(interval: u64, retain: bool) -> VmConfig {
    VmConfig {
        deep_gc_interval: Some(interval),
        retain: if retain {
            RetainConfig::from_rate(1.0 / 16.0)
        } else {
            None
        },
        ..VmConfig::profiling()
    }
}

fn current_digests() -> String {
    let mut out = String::new();
    for w in all_workloads() {
        let program = w.original();
        let input = (w.default_input)();
        for interval in [100 * 1024, 4 * 1024] {
            for retain in [false, true] {
                digest_lines(&mut out, w.name, &program, &input, config(interval, retain));
            }
        }
    }
    for seed in 0..GENERATED {
        let (program, input) = random_program(&mut Rng::new(seed));
        for retain in [false, true] {
            let name = format!("genprog-{seed}");
            digest_lines(&mut out, &name, &program, &input, config(4 * 1024, retain));
        }
    }
    out
}

#[test]
fn profile_logs_match_the_golden_digests() {
    let got = current_digests();
    if std::env::var_os("HEAPDRAG_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden digests are committed");
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} profile logs drifted from {GOLDEN} ({} lines expected, {} produced):\n{}",
        drift.len(),
        want.lines().count(),
        want.lines().count(),
        got.lines().count(),
        drift.join("\n")
    );
}
