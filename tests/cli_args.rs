//! CLI argument validation: numeric flags must reject zero and garbage
//! with a stable one-line error on stderr and a nonzero exit — never be
//! accepted silently. Also pins the `live` flag surface: window specs,
//! `--advance` coupling, and that valid invocations still run.

use std::process::Command;

fn heapdrag(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_heapdrag"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr_line(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).trim_end().to_string()
}

#[test]
fn numeric_flags_reject_zero_and_garbage_with_stable_one_line_errors() {
    let flags = [
        "--interval-kb",
        "--top",
        "--shards",
        "--chunk-records",
        "--pool",
        "--drivers",
        "--budget-chunks",
        "--rounds",
        "--advance",
        "--cold-after",
        "--every",
    ];
    for flag in flags {
        for bad in ["0", "nope", "-3", "1.5", ""] {
            let out = heapdrag(&["report", "whatever.log", flag, bad]);
            assert!(
                !out.status.success(),
                "{flag} {bad:?} must be rejected, got success"
            );
            let err = stderr_line(&out);
            assert_eq!(
                err,
                format!("heapdrag: bad {flag}: expected a positive integer, got `{bad}`"),
                "{flag} {bad:?}: unstable error line"
            );
            assert!(!err.contains('\n'), "{flag}: error must be one line");
        }
    }
}

#[test]
fn window_specs_accept_unbounded_and_positive_bytes_only() {
    for flag in ["--window", "--live-window"] {
        for bad in ["0", "forever", "-1"] {
            let out = heapdrag(&["live", "x", flag, bad]);
            assert!(!out.status.success(), "{flag} {bad:?} must be rejected");
            assert_eq!(
                stderr_line(&out),
                format!("heapdrag: bad {flag}: expected a positive integer, got `{bad}`")
            );
        }
    }
    // `unbounded` parses; the command then fails on the missing target,
    // not on the flag.
    let out = heapdrag(&["live", "/nonexistent.hdasm", "--window", "unbounded"]);
    assert!(!out.status.success());
    assert!(
        stderr_line(&out).contains("/nonexistent.hdasm"),
        "failure must be about the target, not the window spec"
    );
}

#[test]
fn advance_requires_a_rolling_window() {
    let out = heapdrag(&["live", "x", "--advance", "64"]);
    assert!(!out.status.success());
    assert_eq!(
        stderr_line(&out),
        "heapdrag: --advance requires a rolling --window <bytes>"
    );
    // With a rolling window the same flag parses (failure, if any, comes
    // later, from the bogus target).
    let out = heapdrag(&[
        "live",
        "/nonexistent.hdasm",
        "--window",
        "4096",
        "--advance",
        "64",
    ]);
    assert!(!out.status.success());
    assert!(stderr_line(&out).contains("/nonexistent.hdasm"));
}

#[test]
fn a_valid_live_invocation_runs_a_workload_by_name() {
    let out = heapdrag(&[
        "live",
        "juru",
        "--every",
        "65536",
        "--snapshot-out",
        "/dev/null",
    ]);
    assert!(
        out.status.success(),
        "live juru failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== drag report ==="));
    assert!(stdout.contains("--- coldness: per-site idle intervals"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("live:"), "summary line: {stderr}");
}

#[test]
fn strict_and_salvage_stay_mutually_exclusive() {
    let out = heapdrag(&["report", "x.log", "--strict", "--salvage"]);
    assert!(!out.status.success());
    assert_eq!(
        stderr_line(&out),
        "heapdrag: --strict and --salvage are mutually exclusive"
    );
}

/// Values that would make the live path allocate without bound are
/// rejected while parsing, before the target is even loaded: a rolling
/// window of more than 2^16 buckets.
#[test]
fn live_flags_reject_unbounded_allocations() {
    for flag in ["--window", "--live-window"] {
        let out = heapdrag(&["live", "x", flag, "1000000", "--advance", "1"]);
        assert!(!out.status.success());
        assert_eq!(
            stderr_line(&out),
            format!(
                "heapdrag: bad --advance: {flag} 1000000 at --advance 1 makes 1000000 \
                 window buckets, at most 65536"
            )
        );
    }
    // The maxima themselves parse; the failure is the missing target.
    let out = heapdrag(&[
        "live",
        "/nonexistent.hdasm",
        "--window",
        "65536",
        "--advance",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(stderr_line(&out).contains("/nonexistent.hdasm"));
}

/// An argument that starts with `--` and names no flag is rejected with
/// one stable line instead of being read as a positional argument; `-`
/// (stdin) and negative program inputs stay positional.
#[test]
fn unknown_flags_are_rejected_with_a_stable_one_line_error() {
    for (args, flag) in [
        (
            &["report", "d.log", "--top", "2", "--bogus", "3"][..],
            "--bogus",
        ),
        (&["live", "juru", "--ring", "1024"][..], "--ring"),
    ] {
        let out = heapdrag(args);
        assert!(!out.status.success(), "{flag} must be rejected");
        assert_eq!(
            stderr_line(&out),
            format!("heapdrag: unknown flag `{flag}`")
        );
    }
    // `-` still names stdin.
    let log = std::env::temp_dir().join(format!("heapdrag-cli-stdin-{}.log", std::process::id()));
    let log_path = log.to_str().expect("utf-8 temp path");
    let out = heapdrag(&["profile", "examples/dragged.hdj", "-o", log_path]);
    assert!(out.status.success(), "profile: {}", stderr_line(&out));
    let out = Command::new(env!("CARGO_BIN_EXE_heapdrag"))
        .args(["report", "-", "--top", "2"])
        .stdin(std::fs::File::open(&log).expect("log written"))
        .output()
        .expect("binary runs");
    std::fs::remove_file(&log).ok();
    assert!(out.status.success(), "report -: {}", stderr_line(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("=== drag report ==="));
    // A negative input still reaches the program as an int.
    let out = heapdrag(&["run", "/nonexistent.hdasm", "-3"]);
    assert!(!out.status.success());
    assert!(stderr_line(&out).contains("/nonexistent.hdasm"));
}
