//! Compares the reconciliation surface of two `--metrics-out` JSON
//! snapshots — typically one written by `heapdrag profile` (on-line) and
//! one by `heapdrag report` (off-line) over the same log — without
//! needing `jq` or a JSON parser: the renderer emits one stable
//! `"key": integer` line per metric.
//!
//! ```text
//! cargo run --release --example metrics_check -- online.json offline.json
//! ```
//!
//! Exits 0 when every reconciled metric matches, 1 otherwise.

use std::process::ExitCode;

/// Metrics both phases must agree on, exactly.
const RECONCILED: [&str; 7] = [
    "heapdrag_objects_created_total",
    "heapdrag_alloc_bytes_total",
    "heapdrag_objects_reclaimed_total",
    "heapdrag_objects_at_exit_total",
    "heapdrag_deep_gc_samples_total",
    "heapdrag_retain_samples_total",
    "heapdrag_end_time_bytes",
];

/// Pulls `"key": <integer>` out of a stable-JSON snapshot by line scan.
fn lookup(snapshot: &str, key: &str) -> Option<i64> {
    let needle = format!("\"{key}\": ");
    for line in snapshot.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(&needle) {
            let value = rest.trim_end_matches(',');
            return value.parse().ok();
        }
    }
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [online_path, offline_path] = args.as_slice() else {
        eprintln!("usage: metrics_check <online.json> <offline.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("metrics_check: {path}: {e}");
            std::process::exit(1);
        })
    };
    let online = read(online_path);
    let offline = read(offline_path);

    let mut ok = true;
    println!("{:<36} {:>14} {:>14}", "metric", "online", "offline");
    for key in RECONCILED {
        let a = lookup(&online, key);
        let b = lookup(&offline, key);
        let fmt = |v: Option<i64>| v.map_or("<missing>".to_string(), |v| v.to_string());
        let mark = if a.is_some() && a == b {
            ""
        } else {
            "  <- MISMATCH"
        };
        if mark.is_empty() {
            println!("{key:<36} {:>14} {:>14}", fmt(a), fmt(b));
        } else {
            ok = false;
            println!("{key:<36} {:>14} {:>14}{mark}", fmt(a), fmt(b));
        }
    }
    if ok {
        println!("reconciled: on-line and off-line phases agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("metrics_check: phases disagree");
        ExitCode::FAILURE
    }
}
