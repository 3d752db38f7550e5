//! The heapdrag benchmark: profiled-run overhead, offline analysis
//! throughput and serve latency, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--rev <id>]
//! perfbench --validate
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A readable
//! summary goes to standard error; `--out` appends a fuller record
//! (seed, `nproc`, revision, determinism-witness counters) as one JSON
//! line, for `compare.py`. See README.md for the workloads and metrics.

mod phases;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use phases::Bench;
use stats::{json_num, json_str, median, quantile, tail_quantile};

/// Set-up runs per process; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// End-to-end metrics, in output order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plain_s", "s"),
    ("profile_s", "s"),
    ("profile_overhead_x", "ratio"),
    ("profile_retain_s", "s"),
    ("live_s", "s"),
    ("report_s", "s"),
    ("log_bytes", "bytes"),
    ("analyze_text_mrec_s", "Mrec/s"),
    ("analyze_binary_mrec_s", "Mrec/s"),
    ("serve_sessions_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end timings that sum, over the workload's programs, each
/// program's fastest time in the run.
const FASTEST_SUMS: &[&str] = &[
    "plain_s",
    "profile_s",
    "profile_retain_s",
    "live_s",
    "report_s",
];

/// Share of each serve session's latencies, fastest first, that the
/// serve metrics are computed over.
const SERVE_KEEP: f64 = 0.1;

/// Latencies the serve metrics pool at least, so that p90 has ten
/// samples beyond it; fixes the session count of a run.
const SERVE_POOLED: usize = 120;

/// Per-layer metrics, in output order (the 13 dispatch classes are
/// expanded in [`layer_metrics`]).
const LAYERS: &[(&str, &str)] = &[
    ("vm.interp.plain_s", "s"),
    ("vm.interp.steps", "count"),
    ("vm.heap.alloc_objects", "count"),
    ("vm.heap.alloc_bytes", "bytes"),
    ("vm.heap.peak_live_bytes", "bytes"),
    ("vm.gc.deep_gc_s", "s"),
    ("vm.gc.full_pause_s", "s"),
    ("vm.gc.deep_gcs", "count"),
    ("vm.gc.full_collections", "count"),
    ("vm.gc.traced_objects", "count"),
    ("vm.retain.sample_s", "s"),
    ("vm.retain.samples", "count"),
    ("core.profiler.observe_s", "s"),
    ("core.profiler.events.alloc", "count"),
    ("core.profiler.events.free", "count"),
    ("core.profiler.events.use", "count"),
    ("core.profiler.events.deep_gc", "count"),
    ("core.profiler.records", "count"),
    ("core.codec.encode_text_s", "s"),
    ("core.codec.encode_binary_s", "s"),
    ("core.codec.text_bytes", "bytes"),
    ("core.codec.binary_bytes", "bytes"),
    ("core.live.run_s", "s"),
    ("core.live.events", "count"),
    ("core.live.dropped", "count"),
    ("core.stream.ingest_s", "s"),
    ("core.stream.bytes_read", "bytes"),
    ("core.stream.chunks", "count"),
    ("core.stream.peak_buffered_bytes", "bytes"),
    ("core.stream.backpressure_stalls", "count"),
    ("core.engine.fold_s", "s"),
    ("core.engine.sites", "count"),
    ("core.report.render_s", "s"),
    ("core.report.bytes", "bytes"),
    ("core.serve.queued_s", "s"),
    ("core.serve.run_s", "s"),
    ("core.serve.transport_s", "s"),
    ("core.serve.pool_jobs", "count"),
    ("core.serve.pool_busy_peak", "count"),
    ("core.serve.rejected", "count"),
    ("core.serve.fleet_report_s", "s"),
    ("trace.coverage.vm", "ratio"),
    ("trace.coverage.offline", "ratio"),
    ("trace.coverage.serve", "ratio"),
    ("trace.overhead.vm", "ratio"),
    ("trace.overhead.offline", "ratio"),
    ("trace.overhead.serve", "ratio"),
];

fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYERS[..2]
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        heapdrag_vm::OpcodeClass::ALL
            .iter()
            .map(|c| (format!("vm.interp.dispatch.{}", c.name()), "count")),
    );
    out.extend(LAYERS[2..].iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    rev: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        rev: "unknown".to_string(),
    };
    while let Some(flag) = it.next() {
        if flag == "--validate" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = Some(PathBuf::from(&value)),
            "--rev" => args.rev = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if setup::spec(&args.workload).is_none() {
        let names: Vec<&str> = setup::SPECS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            let failures = setup::validate();
            for f in &failures {
                eprintln!("invalid draw: {f}");
            }
            eprintln!("validate: {} failing draws", failures.len());
            return if failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args);
    ExitCode::SUCCESS
}

fn run(args: &Args) {
    let spec = setup::spec(&args.workload).expect("checked in parse_args");
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());

    let mut setup_times = Vec::new();
    let mut setup_errors = Vec::new();
    let mut first_fingerprint = None;
    let mut prep: Option<setup::Prepared> = None;
    for rep in 0..SETUP_REPS {
        drop(prep.take()); // stop the previous server and free its traces first
        let start = Instant::now();
        let (p, errors) = setup::prepare(spec, args.seed, workers, rep);
        setup_times.push(start.elapsed().as_secs_f64());
        let fp = p.fingerprint();
        match &first_fingerprint {
            None => {
                first_fingerprint = Some(fp);
                setup_errors = errors;
            }
            Some(first) if *first != fp => setup_errors
                .push("set-up drift: traces differ between set-ups of one seed".to_string()),
            Some(_) => {}
        }
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");

    let mut b = Bench::new(&prep, workers, args.trace);
    for e in setup_errors {
        b.tally.fail(e);
    }
    // The phases interleave in one-second cycles, so every program,
    // trace and session is timed again and again across the whole run:
    // the host's quiet moments, when the memory system is not shared with
    // other load, are short and scattered, and a per-unit fastest time
    // catches them where a per-pass median does not.
    let cycles = (args.seconds.round() as usize).max(3);
    let cycle = Duration::from_secs_f64(args.seconds / cycles as f64);
    let rounds = if prep.plan.is_empty() {
        0
    } else {
        let sessions = (SERVE_POOLED as f64 / SERVE_KEEP).ceil() as usize;
        sessions.div_ceil(prep.plan.len())
    };
    let [w_vm, w_off] = spec.weights;
    let run_start = Instant::now();
    for i in 0..cycles {
        let end = run_start + cycle * (i as u32 + 1);
        for r in rounds * i / cycles..rounds * (i + 1) / cycles {
            b.serve_round(r, args.trace && r % 2 == 1);
        }
        if !prep.jobs.is_empty() {
            let left = end.saturating_duration_since(Instant::now());
            b.repeat("vm", left.mul_f64(w_vm / (w_vm + w_off)), Bench::vm_pass);
        }
        let left = end.saturating_duration_since(Instant::now());
        b.repeat("offline", left, Bench::offline_pass);
    }
    if args.trace && !prep.jobs.is_empty() {
        b.serve_layers();
    }

    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    let sum_fastest = |metric: &str| b.fastest.get(metric).map_or(0.0, |u| u.values().sum());
    for &name in FASTEST_SUMS {
        e2e.insert(name, sum_fastest(name));
    }
    e2e.insert("profile_overhead_x", e2e["profile_s"] / e2e["plain_s"]);
    for metric in ["analyze_text_mrec_s", "analyze_binary_mrec_s"] {
        let records: f64 = b.fastest.get(metric).map_or(0.0, |u| {
            u.keys()
                .map(|k| b.records.get(k).copied().unwrap_or(0.0))
                .sum()
        });
        e2e.insert(metric, records / sum_fastest(metric) / 1e6);
    }
    e2e.insert("log_bytes", median(b.e2e.get("log_bytes")));
    e2e.insert("setup_s", median(&setup_times));
    // Each session's fastest tenth, pooled: the latency distribution of
    // the session mix with the moments the host was busy left out.
    let lat_ms: Vec<f64> = b
        .latency_ms
        .values()
        .flat_map(|v| stats::fastest_share(v, SERVE_KEEP))
        .collect();
    let tail = tail_quantile(lat_ms.len(), 0.9);
    e2e.insert("serve_p50_ms", median(&lat_ms));
    e2e.insert("serve_p90_ms", quantile(&lat_ms, tail));
    e2e.insert(
        "serve_sessions_s",
        lat_ms.len() as f64 / (lat_ms.iter().sum::<f64>() / 1e3),
    );
    e2e.insert("peak_rss_mb", stats::peak_rss_mb());

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in layer_metrics() {
        let v = median(b.layer.get(&name));
        layers.insert(name, v);
    }
    for (phase, walls) in &b.walls {
        let (plain, traced) = (median(&walls[0]), median(&walls[1]));
        if plain > 0.0 && traced > 0.0 {
            layers.insert(format!("trace.overhead.{phase}"), traced / plain - 1.0);
        }
    }

    let correct = b.tally.failed == 0;
    let failed_frac = b.tally.failed as f64 / b.tally.attempted.max(1) as f64;

    // Readable summary.
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} nproc={workers}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for e in &b.tally.errors {
        eprintln!("  FAILED: {e}");
    }
    if args.trace {
        for (name, unit) in layer_metrics() {
            eprintln!("  {name:<36} {:>16.6} {unit}", layers[&name]);
        }
        let spans = target_dir().join(format!("perfbench/spans-{}-{}.json", spec.name, args.seed));
        match b.tr.write(&spans) {
            Ok(()) => eprintln!("  {} spans written to {}", b.tr.len(), spans.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
    } else {
        for &(name, unit) in E2E {
            eprintln!("  {name:<24} {:>14.6} {unit}", e2e[name]);
        }
        eprintln!("  {:<24} {failed_frac:>14.6} ratio", "failed_frac");
        eprintln!(
            "  serve latency samples: {} of {} sessions, tail percentile reported as serve_p90_ms: p{:.0}",
            lat_ms.len(),
            b.latency_ms.values().map(Vec::len).sum::<usize>(),
            tail * 100.0
        );
    }
    eprintln!(
        "  operations: {} attempted, {} failed; vm passes {}, offline passes {}, sessions {}",
        b.tally.attempted,
        b.tally.failed,
        b.walls.get("vm").map_or(0, |w| w[0].len() + w[1].len()),
        b.walls
            .get("offline")
            .map_or(0, |w| w[0].len() + w[1].len()),
        b.sessions.len()
    );

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        layer_metrics()
            .into_iter()
            .map(|(n, u)| {
                let v = layers[&n];
                (n, v, u)
            })
            .collect()
    } else {
        E2E.iter()
            .map(|&(n, u)| (n.to_string(), e2e[n], u))
            .collect()
    };
    let metrics_json = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");

    if let Some(out) = &args.out {
        let witness = b
            .witness
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let fastest = b
            .fastest
            .iter()
            .flat_map(|(m, units)| {
                units.iter().map(move |(u, v)| {
                    format!("{}: {}", json_str(&format!("{m}/{u}")), json_num(*v))
                })
            })
            .collect::<Vec<_>>()
            .join(", ");
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {workers}, \"rev\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": {{{metrics_json}}}, \"witness\": {{{witness}}}, \"fastest\": {{{}}}}}\n",
            json_str(spec.name),
            args.seed,
            u8::from(args.trace),
            json_num(args.seconds),
            json_str(&args.rev),
            b.tally.attempted,
            b.tally.failed,
            json_num(failed_frac),
            fastest,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("  result not appended to {}: {e}", out.display());
        }
    }

    let (attempted, failed) = (b.tally.attempted, b.tally.failed);
    drop(b);
    drop(prep); // stops the server and joins its threads
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}");
}

/// Cargo's target directory, where the traced run leaves its spans.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}
