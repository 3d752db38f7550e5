//! The `heapdrag` command-line tool: the paper's two-phase profiler plus
//! the automated optimizer, over textual bytecode programs.
//!
//! ```text
//! heapdrag run      <prog.hdasm> [input ints…]
//! heapdrag profile  <prog.hdasm> -o <out.log> [--log-format text|binary] [--interval-kb N] [input ints…]
//! heapdrag report   <log file | -> [--top N] [--shards N] [--chunk-records N]
//! heapdrag timeline <prog.hdasm> [input ints…]
//! heapdrag optimize <prog.hdasm> -o <out.hdasm> [input ints…]
//! heapdrag optimize-fleet [--workloads a,b,…] [--rounds N] [--pool N] [--json <path>]
//! ```
//!
//! `profile --log-format binary` writes the compact HDLOG v2 frame format
//! instead of the default text log; either way the trace streams straight
//! to the output file. Log-reading commands autodetect the format from the
//! file's first bytes, so no flag is needed on the read side. The report
//! is byte-identical whichever format carried the trace.
//!
//! `report` (alias: `analyze`) streams the trace through
//! [`Pipeline::analyze_reader`] in bounded memory — records fold straight
//! into per-site aggregates as chunks decode, so traces larger than RAM
//! work. Pass `-` as the log path to read the trace from stdin:
//! `heapdrag profile p.hdasm -o /dev/stdout | heapdrag report -`.
//!
//! `serve` runs the long-lived multi-session drag service: every trace in
//! a `--spool` directory (and/or every `SUBMIT` on a `--socket` unix
//! listener) becomes a session sharing one decode worker pool under a
//! fleet-wide in-flight-chunk budget. Per-session summaries go to stderr;
//! the deterministic fleet-aggregate report goes to stdout. `submit`,
//! `sessions`, and `fleet-report --socket` are the matching clients;
//! `fleet-report <log>...` with no socket merges the logs offline through
//! an in-process service.
//!
//! `--shards N` runs the off-line phase (log decoding and per-site
//! aggregation) on N worker threads; the report is byte-identical to the
//! sequential one. `--verbose-metrics` prints per-shard timings to stderr,
//! and `--metrics-out <path>` writes a metrics snapshot of whichever phase
//! ran — stable JSON by default, Prometheus text if the path ends in
//! `.prom`. Log I/O publishes `heapdrag_log_bytes_total{format="..."}`
//! plus `heapdrag_log_encode_us`/`heapdrag_log_decode_us` codec timings.
//!
//! Log-reading commands default to strict parsing (`--strict`): the first
//! malformed line aborts with a stable `E0xx` error code. `--salvage`
//! ingests damaged logs instead — corrupt lines/frames are dropped, a
//! missing end-of-log marker is repaired — and appends a salvage summary
//! footer (which names the detected input format) to the report;
//! `--max-errors N` bounds how much corruption salvage will tolerate.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use heapdrag::core::log::{IngestConfig, IngestMode, SalvageSummary};
use heapdrag::core::serve::submit_spool;
use heapdrag::core::{
    profile_with, run_live, LiveOptions, LogFormat, ParallelConfig, Pipeline, ProfileRun,
    ReportSections, ServeConfig, ServeManager, SessionSource, SessionSpec, SessionState,
    SessionSummary, StreamReport, Timeline, VmConfig, WindowSpec,
};
use heapdrag::fleet::{optimize_fleet, FleetOptions, InputSelection};
use heapdrag::obs::Registry;
use heapdrag::transform::optimizer::{optimize_iteratively, OptimizerOptions};
use heapdrag::vm::asm::assemble;
use heapdrag::vm::disasm::disassemble;
use heapdrag::vm::retain::RetainConfig;
use heapdrag::vm::{InterpreterKind, Program, SiteId, Vm, VmConfig as RawConfig};
use heapdrag::workloads::workload_by_name;

/// The most rolling-window buckets accepted, `⌈window / advance⌉`: each
/// bucket is allocated up front.
const MAX_WINDOW_BUCKETS: u64 = 1 << 16;

const USAGE: &str = "usage:
  heapdrag run      <prog> [input ints...]
  heapdrag compile  <prog.hdj> -o <out.hdasm>
  heapdrag profile  <prog> -o <out.log> [--log-format text|binary]
                    [--interval-kb N] [--live-window <bytes>|unbounded]
                    [--retain-sample <rate>] [input ints...]
  heapdrag live     <workload | prog> [--window <bytes>|unbounded]
                    [--retain-sample <rate>]
                    [--advance N] [--cold-after N] [--every N]
                    [--snapshot-out <path>] [input ints...]
  heapdrag report   <log file | -> [--top N] [--shards N] [--chunk-records N]
                    (`analyze` is an alias; `-` streams the trace from stdin)
  heapdrag inspect  <log file | -> <rank> [--shards N]   (lifetime histograms of the rank-th site)
  heapdrag timeline <prog> [input ints...]
  heapdrag optimize <prog> -o <out.hdasm> [input ints...]
  heapdrag optimize-fleet [--workloads <a,b,...>] [--input default|alternate|both]
                    [--rounds N] [--pool N] [--shards N] [--chunk-records N]
                    [--json <path>] [--out-dir <dir>]
  heapdrag serve    [--spool <dir>] [--socket <path>] [--pool N] [--drivers N]
                    [--budget-chunks N] [--top N] (+ log ingestion flags)
  heapdrag submit   <socket> <log file | -> [--name NAME] [--shards N]
                    [--chunk-records N] [--salvage]
  heapdrag sessions <socket>
  heapdrag fleet-report <log file>... | --socket <path>  [--top N]

common flags:
  --metrics-out <path>   write a metrics snapshot on exit (JSON; Prometheus
                         text format if <path> ends in .prom)
  --verbose-metrics      print per-shard parse/analyze timings to stderr
  --interpreter <kind>   VM dispatch loop for run/profile/timeline/optimize:
                         `fast` (pre-decoded, the default) or `reference`
                         (the step-at-a-time oracle); observably identical
  --retain-sample <r>    profile/live/optimize-fleet: sample traced edges
                         during full-heap GC marks at rate r in [0,1]; each
                         sample records a bounded root-anchored retaining
                         path (`retain` log lines / tag-05 frames, a
                         retaining-paths report section). 0 disables
                         sampling and output is byte-identical to omitting
                         the flag; the sampler is seeded, so any r is
                         deterministic for a given program + input

profile flags:
  --log-format <fmt>     trace encoding: `text` (heapdrag-log v1, the
                         default) or `binary` (HDLOG v2 frames, ~2x
                         smaller and faster to ingest); readers autodetect

live flags (live / profile --live-window):
  --window <bytes>       rolling snapshot window in allocation-clock bytes;
                         `unbounded` (the default) accumulates forever, and
                         then the final report is byte-identical to `report`
                         over a log of the same run
  --advance <bytes>      rolling-window bucket advance (default: window/8);
                         window/advance, rounded up, is at most 65536
  --cold-after <bytes>   idle allocation-clock bytes before a resident
                         object counts as cold (default 262144)
  --every <bytes>        snapshot every N bytes of allocation (default
                         524288)
  --snapshot-out <path>  write snapshots to <path> instead of stdout
                         (the final report always goes to stdout)

log ingestion flags (report / analyze / inspect):
  --strict               abort at the first malformed log line (default)
  --salvage              drop corrupt lines, repair a missing end marker,
                         and append a salvage summary to the report
  --max-errors <N>       with --salvage: fail with E008 when more than N
                         errors accumulate

optimize-fleet flags:
  --workloads <a,b,...>  comma-separated benchmark names (default: all nine)
  --input <which>        profile the `default` (Table 2) input, the
                         `alternate` (Table 3) one, or `both` as separate jobs
  --rounds <N>           max profile -> rewrite -> re-profile rounds per job
  --pool <N>             fleet worker threads (one job per workload x input)
  --json <path>          also write the scoreboard as stable JSON
  --out-dir <dir>        write each verified optimized program as
                         <workload>-<input>.hdasm (rejected rewrites never
                         reach disk)
  --shards/--chunk-records shard the per-job ranking pipeline; the
                         scoreboard is byte-identical at any setting

serve flags:
  --spool <dir>          submit every file in <dir> as a session, then (if
                         no --socket) drain and print the fleet report
  --socket <path>        accept SUBMIT/SESSIONS/FLEET/CANCEL/PING/SHUTDOWN
                         on a unix socket until SHUTDOWN arrives
  --pool <N>             decode worker threads shared by all sessions
  --drivers <N>          maximum concurrently *running* sessions
  --budget-chunks <N>    fleet-wide in-flight-chunk budget (admission
                         control); each session charges 2*max(shards,1)
  --shards/--chunk-records/--salvage/--max-errors set the default
  per-session pipeline; SUBMIT may override shards/chunk/mode per session

<prog> is either bytecode assembly (.hdasm) or mini-Java source (.hdj).";

struct Args {
    positional: Vec<String>,
    output: Option<String>,
    interval_kb: Option<u64>,
    top: usize,
    parallel: ParallelConfig,
    ingest: IngestConfig,
    strict_flag: bool,
    log_format: LogFormat,
    metrics_out: Option<String>,
    verbose_metrics: bool,
    spool: Option<String>,
    socket: Option<String>,
    name: Option<String>,
    pool: Option<usize>,
    drivers: Option<usize>,
    budget_chunks: Option<u64>,
    interpreter: InterpreterKind,
    workloads: Vec<String>,
    rounds: Option<usize>,
    input_sel: Option<String>,
    json_out: Option<String>,
    out_dir: Option<String>,
    /// `--window`: `Some(None)` = explicit `unbounded`, `Some(Some(n))` =
    /// rolling over the last `n` bytes.
    window: Option<Option<u64>>,
    /// `--live-window` (the `profile` variant), same encoding.
    live_window: Option<Option<u64>>,
    retain_sample: Option<f64>,
    advance: Option<u64>,
    cold_after: Option<u64>,
    every: Option<u64>,
    snapshot_out: Option<String>,
}

/// Parses a numeric flag value that must be a positive integer. Zero and
/// garbage get the same stable one-line error.
fn parse_positive<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!(
            "bad {flag}: expected a positive integer, got `{v}`"
        )),
    }
}

/// Parses a window spec: `unbounded` (`None`) or a positive byte count.
fn parse_window_spec(flag: &str, v: &str) -> Result<Option<u64>, String> {
    if v == "unbounded" {
        Ok(None)
    } else {
        parse_positive(flag, v).map(Some)
    }
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        output: None,
        interval_kb: None,
        top: 10,
        parallel: ParallelConfig::sequential(),
        ingest: IngestConfig::strict(),
        strict_flag: false,
        log_format: LogFormat::default(),
        metrics_out: None,
        verbose_metrics: false,
        spool: None,
        socket: None,
        name: None,
        pool: None,
        drivers: None,
        budget_chunks: None,
        interpreter: InterpreterKind::default(),
        workloads: Vec::new(),
        rounds: None,
        input_sel: None,
        json_out: None,
        out_dir: None,
        window: None,
        live_window: None,
        retain_sample: None,
        advance: None,
        cold_after: None,
        every: None,
        snapshot_out: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => {
                args.output = Some(it.next().ok_or("-o needs a path")?.clone());
            }
            "--interval-kb" => {
                let v = it.next().ok_or("--interval-kb needs a number")?;
                args.interval_kb = Some(parse_positive("--interval-kb", v)?);
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a number")?;
                args.top = parse_positive("--top", v)?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a number")?;
                args.parallel.shards = parse_positive("--shards", v)?;
            }
            "--chunk-records" => {
                let v = it.next().ok_or("--chunk-records needs a number")?;
                args.parallel.chunk_records = parse_positive("--chunk-records", v)?;
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
            }
            "--verbose-metrics" => {
                args.verbose_metrics = true;
            }
            "--salvage" => {
                args.ingest.mode = IngestMode::Salvage;
            }
            "--strict" => {
                args.strict_flag = true;
            }
            "--log-format" => {
                let v = it.next().ok_or("--log-format needs text|binary")?;
                args.log_format = v.parse()?;
            }
            "--max-errors" => {
                let v = it.next().ok_or("--max-errors needs a number")?;
                args.ingest.max_errors = Some(v.parse().map_err(|_| "bad --max-errors")?);
            }
            "--spool" => {
                args.spool = Some(it.next().ok_or("--spool needs a directory")?.clone());
            }
            "--socket" => {
                args.socket = Some(it.next().ok_or("--socket needs a path")?.clone());
            }
            "--name" => {
                args.name = Some(it.next().ok_or("--name needs a name")?.clone());
            }
            "--pool" => {
                let v = it.next().ok_or("--pool needs a number")?;
                args.pool = Some(parse_positive("--pool", v)?);
            }
            "--drivers" => {
                let v = it.next().ok_or("--drivers needs a number")?;
                args.drivers = Some(parse_positive("--drivers", v)?);
            }
            "--budget-chunks" => {
                let v = it.next().ok_or("--budget-chunks needs a number")?;
                args.budget_chunks = Some(parse_positive("--budget-chunks", v)?);
            }
            "--workloads" => {
                let v = it
                    .next()
                    .ok_or("--workloads needs a comma-separated list")?;
                args.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a number")?;
                args.rounds = Some(parse_positive("--rounds", v)?);
            }
            "--window" => {
                let v = it.next().ok_or("--window needs <bytes>|unbounded")?;
                args.window = Some(parse_window_spec("--window", v)?);
            }
            "--live-window" => {
                let v = it.next().ok_or("--live-window needs <bytes>|unbounded")?;
                args.live_window = Some(parse_window_spec("--live-window", v)?);
            }
            "--retain-sample" => {
                let v = it.next().ok_or("--retain-sample needs a rate in [0,1]")?;
                let rate: f64 = v.parse().map_err(|_| {
                    format!("bad --retain-sample: expected a rate in [0,1], got `{v}`")
                })?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!(
                        "bad --retain-sample: expected a rate in [0,1], got `{v}`"
                    ));
                }
                args.retain_sample = Some(rate);
            }
            "--advance" => {
                let v = it.next().ok_or("--advance needs a number")?;
                args.advance = Some(parse_positive("--advance", v)?);
            }
            "--cold-after" => {
                let v = it.next().ok_or("--cold-after needs a number")?;
                args.cold_after = Some(parse_positive("--cold-after", v)?);
            }
            "--every" => {
                let v = it.next().ok_or("--every needs a number")?;
                args.every = Some(parse_positive("--every", v)?);
            }
            "--snapshot-out" => {
                args.snapshot_out = Some(it.next().ok_or("--snapshot-out needs a path")?.clone());
            }
            "--input" => {
                args.input_sel = Some(
                    it.next()
                        .ok_or("--input needs default|alternate|both")?
                        .clone(),
                );
            }
            "--json" => {
                args.json_out = Some(it.next().ok_or("--json needs a path")?.clone());
            }
            "--out-dir" => {
                args.out_dir = Some(it.next().ok_or("--out-dir needs a directory")?.clone());
            }
            "--interpreter" => {
                let v = it.next().ok_or("--interpreter needs fast|reference")?;
                args.interpreter = match v.as_str() {
                    "fast" => InterpreterKind::Fast,
                    "reference" => InterpreterKind::Reference,
                    _ => return Err(format!("bad --interpreter `{v}` (fast|reference)")),
                };
            }
            // `-` (stdin) and negative inputs such as `-3` stay positional.
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => args.positional.push(other.to_string()),
        }
    }
    if args.strict_flag && args.ingest.is_salvage() {
        return Err("--strict and --salvage are mutually exclusive".into());
    }
    if args.ingest.max_errors.is_some() && !args.ingest.is_salvage() {
        return Err("--max-errors requires --salvage".into());
    }
    let rolling = matches!(args.window, Some(Some(_))) || matches!(args.live_window, Some(Some(_)));
    if args.advance.is_some() && !rolling {
        return Err("--advance requires a rolling --window <bytes>".into());
    }
    // Every window bucket is allocated up front.
    for (flag, window) in [
        ("--window", args.window),
        ("--live-window", args.live_window),
    ] {
        if let (Some(Some(w)), Some(a)) = (window, args.advance) {
            let buckets = w.div_ceil(a);
            if buckets > MAX_WINDOW_BUCKETS {
                return Err(format!(
                    "bad --advance: {flag} {w} at --advance {a} makes {buckets} window buckets, \
                     at most {MAX_WINDOW_BUCKETS}"
                ));
            }
        }
    }
    Ok(args)
}

/// Builds the [`Pipeline`] the log-reading commands share from the parsed
/// command-line flags.
fn pipeline_for(parallel: &ParallelConfig, ingest: &IngestConfig) -> Pipeline {
    let mut pipe = Pipeline::options()
        .shards(parallel.shards)
        .chunk_records(parallel.chunk_records);
    if ingest.is_salvage() {
        pipe = pipe.salvage(ingest.max_errors);
    }
    pipe
}

/// Builds the [`ServeConfig`] for `serve` and offline `fleet-report`:
/// host-sized defaults with the command-line pool/driver/budget overrides
/// and the flag-built default pipeline. The manager publishes into
/// `registry` when `--metrics-out` attached one.
fn serve_config_for(args: &Args, registry: Option<&Registry>) -> ServeConfig {
    let mut config = ServeConfig {
        pipeline: pipeline_for(&args.parallel, &args.ingest),
        ..ServeConfig::default()
    };
    if let Some(r) = registry {
        config.registry = r.clone();
    }
    if let Some(n) = args.pool {
        config.pool_workers = n;
    }
    if let Some(n) = args.drivers {
        config.drivers = n;
    }
    if let Some(n) = args.budget_chunks {
        config.budget_chunks = n;
    }
    config
}

/// One stderr line per session: id, state, cost, record count, queued and
/// running durations, name, and the error (if any) — the same shape the
/// socket `SESSIONS` reply uses. A large `queued_ms` against a small
/// `run_ms` means admission (budget or drivers), not the trace, was the
/// bottleneck.
fn session_line(s: &SessionSummary) -> String {
    format!(
        "{}\t{}\tcost={}\trecords={}\tqueued_ms={}\trun_ms={}\t{}{}",
        s.id,
        s.state,
        s.cost,
        s.records,
        s.queued_for.as_millis(),
        s.running_for.as_millis(),
        s.name,
        s.error
            .as_deref()
            .map(|e| format!("\t({e})"))
            .unwrap_or_default()
    )
}

/// Drains `manager`, prints per-session summaries to stderr and the fleet
/// report to stdout, then shuts the manager down. Errors if any session
/// failed, so scripted spool runs exit nonzero on bad traces.
fn drain_and_report(mut manager: ServeManager, top: usize) -> Result<(), String> {
    manager.wait_idle();
    let mut failed = 0usize;
    for s in manager.sessions() {
        if s.state == SessionState::Failed || s.state == SessionState::Rejected {
            failed += 1;
        }
        eprintln!("{}", session_line(&s));
    }
    print!("{}", manager.fleet_report(top));
    manager.shutdown();
    if failed > 0 {
        return Err(format!("{failed} session(s) failed or were rejected"));
    }
    Ok(())
}

/// The session name for a submitted log path: its file name, or `stdin`.
fn session_name(log_path: &str) -> String {
    if log_path == "-" {
        return "stdin".to_string();
    }
    Path::new(log_path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| log_path.to_string())
}

/// Opens the trace source for the log-reading commands: a file path, or
/// stdin when the path is `-`. The streaming pipeline does its own
/// block-sized reads, so no buffering layer is needed here.
fn open_trace(path: &str) -> Result<Box<dyn std::io::Read>, String> {
    if path == "-" {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Box::new(file))
    }
}

/// Publishes the log-I/O metrics every log-reading command emits: total
/// bytes by detected format, decode wall-clock, and the streaming
/// `heapdrag_ingest_*` family (buffer high-water mark, backpressure
/// stalls).
fn publish_log_io(
    registry: &Registry,
    salvage: &SalvageSummary,
    stats: &heapdrag::core::StreamStats,
    decode_elapsed: std::time::Duration,
) {
    registry
        .counter(&format!(
            "heapdrag_log_bytes_total{{format=\"{}\"}}",
            salvage.format
        ))
        .add(stats.bytes_read);
    registry
        .histogram("heapdrag_log_decode_us")
        .observe_duration(decode_elapsed);
    stats.publish_metrics(registry);
}

/// Streams and analyzes a trace in bounded memory under the configured
/// sharding and ingest mode — the `report`/`analyze` path. The trace
/// format (text `heapdrag-log v1` or HDLOG v2 binary) is autodetected
/// from the stream's first bytes; `-` reads from stdin. Records fold
/// into per-site aggregates as chunks decode, so no record vector is
/// ever materialised. Stage instrumentation goes into `registry` (when
/// one is attached via `--metrics-out`) and is printed to stderr only
/// under `--verbose-metrics`. In salvage mode the report's
/// [`SalvageSummary`] says what was dropped or repaired and the
/// `heapdrag_salvage_*` family is published.
fn analyze_log_stream(
    path: &str,
    parallel: &ParallelConfig,
    ingest: &IngestConfig,
    registry: Option<&Registry>,
    verbose: bool,
) -> Result<StreamReport, String> {
    let reader = open_trace(path)?;
    let decode_start = std::time::Instant::now();
    let streamed = pipeline_for(parallel, ingest)
        .analyze_reader(reader)
        .map_err(|e| e.to_string())?;
    let decode_elapsed = decode_start.elapsed();
    if verbose {
        eprint!("{}", streamed.parse_metrics.render("parse"));
        eprint!("{}", streamed.analyze_metrics.render("analyze"));
    }
    if let Some(registry) = registry {
        publish_log_io(registry, &streamed.salvage, &streamed.stats, decode_elapsed);
        streamed.parse_metrics.publish("parse", registry);
        streamed.analyze_metrics.publish("analyze", registry);
        streamed.publish_metrics(registry);
        streamed.report.publish_metrics(registry);
        if streamed.salvage.salvage {
            streamed.salvage.publish_metrics(registry);
        }
    }
    Ok(streamed)
}

/// Like [`analyze_log_stream`] but materialises the record vector —
/// `inspect` needs the raw records to build per-site lifetime
/// histograms. The trace still streams in through the bounded-memory
/// reader; only the kept records are retained.
fn ingest_log_stream(
    path: &str,
    parallel: &ParallelConfig,
    ingest: &IngestConfig,
    registry: Option<&Registry>,
    verbose: bool,
) -> Result<
    (
        heapdrag::core::log::ParsedLog,
        heapdrag::core::DragReport,
        SalvageSummary,
    ),
    String,
> {
    let reader = open_trace(path)?;
    let pipe = pipeline_for(parallel, ingest);
    let decode_start = std::time::Instant::now();
    let (ingested, stats) = pipe.ingest_reader(reader).map_err(|e| e.to_string())?;
    let decode_elapsed = decode_start.elapsed();
    let (parsed, parse_metrics, salvage) = (ingested.log, ingested.metrics, ingested.salvage);
    let (report, analyze_metrics) = pipe.analyze_records(&parsed.records, |c| Some(SiteId(c.0)));
    if verbose {
        eprint!("{}", parse_metrics.render("parse"));
        eprint!("{}", analyze_metrics.render("analyze"));
    }
    if let Some(registry) = registry {
        publish_log_io(registry, &salvage, &stats, decode_elapsed);
        parse_metrics.publish("parse", registry);
        analyze_metrics.publish("analyze", registry);
        parsed.publish_metrics(registry);
        report.publish_metrics(registry);
        if salvage.salvage {
            salvage.publish_metrics(registry);
        }
    }
    Ok((parsed, report, salvage))
}

/// Builds the [`LiveOptions`] for `live` / `profile --live-window` from
/// the flags; `window` is the already-selected spec (`None` = unbounded).
fn live_options_for(args: &Args, window: Option<u64>) -> LiveOptions {
    let mut options = LiveOptions {
        top: args.top,
        ..LiveOptions::default()
    };
    if let Some(w) = window {
        let advance = args.advance.unwrap_or_else(|| (w / 8).max(1));
        options.window = WindowSpec::Rolling { window: w, advance };
    }
    if let Some(n) = args.cold_after {
        options.cold_after = n;
    }
    if let Some(n) = args.every {
        options.every = n;
    }
    options
}

/// Where live snapshots go: `--snapshot-out <path>`, or stdout.
fn snapshot_sink(args: &Args) -> Result<Box<dyn std::io::Write>, String> {
    Ok(match &args.snapshot_out {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?,
        )),
        None => Box::new(std::io::stdout()),
    })
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = if path.ends_with(".hdj") {
        heapdrag::lang::compile_source(&text).map_err(|e| format!("{path}: {e}"))?
    } else {
        assemble(&text).map_err(|e| format!("{path}: {e}"))?
    };
    Ok(program)
}

fn input_ints(args: &[String]) -> Result<Vec<i64>, String> {
    args.iter()
        .map(|a| a.parse().map_err(|_| format!("bad input int `{a}`")))
        .collect()
}

fn run_main() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = raw.first().cloned().ok_or(USAGE)?;
    let args = parse_args(&raw[1..])?;
    let registry = args.metrics_out.as_ref().map(|_| Registry::new());
    let config = {
        let mut c = VmConfig::profiling();
        if let Some(kb) = args.interval_kb {
            c.deep_gc_interval = Some(kb * 1024);
        }
        c.interpreter = args.interpreter;
        // `from_rate` returns `None` at rate 0: the sampler is absent and
        // logs/reports are byte-identical to a run without the flag.
        if let Some(rate) = args.retain_sample {
            c.retain = RetainConfig::from_rate(rate);
        }
        c
    };
    let plain_config = RawConfig {
        interpreter: args.interpreter,
        ..RawConfig::default()
    };

    match command.as_str() {
        "run" => {
            let prog_path = args.positional.first().ok_or(USAGE)?;
            let program = load_program(prog_path)?;
            let input = input_ints(&args.positional[1..])?;
            let mut vm = Vm::new(&program, plain_config.clone());
            if let Some(r) = &registry {
                vm.attach_metrics(r);
            }
            let outcome = vm.run(&input).map_err(|e| e.to_string())?;
            for v in &outcome.output {
                println!("{v}");
            }
            eprintln!(
                "[{} steps, {} bytes allocated, {} objects]",
                outcome.steps, outcome.heap.allocated_bytes, outcome.heap.allocated_objects
            );
        }
        "profile" => {
            let prog_path = args.positional.first().ok_or(USAGE)?;
            let out = args.output.as_deref().ok_or("profile needs -o <log>")?;
            let program = load_program(prog_path)?;
            let input = input_ints(&args.positional[1..])?;
            let run = if let Some(window) = args.live_window {
                // One-shot live mode: snapshots while the VM runs, then
                // the same log bytes the file-logging profiler writes.
                let options = live_options_for(&args, window);
                let mut sink = snapshot_sink(&args)?;
                let live = run_live(
                    &program,
                    &input,
                    config,
                    &options,
                    registry.as_ref(),
                    |s: &str| {
                        let _ = sink.write_all(s.as_bytes());
                        let _ = sink.write_all(b"\n");
                    },
                )
                .map_err(|e| e.to_string())?;
                sink.flush().map_err(|e| e.to_string())?;
                eprintln!(
                    "live: {} snapshot(s), {} dropped event(s), {} unmatched",
                    live.snapshots, live.dropped, live.unmatched
                );
                ProfileRun {
                    records: live.records,
                    samples: live.samples,
                    retains: live.retains,
                    sites: live.sites,
                    outcome: live.outcome,
                }
            } else {
                profile_with(&program, &input, config, registry.as_ref())
                    .map_err(|e| e.to_string())?
            };
            let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
            let mut writer = std::io::BufWriter::new(file);
            let encode_start = std::time::Instant::now();
            let log_bytes = run
                .write_log_to(&program, args.log_format, &mut writer)
                .and_then(|n| {
                    writer.flush()?;
                    Ok(n)
                })
                .map_err(|e| format!("{out}: {e}"))?;
            if let Some(r) = &registry {
                r.counter(&format!(
                    "heapdrag_log_bytes_total{{format=\"{}\"}}",
                    args.log_format
                ))
                .add(log_bytes);
                r.histogram("heapdrag_log_encode_us")
                    .observe_duration(encode_start.elapsed());
            }
            eprintln!(
                "profiled: {} objects, {} deep GCs, end time {} bytes -> {out} ({} log, {log_bytes} bytes)",
                run.records.len(),
                run.outcome.deep_gcs,
                run.outcome.end_time,
                args.log_format
            );
        }
        "live" => {
            let target = args.positional.first().ok_or(USAGE)?;
            // A workload name runs that benchmark on its default input
            // (unless ints are given); anything else is a program path.
            let (program, input) = match workload_by_name(target) {
                Some(w) => {
                    let input = if args.positional.len() > 1 {
                        input_ints(&args.positional[1..])?
                    } else {
                        (w.default_input)()
                    };
                    (w.original(), input)
                }
                None => (load_program(target)?, input_ints(&args.positional[1..])?),
            };
            let options = live_options_for(&args, args.window.flatten());
            let mut sink = snapshot_sink(&args)?;
            let live = run_live(
                &program,
                &input,
                config,
                &options,
                registry.as_ref(),
                |s: &str| {
                    let _ = sink.write_all(s.as_bytes());
                    let _ = sink.write_all(b"\n");
                },
            )
            .map_err(|e| e.to_string())?;
            sink.flush().map_err(|e| e.to_string())?;
            print!(
                "{}",
                ReportSections::standard(&live.report, &live)
                    .top(args.top)
                    .coldness(&live.coldness)
                    .render()
            );
            eprintln!(
                "live: {} records ({} at exit), {} deep GCs, {} snapshot(s), {} dropped, {} unmatched, end time {} bytes",
                live.records.len(),
                live.records.iter().filter(|r| r.at_exit).count(),
                live.samples.len(),
                live.snapshots,
                live.dropped,
                live.unmatched,
                live.end_time
            );
        }
        "compile" => {
            let prog_path = args.positional.first().ok_or(USAGE)?;
            let out = args.output.as_deref().ok_or("compile needs -o <file>")?;
            let program = load_program(prog_path)?;
            std::fs::write(out, disassemble(&program)).map_err(|e| e.to_string())?;
            eprintln!(
                "compiled {prog_path} -> {out} ({} classes, {} methods, {} instructions)",
                program.classes.len(),
                program.methods.len(),
                program.code_size()
            );
        }
        "report" | "analyze" => {
            let log_path = args.positional.first().ok_or(USAGE)?;
            let streamed = analyze_log_stream(
                log_path,
                &args.parallel,
                &args.ingest,
                registry.as_ref(),
                args.verbose_metrics,
            )?;
            let mut sections = ReportSections::standard(&streamed.report, &streamed).top(args.top);
            if streamed.salvage.salvage {
                sections = sections.salvage_footer(&streamed.salvage);
            }
            print!("{}", sections.render());
        }
        "inspect" => {
            let log_path = args.positional.first().ok_or(USAGE)?;
            let rank: usize = args
                .positional
                .get(1)
                .ok_or("inspect needs a site rank (1 = highest drag)")?
                .parse()
                .map_err(|_| "bad rank")?;
            let (parsed, report, _salvage) = ingest_log_stream(
                log_path,
                &args.parallel,
                &args.ingest,
                registry.as_ref(),
                args.verbose_metrics,
            )?;
            let entry = report
                .by_nested_site
                .get(rank.saturating_sub(1))
                .ok_or_else(|| format!("only {} sites", report.by_nested_site.len()))?;
            use heapdrag::core::ChainNamer;
            println!("site #{rank}: {}", parsed.chain_name(entry.site));
            println!(
                "pattern: {}   suggested rewriting: {}\n",
                entry.stats.pattern,
                entry.stats.suggested_transform()
            );
            let histogram =
                heapdrag::core::LifetimeHistogram::for_site(&parsed.records, entry.site, 1024);
            print!("{}", histogram.render());
        }
        "timeline" => {
            let prog_path = args.positional.first().ok_or(USAGE)?;
            let program = load_program(prog_path)?;
            let input = input_ints(&args.positional[1..])?;
            let run = profile_with(&program, &input, config, registry.as_ref())
                .map_err(|e| e.to_string())?;
            let timeline = Timeline::from_run(&run);
            print!("{}", timeline.ascii_chart(12));
        }
        "optimize" => {
            let prog_path = args.positional.first().ok_or(USAGE)?;
            let out = args.output.as_deref().ok_or("optimize needs -o <file>")?;
            let mut program = load_program(prog_path)?;
            let original = program.clone();
            let input = input_ints(&args.positional[1..])?;
            let outcome =
                optimize_iteratively(&mut program, &input, config, OptimizerOptions::default(), 3)
                    .map_err(|e| e.to_string())?;
            for a in &outcome.applied {
                eprintln!("applied [{}] {}", a.kind, a.detail);
            }
            // Behavioural check before writing anything.
            let before = Vm::new(&original, plain_config.clone())
                .run(&input)
                .map_err(|e| e.to_string())?;
            let after = Vm::new(&program, plain_config.clone())
                .run(&input)
                .map_err(|e| e.to_string())?;
            if before.output != after.output {
                return Err("optimizer changed program output; refusing to write".into());
            }
            std::fs::write(out, disassemble(&program)).map_err(|e| e.to_string())?;
            eprintln!(
                "optimized program written to {out} ({} rewrites; allocation {} -> {} bytes)",
                outcome.applied.len(),
                before.heap.allocated_bytes,
                after.heap.allocated_bytes
            );
        }
        "optimize-fleet" => {
            let mut options = FleetOptions {
                workloads: args.workloads.clone(),
                shards: args.parallel.shards,
                chunk_records: args.parallel.chunk_records,
                interpreter: args.interpreter,
                ..FleetOptions::default()
            };
            if let Some(sel) = &args.input_sel {
                options.inputs = InputSelection::parse(sel)
                    .ok_or_else(|| format!("bad --input `{sel}` (default|alternate|both)"))?;
            }
            if let Some(n) = args.rounds {
                options.rounds = n;
            }
            if let Some(n) = args.pool {
                options.pool_workers = n;
            }
            if let Some(rate) = args.retain_sample {
                options.retain = RetainConfig::from_rate(rate);
            }
            let scoreboard = optimize_fleet(&options, registry.as_ref())?;
            // Per-job progress lines to stderr, in deterministic fleet
            // order (the jobs themselves ran concurrently on the pool).
            for j in &scoreboard.jobs {
                eprintln!(
                    "{}/{}: {} round(s), {} applied, {} rejected, drag reduced {:.2}%{}",
                    j.workload,
                    j.input,
                    j.rounds_run,
                    j.applied.len(),
                    j.outcome_count(heapdrag::transform::RewriteOutcome::RejectedByAnalysis)
                        + j.outcome_count(heapdrag::transform::RewriteOutcome::RejectedByVerify),
                    j.reduction_pct(),
                    j.error
                        .as_deref()
                        .map(|e| format!(" [FAILED: {e}]"))
                        .unwrap_or_default(),
                );
            }
            print!("{}", scoreboard.render_text());
            if let Some(path) = &args.json_out {
                std::fs::write(path, scoreboard.render_json())
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!("scoreboard json -> {path}");
            }
            if let Some(dir) = &args.out_dir {
                let written = scoreboard
                    .write_revised(Path::new(dir))
                    .map_err(|e| format!("{dir}: {e}"))?;
                eprintln!("{} optimized program(s) -> {dir}", written.len());
            }
            let failed = scoreboard.jobs.iter().filter(|j| j.error.is_some()).count();
            if failed > 0 {
                return Err(format!("{failed} fleet job(s) failed"));
            }
        }
        "serve" => {
            if args.spool.is_none() && args.socket.is_none() {
                return Err("serve needs --spool <dir> and/or --socket <path>".into());
            }
            let manager = ServeManager::new(serve_config_for(&args, registry.as_ref()));
            if let Some(dir) = &args.spool {
                let ids =
                    submit_spool(&manager, Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
                eprintln!("spooled {} session(s) from {dir}", ids.len());
            }
            if let Some(path) = &args.socket {
                #[cfg(unix)]
                {
                    let _ = std::fs::remove_file(path);
                    let listener = std::os::unix::net::UnixListener::bind(path)
                        .map_err(|e| format!("{path}: {e}"))?;
                    eprintln!("serving on {path} (SUBMIT/SESSIONS/FLEET/CANCEL/PING/SHUTDOWN)");
                    let served = heapdrag::core::serve::serve_socket(&manager, &listener);
                    let _ = std::fs::remove_file(path);
                    served.map_err(|e| e.to_string())?;
                }
                #[cfg(not(unix))]
                return Err(format!("--socket {path} needs a unix platform"));
            }
            drain_and_report(manager, args.top)?;
        }
        #[cfg(unix)]
        "submit" => {
            let socket = args
                .positional
                .first()
                .ok_or("submit needs <socket> <log|->")?;
            let log_path = args
                .positional
                .get(1)
                .ok_or("submit needs <socket> <log|->")?;
            let name = args.name.clone().unwrap_or_else(|| session_name(log_path));
            let mut overrides = Vec::new();
            if args.parallel.shards != ParallelConfig::sequential().shards {
                overrides.push(format!("shards={}", args.parallel.shards));
            }
            if args.parallel.chunk_records != ParallelConfig::sequential().chunk_records {
                overrides.push(format!("chunk={}", args.parallel.chunk_records));
            }
            if args.ingest.is_salvage() {
                overrides.push("mode=salvage".to_string());
            }
            let mut trace = open_trace(log_path)?;
            let reply = heapdrag::core::serve::client_submit(
                Path::new(socket),
                &name,
                &overrides.join(" "),
                trace.as_mut(),
            )
            .map_err(|e| format!("{socket}: {e}"))?;
            print!("{reply}");
            if reply.starts_with("error:") {
                return Err(format!("session `{name}` was not completed"));
            }
        }
        #[cfg(unix)]
        "sessions" => {
            let socket = args.positional.first().ok_or("sessions needs <socket>")?;
            let reply = heapdrag::core::serve::client_command(Path::new(socket), "SESSIONS")
                .map_err(|e| format!("{socket}: {e}"))?;
            print!("{reply}");
        }
        "fleet-report" => {
            if let Some(socket) = &args.socket {
                #[cfg(unix)]
                {
                    let reply = heapdrag::core::serve::client_command(
                        Path::new(socket),
                        &format!("FLEET {}", args.top),
                    )
                    .map_err(|e| format!("{socket}: {e}"))?;
                    print!("{reply}");
                }
                #[cfg(not(unix))]
                return Err(format!("--socket {socket} needs a unix platform"));
            } else {
                if args.positional.is_empty() {
                    return Err("fleet-report needs <log>... or --socket <path>".into());
                }
                let manager = ServeManager::new(serve_config_for(&args, registry.as_ref()));
                for p in &args.positional {
                    manager.submit(SessionSpec::new(
                        session_name(p),
                        SessionSource::Path(p.into()),
                    ));
                }
                drain_and_report(manager, args.top)?;
            }
        }
        "report-sites" | "help" | "--help" | "-h" => {
            println!("{USAGE}");
        }
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    }

    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        let rendered = if path.ends_with(".prom") {
            registry.render_prometheus()
        } else {
            registry.render_json()
        };
        std::fs::write(path, rendered).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("metrics snapshot -> {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("heapdrag: {e}");
            ExitCode::FAILURE
        }
    }
}
