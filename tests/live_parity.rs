//! Live-vs-post-mortem differential suite: with an unbounded window, the
//! in-process live path (VM → `DragProfiler` → drag fold, all on the
//! VM thread) must reproduce the file-logging post-mortem path
//! *byte-identically* — the trailer records, the GC samples, and the
//! rendered report — for all nine workloads, against the `report` output at both trace formats and
//! shards 1/4/7. And it must do so while actually being live: every run
//! asserts at least one intermediate snapshot carrying coldness data,
//! zero dropped events, and zero unmatched events.

use heapdrag::core::{
    profile, run_live, LiveOptions, LogFormat, Pipeline, ProfileRun, ReportSections, VmConfig,
};
use heapdrag::vm::retain::RetainConfig;
use heapdrag::vm::Program;
use heapdrag::workloads::{all_workloads, workload_by_name};

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("writes");
    buf
}

#[test]
fn unbounded_live_reproduces_the_post_mortem_report_for_all_nine_workloads() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), 9, "the paper's nine benchmarks");
    for w in workloads {
        let program = w.original();
        let input = (w.default_input)();
        let run = profile(&program, &input, VmConfig::profiling())
            .unwrap_or_else(|e| panic!("{}: profiles: {e}", w.name));

        // Snapshot four times over the run so "live" is not vacuous.
        let every = (run.outcome.end_time / 4).max(1);
        let mut snapshots = Vec::new();
        let live = run_live(
            &program,
            &input,
            VmConfig::profiling(),
            &LiveOptions {
                every,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snapshots.push(s.to_string()),
        )
        .unwrap_or_else(|e| panic!("{}: live run: {e}", w.name));

        assert_eq!(live.dropped, 0, "{}: ring dropped events", w.name);
        assert_eq!(live.unmatched, 0, "{}: unmatched events", w.name);
        assert!(live.snapshots >= 1, "{}: no intermediate snapshot", w.name);
        assert!(
            !live.coldness.is_empty(),
            "{}: no per-site coldness data",
            w.name
        );
        assert!(
            snapshots.iter().all(|s| s.contains("cold (idle >=")),
            "{}: snapshots lack the coldness line",
            w.name
        );

        // Trailer-level parity: the records the consumer's trailer table
        // built from ring events are exactly the ones the file-logging
        // profiler buffered, in the same order — and so are the GC samples.
        assert_eq!(live.records, run.records, "{}: record parity", w.name);
        assert_eq!(live.samples, run.samples, "{}: sample parity", w.name);
        assert_eq!(live.end_time, run.outcome.end_time, "{}", w.name);

        // Report-level parity: the live final report starts with the
        // exact bytes `report` prints (the coldness section follows),
        // whichever trace format carried the log and at any shard count.
        let final_text = ReportSections::standard(&live.report, &live)
            .coldness(&live.coldness)
            .render();
        for format in [LogFormat::Text, LogFormat::Binary] {
            let bytes = encode(&run, &program, format);
            for shards in [1usize, 4, 7] {
                let streamed = Pipeline::options()
                    .shards(shards)
                    .analyze_reader(&bytes[..])
                    .unwrap_or_else(|e| panic!("{}: {format} streams: {e}", w.name));
                let want = ReportSections::standard(&streamed.report, &streamed).render();
                assert!(
                    final_text.starts_with(&want),
                    "{}: live final report diverges from `report` \
                     ({format}, {shards} shards)\n--- report ---\n{want}\n--- live ---\n{final_text}",
                    w.name
                );
            }
        }
    }
}

/// With retaining-path sampling on, the live run resolves the same
/// samples against its trailer table as the file-logging profiler does,
/// alongside the same records and GC samples.
#[test]
fn live_retain_samples_match_the_profiler_on_retained_workloads() {
    let mut config = VmConfig::profiling();
    config.retain = RetainConfig::from_rate(RetainConfig::DEFAULT_RATE);
    for name in ["db", "raytrace", "mc"] {
        let w = workload_by_name(name).expect("a paper workload");
        let program = w.original();
        let input = (w.default_input)();
        let run = profile(&program, &input, config.clone())
            .unwrap_or_else(|e| panic!("{name}: profiles: {e}"));
        let live = run_live(
            &program,
            &input,
            config.clone(),
            &LiveOptions::default(),
            None,
            |_: &str| {},
        )
        .unwrap_or_else(|e| panic!("{name}: live run: {e}"));
        assert_eq!(live.dropped, 0, "{name}: ring dropped events");
        assert_eq!(live.unmatched, 0, "{name}: unmatched events");
        assert!(!run.retains.is_empty(), "{name}: no retain samples drawn");
        assert_eq!(live.records, run.records, "{name}: record parity");
        assert_eq!(live.samples, run.samples, "{name}: sample parity");
        assert_eq!(live.retains, run.retains, "{name}: retain parity");
    }
}

/// A churn workload snapshotted every 4096 bytes: each snapshot walks
/// every live object on the VM thread, and still every event reaches the
/// fold, so the run returns the profiler's records and the post-mortem
/// report.
#[test]
fn a_dense_snapshot_cadence_loses_no_events() {
    let w = workload_by_name("jess").expect("a paper workload");
    let program = w.original();
    let input = [3000, 30, 28];
    let run = profile(&program, &input, VmConfig::profiling()).expect("jess profiles");
    let mut snapshots = 0u64;
    let live = run_live(
        &program,
        &input,
        VmConfig::profiling(),
        &LiveOptions {
            every: 4096,
            ..LiveOptions::default()
        },
        None,
        |_: &str| snapshots += 1,
    )
    .expect("live run");
    assert_eq!(live.dropped, 0);
    assert_eq!(live.snapshots, snapshots);
    assert!(live.snapshots >= 1_000, "{} snapshots", live.snapshots);
    assert_eq!(live.records, run.records, "record parity");
    let bytes = encode(&run, &program, LogFormat::Binary);
    let streamed = Pipeline::options()
        .analyze_reader(&bytes[..])
        .expect("the log streams");
    assert_eq!(
        ReportSections::standard(&live.report, &live).render(),
        ReportSections::standard(&streamed.report, &streamed).render(),
        "live report differs from the post-mortem one"
    );
}

#[test]
fn live_snapshots_are_deterministic_when_nothing_is_dropped() {
    let w = all_workloads().into_iter().next().expect("a workload");
    let program = w.original();
    let input = (w.default_input)();
    let run_once = || {
        let mut snapshots = Vec::new();
        let live = run_live(
            &program,
            &input,
            VmConfig::profiling(),
            &LiveOptions {
                every: 64 * 1024,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snapshots.push(s.to_string()),
        )
        .expect("live run");
        assert_eq!(live.dropped, 0);
        let final_text = ReportSections::standard(&live.report, &live)
            .coldness(&live.coldness)
            .render();
        (snapshots, final_text)
    };
    let (snaps_a, final_a) = run_once();
    let (snaps_b, final_b) = run_once();
    assert_eq!(snaps_a, snaps_b, "snapshot streams must be identical");
    assert_eq!(final_a, final_b, "final reports must be identical");
    assert!(!snaps_a.is_empty());
}

/// The live snapshot stream of `examples/dragged.hdj` at `--every 2000`,
/// once unbounded and once over a rolling window, plus each run's final
/// report (with its coldness section) and summary line, pinned to
/// `tests/golden/live_snapshots.txt`. `live` prints the snapshots and
/// then the report on stdout, so one capture holds the whole stream.
/// After an intended change, regenerate with
/// `HEAPDRAG_BLESS=1 cargo test --test live_parity` and review the diff.
#[test]
fn live_snapshot_streams_match_the_golden() {
    const GOLDEN: &str = "tests/golden/live_snapshots.txt";
    let runs: [(&str, &[&str]); 2] = [
        ("unbounded", &[]),
        (
            "--window 4096 --advance 1024",
            &["--window", "4096", "--advance", "1024"],
        ),
    ];
    let mut got = String::new();
    for (label, flags) in runs {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_heapdrag"))
            .args(["live", "examples/dragged.hdj", "--every", "2000"])
            .args(flags)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "live {label} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        got.push_str(&format!(
            "### live examples/dragged.hdj --every 2000 ({label})\n"
        ));
        got.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
        got.push_str("### stderr\n");
        got.push_str(&String::from_utf8(out.stderr).expect("utf-8 stderr"));
    }
    if std::env::var_os("HEAPDRAG_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write the live snapshot golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("the live snapshot golden is committed");
    if want != got {
        let line = want
            .lines()
            .zip(got.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "live snapshot stream differs from {GOLDEN} at line {}\n  want: {}\n  got:  {}",
            line + 1,
            want.lines().nth(line).unwrap_or("<end>"),
            got.lines().nth(line).unwrap_or("<end>")
        );
    }
}
