//! The differential metrics oracle: the on-line phase's reconciliation
//! counters (published by the profiler while the VM runs) must agree
//! *exactly* with the counters the off-line phase re-derives from the log
//! file — and the off-line side must publish the same numbers for every
//! shard count, because the sharded ingest is deterministic.
//!
//! Any drift here means an event was double-counted, dropped, or counted
//! on a hot path that races the observer — exactly the bugs a metrics
//! layer exists to catch.

use heapdrag::core::{profile_with, Pipeline, ProfileRun, ReportSections, VmConfig};
use heapdrag::obs::{Registry, Snapshot};
use heapdrag::vm::{OpcodeClass, Program, SiteId};
use heapdrag::workloads::{all_workloads, workload_by_name};

fn write_log(run: &ProfileRun, program: &Program) -> String {
    let mut buf = Vec::new();
    Pipeline::options()
        .write_to(run, program, &mut buf)
        .expect("writes");
    String::from_utf8(buf).expect("text log is utf-8")
}

/// The counters both phases publish under identical names.
const RECONCILED_COUNTERS: [&str; 5] = [
    "heapdrag_objects_created_total",
    "heapdrag_alloc_bytes_total",
    "heapdrag_objects_reclaimed_total",
    "heapdrag_objects_at_exit_total",
    "heapdrag_deep_gc_samples_total",
];

const END_TIME_GAUGE: &str = "heapdrag_end_time_bytes";

/// Workloads exercised by the oracle: one collection-heavy benchmark
/// (`jess`), one with large at-exit residue (`jack`), and one
/// allocation-site-diverse one (`juru`).
const WORKLOADS: [&str; 3] = ["jess", "jack", "juru"];

fn reconciled(snapshot: &Snapshot) -> Vec<(String, i64)> {
    let mut out: Vec<(String, i64)> = RECONCILED_COUNTERS
        .iter()
        .map(|&k| {
            let v = *snapshot
                .counters
                .get(k)
                .unwrap_or_else(|| panic!("snapshot is missing counter `{k}`"));
            (k.to_string(), i64::try_from(v).unwrap())
        })
        .collect();
    let end = *snapshot
        .gauges
        .get(END_TIME_GAUGE)
        .unwrap_or_else(|| panic!("snapshot is missing gauge `{END_TIME_GAUGE}`"));
    out.push((END_TIME_GAUGE.to_string(), end));
    out
}

/// Runs the off-line phase over `log_text` with `shards` workers into a
/// fresh registry, publishing everything the CLI's `report` command would.
fn offline_snapshot(log_text: &str, shards: usize) -> Snapshot {
    let registry = Registry::new();
    let pipe = Pipeline::options().shards(shards);
    let ingested = pipe.ingest_bytes(log_text).expect("log parses");
    let (parsed, parse_metrics) = (ingested.log, ingested.metrics);
    let (report, analyze_metrics) = pipe.analyze_records(&parsed.records, |c| Some(SiteId(c.0)));
    parse_metrics.publish("parse", &registry);
    analyze_metrics.publish("analyze", &registry);
    parsed.publish_metrics(&registry);
    report.publish_metrics(&registry);
    registry.snapshot()
}

#[test]
fn online_metrics_reconcile_with_offline_for_every_workload_and_shard_count() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("workload exists");
        let program = w.original();
        let input = (w.default_input)();

        let online = Registry::new();
        let run =
            profile_with(&program, &input, VmConfig::profiling(), Some(&online)).expect("profiles");
        let online_snap = online.snapshot();
        let want = reconciled(&online_snap);

        // The on-line counters agree with the run itself.
        assert!(
            run.outcome.deep_gcs > 0,
            "{name}: workload too small to exercise deep GC sampling"
        );
        assert_eq!(
            online_snap.counters["heapdrag_objects_created_total"],
            run.records.len() as u64,
            "{name}: created == records"
        );
        assert_eq!(
            online_snap.counters["heapdrag_deep_gc_samples_total"],
            run.samples.len() as u64,
            "{name}: samples counter == sample list"
        );

        let log_text = write_log(&run, &program);
        for shards in [1usize, 4, 7] {
            let offline_snap = offline_snapshot(&log_text, shards);
            let got = reconciled(&offline_snap);
            assert_eq!(
                want, got,
                "{name}: off-line metrics at --shards {shards} must reconcile with on-line"
            );
        }
    }
}

#[test]
fn offline_reconcilable_surface_is_shard_invariant() {
    // Beyond matching the on-line side, every non-timing off-line metric
    // (counts, group sizes, report gauges) must be identical across shard
    // counts. Timing metrics (`*_us` histograms/gauges) are wall-clock and
    // are excluded.
    let w = workload_by_name("jess").expect("workload exists");
    let run = profile_with(
        &w.original(),
        &(w.default_input)(),
        VmConfig::profiling(),
        None,
    )
    .expect("profiles");
    let log_text = write_log(&run, &w.original());

    let stable = |snap: &Snapshot| -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = Vec::new();
        for (k, v) in &snap.counters {
            // Shard/chunk counts — and per-shard *touched-group* counts,
            // where a group spanning two shards is counted twice —
            // legitimately differ with the worker count; record and
            // sample totals must not.
            if k.ends_with("_shards_total") || k.ends_with("_groups_total") {
                continue;
            }
            out.push((k.clone(), i64::try_from(*v).unwrap()));
        }
        for (k, v) in &snap.gauges {
            if k.ends_with("_us") {
                continue;
            }
            out.push((k.clone(), *v));
        }
        out
    };

    let baseline = offline_snapshot(&log_text, 1);
    let want = stable(&baseline);
    assert!(
        !want.is_empty(),
        "stable surface should contain reconciliation and report metrics"
    );
    for shards in [4usize, 7] {
        let got = stable(&offline_snapshot(&log_text, shards));
        assert_eq!(want, got, "--shards {shards} changed a non-timing metric");
    }
}

#[test]
fn salvaged_corrupt_logs_are_shard_invariant_end_to_end() {
    // Salvage parity: deterministic corruptions of a real workload's log
    // must produce the same ParsedLog, the same SalvageSummary, the same
    // `heapdrag_salvage_*` metric snapshot, and a byte-identical rendered
    // report at --shards 1/4/7. The chunk size is pinned because error
    // chunk indices follow the chunking, which the scan (not the worker
    // count) decides.
    let w = workload_by_name("jess").expect("workload exists");
    let run = profile_with(
        &w.original(),
        &(w.default_input)(),
        VmConfig::profiling(),
        None,
    )
    .expect("profiles");
    let clean = write_log(&run, &w.original());

    // Three deterministic corruptions: a 60% truncation, a deleted record
    // line mid-file, and a duplicated block of lines.
    let truncated = clean[..clean.len() * 60 / 100].to_string();
    let deleted = {
        let lines: Vec<&str> = clean.split_inclusive('\n').collect();
        let mut out = String::new();
        for (i, l) in lines.iter().enumerate() {
            if i != lines.len() / 2 {
                out.push_str(l);
            }
        }
        out
    };
    let duplicated = {
        let lines: Vec<&str> = clean.split_inclusive('\n').collect();
        let mid = lines.len() / 3;
        let mut out: String = lines[..mid + 4].concat();
        out.push_str(&lines[mid..mid + 4].concat());
        out.push_str(&lines[mid + 4..].concat());
        out
    };

    for (what, text) in [
        ("truncated", &truncated),
        ("deleted-line", &deleted),
        ("duplicated-block", &duplicated),
    ] {
        let ingest = |shards: usize| {
            let pipe = Pipeline::options()
                .shards(shards)
                .chunk_records(256)
                .salvage(None);
            let ingested = pipe.ingest_bytes(text).expect("salvage succeeds");
            let (report, _) = pipe.analyze_records(&ingested.log.records, |c| Some(SiteId(c.0)));
            let rendered = ReportSections::standard(&report, &ingested.log).render()
                + &ingested.salvage.render_footer();
            let registry = Registry::new();
            ingested.salvage.publish_metrics(&registry);
            (
                ingested.log,
                ingested.salvage,
                rendered,
                registry.render_json(),
            )
        };
        let baseline = ingest(1);
        // Deleting or duplicating a *complete* well-formed line can be
        // invisible (a missing record) or only show as duplicates; a 60%
        // byte truncation always tears a line and loses the end marker.
        if what == "truncated" {
            assert!(
                !baseline.1.is_clean(),
                "{what}: corruption must be visible to salvage"
            );
        }
        for shards in [4usize, 7] {
            let got = ingest(shards);
            assert_eq!(got.0, baseline.0, "{what}: ParsedLog at --shards {shards}");
            assert_eq!(
                got.1, baseline.1,
                "{what}: SalvageSummary at --shards {shards}"
            );
            assert_eq!(
                got.2, baseline.2,
                "{what}: rendered report at --shards {shards}"
            );
            assert_eq!(
                got.3, baseline.3,
                "{what}: salvage metrics at --shards {shards}"
            );
        }
    }
}

#[test]
fn vm_level_metrics_agree_with_run_outcome() {
    let w = workload_by_name("juru").expect("workload exists");
    let registry = Registry::new();
    let run = profile_with(
        &w.original(),
        &(w.default_input)(),
        VmConfig::profiling(),
        Some(&registry),
    )
    .expect("profiles");
    let snap = registry.snapshot();

    let dispatch_total: u64 = OpcodeClass::ALL
        .iter()
        .filter_map(|c| {
            snap.counters
                .get(&format!("vm_dispatch_total{{class=\"{}\"}}", c.name()))
        })
        .sum();
    assert_eq!(
        dispatch_total, run.outcome.steps,
        "per-class dispatch counters must sum to the step count"
    );
    assert_eq!(
        snap.counters["vm_deep_gc_total"], run.outcome.deep_gcs,
        "deep-GC counter matches the outcome"
    );
    assert_eq!(
        snap.counters["vm_heap_alloc_bytes_total"], run.outcome.heap.allocated_bytes,
        "allocated-bytes counter matches the heap stats"
    );
    assert_eq!(
        snap.counters["vm_heap_alloc_objects_total"], run.outcome.heap.allocated_objects,
        "allocated-objects counter matches the heap stats"
    );
}

#[test]
fn every_deep_gc_is_one_collection_when_nothing_is_finalized() {
    // No workload declares a finalizer, so every deep GC's first
    // collection is its census and no second collection runs.
    for w in all_workloads() {
        let registry = Registry::new();
        let run = profile_with(
            &w.original(),
            &(w.default_input)(),
            VmConfig::profiling(),
            Some(&registry),
        )
        .expect("profiles");
        let snap = registry.snapshot();
        assert!(run.outcome.deep_gcs > 0, "{}: deep GCs ran", w.name);
        assert_eq!(
            snap.counters["vm_heap_gc_full_total"], snap.counters["vm_deep_gc_total"],
            "{}: one full collection per deep GC",
            w.name
        );
    }
}
