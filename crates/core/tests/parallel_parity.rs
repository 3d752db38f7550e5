//! End-to-end parity of the sharded off-line pipeline: the same log must
//! produce a byte-identical [`DragReport`] for every shard count, and
//! malformed logs must report the same first error line as the sequential
//! scan.

use heapdrag_core::record::ObjectRecord;
use heapdrag_core::{
    profile, DragAnalyzer, DragReport, LogError, ParallelConfig, Pipeline, VmConfig,
};
use heapdrag_testkit::{check, Rng};
use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};
use heapdrag_vm::{Program, ProgramBuilder, SiteId};

fn text_log(run: &heapdrag_core::ProfileRun, program: &Program) -> String {
    let mut buf = Vec::new();
    Pipeline::options()
        .write_to(run, program, &mut buf)
        .expect("writes");
    String::from_utf8(buf).expect("text log is utf-8")
}

fn pipeline_at(par: &ParallelConfig) -> Pipeline {
    Pipeline::options()
        .shards(par.shards)
        .chunk_records(par.chunk_records)
}

fn parse_at(text: &str, par: &ParallelConfig) -> Result<heapdrag_core::Ingested, LogError> {
    pipeline_at(par)
        .ingest_bytes(text)
        .map_err(|e| e.as_log().expect("log error").clone())
}

/// A program with several allocation sites of contrasting lifetimes: a
/// dragged array (one early use, long drag), a never-used buffer, and a
/// loop of short-lived objects.
fn workload_log() -> String {
    let mut b = ProgramBuilder::new();
    let main = b.declare_method("main", None, true, 1, 5);
    {
        let mut m = b.begin_body(main);
        // Slot 1: a big array used once, then dragged to exit.
        m.push_int(4000).mark("dragged array").new_array().store(1);
        m.load(1).push_int(0).push_int(7).astore();
        // Slot 2: a buffer that is never used at all.
        m.push_int(2000).mark("dead buffer").new_array().store(2);
        // Slot 3: loop counter; slot 4: short-lived arrays forcing deep GCs.
        m.push_int(0).store(3);
        m.label("top");
        m.load(3).push_int(120).cmpge().branch("done");
        m.push_int(512).mark("loop temp").new_array().store(4);
        m.load(4).push_int(1).push_int(3).astore();
        m.load(3).push_int(1).add().store(3);
        m.jump("top");
        m.label("done");
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let program = b.finish().expect("valid program");
    let run = profile(&program, &[], VmConfig::profiling()).expect("profiles");
    text_log(&run, &program)
}

fn analyze_at(text: &str, par: &ParallelConfig) -> DragReport {
    let parsed = parse_at(text, par).expect("parses").log;
    let (report, metrics) =
        pipeline_at(par).analyze_records(&parsed.records, |c| Some(SiteId(c.0)));
    assert_eq!(metrics.total_records(), parsed.records.len() as u64);
    report
}

#[test]
fn workload_report_is_identical_across_shard_counts() {
    let text = workload_log();
    let baseline = analyze_at(&text, &ParallelConfig::sequential());
    assert!(
        baseline.by_nested_site.len() >= 2,
        "workload should hit several sites"
    );
    for shards in [2usize, 3, 8] {
        let par = ParallelConfig {
            shards,
            chunk_records: 16,
        };
        let report = analyze_at(&text, &par);
        // Spot-check the facets named in the acceptance criteria before the
        // full structural equality: totals, classification, ordering.
        assert_eq!(
            report.total_drag(),
            baseline.total_drag(),
            "shards = {shards}"
        );
        let patterns: Vec<_> = report
            .by_nested_site
            .iter()
            .map(|e| (e.site, e.stats.pattern))
            .collect();
        let base_patterns: Vec<_> = baseline
            .by_nested_site
            .iter()
            .map(|e| (e.site, e.stats.pattern))
            .collect();
        assert_eq!(patterns, base_patterns, "shards = {shards}");
        assert_eq!(report, baseline, "shards = {shards}");
    }
}

#[test]
fn random_records_report_is_identical_across_shard_counts() {
    check("random_records_parity", 48, |rng: &mut Rng| {
        let records = random_records(rng);
        let sequential = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));
        for shards in [1usize, 2, 8] {
            let (report, _) = Pipeline::options()
                .shards(shards)
                .analyze_records(&records, |c| Some(SiteId(c.0)));
            assert_eq!(report, sequential, "shards = {shards}");
        }
    });
}

fn random_records(rng: &mut Rng) -> Vec<ObjectRecord> {
    let n = rng.range_usize(0, 200);
    (0..n)
        .map(|i| {
            let created = rng.range_u64(0, 100_000);
            let freed = created + rng.range_u64(1, 50_000);
            let used = rng.ratio(3, 4);
            ObjectRecord {
                object: ObjectId(i as u64),
                class: ClassId(rng.range_u32(0, 4)),
                size: 8 * rng.range_u64(1, 64),
                created,
                freed,
                last_use: used.then(|| rng.range_u64(created, freed + 1)),
                alloc_site: ChainId(rng.range_u32(0, 6)),
                last_use_site: used.then(|| ChainId(rng.range_u32(0, 6))),
                at_exit: rng.bool(),
            }
        })
        .collect()
}

#[test]
fn malformed_log_reports_same_line_for_every_shard_count() {
    let mut text = workload_log();
    // Corrupt one record line in the middle of the body.
    let lines: Vec<&str> = text.lines().collect();
    let bad_line = lines
        .iter()
        .position(|l| l.starts_with("obj "))
        .expect("has records")
        + 3;
    let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    mangled[bad_line - 1] = "obj 9999 not-a-number".to_string();
    text = mangled.join("\n");
    text.push('\n');

    let sequential = parse_at(&text, &ParallelConfig::sequential()).expect_err("must fail");
    assert_eq!(sequential.line, bad_line);
    for shards in [1usize, 2, 8] {
        let par = ParallelConfig {
            shards,
            chunk_records: 4,
        };
        let err = parse_at(&text, &par).expect_err("must fail");
        assert_eq!(err.line, sequential.line, "shards = {shards}");
        assert_eq!(err.message, sequential.message, "shards = {shards}");
    }
}
