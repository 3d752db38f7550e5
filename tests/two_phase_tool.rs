//! End-to-end check of the two-phase tool: phase 1 writes the log file,
//! phase 2 parses it and must reach the same analysis as the in-memory
//! path, for every benchmark.

use heapdrag::core::{profile, DragAnalyzer, ParsedLog, Pipeline, ProfileRun, VmConfig};
use heapdrag::vm::{Program, SiteId};
use heapdrag::workloads::all_workloads;

fn log_roundtrip(run: &ProfileRun, program: &Program) -> ParsedLog {
    let mut buf = Vec::new();
    Pipeline::options()
        .write_to(run, program, &mut buf)
        .expect("writes");
    Pipeline::options()
        .ingest_bytes(&buf)
        .expect("log parses")
        .log
}

#[test]
fn log_roundtrip_preserves_records_and_analysis() {
    for w in all_workloads() {
        let program = w.original();
        let input = (w.default_input)();
        let run = profile(&program, &input, VmConfig::profiling()).expect("runs");

        let parsed = log_roundtrip(&run, &program);

        assert_eq!(parsed.records, run.records, "{}: records roundtrip", w.name);
        assert_eq!(parsed.samples, run.samples, "{}: samples roundtrip", w.name);
        assert_eq!(parsed.end_time, run.outcome.end_time);

        // The off-line analysis over the parsed log matches the in-memory
        // one (modulo the coarse-site partition, which needs the site
        // table — compare the nested partition, which doesn't).
        let mem = DragAnalyzer::new().analyze(&run.records, |c| Some(SiteId(c.0)));
        let file = DragAnalyzer::new().analyze(&parsed.records, |c| Some(SiteId(c.0)));
        assert_eq!(
            mem.by_nested_site, file.by_nested_site,
            "{}: same drag report from the log",
            w.name
        );
        assert_eq!(mem.totals, file.totals);
    }
}

#[test]
fn log_names_cover_all_sites_in_records() {
    let w = heapdrag::workloads::workload_by_name("jess").unwrap();
    let program = w.original();
    let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).expect("runs");
    let parsed = log_roundtrip(&run, &program);
    use heapdrag::core::ChainNamer;
    for r in &parsed.records {
        let name = parsed.chain_name(r.alloc_site);
        assert!(
            !name.starts_with("<chain"),
            "alloc site {:?} has a readable name, got {name}",
            r.alloc_site
        );
    }
}
