//! Cross-format parity: the same `ProfileRun` encoded as text
//! "heapdrag-log v1" and as binary HDLOG v2 must autodetect correctly and
//! ingest to identical `ParsedLog`s — and byte-identical rendered drag
//! reports — at every shard count. This is the tentpole invariant of the
//! codec abstraction: the format is a transport detail, never visible in
//! the analysis.

use heapdrag::core::{profile, DragAnalyzer, LogFormat, Pipeline, ReportSections, VmConfig};
use heapdrag::vm::SiteId;
use heapdrag::workloads::workload_by_name;

const WORKLOADS: [&str; 3] = ["jess", "jack", "juru"];
const SHARDS: [usize; 3] = [1, 4, 7];

fn pipe(shards: usize) -> Pipeline {
    Pipeline::options().shards(shards).chunk_records(64)
}

fn encode(
    run: &heapdrag::core::ProfileRun,
    program: &heapdrag::vm::Program,
    format: LogFormat,
) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("writes");
    buf
}

#[test]
fn text_and_binary_logs_ingest_identically_at_every_shard_count() {
    for name in WORKLOADS {
        let w = workload_by_name(name).expect("workload exists");
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling())
            .unwrap_or_else(|e| panic!("{name} profiles: {e}"));

        let text = encode(&run, &program, LogFormat::Text);
        let binary = encode(&run, &program, LogFormat::Binary);
        assert_eq!(LogFormat::detect(&text), LogFormat::Text);
        assert_eq!(LogFormat::detect(&binary), LogFormat::Binary);
        assert!(
            binary.len() < text.len(),
            "{name}: the binary encoding is smaller"
        );

        let mut reports = Vec::new();
        for shards in SHARDS {
            let t = pipe(shards)
                .ingest_bytes(&text)
                .unwrap_or_else(|e| panic!("{name}: text ingests at {shards} shards: {e}"));
            let b = pipe(shards)
                .ingest_bytes(&binary)
                .unwrap_or_else(|e| panic!("{name}: binary ingests at {shards} shards: {e}"));
            assert_eq!(t.log, b.log, "{name}: ParsedLogs differ at {shards} shards");
            assert_eq!(t.salvage.format, LogFormat::Text);
            assert_eq!(b.salvage.format, LogFormat::Binary);
            assert!(t.salvage.is_clean() && b.salvage.is_clean());

            // Render the full drag report from each and require bytes.
            let render_of = |log: &heapdrag::core::ParsedLog| {
                let analysis = DragAnalyzer::new().analyze(&log.records, |c| Some(SiteId(c.0)));
                ReportSections::standard(&analysis, log).render()
            };
            let rt = render_of(&t.log);
            assert_eq!(
                rt,
                render_of(&b.log),
                "{name}: reports differ across formats at {shards} shards"
            );
            reports.push(rt);
        }
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "{name}: the report depends on the shard count"
        );

        // Salvage mode on clean input is format-agnostic too, apart from
        // the reported input format itself.
        let ts = pipe(4)
            .salvage(None)
            .ingest_bytes(&text)
            .expect("salvage text");
        let bs = pipe(4)
            .salvage(None)
            .ingest_bytes(&binary)
            .expect("salvage binary");
        assert_eq!(ts.log, bs.log, "{name}: salvage-mode logs differ");
        assert!(
            ts.salvage
                .render_footer()
                .contains("input format:       text"),
            "{name}: text footer names its format"
        );
        assert!(
            bs.salvage
                .render_footer()
                .contains("input format:       binary"),
            "{name}: binary footer names its format"
        );
    }
}
