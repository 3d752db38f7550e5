//! The paper's evaluation (§4), pinned: every deterministic table of
//! EXPERIMENTS.md is rendered here and compared byte for byte with the
//! fenced block after its `<!-- pinned: <name> -->` marker (see
//! `tests/pinned/mod.rs`). Tables 1–5, Figure 2's curve summary, ablations
//! A–C and salvage recovery live here; the fleet table is pinned by
//! `tests/optimize_fleet.rs`, which already runs the whole fleet.
//!
//! The VM clock counts allocated bytes, so nothing rendered depends on the
//! machine. After an intended change, regenerate the blocks with
//! `HEAPDRAG_BLESS=1 cargo test --test experiments` and review the diff.

mod pinned;

use std::fmt::Write as _;
use std::sync::OnceLock;

use heapdrag::core::{
    profile, DragAnalyzer, Integrals, ObjectRecord, Pipeline, ProfileRun, SavingsReport, Timeline,
    VmConfig,
};
use heapdrag::transform::{optimize_iteratively, OptimizerOptions};
use heapdrag::vm::Vm;
use heapdrag::workloads::{all_workloads, workload_by_name, Workload};

/// Markers whose blocks another test file renders and checks.
const PINNED_ELSEWHERE: [&str; 1] = ["fleet"];

/// Renders one pinned block.
type Renderer = fn() -> String;

/// The renderer of each pinned block of this file, by marker name.
const RENDERERS: [(&str, Renderer); 10] = [
    ("table1", table1),
    ("table2", || savings_table(default_pairs())),
    ("table3", || {
        savings_table(&pairs(|w| (w.alternate_input)()))
    }),
    ("figure2", figure2),
    ("table4", table4_cost_model),
    ("table5", table5),
    ("ablation-a", ablation_a),
    ("ablation-b", ablation_b),
    ("ablation-c", ablation_c),
    ("salvage", salvage_recovery),
];

/// One workload's original and revised variants, profiled on one input.
struct Pair {
    workload: Workload,
    original: ProfileRun,
    revised: ProfileRun,
}

impl Pair {
    fn measure(workload: Workload, input: &[i64], config: &VmConfig) -> Pair {
        let original = profile(&workload.original(), input, config.clone()).expect("original runs");
        let revised = profile(&workload.revised(), input, config.clone()).expect("revised runs");
        assert_eq!(
            original.outcome.output, revised.outcome.output,
            "{}: the variants must agree",
            workload.name
        );
        Pair {
            workload,
            original,
            revised,
        }
    }

    fn savings(&self) -> SavingsReport {
        SavingsReport::new(
            Integrals::from_records(&self.original.records),
            Integrals::from_records(&self.revised.records),
        )
    }
}

/// Every workload's pair on the input `input` picks, at the paper's
/// 100 KB deep-GC interval.
fn pairs(input: fn(&Workload) -> Vec<i64>) -> Vec<Pair> {
    let config = VmConfig::profiling();
    all_workloads()
        .into_iter()
        .map(|w| {
            let input = input(&w);
            Pair::measure(w, &input, &config)
        })
        .collect()
}

/// Table 2's pairs, which Table 5 and Ablation A reuse.
fn default_pairs() -> &'static [Pair] {
    static PAIRS: OnceLock<Vec<Pair>> = OnceLock::new();
    PAIRS.get_or_init(|| pairs(|w| (w.default_input)()))
}

fn rule(width: usize) -> String {
    format!("{}\n", "-".repeat(width))
}

/// Table 1: the benchmark programs.
fn table1() -> String {
    let mut out = format!(
        "{:<10} {:>8} {:>8}  description\n",
        "benchmark", "classes", "insns"
    );
    out += &rule(60);
    for w in all_workloads() {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8}  {}",
            w.name,
            w.class_count(),
            w.code_stmts(),
            w.description
        );
    }
    out
}

/// Tables 2 and 3: integrals in MByte² and the two savings ratios, with
/// their averages.
fn savings_table(pairs: &[Pair]) -> String {
    let mut out = format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}\n",
        "benchmark", "red.reach", "red.inuse", "orig.reach", "orig.inuse", "drag%", "space%"
    );
    out += &rule(82);
    let (mut drag, mut space) = (0.0, 0.0);
    for p in pairs {
        let o = Integrals::from_records(&p.original.records);
        let r = Integrals::from_records(&p.revised.records);
        let s = SavingsReport::new(o, r);
        drag += s.drag_saving_pct();
        space += s.space_saving_pct();
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>9.2} {:>9.2}",
            p.workload.name,
            r.reachable_mb2(),
            r.in_use_mb2(),
            o.reachable_mb2(),
            o.in_use_mb2(),
            s.drag_saving_pct(),
            s.space_saving_pct(),
        );
    }
    out += &rule(82);
    let n = pairs.len() as f64;
    let _ = writeln!(
        out,
        "{:<62} {:>9.2} {:>9.2}",
        "average",
        drag / n,
        space / n
    );
    out
}

/// Figure 2 in numbers: the deep-GC samples and the peaks of the two
/// curves, original and revised. The 16 KB interval samples the scaled
/// heaps finely enough for a curve; db is omitted, as in the paper.
fn figure2() -> String {
    let config = VmConfig {
        deep_gc_interval: Some(16 * 1024),
        ..VmConfig::profiling()
    };
    let mut out = format!(
        "{:<10} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}\n",
        "benchmark", "samples", "samples", "peak reach", "peak reach", "peak inuse", "peak inuse"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "", "orig", "revised", "orig KB", "revised KB", "orig KB", "revised KB"
    );
    out += &rule(78);
    for w in all_workloads().into_iter().filter(|w| w.name != "db") {
        let input = (w.default_input)();
        let pair = Pair::measure(w, &input, &config);
        let [o, r] = [&pair.original, &pair.revised].map(Timeline::from_run);
        let peak_in_use = |t: &Timeline| t.points.iter().map(|p| p.in_use).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}",
            pair.workload.name,
            o.points.len(),
            r.points.len(),
            o.peak_reachable() / 1024,
            r.peak_reachable() / 1024,
            peak_in_use(&o) / 1024,
            peak_in_use(&r) / 1024,
        );
    }
    out
}

/// Table 4's deterministic cost model (instructions + allocation work +
/// GC tracing work) under the generational collector. Asserted on the
/// same runs: the variants behave identically, every original takes
/// nursery collections, no revision costs meaningfully more than its
/// original, and db's, which rewrites nothing, costs exactly as much.
fn table4_cost_model() -> String {
    let workloads = all_workloads();
    let config = VmConfig {
        generational: true,
        nursery_bytes: 64 * 1024,
        // A soft heap bound: the paper's fixed 32/48 MB heaps, scaled.
        gc_trigger: Some(768 * 1024),
        ..VmConfig::default()
    };
    let mut out = format!(
        "{:<10} {:>14} {:>14} {:>10}\n",
        "benchmark", "orig cost", "revised cost", "saving %"
    );
    out += &rule(52);
    let mut sum = 0.0;
    for w in &workloads {
        let input = (w.default_input)();
        let o = Vm::new(&w.original(), config.clone())
            .run(&input)
            .expect("original runs");
        let r = Vm::new(&w.revised(), config.clone())
            .run(&input)
            .expect("revised runs");
        assert_eq!(o.output, r.output, "{}", w.name);
        assert!(
            o.heap.minor_collections > 0,
            "{}: no nursery collection ran: {:?}",
            w.name,
            o.heap
        );
        let ratio = r.cost_units() as f64 / o.cost_units() as f64;
        assert!(
            ratio < 1.05,
            "{}: revised cost ratio {ratio:.3} (orig {}, revised {})",
            w.name,
            o.cost_units(),
            r.cost_units()
        );
        if w.name == "db" {
            assert_eq!((o.cost_units(), o.steps), (r.cost_units(), r.steps));
        }
        let saving = (1.0 - ratio) * 100.0;
        sum += saving;
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>10.2}",
            w.name,
            o.cost_units(),
            r.cost_units(),
            saving
        );
    }
    out += &rule(52);
    let _ = writeln!(
        out,
        "{:<41} {:>10.2}",
        "average",
        sum / workloads.len() as f64
    );
    out
}

/// Table 5: the drag saving of each benchmark's revision and the
/// rewriting behind it.
fn table5() -> String {
    let pairs = default_pairs();
    let width = |column: fn(&Workload) -> &str| {
        pairs
            .iter()
            .map(|p| column(&p.workload).chars().count())
            .max()
            .unwrap_or(0)
    };
    let (ws, wk) = (width(|w| w.rewriting), width(|w| w.reference_kinds));
    let mut out = format!(
        "{:<10} {:>7}  {:<ws$}  {:<wk$}  expected analysis\n",
        "benchmark", "drag%", "rewriting strategy", "reference kinds"
    );
    for p in pairs {
        let w = &p.workload;
        let _ = writeln!(
            out,
            "{:<10} {:>7.2}  {:<ws$}  {:<wk$}  {}",
            w.name,
            p.savings().drag_saving_pct(),
            w.rewriting,
            w.reference_kinds,
            w.expected_analysis
        );
    }
    out
}

/// Ablation A: the drag saving of the manual revision against the one the
/// profile-guided optimizer reaches alone, behaviour verified.
fn ablation_a() -> String {
    let mut out = format!(
        "{:<10} {:>12} {:>12} {:>10}\n",
        "benchmark", "manual drag%", "auto drag%", "#applied"
    );
    for manual in default_pairs() {
        let w = &manual.workload;
        let input = (w.default_input)();
        let mut auto = w.original();
        let outcome = optimize_iteratively(
            &mut auto,
            &input,
            VmConfig::profiling(),
            OptimizerOptions::default(),
            3,
        )
        .expect("optimizer runs");
        let after = profile(&auto, &input, VmConfig::profiling()).expect("optimized runs");
        assert_eq!(
            manual.original.outcome.output, after.outcome.output,
            "{}: the optimizer must preserve behaviour",
            w.name
        );
        let auto_savings = SavingsReport::new(
            Integrals::from_records(&manual.original.records),
            Integrals::from_records(&after.records),
        );
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>12.2} {:>10}",
            w.name,
            manual.savings().drag_saving_pct(),
            auto_savings.drag_saving_pct(),
            outcome.applied.len()
        );
    }
    out
}

/// Ablation B: measured drag against the deep-GC interval. Collection
/// time approximates unreachability from above, so drag must not shrink
/// as the sampling coarsens.
fn ablation_b() -> String {
    let mut out = format!(
        "{:<10} {:>9} {:>12} {:>9} {:>8}\n",
        "benchmark", "interval", "drag (MB²)", "deep GCs", "objs"
    );
    for name in ["juru", "jack"] {
        let w = workload_by_name(name).expect("workload exists");
        let (program, input) = (w.original(), (w.default_input)());
        let mut last_drag = 0.0;
        for kb in [25u64, 50, 100, 200, 400] {
            let config = VmConfig {
                deep_gc_interval: Some(kb * 1024),
                ..VmConfig::profiling()
            };
            let run = profile(&program, &input, config).expect("runs");
            let drag = Integrals::from_records(&run.records).drag() as f64 / (1024.0 * 1024.0);
            assert!(
                drag >= last_drag * 0.98,
                "{name}: drag shrank as sampling coarsened: {last_drag} -> {drag}"
            );
            last_drag = drag;
            let _ = writeln!(
                out,
                "{:<10} {:>7}KB {:>12.2} {:>9} {:>8}",
                name,
                kb,
                drag,
                run.outcome.deep_gcs,
                run.records.len()
            );
        }
    }
    out
}

/// Ablation C: how the site-nesting depth splits drag into groups, and
/// how many drag-sorted groups a reader visits to cover 90 % of it.
fn ablation_c() -> String {
    let mut out = format!(
        "{:<10} {:>6} {:>13} {:>16} {:>19}\n",
        "benchmark", "depth", "nested sites", "chains interned", "sites for 90% drag"
    );
    for name in ["jack", "jess"] {
        let w = workload_by_name(name).expect("workload exists");
        let (program, input) = (w.original(), (w.default_input)());
        for depth in [1usize, 2, 3, 4, 6] {
            let config = VmConfig {
                site_depth: depth,
                ..VmConfig::profiling()
            };
            let run = profile(&program, &input, config).expect("runs");
            let report = DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
            let total = report.total_drag().max(1);
            let mut covered = 0u128;
            let needed = report
                .by_nested_site
                .iter()
                .take_while(|e| {
                    let short = covered * 10 < total * 9;
                    covered += e.stats.drag;
                    short
                })
                .count();
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>13} {:>16} {:>19}",
                name,
                depth,
                report.by_nested_site.len(),
                run.sites.num_chains(),
                needed
            );
        }
    }
    out
}

/// Salvage recovery: the share of records and of total drag a salvaging
/// ingest recovers from a log truncated at 25/50/75/90 % of its bytes,
/// with the error code strict parsing stops at.
fn salvage_recovery() -> String {
    const CUTS: [usize; 4] = [25, 50, 75, 90];
    let total_drag =
        |records: &[ObjectRecord]| records.iter().map(|r| r.drag()).sum::<u128>() as f64;
    let mut out = format!(
        "| workload | {} |\n|----------|{}\n",
        CUTS.map(|c| format!("{c}% kept")).join(" | "),
        "----------|".repeat(CUTS.len())
    );
    let strict = Pipeline::options().shards(4);
    let salvage = strict.salvage(None);
    for name in ["jess", "jack", "juru"] {
        let w = workload_by_name(name).expect("workload exists");
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).expect("runs");
        let mut log = Vec::new();
        strict.write_to(&run, &program, &mut log).expect("writes");
        let log = String::from_utf8(log).expect("text log is utf-8");
        let clean = strict
            .ingest_bytes(&log)
            .expect("clean log parses strictly");
        let clean_records = clean.log.records.len() as f64;
        let clean_drag = total_drag(&clean.log.records);

        let cells: Vec<String> = CUTS
            .iter()
            .map(|cut| {
                let mut end = log.len() * cut / 100;
                while !log.is_char_boundary(end) {
                    end -= 1;
                }
                let prefix = &log[..end];
                let err = strict
                    .ingest_bytes(prefix)
                    .expect_err("a truncated log fails strict parsing");
                let code = err.as_log().expect("a log error").code;
                let salvaged = salvage.ingest_bytes(prefix).expect("salvage succeeds");
                assert!(
                    salvaged.salvage.synthesized_end,
                    "{name}@{cut}%: truncation loses the end marker"
                );
                let records = salvaged.log.records.len() as f64 / clean_records * 100.0;
                let drag = total_drag(&salvaged.log.records) / clean_drag * 100.0;
                format!("{records:.1}% / {drag:.1}% ({code})")
            })
            .collect();
        let _ = writeln!(out, "| {name} | {} |", cells.join(" | "));
    }
    out
}

/// The names of every pinned marker in `doc`.
fn markers(doc: &str) -> Vec<&str> {
    doc.lines()
        .filter_map(|l| l.strip_prefix("<!-- pinned: ")?.strip_suffix(" -->"))
        .collect()
}

#[test]
fn every_pinned_table_matches_its_renderer() {
    let doc = std::fs::read_to_string(pinned::DOC).expect("EXPERIMENTS.md is committed");
    let mut want = markers(&doc);
    let mut have: Vec<&str> = RENDERERS.iter().map(|(name, _)| *name).collect();
    have.extend(PINNED_ELSEWHERE);
    want.sort_unstable();
    have.sort_unstable();
    assert_eq!(
        want, have,
        "each `<!-- pinned: <name> -->` marker of {} needs exactly one renderer, and each renderer a marker",
        pinned::DOC
    );

    // The renderers are independent, so they run side by side.
    let rendered: Vec<(&str, String)> = std::thread::scope(|s| {
        let running: Vec<_> = RENDERERS
            .iter()
            .map(|&(name, render)| (name, s.spawn(render)))
            .collect();
        running
            .into_iter()
            .map(|(name, job)| {
                let text = job
                    .join()
                    .unwrap_or_else(|_| panic!("the {name} renderer panicked"));
                (name, text)
            })
            .collect()
    });
    pinned::check(&rendered);
}
