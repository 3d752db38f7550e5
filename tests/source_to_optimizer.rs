//! The whole system, end to end, starting from *source code*: compile
//! mini-Java, profile it, let the static analyses + profile-guided
//! optimizer rewrite the bytecode, and verify the savings — the paper's
//! § 1.2 "profile-based optimizer" vision over a real front end.

use heapdrag::core::{profile, Integrals, SavingsReport, VmConfig};
use heapdrag::lang::compile_source;
use heapdrag::transform::optimizer::{optimize_iteratively, OptimizerOptions};
use heapdrag::vm::{Vm, VmConfig as RawConfig};

fn optimize_and_measure(src: &str, input: &[i64]) -> (SavingsReport, Vec<String>) {
    let original = compile_source(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
    let mut optimized = original.clone();
    let outcome = optimize_iteratively(
        &mut optimized,
        input,
        VmConfig::profiling(),
        OptimizerOptions::default(),
        3,
    )
    .expect("optimizer runs");
    // Behaviour must be preserved.
    let o1 = Vm::new(&original, RawConfig::default()).run(input).unwrap();
    let o2 = Vm::new(&optimized, RawConfig::default())
        .run(input)
        .unwrap();
    assert_eq!(o1.output, o2.output, "behaviour preserved");
    optimized.link().expect("still verifier-clean");

    let before = profile(&original, input, VmConfig::profiling()).unwrap();
    let after = profile(&optimized, input, VmConfig::profiling()).unwrap();
    let savings = SavingsReport::new(
        Integrals::from_records(&before.records),
        Integrals::from_records(&after.records),
    );
    let applied = outcome
        .applied
        .iter()
        .map(|a| format!("{}", a.kind))
        .collect();
    (savings, applied)
}

#[test]
fn dead_reference_in_source_is_nulled_automatically() {
    // The juru shape, written in mini-Java: a buffer dragged across a
    // tail that never reads it.
    let src = r#"
def main(input: int[]) {
    var buffer: int[] = new int[20000];
    buffer[3] = 77;
    var acc: int = buffer[3];
    var i: int = 0;
    while (i < 2000) {
        var scratch: int[] = new int[12];
        scratch[0] = i;
        i = i + 1;
    }
    print acc;
}
"#;
    let (savings, applied) = optimize_and_measure(src, &[]);
    assert!(
        applied.iter().any(|k| k == "assigning null"),
        "assign-null fired: {applied:?}"
    );
    assert!(
        savings.drag_saving_pct() > 30.0,
        "buffer drag removed: {:.1}%",
        savings.drag_saving_pct()
    );
}

#[test]
fn never_used_allocation_in_source_is_removed() {
    // The raytrace shape: objects initialised via a constructor and never
    // read again.
    let src = r#"
class Shade {
    field rgb: int;
    def init(rgb: int) { this.rgb = rgb; }
}
def main(input: int[]) {
    var i: int = 0;
    var acc: int = 0;
    while (i < 300) {
        var s: Shade = new Shade(i);
        s = null;
        acc = acc + i;
        var scratch: int[] = new int[8];
        scratch[0] = acc;
        i = i + 1;
    }
    print acc;
}
"#;
    let original = compile_source(src).unwrap();
    let mut optimized = original.clone();
    let outcome = optimize_iteratively(
        &mut optimized,
        &[],
        VmConfig::profiling(),
        OptimizerOptions::default(),
        2,
    )
    .unwrap();
    assert!(
        outcome
            .applied
            .iter()
            .any(|a| format!("{}", a.kind) == "code removal"),
        "dead-code removal fired: {:?}",
        outcome.applied
    );
    let o1 = Vm::new(&original, RawConfig::default()).run(&[]).unwrap();
    let o2 = Vm::new(&optimized, RawConfig::default()).run(&[]).unwrap();
    assert_eq!(o1.output, o2.output);
    assert!(
        o2.heap.allocated_bytes < o1.heap.allocated_bytes,
        "shade allocations eliminated: {} -> {}",
        o1.heap.allocated_bytes,
        o2.heap.allocated_bytes
    );
}

#[test]
fn constructor_table_in_source_goes_lazy() {
    // The jack shape in source: a constructor eagerly allocating a table
    // that is rarely consulted.
    let src = r#"
class Table {
    field slots: int[];
    def init() { this.slots = new int[2000]; }
}
class Parser {
    field table: Table;
    def init() { this.table = new Table; }
    def lookup(k: int): int {
        return this.table.slots[k];
    }
}
def main(input: int[]) {
    var g: int = 0;
    var acc: int = 0;
    while (g < 10) {
        var p: Parser = new Parser;
        // tokenize: churn that never consults the table
        var t: int = 0;
        while (t < 120) {
            var tok: int[] = new int[6];
            tok[0] = t;
            acc = acc + tok[0];
            t = t + 1;
        }
        if (g == 7) {
            acc = acc + p.lookup(5);
        }
        g = g + 1;
    }
    print acc;
}
"#;
    let (savings, applied) = optimize_and_measure(src, &[]);
    assert!(
        applied.iter().any(|k| k == "lazy allocation"),
        "lazy allocation fired: {applied:?}"
    );
    assert!(
        savings.drag_saving_pct() > 25.0,
        "table drag removed: {:.1}%",
        savings.drag_saving_pct()
    );
}

#[test]
fn static_analyses_type_source_compiled_bytecode_precisely() {
    // The global type fixpoint resolves chained field reads in compiled
    // source, so the §5 analyses see class-precise receivers.
    let src = r#"
class Inner { field n: int; }
class Outer {
    field inner: Inner;
    def init() { this.inner = new Inner; }
}
def main(input: int[]) {
    var o: Outer = new Outer;
    print o.inner.n;
}
"#;
    let p = compile_source(src).unwrap();
    let cg = heapdrag::analysis::CallGraph::build(&p);
    let usage = heapdrag::analysis::UsageAnalysis::build(&p, &cg);
    let outer = p.class_by_name("Outer").unwrap();
    let inner = p.class_by_name("Inner").unwrap();
    assert!(
        usage.field_is_read(&p, (outer, 0)),
        "Outer.inner read through the chain"
    );
    assert!(usage.field_is_read(&p, (inner, 0)), "Inner.n read");
}

#[test]
fn write_only_source_field_found_by_usage_analysis() {
    let src = r#"
class Node {
    field used: int;
    field debugTag: int;
    def init(v: int) { this.used = v; this.debugTag = v * 2; }
}
def main(input: int[]) {
    var n: Node = new Node(4);
    print n.used;
}
"#;
    let p = compile_source(src).unwrap();
    let cg = heapdrag::analysis::CallGraph::build(&p);
    let usage = heapdrag::analysis::UsageAnalysis::build(&p, &cg);
    let node = p.class_by_name("Node").unwrap();
    let wo = usage.write_only_fields(&p);
    // Field indices follow declaration order: used=0, debugTag=1.
    assert!(wo.contains(&(node, 1)), "debugTag write-only: {wo:?}");
    assert!(!wo.contains(&(node, 0)));
}
