//! End-to-end tests: compile mini-Java source, run it on the VM, check
//! output — plus type-error coverage and verifier/profiler integration.

use heapdrag_lang::compile_source;
use heapdrag_vm::interp::{Vm, VmConfig};

fn run(src: &str, input: &[i64]) -> Vec<i64> {
    let program = compile_source(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
    Vm::new(&program, VmConfig::default())
        .run(input)
        .unwrap_or_else(|e| panic!("run failed: {e}"))
        .output
}

fn compile_err(src: &str) -> String {
    compile_source(src).unwrap_err().to_string()
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(
        run("def main(input: int[]) { print 2 + 3 * 4 - 6 / 2; }", &[]),
        vec![11]
    );
    assert_eq!(
        run("def main(input: int[]) { print -(3 - 10) % 4; }", &[]),
        vec![3]
    );
}

#[test]
fn input_array_and_length() {
    let src = r#"
def main(input: int[]) {
    var i: int = 0;
    var sum: int = 0;
    while (i < input.length) {
        sum = sum + input[i];
        i = i + 1;
    }
    print sum;
}
"#;
    assert_eq!(run(src, &[1, 2, 3, 4]), vec![10]);
    assert_eq!(run(src, &[]), vec![0]);
}

#[test]
fn classes_inheritance_and_virtual_dispatch() {
    let src = r#"
class Shape {
    field id: int;
    def init(id: int) { this.id = id; }
    def area(): int { return 0; }
}
class Square extends Shape {
    field side: int;
    def area(): int { return this.side * this.side; }
    def setSide(s: int) { this.side = s; }
}
def describe(s: Shape): int {
    return s.area();
}
def main(input: int[]) {
    var sq: Square = new Square(7);
    sq.setSide(5);
    var plain: Shape = new Shape(1);
    print describe(sq);     // dispatches to Square.area
    print describe(plain);  // Shape.area
    print sq.id;            // inherited field
}
"#;
    assert_eq!(run(src, &[]), vec![25, 0, 7]);
}

#[test]
fn recursion_and_early_returns() {
    let src = r#"
def fib(n: int): int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
def main(input: int[]) { print fib(10); }
"#;
    assert_eq!(run(src, &[]), vec![55]);
}

#[test]
fn statics_and_visibilities() {
    let src = r#"
private static counter: int = 10;
public static cache: int[];
def bump(): int {
    counter = counter + 1;
    return counter;
}
def main(input: int[]) {
    bump();
    bump();
    print counter;
    cache = new int[3];
    cache[2] = 9;
    print cache[2];
}
"#;
    assert_eq!(run(src, &[]), vec![12, 9]);
}

#[test]
fn arrays_of_objects_and_nested_arrays() {
    let src = r#"
class Node {
    field value: int;
    def init(v: int) { this.value = v; }
}
def main(input: int[]) {
    var nodes: Node[] = new Node[3];
    var i: int = 0;
    while (i < nodes.length) {
        nodes[i] = new Node(i * 10);
        i = i + 1;
    }
    print nodes[2].value;

    var grid: int[][] = new int[][2];
    grid[0] = new int[4];
    grid[1] = new int[4];
    grid[1][3] = 42;
    print grid[1][3];
}
"#;
    assert_eq!(run(src, &[]), vec![20, 42]);
}

#[test]
fn null_checks_and_reference_equality() {
    let src = r#"
class Box { field v: int; }
def main(input: int[]) {
    var a: Box = new Box;
    var b: Box = a;
    var c: Box = null;
    if (a == b) { print 1; } else { print 0; }
    if (a == c) { print 1; } else { print 0; }
    if (c == null) { print 1; } else { print 0; }
    a = null;
    if (a != null) { print 1; } else { print 0; }
}
"#;
    assert_eq!(run(src, &[]), vec![1, 0, 1, 0]);
}

#[test]
fn else_if_chains() {
    let src = r#"
def classify(n: int): int {
    if (n < 0) { return -1; }
    else if (n == 0) { return 0; }
    else { return 1; }
}
def main(input: int[]) {
    print classify(-5);
    print classify(0);
    print classify(9);
}
"#;
    assert_eq!(run(src, &[]), vec![-1, 0, 1]);
}

#[test]
fn void_method_calls_as_statements() {
    let src = r#"
class Counter {
    field n: int;
    def tick() { this.n = this.n + 1; }
    def get(): int { return this.n; }
}
def main(input: int[]) {
    var c: Counter = new Counter;
    c.tick();
    c.tick();
    c.tick();
    print c.get();
    c.get();   // value discarded
}
"#;
    assert_eq!(run(src, &[]), vec![3]);
}

// --- type errors -----------------------------------------------------------

#[test]
fn type_errors_are_reported_with_lines() {
    let e = compile_err("def main(input: int[]) {\n  print null;\n}");
    assert!(e.contains("line 2"), "{e}");
    assert!(e.contains("int"), "{e}");

    let e = compile_err("def main(input: int[]) { var x: int = null; }");
    assert!(
        e.contains("not assignable") || e.contains("initialise"),
        "{e}"
    );

    let e = compile_err("def main(input: int[]) { print input; }");
    assert!(e.contains("print"), "{e}");

    let e = compile_err("def main(input: int[]) { print input[0] + null; }");
    assert!(e.contains("int"), "{e}");
}

#[test]
fn unknown_names_are_errors() {
    assert!(compile_err("def main(input: int[]) { print y; }").contains("unknown variable"));
    assert!(compile_err("def main(input: int[]) { f(); }").contains("unknown function"));
    assert!(compile_err("def main(input: int[]) { var p: P = null; }").contains("unknown class"));
    assert!(
        compile_err("class C { } def main(input: int[]) { var c: C = new C; print c.x; }")
            .contains("no field")
    );
    assert!(
        compile_err("class C { } def main(input: int[]) { var c: C = new C; c.m(); }")
            .contains("no method")
    );
}

#[test]
fn arity_and_constructor_errors() {
    let e = compile_err(
        "class C { def init(a: int) { } } def main(input: int[]) { var c: C = new C(1, 2); }",
    );
    assert!(e.contains("expects 1"), "{e}");
    let e = compile_err("class C { } def main(input: int[]) { var c: C = new C(5); }");
    assert!(e.contains("no `init`"), "{e}");
    let e = compile_err("def f(a: int) { } def main(input: int[]) { f(); }");
    assert!(e.contains("expects 1"), "{e}");
}

#[test]
fn return_path_checking() {
    let e = compile_err("def f(): int { if (1) { return 1; } } def main(input: int[]) { }");
    assert!(e.contains("without returning"), "{e}");
    let e = compile_err("def f() { return 1; } def main(input: int[]) { }");
    assert!(e.contains("void function"), "{e}");
    let e = compile_err("def f(): int { return 1; print 2; } def main(input: int[]) { }");
    assert!(e.contains("unreachable"), "{e}");
}

#[test]
fn main_signature_is_enforced() {
    assert!(compile_err("def notmain(input: int[]) { }").contains("no `main`"));
    assert!(compile_err("def main(a: int) { }").contains("must be declared"));
    assert!(compile_err("def main(input: int[]): int { return 1; }").contains("must be declared"));
}

#[test]
fn subtyping_is_checked_both_ways() {
    let src_ok = r#"
class A { }
class B extends A { }
def takeA(a: A) { }
def main(input: int[]) {
    takeA(new B);
}
"#;
    run(src_ok, &[]);
    let e = compile_err(
        "class A { }\nclass B extends A { }\ndef takeB(b: B) { }\ndef main(input: int[]) { takeB(new A); }",
    );
    assert!(e.contains("not assignable"), "{e}");
}

// --- integration with the profiler ------------------------------------------

#[test]
fn drag_reports_name_source_lines() {
    let src = r#"
def main(input: int[]) {
    var buffer: int[] = new int[5000];
    buffer[0] = 7;
    var i: int = 0;
    while (i < 500) {
        var scratch: int[] = new int[10];
        scratch[0] = i;
        i = i + 1;
        scratch = null;
        buffer = buffer;   // keep rooted across the loop
    }
    print buffer[0];
}
"#;
    let program = compile_source(src).unwrap();
    let run = heapdrag_core::profile(&program, &[], heapdrag_core::VmConfig::profiling()).unwrap();
    let report =
        heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
    let top = run
        .sites
        .format_chain(&program, report.by_nested_site[0].site);
    assert!(
        top.contains(": new int[]"),
        "top drag site names its source line: {top}"
    );
    // The buffer allocation on source line 3 is attributed to its line.
    let all_names: Vec<String> = report
        .by_nested_site
        .iter()
        .map(|e| run.sites.format_chain(&program, e.site))
        .collect();
    assert!(
        all_names.iter().any(|n| n.contains("L3: new int[]")),
        "some site carries the L3 label: {all_names:#?}"
    );
}

#[test]
fn boolean_operators_short_circuit() {
    let src = r#"
class Box { field v: int; }
def touch(b: Box): int { return b.v; }
def main(input: int[]) {
    var x: Box = null;
    // Without short-circuit, touch(x) would throw NullPointerException.
    if (x != null && touch(x) > 0) { print 1; } else { print 0; }
    var y: Box = new Box;
    y.v = 5;
    if (y == null || touch(y) == 5) { print 1; } else { print 0; }
    print !0;
    print !7;
    print (1 && 2) + (0 || 0) + (3 || 9);
}
"#;
    assert_eq!(run(src, &[]), vec![0, 1, 1, 0, 2]);
}

#[test]
fn boolean_operator_precedence() {
    // `a < b && c < d || e` parses as `((a<b) && (c<d)) || e`.
    let src = "def main(input: int[]) { print 1 < 2 && 3 < 2 || 1; }";
    assert_eq!(run(src, &[]), vec![1]);
    let e = compile_err("class C { } def main(input: int[]) { var c: C = new C; print c && 1; }");
    assert!(e.contains("int"), "{e}");
}
