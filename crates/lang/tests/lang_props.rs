//! Property tests for the front end: randomly generated well-typed
//! programs print → parse → compile → run deterministically, and the
//! printer/parser pair is a round-trip.

use heapdrag_lang::pretty::print_program;
use heapdrag_lang::{compile_source, lexer, parser};
use heapdrag_testkit::{check, Rng};
use heapdrag_vm::interp::{Vm, VmConfig};

/// Generator for well-typed statements over: int locals `a`, `b`; an
/// int-array local `xs`; a `Box` object local `bx` (class with int field
/// `v` and method `bump`).
#[derive(Debug, Clone)]
enum GenStmt {
    SetA(i32),
    AddAB,
    StoreXs(u8, i32),
    ReadXs(u8),
    NewBox(i32),
    Bump,
    ReadBox,
    PrintA,
    IfALtB(Vec<GenStmt>, Vec<GenStmt>),
    WhileCounted(u8, Vec<GenStmt>),
}

fn leaf(rng: &mut Rng) -> GenStmt {
    match rng.range_u32(0, 8) {
        0 => GenStmt::SetA(rng.range_i32(-50, 50)),
        1 => GenStmt::AddAB,
        2 => GenStmt::StoreXs(rng.range_u8(0, 8), rng.range_i32(-9, 9)),
        3 => GenStmt::ReadXs(rng.range_u8(0, 8)),
        4 => GenStmt::NewBox(rng.range_i32(-20, 20)),
        5 => GenStmt::Bump,
        6 => GenStmt::ReadBox,
        _ => GenStmt::PrintA,
    }
}

/// Depth-bounded recursive statement generator: at positive depth, one in
/// four draws nests an `if` or a counted `while` whose bodies recurse one
/// level shallower.
fn stmt(rng: &mut Rng, depth: u32) -> GenStmt {
    if depth > 0 && rng.ratio(1, 4) {
        if rng.bool() {
            let t = rng.vec(0, 3, |r| stmt(r, depth - 1));
            let e = rng.vec(0, 3, |r| stmt(r, depth - 1));
            GenStmt::IfALtB(t, e)
        } else {
            let n = rng.range_u8(1, 5);
            let body = rng.vec(0, 3, |r| stmt(r, depth - 1));
            GenStmt::WhileCounted(n, body)
        }
    } else {
        leaf(rng)
    }
}

fn stmts(rng: &mut Rng, max: usize) -> Vec<GenStmt> {
    rng.vec(0, max, |r| stmt(r, 2))
}

fn render(stmts: &[GenStmt], out: &mut String, counter: &mut usize) {
    for s in stmts {
        match s {
            GenStmt::SetA(v) => out.push_str(&format!("a = {v};\n")),
            GenStmt::AddAB => out.push_str("a = a + b;\nb = b + 1;\n"),
            GenStmt::StoreXs(i, v) => out.push_str(&format!("xs[{i}] = {v};\n")),
            GenStmt::ReadXs(i) => out.push_str(&format!("a = a + xs[{i}];\n")),
            GenStmt::NewBox(v) => out.push_str(&format!("bx = new Box({v});\n")),
            GenStmt::Bump => out.push_str("bx.bump();\n"),
            GenStmt::ReadBox => out.push_str("a = a + bx.v;\n"),
            GenStmt::PrintA => out.push_str("print a;\n"),
            GenStmt::IfALtB(t, e) => {
                out.push_str("if (a < b) {\n");
                render(t, out, counter);
                out.push_str("} else {\n");
                render(e, out, counter);
                out.push_str("}\n");
            }
            GenStmt::WhileCounted(n, body) => {
                *counter += 1;
                let c = format!("c{counter}");
                out.push_str(&format!("var {c}: int = 0;\nwhile ({c} < {n}) {{\n"));
                render(body, out, counter);
                out.push_str(&format!("{c} = {c} + 1;\n}}\n"));
            }
        }
    }
}

fn source_for(stmts: &[GenStmt]) -> String {
    let mut body = String::new();
    let mut counter = 0;
    render(stmts, &mut body, &mut counter);
    format!(
        r#"
class Box {{
    field v: int;
    def init(v: int) {{ this.v = v; }}
    def bump() {{ this.v = this.v + 1; }}
}}
def main(input: int[]) {{
    var a: int = 0;
    var b: int = 1;
    var xs: int[] = new int[8];
    var bx: Box = new Box(0);
{body}
    print a;
    print b;
    print bx.v;
}}
"#
    )
}

#[test]
fn generated_sources_compile_and_run_deterministically() {
    check("generated_sources_compile_and_run_deterministically", 32, |rng| {
        let src = source_for(&stmts(rng, 10));
        let program = compile_source(&src)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let a = Vm::new(&program, VmConfig::default()).run(&[]).expect("runs");
        let b = Vm::new(&program, VmConfig::profiling()).run(&[]).expect("runs");
        assert_eq!(a.output, b.output);
    });
}

#[test]
fn pretty_print_parse_is_a_fixed_point() {
    check("pretty_print_parse_is_a_fixed_point", 32, |rng| {
        let src = source_for(&stmts(rng, 10));
        let ast1 = parser::parse(&lexer::lex(&src).unwrap()).unwrap();
        let printed1 = print_program(&ast1);
        let ast2 = parser::parse(&lexer::lex(&printed1).unwrap())
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed1}"));
        let printed2 = print_program(&ast2);
        assert_eq!(printed1, printed2);
    });
}

#[test]
fn printed_source_behaves_identically() {
    check("printed_source_behaves_identically", 32, |rng| {
        let src = source_for(&stmts(rng, 8));
        let ast = parser::parse(&lexer::lex(&src).unwrap()).unwrap();
        let printed = print_program(&ast);
        let p1 = compile_source(&src).expect("original compiles");
        let p2 = compile_source(&printed)
            .unwrap_or_else(|e| panic!("printed source failed: {e}\n{printed}"));
        let o1 = Vm::new(&p1, VmConfig::default()).run(&[]).expect("runs");
        let o2 = Vm::new(&p2, VmConfig::default()).run(&[]).expect("runs");
        assert_eq!(o1.output, o2.output);
    });
}

/// The AST type parameter of [`TypeName::Array`] round-trips through the
/// printer too (regression guard for the `new int[][n]` suffix logic).
#[test]
fn nested_array_types_roundtrip() {
    let src = "def main(input: int[]) { var m: int[][][] = new int[][][2]; print m.length; }";
    let ast = parser::parse(&lexer::lex(src).unwrap()).unwrap();
    let printed = print_program(&ast);
    assert!(printed.contains("int[][][]"), "{printed}");
    let out = Vm::new(&compile_source(&printed).unwrap(), VmConfig::default())
        .run(&[])
        .unwrap();
    assert_eq!(out.output, vec![2]);
}
