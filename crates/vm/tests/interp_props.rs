//! Property tests for the interpreter: randomly generated programs run
//! deterministically, survive assembly round-trips, and keep heap
//! accounting consistent under any GC configuration.

use heapdrag_testkit::{check, Rng};
use heapdrag_vm::asm::assemble;
use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::disasm::disassemble;
use heapdrag_vm::interp::{Vm, VmConfig};
use heapdrag_vm::program::Program;

/// A generator for small, well-formed programs: straight-line statements
/// over int locals and one object class, with an optional if/else on a
/// comparison and a counted loop.
#[derive(Debug, Clone)]
enum Stmt {
    SetInt { local: u16, value: i32 },
    AddInto { local: u16, other: u16 },
    AllocObj { local: u16, field_value: i32 },
    ReadField { from: u16, into: u16 },
    AllocArray { local: u16, len: u8 },
    StoreElem { local: u16, idx: u8, value: i32 },
    DropRef { local: u16 },
    PrintLocal { local: u16 },
}

const INT_LOCALS: u16 = 3; // locals 1..=3 hold ints
const REF_LOCALS: u16 = 3; // locals 4..=6 hold refs

fn stmt(rng: &mut Rng) -> Stmt {
    match rng.range_u32(0, 8) {
        0 => Stmt::SetInt {
            local: rng.range_u16(1, INT_LOCALS + 1),
            value: rng.range_i32(-100, 100),
        },
        1 => Stmt::AddInto {
            local: rng.range_u16(1, INT_LOCALS + 1),
            other: rng.range_u16(1, INT_LOCALS + 1),
        },
        2 => Stmt::AllocObj {
            local: rng.range_u16(4, 4 + REF_LOCALS),
            field_value: rng.range_i32(-50, 50),
        },
        3 => Stmt::ReadField {
            from: rng.range_u16(4, 4 + REF_LOCALS),
            into: rng.range_u16(1, INT_LOCALS + 1),
        },
        4 => Stmt::AllocArray {
            local: rng.range_u16(4, 4 + REF_LOCALS),
            len: rng.range_u8(1, 20),
        },
        5 => Stmt::StoreElem {
            local: rng.range_u16(4, 4 + REF_LOCALS),
            idx: rng.range_u8(0, 20),
            value: rng.range_i32(-9, 9),
        },
        6 => Stmt::DropRef {
            local: rng.range_u16(4, 4 + REF_LOCALS),
        },
        _ => Stmt::PrintLocal {
            local: rng.range_u16(1, INT_LOCALS + 1),
        },
    }
}

#[derive(Debug, Clone)]
struct ProgSpec {
    setup: Vec<Stmt>,
    then_branch: Vec<Stmt>,
    else_branch: Vec<Stmt>,
    loop_body: Vec<Stmt>,
    loop_count: u8,
    tail: Vec<Stmt>,
}

fn prog(rng: &mut Rng) -> ProgSpec {
    ProgSpec {
        setup: rng.vec(0, 12, stmt),
        then_branch: rng.vec(0, 6, stmt),
        else_branch: rng.vec(0, 6, stmt),
        loop_body: rng.vec(0, 6, stmt),
        loop_count: rng.range_u8(0, 20),
        tail: rng.vec(0, 8, stmt),
    }
}

fn build(spec: &ProgSpec) -> Program {
    let mut b = ProgramBuilder::new();
    let class = b
        .begin_class("P.Obj")
        .field("f", Visibility::Private)
        .finish();
    let main = b.declare_method("main", None, true, 1, 8); // local 7: loop counter
    {
        let mut m = b.begin_body(main);
        // All ref locals start as objects so ReadField never NPEs; all int
        // locals start as ints.
        for l in 1..=INT_LOCALS {
            m.push_int(0).store(l);
        }
        for l in 4..4 + REF_LOCALS {
            m.new_obj(class).store(l);
            m.load(l).push_int(0).putfield(0);
        }
        let emit = |m: &mut heapdrag_vm::builder::MethodBuilder<'_>, stmts: &[Stmt], tag: usize| {
            for (k, s) in stmts.iter().enumerate() {
                match s {
                    Stmt::SetInt { local, value } => {
                        m.push_int(*value as i64).store(*local);
                    }
                    Stmt::AddInto { local, other } => {
                        m.load(*local).load(*other).add().store(*local);
                    }
                    Stmt::AllocObj { local, field_value } => {
                        m.new_obj(class).store(*local);
                        m.load(*local).push_int(*field_value as i64).putfield(0);
                    }
                    Stmt::ReadField { from, into } => {
                        // Guard: the ref local may hold an array or null.
                        let skip = format!("skip{tag}_{k}");
                        m.load(*from).instance_of(class).push_int(0).cmpeq();
                        m.branch(skip.clone());
                        m.load(*from).getfield(0).store(*into);
                        m.label(skip);
                    }
                    Stmt::AllocArray { local, len } => {
                        m.push_int(*len as i64).new_array().store(*local);
                    }
                    Stmt::StoreElem { local, idx, value } => {
                        let skip = format!("skiparr{tag}_{k}");
                        // Only store when the local holds an array big enough.
                        m.load(*local).instance_of(class).push_int(1).cmpeq();
                        m.branch(skip.clone());
                        m.load(*local).branch_if_null(skip.clone());
                        m.load(*local).array_len().push_int(*idx as i64).cmple();
                        m.branch(skip.clone());
                        m.load(*local)
                            .push_int(*idx as i64)
                            .push_int(*value as i64)
                            .astore();
                        m.label(skip);
                    }
                    Stmt::DropRef { local } => {
                        m.push_null().store(*local);
                    }
                    Stmt::PrintLocal { local } => {
                        m.load(*local).print();
                    }
                }
            }
        };
        emit(&mut m, &spec.setup, 0);
        // if (local1 < local2) then … else …
        m.load(1).load(2).cmplt().branch("then");
        emit(&mut m, &spec.else_branch, 1);
        m.jump("endif");
        m.label("then");
        emit(&mut m, &spec.then_branch, 2);
        m.label("endif");
        // counted loop
        m.push_int(0).store(7);
        m.label("loop");
        m.load(7)
            .push_int(spec.loop_count as i64)
            .cmpge()
            .branch("loopend");
        emit(&mut m, &spec.loop_body, 3);
        m.load(7).push_int(1).add().store(7);
        m.jump("loop");
        m.label("loopend");
        emit(&mut m, &spec.tail, 4);
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("generated program links")
}

#[test]
fn generated_programs_pass_the_verifier() {
    check("generated_programs_pass_the_verifier", 48, |rng| {
        let p = build(&prog(rng));
        heapdrag_vm::verify::verify_program(&p).expect("builder output verifies");
    });
}

#[test]
fn generated_programs_run_deterministically() {
    check("generated_programs_run_deterministically", 48, |rng| {
        let p = build(&prog(rng));
        let a = Vm::new(&p, VmConfig::default()).run(&[]).expect("runs");
        let b = Vm::new(&p, VmConfig::default()).run(&[]).expect("runs");
        assert_eq!(&a.output, &b.output);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.end_time, b.end_time);
    });
}

#[test]
fn gc_configuration_never_changes_output() {
    check("gc_configuration_never_changes_output", 48, |rng| {
        let p = build(&prog(rng));
        let plain = Vm::new(&p, VmConfig::default()).run(&[]).expect("runs");
        let profiled = Vm::new(&p, VmConfig::profiling()).run(&[]).expect("runs");
        let tight = Vm::new(
            &p,
            VmConfig {
                deep_gc_interval: Some(512),
                ..VmConfig::default()
            },
        )
        .run(&[])
        .expect("runs");
        let generational = Vm::new(
            &p,
            VmConfig {
                generational: true,
                nursery_bytes: 1024,
                ..VmConfig::default()
            },
        )
        .run(&[])
        .expect("runs");
        assert_eq!(&plain.output, &profiled.output);
        assert_eq!(&plain.output, &tight.output);
        assert_eq!(&plain.output, &generational.output);
        // Allocation behaviour (the byte clock) is GC-independent too.
        assert_eq!(plain.end_time, profiled.end_time);
        assert_eq!(plain.end_time, generational.end_time);
    });
}

#[test]
fn assembly_roundtrip_preserves_generated_programs() {
    check(
        "assembly_roundtrip_preserves_generated_programs",
        48,
        |rng| {
            let p = build(&prog(rng));
            let text = disassemble(&p);
            let p2 = assemble(&text).expect("reassembles");
            let a = Vm::new(&p, VmConfig::default()).run(&[]).expect("runs");
            let b = Vm::new(&p2, VmConfig::default()).run(&[]).expect("runs");
            assert_eq!(a.output, b.output);
        },
    );
}
