//! Property tests for the transformations: on randomly generated
//! programs, assign-null and dead-code removal must preserve output while
//! never increasing the space-time integrals.

use heapdrag::core::{profile, Integrals, VmConfig};
use heapdrag::transform::{assign_null_program, remove_all_dead_allocations};
use heapdrag::vm::builder::ProgramBuilder;
use heapdrag::vm::class::Visibility;
use heapdrag::vm::{Program, Vm, VmConfig as RawConfig};
use heapdrag_testkit::{check, Rng};

/// One statement of the generated programs (ints in locals 1–2, refs in
/// locals 3–5).
#[derive(Debug, Clone)]
enum Stmt {
    SetInt(u16, i32),
    Add(u16, u16),
    AllocUseObj { local: u16, v: i32 },
    AllocDeadObj { local: u16 },
    ReadField { from: u16, into: u16 },
    Drop(u16),
    Print(u16),
    Churn(u8),
}

fn stmt(rng: &mut Rng) -> Stmt {
    match rng.range_u32(0, 8) {
        0 => Stmt::SetInt(rng.range_u16(1, 3), rng.range_i32(-50, 50)),
        1 => Stmt::Add(rng.range_u16(1, 3), rng.range_u16(1, 3)),
        2 => Stmt::AllocUseObj {
            local: rng.range_u16(3, 6),
            v: rng.range_i32(-20, 20),
        },
        3 => Stmt::AllocDeadObj {
            local: rng.range_u16(3, 6),
        },
        4 => Stmt::ReadField {
            from: rng.range_u16(3, 6),
            into: rng.range_u16(1, 3),
        },
        5 => Stmt::Drop(rng.range_u16(3, 6)),
        6 => Stmt::Print(rng.range_u16(1, 3)),
        _ => Stmt::Churn(rng.range_u8(1, 30)),
    }
}

fn stmts(rng: &mut Rng, max: usize) -> Vec<Stmt> {
    rng.vec(0, max, stmt)
}

fn build(stmts: &[Stmt], branch_stmts: &[Stmt]) -> Program {
    let mut b = ProgramBuilder::new();
    let class = b
        .begin_class("T.Obj")
        .field("f", Visibility::Private)
        .finish();
    let main = b.declare_method("main", None, true, 1, 6);
    {
        let mut m = b.begin_body(main);
        for l in 1..=2 {
            m.push_int(0).store(l);
        }
        for l in 3..=5 {
            m.new_obj(class).store(l);
            m.load(l).push_int(0).putfield(0);
        }
        let emit =
            |m: &mut heapdrag::vm::builder::MethodBuilder<'_>, stmts: &[Stmt], tag: usize| {
                for (k, s) in stmts.iter().enumerate() {
                    match s {
                        Stmt::SetInt(l, v) => {
                            m.push_int(*v as i64).store(*l);
                        }
                        Stmt::Add(a, b2) => {
                            m.load(*a).load(*b2).add().store(*a);
                        }
                        Stmt::AllocUseObj { local, v } => {
                            m.new_obj(class).store(*local);
                            m.load(*local).push_int(*v as i64).putfield(0);
                        }
                        Stmt::AllocDeadObj { local } => {
                            // Allocated, stored, then overwritten by null —
                            // dynamic drag, and (if nothing reads it) a
                            // dead-code-removal candidate after nulling.
                            m.new_obj(class).store(*local);
                            m.push_null().store(*local);
                        }
                        Stmt::ReadField { from, into } => {
                            let skip = format!("s{tag}_{k}");
                            m.load(*from).branch_if_null(skip.clone());
                            m.load(*from).getfield(0).store(*into);
                            m.label(skip);
                        }
                        Stmt::Drop(l) => {
                            m.push_null().store(*l);
                        }
                        Stmt::Print(l) => {
                            m.load(*l).print();
                        }
                        Stmt::Churn(n) => {
                            m.push_int(*n as i64).new_array().pop();
                        }
                    }
                }
            };
        emit(&mut m, stmts, 0);
        m.load(1).load(2).cmple().branch("taken");
        m.jump("merge");
        m.label("taken");
        emit(&mut m, branch_stmts, 1);
        m.label("merge");
        m.load(1).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("generated program links")
}

#[test]
fn assign_null_preserves_output_and_saves_space() {
    check("assign_null_preserves_output_and_saves_space", 40, |rng| {
        let original = build(&stmts(rng, 20), &stmts(rng, 8));
        let mut revised = original.clone();
        assign_null_program(&mut revised);
        revised.link().expect("still well-formed");

        let a = Vm::new(&original, RawConfig::default())
            .run(&[])
            .expect("runs");
        let b = Vm::new(&revised, RawConfig::default())
            .run(&[])
            .expect("runs");
        assert_eq!(&a.output, &b.output);

        // Space-time never regresses under fine-grained collection.
        let mut cfg = VmConfig::profiling();
        cfg.deep_gc_interval = Some(256);
        let po = profile(&original, &[], cfg.clone()).expect("profiles");
        let pr = profile(&revised, &[], cfg).expect("profiles");
        let io = Integrals::from_records(&po.records);
        let ir = Integrals::from_records(&pr.records);
        assert!(
            ir.reachable <= io.reachable,
            "reachable {} -> {}",
            io.reachable,
            ir.reachable
        );
        assert_eq!(io.in_use, ir.in_use, "uses unchanged");
    });
}

#[test]
fn dead_code_removal_preserves_output() {
    check("dead_code_removal_preserves_output", 40, |rng| {
        let original = build(&stmts(rng, 20), &stmts(rng, 8));
        let mut revised = original.clone();
        let removed = remove_all_dead_allocations(&mut revised);
        revised.link().expect("still well-formed");
        let a = Vm::new(&original, RawConfig::default())
            .run(&[])
            .expect("runs");
        let b = Vm::new(&revised, RawConfig::default())
            .run(&[])
            .expect("runs");
        assert_eq!(&a.output, &b.output);
        assert!(
            b.heap.allocated_bytes <= a.heap.allocated_bytes,
            "removal never allocates more"
        );
        // Note: a strict decrease is NOT guaranteed — a removed allocation
        // may sit on a path the input never executes.
        let _ = removed;
    });
}

#[test]
fn transforms_compose() {
    check("transforms_compose", 40, |rng| {
        let original = build(&stmts(rng, 16), &[]);
        let mut revised = original.clone();
        assign_null_program(&mut revised);
        remove_all_dead_allocations(&mut revised);
        assign_null_program(&mut revised);
        revised
            .link()
            .expect("transformed program passes the bytecode verifier");
        let a = Vm::new(&original, RawConfig::default())
            .run(&[])
            .expect("runs");
        let b = Vm::new(&revised, RawConfig::default())
            .run(&[])
            .expect("runs");
        assert_eq!(a.output, b.output);
    });
}
