//! Exception-unwind regressions pinning the subtle pc arithmetic both
//! interpreters must agree on:
//!
//! * the resume pc after a `Call` is the *call's own* pc
//!   (`caller.pc.saturating_sub(1)`), including the pc-0 edge where the
//!   subtraction saturates;
//! * a fault in the *second half* of a fused superinstruction pair (the
//!   fast interpreter executes `load; getfield` as one op) is attributed
//!   to the second instruction's original pc, so handler ranges keep
//!   their exact Insn-level meaning;
//! * handler search walks past non-matching handlers in intermediate
//!   frames;
//! * a throw escaping a finalizer is swallowed without corrupting the
//!   interpreter loop that triggered the deep GC;
//! * the step budget lands on the same instruction even when that
//!   instruction is the buried half of a fused pair.
//!
//! Every scenario runs on both interpreters and the results are compared
//! wholesale, so these double as the smallest-possible differential
//! cases for the unwind machinery.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::error::VmError;
use heapdrag_vm::ids::MethodId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::interp::{InterpreterKind, RunOutcome, Vm, VmConfig};
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

fn run_both(program: &Program, config: VmConfig) -> Result<RunOutcome, VmError> {
    let fast = Vm::new(
        program,
        VmConfig {
            interpreter: InterpreterKind::Fast,
            ..config.clone()
        },
    )
    .run(&[]);
    let reference = Vm::new(
        program,
        VmConfig {
            interpreter: InterpreterKind::Reference,
            ..config
        },
    )
    .run(&[]);
    assert_eq!(fast, reference, "interpreters disagree");
    fast
}

/// A 0-parameter static method whose body divides by zero.
fn add_boom(b: &mut ProgramBuilder) -> MethodId {
    let boom = b.declare_method("boom", None, true, 0, 1);
    let mut m = b.begin_body(boom);
    m.push_int(1).push_int(0).div().pop().ret();
    m.finish()
}

#[test]
fn handler_at_pc_zero_catches_fault_from_called_frame() {
    // The Call sits at pc 0 of main, so after the callee's frame is
    // popped the caller's resume pc is 1 and the faulting pc is
    // `1.saturating_sub(1) == 0` — the handler range [0, 1) must match.
    let mut b = ProgramBuilder::new();
    let arith = b.builtins().arithmetic;
    let boom = add_boom(&mut b);
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.label("try");
        m.call(boom); // pc 0
        m.label("end");
        m.jump("out");
        m.label("h").pop().push_int(42).print();
        m.label("out").ret();
        m.handler("try", "end", "h", Some(arith));
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let out = run_both(&p, VmConfig::default()).expect("caught");
    assert_eq!(out.output, vec![42]);
}

/// Builds `main` as `load 0; getfield val` on a null local — a fusable
/// pair — with the handler covering only `[cover_start, cover_end)`.
fn fused_null_getfield(cover_start: &str, cover_end: &str) -> Program {
    let mut b = ProgramBuilder::new();
    let npe = b.builtins().null_pointer;
    let c = b
        .begin_class("app.C")
        .field("val", Visibility::Public)
        .finish();
    let slot = b.field_slot(c, "val");
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        m.push_null().store(1); // pc 0, 1
        m.label("p2");
        m.load(1); // pc 2  ─┐ fused into LoadGetField
        m.label("p3");
        m.getfield(slot); // pc 3  ─┘ the NPE belongs *here*
        m.label("p4");
        m.pop().push_int(-1).print().ret();
        m.label("h").pop().push_int(7).print().ret();
        m.handler(cover_start, cover_end, "h", Some(npe));
        m.finish();
    }
    b.set_entry(main);
    b.finish().unwrap()
}

#[test]
fn fused_pair_fault_is_attributed_to_the_second_pc() {
    // Handler covering only the getfield's pc catches...
    let p = fused_null_getfield("p3", "p4");
    let out = run_both(&p, VmConfig::default()).expect("caught at pc 3");
    assert_eq!(out.output, vec![7]);

    // ...and a handler covering only the load's pc does not, even though
    // the fast interpreter raised the fault from an op fetched at pc 2.
    let p = fused_null_getfield("p2", "p3");
    let err = run_both(&p, VmConfig::default()).expect_err("pc 2 is not covered");
    assert!(
        matches!(err, VmError::UncaughtException { .. }),
        "expected an uncaught NPE, got {err:?}"
    );
}

#[test]
fn unwind_searches_past_non_matching_intermediate_handlers() {
    // main ── f (handler for app.Exc only) ── g (throws arithmetic):
    // the unwind must pop g, reject f's handler, and land in main's.
    let mut b = ProgramBuilder::new();
    let arith = b.builtins().arithmetic;
    let exc = b.begin_class("app.Exc").finish();
    let g = add_boom(&mut b);
    let f = b.declare_method("f", None, true, 0, 1);
    {
        let mut m = b.begin_body(f);
        m.label("fs");
        m.call(g);
        m.label("fe");
        m.push_int(0).ret_val();
        m.label("fh").pop().push_int(-9).ret_val();
        m.handler("fs", "fe", "fh", Some(exc));
        m.finish();
    }
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.push_int(1).print(); // before
        m.label("ms");
        m.call(f);
        m.pop();
        m.label("me");
        m.jump("out");
        m.label("mh").pop().push_int(3).print();
        m.label("out").push_int(2).print().ret();
        m.handler("ms", "me", "mh", Some(arith));
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let out = run_both(&p, VmConfig::default()).expect("main catches");
    assert_eq!(out.output, vec![1, 3, 2]);
}

#[test]
fn throw_escaping_a_finalizer_is_swallowed() {
    // The finalizer divides by zero; the deep GC that runs it must not
    // abort the program or disturb the mutator's observable output.
    let mut b = ProgramBuilder::new();
    let counter = b.static_var("G.finalized", Visibility::Public, Value::Int(0));
    let res = b.begin_class("app.Res").finish();
    let fin = b.declare_method("finalize", Some(res), false, 1, 1);
    {
        let mut m = b.begin_body(fin);
        m.getstatic(counter).push_int(1).add().putstatic(counter);
        m.push_int(1).push_int(0).div().pop(); // throws out of the finalizer
        m.ret();
        m.finish();
    }
    b.set_finalizer(res, fin);
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        for _ in 0..3 {
            m.new_obj(res).pop();
        }
        m.push_int(0).store(1);
        m.label("churn");
        m.load(1).push_int(400).cmpge().branch("done");
        m.push_int(40).new_array().pop();
        m.load(1).push_int(1).add().store(1);
        m.jump("churn");
        m.label("done");
        m.getstatic(counter).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let out = run_both(&p, VmConfig::profiling()).expect("survives finalizer throws");
    assert_eq!(out.output, vec![3], "all three finalizers still ran");
}

#[test]
fn fused_second_half_underflow_matches_reference_attribution() {
    // `push 5; add` fuses into PushIntAdd; the underflow happens while
    // popping the *second* operand, so both interpreters must report the
    // add's pc (1), not the push's (0). Link rejects that code, so it is
    // put in place after linking: the interpreters' own underflow check
    // exists for programs edited after link (their fields are public).
    let mut b = ProgramBuilder::new();
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let mut p = b.finish().unwrap();
    p.methods[main.index()].code = vec![Insn::PushInt(5), Insn::Add, Insn::Pop, Insn::Ret];
    let err = run_both(&p, VmConfig::default()).expect_err("underflows");
    assert_eq!(
        err,
        VmError::StackUnderflow {
            method: main,
            pc: 1
        }
    );
    match p.link() {
        Err(VmError::InvalidBytecode { method, pc: 1, .. }) if method == main => {}
        other => panic!("link must reject the add at pc 1, got {other:?}"),
    }
}

#[test]
fn step_budget_lands_identically_inside_fused_pairs() {
    // `push 1; push 2; add; print; ret` — the (push 2, add) pair fuses,
    // so budget 3 exhausts *between* the halves of one fast op.
    let mut b = ProgramBuilder::new();
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.push_int(1).push_int(2).add().print().ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    for budget in 1..=4 {
        let config = VmConfig {
            max_steps: Some(budget),
            ..VmConfig::default()
        };
        let r = run_both(&p, config);
        assert_eq!(r, Err(VmError::StepBudgetExhausted), "budget {budget}");
    }
    let full = run_both(
        &p,
        VmConfig {
            max_steps: Some(5),
            ..VmConfig::default()
        },
    )
    .expect("five steps suffice");
    assert_eq!(full.output, vec![3]);
    assert_eq!(full.steps, 5);
}
