//! Seeded random-program generator for differential interpreter testing.
//!
//! [`random_program`] emits a complete, verifier-valid [`Program`] plus a
//! matching input vector, deterministically from a [`Rng`]. The programs
//! are deliberately shaped to exercise the corners the fixed workload
//! suite does not:
//!
//! * **megamorphic virtual call sites** — a pool of `Node` subclasses with
//!   same-named `visit` overrides is allocated on rotation, so a single
//!   `callvirt` site sees many receiver classes and defeats a monomorphic
//!   inline cache;
//! * **exception handlers** — statement-level try/catch around divisions,
//!   array accesses and explicit `throw`s, with both matching and
//!   catch-all clauses;
//! * **deep unwinds** — an acyclic static helper chain whose last link
//!   divides by a value that is periodically zero, so the thrown
//!   `ArithmeticException` unwinds through several frames (one of which
//!   carries a deliberately non-matching handler) before being caught in
//!   `main`;
//! * **finalizers** — a finalizable class allocated as immediate garbage,
//!   with the finalization count printed so GC/finalizer scheduling is
//!   part of the observable output;
//! * **stack-edge shapes** — straight-line pushes of 6–14 operands folded
//!   with adds, probing operand-stack sizing and overflow checks.
//!
//! Every generated statement has net-zero stack effect and every jump
//! label is placed at stack depth 0 (handler entries at depth 1, matching
//! the verifier's model), so the output always passes the verifier that
//! [`Program::link`] runs. Runtime exceptions (divide-by-zero, null receiver,
//! index out of bounds) are intended and either caught by generated
//! handlers or surface as identical errors from both interpreters.
//!
//! Generation is total: any `Rng` yields a valid program, so a property
//! harness can drive this with [`crate::check`] and replay failures via
//! `TESTKIT_SEED`.

use heapdrag_vm::builder::{MethodBuilder, ProgramBuilder};
use heapdrag_vm::class::Visibility;
use heapdrag_vm::ids::{ClassId, MethodId, StaticId};
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

use crate::rng::Rng;

// `main` local slots (num_locals = 12).
const L_ARR: u16 = 0; // input array (parameter)
const L_I: u16 = 1; // loop counter
const L_N: u16 = 2; // trip count
const L_PREV: u16 = 3; // head of the node list (ref)
const L_ACC: u16 = 4; // running accumulator
const L_NODE: u16 = 5; // most recent node (ref)
const L_LEN: u16 = 6; // input length
const L_S0: u16 = 7; // int scratch pool: 7, 8, 9
const L_R0: u16 = 10; // ref scratch pool: 10, 11

/// Everything the statement emitters need that must be captured before a
/// `MethodBuilder` mutably borrows the `ProgramBuilder`.
struct Shape {
    /// `Node` subclass pool, allocated on rotation by `i % k`.
    classes: Vec<ClassId>,
    val_slot: u16,
    next_slot: u16,
    /// Custom exception class thrown/caught by generated statements.
    exc: ClassId,
    /// Finalizable class allocated as immediate garbage.
    fin: ClassId,
    /// Acyclic static helper chain; `helpers[0]` is the entry.
    helpers: Vec<MethodId>,
    arith: ClassId,
    index_oob: ClassId,
    g_static: StaticId,
    fin_count: StaticId,
}

/// Mutable generation state threaded through the statement emitters.
struct Gen<'a> {
    rng: &'a mut Rng,
    labels: u32,
}

impl Gen<'_> {
    fn lab(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}_{}", self.labels)
    }

    fn int_scratch(&mut self) -> u16 {
        L_S0 + self.rng.range_u16(0, 3)
    }
}

/// Emits an int expression with net stack effect +1, depth-bounded.
fn int_expr(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, depth: u32) {
    if depth == 0 || g.rng.ratio(2, 5) {
        match g.rng.range_u32(0, 5) {
            0 => {
                m.push_int(g.rng.range_i64(-9, 10));
            }
            1 => {
                m.load(L_I);
            }
            2 => {
                m.load(L_ACC);
            }
            3 => {
                let s = g.int_scratch();
                m.load(s);
            }
            // input[i % len] — len >= 1 is guaranteed by the input shape.
            _ => {
                m.load(L_ARR).load(L_I).load(L_LEN).rem().aload();
            }
        }
    } else {
        int_expr(m, g, depth - 1);
        int_expr(m, g, depth - 1);
        match g.rng.range_u32(0, 3) {
            0 => m.add(),
            1 => m.sub(),
            _ => m.mul(),
        };
    }
}

/// `acc = acc <op> expr` (or into an int scratch local).
fn s_arith(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>) {
    let dst = if g.rng.ratio(2, 3) {
        L_ACC
    } else {
        g.int_scratch()
    };
    let depth = g.rng.range_u32(1, 3);
    m.load(L_ACC);
    int_expr(m, g, depth);
    match g.rng.range_u32(0, 3) {
        0 => m.add(),
        1 => m.sub(),
        _ => m.mul(),
    };
    m.store(dst);
}

/// `scratch = acc / (i % m)` with a handler — throws every m-th iteration.
fn s_guarded_div(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let (ts, hh, done) = (g.lab("div_try"), g.lab("div_catch"), g.lab("div_done"));
    let s = g.int_scratch();
    let mdiv = g.rng.range_i64(2, 6);
    let catch = if g.rng.ratio(2, 3) {
        Some(shape.arith)
    } else {
        None
    };
    m.label(&ts);
    m.load(L_ACC).load(L_I).push_int(mdiv).rem().div().store(s);
    m.jump(&done);
    m.label(&hh).pop().push_int(7).store(s);
    m.label(&done);
    m.handler(&ts, &hh, &hh, catch);
}

/// Call into the helper chain; a divide-by-zero several frames deep
/// unwinds back to the handler here (past a non-matching handler on the
/// way), exercising multi-frame handler search.
fn s_helper_call(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let (ts, hh, done) = (g.lab("h_try"), g.lab("h_catch"), g.lab("h_done"));
    let s = g.int_scratch();
    let catch = if g.rng.ratio(3, 4) {
        Some(shape.arith)
    } else {
        None
    };
    m.label(&ts);
    m.load(L_I).call(shape.helpers[0]).store(s);
    m.jump(&done);
    m.label(&hh).pop().push_int(-3).store(s);
    m.label(&done);
    m.handler(&ts, &hh, &hh, catch);
}

/// Allocates a `Node` whose class rotates with `i % k` (the megamorphic
/// receiver pool), links it onto the list and wires its fields.
fn s_alloc_node(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let k = shape.classes.len();
    let set = g.lab("mk_done");
    let arms: Vec<String> = (0..k - 1).map(|j| g.lab(&format!("mk{j}"))).collect();
    for (j, arm) in arms.iter().enumerate() {
        m.load(L_I)
            .push_int(k as i64)
            .rem()
            .push_int(j as i64)
            .cmpeq()
            .branch(arm);
    }
    m.new_obj(shape.classes[k - 1]).store(L_NODE).jump(&set);
    for (j, arm) in arms.iter().enumerate() {
        m.label(arm).new_obj(shape.classes[j]).store(L_NODE).jump(&set);
    }
    m.label(&set);
    m.load(L_NODE).load(L_ACC).putfield(shape.val_slot);
    m.load(L_NODE).load(L_PREV).putfield(shape.next_slot);
    m.load(L_NODE).store(L_PREV);
}

/// `scratch = node.visit(i % 3)` — the megamorphic virtual call site.
fn s_vcall(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>) {
    let skip = g.lab("vc_skip");
    let s = g.int_scratch();
    m.load(L_NODE).branch_if_null(&skip);
    m.load(L_NODE)
        .load(L_I)
        .push_int(3)
        .rem()
        .call_virtual("visit", 1)
        .store(s);
    m.label(&skip);
}

/// Immediate garbage: finalizable objects and a throwaway array, churning
/// the allocation clock toward the next deep GC.
fn s_garbage(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    for _ in 0..g.rng.range_u32(1, 3) {
        m.new_obj(shape.fin).pop();
    }
    if g.rng.ratio(1, 2) {
        m.push_int(g.rng.range_i64(1, 32)).new_array().pop();
    }
}

/// Round-trips `acc` through a fresh array (in-bounds).
fn s_array_rw(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>) {
    let size = g.rng.range_i64(1, 8);
    let idx = g.rng.range_i64(0, size);
    let r = L_R0 + g.rng.range_u16(0, 2);
    m.push_int(size).new_array().store(r);
    m.load(r).push_int(idx).load(L_ACC).astore();
    m.load(r).push_int(idx).aload().load(L_ACC).add().store(L_ACC);
}

/// A deliberately out-of-bounds read, caught locally.
fn s_oob(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let (ts, hh, done) = (g.lab("oob_try"), g.lab("oob_catch"), g.lab("oob_done"));
    let s = g.int_scratch();
    let catch = if g.rng.ratio(1, 2) {
        Some(shape.index_oob)
    } else {
        None
    };
    m.label(&ts);
    m.push_int(2).new_array().push_int(5).aload().store(s);
    m.jump(&done);
    m.label(&hh).pop();
    m.label(&done);
    m.handler(&ts, &hh, &hh, catch);
}

/// A balanced monitor enter/exit pair on the current node.
fn s_monitor(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>) {
    let skip = g.lab("mon_skip");
    m.load(L_NODE).branch_if_null(&skip);
    m.load(L_NODE).monitor_enter();
    m.load(L_ACC).push_int(1).add().store(L_ACC);
    m.load(L_NODE).monitor_exit();
    m.label(&skip);
}

/// Throws a custom exception object every p-th iteration, caught locally.
fn s_throw_exc(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let (thr, hh, done) = (g.lab("exc_thr"), g.lab("exc_catch"), g.lab("exc_done"));
    let p = g.rng.range_i64(2, 5);
    let catch = if g.rng.ratio(3, 4) {
        Some(shape.exc)
    } else {
        None
    };
    m.load(L_I)
        .push_int(p)
        .rem()
        .push_int(0)
        .cmpeq()
        .branch(&thr);
    m.jump(&done);
    m.label(&thr).new_obj(shape.exc).throw();
    m.label(&hh).pop().load(L_ACC).push_int(13).add().store(L_ACC);
    m.label(&done);
    m.handler(&thr, &hh, &hh, catch);
}

/// `acc += prev instanceof C_j` — `instance_of` tolerates null.
fn s_instance_of(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    let class = *g.rng.choose(&shape.classes);
    m.load(L_PREV)
        .instance_of(class)
        .load(L_ACC)
        .add()
        .store(L_ACC);
}

/// Pushes 6–14 operands and folds them — probes operand-stack sizing.
fn s_stack_edge(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>) {
    let d = g.rng.range_u32(6, 15);
    let s = g.int_scratch();
    for _ in 0..d {
        m.push_int(g.rng.range_i64(-4, 5));
    }
    for _ in 0..d - 1 {
        m.add();
    }
    m.store(s);
}

/// Folds an expression into the global static accumulator.
fn s_static_bump(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    m.getstatic(shape.g_static);
    int_expr(m, g, 1);
    m.add().putstatic(shape.g_static);
}

/// Emits one randomly chosen loop-body statement.
fn random_statement(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    match g.rng.range_u32(0, 12) {
        0 => s_arith(m, g),
        1 => s_guarded_div(m, g, shape),
        2 => s_helper_call(m, g, shape),
        3 => s_alloc_node(m, g, shape),
        4 => s_vcall(m, g),
        5 => s_garbage(m, g, shape),
        6 => s_array_rw(m, g),
        7 => s_oob(m, g, shape),
        8 => s_monitor(m, g),
        9 => s_throw_exc(m, g, shape),
        10 => s_instance_of(m, g, shape),
        11 => s_stack_edge(m, g),
        _ => s_static_bump(m, g, shape),
    }
}

/// Generates a `visit` override body. Locals: 0 = self, 1 = depth,
/// 2 = int scratch. Recurses down the `next` chain while depth > 0.
fn visit_body(m: &mut MethodBuilder<'_>, g: &mut Gen<'_>, shape: &Shape) {
    // val = val <op> (d + c)
    let c = g.rng.range_i64(-5, 6);
    m.load(0)
        .load(0)
        .getfield(shape.val_slot)
        .load(1)
        .push_int(c)
        .add();
    match g.rng.range_u32(0, 3) {
        0 => m.add(),
        1 => m.sub(),
        _ => m.mul(),
    };
    m.putfield(shape.val_slot);
    if g.rng.ratio(1, 2) {
        // Allocation inside a virtual method: a context-sensitive site.
        let class = if g.rng.ratio(1, 3) {
            shape.fin
        } else {
            *g.rng.choose(&shape.classes)
        };
        m.new_obj(class).pop();
    }
    if g.rng.ratio(2, 3) {
        // if d > 0 && next != null { next.visit(d - 1) } — recursion down
        // the list keeps the call site megamorphic at every depth.
        let isnull = g.lab("v_null");
        let done = g.lab("v_done");
        m.load(1).push_int(0).cmple().branch(&done);
        m.load(0)
            .getfield(shape.next_slot)
            .dup()
            .branch_if_null(&isnull);
        m.load(1)
            .push_int(1)
            .sub()
            .call_virtual("visit", 1)
            .pop()
            .jump(&done);
        m.label(&isnull).pop();
        m.label(&done);
    }
    m.load(0).getfield(shape.val_slot).ret_val();
}

/// Builds a program and a matching input vector from `rng`.
///
/// The program is linked, and so verified, before being returned, so a
/// generator bug panics here (replayable via the property
/// runner's reported seed) instead of surfacing as a confusing
/// differential failure.
pub fn random_program(rng: &mut Rng) -> (Program, Vec<i64>) {
    let mut g = Gen { rng, labels: 0 };
    let mut b = ProgramBuilder::new();
    let builtins = b.builtins();

    let g_static = b.static_var("G.acc", Visibility::Public, Value::Int(0));
    let fin_count = b.static_var("G.finalized", Visibility::Public, Value::Int(0));

    // The Node hierarchy: base with the fields, subclasses overriding
    // `visit` (slot layout is inherited, so one slot id serves them all).
    let base = b
        .begin_class("gen.Node")
        .field("val", Visibility::Public)
        .field("next", Visibility::Private)
        .finish();
    let val_slot = b.field_slot(base, "val");
    let next_slot = b.field_slot(base, "next");
    let k = g.rng.range_usize(2, 6);
    let mut classes = Vec::with_capacity(k);
    for j in 0..k {
        classes.push(b.begin_class(format!("gen.Node{j}")).extends(base).finish());
    }

    let exc = b
        .begin_class("gen.Exc")
        .field("code", Visibility::Public)
        .finish();

    let fin = b.begin_class("gen.Fin").finish();
    let fin_m = b.declare_method("finalize", Some(fin), false, 1, 1);
    {
        let mut m = b.begin_body(fin_m);
        m.getstatic(fin_count).push_int(1).add().putstatic(fin_count);
        m.ret();
        m.finish();
    }
    b.set_finalizer(fin, fin_m);

    // Acyclic helper chain h0 -> h1 -> ... -> h_last; declared up front so
    // each body can call the next link.
    let nh = g.rng.range_usize(2, 5);
    let helpers: Vec<MethodId> = (0..nh)
        .map(|i| b.declare_method(format!("h{i}"), None, true, 1, 2))
        .collect();

    let shape = Shape {
        classes,
        val_slot,
        next_slot,
        exc,
        fin,
        helpers,
        arith: builtins.arithmetic,
        index_oob: builtins.index_oob,
        g_static,
        fin_count,
    };

    // Base `visit` plus overrides on most subclasses: the same selector
    // dispatches to many targets, which is what makes the pool
    // megamorphic rather than just polymorphic.
    let visit_base = b.declare_method("visit", Some(base), false, 2, 3);
    {
        let mut m = b.begin_body(visit_base);
        m.load(0).getfield(shape.val_slot).load(1).add().ret_val();
        m.finish();
    }
    for &class in &shape.classes {
        if g.rng.ratio(4, 5) {
            let vm = b.declare_method("visit", Some(class), false, 2, 3);
            let mut m = b.begin_body(vm);
            visit_body(&mut m, &mut g, &shape);
            m.finish();
        }
    }

    // Helper bodies. The middle of the chain gets a handler that can
    // never match the arithmetic throw, so unwinds must search past it.
    for i in 0..nh {
        let mut m = b.begin_body(shape.helpers[i]);
        if i + 1 < nh {
            let c = g.rng.range_i64(-3, 4);
            m.load(0).push_int(c).add();
            if i == nh / 2 && g.rng.ratio(2, 3) {
                m.label("hs");
                m.call(shape.helpers[i + 1]);
                m.label("he");
                m.push_int(1).add().ret_val();
                m.label("hh").pop().push_int(-1).ret_val();
                m.handler("hs", "he", "hh", Some(shape.exc));
            } else {
                m.call(shape.helpers[i + 1]);
                m.push_int(1).add().ret_val();
            }
        } else {
            // x / (x % m): throws ArithmeticException when x % m == 0.
            let mdiv = g.rng.range_i64(2, 6);
            m.load(0).load(0).push_int(mdiv).rem().div().ret_val();
        }
        m.finish();
    }

    // main(input): a counted loop of random statements, then a walk of
    // the node list (load+getfield pairs — superinstruction fodder) and
    // the observable prints.
    let main = b.declare_method("main", None, true, 1, 12);
    {
        let mut m = b.begin_body(main);
        let mult = g.rng.range_i64(1, 4);
        let base_trips = g.rng.range_i64(3, 9);
        m.load(L_ARR).array_len().store(L_LEN);
        m.load(L_LEN)
            .push_int(mult)
            .mul()
            .push_int(base_trips)
            .add()
            .store(L_N);
        m.load(L_ARR).push_int(0).aload().store(L_ACC);
        m.push_int(0).store(L_I);
        m.push_null().store(L_PREV);

        m.label("loop");
        m.load(L_I).load(L_N).cmpge().branch("after");
        s_alloc_node(&mut m, &mut g, &shape);
        s_vcall(&mut m, &mut g);
        for _ in 0..g.rng.range_u32(3, 8) {
            random_statement(&mut m, &mut g, &shape);
        }
        if g.rng.ratio(1, 4) {
            m.load(L_ACC).print();
        }
        m.load(L_I).push_int(1).add().store(L_I);
        m.jump("loop");

        m.label("after");
        // acc += sum of val over the list; prev = prev.next until null.
        m.label("walk");
        m.load(L_PREV).branch_if_null("walked");
        m.load(L_PREV)
            .getfield(shape.val_slot)
            .load(L_ACC)
            .add()
            .store(L_ACC);
        m.load(L_PREV).getfield(shape.next_slot).store(L_PREV);
        m.jump("walk");
        m.label("walked");
        m.load(L_ACC).print();
        m.getstatic(shape.g_static).print();
        m.getstatic(shape.fin_count).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);

    let program = b.finish().expect("generated program failed to link");

    let len = g.rng.range_usize(1, 9);
    let input: Vec<i64> = (0..len).map(|_| g.rng.range_i64(-50, 51)).collect();
    (program, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::interp::{Vm, VmConfig};

    #[test]
    fn generated_programs_link_verify_and_run() {
        let mut rng = Rng::new(0x5eed);
        for _ in 0..16 {
            let (program, input) = random_program(&mut rng);
            // Must at least start executing; runtime errors are allowed
            // (they are part of the differential surface), panics not.
            let _ = Vm::new(&program, VmConfig::default()).run(&input);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (p1, i1) = random_program(&mut Rng::new(42));
        let (p2, i2) = random_program(&mut Rng::new(42));
        assert_eq!(i1, i2);
        assert_eq!(p1.methods.len(), p2.methods.len());
        for (a, b) in p1.methods.iter().zip(p2.methods.iter()) {
            assert_eq!(a.code, b.code, "method {} differs", a.name);
        }
    }
}
