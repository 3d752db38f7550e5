//! The *assigning null* rewriting (§3.3.1), mechanized: insert
//! `pushnull; store l` at every death-frontier point found by the liveness
//! analysis, so dead local references stop rooting their objects.

use heapdrag_analysis::liveness::death_points;
use heapdrag_vm::code_edit::insert_at;
use heapdrag_vm::ids::{MethodId, StaticId};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::error::TransformError;

/// Inserts null stores at all death points of `method`; returns how many
/// stores were inserted.
///
/// # Errors
///
/// Returns [`TransformError::Analysis`] when type inference fails on the
/// method (the method is left untouched).
pub fn assign_null_method(
    program: &mut Program,
    method: MethodId,
) -> Result<usize, TransformError> {
    let mut points = death_points(program, method)?;
    // Insert from the back so earlier pcs stay valid; batch points sharing
    // one pc into a single insertion.
    points.sort_by(|a, b| b.pc.cmp(&a.pc).then(a.local.cmp(&b.local)));
    let mut inserted = 0;
    let mut i = 0;
    while i < points.len() {
        let pc = points[i].pc;
        let mut insns = Vec::new();
        while i < points.len() && points[i].pc == pc {
            insns.push(Insn::PushNull);
            insns.push(Insn::Store(points[i].local));
            i += 1;
        }
        insert_at(&mut program.methods[method.index()], pc, &insns);
        inserted += insns.len() / 2;
    }
    Ok(inserted)
}

/// The *assigning null* rewriting aimed at a **static** holder: inserts
/// `pushnull; putstatic target` immediately after `pc` in `method`,
/// releasing whatever the static was rooting from that point on.
///
/// This is the mechanical half of path-anchored assign-null: the caller
/// names the static (from a sampled retaining path) and the insertion
/// point (the profile's dominant last-use pc). Unlike
/// [`assign_null_method`], nothing here is proven safe by a static
/// analysis — the rewrite is profile-guided, so callers **must** gate it
/// behind an output-differential equivalence check, the way the fleet
/// driver does.
///
/// The instruction pair is stack-neutral (it pushes the null it pops), so
/// inserting mid-expression cannot disturb surrounding operands.
///
/// # Panics
///
/// Panics if `pc` is not a valid instruction index of `method`.
pub fn null_static_after(program: &mut Program, method: MethodId, pc: u32, target: StaticId) {
    let m = &mut program.methods[method.index()];
    assert!(
        (pc as usize) < m.code.len(),
        "anchor pc {pc} beyond method end {}",
        m.code.len()
    );
    insert_at(m, pc + 1, &[Insn::PushNull, Insn::PutStatic(target)]);
}

/// Applies [`assign_null_method`] to every method of the program; methods
/// the analysis cannot handle are skipped. Returns the total number of
/// null stores inserted.
pub fn assign_null_program(program: &mut Program) -> usize {
    let mut total = 0;
    for mid in 0..program.methods.len() as u32 {
        if let Ok(n) = assign_null_method(program, MethodId(mid)) {
            total += n;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, VmConfig};
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::interp::Vm;
    use heapdrag_vm::value::Value;

    /// Builds the juru shape: a large buffer used early, then dragged
    /// across a long filler phase because the local still roots it.
    fn juru_like() -> Program {
        let mut b = ProgramBuilder::new();
        let _ = b
            .begin_class("Doc")
            .field("len", Visibility::Private)
            .finish();
        let filler = b.declare_method("filler", None, true, 0, 1);
        {
            let mut m = b.begin_body(filler);
            m.push_int(0).store(0);
            m.label("loop");
            m.load(0).push_int(400).cmpge().branch("done");
            m.push_int(32).new_array().pop();
            m.load(0).push_int(1).add().store(0);
            m.jump("loop");
            m.label("done").ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.push_int(4000).mark("big buffer").new_array().store(1);
            m.load(1).push_int(0).push_int(7).astore(); // use it once
            m.load(1).push_int(0).aload().print(); // last use
            m.call(filler); // buffer dragged across this
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn inserts_null_store_and_preserves_output() {
        let original = juru_like();
        let mut revised = original.clone();
        let entry = revised.entry;
        let n = assign_null_method(&mut revised, entry).unwrap();
        assert!(n >= 1, "at least the buffer local dies");
        revised.link().unwrap();
        let out1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let out2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(out1.output, out2.output);
    }

    #[test]
    fn nulling_reduces_drag() {
        let original = juru_like();
        let mut revised = original.clone();
        assign_null_program(&mut revised);
        revised.link().unwrap();

        let run1 = profile(&original, &[], VmConfig::profiling()).unwrap();
        let run2 = profile(&revised, &[], VmConfig::profiling()).unwrap();
        let i1 = heapdrag_core::Integrals::from_records(&run1.records);
        let i2 = heapdrag_core::Integrals::from_records(&run2.records);
        assert!(
            i2.reachable < i1.reachable,
            "revised reachable integral {} should undercut original {}",
            i2.reachable,
            i1.reachable
        );
        assert_eq!(i1.in_use, i2.in_use, "in-use behaviour unchanged");
    }

    #[test]
    fn idempotent_on_already_nulled_code() {
        let mut p = juru_like();
        assign_null_program(&mut p);
        p.link().unwrap();
        let mut again = p.clone();
        let n = assign_null_program(&mut again);
        again.link().unwrap();
        // A second pass may insert at most stores for the nulls themselves
        // (null locals are not ref-typed… they are Null, which is reflike),
        // but must not grow without bound: re-running on the result of the
        // second pass changes nothing.
        let mut third = again.clone();
        let n3 = assign_null_program(&mut third);
        assert_eq!(n, n3, "passes converge");
    }

    #[test]
    fn null_static_after_releases_a_static_holder() {
        // A static roots a big buffer across a filler phase; no local dies
        // (main's local stays live to the end), so only the static-aimed
        // rewrite can release it.
        let build = |nulled: bool| {
            let mut b = ProgramBuilder::new();
            let cache = b.static_var("App.cache", Visibility::Private, Value::Null);
            let filler = b.declare_method("filler", None, true, 0, 1);
            {
                let mut m = b.begin_body(filler);
                m.push_int(0).store(0);
                m.label("loop");
                m.load(0).push_int(800).cmpge().branch("done");
                m.push_int(64).new_array().pop();
                m.load(0).push_int(1).add().store(0);
                m.jump("loop");
                m.label("done").ret();
                m.finish();
            }
            let main = b.declare_method("main", None, true, 1, 1);
            let pc_of_last_use;
            {
                let mut m = b.begin_body(main);
                m.push_int(2000).mark("cached buffer").new_array();
                m.putstatic(cache);
                m.getstatic(cache).push_int(0).push_int(5).astore();
                m.getstatic(cache).push_int(0).aload().print(); // last use
                pc_of_last_use = m.pc() - 1;
                m.call(filler); // buffer drags across this via the static
                m.ret();
                m.finish();
            }
            b.set_entry(main);
            let mut p = b.finish().unwrap();
            if nulled {
                let entry = p.entry;
                null_static_after(&mut p, entry, pc_of_last_use, cache);
                p.link().unwrap();
            }
            p
        };

        let original = build(false);
        let revised = build(true);
        let out1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let out2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(
            out1.output, out2.output,
            "nulling the static is output-neutral"
        );

        let run1 = profile(&original, &[], VmConfig::profiling()).unwrap();
        let run2 = profile(&revised, &[], VmConfig::profiling()).unwrap();
        let i1 = heapdrag_core::Integrals::from_records(&run1.records);
        let i2 = heapdrag_core::Integrals::from_records(&run2.records);
        assert!(
            i2.reachable < i1.reachable,
            "static-nulled reachable integral {} should undercut original {}",
            i2.reachable,
            i1.reachable
        );
    }

    #[test]
    #[should_panic(expected = "anchor pc")]
    fn null_static_after_rejects_out_of_range_pc() {
        let mut p = juru_like();
        let cache = heapdrag_vm::ids::StaticId(0);
        let entry = p.entry;
        let end = p.methods[entry.index()].code.len() as u32;
        null_static_after(&mut p, entry, end, cache);
    }

    #[test]
    fn program_wide_application_covers_helpers() {
        let mut p = juru_like();
        let total = assign_null_program(&mut p);
        assert!(total >= 1);
        p.link().unwrap();
        let out = Vm::new(&p, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(out.output, vec![7]);
    }
}
