//! The *lazy allocation* rewriting (§3.3.3), mechanized: an allocation
//! stored into a field by a constructor is removed from the constructor
//! (the field starts null) and re-created by a guard inserted before every
//! possible first use — §5.1's minimal code insertion.
//!
//! ```
//! use heapdrag_transform::{check_equivalence, lazy_allocate_program, Equivalence};
//! use heapdrag_vm::class::Visibility;
//! use heapdrag_vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The jack shape: a constructor eagerly builds a table that is only
//! // read when the input demands it.
//! let mut b = ProgramBuilder::new();
//! let table = b.begin_class("Table").field("n", Visibility::Private).finish();
//! let table_init = b.declare_method("init", Some(table), false, 1, 1);
//! {
//!     let mut m = b.begin_body(table_init);
//!     m.load(0).push_int(1).putfield(0);
//!     m.ret();
//!     m.finish();
//! }
//! let parser = b.begin_class("Parser").field("table", Visibility::Package).finish();
//! let parser_init = b.declare_method("init", Some(parser), false, 1, 1);
//! {
//!     let mut m = b.begin_body(parser_init);
//!     m.load(0);
//!     m.new_obj(table).dup().call(table_init); // eager: made lazy below
//!     m.putfield_named(parser, "table");
//!     m.ret();
//!     m.finish();
//! }
//! let lookup = b.declare_method("lookup", Some(parser), false, 1, 1);
//! {
//!     let mut m = b.begin_body(lookup);
//!     m.load(0).getfield_named(parser, "table");
//!     m.getfield_named(table, "n");
//!     m.ret_val();
//!     m.finish();
//! }
//! let main = b.declare_method("main", None, true, 1, 2);
//! {
//!     let mut m = b.begin_body(main);
//!     m.new_obj(parser).dup().store(1).call(parser_init);
//!     m.load(0).push_int(0).aload().branch("use_it");
//!     m.push_int(0).print();
//!     m.jump("end");
//!     m.label("use_it");
//!     m.load(1).call_virtual("lookup", 0).print();
//!     m.label("end");
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let original = b.finish()?;
//!
//! let mut revised = original.clone();
//! let applied = lazy_allocate_program(&mut revised);
//! assert_eq!(applied.len(), 1, "the eager table is now guard-allocated");
//! revised.link()?;
//!
//! // Output preserved whether the table is demanded or not.
//! let verdict = check_equivalence(&original, &revised, &[vec![0], vec![1]])?;
//! assert_eq!(verdict, Equivalence::Same);
//! # Ok(())
//! # }
//! ```

use heapdrag_analysis::callgraph::CallGraph;
use heapdrag_analysis::lazy_points::{
    field_read_sites, minimize_guard_sites, reads_fully_resolved, FieldReadSite,
};
use heapdrag_analysis::provenance::{infer_provenance, Prov};
use heapdrag_analysis::purity::Purity;
use heapdrag_vm::code_edit::{insert_at, replace_at};
use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::error::TransformError;

/// An eager field initialisation that can be made lazy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LazyCandidate {
    /// The constructor performing the eager allocation.
    pub ctor: MethodId,
    /// The class whose field is initialised.
    pub class: ClassId,
    /// Layout slot of the field.
    pub slot: u16,
    /// pc of the allocation inside the constructor.
    pub alloc_pc: u32,
    /// pc of the `putfield` storing it.
    pub store_pc: u32,
    /// Constructor call on the allocated object, if any.
    pub init_call: Option<(u32, MethodId)>,
    /// Parameter count of the constructor call (for neutralisation).
    pub init_params: usize,
    /// The instructions a guard must replay to allocate lazily.
    pub replay: Vec<Insn>,
}

/// Finds candidates in `ctor`: shapes of the form
/// `load 0; new C2 [; dup; push consts…; call C2.init]; putfield slot` or
/// `load 0; push k; newarray; putfield slot`, where any `init` is
/// removable per [`Purity`], reads no statics, and — matching the paper's
/// "no parameters or parameters that are constant" condition — takes only
/// integer constants pushed directly before the call.
pub fn find_lazy_candidates(
    program: &Program,
    purity: &Purity,
    ctor: MethodId,
) -> Vec<LazyCandidate> {
    let method = &program.methods[ctor.index()];
    let Some(class) = method.class else {
        return Vec::new();
    };
    if method.is_static {
        return Vec::new();
    }
    let Some(prov) = infer_provenance(program, ctor) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (pc, insn) in method.code.iter().enumerate() {
        let pc = pc as u32;
        let Insn::PutField(slot) = insn else { continue };
        if !prov.analyzed(pc) || prov.stack(pc, 1) != Prov::This {
            continue;
        }
        let Prov::Alloc(alloc_pc) = prov.stack(pc, 0) else {
            continue;
        };
        // Reconstruct the replay sequence and check the ctor call.
        let (replay_alloc, mut replay) = match method.code[alloc_pc as usize] {
            Insn::New(c2) => (true, vec![Insn::New(c2)]),
            Insn::NewArray => {
                // Need a constant length immediately before.
                match method.code.get(alloc_pc as usize - 1) {
                    Some(Insn::PushInt(k)) if alloc_pc > 0 => {
                        (true, vec![Insn::PushInt(*k), Insn::NewArray])
                    }
                    _ => (false, Vec::new()),
                }
            }
            _ => (false, Vec::new()),
        };
        if !replay_alloc {
            continue;
        }
        // Find a ctor call on the allocation between alloc and store.
        let mut init_call = None;
        let mut init_params = 0usize;
        let mut init_consts: Vec<i64> = Vec::new();
        let mut blocked = false;
        for cpc in alloc_pc + 1..pc {
            if let Insn::Call(target) = method.code[cpc as usize] {
                let callee = &program.methods[target.index()];
                let p = callee.num_params as usize;
                if !callee.is_static
                    && p >= 1
                    && prov.analyzed(cpc)
                    && prov.stack(cpc, p - 1) == Prov::Alloc(alloc_pc)
                {
                    if init_call.is_some() {
                        blocked = true; // repeated init: out of scope
                        continue;
                    }
                    // Non-receiver arguments must be integer constants
                    // pushed immediately before the call.
                    let nargs = p - 1;
                    let mut consts = Vec::with_capacity(nargs);
                    let args_ok = (cpc as usize) >= nargs
                        && (0..nargs).all(|k| match method.code[cpc as usize - nargs + k] {
                            Insn::PushInt(v) => {
                                consts.push(v);
                                true
                            }
                            _ => false,
                        });
                    // Delaying must not change what the ctor observes: it
                    // must be removable (no external effects) and must not
                    // read statics; constant params are fine.
                    let summary = purity.summary(target);
                    let pure_enough =
                        purity.is_removable_constructor(target) && !summary.reads_statics;
                    if args_ok && pure_enough {
                        init_call = Some((cpc, target));
                        init_params = p;
                        init_consts = consts;
                    } else {
                        blocked = true;
                    }
                }
            }
        }
        // Strict shape check: between the allocation and the store,
        // nothing but the recognised constructor call (and harmless
        // stack traffic) may *consume* the allocation — e.g. a helper
        // call taking the fresh object as an argument would be orphaned
        // by the rewrite and crash on the null left behind.
        for cpc in alloc_pc + 1..pc {
            if !prov.analyzed(cpc) {
                continue;
            }
            if matches!(init_call, Some((ic, _)) if ic == cpc) {
                continue; // the recognised constructor
            }
            let insn2 = method.code[cpc as usize];
            if matches!(insn2, Insn::Dup | Insn::Store(_) | Insn::Load(_)) {
                continue; // moves the reference without consuming it
            }
            let (consumed, _) = insn2.stack_effect(program);
            if (0..consumed).any(|d| prov.stack(cpc, d) == Prov::Alloc(alloc_pc)) {
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }
        if let Some((_, target)) = init_call {
            replay.push(Insn::Dup);
            for v in &init_consts {
                replay.push(Insn::PushInt(*v));
            }
            replay.push(Insn::Call(target));
        }
        out.push(LazyCandidate {
            ctor,
            class,
            slot: *slot,
            alloc_pc,
            store_pc: pc,
            init_call,
            init_params,
            replay,
        });
    }
    out
}

/// A performed lazy-allocation rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedLazyAllocation {
    /// The candidate that was applied.
    pub candidate: LazyCandidate,
    /// Guards inserted, one per possible first use.
    pub guards: Vec<FieldReadSite>,
}

/// Applies the rewrite for `candidate`:
///
/// 1. the constructor's allocation becomes `pushnull` (the field starts
///    null; its `init` call is neutralised), and
/// 2. before every `getfield` of the slot on a compatible receiver, a
///    guard `dup; getfield; brnonnull skip; dup; <replay…>; putfield;
///    skip:` allocates on first use.
///
/// # Errors
///
/// * [`TransformError::UnresolvedFieldRead`] when some read's receiver
///   cannot be typed (guards could miss a first use).
pub fn apply_lazy_allocation(
    program: &mut Program,
    candidate: &LazyCandidate,
) -> Result<AppliedLazyAllocation, TransformError> {
    let callgraph = CallGraph::build(program);
    let sites = field_read_sites(program, &callgraph, candidate.class, candidate.slot);
    if !reads_fully_resolved(&sites) {
        let bad = sites
            .iter()
            .find(|s| !s.receiver_known)
            .expect("unresolved");
        return Err(TransformError::UnresolvedFieldRead {
            method: bad.method,
            pc: bad.pc,
        });
    }

    // §5.1 minimal code insertion: drop guards dominated by another guard
    // on the same receiver.
    let sites = minimize_guard_sites(program, &sites);

    // 2. Insert guards, per method, descending pc.
    let mut by_method: Vec<FieldReadSite> = sites.clone();
    by_method.sort_by_key(|s| std::cmp::Reverse((s.method, s.pc)));
    for site in &by_method {
        // Skip the constructor's own store path — the getfields we guard
        // are reads; the ctor has none for this slot (its putfield is not
        // a read site).
        let guard = build_guard(candidate, site.pc);
        insert_at(&mut program.methods[site.method.index()], site.pc, &guard);
        program.methods[site.method.index()]
            .site_labels
            .entry(site.pc + guard_alloc_offset(candidate))
            .or_insert_with(|| "lazy allocation".to_string());
    }

    // 1. Neutralise the eager allocation in the ctor (descending pc).
    {
        let m = &mut program.methods[candidate.ctor.index()];
        if let Some((cpc, _)) = candidate.init_call {
            replace_at(m, cpc, Insn::Pop);
            if candidate.init_params > 1 {
                insert_at(m, cpc, &vec![Insn::Pop; candidate.init_params - 1]);
            }
        }
        match m.code[candidate.alloc_pc as usize] {
            Insn::New(_) => replace_at(m, candidate.alloc_pc, Insn::PushNull),
            Insn::NewArray => {
                replace_at(m, candidate.alloc_pc, Insn::Nop);
                replace_at(m, candidate.alloc_pc - 1, Insn::PushNull);
            }
            _ => {
                return Err(TransformError::UnexpectedShape {
                    method: candidate.ctor,
                    pc: candidate.alloc_pc,
                    expected: "the candidate allocation",
                })
            }
        }
    }

    Ok(AppliedLazyAllocation {
        candidate: candidate.clone(),
        guards: sites,
    })
}

/// Offset of the allocation inside the guard sequence (for site labels).
fn guard_alloc_offset(candidate: &LazyCandidate) -> u32 {
    // dup; getfield; brnonnull; dup; <replay...>
    4 + if matches!(candidate.replay.first(), Some(Insn::PushInt(_))) {
        1
    } else {
        0
    }
}

/// Builds the guard inserted before the `getfield` at (new) pc `at`.
///
/// Stack discipline (receiver on top on entry):
/// `[r]` → dup `[r,r]` → getfield `[r,f]` → brnonnull skip `[r]` →
/// dup `[r,r]` → replay `[r,r,obj]` → putfield `[r]` → skip: `[r]`.
fn build_guard(candidate: &LazyCandidate, at: u32) -> Vec<Insn> {
    // Guard layout (absolute pcs after insertion at `at`):
    //   at+0 dup
    //   at+1 getfield
    //   at+2 brnonnull -> skip
    //   at+3 dup
    //   at+4 .. at+3+replay_len     replay
    //   at+4+replay_len             putfield
    //   skip = at + 5 + replay_len  — the original getfield.
    let replay_len = candidate.replay.len() as u32;
    let skip = at + 5 + replay_len;
    let mut guard = vec![
        Insn::Dup,
        Insn::GetField(candidate.slot),
        Insn::BranchIfNotNull(skip),
        Insn::Dup,
    ];
    guard.extend_from_slice(&candidate.replay);
    guard.push(Insn::PutField(candidate.slot));
    debug_assert_eq!(guard.len() as u32, 5 + replay_len);
    guard
}

/// Finds and applies every lazy-allocation candidate in the program whose
/// guards can be placed soundly. Returns the applied rewrites.
pub fn lazy_allocate_program(program: &mut Program) -> Vec<AppliedLazyAllocation> {
    let callgraph = CallGraph::build(program);
    let purity = Purity::build(program, &callgraph);
    let mut candidates = Vec::new();
    for mid in 0..program.methods.len() as u32 {
        candidates.extend(find_lazy_candidates(program, &purity, MethodId(mid)));
    }
    let mut applied = Vec::new();
    for c in candidates {
        if let Ok(a) = apply_lazy_allocation(program, &c) {
            applied.push(a);
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, VmConfig};
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::interp::Vm;

    /// The jack shape: the constructor eagerly allocates a table that is
    /// used only when the input demands it (here: input[0] != 0).
    fn jack_like() -> Program {
        let mut b = ProgramBuilder::new();
        let table = b
            .begin_class("pkg.Table")
            .field("n", Visibility::Private)
            .finish();
        let table_init = b.declare_method("init", Some(table), false, 1, 1);
        {
            let mut m = b.begin_body(table_init);
            m.load(0).push_int(1).putfield(0);
            m.ret();
            m.finish();
        }
        let parser = b
            .begin_class("pkg.Parser")
            .field("table", Visibility::Package)
            .finish();
        let parser_init = b.declare_method("init", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(parser_init);
            m.load(0);
            m.mark("eager table").new_obj(table).dup().call(table_init);
            m.putfield_named(parser, "table");
            m.ret();
            m.finish();
        }
        let lookup = b.declare_method("lookup", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(lookup);
            m.load(0).getfield_named(parser, "table");
            m.getfield_named(table, "n");
            m.ret_val();
            m.finish();
        }
        let filler = b.declare_method("filler", None, true, 0, 1);
        {
            let mut m = b.begin_body(filler);
            m.push_int(0).store(0);
            m.label("loop");
            m.load(0).push_int(100).cmpge().branch("done");
            m.push_int(16).new_array().pop();
            m.load(0).push_int(1).add().store(0);
            m.jump("loop");
            m.label("done").ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(parser).dup().store(1).call(parser_init);
            m.call(filler);
            m.load(0).push_int(0).aload().branch("use_it");
            m.push_int(0).print();
            m.jump("end");
            m.label("use_it");
            m.load(1).call_virtual("lookup", 0).print();
            m.label("end");
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    fn lazy_transformed() -> (Program, Program, Vec<AppliedLazyAllocation>) {
        let original = jack_like();
        let mut revised = original.clone();
        let applied = lazy_allocate_program(&mut revised);
        revised.link().expect("revised program links");
        (original, revised, applied)
    }

    #[test]
    fn candidate_found_and_applied() {
        let (_, _, applied) = lazy_transformed();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].guards.len(), 1, "one read site in lookup");
        assert!(applied[0].candidate.init_call.is_some());
    }

    #[test]
    fn behaviour_preserved_on_both_paths() {
        let (original, revised, _) = lazy_transformed();
        for input in [vec![0], vec![1]] {
            let o1 = Vm::new(&original, VmConfig::default()).run(&input).unwrap();
            let o2 = Vm::new(&revised, VmConfig::default()).run(&input).unwrap();
            assert_eq!(o1.output, o2.output, "input {input:?}");
        }
    }

    #[test]
    fn unused_path_allocates_less() {
        let (original, revised, _) = lazy_transformed();
        let o1 = Vm::new(&original, VmConfig::default()).run(&[0]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[0]).unwrap();
        assert!(
            o2.heap.allocated_bytes < o1.heap.allocated_bytes,
            "table never allocated when never used"
        );
        // When the table IS used, exactly one allocation happens lazily.
        let o3 = Vm::new(&original, VmConfig::default()).run(&[1]).unwrap();
        let o4 = Vm::new(&revised, VmConfig::default()).run(&[1]).unwrap();
        assert_eq!(o3.heap.allocated_objects, o4.heap.allocated_objects);
    }

    #[test]
    fn drag_reduced_on_unused_path() {
        let (original, revised, _) = lazy_transformed();
        let r1 = profile(&original, &[0], VmConfig::profiling()).unwrap();
        let r2 = profile(&revised, &[0], VmConfig::profiling()).unwrap();
        let i1 = Integrals::from_records(&r1.records);
        let i2 = Integrals::from_records(&r2.records);
        assert!(i2.reachable < i1.reachable);
    }

    #[test]
    fn guard_allocates_exactly_once() {
        // Call lookup twice; the lazy table must be allocated only once.
        let mut b = ProgramBuilder::new();
        let table = b.begin_class("T").field("n", Visibility::Private).finish();
        let holder = b.begin_class("H").field("t", Visibility::Private).finish();
        let h_init = b.declare_method("init", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(h_init);
            m.load(0).new_obj(table).putfield_named(holder, "t");
            m.ret();
            m.finish();
        }
        let get = b.declare_method("get", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(get);
            m.load(0).getfield_named(holder, "t");
            m.instance_of(table);
            m.ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(holder).dup().store(1).call(h_init);
            m.load(1).call_virtual("get", 0).print();
            m.load(1).call_virtual("get", 0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let original = b.finish().unwrap();
        let mut revised = original.clone();
        let applied = lazy_allocate_program(&mut revised);
        assert_eq!(applied.len(), 1);
        revised.link().unwrap();
        let o1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(o1.output, o2.output);
        assert_eq!(o1.output, vec![1, 1]);
        assert_eq!(
            o1.heap.allocated_objects, o2.heap.allocated_objects,
            "allocated once, lazily"
        );
    }

    #[test]
    fn impure_init_blocks_candidate() {
        let mut b = ProgramBuilder::new();
        let table = b.begin_class("T").field("n", Visibility::Private).finish();
        let loud_init = b.declare_method("init", Some(table), false, 1, 1);
        {
            let mut m = b.begin_body(loud_init);
            m.push_int(7).print(); // observable effect: cannot delay
            m.ret();
            m.finish();
        }
        let holder = b.begin_class("H").field("t", Visibility::Private).finish();
        let h_init = b.declare_method("hinit", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(h_init);
            m.load(0).new_obj(table).dup().call(loud_init);
            m.putfield_named(holder, "t");
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(holder).dup().store(1).call(h_init);
            m.load(1).getfield_named(holder, "t").pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let mut p = b.finish().unwrap();
        let applied = lazy_allocate_program(&mut p);
        assert!(applied.is_empty(), "printing ctor must not be delayed");
    }

    #[test]
    fn lazy_array_field() {
        let mut b = ProgramBuilder::new();
        let holder = b
            .begin_class("H")
            .field("buf", Visibility::Private)
            .finish();
        let h_init = b.declare_method("init", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(h_init);
            m.load(0)
                .push_int(500)
                .new_array()
                .putfield_named(holder, "buf");
            m.ret();
            m.finish();
        }
        let touch = b.declare_method("touch", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(touch);
            m.load(0)
                .getfield_named(holder, "buf")
                .array_len()
                .ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(holder).dup().store(1).call(h_init);
            m.load(0).push_int(0).aload().branch("touch_it");
            m.push_int(-1).print();
            m.jump("end");
            m.label("touch_it");
            m.load(1).call_virtual("touch", 0).print();
            m.label("end");
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let original = b.finish().unwrap();
        let mut revised = original.clone();
        let applied = lazy_allocate_program(&mut revised);
        assert_eq!(applied.len(), 1);
        revised.link().unwrap();
        for input in [vec![0], vec![1]] {
            let o1 = Vm::new(&original, VmConfig::default()).run(&input).unwrap();
            let o2 = Vm::new(&revised, VmConfig::default()).run(&input).unwrap();
            assert_eq!(o1.output, o2.output);
        }
        let o1 = Vm::new(&original, VmConfig::default()).run(&[0]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[0]).unwrap();
        assert!(o2.heap.allocated_bytes < o1.heap.allocated_bytes);
    }
}

#[cfg(test)]
mod consumer_scan_tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::interp::{Vm, VmConfig};

    /// Regression: a helper call consuming the fresh allocation between
    /// the `new` and the `putfield` (the shape the mini-Java front end
    /// emits for `this.f = new int[n]`, whose `__zero_fill(arr)` call
    /// would be orphaned by the rewrite and crash on null).
    #[test]
    fn helper_consumer_blocks_the_candidate() {
        let mut b = ProgramBuilder::new();
        let fill = b.declare_method("fill", None, true, 1, 2);
        {
            let mut m = b.begin_body(fill);
            m.load(0).push_int(0).push_int(1).astore();
            m.ret();
            m.finish();
        }
        let holder = b
            .begin_class("H")
            .field("buf", Visibility::Private)
            .finish();
        let h_init = b.declare_method("init", Some(holder), false, 1, 2);
        {
            let mut m = b.begin_body(h_init);
            m.load(0);
            m.push_int(100).new_array();
            m.dup().call(fill); // the consumer that must block laziness
            m.putfield_named(holder, "buf");
            m.ret();
            m.finish();
        }
        let get = b.declare_method("get", Some(holder), false, 1, 1);
        {
            let mut m = b.begin_body(get);
            m.load(0)
                .getfield_named(holder, "buf")
                .push_int(0)
                .aload()
                .ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(holder).dup().store(1).call(h_init);
            m.load(1).call_virtual("get", 0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let original = b.finish().unwrap();
        let mut revised = original.clone();
        let applied = lazy_allocate_program(&mut revised);
        assert!(
            applied.is_empty(),
            "consumer between alloc and store must block: {applied:?}"
        );
        // Whatever happened, behaviour must be identical and crash-free.
        revised.link().unwrap();
        let o1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(o1.output, o2.output);
        assert_eq!(o1.output, vec![1]);
    }
}
