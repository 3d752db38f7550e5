//! The *dead code removal* rewriting (§3.3.2), mechanized: an allocation
//! whose objects are provably never used (indirect-usage analysis) and
//! whose constructor has no observable effects is replaced by `pushnull`;
//! the constructor call is neutralised into stack pops.
//!
//! Exception safety follows §5.5: the removed `new` could only have thrown
//! `OutOfMemoryError`, so removal requires that no reachable handler could
//! observe it.
//!
//! ```
//! use heapdrag_transform::{check_equivalence, remove_all_dead_allocations, Equivalence};
//! use heapdrag_vm::class::Visibility;
//! use heapdrag_vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An object that is constructed, stored… and never read: the paper's
//! // "all never-used" pattern, eligible for removal outright.
//! let mut b = ProgramBuilder::new();
//! let shade = b.begin_class("Shade").field("v", Visibility::Private).finish();
//! let init = b.declare_method("init", Some(shade), false, 2, 2);
//! {
//!     let mut m = b.begin_body(init);
//!     m.load(0).load(1).putfield(0);
//!     m.ret();
//!     m.finish();
//! }
//! let main = b.declare_method("main", None, true, 1, 2);
//! {
//!     let mut m = b.begin_body(main);
//!     m.new_obj(shade).dup().store(1).push_int(5).call(init); // never used
//!     m.push_int(99).print();
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let original = b.finish()?;
//!
//! let mut revised = original.clone();
//! let removed = remove_all_dead_allocations(&mut revised);
//! assert_eq!(removed.len(), 1, "the dead Shade allocation is removed");
//! revised.link()?;
//! assert_eq!(check_equivalence(&original, &revised, &[vec![]])?, Equivalence::Same);
//! # Ok(())
//! # }
//! ```

use heapdrag_analysis::callgraph::CallGraph;
use heapdrag_analysis::exceptions::{may_throw, HandlerSet};
use heapdrag_analysis::indirect_usage::{analyze_allocation, IndirectUsage};
use heapdrag_analysis::provenance::{infer_provenance, Prov};
use heapdrag_analysis::purity::Purity;
use heapdrag_analysis::usage::UsageAnalysis;
use heapdrag_vm::code_edit::{insert_at, replace_at};
use heapdrag_vm::ids::MethodId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::error::TransformError;

/// The analyses dead-code removal consults, built once per program.
#[derive(Debug)]
pub struct DeadCodeContext {
    /// CHA call graph.
    pub callgraph: CallGraph,
    /// Static/field read-write usage.
    pub usage: UsageAnalysis,
    /// Constructor effect summaries.
    pub purity: Purity,
    /// Handlers that could observe removed exceptions.
    pub handlers: HandlerSet,
}

impl DeadCodeContext {
    /// Builds all analyses for `program`.
    pub fn build(program: &Program) -> Self {
        let callgraph = CallGraph::build(program);
        let usage = UsageAnalysis::build(program, &callgraph);
        let purity = Purity::build(program, &callgraph);
        let handlers = HandlerSet::build(program, &callgraph);
        DeadCodeContext {
            callgraph,
            usage,
            purity,
            handlers,
        }
    }
}

/// A performed removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemovedAllocation {
    /// Method that contained the allocation.
    pub method: MethodId,
    /// pc of the (former) allocation.
    pub pc: u32,
    /// Constructor call that was neutralised, if any.
    pub ctor_call: Option<u32>,
}

/// Checks safety and removes the allocation at `(method, pc)`.
///
/// The `new` becomes `pushnull` (stack shape preserved; downstream stores
/// now store null). A constructor `call` whose receiver was this object is
/// turned into pops. `newarray` additionally has its length operand
/// consumed by the replacement `pop; pushnull` pair.
///
/// # Errors
///
/// * [`TransformError::UnexpectedShape`] — `pc` is not an allocation.
/// * [`TransformError::AllocationMayBeUsed`] — the indirect-usage analysis
///   found a (possible) use.
/// * [`TransformError::ExceptionObservable`] — a handler could observe the
///   allocation's `OutOfMemoryError`.
pub fn remove_dead_allocation(
    program: &mut Program,
    ctx: &DeadCodeContext,
    method: MethodId,
    pc: u32,
) -> Result<RemovedAllocation, TransformError> {
    let insn = *program.methods[method.index()]
        .code
        .get(pc as usize)
        .ok_or(TransformError::UnexpectedShape {
            method,
            pc,
            expected: "an allocation",
        })?;
    if !insn.is_alloc() {
        return Err(TransformError::UnexpectedShape {
            method,
            pc,
            expected: "an allocation",
        });
    }
    match analyze_allocation(program, &ctx.usage, &ctx.purity, method, pc) {
        IndirectUsage::NeverUsed => {}
        IndirectUsage::PossiblyUsed(w) => {
            return Err(TransformError::AllocationMayBeUsed {
                method,
                pc,
                witness: format!("{w:?}"),
            })
        }
    }
    if ctx.handlers.observes(program, &may_throw(program, &insn)) {
        return Err(TransformError::ExceptionObservable { method, pc });
    }

    // Locate the constructor call and all inline initialisation writes on
    // this allocation (receiver provenance). They all consume the (soon to
    // be null) reference and must be neutralised into stack pops.
    let prov = infer_provenance(program, method)
        .ok_or_else(|| TransformError::Analysis("provenance failed".into()))?;
    let mut ctor_call = None;
    // (pc, operands to pop) for each instruction to neutralise.
    let mut neutralise: Vec<(u32, usize)> = Vec::new();
    for (cpc, cinsn) in program.methods[method.index()].code.iter().enumerate() {
        let cpc = cpc as u32;
        if !prov.analyzed(cpc) {
            continue;
        }
        match cinsn {
            Insn::Call(target) => {
                let callee = &program.methods[target.index()];
                let p = callee.num_params as usize;
                if !callee.is_static && p >= 1 && prov.stack(cpc, p - 1) == Prov::Alloc(pc) {
                    ctor_call = Some(cpc);
                    neutralise.push((cpc, p));
                }
            }
            // Inline initialisation: `obj.f = v` / `obj[i] = v` with the
            // dead object as receiver (e.g. implicit zero-initialisation
            // emitted by the front end).
            Insn::PutField(_) if prov.stack(cpc, 1) == Prov::Alloc(pc) => {
                neutralise.push((cpc, 2));
            }
            Insn::AStore if prov.stack(cpc, 2) == Prov::Alloc(pc) => {
                neutralise.push((cpc, 3));
            }
            _ => {}
        }
    }

    // Patch, higher pcs first so earlier pcs stay valid.
    let m = &mut program.methods[method.index()];
    neutralise.sort_by_key(|(pc, _)| std::cmp::Reverse(*pc));
    for (cpc, operands) in neutralise {
        debug_assert!(cpc > pc, "initialisation runs after the allocation");
        replace_at(m, cpc, Insn::Pop);
        if operands > 1 {
            insert_at(m, cpc, &vec![Insn::Pop; operands - 1]);
        }
    }
    match insn {
        Insn::New(_) => replace_at(m, pc, Insn::PushNull),
        Insn::NewArray => {
            // Consume the length, then push null.
            replace_at(m, pc, Insn::PushNull);
            insert_at(m, pc, &[Insn::Pop]);
        }
        _ => unreachable!("checked is_alloc above"),
    }
    Ok(RemovedAllocation {
        method,
        pc,
        ctor_call,
    })
}

/// Scans every reachable method and removes every allocation that passes
/// the safety checks. Returns the removals performed.
pub fn remove_all_dead_allocations(program: &mut Program) -> Vec<RemovedAllocation> {
    let mut removed = Vec::new();
    let ctx = DeadCodeContext::build(program);
    let methods: Vec<MethodId> = (0..program.methods.len() as u32)
        .map(MethodId)
        .filter(|m| ctx.callgraph.is_reachable(*m))
        .collect();
    for mid in methods {
        // Collect allocation pcs up front; removing one can shift later
        // pcs (newarray inserts a pop), so re-scan after each removal.
        loop {
            let next = program.methods[mid.index()]
                .code
                .iter()
                .enumerate()
                .filter(|(_, i)| i.is_alloc())
                .map(|(pc, _)| pc as u32)
                .find(|pc| {
                    analyze_allocation(program, &ctx.usage, &ctx.purity, mid, *pc)
                        == IndirectUsage::NeverUsed
                });
            let Some(pc) = next else { break };
            match remove_dead_allocation(program, &ctx, mid, pc) {
                Ok(r) => removed.push(r),
                Err(_) => break,
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, VmConfig};
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::interp::Vm;

    /// The raytrace shape: objects allocated and initialised into an
    /// array… except here the element values are never read, so the whole
    /// site is dead.
    fn raytrace_like() -> Program {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Shade")
            .field("v", Visibility::Private)
            .finish();
        let init = b.declare_method("init", Some(c), false, 2, 2);
        {
            let mut m = b.begin_body(init);
            m.load(0).load(1).putfield(0);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            m.push_int(0).store(2);
            m.label("loop");
            m.load(2).push_int(50).cmpge().branch("done");
            m.mark("never-used Shade")
                .new_obj(c)
                .dup()
                .store(1)
                .push_int(5)
                .call(init);
            m.push_null().store(1);
            m.load(2).push_int(1).add().store(2);
            m.jump("loop");
            m.label("done");
            m.push_int(99).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn removes_ctor_initialised_dead_allocation() {
        let original = raytrace_like();
        let mut revised = original.clone();
        let removed = remove_all_dead_allocations(&mut revised);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].ctor_call.is_some());
        revised.link().unwrap();
        let out1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let out2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(out1.output, out2.output);
        // Revised allocates nothing but the input array.
        assert!(out2.heap.allocated_objects < out1.heap.allocated_objects);
    }

    #[test]
    fn removal_eliminates_the_drag() {
        let original = raytrace_like();
        let mut revised = original.clone();
        remove_all_dead_allocations(&mut revised);
        revised.link().unwrap();
        let r1 = profile(&original, &[], VmConfig::profiling()).unwrap();
        let r2 = profile(&revised, &[], VmConfig::profiling()).unwrap();
        let i1 = Integrals::from_records(&r1.records);
        let i2 = Integrals::from_records(&r2.records);
        assert!(i2.reachable < i1.reachable);
        assert_eq!(i2.drag(), 0, "nothing left to drag");
    }

    #[test]
    fn used_allocation_is_refused() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.load(1).getfield(0).print(); // really used
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let mut p = b.finish().unwrap();
        let ctx = DeadCodeContext::build(&p);
        let entry = p.entry;
        let err = remove_dead_allocation(&mut p, &ctx, entry, 0).unwrap_err();
        assert!(matches!(err, TransformError::AllocationMayBeUsed { .. }));
        assert!(remove_all_dead_allocations(&mut p.clone()).is_empty());
    }

    #[test]
    fn oom_handler_blocks_removal() {
        let mut b = ProgramBuilder::new();
        let oom = b.builtins().out_of_memory;
        let c = b.begin_class("C").finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.label("try");
            m.new_obj(c).store(1);
            m.push_null().store(1);
            m.label("end");
            m.jump("out");
            m.label("catch");
            m.pop().push_int(-1).print();
            m.label("out");
            m.ret();
            m.handler("try", "end", "catch", Some(oom));
            m.finish();
        }
        b.set_entry(main);
        let mut p = b.finish().unwrap();
        let ctx = DeadCodeContext::build(&p);
        let entry = p.entry;
        let err = remove_dead_allocation(&mut p, &ctx, entry, 0).unwrap_err();
        assert!(
            matches!(err, TransformError::ExceptionObservable { .. }),
            "the paper's §5.5 check: an OutOfMemory handler exists, got {err:?}"
        );
    }

    #[test]
    fn dead_newarray_is_removed() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.push_int(100).new_array().store(1);
            m.push_null().store(1);
            m.push_int(1).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let original = b.finish().unwrap();
        let mut revised = original.clone();
        let removed = remove_all_dead_allocations(&mut revised);
        assert_eq!(removed.len(), 1);
        revised.link().unwrap();
        let out = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(out.output, vec![1]);
        assert_eq!(
            out.heap.allocated_objects, 1,
            "only the input array remains"
        );
    }

    #[test]
    fn not_an_allocation_is_refused() {
        let mut p = raytrace_like();
        let ctx = DeadCodeContext::build(&p);
        let entry = p.entry;
        let err = remove_dead_allocation(&mut p, &ctx, entry, 0).unwrap_err();
        assert!(matches!(err, TransformError::UnexpectedShape { .. }));
    }
}
