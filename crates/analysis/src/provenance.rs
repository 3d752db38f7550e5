//! Stack/local *provenance*: which abstract value (the receiver `this`, a
//! particular allocation, or something else) each slot holds.
//!
//! This is the workhorse behind the indirect-usage analysis (§5.1) and the
//! escape checks of constructor purity: it answers "where can the object
//! allocated at pc *p* flow inside this method?" and "is this `putfield`
//! receiver the constructor's own receiver?".

use heapdrag_vm::ids::MethodId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::cfg::Cfg;
use crate::types::{pushes_int, transfer};

/// Abstract origin of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prov {
    /// Unreachable / undefined.
    Bottom,
    /// The method's receiver (local 0 of an instance method).
    This,
    /// The i-th parameter (excluding the receiver slot of instance
    /// methods, which is [`Prov::This`]).
    Param(u16),
    /// The object allocated by the `new`/`newarray` at this pc.
    Alloc(u32),
    /// The null constant (flows anywhere harmlessly).
    NullConst,
    /// Definitely not a reference: integer constants and arithmetic
    /// results.
    IntLike,
    /// Anything else.
    Other,
}

impl Prov {
    /// True when the value certainly does not refer to anything outside
    /// the current frame's own fresh objects (used by effect analyses to
    /// decide whether passing it to a callee can leak state).
    pub fn is_frame_local(self) -> bool {
        matches!(
            self,
            Prov::This | Prov::Alloc(_) | Prov::NullConst | Prov::IntLike
        )
    }
}

fn join(a: Prov, b: Prov) -> Prov {
    use Prov::*;
    match (a, b) {
        (Bottom, x) | (x, Bottom) => x,
        (x, y) if x == y => x,
        // Null merges into anything without losing the other origin: a slot
        // holding "alloc-or-null" still only ever *refers to* the alloc.
        (NullConst, x) | (x, NullConst) => x,
        _ => Other,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    stack: Vec<Prov>,
    locals: Vec<Prov>,
}

/// Provenance solution: the frame entering each pc (`None` when
/// unreachable or when inference bailed out).
#[derive(Debug, Clone)]
pub struct MethodProv {
    /// State entering each pc.
    before: Vec<Option<Frame>>,
}

impl MethodProv {
    /// Provenance of the stack slot `depth` below the top, entering `pc`.
    pub fn stack(&self, pc: u32, depth: usize) -> Prov {
        self.before[pc as usize]
            .as_ref()
            .and_then(|f| f.stack.iter().rev().nth(depth).copied())
            .unwrap_or(Prov::Bottom)
    }

    /// Provenance of local `n` entering `pc`.
    pub fn local(&self, pc: u32, n: u16) -> Prov {
        self.before[pc as usize]
            .as_ref()
            .map_or(Prov::Bottom, |f| f.locals[n as usize])
    }

    /// True if the pc is reachable and was successfully analyzed.
    pub fn analyzed(&self, pc: u32) -> bool {
        self.before[pc as usize].is_some()
    }
}

/// Runs provenance inference over one method. Returns `None` when the
/// bytecode defeats the simulation (an underflow or a stack mismatch,
/// which only a program edited after linking can have); callers must then
/// treat everything as [`Prov::Other`].
pub fn infer_provenance(program: &Program, method_id: MethodId) -> Option<MethodProv> {
    let method = &program.methods[method_id.index()];
    let cfg = Cfg::build(method);
    let n = method.code.len();
    let mut before: Vec<Option<Frame>> = vec![None; n];
    if n == 0 {
        return Some(MethodProv { before });
    }

    let mut entry_locals = vec![Prov::Other; method.num_locals as usize];
    for (i, slot) in entry_locals
        .iter_mut()
        .enumerate()
        .take(method.num_params as usize)
    {
        *slot = Prov::Param(i as u16);
    }
    if !method.is_static && method.num_params > 0 {
        entry_locals[0] = Prov::This;
    }
    before[0] = Some(Frame {
        stack: Vec::new(),
        locals: entry_locals,
    });

    let mut work = vec![0u32];
    while let Some(pc) = work.pop() {
        let Some(state) = before[pc as usize].clone() else {
            continue;
        };
        let insn = method.code[pc as usize];
        let mut stack = state.stack;
        let mut locals = state.locals;

        let pushed = |_| pushed_prov(pc, insn);
        if !transfer(program, insn, &mut stack, &mut locals, pushed) {
            return None;
        }

        let out = Frame { stack, locals };
        for &succ in cfg.succs(pc) {
            let is_exception_edge = method
                .handlers
                .iter()
                .any(|h| h.handler_pc == succ && pc >= h.start_pc && pc < h.end_pc)
                && !matches!(insn.jump_target(), Some(t) if t == succ)
                && succ != pc + 1;
            let incoming = if is_exception_edge {
                Frame {
                    stack: vec![Prov::Other],
                    locals: out.locals.clone(),
                }
            } else {
                out.clone()
            };
            match &mut before[succ as usize] {
                slot @ None => {
                    *slot = Some(incoming);
                    work.push(succ);
                }
                Some(existing) => {
                    if existing.stack.len() != incoming.stack.len() {
                        return None;
                    }
                    let mut changed = false;
                    for (a, b) in existing.stack.iter_mut().zip(&incoming.stack) {
                        let j = join(*a, *b);
                        changed |= j != *a;
                        *a = j;
                    }
                    for (a, b) in existing.locals.iter_mut().zip(&incoming.locals) {
                        let j = join(*a, *b);
                        changed |= j != *a;
                        *a = j;
                    }
                    if changed {
                        work.push(succ);
                    }
                }
            }
        }
    }
    Some(MethodProv { before })
}

/// The provenance of the value `insn` at `pc` pushes.
fn pushed_prov(pc: u32, insn: Insn) -> Prov {
    match insn {
        Insn::PushNull => Prov::NullConst,
        Insn::New(_) | Insn::NewArray => Prov::Alloc(pc),
        _ if pushes_int(insn) => Prov::IntLike,
        // Field, element and static reads and call results.
        _ => Prov::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    #[test]
    fn tracks_alloc_through_local() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1); // pc 0: New, pc 1: Store
            m.load(1).push_int(0).putfield(0); // pc 2: Load, pc 3, pc 4
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let prov = infer_provenance(&p, p.entry).unwrap();
        assert_eq!(prov.local(2, 1), Prov::Alloc(0));
        // At the putfield (pc 4), the receiver is one below the value.
        assert_eq!(prov.stack(4, 1), Prov::Alloc(0));
        assert_eq!(prov.stack(4, 0), Prov::IntLike, "pushed int value");
    }

    #[test]
    fn this_receiver_in_instance_method() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        let init = b.declare_method("init", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(init);
            m.load(0).push_int(1).putfield(0); // this.f = 1
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).call(init);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let prov = infer_provenance(&p, init).unwrap();
        assert_eq!(prov.local(0, 0), Prov::This);
        assert_eq!(prov.stack(2, 1), Prov::This, "putfield receiver is this");
    }

    #[test]
    fn merge_of_two_allocs_is_other() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.load(0).push_int(0).aload().branch("else");
            m.new_obj(c).store(1);
            m.jump("end");
            m.label("else");
            m.new_obj(c).store(1);
            m.label("end");
            m.load(1).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let prov = infer_provenance(&p, p.entry).unwrap();
        let m = &p.methods[p.entry.index()];
        let end_pc = (m.code.len() - 3) as u32; // the load at label end
        assert_eq!(prov.local(end_pc, 1), Prov::Other);
    }

    #[test]
    fn null_join_keeps_alloc_origin() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.push_null().store(1); // lazy slot starts null
            m.load(0).push_int(0).aload().branch("skip");
            m.new_obj(c).store(1); // pc 5 (alloc)
            m.label("skip");
            m.load(1).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let prov = infer_provenance(&p, p.entry).unwrap();
        let m = &p.methods[p.entry.index()];
        let load_pc = (m.code.len() - 3) as u32;
        assert!(
            matches!(prov.local(load_pc, 1), Prov::Alloc(_)),
            "null-or-alloc still refers only to the alloc, got {:?}",
            prov.local(load_pc, 1)
        );
    }
}
