//! Abstract interpretation of operand-stack and local-variable types —
//! the stack-map inference the paper's §5 leans on (via Agesen et al.) to
//! know which locals hold references at each program point.

use std::error::Error;
use std::fmt;

use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::insn::{Insn, OpcodeClass};
use heapdrag_vm::program::Program;

use crate::cfg::Cfg;

/// The type lattice: `Bottom ⊑ {Int, Null ⊑ Ref(_) ⊑ Ref(None)} ⊑ Top`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsType {
    /// Unreachable / undefined.
    Bottom,
    /// An integer.
    Int,
    /// The null reference.
    Null,
    /// A reference; `Some(c)` when a single least class is known.
    Ref(Option<ClassId>),
    /// Could be anything.
    Top,
}

impl AbsType {
    /// True for values that may hold an object reference (null included).
    pub fn is_reflike(self) -> bool {
        matches!(self, AbsType::Null | AbsType::Ref(_))
    }
}

/// Least upper bound of two types, resolving class joins through the
/// program's hierarchy (least common superclass; `Ref(None)` when unknown).
pub fn join(program: &Program, a: AbsType, b: AbsType) -> AbsType {
    use AbsType::*;
    match (a, b) {
        (Bottom, x) | (x, Bottom) => x,
        (Int, Int) => Int,
        (Null, Null) => Null,
        (Null, Ref(c)) | (Ref(c), Null) => Ref(c),
        (Ref(Some(x)), Ref(Some(y))) => {
            if x == y {
                Ref(Some(x))
            } else {
                Ref(common_super(program, x, y))
            }
        }
        (Ref(_), Ref(_)) => Ref(None),
        _ => Top,
    }
}

fn common_super(program: &Program, a: ClassId, b: ClassId) -> Option<ClassId> {
    let mut cur = Some(a);
    while let Some(c) = cur {
        if program.is_subclass(b, c) {
            return Some(c);
        }
        cur = program.classes[c.index()].super_class;
    }
    None
}

/// The abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsFrame {
    /// Operand-stack types, bottom first.
    pub stack: Vec<AbsType>,
    /// Local-variable types.
    pub locals: Vec<AbsType>,
}

/// A type-inference failure (the analogue of a bytecode-verifier error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Offending method.
    pub method: MethodId,
    /// Offending pc.
    pub pc: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type error in {} at pc {}: {}",
            self.method, self.pc, self.message
        )
    }
}

impl Error for TypeError {}

/// Inferred types for one method: the state *before* each instruction
/// (`None` for unreachable pcs).
#[derive(Debug, Clone)]
pub struct MethodTypes {
    /// State entering each pc.
    pub before: Vec<Option<AbsFrame>>,
}

impl MethodTypes {
    /// The type of local `n` entering `pc`, [`AbsType::Bottom`] if
    /// unreachable.
    pub fn local(&self, pc: u32, n: u16) -> AbsType {
        self.before[pc as usize]
            .as_ref()
            .map_or(AbsType::Bottom, |f| f.locals[n as usize])
    }

    /// The type of the value `depth` slots below the top of stack entering
    /// `pc` (0 = top).
    pub fn stack(&self, pc: u32, depth: usize) -> AbsType {
        self.before[pc as usize]
            .as_ref()
            .and_then(|f| f.stack.iter().rev().nth(depth).copied())
            .unwrap_or(AbsType::Bottom)
    }
}

/// Applies `insn` to an abstract operand stack and locals through the
/// VM's stack-effect table ([`Insn::stack_effect`]). `dup`, `swap`, `load`
/// and `store` move values; every other instruction pops its operands and,
/// when it pushes, pushes `pushed(top)`, where `top` is the operand that
/// was on top of the stack (a `getfield`'s receiver). Returns `false` on
/// underflow.
pub(crate) fn transfer<T: Copy>(
    program: &Program,
    insn: Insn,
    stack: &mut Vec<T>,
    locals: &mut [T],
    pushed: impl FnOnce(Option<T>) -> T,
) -> bool {
    match insn {
        Insn::Dup => match stack.last() {
            Some(&t) => stack.push(t),
            None => return false,
        },
        Insn::Swap => match stack.len() {
            n @ 2.. => stack.swap(n - 1, n - 2),
            _ => return false,
        },
        Insn::Load(l) => stack.push(locals[l as usize]),
        Insn::Store(l) => match stack.pop() {
            Some(v) => locals[l as usize] = v,
            None => return false,
        },
        _ => {
            let (pops, pushes) = insn.stack_effect(program);
            let Some(base) = stack.len().checked_sub(pops) else {
                return false;
            };
            let top = stack.last().copied();
            stack.truncate(base);
            if pushes == 1 {
                stack.push(pushed(top));
            }
        }
    }
    true
}

/// True for the instructions that always push an integer: constants,
/// arithmetic, comparisons (`instanceof` included) and `arraylen`.
pub(crate) fn pushes_int(insn: Insn) -> bool {
    matches!(insn, Insn::PushInt(_) | Insn::ArrayLen)
        || matches!(insn.class(), OpcodeClass::Arith | OpcodeClass::Compare)
}

/// The type of the value `insn` pushes, `top` being the operand it popped
/// from the top of the stack.
fn pushed_type(program: &Program, env: &dyn TypeEnv, insn: Insn, top: Option<AbsType>) -> AbsType {
    match insn {
        Insn::PushNull => AbsType::Null,
        Insn::New(c) => AbsType::Ref(Some(c)),
        Insn::NewArray => AbsType::Ref(Some(program.builtins.array)),
        Insn::GetField(slot) => env.field_type(program, top.unwrap_or(AbsType::Bottom), slot),
        Insn::GetStatic(s) => env.static_type(program, s),
        Insn::Call(m) => env.return_type(program, m),
        Insn::CallVirtual { vslot, .. } => env.selector_return_type(program, vslot),
        _ if pushes_int(insn) => AbsType::Int,
        _ => AbsType::Top,
    }
}

/// Supplies types for the program points local inference cannot see:
/// field contents, statics, and call results. The default answers
/// [`AbsType::Top`] everywhere; [`GlobalTypes`](crate::global_types::GlobalTypes)
/// supplies a whole-program fixpoint.
pub trait TypeEnv {
    /// Type of the value read by `getfield slot` on `receiver`.
    fn field_type(&self, program: &Program, receiver: AbsType, slot: u16) -> AbsType {
        let _ = (program, receiver, slot);
        AbsType::Top
    }
    /// Type of a static variable's value.
    fn static_type(&self, program: &Program, s: heapdrag_vm::ids::StaticId) -> AbsType {
        let _ = (program, s);
        AbsType::Top
    }
    /// Type of a direct call's return value.
    fn return_type(&self, program: &Program, m: MethodId) -> AbsType {
        let _ = (program, m);
        AbsType::Top
    }
    /// Type of a virtual call's return value (join over CHA targets).
    fn selector_return_type(&self, program: &Program, vslot: heapdrag_vm::ids::VSlot) -> AbsType {
        let _ = (program, vslot);
        AbsType::Top
    }
}

/// The environment that knows nothing: every opaque read is [`AbsType::Top`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TopEnv;

impl TypeEnv for TopEnv {}

/// Runs type inference over one method with the know-nothing environment.
///
/// # Errors
///
/// Returns a [`TypeError`] on stack-depth mismatches at joins or underflow,
/// which [`Program::link`] rules out; only a program edited after linking
/// can hit them.
pub fn infer(program: &Program, method_id: MethodId) -> Result<MethodTypes, TypeError> {
    infer_in(program, method_id, &TopEnv)
}

/// Runs type inference over one method, resolving opaque reads through
/// `env`.
///
/// # Errors
///
/// See [`infer`].
pub fn infer_in(
    program: &Program,
    method_id: MethodId,
    env: &dyn TypeEnv,
) -> Result<MethodTypes, TypeError> {
    let method = &program.methods[method_id.index()];
    let cfg = Cfg::build(method);
    let n = method.code.len();
    let mut before: Vec<Option<AbsFrame>> = vec![None; n];
    if n == 0 {
        return Ok(MethodTypes { before });
    }

    let mut entry_locals = vec![AbsType::Bottom; method.num_locals as usize];
    for (i, slot) in entry_locals
        .iter_mut()
        .enumerate()
        .take(method.num_params as usize)
    {
        *slot = if i == 0 && !method.is_static {
            AbsType::Ref(method.class)
        } else if i == 0 && method.class.is_none() {
            // Entry convention: local 0 of a free function holds the input
            // array when it is the program entry; model it as a ref.
            AbsType::Ref(Some(program.builtins.array))
        } else {
            AbsType::Top
        };
    }
    before[0] = Some(AbsFrame {
        stack: Vec::new(),
        locals: entry_locals,
    });

    let mk_err = |pc: u32, message: String| TypeError {
        method: method_id,
        pc,
        message,
    };

    let mut work = vec![0u32];
    while let Some(pc) = work.pop() {
        let Some(state) = before[pc as usize].clone() else {
            continue;
        };
        let insn = method.code[pc as usize];
        let AbsFrame {
            mut stack,
            mut locals,
        } = state;
        let pushed = |top| pushed_type(program, env, insn, top);
        if !transfer(program, insn, &mut stack, &mut locals, pushed) {
            return Err(mk_err(pc, "operand stack underflow".into()));
        }

        let out = AbsFrame { stack, locals };
        for &succ in cfg.succs(pc) {
            // Exception edges reset the stack to just the thrown reference.
            let is_exception_edge = method
                .handlers
                .iter()
                .any(|h| h.handler_pc == succ && pc >= h.start_pc && pc < h.end_pc)
                && !matches!(insn.jump_target(), Some(t) if t == succ)
                && succ != pc + 1;
            let incoming = if is_exception_edge {
                AbsFrame {
                    stack: vec![AbsType::Ref(None)],
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
                        return Err(mk_err(
                            succ,
                            format!(
                                "stack depth mismatch at join: {} vs {}",
                                existing.stack.len(),
                                incoming.stack.len()
                            ),
                        ));
                    }
                    let mut changed = false;
                    for (a, b) in existing.stack.iter_mut().zip(&incoming.stack) {
                        let j = join(program, *a, *b);
                        changed |= j != *a;
                        *a = j;
                    }
                    for (a, b) in existing.locals.iter_mut().zip(&incoming.locals) {
                        let j = join(program, *a, *b);
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

    Ok(MethodTypes { before })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    fn simple_program() -> (Program, MethodId, ClassId) {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Thing")
            .field("f", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1); // local 1: Ref(Thing)
            m.push_int(5).store(2); // local 2: Int
            m.load(1).push_int(1).putfield(0);
            m.push_null().store(1); // local 1: Null after
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), main, c)
    }

    #[test]
    fn locals_get_types() {
        let (p, main, c) = simple_program();
        let t = infer(&p, main).unwrap();
        // After `store 1` (pc 1), entering pc 2 local 1 is Ref(Thing).
        assert_eq!(t.local(2, 1), AbsType::Ref(Some(c)));
        // Entering the ret (last pc), local 1 is Null, local 2 Int.
        let last = (p.methods[main.index()].code.len() - 1) as u32;
        assert_eq!(t.local(last, 1), AbsType::Null);
        assert_eq!(t.local(last, 2), AbsType::Int);
        assert!(t.local(last, 1).is_reflike());
        assert!(!t.local(last, 2).is_reflike());
    }

    #[test]
    fn join_of_classes_finds_common_super() {
        let mut b = ProgramBuilder::new();
        let base = b.begin_class("Base").finish();
        let d1 = b.begin_class("D1").extends(base).finish();
        let d2 = b.begin_class("D2").extends(base).finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.load(0).push_int(0).aload().branch("else");
            m.new_obj(d1).store(1);
            m.jump("end");
            m.label("else");
            m.new_obj(d2).store(1);
            m.label("end");
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let t = infer(&p, p.entry).unwrap();
        let end_pc = (p.methods[p.entry.index()].code.len() - 1) as u32;
        assert_eq!(t.local(end_pc, 1), AbsType::Ref(Some(base)));
        let _ = (d1, d2);
    }

    #[test]
    fn join_lattice_laws() {
        let (p, _, c) = simple_program();
        use AbsType::*;
        let vals = [Bottom, Int, Null, Ref(Some(c)), Ref(None), Top];
        for a in vals {
            assert_eq!(join(&p, a, Bottom), a, "bottom is identity");
            assert_eq!(join(&p, a, a), a, "idempotent");
            for b in vals {
                assert_eq!(join(&p, a, b), join(&p, b, a), "commutative");
            }
        }
        assert_eq!(join(&p, Int, Null), Top);
        assert_eq!(join(&p, Null, Ref(Some(c))), Ref(Some(c)));
    }

    #[test]
    fn unreachable_code_stays_untyped() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.jump("end");
            m.push_int(1).pop(); // dead
            m.label("end").ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let t = infer(&p, p.entry).unwrap();
        assert!(t.before[1].is_none());
        assert_eq!(t.local(1, 0), AbsType::Bottom);
    }
}
