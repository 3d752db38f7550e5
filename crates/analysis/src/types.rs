//! Abstract interpretation of operand-stack and local-variable types —
//! the stack-map inference the paper's §5 leans on (via Agesen et al.) to
//! know which locals hold references at each program point. It runs the
//! VM's frame solver, [`heapdrag_vm::flow`], over the [`AbsType`] lattice.

use std::error::Error;
use std::fmt;

use heapdrag_vm::flow::{self, Frame};
use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::insn::{Insn, OpcodeClass};
use heapdrag_vm::program::Program;

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
    pub before: Vec<Option<Frame<AbsType>>>,
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
/// Returns a [`TypeError`] on an underflow, a stack-depth mismatch at a
/// join or control falling off the end of the code, which
/// [`Program::link`] rules out; only a program edited after linking can
/// hit them.
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
    let entry_locals = (0..method.num_locals)
        .map(|i| match i {
            _ if i >= method.num_params => AbsType::Bottom,
            0 if !method.is_static => AbsType::Ref(method.class),
            // Entry convention: local 0 of a free function holds the input
            // array when it is the program entry; model it as a ref.
            0 if method.class.is_none() => AbsType::Ref(Some(program.builtins.array)),
            _ => AbsType::Top,
        })
        .collect();
    let (thrown, join) = (AbsType::Ref(None), |a, b| join(program, a, b));
    let pushed = |_, insn, top| pushed_type(program, env, insn, top);
    let before = flow::solve(program, method, entry_locals, thrown, join, pushed);
    let before = before.map_err(|flow::FlowError { pc, reason }| TypeError {
        method: method_id,
        pc,
        message: reason,
    })?;
    Ok(MethodTypes { before })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::{Handler, Method, Visibility};
    use heapdrag_vm::{Vm, VmConfig, VmError};

    use crate::provenance::{infer_provenance, Prov};

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

    #[test]
    fn handler_entered_by_fall_through_joins_both_edges() {
        // The catch-all handler over the `div` starts at the `store` the
        // `div` falls through to, so pc 3 is entered with the quotient and
        // with the thrown reference.
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 2);
        main.code = vec![
            Insn::PushInt(1),
            Insn::PushInt(0),
            Insn::Div,
            Insn::Store(1),
            Insn::Load(1),
            Insn::PushInt(1),
            Insn::Add,
            Insn::Print,
            Insn::Ret,
        ];
        main.handlers = vec![Handler {
            start_pc: 2,
            end_pc: 3,
            handler_pc: 3,
            catch: None,
        }];
        p.methods.push(main);
        p.link().unwrap();
        let err = Vm::new(&p, VmConfig::default()).run(&[]).unwrap_err();
        assert!(matches!(err, VmError::TypeMismatch { .. }), "{err}");

        let main = MethodId(0);
        assert_eq!(infer(&p, main).unwrap().stack(3, 0), AbsType::Top);
        assert_eq!(infer(&p, main).unwrap().local(4, 1), AbsType::Top);
        let prov = infer_provenance(&p, main).unwrap();
        assert_eq!(prov.stack(3, 0), Prov::Other);
        assert_eq!(prov.local(4, 1), Prov::Other);
    }
}
