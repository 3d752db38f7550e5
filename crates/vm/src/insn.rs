//! The bytecode instruction set.
//!
//! The ISA is a compact, stack-based subset of the JVM's, covering exactly
//! the operations whose heap effects the drag profiler observes: allocation
//! (`new`, `newarray`), field and array access, virtual and static calls,
//! monitors, and static variables. Control flow uses absolute `pc` targets
//! within a method; the [`builder`](crate::builder) resolves symbolic labels
//! to these targets.

use std::fmt;

use crate::ids::{ClassId, MethodId, StaticId, VSlot};
use crate::program::Program;

/// A single bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    // --- constants and stack shuffling -----------------------------------
    /// Push an integer constant.
    PushInt(i64),
    /// Push the null reference.
    PushNull,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,

    // --- locals -----------------------------------------------------------
    /// Push local variable `n`.
    Load(u16),
    /// Pop into local variable `n`.
    Store(u16),

    // --- integer arithmetic (operate on the two topmost ints) -------------
    /// `a + b` (wrapping).
    Add,
    /// `a - b` (wrapping).
    Sub,
    /// `a * b` (wrapping).
    Mul,
    /// `a / b`; throws `ArithmeticException` on division by zero.
    Div,
    /// `a % b`; throws `ArithmeticException` on division by zero.
    Rem,
    /// Negate the topmost int.
    Neg,

    // --- comparisons (push 1 or 0) ----------------------------------------
    /// `a == b` for two ints, or reference equality for two refs/nulls.
    CmpEq,
    /// Negation of [`Insn::CmpEq`].
    CmpNe,
    /// `a < b` (ints).
    CmpLt,
    /// `a <= b` (ints).
    CmpLe,
    /// `a > b` (ints).
    CmpGt,
    /// `a >= b` (ints).
    CmpGe,

    // --- control flow ------------------------------------------------------
    /// Unconditional jump to `pc`.
    Jump(u32),
    /// Pop an int; jump to `pc` if it is non-zero.
    Branch(u32),
    /// Pop a reference; jump to `pc` if it is null.
    BranchIfNull(u32),
    /// Pop a reference; jump to `pc` if it is non-null.
    BranchIfNotNull(u32),

    // --- objects ------------------------------------------------------------
    /// Allocate a new instance of the class; push its reference.
    ///
    /// Does **not** run a constructor; programs call an `init` method
    /// explicitly, as javac-emitted bytecode does with `<init>`.
    New(ClassId),
    /// Pop a receiver; push field at layout slot `n`. A *use* of the receiver.
    GetField(u16),
    /// Pop a value then a receiver; store into layout slot `n`. A *use*.
    PutField(u16),
    /// Pop a length; allocate an array of that many slots (all null); push it.
    NewArray,
    /// Pop index then array; push element. A *use* (handle dereference).
    ALoad,
    /// Pop value, index, array; store element. A *use* (handle dereference).
    AStore,
    /// Pop an array; push its length. A *use* (handle dereference).
    ArrayLen,
    /// Pop a reference (or null); push 1 if it is an instance of the class
    /// (or a subclass), else 0. Null yields 0. Not a use (no dereference of
    /// object payload is required under a handle-based heap).
    InstanceOf(ClassId),

    // --- statics -------------------------------------------------------------
    /// Push the value of a static variable.
    GetStatic(StaticId),
    /// Pop into a static variable.
    PutStatic(StaticId),

    // --- calls ----------------------------------------------------------------
    /// Call a method directly (static binding). Pops `num_params` arguments,
    /// rightmost on top. For instance methods parameter 0 is the receiver and
    /// the call is a *use* of it.
    Call(MethodId),
    /// Virtual dispatch through slot `vslot` with `argc` arguments *plus* the
    /// receiver beneath them. A *use* of the receiver.
    CallVirtual {
        /// Selector slot resolved against the receiver's vtable.
        vslot: VSlot,
        /// Number of arguments, excluding the receiver.
        argc: u8,
    },
    /// Return with no value.
    Ret,
    /// Pop a value and return it to the caller's stack.
    RetVal,

    // --- monitors ---------------------------------------------------------------
    /// Pop a reference and enter its monitor. A *use*.
    MonitorEnter,
    /// Pop a reference and exit its monitor. A *use*.
    MonitorExit,

    // --- exceptions ---------------------------------------------------------------
    /// Pop a reference and throw it.
    Throw,

    // --- miscellaneous --------------------------------------------------------------
    /// Pop an int and append it to the program output.
    Print,
    /// No operation. Used by transformations that blank out dead code.
    Nop,
}

/// A coarse grouping of opcodes for dispatch accounting.
///
/// The interpreter tallies one counter per class on every executed
/// instruction (a plain array increment, no atomics), and flushes the
/// tallies to `vm_dispatch_total{class="<name>"}` registry counters when a
/// run ends. The classes partition [`Insn`]: every instruction belongs to
/// exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpcodeClass {
    /// Constants, stack shuffling, locals, and `nop`.
    Stack,
    /// Integer arithmetic.
    Arith,
    /// Comparisons and `instanceof`.
    Compare,
    /// Jumps and branches.
    Control,
    /// Heap allocation (`new`, `newarray`).
    Alloc,
    /// Instance field access.
    Field,
    /// Array element and length access.
    Array,
    /// Static variable access.
    Static,
    /// Direct and virtual calls.
    Call,
    /// Returns.
    Ret,
    /// Monitor enter/exit.
    Monitor,
    /// Exception throw.
    Throw,
    /// Program output.
    Io,
}

impl OpcodeClass {
    /// Number of opcode classes.
    pub const COUNT: usize = 13;

    /// Every class, in discriminant order.
    pub const ALL: [OpcodeClass; OpcodeClass::COUNT] = [
        OpcodeClass::Stack,
        OpcodeClass::Arith,
        OpcodeClass::Compare,
        OpcodeClass::Control,
        OpcodeClass::Alloc,
        OpcodeClass::Field,
        OpcodeClass::Array,
        OpcodeClass::Static,
        OpcodeClass::Call,
        OpcodeClass::Ret,
        OpcodeClass::Monitor,
        OpcodeClass::Throw,
        OpcodeClass::Io,
    ];

    /// The class name as used in metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            OpcodeClass::Stack => "stack",
            OpcodeClass::Arith => "arith",
            OpcodeClass::Compare => "compare",
            OpcodeClass::Control => "control",
            OpcodeClass::Alloc => "alloc",
            OpcodeClass::Field => "field",
            OpcodeClass::Array => "array",
            OpcodeClass::Static => "static",
            OpcodeClass::Call => "call",
            OpcodeClass::Ret => "ret",
            OpcodeClass::Monitor => "monitor",
            OpcodeClass::Throw => "throw",
            OpcodeClass::Io => "io",
        }
    }
}

impl Insn {
    /// The instruction's [`OpcodeClass`] for dispatch accounting.
    pub fn class(&self) -> OpcodeClass {
        match self {
            Insn::PushInt(_)
            | Insn::PushNull
            | Insn::Dup
            | Insn::Pop
            | Insn::Swap
            | Insn::Load(_)
            | Insn::Store(_)
            | Insn::Nop => OpcodeClass::Stack,
            Insn::Add | Insn::Sub | Insn::Mul | Insn::Div | Insn::Rem | Insn::Neg => {
                OpcodeClass::Arith
            }
            Insn::CmpEq
            | Insn::CmpNe
            | Insn::CmpLt
            | Insn::CmpLe
            | Insn::CmpGt
            | Insn::CmpGe
            | Insn::InstanceOf(_) => OpcodeClass::Compare,
            Insn::Jump(_) | Insn::Branch(_) | Insn::BranchIfNull(_) | Insn::BranchIfNotNull(_) => {
                OpcodeClass::Control
            }
            Insn::New(_) | Insn::NewArray => OpcodeClass::Alloc,
            Insn::GetField(_) | Insn::PutField(_) => OpcodeClass::Field,
            Insn::ALoad | Insn::AStore | Insn::ArrayLen => OpcodeClass::Array,
            Insn::GetStatic(_) | Insn::PutStatic(_) => OpcodeClass::Static,
            Insn::Call(_) | Insn::CallVirtual { .. } => OpcodeClass::Call,
            Insn::Ret | Insn::RetVal => OpcodeClass::Ret,
            Insn::MonitorEnter | Insn::MonitorExit => OpcodeClass::Monitor,
            Insn::Throw => OpcodeClass::Throw,
            Insn::Print => OpcodeClass::Io,
        }
    }

    /// The instruction's operand-stack effect `(pops, pushes)` — the one
    /// stack-effect table of the workspace, shared by the verifier, the
    /// frame sizing of [`predecode`](crate::predecode) and the static
    /// analyses.
    ///
    /// A call pops its arguments (an instance call its receiver too) and
    /// pushes one value when its targets return one. Whether they do is
    /// decided by [`Program::link`] ([`Method::returns_value`] and
    /// [`Program::selector_returns`]), so `program` must be linked.
    ///
    /// [`Method::returns_value`]: crate::class::Method::returns_value
    pub fn stack_effect(&self, program: &Program) -> (usize, usize) {
        use Insn::*;
        match self {
            PushInt(_) | PushNull | Load(_) | GetStatic(_) | New(_) => (0, 1),
            Dup => (1, 2),
            Swap => (2, 2),
            Pop | Store(_) | PutStatic(_) | RetVal | MonitorEnter | MonitorExit | Throw | Print => {
                (1, 0)
            }
            Branch(_) | BranchIfNull(_) | BranchIfNotNull(_) => (1, 0),
            Neg | NewArray | GetField(_) | ArrayLen | InstanceOf(_) => (1, 1),
            Add | Sub | Mul | Div | Rem | ALoad => (2, 1),
            CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => (2, 1),
            PutField(_) => (2, 0),
            AStore => (3, 0),
            Jump(_) | Ret | Nop => (0, 0),
            Call(target) => {
                let callee = &program.methods[target.index()];
                (
                    callee.num_params as usize,
                    usize::from(callee.returns_value),
                )
            }
            CallVirtual { vslot, argc } => (
                *argc as usize + 1,
                usize::from(program.selector_returns[vslot.index()]),
            ),
        }
    }

    /// True if executing this instruction *may* record a heap use of some
    /// object (one of the five use events of the paper: getfield, putfield,
    /// method invocation on a receiver, monitor enter/exit, handle deref).
    pub fn is_use(&self) -> bool {
        matches!(
            self,
            Insn::GetField(_)
                | Insn::PutField(_)
                | Insn::ALoad
                | Insn::AStore
                | Insn::ArrayLen
                | Insn::CallVirtual { .. }
                | Insn::MonitorEnter
                | Insn::MonitorExit
        )
    }

    /// True if this instruction allocates a heap object.
    pub fn is_alloc(&self) -> bool {
        matches!(self, Insn::New(_) | Insn::NewArray)
    }

    /// The jump target, if this is a control-transfer instruction.
    pub fn jump_target(&self) -> Option<u32> {
        match self {
            Insn::Jump(t) | Insn::Branch(t) | Insn::BranchIfNull(t) | Insn::BranchIfNotNull(t) => {
                Some(*t)
            }
            _ => None,
        }
    }

    /// Returns a copy with the jump target replaced.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a control transfer; callers must
    /// check [`Insn::jump_target`] first.
    pub fn with_jump_target(&self, target: u32) -> Insn {
        match self {
            Insn::Jump(_) => Insn::Jump(target),
            Insn::Branch(_) => Insn::Branch(target),
            Insn::BranchIfNull(_) => Insn::BranchIfNull(target),
            Insn::BranchIfNotNull(_) => Insn::BranchIfNotNull(target),
            other => panic!("{other:?} has no jump target"),
        }
    }

    /// True if control never falls through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Insn::Jump(_) | Insn::Ret | Insn::RetVal | Insn::Throw)
    }

    /// The instruction's mnemonic, as used by the assembler.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Insn::PushInt(_) => "push",
            Insn::PushNull => "pushnull",
            Insn::Dup => "dup",
            Insn::Pop => "pop",
            Insn::Swap => "swap",
            Insn::Load(_) => "load",
            Insn::Store(_) => "store",
            Insn::Add => "add",
            Insn::Sub => "sub",
            Insn::Mul => "mul",
            Insn::Div => "div",
            Insn::Rem => "rem",
            Insn::Neg => "neg",
            Insn::CmpEq => "cmpeq",
            Insn::CmpNe => "cmpne",
            Insn::CmpLt => "cmplt",
            Insn::CmpLe => "cmple",
            Insn::CmpGt => "cmpgt",
            Insn::CmpGe => "cmpge",
            Insn::Jump(_) => "jump",
            Insn::Branch(_) => "branch",
            Insn::BranchIfNull(_) => "brnull",
            Insn::BranchIfNotNull(_) => "brnonnull",
            Insn::New(_) => "new",
            Insn::GetField(_) => "getfield",
            Insn::PutField(_) => "putfield",
            Insn::NewArray => "newarray",
            Insn::ALoad => "aload",
            Insn::AStore => "astore",
            Insn::ArrayLen => "arraylen",
            Insn::InstanceOf(_) => "instanceof",
            Insn::GetStatic(_) => "getstatic",
            Insn::PutStatic(_) => "putstatic",
            Insn::Call(_) => "call",
            Insn::CallVirtual { .. } => "callvirtual",
            Insn::Ret => "ret",
            Insn::RetVal => "retval",
            Insn::MonitorEnter => "monitorenter",
            Insn::MonitorExit => "monitorexit",
            Insn::Throw => "throw",
            Insn::Print => "print",
            Insn::Nop => "nop",
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::PushInt(i) => write!(f, "push {i}"),
            Insn::Load(n) => write!(f, "load {n}"),
            Insn::Store(n) => write!(f, "store {n}"),
            Insn::Jump(t) => write!(f, "jump {t}"),
            Insn::Branch(t) => write!(f, "branch {t}"),
            Insn::BranchIfNull(t) => write!(f, "brnull {t}"),
            Insn::BranchIfNotNull(t) => write!(f, "brnonnull {t}"),
            Insn::New(c) => write!(f, "new {c}"),
            Insn::GetField(n) => write!(f, "getfield {n}"),
            Insn::PutField(n) => write!(f, "putfield {n}"),
            Insn::InstanceOf(c) => write!(f, "instanceof {c}"),
            Insn::GetStatic(s) => write!(f, "getstatic {s}"),
            Insn::PutStatic(s) => write!(f, "putstatic {s}"),
            Insn::Call(m) => write!(f, "call {m}"),
            Insn::CallVirtual { vslot, argc } => write!(f, "callvirtual {vslot} argc={argc}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_classification_matches_paper_events() {
        assert!(Insn::GetField(0).is_use());
        assert!(Insn::PutField(0).is_use());
        assert!(Insn::CallVirtual {
            vslot: VSlot(0),
            argc: 0
        }
        .is_use());
        assert!(Insn::MonitorEnter.is_use());
        assert!(Insn::MonitorExit.is_use());
        assert!(Insn::ALoad.is_use());
        assert!(Insn::AStore.is_use());
        assert!(Insn::ArrayLen.is_use());
        // Allocation itself is not a use; neither is a direct static call.
        assert!(!Insn::New(ClassId(0)).is_use());
        assert!(!Insn::Call(MethodId(0)).is_use());
        assert!(!Insn::InstanceOf(ClassId(0)).is_use());
    }

    #[test]
    fn opcode_class_names_and_order_agree() {
        for (i, class) in OpcodeClass::ALL.iter().enumerate() {
            assert_eq!(*class as usize, i, "ALL must follow discriminant order");
        }
        let names: std::collections::HashSet<_> =
            OpcodeClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpcodeClass::COUNT, "names must be distinct");
        assert!((Insn::New(ClassId(0)).class()) == OpcodeClass::Alloc);
        assert_eq!(Insn::Nop.class(), OpcodeClass::Stack);
        assert_eq!(Insn::CmpLt.class(), OpcodeClass::Compare);
        assert_eq!(Insn::Print.class(), OpcodeClass::Io);
    }

    #[test]
    fn jump_target_rewriting() {
        let j = Insn::Branch(10);
        assert_eq!(j.jump_target(), Some(10));
        assert_eq!(j.with_jump_target(20), Insn::Branch(20));
        assert_eq!(Insn::Add.jump_target(), None);
    }

    #[test]
    #[should_panic(expected = "has no jump target")]
    fn with_jump_target_panics_on_non_jump() {
        let _ = Insn::Add.with_jump_target(0);
    }

    #[test]
    fn terminators() {
        assert!(Insn::Ret.is_terminator());
        assert!(Insn::Jump(0).is_terminator());
        assert!(Insn::Throw.is_terminator());
        assert!(!Insn::Branch(0).is_terminator());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Insn::PushInt(5).to_string(), "push 5");
        assert_eq!(Insn::Nop.to_string(), "nop");
        assert_eq!(
            Insn::CallVirtual {
                vslot: VSlot(3),
                argc: 2
            }
            .to_string(),
            "callvirtual VSlot#3 argc=2"
        );
    }
}
