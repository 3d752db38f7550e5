//! Pre-decoded instruction streams for the fast interpreter.
//!
//! [`predecode`] lowers every [`Method`] of a linked
//! [`Program`] into a flat [`Op`] stream once, at `Vm::new` time, so the hot
//! dispatch loop never re-derives per-instruction facts:
//!
//! * operand payloads the reference loop looks up per step (a `New`'s slot
//!   count, a `Call`'s arity and static/instance split) are resolved into the
//!   [`Op`] itself;
//! * the dominant opcode *pairs* (measured by the per-class dispatch
//!   counters) are fused into superinstructions — see the `Load*`, `PushIntAdd`,
//!   `AddStore`, and `Cmp*Branch` variants — halving dispatches on loop-heavy
//!   code;
//! * every site that can consult an inline cache gets a cache slot index
//!   assigned here, so the caches themselves are dense vectors, not maps.
//!
//! # Layout invariant (pc preservation)
//!
//! The lowered stream has **exactly one [`Op`] per original instruction, at
//! the same index**. A fused superinstruction occupies the first pc of its
//! pair; the second pc still holds the plainly-lowered second instruction,
//! which is unreachable in normal flow (the fused op advances the pc by two)
//! but keeps every original pc addressable. This is what makes exception
//! handler ranges, branch targets, and fault-pc attribution identical to the
//! reference interpreter with no translation tables: a fused step that
//! faults in its second half reports the *second* original pc.
//!
//! Fusion is suppressed when the second pc is a branch target or a handler
//! entry (control may land there directly). Handler *range* boundaries do
//! not suppress fusion: faults are attributed per original pc, so a handler
//! covering only half of a fused pair behaves exactly as in the reference.

use crate::class::Method;
use crate::ids::{ChainId, ClassId, MethodId, StaticId, VSlot};
use crate::insn::{Insn, OpcodeClass};
use crate::program::Program;

/// Extra operand-stack capacity reserved beyond the statically estimated
/// maximum depth, so small estimate misses never cause a mid-run regrow.
pub const STACK_HEADROOM: usize = 8;

/// Minimum pre-grown operand-stack capacity for any frame.
pub const MIN_STACK_CAPACITY: usize = 8;

/// A pre-decoded operation. One per original [`Insn`], at the same pc.
///
/// Payload-free instructions lower to payload-free variants; instructions
/// whose reference-loop execution re-derives something per step carry that
/// something pre-resolved. The `ic` fields index the per-VM inline-cache
/// vectors in [`IcState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
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
    /// Push local `n`.
    Load(u16),
    /// Pop into local `n`.
    Store(u16),
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; throws `ArithmeticException` on zero.
    Div,
    /// Remainder; throws `ArithmeticException` on zero.
    Rem,
    /// Negate the topmost int.
    Neg,
    /// Equality comparison (ints or references).
    CmpEq,
    /// Inequality comparison.
    CmpNe,
    /// `a < b`.
    CmpLt,
    /// `a <= b`.
    CmpLe,
    /// `a > b`.
    CmpGt,
    /// `a >= b`.
    CmpGe,
    /// Unconditional jump.
    Jump(u32),
    /// Pop an int; jump if non-zero.
    Branch(u32),
    /// Pop a reference; jump if null.
    BranchIfNull(u32),
    /// Pop a reference; jump if non-null.
    BranchIfNotNull(u32),
    /// Allocate an instance: class, pre-resolved slot count, and an
    /// allocation-chain cache slot.
    New {
        /// Class to instantiate.
        class: ClassId,
        /// `num_slots()` of the class, resolved at predecode time.
        slots: u16,
        /// Chain-cache slot for the allocation site.
        ic: u32,
    },
    /// Allocate an array; chain-cache slot for the allocation site.
    NewArray {
        /// Chain-cache slot for the allocation site.
        ic: u32,
    },
    /// Read field `slot`; chain-cache slot for the use site.
    GetField {
        /// Field layout slot.
        slot: u16,
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Write field `slot`; chain-cache slot for the use site.
    PutField {
        /// Field layout slot.
        slot: u16,
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Array element read; chain-cache slot for the use site.
    ALoad {
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Array element write; chain-cache slot for the use site.
    AStore {
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Array length; chain-cache slot for the use site.
    ArrayLen {
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Subclass test.
    InstanceOf(ClassId),
    /// Push a static variable.
    GetStatic(StaticId),
    /// Pop into a static variable.
    PutStatic(StaticId),
    /// Direct call with the callee's arity and instance-ness pre-resolved.
    Call {
        /// Callee.
        target: MethodId,
        /// The callee's `num_params`, resolved at predecode time.
        nparams: u16,
        /// True if the callee is an instance method (receiver use + null check).
        is_instance: bool,
        /// Chain-cache slot for the receiver-use site (instance calls).
        ic: u32,
        /// Context-cache slot for the callee frame's call chain.
        cic: u32,
    },
    /// Virtual call with vtable and context caches.
    CallVirtual {
        /// Selector slot.
        vslot: VSlot,
        /// Argument count, excluding the receiver.
        argc: u8,
        /// Chain-cache slot for the receiver-use site.
        ic: u32,
        /// Context-cache slot for the callee frame's call chain.
        cic: u32,
        /// Vtable cache slot (receiver class → target method).
        vic: u32,
    },
    /// Return with no value.
    Ret,
    /// Return the top of stack.
    RetVal,
    /// Enter a monitor; chain-cache slot for the use site.
    MonitorEnter {
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Exit a monitor; chain-cache slot for the use site.
    MonitorExit {
        /// Chain-cache slot for the use site.
        ic: u32,
    },
    /// Pop and throw an exception object.
    Throw,
    /// Pop an int to the program output.
    Print,
    /// No operation.
    Nop,

    // --- superinstructions (fused pairs) ----------------------------------
    /// `Load(local)` + `GetField(slot)`: the dominant field-walk pair.
    LoadGetField {
        /// Local holding the receiver.
        local: u16,
        /// Field layout slot.
        slot: u16,
        /// Chain-cache slot for the `GetField` use site (second pc).
        ic: u32,
    },
    /// `Load(a)` + `Load(b)`: the dominant loop-header pair.
    LoadLoad {
        /// First local.
        a: u16,
        /// Second local.
        b: u16,
    },
    /// `Load(local)` + `PushInt(value)`.
    LoadPushInt {
        /// Local to push first.
        local: u16,
        /// Constant to push second.
        value: i64,
    },
    /// `Load(from)` + `Store(to)`: a local-to-local move.
    LoadStore {
        /// Source local.
        from: u16,
        /// Destination local.
        to: u16,
    },
    /// `PushInt(value)` + `Add`: increment by a constant.
    PushIntAdd {
        /// The constant addend.
        value: i64,
    },
    /// `Add` + `Store(local)`: accumulate into a local.
    AddStore {
        /// Destination local.
        local: u16,
    },
    /// `CmpLt` + `Branch(target)`: compare-and-branch, the loop back edge.
    CmpLtBranch(u32),
    /// `CmpLe` + `Branch(target)`.
    CmpLeBranch(u32),
    /// `CmpGt` + `Branch(target)`.
    CmpGtBranch(u32),
    /// `CmpGe` + `Branch(target)`.
    CmpGeBranch(u32),
}

impl Op {
    /// The [`OpcodeClass`] of the op's *first* original instruction; fused
    /// ops account for their second half separately, mid-execution, so the
    /// per-class dispatch counters match the reference loop exactly.
    pub fn class_first(&self) -> OpcodeClass {
        match self {
            Op::PushInt(_)
            | Op::PushNull
            | Op::Dup
            | Op::Pop
            | Op::Swap
            | Op::Load(_)
            | Op::Store(_)
            | Op::Nop
            | Op::LoadGetField { .. }
            | Op::LoadLoad { .. }
            | Op::LoadPushInt { .. }
            | Op::LoadStore { .. }
            | Op::PushIntAdd { .. } => OpcodeClass::Stack,
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Neg | Op::AddStore { .. } => {
                OpcodeClass::Arith
            }
            Op::CmpEq
            | Op::CmpNe
            | Op::CmpLt
            | Op::CmpLe
            | Op::CmpGt
            | Op::CmpGe
            | Op::InstanceOf(_)
            | Op::CmpLtBranch(_)
            | Op::CmpLeBranch(_)
            | Op::CmpGtBranch(_)
            | Op::CmpGeBranch(_) => OpcodeClass::Compare,
            Op::Jump(_) | Op::Branch(_) | Op::BranchIfNull(_) | Op::BranchIfNotNull(_) => {
                OpcodeClass::Control
            }
            Op::New { .. } | Op::NewArray { .. } => OpcodeClass::Alloc,
            Op::GetField { .. } | Op::PutField { .. } => OpcodeClass::Field,
            Op::ALoad { .. } | Op::AStore { .. } | Op::ArrayLen { .. } => OpcodeClass::Array,
            Op::GetStatic(_) | Op::PutStatic(_) => OpcodeClass::Static,
            Op::Call { .. } | Op::CallVirtual { .. } => OpcodeClass::Call,
            Op::Ret | Op::RetVal => OpcodeClass::Ret,
            Op::MonitorEnter { .. } | Op::MonitorExit { .. } => OpcodeClass::Monitor,
            Op::Throw => OpcodeClass::Throw,
            Op::Print => OpcodeClass::Io,
        }
    }

    /// The [`OpcodeClass`] of the second half of a fused pair, if any.
    pub fn class_second(&self) -> Option<OpcodeClass> {
        match self {
            Op::LoadGetField { .. } => Some(OpcodeClass::Field),
            Op::LoadLoad { .. } | Op::LoadPushInt { .. } | Op::LoadStore { .. } => {
                Some(OpcodeClass::Stack)
            }
            Op::PushIntAdd { .. } => Some(OpcodeClass::Arith),
            Op::AddStore { .. } => Some(OpcodeClass::Stack),
            Op::CmpLtBranch(_) | Op::CmpLeBranch(_) | Op::CmpGtBranch(_) | Op::CmpGeBranch(_) => {
                Some(OpcodeClass::Control)
            }
            _ => None,
        }
    }

    /// True if this op is a fused superinstruction (spans two original pcs).
    pub fn is_fused(&self) -> bool {
        self.class_second().is_some()
    }
}

/// One pre-decoded method: the op stream plus a pre-grow hint for frames.
#[derive(Debug, Clone, Default)]
pub struct PredecodedMethod {
    /// One op per original instruction, at the same index.
    pub ops: Vec<Op>,
    /// Operand-stack capacity to reserve for frames of this method
    /// (estimated maximum depth plus [`STACK_HEADROOM`]).
    pub stack_capacity: usize,
}

/// A whole program lowered for the fast loop, plus the inline-cache slot
/// counts assigned during lowering.
#[derive(Debug, Clone, Default)]
pub struct PredecodedProgram {
    /// One entry per `program.methods` entry, same order.
    pub methods: Vec<PredecodedMethod>,
    /// Number of allocation/use chain-cache slots assigned.
    pub chain_ics: u32,
    /// Number of call-context cache slots assigned.
    pub ctx_ics: u32,
    /// Number of vtable cache slots assigned.
    pub vt_ics: u32,
}

/// A monomorphic cache of the event chain interned for one allocation or
/// use site, keyed by the executing frame's context id.
///
/// `ctx_plus1 == 0` means empty; a hit requires `ctx_plus1 == ctx + 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainIc {
    /// Cached frame-context id, plus one (0 = empty slot).
    pub ctx_plus1: u32,
    /// The interned chain for (site, context).
    pub chain: ChainId,
}

/// A monomorphic cache of the callee context built at one call site, keyed
/// by the caller frame's context id.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxIc {
    /// Cached caller-context id, plus one (0 = empty slot).
    pub caller_plus1: u32,
    /// The interned callee context.
    pub callee: u32,
}

/// A monomorphic vtable cache for one `CallVirtual` site, keyed by the
/// receiver class. Only *successful* dispatches (target found, arity
/// checked) are cached.
#[derive(Debug, Clone, Copy, Default)]
pub struct VtIc {
    /// Cached receiver class id, plus one (0 = empty slot).
    pub class_plus1: u32,
    /// The resolved target method.
    pub target: MethodId,
}

/// The per-VM inline-cache state, sized by [`PredecodedProgram`] slot
/// counts. Persistent across runs of the same `Vm` (site ids are too).
#[derive(Debug, Clone, Default)]
pub struct IcState {
    /// Allocation/use chain caches, indexed by `ic` fields.
    pub chains: Vec<ChainIc>,
    /// Call-context caches, indexed by `cic` fields.
    pub ctxs: Vec<CtxIc>,
    /// Vtable caches, indexed by `vic` fields.
    pub vtables: Vec<VtIc>,
}

impl IcState {
    /// Allocates empty caches for every slot `pre` assigned.
    pub fn for_program(pre: &PredecodedProgram) -> Self {
        IcState {
            chains: vec![ChainIc::default(); pre.chain_ics as usize],
            ctxs: vec![CtxIc::default(); pre.ctx_ics as usize],
            vtables: vec![VtIc::default(); pre.vt_ics as usize],
        }
    }
}

/// True if `(a, b)` is a pair the lowering fuses into a superinstruction.
fn fusable_pair(a: &Insn, b: &Insn) -> bool {
    matches!(
        (a, b),
        (Insn::Load(_), Insn::GetField(_))
            | (Insn::Load(_), Insn::PushInt(_))
            | (Insn::Load(_), Insn::Load(_))
            | (Insn::Load(_), Insn::Store(_))
            | (Insn::PushInt(_), Insn::Add)
            | (Insn::Add, Insn::Store(_))
            | (Insn::CmpLt, Insn::Branch(_))
            | (Insn::CmpLe, Insn::Branch(_))
            | (Insn::CmpGt, Insn::Branch(_))
            | (Insn::CmpGe, Insn::Branch(_))
    )
}

/// Builds the fused op from the first original instruction and the
/// plainly-lowered second op. Must agree with [`fusable_pair`].
fn fuse_pair(first: &Insn, second: &Op) -> Op {
    match (first, second) {
        (Insn::Load(n), Op::GetField { slot, ic }) => Op::LoadGetField {
            local: *n,
            slot: *slot,
            ic: *ic,
        },
        (Insn::Load(n), Op::PushInt(v)) => Op::LoadPushInt {
            local: *n,
            value: *v,
        },
        (Insn::Load(a), Op::Load(b)) => Op::LoadLoad { a: *a, b: *b },
        (Insn::Load(f), Op::Store(t)) => Op::LoadStore { from: *f, to: *t },
        (Insn::PushInt(v), Op::Add) => Op::PushIntAdd { value: *v },
        (Insn::Add, Op::Store(n)) => Op::AddStore { local: *n },
        (Insn::CmpLt, Op::Branch(t)) => Op::CmpLtBranch(*t),
        (Insn::CmpLe, Op::Branch(t)) => Op::CmpLeBranch(*t),
        (Insn::CmpGt, Op::Branch(t)) => Op::CmpGtBranch(*t),
        (Insn::CmpGe, Op::Branch(t)) => Op::CmpGeBranch(*t),
        _ => unreachable!("fuse_pair called on a pair fusable_pair rejected"),
    }
}

/// Running counters for inline-cache slot assignment during lowering.
#[derive(Default)]
struct IcCounters {
    chains: u32,
    ctxs: u32,
    vtables: u32,
}

impl IcCounters {
    fn chain(&mut self) -> u32 {
        let id = self.chains;
        self.chains += 1;
        id
    }
    fn ctx(&mut self) -> u32 {
        let id = self.ctxs;
        self.ctxs += 1;
        id
    }
    fn vtable(&mut self) -> u32 {
        let id = self.vtables;
        self.vtables += 1;
        id
    }
}

/// Lowers one instruction, assigning inline-cache slots as needed.
fn lower(program: &Program, insn: &Insn, c: &mut IcCounters) -> Op {
    match *insn {
        Insn::PushInt(i) => Op::PushInt(i),
        Insn::PushNull => Op::PushNull,
        Insn::Dup => Op::Dup,
        Insn::Pop => Op::Pop,
        Insn::Swap => Op::Swap,
        Insn::Load(n) => Op::Load(n),
        Insn::Store(n) => Op::Store(n),
        Insn::Add => Op::Add,
        Insn::Sub => Op::Sub,
        Insn::Mul => Op::Mul,
        Insn::Div => Op::Div,
        Insn::Rem => Op::Rem,
        Insn::Neg => Op::Neg,
        Insn::CmpEq => Op::CmpEq,
        Insn::CmpNe => Op::CmpNe,
        Insn::CmpLt => Op::CmpLt,
        Insn::CmpLe => Op::CmpLe,
        Insn::CmpGt => Op::CmpGt,
        Insn::CmpGe => Op::CmpGe,
        Insn::Jump(t) => Op::Jump(t),
        Insn::Branch(t) => Op::Branch(t),
        Insn::BranchIfNull(t) => Op::BranchIfNull(t),
        Insn::BranchIfNotNull(t) => Op::BranchIfNotNull(t),
        Insn::New(class) => Op::New {
            class,
            slots: program.classes[class.index()].num_slots(),
            ic: c.chain(),
        },
        Insn::NewArray => Op::NewArray { ic: c.chain() },
        Insn::GetField(slot) => Op::GetField {
            slot,
            ic: c.chain(),
        },
        Insn::PutField(slot) => Op::PutField {
            slot,
            ic: c.chain(),
        },
        Insn::ALoad => Op::ALoad { ic: c.chain() },
        Insn::AStore => Op::AStore { ic: c.chain() },
        Insn::ArrayLen => Op::ArrayLen { ic: c.chain() },
        Insn::InstanceOf(class) => Op::InstanceOf(class),
        Insn::GetStatic(s) => Op::GetStatic(s),
        Insn::PutStatic(s) => Op::PutStatic(s),
        Insn::Call(target) => {
            let callee = &program.methods[target.index()];
            Op::Call {
                target,
                nparams: callee.num_params,
                is_instance: !callee.is_static,
                ic: c.chain(),
                cic: c.ctx(),
            }
        }
        Insn::CallVirtual { vslot, argc } => Op::CallVirtual {
            vslot,
            argc,
            ic: c.chain(),
            cic: c.ctx(),
            vic: c.vtable(),
        },
        Insn::Ret => Op::Ret,
        Insn::RetVal => Op::RetVal,
        Insn::MonitorEnter => Op::MonitorEnter { ic: c.chain() },
        Insn::MonitorExit => Op::MonitorExit { ic: c.chain() },
        Insn::Throw => Op::Throw,
        Insn::Print => Op::Print,
        Insn::Nop => Op::Nop,
    }
}

/// A conservative linear estimate of the method's maximum operand-stack
/// depth, used only as a pre-grow capacity hint (never for checking).
fn estimate_stack_depth(program: &Program, method: &Method) -> usize {
    let mut depth: usize = 0;
    let mut max = 0;
    for insn in &method.code {
        let (pops, pushes) = match insn {
            Insn::PushInt(_) | Insn::PushNull | Insn::Load(_) | Insn::GetStatic(_) => (0, 1),
            Insn::Dup => (1, 2),
            Insn::Pop
            | Insn::Store(_)
            | Insn::Branch(_)
            | Insn::BranchIfNull(_)
            | Insn::BranchIfNotNull(_)
            | Insn::PutStatic(_)
            | Insn::RetVal
            | Insn::MonitorEnter
            | Insn::MonitorExit
            | Insn::Throw
            | Insn::Print => (1, 0),
            Insn::Swap => (2, 2),
            Insn::Add | Insn::Sub | Insn::Mul | Insn::Div | Insn::Rem => (2, 1),
            Insn::Neg
            | Insn::NewArray
            | Insn::GetField(_)
            | Insn::ArrayLen
            | Insn::InstanceOf(_) => (1, 1),
            Insn::CmpEq | Insn::CmpNe | Insn::CmpLt | Insn::CmpLe | Insn::CmpGt | Insn::CmpGe => {
                (2, 1)
            }
            Insn::Jump(_) | Insn::Ret | Insn::Nop => (0, 0),
            Insn::New(_) => (0, 1),
            Insn::PutField(_) => (2, 0),
            Insn::ALoad => (2, 1),
            Insn::AStore => (3, 0),
            Insn::Call(target) => {
                let callee = &program.methods[target.index()];
                let pushes = usize::from(callee.code.iter().any(|i| matches!(i, Insn::RetVal)));
                (callee.num_params as usize, pushes)
            }
            Insn::CallVirtual { argc, .. } => (*argc as usize + 1, 1),
        };
        depth = depth.saturating_sub(pops) + pushes;
        max = max.max(depth);
    }
    max
}

/// Lowers every method of `program`. Requires a linked program (class
/// layouts, vtables, and jump targets resolved — [`Program::link`] validates
/// branch targets and local indices, which is why the fast loop can index
/// without re-checking them).
pub fn predecode(program: &Program) -> PredecodedProgram {
    let mut c = IcCounters::default();
    let mut methods = Vec::with_capacity(program.methods.len());
    for method in &program.methods {
        methods.push(predecode_method(program, method, &mut c));
    }
    PredecodedProgram {
        methods,
        chain_ics: c.chains,
        ctx_ics: c.ctxs,
        vt_ics: c.vtables,
    }
}

fn predecode_method(program: &Program, method: &Method, c: &mut IcCounters) -> PredecodedMethod {
    let n = method.code.len();
    // A pc where control can land directly must not be hidden inside a
    // fused pair: branch targets and handler entries bar fusion.
    let mut barrier = vec![false; n];
    for insn in &method.code {
        if let Some(t) = insn.jump_target() {
            if let Some(b) = barrier.get_mut(t as usize) {
                *b = true;
            }
        }
    }
    for h in &method.handlers {
        if let Some(b) = barrier.get_mut(h.handler_pc as usize) {
            *b = true;
        }
    }

    let mut ops = Vec::with_capacity(n);
    let mut pc = 0;
    while pc < n {
        let fuse =
            pc + 1 < n && !barrier[pc + 1] && fusable_pair(&method.code[pc], &method.code[pc + 1]);
        if fuse {
            let second = lower(program, &method.code[pc + 1], c);
            ops.push(fuse_pair(&method.code[pc], &second));
            ops.push(second);
            pc += 2;
        } else {
            ops.push(lower(program, &method.code[pc], c));
            pc += 1;
        }
    }
    debug_assert_eq!(ops.len(), n, "lowering preserves pcs");

    PredecodedMethod {
        ops,
        stack_capacity: (estimate_stack_depth(program, method) + STACK_HEADROOM)
            .max(MIN_STACK_CAPACITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn counted_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.push_int(0).store(1);
            m.label("loop");
            m.load(1).push_int(5).cmpge().branch("done");
            m.load(1).push_int(1).add().store(1);
            m.jump("loop");
            m.label("done");
            m.load(1).print().ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn lowering_preserves_pcs_and_fuses_loop_pairs() {
        let p = counted_loop_program();
        let pre = predecode(&p);
        let main = &pre.methods[p.entry.index()];
        assert_eq!(main.ops.len(), p.methods[p.entry.index()].code.len());
        assert!(
            main.ops.iter().any(|op| op.is_fused()),
            "a counted loop must produce at least one superinstruction: {:?}",
            main.ops
        );
        // The loop body `load 1; push 1; add; store 1` fuses into two ops.
        assert!(main
            .ops
            .iter()
            .any(|op| matches!(op, Op::LoadPushInt { local: 1, value: 1 })));
        assert!(main
            .ops
            .iter()
            .any(|op| matches!(op, Op::AddStore { local: 1 })));
    }

    #[test]
    fn branch_targets_bar_fusion() {
        let p = counted_loop_program();
        let pre = predecode(&p);
        let method = &p.methods[p.entry.index()];
        let ops = &pre.methods[p.entry.index()].ops;
        for (pc, op) in ops.iter().enumerate() {
            if op.is_fused() {
                let second_pc = (pc + 1) as u32;
                for insn in &method.code {
                    assert_ne!(
                        insn.jump_target(),
                        Some(second_pc),
                        "fused pair at {pc} hides branch target {second_pc}"
                    );
                }
            }
        }
    }

    #[test]
    fn stack_capacity_covers_straight_line_depth() {
        let p = counted_loop_program();
        let pre = predecode(&p);
        assert!(pre.methods[p.entry.index()].stack_capacity >= 2 + STACK_HEADROOM);
    }
}
