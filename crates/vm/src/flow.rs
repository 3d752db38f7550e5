//! The forward frame solver: the one walk over a method's control flow
//! that carries an abstract operand stack and locals to each reachable pc.
//! [`Program::link`] runs it over unit values to verify stack discipline
//! and size frames; the type and provenance analyses of
//! `heapdrag-analysis` run it over their lattices. Edges come from one
//! rule, [`successors`], values move through [`Insn::stack_effect`], and
//! an exception edge carries only the thrown reference, also into a
//! handler that control can reach by falling through.

use crate::class::Method;
use crate::insn::Insn;
use crate::program::Program;

/// The kind of a control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// A jump, a taken or untaken branch, or a fall-through: the frame
    /// flows unchanged.
    Normal,
    /// An exception edge into a covering handler: the stack becomes the
    /// thrown reference.
    Handler,
}

/// The successors of `pc` in `method`, each with its edge kind: the jump
/// target, then the fall-through unless the instruction is a terminator,
/// then the entry of every handler covering `pc`, in table order. Nothing
/// is range-checked, so a fall-through may lie past the end of the code.
pub fn successors(method: &Method, pc: u32) -> impl Iterator<Item = (u32, Edge)> + '_ {
    let insn = method.code[pc as usize];
    let fall_through = (!insn.is_terminator()).then_some(pc + 1);
    let handlers = method
        .handlers
        .iter()
        .filter(move |h| h.start_pc <= pc && pc < h.end_pc)
        .map(|h| (h.handler_pc, Edge::Handler));
    insn.jump_target()
        .into_iter()
        .chain(fall_through)
        .map(|t| (t, Edge::Normal))
        .chain(handlers)
}

/// The abstract state entering one program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<T> {
    /// Operand-stack values, bottom first.
    pub stack: Vec<T>,
    /// Local-variable values.
    pub locals: Vec<T>,
}

impl<T: Copy + PartialEq> Frame<T> {
    /// Joins `other` into `self` slot by slot; true if a slot changed.
    /// Both frames must have the same stack depth.
    fn join_from(&mut self, other: &Frame<T>, join: impl Fn(T, T) -> T) -> bool {
        let mine = self.stack.iter_mut().chain(&mut self.locals);
        let theirs = other.stack.iter().chain(&other.locals);
        let mut changed = false;
        for (a, &b) in mine.zip(theirs) {
            let j = join(*a, b);
            changed |= j != *a;
            *a = j;
        }
        changed
    }
}

/// Why a method's control flow defeats the solver: an underflow, a
/// depth mismatch at a join, or control leaving the end of the code. Link
/// rejects such a method with
/// [`VmError::InvalidBytecode`](crate::VmError) with these fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowError {
    /// The offending instruction, or the join point of a depth mismatch.
    pub pc: u32,
    /// What went wrong.
    pub reason: String,
}

/// Applies the instruction at `pc` to `frame` through
/// [`Insn::stack_effect`]. `dup`, `swap`, `load` and `store` move values;
/// every other instruction pops its operands and, when it pushes, pushes
/// `pushed(top)`, where `top` is the operand that was on top of the stack
/// (a `getfield`'s receiver).
fn transfer<T: Copy>(
    program: &Program,
    pc: u32,
    insn: Insn,
    frame: &mut Frame<T>,
    pushed: impl FnOnce(Option<T>) -> T,
) -> Result<(), FlowError> {
    let (pops, pushes) = insn.stack_effect(program);
    let depth = frame.stack.len();
    let Some(base) = depth.checked_sub(pops) else {
        let reason = format!("stack underflow: depth {depth}, `{insn}` pops {pops}");
        return Err(FlowError { pc, reason });
    };
    let stack = &mut frame.stack;
    match insn {
        Insn::Dup => stack.push(stack[base]),
        Insn::Swap => stack.swap(base, base + 1),
        Insn::Load(l) => stack.push(frame.locals[l as usize]),
        _ => {
            if let Insn::Store(l) = insn {
                frame.locals[l as usize] = stack[base];
            }
            let top = stack.last().copied();
            stack.truncate(base);
            if pushes == 1 {
                stack.push(pushed(top));
            }
        }
    }
    Ok(())
}

/// Solves `method` forward from pc 0 (empty stack, `entry_locals`) and
/// returns the frame entering each pc, `None` where unreachable.
///
/// One LIFO worklist: a normal edge carries the out-frame, a handler edge
/// `[thrown]` and the out-locals; a frame reaching a visited pc is joined
/// in slot by slot with the monotone `join`, and the pc is revisited when
/// a slot changed. An instruction that pushes a value pushes
/// `pushed(pc, insn, top)`, `top` being the operand it popped from the top.
///
/// # Errors
///
/// The first [`FlowError`] met: an underflow, a depth mismatch at a join,
/// or a successor at or past the end of the code.
pub fn solve<T: Copy + PartialEq>(
    program: &Program,
    method: &Method,
    entry_locals: Vec<T>,
    thrown: T,
    join: impl Fn(T, T) -> T,
    pushed: impl Fn(u32, Insn, Option<T>) -> T,
) -> Result<Vec<Option<Frame<T>>>, FlowError> {
    let n = method.code.len();
    let mut before: Vec<Option<Frame<T>>> = vec![None; n];
    let mut work = Vec::new();
    if n > 0 {
        let (stack, locals) = (Vec::new(), entry_locals);
        before[0] = Some(Frame { stack, locals });
        work.push(0u32);
    }
    while let Some(pc) = work.pop() {
        let insn = method.code[pc as usize];
        let mut out = before[pc as usize].clone().expect("queued pcs have frames");
        transfer(program, pc, insn, &mut out, |top| pushed(pc, insn, top))?;
        for (succ, edge) in successors(method, pc) {
            if succ as usize >= n {
                let reason = "control falls off the end of the method".into();
                return Err(FlowError { pc, reason });
            }
            let caught = (edge == Edge::Handler).then(|| Frame {
                stack: vec![thrown],
                locals: out.locals.clone(),
            });
            let incoming = caught.as_ref().unwrap_or(&out);
            match &mut before[succ as usize] {
                slot @ None => {
                    *slot = Some(incoming.clone());
                    work.push(succ);
                }
                Some(existing) if existing.stack.len() != incoming.stack.len() => {
                    let (a, b) = (existing.stack.len(), incoming.stack.len());
                    let reason = format!("inconsistent stack depth at join: {a} vs {b}");
                    return Err(FlowError { pc: succ, reason });
                }
                Some(existing) => {
                    if existing.join_from(incoming, &join) {
                        work.push(succ);
                    }
                }
            }
        }
    }
    Ok(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Handler;

    #[test]
    fn successors_are_jump_target_then_fall_through_then_handlers() {
        let mut m = Method::new("f", 0, 0);
        m.code = vec![Insn::PushInt(1), Insn::Branch(0), Insn::Throw, Insn::Ret];
        m.handlers = vec![
            Handler {
                start_pc: 1,
                end_pc: 3,
                handler_pc: 3,
                catch: None,
            },
            Handler {
                start_pc: 0,
                end_pc: 2,
                handler_pc: 2,
                catch: None,
            },
        ];
        let succ = |pc| successors(&m, pc).collect::<Vec<_>>();
        assert_eq!(
            succ(1),
            [
                (0, Edge::Normal),
                (2, Edge::Normal),
                (3, Edge::Handler),
                (2, Edge::Handler)
            ]
        );
        assert_eq!(succ(2), [(3, Edge::Handler)], "throw has no fall-through");
        assert_eq!(succ(3), []);
    }
}
