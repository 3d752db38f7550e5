//! Static stack-discipline verification — a lightweight bytecode verifier
//! run over assembled programs before execution, catching underflows and
//! inconsistent stack depths at join points without executing anything.
//!
//! This checks *depths* only (the heapdrag-analysis crate performs full
//! type inference); it is deliberately dependency-free so the assembler
//! and the CLI can use it.

use crate::class::Method;
use crate::error::VmError;
use crate::ids::MethodId;
use crate::insn::Insn;
use crate::program::Program;

/// Net stack effect and minimum required depth of one instruction.
///
/// Returns `(pops, pushes)`. `Call`/`CallVirtual` effects depend on the
/// callee and are resolved against `program`.
fn effect(program: &Program, insn: &Insn) -> Result<(usize, usize), String> {
    use Insn::*;
    Ok(match insn {
        PushInt(_) | PushNull => (0, 1),
        Dup => (1, 2),
        Pop => (1, 0),
        Swap => (2, 2),
        Load(_) => (0, 1),
        Store(_) => (1, 0),
        Add | Sub | Mul | Div | Rem => (2, 1),
        Neg => (1, 1),
        CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => (2, 1),
        Jump(_) => (0, 0),
        Branch(_) | BranchIfNull(_) | BranchIfNotNull(_) => (1, 0),
        New(_) => (0, 1),
        NewArray => (1, 1),
        GetField(_) => (1, 1),
        PutField(_) => (2, 0),
        ALoad => (2, 1),
        AStore => (3, 0),
        ArrayLen => (1, 1),
        InstanceOf(_) => (1, 1),
        GetStatic(_) => (0, 1),
        PutStatic(_) => (1, 0),
        Call(target) => {
            let callee = &program.methods[target.index()];
            let pushes = usize::from(returns_value(callee)?);
            (callee.num_params as usize, pushes)
        }
        CallVirtual { vslot, argc } => {
            let pushes = usize::from(selector_returns(program, vslot.index())?);
            (*argc as usize + 1, pushes)
        }
        Ret => (0, 0),
        RetVal => (1, 0),
        MonitorEnter | MonitorExit => (1, 0),
        Throw => (1, 0),
        Print => (1, 0),
        Nop => (0, 0),
    })
}

fn returns_value(method: &Method) -> Result<bool, String> {
    let has_ret = method.code.iter().any(|i| matches!(i, Insn::Ret));
    let has_retval = method.code.iter().any(|i| matches!(i, Insn::RetVal));
    match (has_ret, has_retval) {
        (true, true) => Err(format!("method `{}` mixes ret and retval", method.name)),
        (_, rv) => Ok(rv),
    }
}

fn selector_returns(program: &Program, vslot: usize) -> Result<bool, String> {
    let mut found = None;
    for class in &program.classes {
        if let Some(Some(mid)) = class.vtable.get(vslot).copied() {
            let rv = returns_value(&program.methods[mid.index()])?;
            match found {
                None => found = Some(rv),
                Some(prev) if prev != rv => {
                    return Err(format!(
                        "targets of selector `{}` disagree on returning a value",
                        program.selectors[vslot]
                    ))
                }
                _ => {}
            }
        }
    }
    Ok(found.unwrap_or(false))
}

/// Verifies stack discipline for one method: no underflow, consistent
/// depths at every join, depth ≥ 1 entering exception handlers.
///
/// # Errors
///
/// Returns [`VmError::InvalidBytecode`] naming the first offending pc.
pub fn verify_method(program: &Program, method_id: MethodId) -> Result<(), VmError> {
    let method = &program.methods[method_id.index()];
    let n = method.code.len();
    let mut depth_at: Vec<Option<usize>> = vec![None; n];
    if n == 0 {
        return Ok(());
    }
    let bad = |pc: u32, reason: String| VmError::InvalidBytecode {
        method: method_id,
        pc,
        reason,
    };
    depth_at[0] = Some(0);
    let mut work = vec![0u32];
    while let Some(pc) = work.pop() {
        let depth = depth_at[pc as usize].expect("queued pcs have depths");
        let insn = &method.code[pc as usize];
        let (pops, pushes) = effect(program, insn).map_err(|m| bad(pc, m))?;
        if depth < pops {
            return Err(bad(
                pc,
                format!("stack underflow: depth {depth}, `{insn}` pops {pops}"),
            ));
        }
        let out = depth - pops + pushes;

        let mut propagate = |target: u32, d: usize, work: &mut Vec<u32>| -> Result<(), VmError> {
            match depth_at[target as usize] {
                None => {
                    depth_at[target as usize] = Some(d);
                    work.push(target);
                    Ok(())
                }
                Some(existing) if existing == d => Ok(()),
                Some(existing) => Err(bad(
                    target,
                    format!("inconsistent stack depth at join: {existing} vs {d}"),
                )),
            }
        };

        match insn {
            Insn::Jump(t) => propagate(*t, out, &mut work)?,
            Insn::Branch(t) | Insn::BranchIfNull(t) | Insn::BranchIfNotNull(t) => {
                propagate(*t, out, &mut work)?;
                if (pc as usize) + 1 < n {
                    propagate(pc + 1, out, &mut work)?;
                }
            }
            Insn::Ret | Insn::RetVal | Insn::Throw => {}
            _ => {
                if (pc as usize) + 1 < n {
                    propagate(pc + 1, out, &mut work)?;
                } else {
                    return Err(bad(pc, "control falls off the end of the method".into()));
                }
            }
        }
        // Handler entries receive exactly the thrown reference.
        for h in &method.handlers {
            if pc >= h.start_pc && pc < h.end_pc {
                propagate(h.handler_pc, 1, &mut work)?;
            }
        }
    }
    Ok(())
}

/// Verifies every method of the program.
///
/// # Errors
///
/// Returns the first failure; see [`verify_method`].
pub fn verify_program(program: &Program) -> Result<(), VmError> {
    for mid in 0..program.methods.len() as u32 {
        verify_method(program, MethodId(mid))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn program_with_main(code: Vec<Insn>) -> Program {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 4);
        main.code = code;
        p.methods.push(main);
        p.link().unwrap();
        p
    }

    #[test]
    fn balanced_program_verifies() {
        let p = program_with_main(vec![
            Insn::PushInt(1),
            Insn::PushInt(2),
            Insn::Add,
            Insn::Print,
            Insn::Ret,
        ]);
        verify_program(&p).unwrap();
    }

    #[test]
    fn underflow_is_rejected() {
        let p = program_with_main(vec![Insn::Pop, Insn::Ret]);
        let err = verify_program(&p).unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { pc: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("underflow"));
    }

    #[test]
    fn inconsistent_join_is_rejected() {
        // One path pushes before the join, the other doesn't.
        //   0: push 1 ; 1: branch 4 ; 2: push 7 ; 3: push 8 ; 4: print; 5: ret
        let p = program_with_main(vec![
            Insn::PushInt(1),
            Insn::Branch(4),
            Insn::PushInt(7),
            Insn::PushInt(8),
            Insn::Print,
            Insn::Ret,
        ]);
        let err = verify_program(&p).unwrap_err();
        assert!(
            err.to_string().contains("inconsistent stack depth"),
            "{err}"
        );
    }

    #[test]
    fn falling_off_the_end_is_rejected() {
        let p = program_with_main(vec![Insn::PushInt(1), Insn::Pop]);
        let err = verify_program(&p).unwrap_err();
        assert!(err.to_string().contains("falls off"), "{err}");
    }

    #[test]
    fn handler_entry_depth_is_one() {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 2);
        // try { 1/0 } catch { pop; ret }
        main.code = vec![
            Insn::PushInt(1),
            Insn::PushInt(0),
            Insn::Div,
            Insn::Pop,
            Insn::Ret,
            Insn::Pop, // handler at 5: pops the exception ref
            Insn::Ret,
        ];
        main.handlers.push(crate::class::Handler {
            start_pc: 0,
            end_pc: 4,
            handler_pc: 5,
            catch: None,
        });
        p.methods.push(main);
        p.link().unwrap();
        verify_program(&p).unwrap();
    }

    #[test]
    fn calls_account_for_arity() {
        let mut b = ProgramBuilder::new();
        let f = b.declare_method("f", None, true, 2, 2);
        {
            let mut m = b.begin_body(f);
            m.load(0).load(1).add().ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(1).push_int(2).call(f).print().ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        verify_program(&p).unwrap();

        // Under-supplying arguments is an underflow.
        let mut b = ProgramBuilder::new();
        let f = b.declare_method("f", None, true, 2, 2);
        {
            let mut m = b.begin_body(f);
            m.load(0).load(1).add().ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(1).call(f).print().ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        assert!(verify_program(&p).is_err());
    }

    #[test]
    fn every_workload_style_loop_verifies() {
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
        let p = b.finish().unwrap();
        verify_program(&p).unwrap();
    }
}
