//! Static stack-discipline verification, run by [`Program::link`] over
//! every method: no operand-stack underflow, one depth at every join,
//! exactly the thrown reference entering each handler, no control falling
//! off the end of a method, and call arities that match their targets.
//!
//! It is the [`flow`](crate::flow) solver over unit values, so it walks
//! the edges the stack-map analyses walk, and it yields each method's
//! exact maximum depth for [`Method::max_stack`](crate::class::Method).
//! Values are not typed: fields, array elements, statics and parameters
//! carry no declared type in this VM. `Program` fields stay public, so the
//! interpreters keep their run-time stack checks for programs edited after
//! link.

use crate::error::VmError;
use crate::flow;
use crate::ids::MethodId;
use crate::program::Program;

/// Verifies stack discipline for one method of a program whose ids are
/// validated and whose return kinds are decided, and returns its maximum
/// operand-stack depth.
///
/// # Errors
///
/// Returns [`VmError::InvalidBytecode`] naming the first offending pc.
pub(crate) fn verify_method(program: &Program, method_id: MethodId) -> Result<usize, VmError> {
    let method = &program.methods[method_id.index()];
    let locals = vec![(); method.num_locals as usize];
    let frames = flow::solve(program, method, locals, (), |(), ()| (), |_, _, _| ());
    let frames = frames.map_err(|flow::FlowError { pc, reason }| VmError::InvalidBytecode {
        method: method_id,
        pc,
        reason,
    })?;
    let depths = frames.iter().flatten().map(|f| f.stack.len());
    Ok(depths.max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::class::{Handler, Method};
    use crate::error::VmError;
    use crate::insn::Insn;
    use crate::program::Program;

    fn link_main(code: Vec<Insn>, handlers: Vec<Handler>) -> Result<Program, VmError> {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 4);
        main.code = code;
        main.handlers = handlers;
        p.methods.push(main);
        p.link()?;
        Ok(p)
    }

    #[test]
    fn balanced_program_verifies() {
        let p = link_main(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(2),
                Insn::Add,
                Insn::Print,
                Insn::Ret,
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(p.methods[0].max_stack, 2);
    }

    #[test]
    fn link_rejects_underflow() {
        let err = link_main(vec![Insn::Pop, Insn::Ret], vec![]).unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { pc: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("underflow"));
    }

    #[test]
    fn link_rejects_inconsistent_join() {
        // One path pushes before the join, the other doesn't.
        //   0: push 1 ; 1: branch 4 ; 2: push 7 ; 3: push 8 ; 4: print; 5: ret
        let err = link_main(
            vec![
                Insn::PushInt(1),
                Insn::Branch(4),
                Insn::PushInt(7),
                Insn::PushInt(8),
                Insn::Print,
                Insn::Ret,
            ],
            vec![],
        )
        .unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { pc: 4, .. }),
            "{err}"
        );
        assert!(
            err.to_string().contains("inconsistent stack depth"),
            "{err}"
        );
    }

    #[test]
    fn link_rejects_falling_off_the_end() {
        let err = link_main(vec![Insn::PushInt(1), Insn::Pop], vec![]).unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { pc: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("falls off"), "{err}");
    }

    #[test]
    fn link_rejects_a_branch_that_can_fall_off_the_end() {
        let err = link_main(vec![Insn::PushInt(0), Insn::Branch(0)], vec![]).unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { pc: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("falls off"), "{err}");
    }

    #[test]
    fn handler_entry_depth_is_one() {
        // try { 1/0 } catch { pop; ret }
        let p = link_main(
            vec![
                Insn::PushInt(1),
                Insn::PushInt(0),
                Insn::Div,
                Insn::Pop,
                Insn::Ret,
                Insn::Pop, // handler at 5: pops the exception ref
                Insn::Ret,
            ],
            vec![Handler {
                start_pc: 0,
                end_pc: 4,
                handler_pc: 5,
                catch: None,
            }],
        )
        .unwrap();
        assert_eq!(p.methods[0].max_stack, 2);
    }

    #[test]
    fn link_checks_call_arity() {
        let build = |args: usize| {
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
                for i in 0..args {
                    m.push_int(i as i64);
                }
                m.call(f).print().ret();
                m.finish();
            }
            b.set_entry(main);
            b.finish().map(|p| (p, main))
        };
        let (p, main) = build(2).unwrap();
        assert_eq!(p.methods[main.index()].max_stack, 2);
        // Under-supplying arguments is an underflow at the call.
        let err = build(1).unwrap_err();
        assert!(
            matches!(err, VmError::InvalidBytecode { method, pc: 1, .. } if method.0 == 1),
            "{err}"
        );
        assert!(err.to_string().contains("underflow"), "{err}");
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
        assert_eq!(p.methods[main.index()].max_stack, 2);
    }
}
