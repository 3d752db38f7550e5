//! Exception analysis (§5.5): what can an instruction throw, and could any
//! handler in the program observe it? Java's precise exception model
//! forbids removing or moving code whose exceptions a handler might catch.

use heapdrag_vm::ids::ClassId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::callgraph::CallGraph;

/// The set of exception classes an instruction may raise by itself (not
/// counting exceptions propagating out of callees).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThrowSet {
    /// Specific classes that may be thrown.
    pub classes: Vec<ClassId>,
    /// True when the instruction throws a user object of statically
    /// unknown class (an explicit `throw`).
    pub unknown: bool,
}

impl ThrowSet {
    /// True if nothing can be thrown.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty() && !self.unknown
    }
}

/// Exceptions the instruction itself can raise.
pub fn may_throw(program: &Program, insn: &Insn) -> ThrowSet {
    let b = program.builtins;
    let classes = match insn {
        Insn::Div | Insn::Rem => vec![b.arithmetic],
        Insn::GetField(_) | Insn::PutField(_) | Insn::MonitorEnter | Insn::MonitorExit => {
            vec![b.null_pointer]
        }
        Insn::ALoad | Insn::AStore => vec![b.null_pointer, b.index_oob],
        Insn::ArrayLen => vec![b.null_pointer],
        Insn::NewArray => vec![b.index_oob, b.out_of_memory],
        Insn::New(_) => vec![b.out_of_memory],
        Insn::Call(_) | Insn::CallVirtual { .. } => vec![b.null_pointer],
        Insn::Throw => {
            return ThrowSet {
                classes: vec![b.null_pointer],
                unknown: true,
            }
        }
        _ => Vec::new(),
    };
    ThrowSet {
        classes,
        unknown: false,
    }
}

/// Which exception classes any *reachable* handler in the program could
/// catch.
#[derive(Debug, Clone, Default)]
pub struct HandlerSet {
    catchable: Vec<ClassId>,
    catch_all: bool,
}

impl HandlerSet {
    /// Collects the handlers of every reachable method.
    pub fn build(program: &Program, callgraph: &CallGraph) -> Self {
        let mut set = HandlerSet::default();
        for mid in callgraph.reachable_methods() {
            for h in &program.methods[mid.index()].handlers {
                match h.catch {
                    Some(c) => set.catchable.push(c),
                    None => set.catch_all = true,
                }
            }
        }
        set.catchable.sort_unstable();
        set.catchable.dedup();
        set
    }

    /// Could an exception of class `thrown` be caught anywhere?
    ///
    /// A handler for `C` catches `thrown` when `thrown <= C`.
    pub fn catches(&self, program: &Program, thrown: ClassId) -> bool {
        self.catch_all
            || self
                .catchable
                .iter()
                .any(|c| program.is_subclass(thrown, *c))
    }

    /// Could *anything* the instruction throws be observed by a handler?
    /// When false, removing the instruction cannot change exception
    /// behaviour of a program that completes normally — the §5.5 check the
    /// paper does for `OutOfMemoryError`.
    pub fn observes(&self, program: &Program, throws: &ThrowSet) -> bool {
        if throws.unknown && (self.catch_all || !self.catchable.is_empty()) {
            return true;
        }
        throws.classes.iter().any(|c| self.catches(program, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;

    fn program_with_handler(catch: Option<&str>) -> Program {
        let mut b = ProgramBuilder::new();
        let arith = b.builtins().arithmetic;
        let catch_id = catch.map(|name| match name {
            "ArithmeticException" => arith,
            "Object" => b.builtins().object,
            _ => unreachable!(),
        });
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.label("try");
            m.push_int(1).push_int(1).div().pop();
            m.label("end");
            m.jump("out");
            m.label("h");
            m.pop();
            m.label("out");
            m.ret();
            m.handler("try", "end", "h", catch_id);
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn throw_sets_per_instruction() {
        let p = program_with_handler(None);
        assert!(may_throw(&p, &Insn::Add).is_empty());
        assert!(!may_throw(&p, &Insn::Div).is_empty());
        assert!(may_throw(&p, &Insn::New(p.builtins.object))
            .classes
            .contains(&p.builtins.out_of_memory));
        assert!(may_throw(&p, &Insn::Throw).unknown);
        assert!(may_throw(&p, &Insn::ALoad)
            .classes
            .contains(&p.builtins.index_oob));
    }

    #[test]
    fn specific_handler_observes_matching_throws_only() {
        let p = program_with_handler(Some("ArithmeticException"));
        let cg = CallGraph::build(&p);
        let h = HandlerSet::build(&p, &cg);
        assert!(h.catches(&p, p.builtins.arithmetic));
        assert!(!h.catches(&p, p.builtins.out_of_memory));
        assert!(h.observes(&p, &may_throw(&p, &Insn::Div)));
        assert!(
            !h.observes(&p, &may_throw(&p, &Insn::New(p.builtins.object))),
            "no OutOfMemory handler → allocation removable wrt exceptions"
        );
    }

    #[test]
    fn catch_all_observes_everything() {
        let p = program_with_handler(None);
        let cg = CallGraph::build(&p);
        let h = HandlerSet::build(&p, &cg);
        assert!(h.catches(&p, p.builtins.out_of_memory));
        assert!(h.observes(&p, &may_throw(&p, &Insn::Throw)));
    }

    #[test]
    fn object_handler_catches_subclasses() {
        let p = program_with_handler(Some("Object"));
        let cg = CallGraph::build(&p);
        let h = HandlerSet::build(&p, &cg);
        assert!(
            h.catches(&p, p.builtins.arithmetic),
            "Object catches all builtins"
        );
    }

    #[test]
    fn no_handlers_no_observation() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let h = HandlerSet::build(&p, &cg);
        assert!(!h.observes(
            &p,
            &ThrowSet {
                classes: vec![p.builtins.out_of_memory],
                unknown: true
            }
        ));
    }
}
