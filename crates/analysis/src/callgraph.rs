//! Class-hierarchy-based call graph and reachable-method computation
//! (the JAN-style information of §3.2 / §5.4).

use std::collections::{HashMap, HashSet};

use heapdrag_vm::ids::{ClassId, MethodId, VSlot};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

/// The class hierarchy, with downward (children) edges.
#[derive(Debug, Clone)]
pub struct ClassHierarchy {
    children: Vec<Vec<ClassId>>,
}

impl ClassHierarchy {
    /// Builds the hierarchy of `program`.
    pub fn build(program: &Program) -> Self {
        let mut children = vec![Vec::new(); program.classes.len()];
        for (i, c) in program.classes.iter().enumerate() {
            if let Some(sup) = c.super_class {
                children[sup.index()].push(ClassId(i as u32));
            }
        }
        ClassHierarchy { children }
    }

    /// Direct subclasses of `class`.
    pub fn children(&self, class: ClassId) -> &[ClassId] {
        &self.children[class.index()]
    }

    /// `class` and all transitive subclasses.
    pub fn subtree(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(self.children(c));
        }
        out
    }
}

/// The call graph: for each method, the set of methods it may invoke.
///
/// Virtual calls are resolved with Class Hierarchy Analysis: a
/// `callvirtual` through slot `s` may reach the implementation of `s` in
/// any class (every class is conservatively considered instantiable).
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<Vec<MethodId>>,
    reachable: HashSet<MethodId>,
}

impl CallGraph {
    /// Builds the CHA call graph of `program` and computes methods
    /// reachable from the entry (finalizers are additional roots — the
    /// collector may invoke them).
    pub fn build(program: &Program) -> Self {
        let mut virtual_targets: HashMap<VSlot, Vec<MethodId>> = HashMap::new();
        for class in &program.classes {
            for (slot, m) in class.vtable.iter().enumerate() {
                if let Some(mid) = m {
                    let entry = virtual_targets.entry(VSlot(slot as u32)).or_default();
                    if !entry.contains(mid) {
                        entry.push(*mid);
                    }
                }
            }
        }

        let mut callees: Vec<Vec<MethodId>> = Vec::with_capacity(program.methods.len());
        for m in &program.methods {
            let mut out: Vec<MethodId> = Vec::new();
            for insn in &m.code {
                match insn {
                    Insn::Call(target) => out.push(*target),
                    Insn::CallVirtual { vslot, .. } => {
                        if let Some(ts) = virtual_targets.get(vslot) {
                            out.extend_from_slice(ts);
                        }
                    }
                    _ => {}
                }
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }

        let mut reachable = HashSet::new();
        let mut stack = vec![program.entry];
        for class in &program.classes {
            if let Some(f) = class.finalizer {
                stack.push(f);
            }
        }
        while let Some(m) = stack.pop() {
            if reachable.insert(m) {
                stack.extend_from_slice(&callees[m.index()]);
            }
        }

        CallGraph { callees, reachable }
    }

    /// Methods `method` may call.
    pub fn callees(&self, method: MethodId) -> &[MethodId] {
        &self.callees[method.index()]
    }

    /// True if the method is reachable from the entry point (or from a
    /// finalizer).
    pub fn is_reachable(&self, method: MethodId) -> bool {
        self.reachable.contains(&method)
    }

    /// Methods that can never run — the §5.4 information used to discard
    /// "possible uses … in unreachable methods".
    pub fn unreachable_methods(&self, program: &Program) -> Vec<MethodId> {
        (0..program.methods.len() as u32)
            .map(MethodId)
            .filter(|m| !self.is_reachable(*m))
            .collect()
    }

    /// All reachable methods.
    pub fn reachable_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.reachable.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;

    fn diamond_program() -> (Program, MethodId, MethodId, MethodId) {
        let mut b = ProgramBuilder::new();
        let base = b.begin_class("Base").finish();
        let derived = b.begin_class("Derived").extends(base).finish();
        let base_m = b.declare_method("go", Some(base), false, 1, 1);
        {
            let mut m = b.begin_body(base_m);
            m.push_int(1).ret_val();
            m.finish();
        }
        let derived_m = b.declare_method("go", Some(derived), false, 1, 1);
        {
            let mut m = b.begin_body(derived_m);
            m.push_int(2).ret_val();
            m.finish();
        }
        let never = b.declare_method("never_called", None, true, 0, 0);
        {
            let mut m = b.begin_body(never);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(base).call_virtual("go", 0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), base_m, derived_m, never)
    }

    #[test]
    fn cha_includes_all_overriders() {
        let (p, base_m, derived_m, _) = diamond_program();
        let cg = CallGraph::build(&p);
        let callees = cg.callees(p.entry);
        assert!(callees.contains(&base_m));
        assert!(
            callees.contains(&derived_m),
            "CHA conservatively keeps the override"
        );
    }

    #[test]
    fn unreachable_methods_found() {
        let (p, _, _, never) = diamond_program();
        let cg = CallGraph::build(&p);
        assert!(!cg.is_reachable(never));
        assert!(cg.is_reachable(p.entry));
        assert!(cg.unreachable_methods(&p).contains(&never));
    }

    #[test]
    fn hierarchy_subtree() {
        let (p, ..) = diamond_program();
        let h = ClassHierarchy::build(&p);
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        let subtree = h.subtree(base);
        assert!(subtree.contains(&base) && subtree.contains(&derived));
        assert_eq!(h.children(derived), &[] as &[ClassId]);
        let object_tree = h.subtree(p.builtins.object);
        assert_eq!(
            object_tree.len(),
            p.classes.len(),
            "everything under Object"
        );
    }

    #[test]
    fn finalizers_are_roots() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("F").finish();
        let fin = b.declare_method("finalize", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(fin);
            m.ret();
            m.finish();
        }
        b.set_finalizer(c, fin);
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.is_reachable(fin));
    }
}
