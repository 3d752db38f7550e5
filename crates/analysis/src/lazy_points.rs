//! Minimal-code-insertion support for lazy allocation (§5.1): the possible
//! *first uses* of a field, where a `null`-check guard must be inserted
//! when the allocation is delayed.

use heapdrag_vm::class::Visibility;
use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::callgraph::CallGraph;
use crate::global_types::GlobalTypes;
use crate::types::{infer_in, AbsType};

/// One program point reading the field under consideration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldReadSite {
    /// Method containing the read.
    pub method: MethodId,
    /// pc of the `getfield`.
    pub pc: u32,
    /// True when the receiver's static type guarantees it carries the
    /// field; false for unknown receivers (conservatively included).
    pub receiver_known: bool,
}

/// The scope §3.3.1/§3.4 inspects for uses, derived from the field's
/// visibility: the declaring class, its package, or the whole program.
pub fn scope_methods(
    program: &Program,
    callgraph: &CallGraph,
    class: ClassId,
    visibility: Visibility,
) -> Vec<MethodId> {
    let package = &program.classes[class.index()].package;
    (0..program.methods.len() as u32)
        .map(MethodId)
        .filter(|m| callgraph.is_reachable(*m))
        .filter(|m| match visibility {
            Visibility::Private => program.methods[m.index()].class == Some(class),
            Visibility::Package => match program.methods[m.index()].class {
                Some(c) => &program.classes[c.index()].package == package,
                None => true, // free functions see everything in our model
            },
            Visibility::Protected | Visibility::Public => true,
        })
        .collect()
}

/// Finds every `getfield` of layout slot `slot` whose receiver may be an
/// instance of `class` (or a subclass), across all reachable methods.
///
/// These are the points where the lazy-allocation transformation must
/// insert its "if still null, allocate" guard. Unknown receivers are
/// included conservatively with `receiver_known == false`.
pub fn field_read_sites(
    program: &Program,
    callgraph: &CallGraph,
    class: ClassId,
    slot: u16,
) -> Vec<FieldReadSite> {
    let mut sites = Vec::new();
    let globals = GlobalTypes::build(program);
    for mid in 0..program.methods.len() as u32 {
        let mid = MethodId(mid);
        if !callgraph.is_reachable(mid) {
            continue;
        }
        let method = &program.methods[mid.index()];
        let types = infer_in(program, mid, &globals).ok();
        for (pc, insn) in method.code.iter().enumerate() {
            let pc = pc as u32;
            let Insn::GetField(s) = insn else { continue };
            if *s != slot {
                continue;
            }
            let receiver = types
                .as_ref()
                .map(|t| t.stack(pc, 0))
                .unwrap_or(AbsType::Top);
            match receiver {
                AbsType::Ref(Some(c))
                    if program.is_subclass(c, class) || program.is_subclass(class, c) =>
                {
                    sites.push(FieldReadSite {
                        method: mid,
                        pc,
                        receiver_known: true,
                    });
                }
                AbsType::Ref(Some(_)) => { /* provably unrelated class */ }
                AbsType::Ref(None) | AbsType::Top => {
                    sites.push(FieldReadSite {
                        method: mid,
                        pc,
                        receiver_known: false,
                    });
                }
                _ => {}
            }
        }
    }
    sites
}

/// True when every read of the field happens through a statically-known
/// receiver — the precondition for a sound mechanical lazy-allocation
/// rewrite (guards can be placed at exactly the first-use points).
pub fn reads_fully_resolved(sites: &[FieldReadSite]) -> bool {
    sites.iter().all(|s| s.receiver_known)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;

    fn jack_like_program() -> (Program, ClassId, u16) {
        // A parser whose ctor eagerly allocates a table into a field read
        // from two other methods of the same package.
        let mut b = ProgramBuilder::new();
        let table = b.begin_class("pkg.Table").finish();
        let parser = b
            .begin_class("pkg.Parser")
            .field("table", Visibility::Package)
            .finish();
        let init = b.declare_method("init", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(init);
            m.load(0).new_obj(table).putfield(0);
            m.ret();
            m.finish();
        }
        let use1 = b.declare_method("lookup", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(use1);
            m.load(0).getfield(0).pop();
            m.ret();
            m.finish();
        }
        let use2 = b.declare_method("dump", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(use2);
            m.load(0).getfield(0).pop();
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(parser).store(1);
            m.load(1).call(init);
            m.load(1).call_virtual("lookup", 0);
            m.load(1).call_virtual("dump", 0);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), parser, 0)
    }

    #[test]
    fn finds_all_read_sites() {
        let (p, parser, slot) = jack_like_program();
        let cg = CallGraph::build(&p);
        let sites = field_read_sites(&p, &cg, parser, slot);
        assert_eq!(sites.len(), 2, "one per reading method");
        assert!(reads_fully_resolved(&sites));
    }

    #[test]
    fn package_scope_includes_package_members_only() {
        let (p, parser, _) = jack_like_program();
        let cg = CallGraph::build(&p);
        let scope = scope_methods(&p, &cg, parser, Visibility::Package);
        // All Parser methods + main (free function); Table has no methods.
        let names: Vec<String> = scope.iter().map(|m| p.method_name(*m)).collect();
        assert!(names.contains(&"pkg.Parser.lookup".to_string()));
        assert!(names.contains(&"main".to_string()));
    }

    #[test]
    fn private_scope_is_declaring_class_only() {
        let (p, parser, _) = jack_like_program();
        let cg = CallGraph::build(&p);
        let scope = scope_methods(&p, &cg, parser, Visibility::Private);
        for m in &scope {
            assert_eq!(p.methods[m.index()].class, Some(parser));
        }
        assert_eq!(scope.len(), 3);
    }

    #[test]
    fn unrelated_class_reads_excluded() {
        // A second class with its own slot-0 field must not produce sites.
        let mut b = ProgramBuilder::new();
        let a = b.begin_class("A").field("f", Visibility::Private).finish();
        let other = b
            .begin_class("Other")
            .field("g", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(other).store(1);
            m.load(1).getfield(0).pop(); // reads Other.g, slot 0
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let sites = field_read_sites(&p, &cg, a, 0);
        assert!(sites.is_empty(), "Other is provably unrelated to A");
    }
}

/// Minimal code insertion (§5.1, "in a PRE fashion"): drops guard sites
/// that are *redundant* because another guard site in the same method
/// dominates them.
///
/// Once a dominating guard has run, the field is non-null and stays
/// non-null (the transformed program only ever writes the allocated object
/// into it), so a dominated guard's null test can never fire. Soundness
/// requires both reads to be against the **same object**; this is only
/// decidable cheaply when both receivers are the method's `this`
/// ([`Prov::This`](crate::provenance::Prov::This)), so minimisation is restricted to that case — exactly
/// the accessor-method pattern of the paper's `jack` rewrite.
pub fn minimize_guard_sites(program: &Program, sites: &[FieldReadSite]) -> Vec<FieldReadSite> {
    use crate::cfg::Cfg;
    use crate::provenance::{infer_provenance, Prov};
    use std::collections::HashMap;

    let mut by_method: HashMap<MethodId, Vec<FieldReadSite>> = HashMap::new();
    for s in sites {
        by_method.entry(s.method).or_default().push(*s);
    }
    let mut kept = Vec::new();
    for (mid, group) in by_method {
        if group.len() == 1 {
            kept.extend(group);
            continue;
        }
        let method = &program.methods[mid.index()];
        let cfg = Cfg::build(method);
        let prov = infer_provenance(program, mid);
        let receiver_is_this = |pc: u32| {
            prov.as_ref()
                .map(|p| p.stack(pc, 0) == Prov::This)
                .unwrap_or(false)
        };
        for s in &group {
            let dominated = group.iter().any(|other| {
                other.pc != s.pc
                    && receiver_is_this(other.pc)
                    && receiver_is_this(s.pc)
                    && cfg.dominates(other.pc, s.pc)
                    // Break mutual-dominance ties (straight-line pairs)
                    // deterministically: the earlier site wins.
                    && !(cfg.dominates(s.pc, other.pc) && s.pc < other.pc)
            });
            if !dominated {
                kept.push(*s);
            }
        }
    }
    kept.sort_by_key(|s| (s.method, s.pc));
    kept
}

#[cfg(test)]
mod minimize_tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use heapdrag_vm::builder::ProgramBuilder;

    #[test]
    fn dominated_this_read_is_elided() {
        // An accessor that reads this.f twice in a straight line: only the
        // first read needs a guard.
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        let get = b.declare_method("get", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(get);
            m.load(0).getfield(0).pop(); // pc 1: first read
            m.load(0).getfield(0).ret_val(); // pc 4: dominated read
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).call_virtual("get", 0).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let sites = field_read_sites(&p, &cg, c, 0);
        assert_eq!(sites.len(), 2);
        let minimal = minimize_guard_sites(&p, &sites);
        assert_eq!(minimal.len(), 1, "one dominating guard suffices");
        assert_eq!(minimal[0].pc, 1, "the earlier read keeps the guard");
    }

    #[test]
    fn branch_reads_both_keep_guards() {
        // Reads on two exclusive branches: neither dominates the other.
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        let get = b.declare_method("get", Some(c), false, 2, 2);
        {
            let mut m = b.begin_body(get);
            m.load(1).branch("else");
            m.load(0).getfield(0).ret_val();
            m.label("else");
            m.load(0).getfield(0).ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).push_int(0).call_virtual("get", 1).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let sites = field_read_sites(&p, &cg, c, 0);
        let minimal = minimize_guard_sites(&p, &sites);
        assert_eq!(minimal.len(), 2, "exclusive branches both need guards");
    }

    #[test]
    fn different_methods_never_elide_each_other() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("f", Visibility::Private).finish();
        for name in ["g1", "g2"] {
            let m_id = b.declare_method(name, Some(c), false, 1, 1);
            let mut m = b.begin_body(m_id);
            m.load(0).getfield(0).ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.load(1).call_virtual("g1", 0).pop();
            m.load(1).call_virtual("g2", 0).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let sites = field_read_sites(&p, &cg, c, 0);
        let minimal = minimize_guard_sites(&p, &sites);
        assert_eq!(minimal.len(), 2);
    }
}
