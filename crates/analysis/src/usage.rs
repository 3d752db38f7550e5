//! Usage analysis (§5.1): which statics and instance fields are ever
//! *read*? A write-only static or field is a sink — allocations flowing
//! into it can be removed (the Locale example of the paper).

use std::collections::{HashMap, HashSet};

use heapdrag_vm::ids::{ClassId, MethodId, StaticId};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::callgraph::CallGraph;
use crate::global_types::GlobalTypes;
use crate::types::{infer_in, AbsType};

/// A field identified by its declaring class and index within that class's
/// own (non-inherited) field list.
pub type FieldKey = (ClassId, u16);

/// Read/write counts for statics and fields across all reachable methods.
#[derive(Debug, Clone, Default)]
pub struct UsageAnalysis {
    static_reads: HashMap<StaticId, u32>,
    static_writes: HashMap<StaticId, u32>,
    field_reads: HashMap<FieldKey, u32>,
    field_writes: HashMap<FieldKey, u32>,
    /// Layout slots read through receivers whose class could not be
    /// resolved; any field landing on such a slot must be assumed read.
    unknown_slot_reads: HashSet<u16>,
}

impl UsageAnalysis {
    /// Scans every reachable method of `program`.
    ///
    /// Methods whose types cannot be inferred are skipped *conservatively*:
    /// every field slot they touch is marked unknown-read.
    pub fn build(program: &Program, callgraph: &CallGraph) -> Self {
        let mut usage = UsageAnalysis::default();
        let globals = GlobalTypes::build(program);
        for mid in 0..program.methods.len() as u32 {
            let mid = MethodId(mid);
            if !callgraph.is_reachable(mid) {
                continue;
            }
            usage.scan_method(program, &globals, mid);
        }
        usage
    }

    fn scan_method(&mut self, program: &Program, globals: &GlobalTypes, mid: MethodId) {
        let method = &program.methods[mid.index()];
        let types = infer_in(program, mid, globals).ok();
        for (pc, insn) in method.code.iter().enumerate() {
            let pc = pc as u32;
            match insn {
                Insn::GetStatic(s) => *self.static_reads.entry(*s).or_default() += 1,
                Insn::PutStatic(s) => *self.static_writes.entry(*s).or_default() += 1,
                Insn::GetField(slot) => {
                    // Receiver on top of stack.
                    match self.resolve(program, &types, pc, 0, *slot) {
                        Some(key) => *self.field_reads.entry(key).or_default() += 1,
                        None => {
                            self.unknown_slot_reads.insert(*slot);
                        }
                    }
                }
                Insn::PutField(slot) => {
                    // Receiver below the value.
                    // Unknown-receiver writes cannot make a field read.
                    if let Some(key) = self.resolve(program, &types, pc, 1, *slot) {
                        *self.field_writes.entry(key).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
    }

    fn resolve(
        &self,
        program: &Program,
        types: &Option<crate::types::MethodTypes>,
        pc: u32,
        depth: usize,
        slot: u16,
    ) -> Option<FieldKey> {
        let t = types.as_ref()?.stack(pc, depth);
        match t {
            AbsType::Ref(Some(class)) => {
                let (decl, idx) = *program.classes[class.index()].layout.get(slot as usize)?;
                Some((decl, idx))
            }
            _ => None,
        }
    }

    /// Times the static has been read in reachable code.
    pub fn static_read_count(&self, s: StaticId) -> u32 {
        self.static_reads.get(&s).copied().unwrap_or(0)
    }

    /// Times the static has been written in reachable code.
    pub fn static_write_count(&self, s: StaticId) -> u32 {
        self.static_writes.get(&s).copied().unwrap_or(0)
    }

    /// Statics written but never read — their stores (and the allocations
    /// feeding them) are dead.
    pub fn write_only_statics(&self, program: &Program) -> Vec<StaticId> {
        (0..program.statics.len() as u32)
            .map(StaticId)
            .filter(|s| self.static_write_count(*s) > 0 && self.static_read_count(*s) == 0)
            .collect()
    }

    /// Is the field (identified by declaring class and own-index) ever
    /// read? Unknown-receiver reads of the field's layout slots count.
    pub fn field_is_read(&self, program: &Program, key: FieldKey) -> bool {
        if self.field_reads.contains_key(&key) {
            return true;
        }
        // If any class laying the field out at slot `s` could be the
        // unknown receiver, be conservative.
        for class in &program.classes {
            for (slot, entry) in class.layout.iter().enumerate() {
                if *entry == key && self.unknown_slot_reads.contains(&(slot as u16)) {
                    return true;
                }
            }
        }
        false
    }

    /// Fields written in reachable code but never read.
    pub fn write_only_fields(&self, program: &Program) -> Vec<FieldKey> {
        let mut keys: Vec<FieldKey> = self
            .field_writes
            .keys()
            .filter(|k| !self.field_is_read(program, **k))
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::value::Value;

    #[test]
    fn write_only_static_detected() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("Locale").finish();
        let used = b.static_var("Locale.USED", Visibility::Public, Value::Null);
        let unused = b.static_var("Locale.UNUSED", Visibility::Public, Value::Null);
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).putstatic(used);
            m.new_obj(c).putstatic(unused);
            m.getstatic(used).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let u = UsageAnalysis::build(&p, &cg);
        assert_eq!(u.write_only_statics(&p), vec![unused]);
        assert_eq!(u.static_read_count(used), 1);
        assert_eq!(u.static_write_count(unused), 1);
    }

    #[test]
    fn writes_in_unreachable_methods_ignored() {
        let mut b = ProgramBuilder::new();
        let s = b.static_var("G.s", Visibility::Public, Value::Int(0));
        let dead = b.declare_method("dead", None, true, 0, 0);
        {
            let mut m = b.begin_body(dead);
            m.getstatic(s).pop(); // a read, but unreachable
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(1).putstatic(s);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let u = UsageAnalysis::build(&p, &cg);
        assert_eq!(
            u.write_only_statics(&p),
            vec![s],
            "the read in dead code must not count (§5.4)"
        );
    }

    #[test]
    fn write_only_field_detected() {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Node")
            .field("used", Visibility::Private)
            .field("writeOnly", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.load(1).push_int(1).putfield_named(c, "used");
            m.load(1).push_int(2).putfield_named(c, "writeOnly");
            m.load(1).getfield_named(c, "used").print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let u = UsageAnalysis::build(&p, &cg);
        let wo = u.write_only_fields(&p);
        assert_eq!(wo, vec![(c, 1)]);
        assert!(u.field_is_read(&p, (c, 0)));
        assert!(!u.field_is_read(&p, (c, 1)));
    }

    #[test]
    fn inherited_field_attributed_to_declaring_class() {
        let mut b = ProgramBuilder::new();
        let base = b
            .begin_class("Base")
            .field("inherited", Visibility::Protected)
            .finish();
        let derived = b.begin_class("Derived").extends(base).finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(derived).store(1);
            m.load(1).getfield_named(derived, "inherited").pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let u = UsageAnalysis::build(&p, &cg);
        assert!(
            u.field_is_read(&p, (base, 0)),
            "read through Derived receiver"
        );
    }
}
