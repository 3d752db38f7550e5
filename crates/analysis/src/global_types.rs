//! Whole-program type inference: a fixpoint over field contents, static
//! variables, and method return types, giving the per-method inference a
//! [`TypeEnv`] that resolves chained field reads (`a.b.c`) precisely.

use std::collections::HashMap;

use heapdrag_vm::ids::{ClassId, MethodId, StaticId, VSlot};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

use crate::types::{infer_in, join, AbsType, TypeEnv};

/// A field identified by declaring class and own-index (as in
/// [`UsageAnalysis`](crate::usage::UsageAnalysis)).
type FieldKey = (ClassId, u16);

/// The global type tables.
///
/// A field or static that is never written keeps type
/// [`AbsType::Bottom`] ⊔ its initial value — reading it yields `Null` (all
/// heap slots start null), which is sound because every write in the
/// program contributes to the table.
#[derive(Debug, Clone)]
pub struct GlobalTypes {
    fields: HashMap<FieldKey, AbsType>,
    /// Writes through unresolvable receivers poison all fields at a slot.
    poisoned_slots: Vec<u16>,
    statics: Vec<AbsType>,
    returns: Vec<AbsType>,
}

impl GlobalTypes {
    /// Runs the fixpoint over `program`.
    pub fn build(program: &Program) -> Self {
        let mut gt = GlobalTypes {
            fields: HashMap::new(),
            poisoned_slots: Vec::new(),
            statics: program
                .statics
                .iter()
                .map(|s| match s.init {
                    Value::Int(_) => AbsType::Int,
                    Value::Null => AbsType::Null,
                    Value::Ref(_) => AbsType::Ref(None),
                })
                .collect(),
            returns: vec![AbsType::Bottom; program.methods.len()],
        };
        // The lattice is finite and all updates are joins, so this
        // terminates; cap iterations defensively anyway.
        for _ in 0..program.methods.len() + program.classes.len() + 8 {
            if !gt.round(program) {
                break;
            }
        }
        gt
    }

    /// One propagation round; returns true if anything changed.
    fn round(&mut self, program: &Program) -> bool {
        let mut changed = false;
        for mid in 0..program.methods.len() as u32 {
            let mid = MethodId(mid);
            let method = &program.methods[mid.index()];
            let Ok(types) = infer_in(program, mid, self) else {
                // Defeated inference: poison everything this method writes.
                for insn in &method.code {
                    match insn {
                        Insn::PutField(slot) if !self.poisoned_slots.contains(slot) => {
                            self.poisoned_slots.push(*slot);
                            changed = true;
                        }
                        Insn::PutStatic(s) if self.statics[s.index()] != AbsType::Top => {
                            self.statics[s.index()] = AbsType::Top;
                            changed = true;
                        }
                        _ => {}
                    }
                }
                continue;
            };
            for (pc, insn) in method.code.iter().enumerate() {
                let pc = pc as u32;
                match insn {
                    Insn::PutField(slot) => {
                        let receiver = types.stack(pc, 1);
                        let value = types.stack(pc, 0);
                        match receiver {
                            AbsType::Ref(Some(class)) => {
                                if let Some(key) =
                                    program.classes[class.index()].layout.get(*slot as usize)
                                {
                                    let cur =
                                        self.fields.get(key).copied().unwrap_or(AbsType::Bottom);
                                    let new = join(program, cur, value);
                                    if new != cur {
                                        self.fields.insert(*key, new);
                                        changed = true;
                                    }
                                }
                            }
                            AbsType::Bottom => {}
                            _ => {
                                if !self.poisoned_slots.contains(slot) {
                                    self.poisoned_slots.push(*slot);
                                    changed = true;
                                }
                            }
                        }
                    }
                    Insn::PutStatic(s) => {
                        let value = types.stack(pc, 0);
                        let cur = self.statics[s.index()];
                        let new = join(program, cur, value);
                        if new != cur {
                            self.statics[s.index()] = new;
                            changed = true;
                        }
                    }
                    Insn::RetVal => {
                        let value = types.stack(pc, 0);
                        let cur = self.returns[mid.index()];
                        let new = join(program, cur, value);
                        if new != cur {
                            self.returns[mid.index()] = new;
                            changed = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        changed
    }

    /// The inferred content type of a field.
    pub fn field(&self, program: &Program, key: FieldKey) -> AbsType {
        // Poisoning is per layout slot; check every class laying this
        // field out.
        for class in &program.classes {
            for (slot, entry) in class.layout.iter().enumerate() {
                if *entry == key && self.poisoned_slots.contains(&(slot as u16)) {
                    return AbsType::Top;
                }
            }
        }
        // Never-written fields read as null.
        match self.fields.get(&key).copied().unwrap_or(AbsType::Bottom) {
            AbsType::Bottom => AbsType::Null,
            t => join(program, t, AbsType::Null),
        }
    }
}

impl TypeEnv for GlobalTypes {
    fn field_type(&self, program: &Program, receiver: AbsType, slot: u16) -> AbsType {
        match receiver {
            AbsType::Ref(Some(class)) => {
                match program.classes[class.index()].layout.get(slot as usize) {
                    Some(key) => self.field(program, *key),
                    None => AbsType::Top,
                }
            }
            _ => {
                if self.poisoned_slots.contains(&slot) {
                    return AbsType::Top;
                }
                // Join over every field that could live at this slot.
                let mut t = AbsType::Bottom;
                for (key, ft) in &self.fields {
                    let lives_at_slot = program
                        .classes
                        .iter()
                        .any(|c| c.layout.get(slot as usize) == Some(key));
                    if lives_at_slot {
                        t = join(program, t, *ft);
                    }
                }
                join(program, t, AbsType::Null)
            }
        }
    }

    fn static_type(&self, _program: &Program, s: StaticId) -> AbsType {
        self.statics[s.index()]
    }

    fn return_type(&self, _program: &Program, m: MethodId) -> AbsType {
        match self.returns[m.index()] {
            AbsType::Bottom => AbsType::Top, // not yet propagated this round
            t => t,
        }
    }

    fn selector_return_type(&self, program: &Program, vslot: VSlot) -> AbsType {
        let mut t = AbsType::Bottom;
        for class in &program.classes {
            if let Some(Some(mid)) = class.vtable.get(vslot.index()).copied() {
                t = join(program, t, self.returns[mid.index()]);
            }
        }
        match t {
            AbsType::Bottom => AbsType::Top,
            t => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    #[test]
    fn chained_field_reads_resolve() {
        // parser.table.n — the jack shape that defeats local inference.
        let mut b = ProgramBuilder::new();
        let table = b
            .begin_class("Table")
            .field("n", Visibility::Private)
            .finish();
        let parser = b
            .begin_class("Parser")
            .field("table", Visibility::Private)
            .finish();
        let init = b.declare_method("init", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(init);
            m.load(0).new_obj(table).putfield_named(parser, "table");
            m.ret();
            m.finish();
        }
        let lookup = b.declare_method("lookup", Some(parser), false, 1, 1);
        {
            let mut m = b.begin_body(lookup);
            m.load(0).getfield_named(parser, "table"); // pushes… what?
            m.getfield_named(table, "n");
            m.ret_val();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(parser).dup().store(1).call(init);
            m.load(1).call_virtual("lookup", 0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let gt = GlobalTypes::build(&p);
        // Parser.table holds Table-or-null.
        assert_eq!(gt.field(&p, (parser, 0)), AbsType::Ref(Some(table)));
        // Inference inside `lookup` now types the inner getfield receiver.
        let types = infer_in(&p, lookup, &gt).unwrap();
        // pc 2 is the second getfield; its receiver (top of stack) is the
        // field value.
        assert_eq!(types.stack(2, 0), AbsType::Ref(Some(table)));
        // Table.n is never written in this program, so reading it yields
        // null, and that propagates into lookup's return type.
        assert_eq!(gt.returns[lookup.index()], AbsType::Null);
    }

    #[test]
    fn never_written_field_reads_as_null() {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("C")
            .field("never", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.load(1).getfield(0).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let gt = GlobalTypes::build(&p);
        assert_eq!(gt.field(&p, (c, 0)), AbsType::Null);
    }

    #[test]
    fn static_types_join_init_and_writes() {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").finish();
        let s = b.static_var("G.s", Visibility::Public, heapdrag_vm::value::Value::Null);
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).putstatic(s);
            m.getstatic(s).pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let gt = GlobalTypes::build(&p);
        assert_eq!(gt.static_type(&p, s), AbsType::Ref(Some(c)));
    }

    #[test]
    fn int_field_stays_int() {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("C")
            .field("count", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.load(1).push_int(5).putfield(0);
            m.load(1).getfield(0).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let gt = GlobalTypes::build(&p);
        // Int joined with Null (unwritten-read possibility) is Top — but
        // the raw write type is Int.
        assert_eq!(gt.fields.get(&(c, 0)), Some(&AbsType::Int));
    }
}
