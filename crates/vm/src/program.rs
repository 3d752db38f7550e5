//! A linked bytecode program: classes, methods, statics, and selectors.

use std::collections::HashMap;

use crate::class::{ClassDef, Method, Visibility};
use crate::error::VmError;
use crate::ids::{ClassId, MethodId, StaticId, VSlot};
use crate::insn::Insn;
use crate::value::Value;

/// A static (global) variable.
#[derive(Debug, Clone)]
pub struct StaticDef {
    /// Qualified name, e.g. `"jdk.Locale.EN_US"`.
    pub name: String,
    /// Visibility, scoping the usage analyses.
    pub visibility: Visibility,
    /// Initial value (restored at the start of every run).
    pub init: Value,
}

/// Ids of the classes every program is born with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtins {
    /// Root of the class hierarchy.
    pub object: ClassId,
    /// Class of all arrays created by `newarray`.
    pub array: ClassId,
    /// Thrown by `div`/`rem` with a zero divisor.
    pub arithmetic: ClassId,
    /// Thrown by uses of a null receiver.
    pub null_pointer: ClassId,
    /// Thrown by out-of-range array access.
    pub index_oob: ClassId,
    /// Thrown when an allocation would exceed the heap limit.
    pub out_of_memory: ClassId,
}

/// A complete program.
///
/// Construct one with [`ProgramBuilder`](crate::builder::ProgramBuilder) (or
/// the [assembler](crate::asm)), which calls [`Program::link`] for you.
#[derive(Debug, Clone)]
pub struct Program {
    /// All classes, indexed by [`ClassId`].
    pub classes: Vec<ClassDef>,
    /// All methods, indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// All static variables, indexed by [`StaticId`].
    pub statics: Vec<StaticDef>,
    /// Selector names, indexed by [`VSlot`].
    pub selectors: Vec<String>,
    /// The entry method; must be static.
    pub entry: MethodId,
    /// Ids of the builtin classes.
    pub builtins: Builtins,
}

impl Program {
    /// Creates an empty, unlinked program containing only the builtin
    /// classes and a placeholder entry.
    pub fn empty() -> Self {
        let mut classes = Vec::new();
        let mut add = |name: &str| {
            let id = ClassId(classes.len() as u32);
            let mut c = ClassDef::new(name);
            if name != "Object" {
                c.super_class = Some(ClassId(0));
            }
            classes.push(c);
            id
        };
        let object = add("Object");
        let array = add("Array");
        let arithmetic = add("ArithmeticException");
        let null_pointer = add("NullPointerException");
        let index_oob = add("IndexOutOfBoundsException");
        let out_of_memory = add("OutOfMemoryError");
        Program {
            classes,
            methods: Vec::new(),
            statics: Vec::new(),
            selectors: Vec::new(),
            entry: MethodId(0),
            builtins: Builtins {
                object,
                array,
                arithmetic,
                null_pointer,
                index_oob,
                out_of_memory,
            },
        }
    }

    /// Resolves field layouts, vtables, and validates bytecode.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::LinkError`] on cyclic inheritance, duplicate field
    /// names within a layout, or a non-static entry method, and
    /// [`VmError::InvalidBytecode`] for out-of-range ids, locals, or jump
    /// targets.
    pub fn link(&mut self) -> Result<(), VmError> {
        self.link_layouts()?;
        self.link_vtables()?;
        self.validate()?;
        Ok(())
    }

    fn link_layouts(&mut self) -> Result<(), VmError> {
        let n = self.classes.len();
        let mut done = vec![false; n];
        for id in 0..n {
            self.layout_of(ClassId(id as u32), &mut done, 0)?;
        }
        Ok(())
    }

    fn layout_of(&mut self, id: ClassId, done: &mut [bool], depth: usize) -> Result<(), VmError> {
        if done[id.index()] {
            return Ok(());
        }
        if depth > self.classes.len() {
            return Err(VmError::LinkError(format!(
                "inheritance cycle involving class {}",
                self.classes[id.index()].name
            )));
        }
        let mut layout = Vec::new();
        if let Some(sup) = self.classes[id.index()].super_class {
            self.layout_of(sup, done, depth + 1)?;
            layout.extend(self.classes[sup.index()].layout.iter().copied());
        }
        let own = self.classes[id.index()].fields.len() as u16;
        for i in 0..own {
            layout.push((id, i));
        }
        // Duplicate names within a class are rejected; shadowing a super
        // field is allowed (distinct slots), matching Java semantics.
        let names: Vec<&str> = self.classes[id.index()]
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        for (i, a) in names.iter().enumerate() {
            if names[..i].contains(a) {
                return Err(VmError::LinkError(format!(
                    "duplicate field `{a}` in class {}",
                    self.classes[id.index()].name
                )));
            }
        }
        self.classes[id.index()].layout = layout;
        done[id.index()] = true;
        Ok(())
    }

    fn link_vtables(&mut self) -> Result<(), VmError> {
        // Every instance method name becomes a selector.
        let mut by_name: HashMap<String, VSlot> = self
            .selectors
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), VSlot(i as u32)))
            .collect();
        for m in &self.methods {
            if m.class.is_some() && !m.is_static && !by_name.contains_key(&m.name) {
                let slot = VSlot(self.selectors.len() as u32);
                self.selectors.push(m.name.clone());
                by_name.insert(m.name.clone(), slot);
            }
        }
        let nsel = self.selectors.len();
        // Fill vtables in superclass-first order (layouts already verified
        // the hierarchy is acyclic).
        let order = self.linearized_order();
        for id in order {
            let mut vtable = match self.classes[id.index()].super_class {
                Some(sup) => self.classes[sup.index()].vtable.clone(),
                None => Vec::new(),
            };
            vtable.resize(nsel, None);
            for (mid, m) in self.methods.iter().enumerate() {
                if m.class == Some(id) && !m.is_static {
                    let slot = by_name[&m.name];
                    vtable[slot.index()] = Some(MethodId(mid as u32));
                }
            }
            self.classes[id.index()].vtable = vtable;
        }
        Ok(())
    }

    fn linearized_order(&self) -> Vec<ClassId> {
        let n = self.classes.len();
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        // Repeatedly emit classes whose super is already placed.
        while order.len() < n {
            let before = order.len();
            for i in 0..n {
                if placed[i] {
                    continue;
                }
                let ready = match self.classes[i].super_class {
                    Some(s) => placed[s.index()],
                    None => true,
                };
                if ready {
                    placed[i] = true;
                    order.push(ClassId(i as u32));
                }
            }
            if order.len() == before {
                break; // cycle; link_layouts already rejected it
            }
        }
        order
    }

    fn validate(&self) -> Result<(), VmError> {
        let entry = self
            .methods
            .get(self.entry.index())
            .ok_or_else(|| VmError::LinkError("entry method does not exist".into()))?;
        if !entry.is_static {
            return Err(VmError::LinkError("entry method must be static".into()));
        }
        for (mi, m) in self.methods.iter().enumerate() {
            let mid = MethodId(mi as u32);
            if !m.is_static && m.num_params == 0 {
                return Err(VmError::LinkError(format!(
                    "instance method {} has no receiver parameter",
                    self.method_name(mid)
                )));
            }
            let len = m.code.len() as u32;
            for (pc, insn) in m.code.iter().enumerate() {
                let pc = pc as u32;
                let bad = |reason: String| VmError::InvalidBytecode {
                    method: mid,
                    pc,
                    reason,
                };
                if let Some(t) = insn.jump_target() {
                    if t >= len {
                        return Err(bad(format!("jump target {t} out of range (len {len})")));
                    }
                }
                match insn {
                    Insn::Load(n) | Insn::Store(n) if *n >= m.num_locals => {
                        return Err(bad(format!(
                            "local {n} out of range ({} locals)",
                            m.num_locals
                        )));
                    }
                    Insn::New(c) | Insn::InstanceOf(c) if c.index() >= self.classes.len() => {
                        return Err(bad(format!("unknown class {c}")));
                    }
                    Insn::Call(target) if target.index() >= self.methods.len() => {
                        return Err(bad(format!("unknown method {target}")));
                    }
                    Insn::CallVirtual { vslot, .. } if vslot.index() >= self.selectors.len() => {
                        return Err(bad(format!("unknown selector {vslot}")));
                    }
                    Insn::GetStatic(s) | Insn::PutStatic(s) if s.index() >= self.statics.len() => {
                        return Err(bad(format!("unknown static {s}")));
                    }
                    _ => {}
                }
            }
            for h in &m.handlers {
                if h.start_pc > h.end_pc || h.end_pc > len || h.handler_pc >= len.max(1) {
                    return Err(VmError::InvalidBytecode {
                        method: mid,
                        pc: h.start_pc,
                        reason: "malformed exception handler range".into(),
                    });
                }
            }
        }
        Ok(())
    }

    /// True if `sub` equals `sup` or inherits from it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.index()].super_class;
        }
        false
    }

    /// Resolves a field name to its layout slot in `class` (searching
    /// inherited fields too, innermost declaration first).
    pub fn field_slot(&self, class: ClassId, name: &str) -> Option<u16> {
        let layout = &self.classes[class.index()].layout;
        // Prefer the most-derived declaration (shadowing).
        for (slot, (decl, idx)) in layout.iter().enumerate().rev() {
            if self.classes[decl.index()].fields[*idx as usize].name == name {
                return Some(slot as u16);
            }
        }
        None
    }

    /// The declaring class and [`FieldDef`](crate::class::FieldDef) behind a
    /// layout slot of `class`.
    pub fn field_at(
        &self,
        class: ClassId,
        slot: u16,
    ) -> Option<(ClassId, &crate::class::FieldDef)> {
        let (decl, idx) = *self.classes[class.index()].layout.get(slot as usize)?;
        Some((decl, &self.classes[decl.index()].fields[idx as usize]))
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Looks up a method by `(class, name)`; pass `None` for free functions.
    pub fn method_by_name(&self, class: Option<ClassId>, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.class == class && m.name == name)
            .map(|i| MethodId(i as u32))
    }

    /// Looks up a static variable by qualified name.
    pub fn static_by_name(&self, name: &str) -> Option<StaticId> {
        self.statics
            .iter()
            .position(|s| s.name == name)
            .map(|i| StaticId(i as u32))
    }

    /// Looks up a selector slot by method name.
    pub fn selector(&self, name: &str) -> Option<VSlot> {
        self.selectors
            .iter()
            .position(|s| s == name)
            .map(|i| VSlot(i as u32))
    }

    /// The method a virtual call on an instance of `class` through `vslot`
    /// dispatches to.
    pub fn dispatch(&self, class: ClassId, vslot: VSlot) -> Option<MethodId> {
        self.classes[class.index()]
            .vtable
            .get(vslot.index())
            .copied()
            .flatten()
    }

    /// Human-readable name of a method, qualified by its class.
    pub fn method_name(&self, id: MethodId) -> String {
        let m = &self.methods[id.index()];
        m.qualified_name(m.class.map(|c| self.classes[c.index()].name.as_str()))
    }

    /// Total static count of instructions across all methods — the stand-in
    /// for the paper's "source code statements" column of Table 1.
    pub fn code_size(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::FieldDef;

    fn two_class_program() -> Program {
        let mut p = Program::empty();
        let base = ClassId(p.classes.len() as u32);
        let mut c = ClassDef::new("Base");
        c.super_class = Some(p.builtins.object);
        c.fields.push(FieldDef::new("x", Visibility::Private));
        p.classes.push(c);
        let _derived = ClassId(p.classes.len() as u32);
        let mut c = ClassDef::new("Derived");
        c.super_class = Some(base);
        c.fields.push(FieldDef::new("y", Visibility::Public));
        p.classes.push(c);
        let mut main = Method::new("main", 1, 1);
        main.code = vec![Insn::Ret];
        p.methods.push(main);
        p.entry = MethodId(0);
        p
    }

    #[test]
    fn layouts_inherit_fields() {
        let mut p = two_class_program();
        p.link().unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        assert_eq!(p.classes[derived.index()].num_slots(), 2);
        assert_eq!(p.field_slot(derived, "x"), Some(0));
        assert_eq!(p.field_slot(derived, "y"), Some(1));
        assert_eq!(p.field_slot(derived, "z"), None);
    }

    #[test]
    fn subclass_checks() {
        let mut p = two_class_program();
        p.link().unwrap();
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        assert!(p.is_subclass(derived, base));
        assert!(p.is_subclass(derived, p.builtins.object));
        assert!(!p.is_subclass(base, derived));
    }

    #[test]
    fn vtable_override() {
        let mut p = two_class_program();
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        let mut m1 = Method::new("describe", 1, 1);
        m1.class = Some(base);
        m1.is_static = false;
        m1.code = vec![Insn::Ret];
        let m1_id = MethodId(p.methods.len() as u32);
        p.methods.push(m1);
        let mut m2 = Method::new("describe", 1, 1);
        m2.class = Some(derived);
        m2.is_static = false;
        m2.code = vec![Insn::Ret];
        let m2_id = MethodId(p.methods.len() as u32);
        p.methods.push(m2);
        p.link().unwrap();
        let slot = p.selector("describe").unwrap();
        assert_eq!(p.dispatch(base, slot), Some(m1_id));
        assert_eq!(p.dispatch(derived, slot), Some(m2_id));
        assert_eq!(p.dispatch(p.builtins.object, slot), None);
    }

    #[test]
    fn link_rejects_cycles() {
        let mut p = Program::empty();
        let a = ClassId(p.classes.len() as u32);
        let b = ClassId(p.classes.len() as u32 + 1);
        let mut ca = ClassDef::new("A");
        ca.super_class = Some(b);
        let mut cb = ClassDef::new("B");
        cb.super_class = Some(a);
        p.classes.push(ca);
        p.classes.push(cb);
        let mut main = Method::new("main", 1, 1);
        main.code = vec![Insn::Ret];
        p.methods.push(main);
        assert!(matches!(p.link(), Err(VmError::LinkError(_))));
    }

    #[test]
    fn link_rejects_duplicate_fields() {
        let mut p = Program::empty();
        let mut c = ClassDef::new("C");
        c.super_class = Some(p.builtins.object);
        c.fields.push(FieldDef::new("f", Visibility::Private));
        c.fields.push(FieldDef::new("f", Visibility::Private));
        p.classes.push(c);
        let mut main = Method::new("main", 1, 1);
        main.code = vec![Insn::Ret];
        p.methods.push(main);
        assert!(matches!(p.link(), Err(VmError::LinkError(_))));
    }

    #[test]
    fn validate_rejects_bad_jump() {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 1);
        main.code = vec![Insn::Jump(5), Insn::Ret];
        p.methods.push(main);
        assert!(matches!(p.link(), Err(VmError::InvalidBytecode { .. })));
    }

    #[test]
    fn validate_rejects_bad_local() {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 2);
        main.code = vec![Insn::Load(7), Insn::Ret];
        p.methods.push(main);
        assert!(matches!(p.link(), Err(VmError::InvalidBytecode { .. })));
    }

    #[test]
    fn validate_rejects_instance_method_without_receiver() {
        let mut p = Program::empty();
        let mut main = Method::new("main", 1, 1);
        main.code = vec![Insn::Ret];
        p.methods.push(main);
        let mut m = Method::new("f", 0, 0);
        m.is_static = false;
        m.code = vec![Insn::Ret];
        p.methods.push(m);
        assert!(matches!(p.link(), Err(VmError::LinkError(_))));
    }

    #[test]
    fn code_size_counts_all_methods() {
        let mut p = two_class_program();
        p.link().unwrap();
        assert_eq!(p.code_size(), 1);
    }
}
