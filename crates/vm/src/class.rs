//! Classes, fields, methods, and exception-handler tables.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{ClassId, MethodId};
use crate::insn::Insn;

/// Java-style access visibility of a field.
///
/// Visibility does not affect execution; it scopes the *static analyses*
/// (where must a rewriting look for possible uses?) and is reported in the
/// Table 5 "reference kind" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Visibility {
    /// Visible only inside the declaring class.
    #[default]
    Private,
    /// Visible inside the declaring package.
    Package,
    /// Visible inside the class and subclasses.
    Protected,
    /// Visible everywhere.
    Public,
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Visibility::Private => "private",
            Visibility::Package => "package",
            Visibility::Protected => "protected",
            Visibility::Public => "public",
        };
        f.write_str(s)
    }
}

/// A field declared by a class (not including inherited fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Simple field name, unique within the declaring class.
    pub name: String,
    /// Access visibility.
    pub visibility: Visibility,
}

impl FieldDef {
    /// Creates a field with the given name and visibility.
    pub fn new(name: impl Into<String>, visibility: Visibility) -> Self {
        Self {
            name: name.into(),
            visibility,
        }
    }
}

/// A class definition.
///
/// The *layout* (inherited fields first, declared fields after) and the
/// *vtable* are filled in by [`Program::link`](crate::program::Program::link).
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Fully-qualified class name (e.g. `"jdk.Vector"`).
    pub name: String,
    /// Superclass, if any. Builtin `Object` has none.
    pub super_class: Option<ClassId>,
    /// Fields declared by this class (excluding inherited).
    pub fields: Vec<FieldDef>,
    /// Package name used to scope [`Visibility::Package`] analysis; derived
    /// from the class name prefix up to the last `.`.
    pub package: String,
    /// Full field layout: `(declaring class, field index within declaring
    /// class)` for each slot. Populated at link time.
    pub layout: Vec<(ClassId, u16)>,
    /// Virtual dispatch table indexed by [`VSlot`](crate::ids::VSlot);
    /// `None` where the class does not respond to the selector. Populated at
    /// link time.
    pub vtable: Vec<Option<MethodId>>,
    /// Finalizer method run by deep GC before reclamation, if any. The
    /// method must be an instance method of this class taking only the
    /// receiver.
    pub finalizer: Option<MethodId>,
    /// Pinned classes model `Class` objects and the special objects hanging
    /// off them; their instances are never reported to observers and are
    /// treated as GC roots (the paper excludes them from drag reports).
    pub pinned: bool,
}

impl ClassDef {
    /// Creates an unlinked class with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let package = name
            .rfind('.')
            .map(|i| name[..i].to_string())
            .unwrap_or_default();
        Self {
            name,
            super_class: None,
            fields: Vec::new(),
            package,
            layout: Vec::new(),
            vtable: Vec::new(),
            finalizer: None,
            pinned: false,
        }
    }

    /// Number of value slots an instance of this class carries.
    ///
    /// Only meaningful after linking.
    pub fn num_slots(&self) -> u16 {
        self.layout.len() as u16
    }
}

/// One entry of a method's exception-handler table.
///
/// A handler covers instructions with `start_pc <= pc < end_pc`. When an
/// exception of class `catch` (or a subclass) is thrown in that range, the
/// operand stack is cleared, the exception reference (or null for VM-raised
/// conditions) is pushed, and control transfers to `handler_pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handler {
    /// First covered pc (inclusive).
    pub start_pc: u32,
    /// Last covered pc (exclusive).
    pub end_pc: u32,
    /// Entry point of the handler.
    pub handler_pc: u32,
    /// Exception class caught; `None` catches everything.
    pub catch: Option<ClassId>,
}

/// A method body.
#[derive(Debug, Clone)]
pub struct Method {
    /// Simple method name (e.g. `"init"`, `"main"`, `"indexDocument"`).
    pub name: String,
    /// Declaring class; `None` for free functions such as `main`.
    pub class: Option<ClassId>,
    /// Number of parameters, including the receiver for instance methods.
    /// Arguments are popped into locals `0..num_params`.
    pub num_params: u16,
    /// Total number of local variable slots (`>= num_params`).
    pub num_locals: u16,
    /// True for static methods and free functions (no receiver).
    pub is_static: bool,
    /// The instruction sequence.
    pub code: Vec<Insn>,
    /// Exception handler table, searched in order.
    pub handlers: Vec<Handler>,
    /// Optional human-readable labels for individual pcs, surfaced in
    /// profiler reports ("the line of source at this site").
    pub site_labels: BTreeMap<u32, String>,
    /// True when the method returns a value (its code holds `retval`, and
    /// then no `ret`). Populated at link time.
    pub returns_value: bool,
    /// The exact maximum operand-stack depth of any path through the
    /// method, found by the verifier. Populated at link time.
    pub max_stack: usize,
}

impl Method {
    /// Creates an empty static method.
    pub fn new(name: impl Into<String>, num_params: u16, num_locals: u16) -> Self {
        Self {
            name: name.into(),
            class: None,
            num_params,
            num_locals: num_locals.max(num_params),
            is_static: true,
            code: Vec::new(),
            handlers: Vec::new(),
            site_labels: BTreeMap::new(),
            returns_value: false,
            max_stack: 0,
        }
    }

    /// The label attached to `pc`, if any.
    pub fn site_label(&self, pc: u32) -> Option<&str> {
        self.site_labels.get(&pc).map(String::as_str)
    }

    /// A readable `Class.method` or bare `method` name.
    pub fn qualified_name(&self, class_name: Option<&str>) -> String {
        match class_name {
            Some(c) => format!("{c}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_derivation() {
        let c = ClassDef::new("jdk.util.Vector");
        assert_eq!(c.package, "jdk.util");
        let c = ClassDef::new("Main");
        assert_eq!(c.package, "");
    }

    #[test]
    fn visibility_display_and_order() {
        assert_eq!(Visibility::Package.to_string(), "package");
        assert!(Visibility::Private < Visibility::Public);
        assert_eq!(Visibility::default(), Visibility::Private);
    }

    #[test]
    fn method_defaults() {
        let m = Method::new("main", 1, 0);
        assert_eq!(m.num_locals, 1, "locals grow to cover params");
        assert!(m.is_static);
        assert_eq!(m.qualified_name(None), "main");
        assert_eq!(m.qualified_name(Some("A")), "A.main");
    }

    #[test]
    fn site_labels() {
        let mut m = Method::new("f", 0, 0);
        m.site_labels.insert(3, "new char[100K]".into());
        assert_eq!(m.site_label(3), Some("new char[100K]"));
        assert_eq!(m.site_label(4), None);
    }
}
