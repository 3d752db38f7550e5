//! Type checking and code generation: [`SourceProgram`] → linked VM
//! [`Program`].
//!
//! The language is statically typed (ints, typed arrays, nominal classes
//! with subtyping); the checker resolves every field access and call
//! before emission, so the generated bytecode always passes the VM's
//! verifier and the static analyses can type it precisely.
//!
//! Allocation sites receive `L<line>` site labels, so drag reports point
//! back at source lines.

use std::collections::HashMap;

use heapdrag_vm::builder::{MethodBuilder, ProgramBuilder};
use heapdrag_vm::class::Visibility;
use heapdrag_vm::ids::{ClassId, MethodId, StaticId};
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

use crate::ast::*;
use crate::error::LangError;

/// A resolved (semantic) type.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ty {
    Int,
    Array(Box<Ty>),
    Class(ClassId),
    /// The type of `null` — assignable to any reference type.
    Null,
}

impl Ty {
    fn is_ref(&self) -> bool {
        matches!(self, Ty::Array(_) | Ty::Class(_) | Ty::Null)
    }
}

struct ClassInfo {
    id: ClassId,
    extends: Option<String>,
    /// name → (declared type, declaration line) for own fields.
    fields: HashMap<String, Ty>,
    /// name → method signature for own methods.
    methods: HashMap<String, Signature>,
}

#[derive(Debug, Clone)]
struct Signature {
    method: MethodId,
    params: Vec<Ty>,
    ret: Option<Ty>,
}

struct Compiler {
    classes: HashMap<String, ClassInfo>,
    funcs: HashMap<String, Signature>,
    statics: HashMap<String, (StaticId, Ty)>,
    /// Synthesized runtime helper zero-filling freshly allocated `int[]`s.
    zero_fill: MethodId,
}

/// Compiles a parsed program to a linked VM program.
///
/// # Errors
///
/// Returns the first type or resolution error, with its source line.
pub fn compile(source: &SourceProgram) -> Result<Program, LangError> {
    let mut b = ProgramBuilder::new();
    let zero_fill = synthesize_zero_fill(&mut b);
    let mut compiler = Compiler {
        classes: HashMap::new(),
        funcs: HashMap::new(),
        statics: HashMap::new(),
        zero_fill,
    };

    compiler.declare_classes(&mut b, source)?;
    compiler.declare_functions(&mut b, source)?;
    compiler.declare_statics(&mut b, source)?;
    compiler.emit_bodies(&mut b, source)?;

    let main = compiler
        .funcs
        .get("main")
        .ok_or_else(|| LangError::new(1, "program has no `main` function"))?;
    if main.params.len() != 1
        || main.params[0] != Ty::Array(Box::new(Ty::Int))
        || main.ret.is_some()
    {
        return Err(LangError::new(
            1,
            "`main` must be declared as `def main(input: int[])` with no return type",
        ));
    }
    b.set_entry(main.method);
    b.finish().map_err(|e| {
        LangError::new(
            0,
            format!("internal: generated program failed to link: {e}"),
        )
    })
}

/// Emits the runtime helper `__zero_fill(a)`: sets every element of `a`
/// to the int 0 (Java's default for `int[]` contents).
fn synthesize_zero_fill(b: &mut ProgramBuilder) -> MethodId {
    let id = b.declare_method("__zero_fill", None, true, 1, 2);
    let mut m = b.begin_body(id);
    m.push_int(0).store(1);
    m.label("fill");
    m.load(1).load(0).array_len().cmpge().branch("done");
    m.load(0).load(1).push_int(0).astore();
    m.load(1).push_int(1).add().store(1);
    m.jump("fill");
    m.label("done");
    m.ret();
    m.finish();
    id
}

fn lower_vis(v: Vis) -> Visibility {
    match v {
        Vis::Private => Visibility::Private,
        Vis::Package => Visibility::Package,
        Vis::Protected => Visibility::Protected,
        Vis::Public => Visibility::Public,
    }
}

impl Compiler {
    fn resolve_type(&self, ty: &TypeName, line: usize) -> Result<Ty, LangError> {
        Ok(match ty {
            TypeName::Int => Ty::Int,
            TypeName::Array(e) => Ty::Array(Box::new(self.resolve_type(e, line)?)),
            TypeName::Class(name) => Ty::Class(
                self.classes
                    .get(name)
                    .ok_or_else(|| LangError::new(line, format!("unknown class `{name}`")))?
                    .id,
            ),
        })
    }

    fn class_name(&self, id: ClassId) -> &str {
        self.classes
            .iter()
            .find(|(_, c)| c.id == id)
            .map(|(n, _)| n.as_str())
            .unwrap_or("<class>")
    }

    fn ty_name(&self, ty: &Ty) -> String {
        match ty {
            Ty::Int => "int".into(),
            Ty::Array(e) => format!("{}[]", self.ty_name(e)),
            Ty::Class(id) => self.class_name(*id).into(),
            Ty::Null => "null".into(),
        }
    }

    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = self
            .classes
            .values()
            .find(|c| c.id == sub)
            .map(|c| (c.id, c.extends.clone()));
        while let Some((id, extends)) = cur {
            if id == sup {
                return true;
            }
            cur =
                extends.and_then(|name| self.classes.get(&name).map(|c| (c.id, c.extends.clone())));
        }
        false
    }

    fn assignable(&self, value: &Ty, target: &Ty) -> bool {
        match (value, target) {
            (Ty::Int, Ty::Int) => true,
            (Ty::Null, t) if t.is_ref() => true,
            (Ty::Array(a), Ty::Array(b)) => a == b,
            (Ty::Class(a), Ty::Class(b)) => self.is_subclass(*a, *b),
            _ => false,
        }
    }

    /// Walks the class chain for a field, returning its slot-resolution
    /// class (the *receiver's* class works: slots are layout-global) and
    /// declared type.
    fn lookup_field(&self, class: ClassId, name: &str, line: usize) -> Result<Ty, LangError> {
        let mut cur = self.classes.values().find(|c| c.id == class);
        while let Some(info) = cur {
            if let Some(ty) = info.fields.get(name) {
                return Ok(ty.clone());
            }
            cur = info.extends.as_ref().and_then(|sup| self.classes.get(sup));
        }
        Err(LangError::new(
            line,
            format!("class `{}` has no field `{name}`", self.class_name(class)),
        ))
    }

    /// Names of all int-typed fields in `class`'s full chain.
    fn int_fields(&self, class: ClassId) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = self.classes.values().find(|c| c.id == class);
        while let Some(info) = cur {
            for (name, ty) in &info.fields {
                if *ty == Ty::Int {
                    out.push(name.clone());
                }
            }
            cur = info.extends.as_ref().and_then(|sup| self.classes.get(sup));
        }
        out.sort();
        out
    }

    fn lookup_method(
        &self,
        class: ClassId,
        name: &str,
        line: usize,
    ) -> Result<Signature, LangError> {
        let mut cur = self.classes.values().find(|c| c.id == class);
        while let Some(info) = cur {
            if let Some(sig) = info.methods.get(name) {
                return Ok(sig.clone());
            }
            cur = info.extends.as_ref().and_then(|sup| self.classes.get(sup));
        }
        Err(LangError::new(
            line,
            format!("class `{}` has no method `{name}`", self.class_name(class)),
        ))
    }

    // --- declaration passes ------------------------------------------------

    fn declare_classes(
        &mut self,
        b: &mut ProgramBuilder,
        source: &SourceProgram,
    ) -> Result<(), LangError> {
        // Topological order so superclasses exist before subclasses.
        let mut remaining: Vec<&ClassDecl> = source.classes.iter().collect();
        let mut declared: HashMap<String, ClassId> = HashMap::new();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|decl| {
                let ready = match &decl.extends {
                    Some(sup) => declared.contains_key(sup),
                    None => true,
                };
                if !ready {
                    return true;
                }
                let mut cb = b.begin_class(decl.name.clone());
                if let Some(sup) = &decl.extends {
                    cb = cb.extends(declared[sup]);
                }
                for f in &decl.fields {
                    cb = cb.field(f.name.clone(), lower_vis(f.vis));
                }
                declared.insert(decl.name.clone(), cb.finish());
                false
            });
            if remaining.len() == before {
                let d = remaining[0];
                return Err(LangError::new(
                    d.line,
                    format!(
                        "class `{}` extends `{}`, which is unknown or part of a cycle",
                        d.name,
                        d.extends.as_deref().unwrap_or("?")
                    ),
                ));
            }
        }
        for decl in &source.classes {
            if self.classes.contains_key(&decl.name) {
                return Err(LangError::new(
                    decl.line,
                    format!("class `{}` declared twice", decl.name),
                ));
            }
            self.classes.insert(
                decl.name.clone(),
                ClassInfo {
                    id: declared[&decl.name],
                    extends: decl.extends.clone(),
                    fields: HashMap::new(),
                    methods: HashMap::new(),
                },
            );
        }
        // Field types (now that every class name resolves).
        for decl in &source.classes {
            let mut fields = HashMap::new();
            for f in &decl.fields {
                let ty = self.resolve_type(&f.ty, f.line)?;
                if fields.insert(f.name.clone(), ty).is_some() {
                    return Err(LangError::new(
                        f.line,
                        format!("field `{}` declared twice in `{}`", f.name, decl.name),
                    ));
                }
            }
            self.classes.get_mut(&decl.name).expect("declared").fields = fields;
        }
        // Shadowing a superclass field would make implicit zero-init and
        // slot resolution ambiguous; reject it.
        for decl in &source.classes {
            let mut sup = decl.extends.clone();
            while let Some(sup_name) = sup {
                let sup_info = &self.classes[&sup_name];
                for f in &decl.fields {
                    if sup_info.fields.contains_key(&f.name) {
                        return Err(LangError::new(
                            f.line,
                            format!(
                                "field `{}` of `{}` shadows a field of `{sup_name}`",
                                f.name, decl.name
                            ),
                        ));
                    }
                }
                sup = sup_info.extends.clone();
            }
        }
        Ok(())
    }

    fn declare_functions(
        &mut self,
        b: &mut ProgramBuilder,
        source: &SourceProgram,
    ) -> Result<(), LangError> {
        for f in &source.funcs {
            let sig = self.signature_of(b, f, None)?;
            if self.funcs.insert(f.name.clone(), sig).is_some() {
                return Err(LangError::new(
                    f.line,
                    format!("function `{}` declared twice", f.name),
                ));
            }
        }
        for c in &source.classes {
            let class_id = self.classes[&c.name].id;
            for m in &c.methods {
                let sig = self.signature_of(b, m, Some(class_id))?;
                let info = self.classes.get_mut(&c.name).expect("declared");
                if info.methods.insert(m.name.clone(), sig).is_some() {
                    return Err(LangError::new(
                        m.line,
                        format!("method `{}` declared twice in `{}`", m.name, c.name),
                    ));
                }
            }
        }
        Ok(())
    }

    fn signature_of(
        &self,
        b: &mut ProgramBuilder,
        f: &FuncDecl,
        class: Option<ClassId>,
    ) -> Result<Signature, LangError> {
        let mut params = Vec::new();
        for (_, ty) in &f.params {
            params.push(self.resolve_type(ty, f.line)?);
        }
        let ret = match &f.ret {
            Some(t) => Some(self.resolve_type(t, f.line)?),
            None => None,
        };
        let receiver = usize::from(class.is_some());
        let num_params = (f.params.len() + receiver) as u16;
        // Locals are finalised later; reserve params for now and grow in
        // emit (the builder allows locals >= params at declaration).
        let method = b.declare_method(
            f.name.clone(),
            class,
            class.is_none(),
            num_params,
            num_params,
        );
        Ok(Signature {
            method,
            params,
            ret,
        })
    }

    fn declare_statics(
        &mut self,
        b: &mut ProgramBuilder,
        source: &SourceProgram,
    ) -> Result<(), LangError> {
        for s in &source.statics {
            let ty = self.resolve_type(&s.ty, s.line)?;
            if s.init.is_some() && ty != Ty::Int {
                return Err(LangError::new(
                    s.line,
                    "only int statics can have initialisers",
                ));
            }
            let init = match s.init {
                Some(v) => Value::Int(v),
                None if ty == Ty::Int => Value::Int(0),
                None => Value::Null,
            };
            let id = b.static_var(s.name.clone(), lower_vis(s.vis), init);
            if self.statics.insert(s.name.clone(), (id, ty)).is_some() {
                return Err(LangError::new(
                    s.line,
                    format!("static `{}` declared twice", s.name),
                ));
            }
        }
        Ok(())
    }

    // --- body emission ---------------------------------------------------------

    fn emit_bodies(
        &mut self,
        b: &mut ProgramBuilder,
        source: &SourceProgram,
    ) -> Result<(), LangError> {
        for f in &source.funcs {
            let sig = self.funcs[&f.name].clone();
            self.emit_function(b, f, sig, None)?;
        }
        for c in &source.classes {
            let class_id = self.classes[&c.name].id;
            for m in &c.methods {
                let sig = self.classes[&c.name].methods[&m.name].clone();
                self.emit_function(b, m, sig, Some(class_id))?;
            }
        }
        Ok(())
    }

    fn emit_function(
        &self,
        b: &mut ProgramBuilder,
        f: &FuncDecl,
        sig: Signature,
        class: Option<ClassId>,
    ) -> Result<(), LangError> {
        let mut locals: HashMap<String, (u16, Ty)> = HashMap::new();
        let receiver = usize::from(class.is_some());
        if let Some(c) = class {
            locals.insert("this".into(), (0, Ty::Class(c)));
        }
        for (i, (name, _)) in f.params.iter().enumerate() {
            let slot = (i + receiver) as u16;
            if locals
                .insert(name.clone(), (slot, sig.params[i].clone()))
                .is_some()
            {
                return Err(LangError::new(
                    f.line,
                    format!("duplicate parameter `{name}`"),
                ));
            }
        }
        let mut ctx = FnCtx {
            compiler: self,
            locals,
            next_slot: (f.params.len() + receiver) as u16,
            max_slot: (f.params.len() + receiver) as u16,
            ret: sig.ret.clone(),
            class,
            label_counter: 0,
        };
        // Pre-size locals: statements can only add `var`s; count them.
        let var_count = count_vars(&f.body) as u16;
        {
            let program_method = sig.method;
            // Update declared locals before opening the body.
            // (declare_method reserved only the parameters.)
            let needed = ctx.next_slot + var_count;
            b.set_method_locals(program_method, needed);
            let mut m = b.begin_body(program_method);
            let always_returns = ctx.emit_block(&mut m, &f.body)?;
            match (&ctx.ret, always_returns) {
                (Some(_), false) => {
                    return Err(LangError::new(
                        f.line,
                        format!("function `{}` may finish without returning a value", f.name),
                    ))
                }
                (None, false) => {
                    m.ret();
                }
                _ => {}
            }
            m.finish();
        }
        Ok(())
    }
}

fn count_vars(body: &[Stmt]) -> usize {
    body.iter()
        .map(|s| match s {
            Stmt::Var { .. } => 1,
            Stmt::If {
                then_body,
                else_body,
                ..
            } => count_vars(then_body) + count_vars(else_body),
            Stmt::While { body, .. } => count_vars(body),
            _ => 0,
        })
        .sum()
}

struct FnCtx<'c> {
    compiler: &'c Compiler,
    locals: HashMap<String, (u16, Ty)>,
    next_slot: u16,
    max_slot: u16,
    ret: Option<Ty>,
    class: Option<ClassId>,
    label_counter: usize,
}

impl FnCtx<'_> {
    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    /// Emits a block; returns true when every path through it returns.
    fn emit_block(&mut self, m: &mut MethodBuilder<'_>, body: &[Stmt]) -> Result<bool, LangError> {
        let mut returned = false;
        for stmt in body {
            if returned {
                return Err(LangError::new(
                    stmt_line(stmt),
                    "unreachable statement after `return`",
                ));
            }
            returned = self.emit_stmt(m, stmt)?;
        }
        Ok(returned)
    }

    fn emit_stmt(&mut self, m: &mut MethodBuilder<'_>, stmt: &Stmt) -> Result<bool, LangError> {
        match stmt {
            Stmt::Var {
                name,
                ty,
                init,
                line,
            } => {
                let init_ty = self.emit_expr(m, init)?;
                let declared = match ty {
                    Some(t) => {
                        let t = self.compiler.resolve_type(t, *line)?;
                        if !self.compiler.assignable(&init_ty, &t) {
                            return Err(LangError::new(
                                *line,
                                format!(
                                    "cannot initialise `{name}: {}` from `{}`",
                                    self.compiler.ty_name(&t),
                                    self.compiler.ty_name(&init_ty)
                                ),
                            ));
                        }
                        t
                    }
                    None => {
                        if init_ty == Ty::Null {
                            return Err(LangError::new(
                                *line,
                                "`var x = null;` needs a type annotation",
                            ));
                        }
                        init_ty
                    }
                };
                if self.locals.contains_key(name) {
                    return Err(LangError::new(
                        *line,
                        format!("variable `{name}` already declared"),
                    ));
                }
                let slot = self.next_slot;
                self.next_slot += 1;
                self.max_slot = self.max_slot.max(self.next_slot);
                self.locals.insert(name.clone(), (slot, declared));
                m.store(slot);
                Ok(false)
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                match target {
                    LValue::Name(name) => {
                        if let Some((slot, ty)) = self.locals.get(name).cloned() {
                            let vty = self.emit_expr(m, value)?;
                            self.check_assign(&vty, &ty, *line)?;
                            m.store(slot);
                        } else if let Some((sid, ty)) = self.compiler.statics.get(name).cloned() {
                            let vty = self.emit_expr(m, value)?;
                            self.check_assign(&vty, &ty, *line)?;
                            m.putstatic(sid);
                        } else {
                            return Err(LangError::new(
                                *line,
                                format!("unknown variable `{name}`"),
                            ));
                        }
                    }
                    LValue::Field { recv, name } => {
                        let rty = self.emit_expr(m, recv)?;
                        let Ty::Class(class) = rty else {
                            return Err(LangError::new(
                                *line,
                                format!(
                                    "field assignment needs a class receiver, found `{}`",
                                    self.compiler.ty_name(&rty)
                                ),
                            ));
                        };
                        let fty = self.compiler.lookup_field(class, name, *line)?;
                        let vty = self.emit_expr(m, value)?;
                        self.check_assign(&vty, &fty, *line)?;
                        m.putfield_named(class, name);
                    }
                    LValue::Index { arr, idx } => {
                        let aty = self.emit_expr(m, arr)?;
                        let Ty::Array(elem) = aty else {
                            return Err(LangError::new(
                                *line,
                                format!(
                                    "indexed assignment needs an array, found `{}`",
                                    self.compiler.ty_name(&aty)
                                ),
                            ));
                        };
                        let ity = self.emit_expr(m, idx)?;
                        self.expect(&ity, &Ty::Int, *line, "array index")?;
                        let vty = self.emit_expr(m, value)?;
                        self.check_assign(&vty, &elem, *line)?;
                        m.astore();
                    }
                }
                Ok(false)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                let cty = self.emit_expr(m, cond)?;
                self.expect(&cty, &Ty::Int, *line, "if condition")?;
                let else_label = self.fresh_label("else");
                let end_label = self.fresh_label("endif");
                m.push_int(0).cmpeq().branch(else_label.clone());
                let then_ret = self.emit_block(m, then_body)?;
                if !then_ret {
                    m.jump(end_label.clone());
                }
                m.label(else_label);
                let else_ret = self.emit_block(m, else_body)?;
                if !then_ret {
                    m.label(end_label);
                }
                Ok(then_ret && else_ret)
            }
            Stmt::While { cond, body, line } => {
                let head = self.fresh_label("while");
                let out = self.fresh_label("endwhile");
                m.label(head.clone());
                let cty = self.emit_expr(m, cond)?;
                self.expect(&cty, &Ty::Int, *line, "while condition")?;
                m.push_int(0).cmpeq().branch(out.clone());
                let body_ret = self.emit_block(m, body)?;
                if !body_ret {
                    m.jump(head);
                }
                m.label(out);
                Ok(false)
            }
            Stmt::Return { value, line } => {
                match (&self.ret.clone(), value) {
                    (Some(rt), Some(e)) => {
                        let ty = self.emit_expr(m, e)?;
                        self.check_assign(&ty, rt, *line)?;
                        m.ret_val();
                    }
                    (None, None) => {
                        m.ret();
                    }
                    (Some(_), None) => return Err(LangError::new(*line, "missing return value")),
                    (None, Some(_)) => {
                        return Err(LangError::new(*line, "void function cannot return a value"))
                    }
                }
                Ok(true)
            }
            Stmt::Print { value, line } => {
                let ty = self.emit_expr(m, value)?;
                self.expect(&ty, &Ty::Int, *line, "print argument")?;
                m.print();
                Ok(false)
            }
            Stmt::ExprStmt { expr, line } => {
                if self.emit_expr_maybe_void(m, expr)?.is_some() {
                    m.pop();
                }
                let _ = line;
                Ok(false)
            }
        }
    }

    fn check_assign(&self, value: &Ty, target: &Ty, line: usize) -> Result<(), LangError> {
        if self.compiler.assignable(value, target) {
            Ok(())
        } else {
            Err(LangError::new(
                line,
                format!(
                    "type mismatch: `{}` is not assignable to `{}`",
                    self.compiler.ty_name(value),
                    self.compiler.ty_name(target)
                ),
            ))
        }
    }

    fn expect(&self, found: &Ty, want: &Ty, line: usize, what: &str) -> Result<(), LangError> {
        if found == want {
            Ok(())
        } else {
            Err(LangError::new(
                line,
                format!(
                    "{what} must be `{}`, found `{}`",
                    self.compiler.ty_name(want),
                    self.compiler.ty_name(found)
                ),
            ))
        }
    }

    /// Emits an expression that must produce a value.
    fn emit_expr(&mut self, m: &mut MethodBuilder<'_>, expr: &Expr) -> Result<Ty, LangError> {
        match self.emit_expr_maybe_void(m, expr)? {
            Some(ty) => Ok(ty),
            None => Err(LangError::new(expr.line(), "this call returns no value")),
        }
    }

    /// Emits an expression; `None` means a void call (nothing pushed).
    fn emit_expr_maybe_void(
        &mut self,
        m: &mut MethodBuilder<'_>,
        expr: &Expr,
    ) -> Result<Option<Ty>, LangError> {
        match expr {
            Expr::Int(v, _) => {
                m.push_int(*v);
                Ok(Some(Ty::Int))
            }
            Expr::Null(_) => {
                m.push_null();
                Ok(Some(Ty::Null))
            }
            Expr::This(line) => match self.class {
                Some(c) => {
                    m.load(0);
                    Ok(Some(Ty::Class(c)))
                }
                None => Err(LangError::new(*line, "`this` outside a method")),
            },
            Expr::Name(name, line) => {
                if let Some((slot, ty)) = self.locals.get(name).cloned() {
                    m.load(slot);
                    Ok(Some(ty))
                } else if let Some((sid, ty)) = self.compiler.statics.get(name).cloned() {
                    m.getstatic(sid);
                    Ok(Some(ty))
                } else {
                    Err(LangError::new(*line, format!("unknown variable `{name}`")))
                }
            }
            Expr::Neg(inner, line) => {
                let ty = self.emit_expr(m, inner)?;
                self.expect(&ty, &Ty::Int, *line, "negation operand")?;
                m.neg();
                Ok(Some(Ty::Int))
            }
            Expr::Not(inner, line) => {
                let ty = self.emit_expr(m, inner)?;
                self.expect(&ty, &Ty::Int, *line, "`!` operand")?;
                m.push_int(0).cmpeq();
                Ok(Some(Ty::Int))
            }
            Expr::And(lhs, rhs, line) => {
                // Short-circuit: if lhs is 0 the result is 0 and rhs is
                // not evaluated; otherwise the result is (rhs != 0).
                let short = self.fresh_label("and_short");
                let done = self.fresh_label("and_done");
                let lt = self.emit_expr(m, lhs)?;
                self.expect(&lt, &Ty::Int, *line, "`&&` operand")?;
                m.push_int(0).cmpeq().branch(short.clone());
                let rt = self.emit_expr(m, rhs)?;
                self.expect(&rt, &Ty::Int, *line, "`&&` operand")?;
                m.push_int(0).cmpne();
                m.jump(done.clone());
                m.label(short);
                m.push_int(0);
                m.label(done);
                Ok(Some(Ty::Int))
            }
            Expr::Or(lhs, rhs, line) => {
                let short = self.fresh_label("or_short");
                let done = self.fresh_label("or_done");
                let lt = self.emit_expr(m, lhs)?;
                self.expect(&lt, &Ty::Int, *line, "`||` operand")?;
                m.branch(short.clone());
                let rt = self.emit_expr(m, rhs)?;
                self.expect(&rt, &Ty::Int, *line, "`||` operand")?;
                m.push_int(0).cmpne();
                m.jump(done.clone());
                m.label(short);
                m.push_int(1);
                m.label(done);
                Ok(Some(Ty::Int))
            }
            Expr::Binary { op, lhs, rhs, line } => {
                let lt = self.emit_expr(m, lhs)?;
                let rt = self.emit_expr(m, rhs)?;
                let is_eq = matches!(op, BinOp::Eq | BinOp::Ne);
                if is_eq {
                    let both_int = lt == Ty::Int && rt == Ty::Int;
                    let both_ref = lt.is_ref() && rt.is_ref();
                    if !(both_int || both_ref) {
                        return Err(LangError::new(
                            *line,
                            format!(
                                "cannot compare `{}` with `{}`",
                                self.compiler.ty_name(&lt),
                                self.compiler.ty_name(&rt)
                            ),
                        ));
                    }
                } else {
                    self.expect(&lt, &Ty::Int, *line, "left operand")?;
                    self.expect(&rt, &Ty::Int, *line, "right operand")?;
                }
                match op {
                    BinOp::Add => m.add(),
                    BinOp::Sub => m.sub(),
                    BinOp::Mul => m.mul(),
                    BinOp::Div => m.div(),
                    BinOp::Rem => m.rem(),
                    BinOp::Eq => m.cmpeq(),
                    BinOp::Ne => m.cmpne(),
                    BinOp::Lt => m.cmplt(),
                    BinOp::Le => m.cmple(),
                    BinOp::Gt => m.cmpgt(),
                    BinOp::Ge => m.cmpge(),
                };
                Ok(Some(Ty::Int))
            }
            Expr::Field { recv, name, line } => {
                let rty = self.emit_expr(m, recv)?;
                let Ty::Class(class) = rty else {
                    return Err(LangError::new(
                        *line,
                        format!(
                            "field access needs a class receiver, found `{}`",
                            self.compiler.ty_name(&rty)
                        ),
                    ));
                };
                let fty = self.compiler.lookup_field(class, name, *line)?;
                m.getfield_named(class, name);
                Ok(Some(fty))
            }
            Expr::Index { arr, idx, line } => {
                let aty = self.emit_expr(m, arr)?;
                let Ty::Array(elem) = aty else {
                    return Err(LangError::new(
                        *line,
                        format!(
                            "indexing needs an array, found `{}`",
                            self.compiler.ty_name(&aty)
                        ),
                    ));
                };
                let ity = self.emit_expr(m, idx)?;
                self.expect(&ity, &Ty::Int, *line, "array index")?;
                m.aload();
                Ok(Some(*elem))
            }
            Expr::Length { arr, line } => {
                let aty = self.emit_expr(m, arr)?;
                if !matches!(aty, Ty::Array(_)) {
                    return Err(LangError::new(
                        *line,
                        format!(
                            "`.length` needs an array, found `{}`",
                            self.compiler.ty_name(&aty)
                        ),
                    ));
                }
                m.array_len();
                Ok(Some(Ty::Int))
            }
            Expr::Call {
                recv,
                name,
                args,
                line,
            } => {
                let sig = match recv {
                    Some(r) => {
                        let rty = self.emit_expr(m, r)?;
                        let Ty::Class(class) = rty else {
                            return Err(LangError::new(
                                *line,
                                format!(
                                    "method call needs a class receiver, found `{}`",
                                    self.compiler.ty_name(&rty)
                                ),
                            ));
                        };
                        self.compiler.lookup_method(class, name, *line)?
                    }
                    None => self.compiler.funcs.get(name).cloned().ok_or_else(|| {
                        LangError::new(*line, format!("unknown function `{name}`"))
                    })?,
                };
                if args.len() != sig.params.len() {
                    return Err(LangError::new(
                        *line,
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    ));
                }
                for (arg, want) in args.iter().zip(&sig.params) {
                    let ty = self.emit_expr(m, arg)?;
                    self.check_assign(&ty, want, arg.line())?;
                }
                match recv {
                    Some(_) => {
                        m.call_virtual(name, args.len() as u8);
                    }
                    None => {
                        m.call(sig.method);
                    }
                }
                Ok(sig.ret.clone())
            }
            Expr::New { class, args, line } => {
                let info = self
                    .compiler
                    .classes
                    .get(class)
                    .ok_or_else(|| LangError::new(*line, format!("unknown class `{class}`")))?;
                let class_id = info.id;
                m.mark(format!("L{line}: new {class}"));
                m.new_obj(class_id);
                // Java semantics: int fields read as 0 before any write.
                for field in self.compiler.int_fields(class_id) {
                    m.dup().push_int(0).putfield_named(class_id, &field);
                }
                // Constructor protocol: `init`, looked up through the
                // chain; `new C` with no parens skips construction only
                // when no init exists.
                let init = self.compiler.lookup_method(class_id, "init", *line).ok();
                match init {
                    Some(sig) => {
                        if args.len() != sig.params.len() {
                            return Err(LangError::new(
                                *line,
                                format!(
                                    "`{class}.init` expects {} argument(s), got {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                            ));
                        }
                        if sig.ret.is_some() {
                            return Err(LangError::new(
                                *line,
                                "constructors (`init`) must not return a value",
                            ));
                        }
                        m.dup();
                        for (arg, want) in args.iter().zip(&sig.params) {
                            let ty = self.emit_expr(m, arg)?;
                            self.check_assign(&ty, want, arg.line())?;
                        }
                        m.call(sig.method);
                    }
                    None if args.is_empty() => {}
                    None => {
                        return Err(LangError::new(
                            *line,
                            format!("class `{class}` has no `init` constructor"),
                        ))
                    }
                }
                Ok(Some(Ty::Class(class_id)))
            }
            Expr::NewArray { elem, len, line } => {
                let elem_ty = self.compiler.resolve_type(elem, *line)?;
                let lty = self.emit_expr(m, len)?;
                self.expect(&lty, &Ty::Int, *line, "array length")?;
                m.mark(format!(
                    "L{line}: new {}[]",
                    self.compiler.ty_name(&elem_ty)
                ));
                m.new_array();
                if elem_ty == Ty::Int {
                    // Java semantics: int[] elements read as 0.
                    m.dup().call(self.compiler.zero_fill);
                }
                Ok(Some(Ty::Array(Box::new(elem_ty))))
            }
        }
    }
}

fn stmt_line(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::Var { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::If { line, .. }
        | Stmt::While { line, .. }
        | Stmt::Return { line, .. }
        | Stmt::Print { line, .. }
        | Stmt::ExprStmt { line, .. } => *line,
    }
}
