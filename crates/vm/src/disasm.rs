//! Disassembly of linked programs back into the [`asm`](crate::asm) format.
//!
//! The output round-trips: `assemble(disassemble(p))` yields a program with
//! identical classes, method bodies, and entry point (id numbering may
//! differ for builtins, which are re-created by the assembler).

use std::fmt::Write as _;

use crate::ids::MethodId;
use crate::insn::Insn;
use crate::program::Program;

/// Number of builtin classes created by [`Program::empty`]; these are not
/// printed (the assembler recreates them).
const NUM_BUILTIN_CLASSES: usize = 6;

/// Renders a whole program as assembly text.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for class in program.classes.iter().skip(NUM_BUILTIN_CLASSES) {
        let mut header = format!("class {}", class.name);
        if let Some(sup) = class.super_class {
            if sup != program.builtins.object {
                let _ = write!(header, " extends {}", program.classes[sup.index()].name);
            }
        }
        if class.pinned {
            header.push_str(" pinned");
        }
        let _ = writeln!(out, "{header} {{");
        for f in &class.fields {
            let _ = writeln!(out, "  field {} {}", f.name, f.visibility);
        }
        if let Some(fin) = class.finalizer {
            let _ = writeln!(out, "  finalizer {}", program.methods[fin.index()].name);
        }
        let _ = writeln!(out, "}}");
    }
    for s in &program.statics {
        let init = match s.init {
            crate::value::Value::Int(i) => i.to_string(),
            _ => "null".to_string(),
        };
        let _ = writeln!(out, "static {} {} = {}", s.name, s.visibility, init);
    }
    for (i, _) in program.methods.iter().enumerate() {
        out.push_str(&disassemble_method(program, MethodId(i as u32)));
    }
    let entry = &program.methods[program.entry.index()];
    let _ = writeln!(out, "entry {}", entry.name);
    out
}

/// Renders one method as assembly text.
pub fn disassemble_method(program: &Program, id: MethodId) -> String {
    let m = &program.methods[id.index()];
    let mut out = String::new();
    let full_name = match m.class {
        Some(c) => format!("{}.{}", program.classes[c.index()].name, m.name),
        None => m.name.clone(),
    };
    let staticness = if m.is_static { " static" } else { "" };
    let _ = writeln!(
        out,
        "method {full_name}{staticness} params={} locals={} {{",
        m.num_params, m.num_locals
    );

    // Collect label targets.
    let mut targets: Vec<u32> = m
        .code
        .iter()
        .filter_map(|i| i.jump_target())
        .chain(
            m.handlers
                .iter()
                .flat_map(|h| [h.start_pc, h.end_pc, h.handler_pc]),
        )
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let label_of = |pc: u32| format!("L{pc}");

    for (pc, insn) in m.code.iter().enumerate() {
        let pc = pc as u32;
        if targets.binary_search(&pc).is_ok() {
            let _ = writeln!(out, "{}:", label_of(pc));
        }
        if let Some(site) = m.site_label(pc) {
            let _ = writeln!(out, "  .site \"{site}\"");
        }
        let text = match insn {
            Insn::Jump(t) => format!("jump {}", label_of(*t)),
            Insn::Branch(t) => format!("branch {}", label_of(*t)),
            Insn::BranchIfNull(t) => format!("brnull {}", label_of(*t)),
            Insn::BranchIfNotNull(t) => format!("brnonnull {}", label_of(*t)),
            Insn::New(c) => format!("new {}", program.classes[c.index()].name),
            Insn::InstanceOf(c) => format!("instanceof {}", program.classes[c.index()].name),
            Insn::GetField(slot) => format!("getfield {slot}"),
            Insn::PutField(slot) => format!("putfield {slot}"),
            Insn::GetStatic(s) => format!("getstatic {}", program.statics[s.index()].name),
            Insn::PutStatic(s) => format!("putstatic {}", program.statics[s.index()].name),
            Insn::Call(m2) => {
                let callee = &program.methods[m2.index()];
                let full = match callee.class {
                    Some(c) => format!("{}.{}", program.classes[c.index()].name, callee.name),
                    None => callee.name.clone(),
                };
                format!("call {full}")
            }
            Insn::CallVirtual { vslot, argc } => {
                format!("callvirtual {} {argc}", program.selectors[vslot.index()])
            }
            other => other.to_string(),
        };
        let _ = writeln!(out, "  {text}");
    }
    // Trailing-label case: a handler end can point one past the last insn.
    let end = m.code.len() as u32;
    if targets.binary_search(&end).is_ok() {
        let _ = writeln!(out, "{}:", label_of(end));
        let _ = writeln!(out, "  nop");
    }
    for h in &m.handlers {
        let catch = match h.catch {
            Some(c) => program.classes[c.index()].name.clone(),
            None => "*".to_string(),
        };
        let _ = writeln!(
            out,
            "  .handler {} {} {} {catch}",
            label_of(h.start_pc),
            label_of(h.end_pc),
            label_of(h.handler_pc)
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::interp::{Vm, VmConfig};

    const ROUNDTRIP_SRC: &str = r#"
class Box {
  field value private
}
static G.total public = 0
method Box.get params=1 locals=1 {
  load 0
  getfield Box.value
  retval
}
method main static params=1 locals=2 {
  new Box
  store 1
  load 1
  push 11
  putfield Box.value
  load 1
  callvirtual get 0
  print
  ret
}
entry main
"#;

    #[test]
    fn roundtrip_preserves_behaviour() {
        let p1 = assemble(ROUNDTRIP_SRC).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("re-assembly failed: {e}\n{text}"));
        let out1 = Vm::new(&p1, VmConfig::default()).run(&[]).unwrap().output;
        let out2 = Vm::new(&p2, VmConfig::default()).run(&[]).unwrap().output;
        assert_eq!(out1, out2);
        assert_eq!(out1, vec![11]);
    }

    #[test]
    fn roundtrip_preserves_code_shape() {
        let p1 = assemble(ROUNDTRIP_SRC).unwrap();
        let p2 = assemble(&disassemble(&p1)).unwrap();
        assert_eq!(p1.methods.len(), p2.methods.len());
        for (a, b) in p1.methods.iter().zip(&p2.methods) {
            assert_eq!(a.code, b.code, "method {} differs", a.name);
            assert_eq!(a.handlers, b.handlers);
        }
    }

    #[test]
    fn handlers_roundtrip() {
        let src = r#"
method main static params=1 locals=1 {
t:
  push 1
  push 0
  div
  print
e:
  jump out
c:
  pop
  push 7
  print
out:
  ret
  .handler t e c ArithmeticException
}
entry main
"#;
        let p1 = assemble(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        let out = Vm::new(&p2, VmConfig::default()).run(&[]).unwrap().output;
        assert_eq!(out, vec![7]);
    }
}
