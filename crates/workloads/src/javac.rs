//! `javac` — the SPECjvm98 Java compiler.
//!
//! The paper's javac rewriting is §5.1's indirect-usage example: "a string
//! is allocated and assigned to an instance field. The field is never used
//! except for assigning its value to other reference variables. These
//! variables are never used; thus, the allocation of the string can be
//! saved" — code removal through a `protected` reference (Table 5),
//! saving 21.8 % of javac's drag.
//!
//! The model compiles `units` compilation units: lexing produces a token
//! vector, parsing builds AST nodes, and code emission folds over them.
//! Every node also allocates a *documentation string* into a protected
//! field that is only ever copied into a second, never-read field. The
//! revised variant does not allocate the strings.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the javac program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let jdk = jdk::install(&mut b, variant);

    let node = b
        .begin_class("javac.Node")
        .field("kind", Visibility::Private)
        .field("left", Visibility::Private)
        .field("doc", Visibility::Protected)
        .field("docAlias", Visibility::Protected)
        .finish();
    // init(this, kind, left, doc?): doc may be null (revised variant).
    let node_init = b.declare_method("init", Some(node), false, 4, 4);
    {
        let mut m = b.begin_body(node_init);
        m.load(0).load(1).putfield_named(node, "kind");
        m.load(0).load(2).putfield_named(node, "left");
        m.load(0).load(3).putfield_named(node, "doc");
        // the indirect use: doc only flows into docAlias, which nothing
        // ever reads
        m.load(0).load(3).putfield_named(node, "docAlias");
        m.ret();
        m.finish();
    }
    let node_kind = b.declare_method("kindOf", Some(node), false, 1, 1);
    {
        let mut m = b.begin_body(node_kind);
        m.load(0).getfield_named(node, "kind").ret_val();
        m.finish();
    }
    let node_left = b.declare_method("leftOf", Some(node), false, 1, 1);
    {
        let mut m = b.begin_body(node_left);
        m.load(0).getfield_named(node, "left").ret_val();
        m.finish();
    }
    let _ = (node_kind, node_left);

    // compileUnit(unit_id, nodes) -> checksum
    let compile_unit = b.declare_method("compileUnit", None, true, 2, 8);
    {
        // locals: 0 id, 1 nodes, 2 i, 3 acc, 4 tokens, 5 cur, 6 doc, 7 prev
        let mut m = b.begin_body(compile_unit);
        // --- lex ---------------------------------------------------------
        m.new_obj(jdk.vector).dup().store(4);
        m.push_int(64).call(jdk.vec_init);
        m.push_int(0).store(2);
        m.label("lex");
        m.load(2).load(1).cmpge().branch("lexed");
        m.load(4).load(0).load(2).mul().call(jdk.vec_add);
        m.load(2).push_int(1).add().store(2);
        m.jump("lex");
        m.label("lexed");
        // --- parse: a left-leaning chain of nodes -------------------------
        m.push_null().store(7);
        m.push_int(0).store(2);
        m.label("parse");
        m.load(2).load(1).cmpge().branch("parsed");
        if variant == Variant::Original {
            // the never-really-used documentation string
            m.mark("doc string").new_obj(jdk.str_class).dup().store(6);
            m.push_int(6).call(jdk.str_init);
        } else {
            m.push_null().store(6);
        }
        m.mark("AST node").new_obj(node).dup().store(5);
        m.load(4).load(2).call(jdk.vec_get); // kind := tokens[i]
        m.load(7); // left := prev
        m.load(6); // doc
        m.call(node_init);
        m.load(5).store(7);
        m.load(2).push_int(1).add().store(2);
        m.jump("parse");
        m.label("parsed");
        // --- emit: fold over the chain ------------------------------------
        m.push_int(0).store(3);
        m.label("emit");
        m.load(7).branch_if_null("emitted");
        m.push_int(20)
            .mark("emitter scratch")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(3).load(7).call_virtual("kindOf", 0).add().store(3);
        m.load(7).call_virtual("leftOf", 0).store(7);
        m.jump("emit");
        m.label("emitted");
        m.load(3).ret_val();
        m.finish();
    }

    // main(input = [units, nodes_per_unit])
    let main = b.declare_method("main", None, true, 1, 5);
    {
        let mut m = b.begin_body(main);
        m.call(jdk.init_locales);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.push_int(0).store(3);
        m.push_int(0).store(4);
        m.label("units");
        m.load(4).load(1).cmpge().branch("done");
        m.load(3);
        m.load(4).load(2).call(compile_unit);
        m.add().store(3);
        m.load(4).push_int(1).add().store(4);
        m.jump("units");
        m.label("done");
        m.load(3).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("javac builds")
}

/// The javac workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "javac",
        description: "java compiler",
        build,
        // 12 units, 90 nodes each.
        default_input: || vec![12, 90],
        alternate_input: || vec![16, 60],
        rewriting: "code removal",
        reference_kinds: "protected",
        expected_analysis: "indirect-usage",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, SavingsReport, VmConfig};
    use heapdrag_vm::interp::Vm;

    #[test]
    fn variants_agree_on_output() {
        let w = workload();
        let input = (w.default_input)();
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
    }

    #[test]
    fn moderate_drag_saving() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 21.8 % drag saving, 7.71 % space saving.
        assert!(
            s.drag_saving_pct() > 10.0 && s.drag_saving_pct() < 45.0,
            "drag saving {:.1}%",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 2.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn static_analysis_confirms_doc_fields_write_only() {
        // The §5.1 claim, checked mechanically: the doc/docAlias fields are
        // written but never read.
        let p = build(Variant::Original);
        let node = p.class_by_name("javac.Node").unwrap();
        let cg = heapdrag_analysis::CallGraph::build(&p);
        let usage = heapdrag_analysis::UsageAnalysis::build(&p, &cg);
        let wo = usage.write_only_fields(&p);
        // fields: kind 0, left 1, doc 2, docAlias 3 (own indices)
        assert!(wo.contains(&(node, 2)), "doc never read: {wo:?}");
        assert!(wo.contains(&(node, 3)), "docAlias never read: {wo:?}");
        assert!(!wo.contains(&(node, 0)), "kind is read");
    }
}
