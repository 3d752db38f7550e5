//! `jack` — SPECjvm98 parser generator (the ancestor of javacc).
//!
//! §3.4.3: "the three allocation sites producing the largest drag are all
//! in the same constructor. More than 97 % of the drag for these three
//! allocation sites is due to objects that are never-used … One Vector and
//! two HashTable objects are allocated at the allocation sites. References
//! … are assigned to instance fields \[with\] package visibility … We
//! eliminate the allocations and before every possible first use … we add
//! a test to check whether the allocation has already been done." Lazy
//! allocation saves 70 % of jack's drag. The paper notes javacc later
//! adopted similar rewritings.
//!
//! The model generates parsers for `grammars` grammar files. Each run
//! constructs a `ParserGen` whose constructor eagerly allocates a
//! conflict-resolution `Vector` and two `HashTable`s; they are consulted
//! only for the rare grammar with conflicts (input-selected). The revised
//! variant allocates them lazily behind accessor guards.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the jack program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let jdk = jdk::install(&mut b, variant);

    let token = b
        .begin_class("jack.Token")
        .field("kind", Visibility::Private)
        .finish();
    let token_init = b.declare_method("init", Some(token), false, 2, 2);
    {
        let mut m = b.begin_body(token_init);
        m.load(0).load(1).putfield_named(token, "kind");
        m.ret();
        m.finish();
    }
    let token_kind = b.declare_method("kind", Some(token), false, 1, 1);
    {
        let mut m = b.begin_body(token_kind);
        m.load(0).getfield_named(token, "kind").ret_val();
        m.finish();
    }
    let _ = token_kind;

    let pg = b
        .begin_class("jack.ParserGen")
        .field("conflicts", Visibility::Package)
        .field("firstSets", Visibility::Package)
        .field("followSets", Visibility::Package)
        .finish();
    let cf = b.field_slot(pg, "conflicts");
    let fs = b.field_slot(pg, "firstSets");
    let fl = b.field_slot(pg, "followSets");

    // The constructor — the paper's three largest drag sites live here.
    let pg_init = b.declare_method("init", Some(pg), false, 1, 2);
    {
        let mut m = b.begin_body(pg_init);
        if variant == Variant::Original {
            m.mark("eager conflicts Vector")
                .new_obj(jdk.vector)
                .dup()
                .store(1);
            m.push_int(2048).call(jdk.vec_init);
            m.load(0).load(1).putfield(cf);
            m.mark("eager firstSets HashTable")
                .new_obj(jdk.hashtable)
                .dup()
                .store(1);
            m.push_int(1300).call(jdk.ht_init);
            m.load(0).load(1).putfield(fs);
            m.mark("eager followSets HashTable")
                .new_obj(jdk.hashtable)
                .dup()
                .store(1);
            m.push_int(1300).call(jdk.ht_init);
            m.load(0).load(1).putfield(fl);
        }
        // Revised: fields stay null; accessors allocate on first use.
        m.ret();
        m.finish();
    }

    // Accessors with the paper's lazy-allocation guards (revised only —
    // the original reads the fields directly, which the accessors also
    // model faithfully since the guard never fires on a non-null field).
    let get_conflicts = b.declare_method("conflictsTable", Some(pg), false, 1, 1);
    {
        let mut m = b.begin_body(get_conflicts);
        m.load(0).getfield(cf);
        m.branch_if_not_null("have");
        m.new_obj(jdk.vector).dup();
        m.mark("lazy conflicts Vector")
            .push_int(2048)
            .call(jdk.vec_init);
        m.load(0).swap().putfield(cf);
        m.label("have");
        m.load(0).getfield(cf).ret_val();
        m.finish();
    }
    let get_first = b.declare_method("firstSetsTable", Some(pg), false, 1, 1);
    {
        let mut m = b.begin_body(get_first);
        m.load(0).getfield(fs);
        m.branch_if_not_null("have");
        m.new_obj(jdk.hashtable).dup();
        m.mark("lazy firstSets HashTable")
            .push_int(1300)
            .call(jdk.ht_init);
        m.load(0).swap().putfield(fs);
        m.label("have");
        m.load(0).getfield(fs).ret_val();
        m.finish();
    }
    let get_follow = b.declare_method("followSetsTable", Some(pg), false, 1, 1);
    {
        let mut m = b.begin_body(get_follow);
        m.load(0).getfield(fl);
        m.branch_if_not_null("have");
        m.new_obj(jdk.hashtable).dup();
        m.mark("lazy followSets HashTable")
            .push_int(1300)
            .call(jdk.ht_init);
        m.load(0).swap().putfield(fl);
        m.label("have");
        m.load(0).getfield(fl).ret_val();
        m.finish();
    }

    // generate(pg, grammar_id, tokens, has_conflicts) -> checksum
    let generate = b.declare_method("generate", None, true, 4, 8);
    {
        // locals: 0 pg, 1 id, 2 tokens, 3 conflicts?, 4 i, 5 acc, 6 tok, 7 tbl
        let mut m = b.begin_body(generate);
        m.push_int(0).store(5);
        // tokenize: short-lived token objects, all used
        m.push_int(0).store(4);
        m.label("tok");
        m.load(4).load(2).cmpge().branch("tokked");
        m.mark("token").new_obj(token).dup().store(6);
        m.load(1).load(4).add().call(token_init);
        m.push_int(12)
            .mark("lexer scratch")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(5).load(6).call_virtual("kind", 0).add().store(5);
        m.load(4).push_int(1).add().store(4);
        m.jump("tok");
        m.label("tokked");
        // conflict resolution: the rare path that uses the tables
        m.load(3).push_int(0).cmpeq().branch("no_conflicts");
        m.load(0).call(get_conflicts).store(7);
        m.load(7).push_int(11).call(jdk.vec_add);
        m.load(5).load(7).call(jdk.vec_size).add().store(5);
        m.load(0).call(get_first).store(7);
        m.load(7).push_int(5).push_int(17).call(jdk.ht_put);
        m.load(0).call(get_follow).store(7);
        m.load(7).push_int(9).push_int(23).call(jdk.ht_put);
        m.label("no_conflicts");
        m.load(5).ret_val();
        m.finish();
    }

    // main(input = [grammars, tokens_per_grammar, conflict_stride])
    let main = b.declare_method("main", None, true, 1, 7);
    {
        // locals: 1 grammars, 2 tokens, 3 stride, 4 acc, 5 g, 6 pg
        let mut m = b.begin_body(main);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.load(0).push_int(2).aload().store(3);
        m.push_int(0).store(4);
        m.push_int(0).store(5);
        m.label("grammars");
        m.load(5).load(1).cmpge().branch("done");
        m.new_obj(pg).dup().store(6).call(pg_init);
        m.load(4);
        m.load(6).load(5).load(2);
        // has_conflicts = ((g + 1) % stride == 0)
        m.load(5)
            .push_int(1)
            .add()
            .load(3)
            .rem()
            .push_int(0)
            .cmpeq();
        m.call(generate);
        m.add().store(4);
        m.load(5).push_int(1).add().store(5);
        m.jump("grammars");
        m.label("done");
        m.load(4).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("jack builds")
}

/// The jack workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "jack",
        description: "parser generator",
        build,
        // 12 grammars, 220 tokens each; every 12th grammar has conflicts
        // (>90 % of table objects never used, as the paper reports >97 %).
        default_input: || vec![12, 220, 12],
        alternate_input: || vec![6, 300, 3],
        rewriting: "lazy allocation",
        reference_kinds: "package",
        expected_analysis: "min. code insertion",
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
        for input in [(w.default_input)(), (w.alternate_input)()] {
            let o = Vm::new(&w.original(), VmConfig::default())
                .run(&input)
                .unwrap();
            let r = Vm::new(&w.revised(), VmConfig::default())
                .run(&input)
                .unwrap();
            assert_eq!(o.output, r.output, "input {input:?}");
        }
    }

    #[test]
    fn lazy_allocation_saves_most_drag() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 70.34 % drag saving, 42.06 % space saving — jack's tables
        // dominate its heap.
        assert!(
            s.drag_saving_pct() > 45.0,
            "drag saving {:.1}% (jack-scale, >45%)",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 20.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn table_sites_are_mostly_never_used() {
        let w = workload();
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).unwrap();
        let report =
            heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
        // The top sites by drag should be the ctor's eager tables, mostly
        // never used (only the conflict grammar touches them).
        let top_names: Vec<String> = report
            .by_nested_site
            .iter()
            .take(4)
            .map(|e| run.sites.format_chain(&program, e.site))
            .collect();
        assert!(
            top_names.iter().any(|n| n.contains("ParserGen.init")),
            "constructor table sites lead the report: {top_names:#?}"
        );
    }

    #[test]
    fn conflict_grammar_allocates_lazily_once() {
        let w = workload();
        // stride 1 → every grammar uses its tables: original and revised
        // then allocate the same number of objects.
        let input = vec![3, 50, 1];
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
        assert_eq!(o.heap.allocated_objects, r.heap.allocated_objects);
        // stride large → revised never allocates tables.
        let input = vec![3, 50, 100];
        let o = Vm::new(&w.original(), VmConfig::default())
            .run(&input)
            .unwrap();
        let r = Vm::new(&w.revised(), VmConfig::default())
            .run(&input)
            .unwrap();
        assert_eq!(o.output, r.output);
        assert!(r.heap.allocated_bytes < o.heap.allocated_bytes / 2);
    }
}
