//! `jess` — SPECjvm98 expert system shell.
//!
//! Three of the paper's findings meet here (Table 5):
//!
//! * a *private array* element leak in a vector-like structure: "after
//!   removing the logically last element from this array, that element has
//!   no future use. Interestingly, the original code tries to handle this
//!   case … but it does not handle it completely" (§5.2) — our
//!   `jdk.Vector.removeLast`;
//! * a JDK rewrite removing never-used `public static final` locale
//!   objects (§5.1's usage-analysis example);
//! * removal of a never-used `private static` (a debug cache).
//!
//! Overall the paper saves 15.47 % of jess's drag — modest, because most
//! of the engine's heap is genuinely in flux.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the jess program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let jdk = jdk::install(&mut b, variant);

    let fact = b
        .begin_class("jess.Fact")
        .field("id", Visibility::Private)
        .field("slots", Visibility::Private)
        .finish();
    let fact_init = b.declare_method("init", Some(fact), false, 2, 2);
    {
        let mut m = b.begin_body(fact_init);
        m.load(0).load(1).putfield_named(fact, "id");
        m.load(0).push_int(24);
        m.mark("fact slots")
            .new_array()
            .putfield_named(fact, "slots");
        m.ret();
        m.finish();
    }
    let fact_id = b.declare_method("id", Some(fact), false, 1, 1);
    {
        let mut m = b.begin_body(fact_id);
        m.load(0).getfield_named(fact, "id").ret_val();
        m.finish();
    }
    let _ = fact_id;

    // The never-used private static debug cache, and the engine's working
    // memory (rooted in a static like a real engine's singleton).
    let debug_cache = b.static_var("jess.Engine.debugCache", Visibility::Private, Value::Null);
    let wm_static = b.static_var(
        "jess.Engine.workingMemory",
        Visibility::Private,
        Value::Null,
    );

    // cycle(wm, base, asserts, retracts) -> acc : one match-fire-retract
    // cycle over the working memory.
    let cycle = b.declare_method("cycle", None, true, 4, 7);
    {
        // locals: 0 wm, 1 base, 2 asserts, 3 retracts, 4 i, 5 acc, 6 fact
        let mut m = b.begin_body(cycle);
        // assert phase
        m.push_int(0).store(4);
        m.label("assert");
        m.load(4).load(2).cmpge().branch("asserted");
        m.mark("asserted fact").new_obj(fact).dup().store(6);
        m.load(1).load(4).add().call(fact_init);
        m.load(0).load(6).call(jdk.vec_add);
        m.load(4).push_int(1).add().store(4);
        m.jump("assert");
        m.label("asserted");
        // fire phase: read a few facts + rule scratch
        m.push_int(0).store(5);
        m.push_int(0).store(4);
        m.label("fire");
        m.load(4).push_int(8).cmpge().branch("fired");
        m.push_int(16)
            .mark("rule activation scratch")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(5);
        m.load(0)
            .load(4)
            .load(0)
            .call(jdk.vec_size)
            .rem()
            .call(jdk.vec_get);
        m.call_virtual("id", 0);
        m.add().store(5);
        m.load(4).push_int(1).add().store(4);
        m.jump("fire");
        m.label("fired");
        // retract phase: removeLast leaks in the original JDK
        m.push_int(0).store(4);
        m.label("retract");
        m.load(4).load(3).cmpge().branch("retracted");
        m.load(0).call(jdk.vec_remove_last).pop();
        m.load(4).push_int(1).add().store(4);
        m.jump("retract");
        m.label("retracted");
        m.load(5).ret_val();
        m.finish();
    }

    // main(input = [cycles, asserts, retracts])
    let main = b.declare_method("main", None, true, 1, 7);
    {
        // locals: 1 cycles, 2 asserts, 3 retracts, 4 wm, 5 acc, 6 i
        let mut m = b.begin_body(main);
        m.call(jdk.init_locales);
        if variant == Variant::Original {
            // never-used private static debug cache (§3.3.2 removal)
            m.push_int(1500).mark("never-used debug cache").new_array();
            m.putstatic(debug_cache);
        }
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.load(0).push_int(2).aload().store(3);
        m.new_obj(jdk.vector).dup().store(4);
        m.push_int(512).call(jdk.vec_init);
        m.load(4).putstatic(wm_static);
        m.push_int(0).store(5);
        m.push_int(0).store(6);
        m.label("cycles");
        m.load(6).load(1).cmpge().branch("done");
        m.load(5);
        m.load(4)
            .load(6)
            .push_int(100)
            .mul()
            .load(2)
            .load(3)
            .call(cycle);
        m.add().store(5);
        m.load(6).push_int(1).add().store(6);
        m.jump("cycles");
        m.label("done");
        m.load(5).print();
        m.getstatic(jdk.locale_en).call_virtual("code", 0).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("jess builds")
}

/// The jess workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "jess",
        description: "expert system shell",
        build,
        // 40 cycles, 30 asserts / 28 retracts per cycle.
        default_input: || vec![40, 30, 28],
        alternate_input: || vec![30, 26, 22],
        rewriting: "assigning null + code removal (JDK rewrite) + code removal",
        reference_kinds: "private array, public static final, private static",
        expected_analysis: "array liveness, usage, usage (R)",
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
    fn modest_drag_saving() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 15.47 % drag saving, 11.2 % space saving — modest but real.
        assert!(
            s.drag_saving_pct() > 6.0 && s.drag_saving_pct() < 50.0,
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
    fn retracted_facts_leak_only_in_original() {
        // The retract phase leaves net-dead facts reachable through the
        // vector's array in the original; count at-exit survivors.
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let survivors =
            |records: &[heapdrag_core::ObjectRecord]| records.iter().filter(|r| r.at_exit).count();
        assert!(
            survivors(&ro.records) > survivors(&rr.records),
            "original {} vs revised {} at-exit objects",
            survivors(&ro.records),
            survivors(&rr.records)
        );
    }
}
