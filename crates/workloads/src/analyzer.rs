//! `analyzer` — an IBM mutability analyzer (35 K statements in the paper,
//! the largest benchmark).
//!
//! §4.1: "the size of the reachable heap is reduced only after allocating
//! the first 78 MB in the program. This occurs because objects used for
//! the first part of the computation … are not needed later in the
//! computation." Table 5: assigning null to a *local variable and a
//! private static*, expected analysis: liveness — saving 25.34 % of drag
//! and 15.05 % of space.
//!
//! The model's phase 1 builds a class-info graph (rooted in a local and a
//! private static); phase 2 only needs the integer summary computed at the
//! end of phase 1. The revised variant nulls both roots between phases.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

use crate::jdk;
use crate::spec::{Variant, Workload};

/// Builds the analyzer program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let jdk = jdk::install(&mut b, variant);

    let class_info = b
        .begin_class("analyzer.ClassInfo")
        .field("id", Visibility::Private)
        .field("methods", Visibility::Private)
        .finish();
    let ci_init = b.declare_method("init", Some(class_info), false, 2, 2);
    {
        let mut m = b.begin_body(ci_init);
        m.load(0).load(1).putfield_named(class_info, "id");
        m.load(0).push_int(12);
        m.mark("method table")
            .new_array()
            .putfield_named(class_info, "methods");
        m.ret();
        m.finish();
    }
    let ci_id = b.declare_method("idOf", Some(class_info), false, 1, 1);
    {
        let mut m = b.begin_body(ci_id);
        m.load(0).getfield_named(class_info, "id").ret_val();
        m.finish();
    }
    let _ = ci_id;

    let graph_static = b.static_var(
        "analyzer.Mutability.graph",
        Visibility::Private,
        Value::Null,
    );

    // buildGraph(classes) -> graph vector
    let build_graph = b.declare_method("buildGraph", None, true, 1, 5);
    {
        // locals: 0 n, 1 graph, 2 i, 3 ci
        let mut m = b.begin_body(build_graph);
        m.new_obj(jdk.vector).dup().store(1);
        m.push_int(256).call(jdk.vec_init);
        m.push_int(0).store(2);
        m.label("build");
        m.load(2).load(0).cmpge().branch("built");
        m.mark("ClassInfo").new_obj(class_info).dup().store(3);
        m.load(2).call(ci_init);
        m.load(1).load(3).call(jdk.vec_add);
        m.load(2).push_int(1).add().store(2);
        m.jump("build");
        m.label("built");
        m.load(1).ret_val();
        m.finish();
    }

    // summarize(graph) -> int
    let summarize = b.declare_method("summarize", None, true, 1, 4);
    {
        // locals: 0 graph, 1 i, 2 acc
        let mut m = b.begin_body(summarize);
        m.push_int(0).store(1);
        m.push_int(0).store(2);
        m.label("sum");
        m.load(1)
            .load(0)
            .call(jdk.vec_size)
            .cmpge()
            .branch("summed");
        m.load(2);
        m.load(0).load(1).call(jdk.vec_get).call_virtual("idOf", 0);
        m.add().store(2);
        m.load(1).push_int(1).add().store(1);
        m.jump("sum");
        m.label("summed");
        m.load(2).ret_val();
        m.finish();
    }

    // main(input = [classes, report_iters])
    let main = b.declare_method("main", None, true, 1, 6);
    {
        // locals: 1 classes, 2 iters, 3 graph, 4 summary, 5 i
        let mut m = b.begin_body(main);
        m.call(jdk.init_locales);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        // ---- phase 1: build and summarize the graph ----------------------
        m.load(1).call(build_graph).store(3);
        m.load(3).putstatic(graph_static);
        m.load(3).call(summarize).store(4);
        if variant == Variant::Revised {
            // graph not needed in phase 2 — null the local and the static
            m.push_null().store(3);
            m.push_null().putstatic(graph_static);
        }
        // ---- phase 2: produce reports from the summary only --------------
        m.push_int(0).store(5);
        m.label("report");
        m.load(5).load(2).cmpge().branch("reported");
        m.push_int(28)
            .mark("report record")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(4).load(5).add().store(4);
        m.load(5).push_int(1).add().store(5);
        m.jump("report");
        m.label("reported");
        m.load(4).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("analyzer builds")
}

/// The analyzer workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "analyzer",
        description: "mutability analyzer",
        build,
        // 160 classes (~25 KB graph), 1100 report iterations (~270 KB).
        default_input: || vec![160, 1100],
        alternate_input: || vec![120, 1500],
        rewriting: "assigning null",
        reference_kinds: "local variable + private static",
        expected_analysis: "liveness",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, Integrals, SavingsReport, Timeline, VmConfig};
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
    fn drag_saving_in_the_analyzer_band() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 25.34 % drag saving, 15.05 % space saving.
        assert!(
            s.drag_saving_pct() > 12.0 && s.drag_saving_pct() < 60.0,
            "drag saving {:.1}%",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 6.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn reachable_drops_only_after_phase_one() {
        // The paper's description: savings appear only after the first
        // part of the computation.
        let w = workload();
        let input = (w.default_input)();
        // Sample finely enough that deep GCs land inside phase 1 too.
        let mut config = VmConfig::profiling();
        config.deep_gc_interval = Some(8 * 1024);
        let ro = profile(&w.original(), &input, config.clone()).unwrap();
        let rr = profile(&w.revised(), &input, config).unwrap();
        let to = Timeline::from_run(&ro);
        let tr = Timeline::from_run(&rr);
        // Early samples match (graph alive in both); late revised samples
        // drop well below the original.
        let early_o = to.points.first().unwrap().reachable;
        let early_r = tr.points.first().unwrap().reachable;
        assert!(
            (early_o as f64 - early_r as f64).abs() < 0.2 * early_o as f64,
            "phase-1 curves close: {early_o} vs {early_r}"
        );
        let mid_o = to.points[to.points.len() / 2].reachable;
        let mid_r = tr.points[tr.points.len() / 2].reachable;
        assert!(
            (mid_r as f64) < 0.8 * mid_o as f64,
            "phase-2 revised curve drops: {mid_o} vs {mid_r}"
        );
    }
}
