//! `mc` — Monte-Carlo financial simulation.
//!
//! The paper's strongest result: removing never-used allocations (code
//! removal, "local variable + private", 119.95 % of drag) plus nulling a
//! private array (48.87 %) pushes the revised reachable heap **below the
//! original in-use size** — 168.82 % total drag saving, because "many
//! allocations are eliminated".
//!
//! The model simulates `paths` price paths. Each path computes into a
//! short-lived `Sample` (used) **and** allocates a `DiagRecord` with a
//! payload array into a private diagnostics array — records that are never
//! read. The revised variant does not allocate the diagnostics at all and
//! nulls the private results array after mid-run aggregation.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::program::Program;

use crate::spec::{Variant, Workload};

/// Builds the mc program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();

    let sample = b
        .begin_class("mc.Sample")
        .field("value", Visibility::Private)
        .field("path", Visibility::Private)
        .finish();
    // init(this, value, pathLen): the per-path price series is kept — mc's
    // heap is almost entirely *in use*, unlike the other benchmarks.
    let sample_init = b.declare_method("init", Some(sample), false, 3, 3);
    {
        let mut m = b.begin_body(sample_init);
        m.load(0).load(1).putfield_named(sample, "value");
        m.load(0).load(2);
        m.mark("price path array")
            .new_array()
            .putfield_named(sample, "path");
        m.ret();
        m.finish();
    }
    let sample_value = b.declare_method("value", Some(sample), false, 1, 1);
    {
        let mut m = b.begin_body(sample_value);
        m.load(0).getfield_named(sample, "value").ret_val();
        m.finish();
    }
    let _ = sample_value;

    let diag = b
        .begin_class("mc.DiagRecord")
        .field("trace", Visibility::Private)
        .finish();
    let diag_init = b.declare_method("init", Some(diag), false, 2, 2);
    {
        let mut m = b.begin_body(diag_init);
        m.load(0).load(1);
        m.mark("diagnostic trace array")
            .new_array()
            .putfield_named(diag, "trace");
        m.ret();
        m.finish();
    }

    let sim = b
        .begin_class("mc.Sim")
        .field("results", Visibility::Private)
        .finish();
    let rs = b.field_slot(sim, "results");

    // simInit(this, paths)
    let sim_init = b.declare_method("init", Some(sim), false, 2, 2);
    {
        let mut m = b.begin_body(sim_init);
        m.load(0)
            .load(1)
            .mark("results array")
            .new_array()
            .putfield(rs);
        m.ret();
        m.finish();
    }

    // runPath(this, p, traceLen) -> value
    //   locals: 3 scratch, 4 sample, 5 diag (original only)
    let run_path = b.declare_method("runPath", Some(sim), false, 3, 6);
    {
        let mut m = b.begin_body(run_path);
        // price walk scratch (advances the clock, used immediately)
        m.push_int(20).mark("walk scratch").new_array().store(3);
        m.load(3)
            .push_int(0)
            .load(1)
            .push_int(17)
            .mul()
            .push_int(255)
            .rem()
            .astore();
        // the sample, genuinely used and retained until aggregation
        m.new_obj(sample).dup().store(4);
        m.load(3).push_int(0).aload();
        m.push_int(80).call(sample_init);
        m.load(4)
            .getfield_named(sample, "path")
            .push_int(0)
            .load(1)
            .astore();
        m.load(0).getfield(rs).load(1).load(4).astore();
        if variant == Variant::Original {
            // the never-used diagnostic record, held only by a local
            // (paper: code removal of a "local variable + private" site;
            // "allocation and initialization are avoided for objects that
            // are never used")
            m.mark("never-used DiagRecord").new_obj(diag).dup().store(5);
            m.load(2).call(diag_init);
            m.push_null().store(5);
        }
        m.load(4).call_virtual("value", 0).ret_val();
        m.finish();
    }

    // aggregate(this, paths) -> sum: folds each sample's value and the
    // head of its retained price path (so the bulk of the heap is *used*
    // right up to this point — mc's drag is small relative to reachable).
    let aggregate = b.declare_method("aggregate", Some(sim), false, 2, 6);
    {
        // locals: 2 i, 3 acc, 4 results, 5 sample
        let mut m = b.begin_body(aggregate);
        m.load(0).getfield(rs).store(4);
        m.push_int(0).store(2);
        m.push_int(0).store(3);
        m.label("loop");
        m.load(2).load(1).cmpge().branch("done");
        m.load(4).load(2).aload().store(5);
        m.load(3);
        m.load(5).call_virtual("value", 0);
        m.add();
        m.load(5).getfield_named(sample, "path").push_int(0).aload();
        m.add().store(3);
        m.load(2).push_int(1).add().store(2);
        m.jump("loop");
        m.label("done");
        m.load(3).ret_val();
        m.finish();
    }

    // main(input = [paths, trace_len, tail_work])
    let main = b.declare_method("main", None, true, 1, 7);
    {
        // locals: 1 paths, 2 traceLen, 3 tail, 4 sim, 5 acc, 6 i
        let mut m = b.begin_body(main);
        m.load(0).push_int(0).aload().store(1);
        m.load(0).push_int(1).aload().store(2);
        m.load(0).push_int(2).aload().store(3);
        m.new_obj(sim).dup().store(4);
        m.load(1).call(sim_init);
        m.push_int(0).store(5);
        m.push_int(0).store(6);
        m.label("paths_loop");
        m.load(6).load(1).cmpge().branch("paths_done");
        m.load(5);
        m.load(4).load(6).load(2).call(run_path);
        m.add().store(5);
        m.load(6).push_int(1).add().store(6);
        m.jump("paths_loop");
        m.label("paths_done");
        // mid-run aggregation: last use of the results array
        m.load(5).load(4).load(1).call(aggregate).add().store(5);
        if variant == Variant::Revised {
            // null the private results array after its last use
            m.load(4).push_null().putfield(rs);
        }
        // tail work: report formatting etc. (the drag window)
        m.push_int(0).store(6);
        m.label("tail_loop");
        m.load(6).load(3).cmpge().branch("tail_done");
        m.push_int(30)
            .mark("report scratch")
            .new_array()
            .dup()
            .push_int(0)
            .push_int(1)
            .astore()
            .push_int(0)
            .aload()
            .pop();
        m.load(6).push_int(1).add().store(6);
        m.jump("tail_loop");
        m.label("tail_done");
        m.load(5).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("mc builds")
}

/// The mc workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "mc",
        description: "financial simulation",
        build,
        // 700 paths, 60-element diagnostic traces, 1200 tail iterations.
        default_input: || vec![700, 60, 1200],
        alternate_input: || vec![500, 80, 900],
        rewriting: "code removal + assigning null",
        reference_kinds: "local variable + private, private array",
        expected_analysis: "usage (R), array liveness",
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
    fn drag_saving_exceeds_100_percent() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 168.82 % drag saving; reduced reachable below original
        // in-use.
        assert!(
            s.drag_saving_pct() > 100.0,
            "drag saving {:.1}% (mc must beat 100%)",
            s.drag_saving_pct()
        );
        assert!(
            s.beats_original_in_use(),
            "reduced reachable {} vs original in-use {}",
            s.reduced.reachable,
            s.original.in_use
        );
    }

    #[test]
    fn diagnostics_site_is_mostly_never_used() {
        let w = workload();
        let program = w.original();
        let run = profile(&program, &(w.default_input)(), VmConfig::profiling()).unwrap();
        let report =
            heapdrag_core::DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
        // Find the diag site by label and check its classification.
        let entry = report
            .by_nested_site
            .iter()
            .find(|e| {
                run.sites
                    .format_chain(&program, e.site)
                    .contains("never-used DiagRecord")
            })
            .expect("diag site profiled");
        assert_eq!(entry.stats.never_used, entry.stats.objects);
    }
}
