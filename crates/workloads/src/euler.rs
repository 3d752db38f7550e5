//! `euler` — Euler equations solver (Java Grande).
//!
//! The paper: "for euler the size of the reachable heap for the original
//! run has a constant size, because all allocations are done in advance.
//! By assigning null to dead references we were able to reduce most of the
//! drag (76% of it), and the optimized heap size almost coincides with the
//! in-use object size." The rewriting assigns null to *package-visibility
//! array fields* (Table 5), detectable by liveness analysis.
//!
//! The model allocates three large grids up front into package fields of a
//! `Solver`, then runs three phases: phase 1 uses grids A and B, phase 2
//! uses B and C, phase 3 uses only C. The revised variant nulls each grid
//! field after its last phase.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::ids::{ClassId, MethodId};
use heapdrag_vm::program::Program;

use crate::spec::{Variant, Workload};

/// Builds one phase method: `phase(solver, steps, gridX[, gridY]) -> acc`.
///
/// Each step reads/writes the grids and allocates a small scratch array
/// (the solver's temporaries — they advance the byte clock and die fast).
fn build_phase(
    b: &mut ProgramBuilder,
    name: &str,
    solver: ClassId,
    read_grid: &str,
    write_grid: Option<&str>,
) -> MethodId {
    // params: 0 solver, 1 steps; locals: 2 i, 3 acc, 4 grid, 5 wgrid
    let m_id = b.declare_method(name, Some(solver), false, 2, 6);
    let read_slot = b.field_slot(solver, read_grid);
    let write_slot = write_grid.map(|g| b.field_slot(solver, g));
    let mut m = b.begin_body(m_id);
    m.load(0).getfield(read_slot).store(4);
    if let Some(ws) = write_slot {
        m.load(0).getfield(ws).store(5);
    }
    m.push_int(0).store(2);
    m.push_int(0).store(3);
    m.label("step");
    m.load(2).load(1).cmpge().branch("done");
    // scratch temporaries for this step
    m.push_int(40)
        .mark("solver temporaries")
        .new_array()
        .dup()
        .push_int(0)
        .push_int(1)
        .astore()
        .push_int(0)
        .aload()
        .pop();
    // acc += grid[i % len]
    m.load(3);
    m.load(4).load(2).load(4).array_len().rem().aload();
    m.add().store(3);
    if write_slot.is_some() {
        // wgrid[i % len] = acc
        m.load(5).load(2).load(5).array_len().rem().load(3).astore();
    }
    m.load(2).push_int(1).add().store(2);
    m.jump("step");
    m.label("done");
    m.load(3).ret_val();
    m.finish();
    m_id
}

/// Builds the euler program.
pub fn build(variant: Variant) -> Program {
    let mut b = ProgramBuilder::new();
    let solver = b
        .begin_class("euler.Solver")
        .field("gridA", Visibility::Package)
        .field("gridB", Visibility::Package)
        .field("gridC", Visibility::Package)
        .finish();
    let ga = b.field_slot(solver, "gridA");
    let gb = b.field_slot(solver, "gridB");
    let gc = b.field_slot(solver, "gridC");

    // init(this, cells): allocate everything in advance, zero-filled.
    let init = b.declare_method("init", Some(solver), false, 2, 4);
    {
        // local 2: loop idx, local 3: grid scratch
        let mut m = b.begin_body(init);
        for (slot, label) in [(ga, "grid A"), (gb, "grid B"), (gc, "grid C")] {
            m.load(1);
            m.mark(label).new_array().store(3);
            m.load(0).load(3).putfield(slot);
            // zero-fill so phase arithmetic sees ints
            m.push_int(0).store(2);
            m.label(format!("zero{slot}"));
            m.load(2).load(1).cmpge().branch(format!("zeroed{slot}"));
            m.load(3).load(2).push_int(0).astore();
            m.load(2).push_int(1).add().store(2);
            m.jump(format!("zero{slot}"));
            m.label(format!("zeroed{slot}"));
        }
        m.ret();
        m.finish();
    }

    let phase1 = build_phase(&mut b, "phase1", solver, "gridA", Some("gridB"));
    let phase2 = build_phase(&mut b, "phase2", solver, "gridB", Some("gridC"));
    let phase3 = build_phase(&mut b, "phase3", solver, "gridC", None);

    // main(input = [cells, steps])
    let main = b.declare_method("main", None, true, 1, 5);
    {
        let mut m = b.begin_body(main);
        m.load(0).push_int(0).aload().store(1); // cells
        m.load(0).push_int(1).aload().store(2); // steps per phase
        m.new_obj(solver).dup().store(3);
        m.load(1).call(init);
        m.push_int(0).store(4);
        m.load(4).load(3).load(2).call(phase1).add().store(4);
        if variant == Variant::Revised {
            // grid A is dead from here on.
            m.load(3).push_null().putfield(ga);
        }
        m.load(4).load(3).load(2).call(phase2).add().store(4);
        if variant == Variant::Revised {
            m.load(3).push_null().putfield(gb);
        }
        m.load(4).load(3).load(2).call(phase3).add().store(4);
        m.load(4).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().expect("euler builds")
}

/// The euler workload descriptor.
pub fn workload() -> Workload {
    Workload {
        name: "euler",
        description: "Euler equations solver",
        build,
        // 25000-cell grids (~200 KB each), 900 steps/phase (~115 KB of
        // temporaries per phase).
        default_input: || vec![25_000, 900],
        alternate_input: || vec![18_000, 1200],
        rewriting: "assigning null",
        reference_kinds: "package array",
        expected_analysis: "liveness (R)",
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
            assert_eq!(o.output, r.output);
        }
    }

    #[test]
    fn most_drag_removed_by_nulling_grids() {
        let w = workload();
        let input = (w.default_input)();
        let ro = profile(&w.original(), &input, VmConfig::profiling()).unwrap();
        let rr = profile(&w.revised(), &input, VmConfig::profiling()).unwrap();
        let s = SavingsReport::new(
            Integrals::from_records(&ro.records),
            Integrals::from_records(&rr.records),
        );
        // Paper: 76.46 % drag saving, 7.28 % space saving.
        assert!(
            s.drag_saving_pct() > 50.0,
            "drag saving {:.1}% (expected euler-scale, >50%)",
            s.drag_saving_pct()
        );
        assert!(
            s.space_saving_pct() > 3.0,
            "space {:.1}%",
            s.space_saving_pct()
        );
    }

    #[test]
    fn original_reachable_is_roughly_constant() {
        // All allocations up front: after init, the reachable curve stays
        // flat within the garbage ripple.
        let w = workload();
        let run = profile(&w.original(), &(w.default_input)(), VmConfig::profiling()).unwrap();
        // Skip the ramp-up while the grids themselves are being allocated.
        // …and the post-exit sample, where everything is unreachable.
        let heights: Vec<u64> = run
            .samples
            .iter()
            .filter(|s| s.time > 650_000 && s.time < run.outcome.end_time)
            .map(|s| s.reachable_bytes)
            .collect();
        assert!(heights.len() >= 4);
        let max = *heights.iter().max().unwrap() as f64;
        let min = *heights.iter().min().unwrap() as f64;
        assert!(
            min > 0.8 * max,
            "reachable curve nearly flat: min {min}, max {max}"
        );
    }
}
