//! Table 4's qualitative claim as a test: under the generational
//! collector, the revised variants never cost meaningfully *more* than
//! the originals (the paper's savings are small but mostly positive; a
//! couple of benchmarks regress fractionally, as its javac/analyzer do).

use heapdrag::vm::{Vm, VmConfig};
use heapdrag::workloads::all_workloads;

fn runtime_config() -> VmConfig {
    VmConfig {
        generational: true,
        nursery_bytes: 64 * 1024,
        gc_trigger: Some(768 * 1024),
        ..VmConfig::default()
    }
}

#[test]
fn revised_variants_never_cost_meaningfully_more() {
    for w in all_workloads() {
        let input = (w.default_input)();
        let original = Vm::new(&w.original(), runtime_config())
            .run(&input)
            .expect("original runs");
        let revised = Vm::new(&w.revised(), runtime_config())
            .run(&input)
            .expect("revised runs");
        assert_eq!(original.output, revised.output, "{}", w.name);
        let ratio = revised.cost_units() as f64 / original.cost_units() as f64;
        assert!(
            ratio < 1.05,
            "{}: revised cost ratio {ratio:.3} (orig {}, revised {})",
            w.name,
            original.cost_units(),
            revised.cost_units()
        );
    }
}

#[test]
fn db_variants_cost_identically() {
    let w = heapdrag::workloads::workload_by_name("db").unwrap();
    let input = (w.default_input)();
    let a = Vm::new(&w.original(), runtime_config())
        .run(&input)
        .unwrap();
    let b = Vm::new(&w.revised(), runtime_config()).run(&input).unwrap();
    assert_eq!(a.cost_units(), b.cost_units());
    assert_eq!(a.steps, b.steps);
}

#[test]
fn generational_mode_actually_runs_minor_collections() {
    let w = heapdrag::workloads::workload_by_name("jess").unwrap();
    let input = (w.default_input)();
    let outcome = Vm::new(&w.original(), runtime_config())
        .run(&input)
        .unwrap();
    assert!(
        outcome.heap.minor_collections > 0,
        "nursery collections happened: {:?}",
        outcome.heap
    );
}
