//! Cross-validation of the off-line curve reconstruction against the VM's
//! own deep-GC samples: at every sample time, the reachable size computed
//! from the object records must equal what the collector observed.

use heapdrag::core::{profile, Timeline, VmConfig};
use heapdrag::workloads::all_workloads;

#[test]
fn reconstruction_matches_vm_samples_exactly() {
    for w in all_workloads() {
        for program in [w.original(), w.revised()] {
            let input = (w.default_input)();
            let run = profile(&program, &input, VmConfig::profiling()).expect("runs");
            let times: Vec<u64> = run.samples.iter().map(|s| s.time).collect();
            let reconstructed = Timeline::from_records(&run.records, &times);
            for (i, (sample, point)) in run.samples.iter().zip(&reconstructed.points).enumerate() {
                // Two deep GCs can share one byte-clock tick (e.g. a
                // periodic GC immediately followed by the exit GC with no
                // allocation in between). The records can only express the
                // post-last-GC state of a tick, so compare exactly there
                // and require consistency (collector ≥ records) earlier in
                // the tick.
                let last_of_tick = run
                    .samples
                    .get(i + 1)
                    .is_none_or(|next| next.time != sample.time);
                if last_of_tick {
                    assert_eq!(
                        sample.reachable_bytes, point.reachable,
                        "{}: reachable at t={} (collector vs records)",
                        w.name, sample.time
                    );
                } else {
                    assert!(
                        sample.reachable_bytes >= point.reachable,
                        "{}: earlier same-tick sample can only be larger",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn in_use_never_exceeds_reachable_at_any_sample() {
    for w in all_workloads() {
        let input = (w.default_input)();
        let run = profile(&w.original(), &input, VmConfig::profiling()).expect("runs");
        let t = Timeline::from_run(&run);
        for p in &t.points {
            assert!(
                p.in_use <= p.reachable,
                "{} at t={}: in-use {} > reachable {}",
                w.name,
                p.time,
                p.in_use,
                p.reachable
            );
        }
    }
}

#[test]
fn integrals_bracket_the_sampled_curves() {
    // The reachable integral (exact, from records) must be at least the
    // trapezoid mass of the sampled in-use curve — a coarse but effective
    // sanity relation between the two measurement paths.
    let w = heapdrag::workloads::workload_by_name("euler").unwrap();
    let input = (w.default_input)();
    let run = profile(&w.original(), &input, VmConfig::profiling()).expect("runs");
    let integrals = heapdrag::core::Integrals::from_records(&run.records);
    assert!(integrals.reachable >= integrals.in_use);
    assert!(integrals.drag() > 0, "euler definitely has drag");
}
