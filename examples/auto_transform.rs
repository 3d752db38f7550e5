//! The §5 "future work", running: profile a benchmark, let the
//! profile-guided optimizer apply whichever of the three rewritings each
//! hot site's lifetime pattern suggests (validated by the static
//! analyses), and measure the savings — no hand edits.
//!
//! ```sh
//! cargo run --example auto_transform -- raytrace
//! ```

use heapdrag::core::{profile, Integrals, SavingsReport, VmConfig};
use heapdrag::transform::optimizer::{optimize_iteratively, OptimizerOptions};
use heapdrag::workloads::workload_by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "raytrace".to_string());
    let workload = workload_by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let input = (workload.default_input)();
    let original = workload.original();

    let mut optimized = original.clone();
    let outcome = optimize_iteratively(
        &mut optimized,
        &input,
        VmConfig::profiling(),
        OptimizerOptions::default(),
        3,
    )?;

    println!("=== transformations applied to `{name}` ===");
    for a in &outcome.applied {
        println!("  [{}] {}", a.kind, a.detail);
    }
    if outcome.applied.is_empty() {
        println!("  (none — every hot site was refused by a safety check)");
    }
    println!("\n=== refusals (safety checks that said no) ===");
    for (_, reason) in outcome.refused.iter().take(6) {
        println!("  - {reason}");
    }

    let before = profile(&original, &input, VmConfig::profiling())?;
    let after = profile(&optimized, &input, VmConfig::profiling())?;
    assert_eq!(
        before.outcome.output, after.outcome.output,
        "the optimizer must preserve program behaviour"
    );
    let savings = SavingsReport::new(
        Integrals::from_records(&before.records),
        Integrals::from_records(&after.records),
    );
    println!("\n=== result (behaviour verified identical) ===");
    println!(
        "drag saving: {:.1} %   space saving: {:.1} %",
        savings.drag_saving_pct(),
        savings.space_saving_pct()
    );
    println!(
        "(manual rewriting of {name} in our Table 2 saves a comparable share;\n the paper's authors did this by hand — §5 asks for exactly this automation)"
    );
    Ok(())
}
