//! The paper's workflow over real source code: profile the original
//! program, read the report, apply the one-line rewriting (see the two
//! `.hdj` files), re-profile, and measure the savings — then let the
//! automatic optimizer try to match the manual edit.
//!
//! ```sh
//! cargo run --example source_savings
//! ```

use heapdrag::core::{
    profile, DragAnalyzer, Integrals, ProgramNamer, ReportSections, SavingsReport, VmConfig,
};
use heapdrag::lang::compile_source;
use heapdrag::transform::optimizer::{optimize_iteratively, OptimizerOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original_src = std::fs::read_to_string("examples/webindex_original.hdj")?;
    let revised_src = std::fs::read_to_string("examples/webindex_revised.hdj")?;
    let original = compile_source(&original_src)?;
    let revised = compile_source(&revised_src)?;

    // Phase 1 + 2 on the original: where is the drag?
    let run = profile(&original, &[], VmConfig::profiling())?;
    let report = DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
    let namer = ProgramNamer {
        program: &original,
        sites: &run.sites,
    };
    println!(
        "{}",
        ReportSections::standard(&report, &namer).top(4).render()
    );

    // The manual rewriting (one added line in the source).
    let run_rev = profile(&revised, &[], VmConfig::profiling())?;
    assert_eq!(run.outcome.output, run_rev.outcome.output, "same answers");
    let manual = SavingsReport::new(
        Integrals::from_records(&run.records),
        Integrals::from_records(&run_rev.records),
    );
    println!(
        "manual `buffer = null;`:  drag saving {:.1} %, space saving {:.1} %",
        manual.drag_saving_pct(),
        manual.space_saving_pct()
    );

    // The automatic §5 pipeline on the original bytecode.
    let mut auto = original.clone();
    optimize_iteratively(
        &mut auto,
        &[],
        VmConfig::profiling(),
        OptimizerOptions::default(),
        3,
    )?;
    let run_auto = profile(&auto, &[], VmConfig::profiling())?;
    assert_eq!(run.outcome.output, run_auto.outcome.output, "same answers");
    let auto_savings = SavingsReport::new(
        Integrals::from_records(&run.records),
        Integrals::from_records(&run_auto.records),
    );
    println!(
        "automatic optimizer:      drag saving {:.1} %, space saving {:.1} %",
        auto_savings.drag_saving_pct(),
        auto_savings.space_saving_pct()
    );
    println!("\n(the liveness analysis finds the same death point the human did)");
    Ok(())
}
