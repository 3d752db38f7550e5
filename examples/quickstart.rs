//! Quick start: build a tiny program, profile it, and read the tool's
//! drag report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use heapdrag::core::{profile, DragAnalyzer, ProgramNamer, ReportSections, VmConfig};
use heapdrag::vm::ProgramBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a classic drag bug: a large buffer is used once and
    // then kept reachable by a local variable across a long computation.
    let mut b = ProgramBuilder::new();
    let main = b.declare_method("main", None, true, 1, 3);
    {
        let mut m = b.begin_body(main);
        m.push_int(20_000)
            .mark("the dragged buffer")
            .new_array()
            .store(1);
        // Fill phase: the buffer is genuinely in use for a while…
        m.push_int(0).store(2);
        m.label("fill");
        m.load(2).push_int(400).cmpge().branch("filled");
        m.load(1).load(2).load(2).astore(); // buffer[i] = i
        m.push_int(16).mark("parser scratch").new_array().pop();
        m.load(2).push_int(1).add().store(2);
        m.jump("fill");
        m.label("filled");
        m.load(1).push_int(3).aload().print(); // last use of the buffer
                                               // …then dragged across a long, unrelated second phase.
        m.push_int(0).store(2);
        m.label("work");
        m.load(2).push_int(2_000).cmpge().branch("done");
        m.push_int(16).mark("transient work").new_array().pop();
        m.load(2).push_int(1).add().store(2);
        m.jump("work");
        m.label("done");
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let program = b.finish()?;

    // Phase 1 (on-line): run under the drag profiler — deep GC every
    // 100 KB of allocation, like the paper's instrumented JVM.
    let run = profile(&program, &[], VmConfig::profiling())?;
    println!(
        "program output: {:?}   ({} objects profiled, {} deep GCs)",
        run.outcome.output,
        run.records.len(),
        run.outcome.deep_gcs
    );

    // Phase 2 (off-line): partition by allocation site, sort by drag.
    let report = DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
    let namer = ProgramNamer {
        program: &program,
        sites: &run.sites,
    };
    println!(
        "\n{}",
        ReportSections::standard(&report, &namer).top(5).render()
    );
    println!("The buffer tops the list: nulling local 1 after its last use\nwould reclaim it at the next GC instead of at program exit.");
    Ok(())
}
