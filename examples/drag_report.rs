//! The tool as the paper describes it — two phases connected by a log
//! file: (1) run a benchmark under the instrumented VM, writing object
//! trailers to a log; (2) parse the log and print the allocation sites
//! sorted by drag.
//!
//! ```sh
//! cargo run --example drag_report -- juru            # any Table 1 name
//! cargo run --example drag_report -- jack 15         # top 15 sites
//! ```

use heapdrag::core::{profile, Pipeline, ReportSections, VmConfig};
use heapdrag::workloads::workload_by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "juru".to_string());
    let top: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(10);
    let workload = workload_by_name(&name)
        .ok_or_else(|| format!("unknown workload `{name}` (try juru, jack, euler, …)"))?;
    let program = workload.original();
    let input = (workload.default_input)();

    // Phase 1: profile and write the log file.
    let run = profile(&program, &input, VmConfig::profiling())?;
    let log_path = std::env::temp_dir().join(format!("heapdrag-{name}.log"));
    let mut file = std::fs::File::create(&log_path)?;
    Pipeline::options().write_to(&run, &program, &mut file)?;
    println!(
        "phase 1: profiled `{name}` — {} objects, {} deep GCs, log at {}",
        run.records.len(),
        run.outcome.deep_gcs,
        log_path.display()
    );

    // Phase 2: stream the log back (no program needed) and analyze. The
    // log carries chain names rather than the site table, so the default
    // resolver treats each chain as its own coarse site.
    let streamed = Pipeline::options().analyze_reader(std::fs::File::open(&log_path)?)?;
    println!(
        "\n{}",
        ReportSections::standard(&streamed.report, &streamed)
            .top(top)
            .render()
    );
    println!(
        "manual rewriting for {name} (Table 5): {} ({})",
        workload.rewriting, workload.reference_kinds
    );
    Ok(())
}
