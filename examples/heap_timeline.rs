//! Figure-2-style heap curves in the terminal: reachable vs in-use size
//! over allocation time, original and revised.
//!
//! ```sh
//! cargo run --example heap_timeline -- euler
//! ```

use heapdrag::core::{profile, Timeline, VmConfig};
use heapdrag::workloads::workload_by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "euler".to_string());
    let workload = workload_by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let input = (workload.default_input)();
    let mut config = VmConfig::profiling();
    config.deep_gc_interval = Some(16 * 1024); // fine sampling for display

    for (variant, program) in [
        ("original", workload.original()),
        ("revised", workload.revised()),
    ] {
        let run = profile(&program, &input, config.clone())?;
        let timeline = Timeline::from_run(&run);
        println!("--- {name} / {variant} ---");
        print!("{}", timeline.ascii_chart(12));
        println!();
    }
    println!("'#' = reachable bytes, '.' = in-use bytes; the gap between the\ncurves is the drag the rewriting attacks (x = allocation time).");
    Ok(())
}
