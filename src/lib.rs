//! # heapdrag
//!
//! Drag-based heap profiling and space-saving program transformation — a
//! from-scratch reproduction of *Heap Profiling for Space-Efficient Java*
//! (Shaham, Kolodner & Sagiv, PLDI 2001).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`vm`] — the bytecode VM with a handle-indirected heap, byte-clock,
//!   mark-sweep (and generational) GC, and heap-event instrumentation;
//! * [`core`] — the drag profiler: on-line trailer recording, the log
//!   format, and the off-line allocation-site analyzer;
//! * [`analysis`] — the §5 static analyses (liveness, usage,
//!   indirect-usage, call graph, exceptions, purity, stack maps);
//! * [`transform`] — the three mechanical rewritings (assign-null,
//!   dead-code removal, lazy allocation) and the profile-guided optimizer;
//! * [`workloads`] — the nine-benchmark evaluation suite;
//! * [`lang`] — a typed mini-Java front end compiling to the VM;
//! * [`obs`] — zero-dependency observability (counters, gauges, log2
//!   histograms, span timers) behind a registry that renders Prometheus
//!   text and stable JSON; both pipeline phases publish into it and the
//!   CLI dumps a snapshot via `--metrics-out`.
//!
//! ## Quick start
//!
//! ```
//! use heapdrag::core::{profile, DragAnalyzer, ProgramNamer, ReportSections, VmConfig};
//! use heapdrag::vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), heapdrag::vm::VmError> {
//! // Build a program that drags a big buffer across unrelated work.
//! let mut b = ProgramBuilder::new();
//! let main = b.declare_method("main", None, true, 1, 3);
//! {
//!     let mut m = b.begin_body(main);
//!     m.push_int(4000).mark("big buffer").new_array().store(1);
//!     m.load(1).push_int(0).push_int(1).astore(); // last use
//!     m.push_int(0).store(2);
//!     m.label("work");
//!     m.load(2).push_int(100).cmpge().branch("done");
//!     m.push_int(32).new_array().pop(); // unrelated allocation
//!     m.load(2).push_int(1).add().store(2);
//!     m.jump("work");
//!     m.label("done").ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let program = b.finish()?;
//!
//! // Phase 1: profile. Phase 2: analyze and report.
//! let run = profile(&program, &[], VmConfig::profiling())?;
//! let report = DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
//! let namer = ProgramNamer { program: &program, sites: &run.sites };
//! let text = ReportSections::standard(&report, &namer).top(5).render();
//! assert!(text.contains("big buffer"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod fleet;

pub use heapdrag_analysis as analysis;
pub use heapdrag_core as core;
pub use heapdrag_lang as lang;
pub use heapdrag_obs as obs;
pub use heapdrag_transform as transform;
pub use heapdrag_vm as vm;
pub use heapdrag_workloads as workloads;
