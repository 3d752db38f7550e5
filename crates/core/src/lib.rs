//! # heapdrag-core
//!
//! The drag heap profiler of *Heap Profiling for Space-Efficient Java*
//! (Shaham, Kolodner & Sagiv, PLDI 2001), on top of
//! [`heapdrag-vm`](heapdrag_vm).
//!
//! The tool has two phases:
//!
//! 1. **On-line** ([`profiler`]): a [`DragProfiler`] observes a VM run,
//!    maintaining a *trailer* per object — creation time, last-use time and
//!    site, size, nested allocation site — and emitting an
//!    [`record::ObjectRecord`] when the object is reclaimed (the VM forces a
//!    deep GC every 100 KB of allocation so collection time approximates
//!    unreachability time). Records can be serialised to a [`log`] file.
//! 2. **Off-line** ([`analyzer`]): partition records by nested allocation
//!    site, coarse site, and (allocation, last-use) site pair; accumulate
//!    the *drag* space-time product per site; classify each site's
//!    lifetime [`pattern`]; and print a drag-sorted [`report`] that points
//!    the programmer (or the `heapdrag-transform` optimizer) at the
//!    rewriting opportunities.
//!
//! [`timeline`] reconstructs Figure 2's reachable/in-use curves,
//! [`integrals`] the space-time integrals, and [`compare`] the savings
//! ratios of Tables 2 and 3.
//!
//! Every off-line entry point is reachable through one builder,
//! [`Pipeline`]: a byte buffer or any reader, strict or salvage fault
//! policy, any shard count, either trace format — all through one
//! streaming ingest engine ([`stream`]). For production-size
//! traces both off-line stages — log decoding and per-site aggregation —
//! run sharded across worker threads; see [`parallel`] for the
//! [`ParallelConfig`] knobs and the determinism argument (reports are
//! byte-identical for every shard count). Traces larger than memory
//! stream through [`Pipeline::analyze_reader`], which reads any
//! [`std::io::Read`] in bounded memory (see [`stream`]).
//!
//! Logs from crashed, killed, or out-of-disk runs can still be analyzed:
//! salvage mode ([`Pipeline::salvage`]) drops what cannot be decoded,
//! repairs a missing end-of-log marker, and reports a [`SalvageSummary`];
//! see [`log`] for the stable [`ErrorCode`] taxonomy.
//!
//! ```
//! use heapdrag_core::{profile, DragAnalyzer, VmConfig};
//! use heapdrag_vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), heapdrag_vm::VmError> {
//! let mut b = ProgramBuilder::new();
//! let main = b.declare_method("main", None, true, 1, 2);
//! {
//!     let mut m = b.begin_body(main);
//!     m.push_int(1000).mark("a big array").new_array().store(1);
//!     m.load(1).push_int(0).push_int(7).astore(); // one use
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let program = b.finish()?;
//!
//! let run = profile(&program, &[], VmConfig::profiling())?;
//! let report = DragAnalyzer::new().analyze(&run.records, |c| run.sites.innermost(c));
//! assert_eq!(report.by_nested_site.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod codec;
pub mod compare;
pub mod engine;
pub mod histogram;
pub mod integrals;
pub mod live;
pub mod log;
pub mod parallel;
pub mod pattern;
pub mod pipeline;
pub mod profiler;
pub mod record;
pub mod report;
pub mod serve;
pub mod stream;
pub mod timeline;
mod u256;

pub use analyzer::{AnalyzerConfig, DragAnalyzer, DragReport};
pub use codec::{BinarySink, LogFormat, TextSink, TraceSink};
pub use compare::SavingsReport;
pub use engine::{
    ColdSite, DragEngine, EngineConfig, EngineSnapshot, IdleHistogram, SiteIdleSummary,
    SnapshotSite, WindowSpec,
};
pub use live::{run_live, LiveOptions, LiveRun};
pub use histogram::{Buckets, LifetimeHistogram};
pub use integrals::Integrals;
pub use log::{
    ErrorCode, IngestConfig, IngestMode, Ingested, LogError, ParsedLog, SalvageSummary,
};
pub use parallel::{ParallelConfig, ParallelMetrics, ShardMetrics};
pub use pipeline::{Pipeline, PipelineError, StreamReport};
pub use pattern::{LifetimePattern, PatternConfig, TransformKind};
pub use profiler::{profile, profile_with, DragProfiler, ProfileRun, ProfilerMetrics};
pub use record::{GcSample, ObjectRecord, RetainRecord};
pub use report::{anchor_site, ChainNamer, ProgramNamer, ReportSections};
pub use serve::{
    ServeConfig, ServeManager, SessionId, SessionSource, SessionSpec, SessionState,
    SessionSummary, WorkerPool,
};
pub use stream::StreamStats;
pub use timeline::{Timeline, TimelinePoint};

// Re-export the VM config so downstream users rarely need heapdrag-vm
// directly for simple profiling.
pub use heapdrag_vm::interp::VmConfig;
