//! # heapdrag-analysis
//!
//! The static analyses of §5 of *Heap Profiling for Space-Efficient Java*
//! — the machinery needed to perform the paper's three space-saving
//! rewritings automatically instead of by hand:
//!
//! | §5 analysis | module |
//! |---|---|
//! | control flow & stack maps (on the VM's frame solver, [`heapdrag_vm::flow`]) | [`cfg`](mod@cfg), [`types`], [`provenance`] |
//! | liveness of reference locals (death points for `assign null`) | [`liveness`](mod@liveness) |
//! | usage analysis (write-only statics/fields) | [`usage`] |
//! | indirect-usage analysis (never-dereferenced allocations) | [`indirect_usage`] |
//! | array liveness / vector idiom (`elements[--size]` leaks) | [`vector_leak`] |
//! | call-graph dependence (CHA, unreachable methods) | [`callgraph`] |
//! | exception analysis (precise-exception safety of removals) | [`exceptions`] |
//! | constructor purity / escape (removability, lazy-allocatability) | [`purity`], [`provenance`] |
//! | use-def chains (\"possible uses of a reference\") | [`reaching`] |
//! | minimal code insertion (first-use guard points) | [`lazy_points`] |
//!
//! All analyses are conservative: they may miss opportunities but never
//! report a transformation as safe when it is not — the property the
//! transformation tests in `heapdrag-transform` exercise.
//!
//! ```
//! use heapdrag_analysis::{death_points, CallGraph, UsageAnalysis};
//! use heapdrag_vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A buffer whose local variable outlives its last use.
//! let mut b = ProgramBuilder::new();
//! let main = b.declare_method("main", None, true, 1, 3);
//! {
//!     let mut m = b.begin_body(main);
//!     m.push_int(1000).new_array().store(1);
//!     m.load(1).push_int(0).aload().pop(); // last use of local 1
//!     m.push_int(8).new_array().store(2); // unrelated work
//!     m.load(2).push_int(0).aload().print();
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let program = b.finish()?;
//!
//! // Liveness finds the death frontier where `pushnull; store 1`
//! // belongs (the assign-null rewriting of §3.3.1).
//! let points = death_points(&program, program.entry)?;
//! assert!(points.iter().any(|p| p.local == 1));
//!
//! // And the call graph / usage analyses answer the §5.4 questions.
//! let callgraph = CallGraph::build(&program);
//! assert!(callgraph.is_reachable(program.entry));
//! let usage = UsageAnalysis::build(&program, &callgraph);
//! assert!(usage.write_only_statics(&program).is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod exceptions;
pub mod global_types;
pub mod indirect_usage;
pub mod lazy_points;
pub mod liveness;
pub mod provenance;
pub mod purity;
pub mod reaching;
pub mod types;
pub mod usage;
pub mod vector_leak;

pub use callgraph::{CallGraph, ClassHierarchy};
pub use cfg::Cfg;
pub use dataflow::{solve, BitProblem, BitSet, Direction};
pub use exceptions::{may_throw, HandlerSet, ThrowSet};
pub use global_types::GlobalTypes;
pub use indirect_usage::{analyze_allocation, IndirectUsage, UseWitness};
pub use lazy_points::{field_read_sites, minimize_guard_sites, scope_methods, FieldReadSite};
pub use liveness::{death_points, liveness, DeathPoint, Liveness};
pub use provenance::{infer_provenance, MethodProv, Prov};
pub use purity::{EffectSummary, Purity};
pub use reaching::{DefSite, ReachingDefs, UseDefChains};
pub use types::{infer, infer_in, AbsType, MethodTypes, TypeEnv, TypeError};
pub use usage::UsageAnalysis;
pub use vector_leak::{find_vector_leaks, VectorLeak};
