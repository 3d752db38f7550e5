//! # heapdrag-transform
//!
//! The three space-saving program transformations of §3.3 of *Heap
//! Profiling for Space-Efficient Java*, mechanized on top of the
//! [`heapdrag-analysis`](heapdrag_analysis) safety checks — the paper's
//! §5 "future work" of replacing manual code rewriting by a compiler:
//!
//! * [`assign_null`] — insert `pushnull; store` at the death frontier of
//!   every reference local (liveness analysis);
//! * [`dead_code`] — remove allocations whose objects are never used
//!   (indirect-usage analysis + constructor purity + exception analysis);
//! * [`lazy_alloc`] — delay constructor-time allocations to their first
//!   use behind null-check guards (minimal code insertion);
//! * [`optimizer`] — the profile-guided driver that walks a drag report
//!   and applies whichever rewrite the site's lifetime pattern suggests;
//! * [`verify`] — original-vs-revised output equivalence checking.
//!
//! ```
//! use heapdrag_transform::{assign_null_program, check_equivalence, Equivalence};
//! use heapdrag_vm::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let main = b.declare_method("main", None, true, 1, 2);
//! {
//!     let mut m = b.begin_body(main);
//!     m.push_int(500).new_array().store(1);
//!     m.load(1).push_int(0).push_int(9).astore();
//!     m.load(1).push_int(0).aload().print(); // last use of the buffer
//!     m.push_int(64).new_array().pop(); // the buffer drags across this
//!     m.ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let original = b.finish()?;
//!
//! // Mechanically insert `pushnull; store` at every death frontier…
//! let mut revised = original.clone();
//! let inserted = assign_null_program(&mut revised);
//! revised.link()?;
//! assert!(inserted > 0);
//!
//! // …and prove the rewrite changed nothing observable.
//! let verdict = check_equivalence(&original, &revised, &[vec![]])?;
//! assert_eq!(verdict, Equivalence::Same);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign_null;
pub mod dead_code;
pub mod error;
pub mod lazy_alloc;
pub mod optimizer;
pub mod verify;

pub use assign_null::{assign_null_method, assign_null_program, null_static_after};
pub use dead_code::{remove_all_dead_allocations, remove_dead_allocation, DeadCodeContext};
pub use error::TransformError;
pub use lazy_alloc::{apply_lazy_allocation, find_lazy_candidates, lazy_allocate_program};
pub use optimizer::{
    find_path_anchor, optimize, optimize_iteratively, optimize_site, AppliedTransform,
    OptimizationOutcome, OptimizeState, OptimizerOptions, PathAnchor, RewriteOutcome, SiteAttempt,
    SiteStep,
};
pub use verify::{check_equivalence, Equivalence};
