//! # heapdrag-testkit
//!
//! A replacement for the slice of `rand` + `proptest` the workspace
//! actually uses (no external crates, so the test suite builds and runs
//! with the network disabled), plus a seeded generator of verifier-valid
//! VM programs for differential interpreter testing.
//!
//! Five pieces:
//!
//! * [`Rng`] — a deterministic SplitMix64 generator with the handful of
//!   sampling helpers the generators in `tests/` need (ranges, booleans,
//!   slice picks, sized vectors).
//! * [`check`] — a minimal property runner: it derives one seed per case
//!   from a base seed, hands a fresh [`Rng`] to the property closure, and
//!   on panic reports the case number and failing seed so the case can be
//!   replayed with `TESTKIT_SEED=<seed> TESTKIT_CASES=1`.
//! * [`fault`] — seeded log corruptors modelling what
//!   crashed/killed/out-of-disk runs do to trace files, for exercising
//!   the salvage parser: [`Fault`]/[`inject`] for line-oriented text
//!   logs, [`BinaryFault`]/[`inject_binary`] for HDLOG v2 frame streams.
//! * [`reader`] — pathological [`std::io::Read`] wrappers
//!   ([`TrickleReader`], [`StutterReader`]) that deliver input in
//!   adversarially small or misaligned pieces, for exercising streaming
//!   ingestion.
//! * [`genprog`] — a seeded random-program generator ([`random_program`])
//!   emitting verifier-valid bytecode with megamorphic virtual call
//!   sites, exception handlers, finalizers, and deep call chains, for
//!   pinning the fast interpreter against the reference one.
//!
//! ```
//! use heapdrag_testkit::{check, Rng};
//!
//! check("addition commutes", 64, |rng: &mut Rng| {
//!     let a = rng.range_i64(-1000, 1000);
//!     let b = rng.range_i64(-1000, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod genprog;
pub mod reader;
pub mod rng;
pub mod runner;

pub use fault::{
    complete_frames, inject, inject_binary, BinaryFault, BinaryFaultReport, Fault, FaultReport,
};
pub use genprog::random_program;
pub use reader::{StutterReader, TrickleReader};
pub use rng::Rng;
pub use runner::{check, check_with, Config};
