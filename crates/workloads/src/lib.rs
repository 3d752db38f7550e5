//! # heapdrag-workloads
//!
//! The paper's nine-benchmark evaluation suite (Table 1), rebuilt as
//! synthetic programs for the heapdrag VM. Each benchmark models the heap
//! lifetime structure the paper describes for its real counterpart —
//! which transformation applies, at what kind of reference, and roughly
//! how much of the drag it recovers — in an *original* and a *manually
//! revised* variant (plus a default and an alternate input for Tables 2
//! and 3). The [`jdk`] module provides the shared mini class library,
//! including the leaky `Vector.removeLast` the paper fixes inside the JDK
//! for `jess`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod db;
pub mod euler;
pub mod jack;
pub mod javac;
pub mod jdk;
pub mod jess;
pub mod juru;
pub mod mc;
pub mod raytrace;
pub mod spec;

pub use spec::{all_workloads, workload_by_name, Variant, Workload};
