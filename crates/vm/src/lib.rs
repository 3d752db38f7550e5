//! # heapdrag-vm
//!
//! A handle-based bytecode virtual machine with reachability garbage
//! collection and heap-event instrumentation — the execution substrate for
//! the drag profiler of *Heap Profiling for Space-Efficient Java* (Shaham,
//! Kolodner & Sagiv, PLDI 2001).
//!
//! The VM plays the role the instrumented Sun JVM 1.2 plays in the paper:
//!
//! * objects live behind **handles** in an indirected heap
//!   ([`heap::Heap`]), sized as *header + slots, 8-byte aligned*;
//! * the clock is **bytes allocated since program start**
//!   ([`heap::Heap::clock`]);
//! * a **mark-sweep collector** ([`gc`]) reclaims unreachable objects, with
//!   finalization support and an optional generational mode;
//! * every allocation, each of the paper's **five kinds of object use**
//!   (getfield, putfield, invoke, monitor enter/exit, handle dereference),
//!   every reclamation, and every deep-GC sample is reported to an attached
//!   [`observer::HeapObserver`];
//! * **deep GCs** (collect → run finalizers → collect) run every N bytes of
//!   allocation (the paper uses 100 KB — see
//!   [`interp::VmConfig::profiling`]).
//!
//! Programs are built with [`builder::ProgramBuilder`] or parsed from the
//! textual [`asm`] format, and run with [`interp::Vm`]:
//!
//! ```
//! use heapdrag_vm::builder::ProgramBuilder;
//! use heapdrag_vm::interp::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), heapdrag_vm::error::VmError> {
//! let mut b = ProgramBuilder::new();
//! let main = b.declare_method("main", None, true, 1, 1);
//! {
//!     let mut m = b.begin_body(main);
//!     m.push_int(2).push_int(2).add().print().ret();
//!     m.finish();
//! }
//! b.set_entry(main);
//! let program = b.finish()?;
//! let outcome = Vm::new(&program, VmConfig::default()).run(&[])?;
//! assert_eq!(outcome.output, vec![4]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod class;
pub mod code_edit;
pub mod disasm;
pub mod error;
pub mod flow;
pub mod gc;
pub mod heap;
pub mod ids;
pub mod insn;
pub mod interp;
pub mod live;
pub mod metrics;
pub mod observer;
pub mod predecode;
pub mod program;
pub mod retain;
pub mod site;
pub mod value;
mod verify;

pub use builder::ProgramBuilder;
pub use error::VmError;
pub use ids::{ChainId, ClassId, MethodId, ObjectId, SiteId, StaticId, VSlot};
pub use insn::{Insn, OpcodeClass};
pub use interp::{InterpreterKind, RunOutcome, Vm, VmConfig};
pub use live::{ring, LiveEvent, LiveProfiler, LiveShared, RingConsumer, RingProducer};
pub use metrics::VmMetrics;
pub use observer::{HeapObserver, UseDelivery, UseKind};
pub use program::Program;
pub use value::Value;
