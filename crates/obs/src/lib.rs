//! # heapdrag-obs
//!
//! Zero-dependency observability for the heapdrag pipeline: [`Counter`]s,
//! [`Gauge`]s, fixed-log2-bucket [`Histogram`]s, and lightweight [`Span`]
//! timers, all behind a cheaply-cloneable [`Registry`] that renders both
//! Prometheus text format and a stable sorted-key JSON snapshot.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths touch no locks.** Every metric handle is an `Arc` around
//!    plain atomics updated with `Ordering::Relaxed`; the registry's mutex
//!    is taken only at registration and snapshot time.
//! 2. **Output is byte-stable.** Snapshots iterate `BTreeMap`s (sorted
//!    keys) and every value is an integer (histogram sums are exact `u64`
//!    totals, timings are integer microseconds), so renders are diffable
//!    in CI with no float-formatting variance.
//! 3. **Zero dependencies.** Standard library only, like the rest of the
//!    workspace.
//!
//! Metric names may embed Prometheus-style labels directly, e.g.
//! `vm_dispatch_total{class="arith"}`; the Prometheus renderer groups such
//! series under one `# TYPE` line and merges histogram labels with `le`.
//!
//! The pipeline registers its families by subsystem prefix: `heapdrag_*`
//! for the profiler/analyzer core, `heapdrag_serve_*` for the
//! multi-session service, `heapdrag_optimize_*` for the fleet optimizer,
//! and `heapdrag_live_*` for in-process live mode (events folded,
//! snapshots emitted).
//!
//! ```
//! use heapdrag_obs::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("requests_total").inc();
//! registry.gauge("queue_depth").set(3);
//! let lat = registry.histogram("latency_us");
//! lat.observe(180);
//! {
//!     let _span = lat.start_span(); // records elapsed µs on drop
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["requests_total"], 1);
//! assert!(snapshot.render_prometheus().contains("# TYPE latency_us histogram"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::Registry;
pub use snapshot::Snapshot;
pub use span::Span;
