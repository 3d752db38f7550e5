//! The heap-event interface through which profilers observe a run.
//!
//! This is the Rust analogue of the paper's JVM instrumentation: the VM
//! reports object creation, each of the five kinds of object *use*, object
//! reclamation, deep-GC sample points, sampled retaining paths, and program
//! exit. A profiler implements [`HeapObserver`] and is attached via
//! [`Vm::run_observed`](crate::interp::Vm::run_observed).
//!
//! Every event is a `#[non_exhaustive]` struct built through a constructor
//! (`new` plus `with_*` extenders), so future event fields — like the
//! retain samples added after the first release of this interface — extend
//! the API without breaking existing `HeapObserver` implementations or
//! event producers outside this crate.

use crate::ids::{ChainId, ClassId, ObjectId};
use crate::retain::RetainPath;

/// Which of the paper's five events constituted a use of the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseKind {
    /// Reading a field (`getfield`).
    GetField,
    /// Writing a field (`putfield`).
    PutField,
    /// Invoking a method on the object (`invokevirtual`).
    Invoke,
    /// Entering its monitor (`monitorenter`).
    MonitorEnter,
    /// Exiting its monitor (`monitorexit`).
    MonitorExit,
    /// Dereferencing its handle: array element access / array length, as
    /// native code would do through the handle table.
    HandleDeref,
}

impl UseKind {
    /// All use kinds, in declaration order.
    pub const ALL: [UseKind; 6] = [
        UseKind::GetField,
        UseKind::PutField,
        UseKind::Invoke,
        UseKind::MonitorEnter,
        UseKind::MonitorExit,
        UseKind::HandleDeref,
    ];

    /// A lowercase stable name, used in metric labels and log rendering.
    pub fn name(&self) -> &'static str {
        match self {
            UseKind::GetField => "getfield",
            UseKind::PutField => "putfield",
            UseKind::Invoke => "invoke",
            UseKind::MonitorEnter => "monitorenter",
            UseKind::MonitorExit => "monitorexit",
            UseKind::HandleDeref => "handlederef",
        }
    }
}

/// An object was allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct AllocEvent {
    /// Run-unique object id.
    pub object: ObjectId,
    /// Class of the object ([`Program::builtins`](crate::program::Program)
    /// `.array` for arrays).
    pub class: ClassId,
    /// Object size in bytes: header plus fields/elements, 8-byte aligned.
    /// Excludes the handle and the profiling trailer, per the paper.
    pub size: u64,
    /// Allocation-clock time (bytes allocated so far, including this one).
    pub time: u64,
    /// Nested allocation site.
    pub site: ChainId,
}

impl AllocEvent {
    /// Builds an allocation event.
    pub fn new(object: ObjectId, class: ClassId, size: u64, time: u64, site: ChainId) -> Self {
        AllocEvent {
            object,
            class,
            size,
            time,
            site,
        }
    }
}

/// An object was used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct UseEvent {
    /// The object used.
    pub object: ObjectId,
    /// What kind of use.
    pub kind: UseKind,
    /// Allocation-clock time of the use.
    pub time: u64,
    /// Nested last-use site candidate.
    pub site: ChainId,
}

impl UseEvent {
    /// Builds a use event.
    pub fn new(object: ObjectId, kind: UseKind, time: u64, site: ChainId) -> Self {
        UseEvent {
            object,
            kind,
            time,
            site,
        }
    }
}

/// An object was reclaimed by GC (or survived to program exit, in which case
/// the VM reports it with the end-of-run time after the final deep GC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FreeEvent {
    /// The object reclaimed.
    pub object: ObjectId,
    /// Allocation-clock time of reclamation.
    pub time: u64,
    /// True if the object was still reachable at program exit and is being
    /// reported as-if collected then.
    pub at_exit: bool,
}

impl FreeEvent {
    /// Builds a free event (GC reclamation; `at_exit` defaults to false).
    pub fn new(object: ObjectId, time: u64) -> Self {
        FreeEvent {
            object,
            time,
            at_exit: false,
        }
    }

    /// Marks the event as an at-exit survivor report.
    #[must_use]
    pub fn with_at_exit(mut self, at_exit: bool) -> Self {
        self.at_exit = at_exit;
        self
    }
}

/// A deep-GC cycle finished; a sample point for heap-size curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct GcEvent {
    /// Allocation-clock time of the sample.
    pub time: u64,
    /// Bytes of objects reachable after the cycle (excluding pinned objects).
    pub reachable_bytes: u64,
    /// Number of reachable objects (excluding pinned objects).
    pub reachable_count: u64,
}

impl GcEvent {
    /// Builds a deep-GC sample with an empty census.
    pub fn new(time: u64) -> Self {
        GcEvent {
            time,
            reachable_bytes: 0,
            reachable_count: 0,
        }
    }

    /// Sets the reachable-heap census.
    #[must_use]
    pub fn with_reachable(mut self, bytes: u64, count: u64) -> Self {
        self.reachable_bytes = bytes;
        self.reachable_count = count;
        self
    }
}

/// A retaining path was sampled for a surviving object during a deep-GC
/// mark (see [`crate::retain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RetainEvent {
    /// The sampled object (marked, i.e. it survived the collection).
    pub object: ObjectId,
    /// Object size in bytes — the sample's weight.
    pub size: u64,
    /// Allocation-clock time of the collection.
    pub time: u64,
    /// The bounded retaining path, already rendered.
    pub path: RetainPath,
}

impl RetainEvent {
    /// Builds a retain-sample event.
    pub fn new(object: ObjectId, size: u64, time: u64, path: RetainPath) -> Self {
        RetainEvent {
            object,
            size,
            time,
            path,
        }
    }
}

/// How an observer wants [`HeapObserver::on_use`] events delivered.
///
/// Only the *fast* interpreter honors this hint; the reference interpreter
/// always delivers per access, which is what makes it the oracle of the
/// differential harness. Allocation, free, deep-GC, and exit events are
/// always delivered in full regardless of the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UseDelivery {
    /// Deliver every use event as it happens (the reference behavior, and
    /// the default).
    #[default]
    PerAccess,
    /// Do not deliver use events at all. For observers that ignore
    /// `on_use`, this makes the fast interpreter's use path branch-free.
    /// Under this mode use-site chains are not interned either, so the
    /// VM's site table may contain fewer entries than a per-access run.
    Skip,
    /// Deliver at most one use event per object per GC window: the *last*
    /// use observed since the previous flush, delivered at GC safepoints
    /// (any collection) and at program exit, with its original timestamp.
    /// Exactly equivalent to per-access delivery for observers whose
    /// `on_use` is last-write-wins per object (like the drag profiler's
    /// trailer update).
    Coalesced,
}

/// Whether an observer wants [`HeapObserver::on_retain_sample`] events.
///
/// Like [`UseDelivery`], this is a standing hint the VM reads before a
/// collection: under [`RetainDelivery::Skip`] (the default, and
/// [`NullObserver`]'s choice) the mark loop runs without any edge
/// tracking, so observers that ignore retain samples pay nothing.
/// Sampling additionally requires a [`RetainConfig`](crate::retain::RetainConfig)
/// on the VM; the hint alone does not enable it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetainDelivery {
    /// Do not sample retaining paths (the default).
    #[default]
    Skip,
    /// Sample retaining paths at the configured rate during deep-GC marks.
    Sample,
}

/// Receiver of heap events during a run.
///
/// All methods have empty default bodies so observers implement only what
/// they need. The VM never reports events for *pinned* objects (the stand-in
/// for `Class` objects and the special objects reachable from them, which
/// the paper excludes).
pub trait HeapObserver {
    /// An object was allocated.
    fn on_alloc(&mut self, event: AllocEvent) {
        let _ = event;
    }

    /// An object was used.
    fn on_use(&mut self, event: UseEvent) {
        let _ = event;
    }

    /// An object was reclaimed.
    fn on_free(&mut self, event: FreeEvent) {
        let _ = event;
    }

    /// A deep-GC sample point.
    fn on_deep_gc(&mut self, event: GcEvent) {
        let _ = event;
    }

    /// A retaining path was sampled during a deep-GC mark. Delivered only
    /// when [`HeapObserver::retain_delivery`] opts in *and* the VM was
    /// configured with a sampling rate.
    fn on_retain_sample(&mut self, event: RetainEvent) {
        let _ = event;
    }

    /// The program exited normally; `time` is the final allocation clock.
    /// Survivor objects have already been reported through
    /// [`HeapObserver::on_free`] with `at_exit = true`.
    fn on_exit(&mut self, time: u64) {
        let _ = time;
    }

    /// How this observer wants use events delivered (a hint the fast
    /// interpreter uses to cheapen its hot path; see [`UseDelivery`]).
    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::PerAccess
    }

    /// Whether this observer wants retain samples (see [`RetainDelivery`]).
    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Skip
    }
}

/// An observer that ignores everything; the default when none is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl HeapObserver for NullObserver {
    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::Skip
    }
}

/// An observer that counts events; handy in tests and smoke checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CountingObserver {
    /// Number of allocation events seen.
    pub allocs: u64,
    /// Number of use events seen.
    pub uses: u64,
    /// Number of free events seen (including at-exit ones).
    pub frees: u64,
    /// Number of frees reported at exit.
    pub exit_frees: u64,
    /// Number of deep-GC samples seen.
    pub gcs: u64,
    /// Number of retain samples seen.
    pub retains: u64,
    /// Whether `on_exit` fired.
    pub exited: bool,
}

impl CountingObserver {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl HeapObserver for CountingObserver {
    fn on_alloc(&mut self, _: AllocEvent) {
        self.allocs += 1;
    }
    fn on_use(&mut self, _: UseEvent) {
        self.uses += 1;
    }
    fn on_free(&mut self, event: FreeEvent) {
        self.frees += 1;
        if event.at_exit {
            self.exit_frees += 1;
        }
    }
    fn on_deep_gc(&mut self, _: GcEvent) {
        self.gcs += 1;
    }
    fn on_retain_sample(&mut self, _: RetainEvent) {
        self.retains += 1;
    }
    fn on_exit(&mut self, _: u64) {
        self.exited = true;
    }
    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_ignores_everything() {
        let mut o = NullObserver;
        o.on_exit(7);
        o.on_deep_gc(GcEvent::new(0));
        assert_eq!(o.retain_delivery(), RetainDelivery::Skip);
    }

    #[test]
    fn counting_observer_counts() {
        let mut o = CountingObserver::new();
        o.on_alloc(AllocEvent::new(ObjectId(1), ClassId(0), 16, 16, ChainId(0)));
        o.on_free(FreeEvent::new(ObjectId(1), 32).with_at_exit(true));
        o.on_retain_sample(RetainEvent::new(
            ObjectId(1),
            16,
            24,
            RetainPath::new("static X.y", 0, false),
        ));
        o.on_exit(32);
        assert_eq!(o.allocs, 1);
        assert_eq!(o.frees, 1);
        assert_eq!(o.exit_frees, 1);
        assert_eq!(o.retains, 1);
        assert!(o.exited);
    }

    #[test]
    fn event_builders_populate_fields() {
        let gc = GcEvent::new(100).with_reachable(2048, 3);
        assert_eq!(
            (gc.time, gc.reachable_bytes, gc.reachable_count),
            (100, 2048, 3)
        );
        let free = FreeEvent::new(ObjectId(9), 7);
        assert!(!free.at_exit);
        let alloc = AllocEvent::new(ObjectId(1), ClassId(2), 24, 48, ChainId(3));
        assert_eq!(alloc.size, 24);
        let use_ = UseEvent::new(ObjectId(1), UseKind::Invoke, 50, ChainId(3));
        assert_eq!(use_.kind, UseKind::Invoke);
    }

    #[test]
    fn all_use_kinds_enumerated() {
        assert_eq!(UseKind::ALL.len(), 6);
    }
}
