//! Per-object lifetime records — the contents of the paper's object
//! *trailers*, as written to the log when an object is reclaimed.

use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

/// Everything the profiler knows about one object once it has died (or the
/// program has exited).
///
/// All times are in allocation-clock bytes. The paper's identities hold by
/// construction:
///
/// * *in-use time* = `last_use - created` (zero when never used),
/// * *drag time* = `freed - last_use` (the whole lifetime when never used),
/// * *drag* (space-time product) = `size * drag time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRecord {
    /// Run-unique object id.
    pub object: ObjectId,
    /// Class of the object.
    pub class: ClassId,
    /// Size in bytes (header + slots, aligned; excludes handle and trailer).
    pub size: u64,
    /// Creation time.
    pub created: u64,
    /// Time the object was collected — the approximation of when it became
    /// unreachable (deep GCs every 100 KB keep the approximation tight).
    pub freed: u64,
    /// Time of the last observed use, `None` if never used.
    pub last_use: Option<u64>,
    /// Nested allocation site.
    pub alloc_site: ChainId,
    /// Nested site of the last use, `None` if never used.
    pub last_use_site: Option<ChainId>,
    /// True if the object survived to program exit and was logged then.
    pub at_exit: bool,
}

impl ObjectRecord {
    /// True if the object was never used after creation, optionally
    /// widening "never" by `window` clock bytes to absorb uses that happen
    /// only during construction (the paper folds those into never-used).
    pub fn is_never_used(&self, window: u64) -> bool {
        match self.last_use {
            None => true,
            Some(t) => t.saturating_sub(self.created) <= window,
        }
    }

    /// The time the object was last touched: its last use, or its
    /// creation when never used.
    pub(crate) fn last_touch(&self) -> u64 {
        self.last_use.unwrap_or(self.created)
    }

    /// Bytes of clock time the object was reachable.
    pub fn reachable_time(&self) -> u64 {
        self.freed.saturating_sub(self.created)
    }

    /// Bytes of clock time the object was in use (creation to last use).
    pub fn in_use_time(&self) -> u64 {
        match self.last_use {
            Some(t) => t.saturating_sub(self.created),
            None => 0,
        }
    }

    /// Bytes of clock time the object was dragged (last use, or creation if
    /// never used, to collection).
    pub fn drag_time(&self) -> u64 {
        let from = self.last_use.unwrap_or(self.created).max(self.created);
        self.freed.saturating_sub(from)
    }

    /// The drag space-time product: `size * drag_time` (byte²).
    pub fn drag(&self) -> u128 {
        self.size as u128 * self.drag_time() as u128
    }

    /// The reachable space-time product: `size * reachable_time` (byte²).
    pub fn reachable_product(&self) -> u128 {
        self.size as u128 * self.reachable_time() as u128
    }

    /// The in-use space-time product: `size * in_use_time` (byte²).
    pub fn in_use_product(&self) -> u128 {
        self.size as u128 * self.in_use_time() as u128
    }
}

/// One deep-GC sample: the reachable heap observed at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcSample {
    /// Allocation-clock time of the sample.
    pub time: u64,
    /// Bytes reachable (excluding pinned objects).
    pub reachable_bytes: u64,
    /// Objects reachable (excluding pinned objects).
    pub reachable_count: u64,
}

/// One retaining-path sample: a surviving object, attributed to its
/// allocation site, and the bounded access path that kept it reachable
/// at a deep-GC census (see `heapdrag_vm::retain`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RetainRecord {
    /// Nested allocation site of the sampled object.
    pub alloc_site: ChainId,
    /// Object size in bytes — the sample's weight.
    pub size: u64,
    /// Allocation-clock time of the census that drew the sample.
    pub time: u64,
    /// Number of edge steps between the root and the object.
    pub depth: u32,
    /// True when the real path was longer than the depth bound.
    pub truncated: bool,
    /// The rendered path, e.g. `static Holder.survivor -> Thing.next`.
    pub path: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(created: u64, last_use: Option<u64>, freed: u64, size: u64) -> ObjectRecord {
        ObjectRecord {
            object: ObjectId(1),
            class: ClassId(0),
            size,
            created,
            freed,
            last_use,
            alloc_site: ChainId(0),
            last_use_site: last_use.map(|_| ChainId(0)),
            at_exit: false,
        }
    }

    #[test]
    fn used_object_times() {
        let r = record(100, Some(300), 500, 24);
        assert_eq!(r.reachable_time(), 400);
        assert_eq!(r.in_use_time(), 200);
        assert_eq!(r.drag_time(), 200);
        assert_eq!(r.drag(), 24 * 200);
        assert_eq!(r.reachable_product(), 24 * 400);
        assert_eq!(r.in_use_product(), 24 * 200);
        assert!(!r.is_never_used(0));
    }

    #[test]
    fn never_used_object_drags_its_whole_life() {
        let r = record(100, None, 500, 16);
        assert_eq!(r.in_use_time(), 0);
        assert_eq!(r.drag_time(), 400);
        assert!(r.is_never_used(0));
    }

    #[test]
    fn constructor_window_folds_into_never_used() {
        let r = record(100, Some(100), 500, 16);
        assert!(r.is_never_used(0), "use with no allocation in between");
        let r = record(100, Some(140), 500, 16);
        assert!(!r.is_never_used(0));
        assert!(r.is_never_used(64), "inside the constructor window");
    }

    #[test]
    fn identities_hold() {
        let r = record(0, Some(70), 100, 8);
        assert_eq!(
            r.reachable_product(),
            r.in_use_product() + r.drag(),
            "reachable = in-use + drag, per object"
        );
    }
}
