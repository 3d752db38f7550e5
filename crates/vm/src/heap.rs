//! The handle-indirected object heap and its allocation clock.
//!
//! Like Sun JVM 1.2 ("classic VM"), whose memory system the paper
//! instruments, objects are addressed through *handles*: stable slots that
//! indirect to the object payload. Handles carry a generation counter so a
//! dereference of a reclaimed object is caught deterministically — the VM
//! equivalent of a segfault, and a property the GC tests lean on.
//!
//! Time is measured in **bytes allocated since the beginning of program
//! execution** (the paper's clock); [`Heap::clock`] advances on every
//! allocation by the object's size.

use std::fmt;

use crate::ids::{ClassId, ObjectId};
use crate::value::Value;

/// Bytes of per-object header (mirrors the paper's accounting, which counts
/// header and alignment but not handle or trailer).
pub const HEADER_BYTES: u64 = 16;
/// Bytes per field or array-element slot.
pub const SLOT_BYTES: u64 = 8;
/// Object alignment.
pub const ALIGN_BYTES: u64 = 8;

/// The most slots an object may have: Java's bound on array length.
const MAX_SLOTS: usize = i32::MAX as usize;

/// Size in bytes of an object with `slots` fields or elements (saturating
/// at `u64::MAX` for lengths no heap could hold).
pub fn object_size(slots: usize) -> u64 {
    let raw = HEADER_BYTES.saturating_add((slots as u64).saturating_mul(SLOT_BYTES));
    raw.div_ceil(ALIGN_BYTES).saturating_mul(ALIGN_BYTES)
}

/// An indirect reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    index: u32,
    generation: u32,
}

impl Handle {
    /// Reconstructs a handle from raw parts (used in tests).
    pub fn from_parts(index: u32, generation: u32) -> Self {
        Self { index, generation }
    }

    /// The slot index in the handle table.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ref@{}", self.index)
    }
}

/// A heap object: class, payload slots, and GC metadata.
#[derive(Debug, Clone)]
pub struct Object {
    /// Run-unique id (never reused, unlike the handle slot).
    pub id: ObjectId,
    /// The object's class (`builtins.array` for arrays).
    pub class: ClassId,
    /// Field values (instances) or elements (arrays).
    pub data: Vec<Value>,
    /// True for arrays.
    pub is_array: bool,
    /// Size in bytes, as reported to profilers.
    pub size_bytes: u64,
    /// Pinned objects model `Class` objects: permanent roots, invisible to
    /// observers.
    pub pinned: bool,
    pub(crate) marked: bool,
    pub(crate) old: bool,
    pub(crate) finalize_pending: bool,
    pub(crate) finalized: bool,
}

struct Slot {
    generation: u32,
    object: Option<Object>,
}

/// Running totals maintained by the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Total bytes ever allocated (equals the final clock).
    pub allocated_bytes: u64,
    /// Total objects ever allocated.
    pub allocated_objects: u64,
    /// Objects freed by GC.
    pub freed_objects: u64,
    /// Bytes freed by GC.
    pub freed_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u64,
    /// Full (major) collections run.
    pub full_collections: u64,
    /// Minor (nursery) collections run.
    pub minor_collections: u64,
    /// Objects traced by the mark phase across all collections — the GC work
    /// measure used by the deterministic cost model.
    pub traced_objects: u64,
}

impl HeapStats {
    /// Publishes the totals into `registry` under `vm_heap_*` names.
    ///
    /// Counter values are *added*, so publish once per run; the peak is a
    /// gauge (set, saturating at `i64::MAX`).
    pub fn publish(&self, registry: &heapdrag_obs::Registry) {
        registry
            .counter("vm_heap_alloc_bytes_total")
            .add(self.allocated_bytes);
        registry
            .counter("vm_heap_alloc_objects_total")
            .add(self.allocated_objects);
        registry
            .counter("vm_heap_freed_bytes_total")
            .add(self.freed_bytes);
        registry
            .counter("vm_heap_freed_objects_total")
            .add(self.freed_objects);
        registry
            .counter("vm_heap_gc_full_total")
            .add(self.full_collections);
        registry
            .counter("vm_heap_gc_minor_total")
            .add(self.minor_collections);
        registry
            .counter("vm_heap_traced_objects_total")
            .add(self.traced_objects);
        registry
            .gauge("vm_heap_peak_live_bytes")
            .set(i64::try_from(self.peak_live_bytes).unwrap_or(i64::MAX));
    }
}

/// The object heap.
#[derive(Default)]
pub struct Heap {
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    next_id: u64,
    clock: u64,
    live_bytes: u64,
    live_count: u64,
    limit: Option<u64>,
    /// Old objects that may have been mutated to point at young objects.
    pub(crate) remembered: Vec<Handle>,
    stats: HeapStats,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("live_count", &self.live_count)
            .field("live_bytes", &self.live_bytes)
            .field("clock", &self.clock)
            .finish()
    }
}

impl Heap {
    /// Creates an empty heap with no size limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a heap that reports out-of-memory when live bytes would
    /// exceed `limit`.
    pub fn with_limit(limit: u64) -> Self {
        Heap {
            limit: Some(limit),
            ..Self::default()
        }
    }

    /// The allocation clock: bytes allocated since the start of the run.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Bytes of currently live (unreclaimed) objects, including pinned ones.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of currently live objects.
    pub fn live_count(&self) -> u64 {
        self.live_count
    }

    /// The configured heap limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Running statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut HeapStats {
        &mut self.stats
    }

    /// True if an object of `slots` value slots cannot be allocated: it
    /// would take the live bytes past the limit, or, limit or not, it is
    /// longer than an array may be.
    pub fn would_exceed_limit(&self, slots: usize) -> bool {
        slots > MAX_SLOTS
            || self
                .limit
                .is_some_and(|limit| self.live_bytes.saturating_add(object_size(slots)) > limit)
    }

    /// Allocates an object; advances the clock by its size.
    ///
    /// Does **not** check the heap limit — the interpreter checks
    /// [`Heap::would_exceed_limit`] first so it can attempt a collection
    /// before declaring out-of-memory.
    pub fn alloc(&mut self, class: ClassId, slots: usize, is_array: bool, pinned: bool) -> Handle {
        let size = object_size(slots);
        self.clock += size;
        self.live_bytes += size;
        self.live_count += 1;
        self.stats.allocated_bytes = self.clock;
        self.stats.allocated_objects += 1;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.live_bytes);
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let object = Object {
            id,
            class,
            data: vec![Value::Null; slots],
            is_array,
            size_bytes: size,
            pinned,
            marked: false,
            old: false,
            finalize_pending: false,
            finalized: false,
        };
        match self.free_slots.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.object.is_none());
                slot.object = Some(object);
                Handle {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    object: Some(object),
                });
                Handle {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Dereferences a handle.
    ///
    /// Returns `None` for stale handles (object already reclaimed) — a VM
    /// bug if it ever happens during interpretation.
    pub fn get(&self, handle: Handle) -> Option<&Object> {
        let slot = self.slots.get(handle.index())?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.object.as_ref()
    }

    /// Mutable dereference; see [`Heap::get`].
    pub fn get_mut(&mut self, handle: Handle) -> Option<&mut Object> {
        let slot = self.slots.get_mut(handle.index())?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.object.as_mut()
    }

    /// The collector's sweep: visits every live object in slot order and
    /// frees each one `keep` returns false for, bumping the slot's
    /// generation so outstanding handles go stale. Slot order fixes the
    /// order of the free list, and with it every later handle.
    pub(crate) fn sweep(&mut self, mut keep: impl FnMut(&mut Object) -> bool) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            let Some(object) = slot.object.as_mut() else {
                continue;
            };
            if keep(object) {
                continue;
            }
            let size = object.size_bytes;
            slot.object = None;
            slot.generation = slot.generation.wrapping_add(1);
            self.free_slots.push(index as u32);
            self.live_bytes -= size;
            self.live_count -= 1;
            self.stats.freed_objects += 1;
            self.stats.freed_bytes += size;
        }
    }

    /// Iterates over `(handle, object)` for all live objects.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &Object)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.object.as_ref().map(|o| {
                (
                    Handle {
                        index: i as u32,
                        generation: slot.generation,
                    },
                    o,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_size_accounting() {
        assert_eq!(object_size(0), 16);
        assert_eq!(object_size(1), 24);
        assert_eq!(object_size(2), 32);
        assert_eq!(object_size(100), 816);
    }

    #[test]
    fn clock_advances_by_size() {
        let mut heap = Heap::new();
        heap.alloc(ClassId(0), 2, false, false);
        assert_eq!(heap.clock(), 32);
        heap.alloc(ClassId(0), 0, false, false);
        assert_eq!(heap.clock(), 48);
        assert_eq!(heap.live_bytes(), 48);
        assert_eq!(heap.live_count(), 2);
    }

    #[test]
    fn handles_go_stale_after_free() {
        let mut heap = Heap::new();
        let h = heap.alloc(ClassId(0), 1, false, false);
        assert!(heap.get(h).is_some());
        heap.sweep(|_| false);
        assert_eq!(heap.stats().freed_bytes, 24);
        assert!(heap.get(h).is_none(), "stale handle must not resolve");
        // Slot is recycled with a new generation.
        let h2 = heap.alloc(ClassId(0), 1, false, false);
        assert_eq!(h2.index(), h.index());
        assert!(heap.get(h).is_none());
        assert!(heap.get(h2).is_some());
    }

    #[test]
    fn object_ids_are_unique_across_slot_reuse() {
        let mut heap = Heap::new();
        let h1 = heap.alloc(ClassId(0), 0, false, false);
        let id1 = heap.get(h1).unwrap().id;
        heap.sweep(|_| false);
        let h2 = heap.alloc(ClassId(0), 0, false, false);
        let id2 = heap.get(h2).unwrap().id;
        assert_ne!(id1, id2);
    }

    #[test]
    fn limit_checks() {
        let mut heap = Heap::with_limit(64);
        assert!(!heap.would_exceed_limit(2)); // 32 <= 64
        heap.alloc(ClassId(0), 2, false, false);
        assert!(!heap.would_exceed_limit(2)); // 64 <= 64
        heap.alloc(ClassId(0), 2, false, false);
        assert!(heap.would_exceed_limit(0));
    }

    #[test]
    fn stats_track_peaks_and_frees() {
        let mut heap = Heap::new();
        heap.alloc(ClassId(0), 10, true, false);
        heap.alloc(ClassId(0), 0, false, false);
        heap.sweep(|o| !o.is_array);
        let s = heap.stats();
        assert_eq!(s.allocated_objects, 2);
        assert_eq!(s.freed_objects, 1);
        assert_eq!(s.freed_bytes, object_size(10));
        assert_eq!(s.peak_live_bytes, object_size(10) + object_size(0));
        assert_eq!(heap.live_count(), 1);
    }

    #[test]
    fn iter_visits_live_objects() {
        let mut heap = Heap::new();
        heap.alloc(ClassId(0), 0, false, false);
        let b = heap.alloc(ClassId(1), 0, false, false);
        heap.sweep(|o| o.class == ClassId(1));
        let live: Vec<_> = heap.iter().map(|(h, _)| h).collect();
        assert_eq!(live, vec![b]);
    }
}
