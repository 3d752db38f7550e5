//! Reachability-based garbage collection: full mark-sweep and an optional
//! generational (nursery) mode.
//!
//! The profiler's *deep GC* (GC → finalizers → GC, where the second GC
//! runs only if the first queued a finalizer) is orchestrated by the
//! interpreter; this module provides the two collection primitives. Full
//! collections also discover objects awaiting finalization: an
//! unreachable, unfinalized object whose class declares a finalizer is
//! resurrected (kept alive together with everything it references) and
//! queued; the interpreter runs the finalizer and the *next* collection
//! can reclaim it.
//!
//! Every mark bit is clear outside a collection: each sweep clears its
//! survivors' bits, so no collection needs an unmark pass.

use std::time::{Duration, Instant};

use crate::heap::{Handle, Heap, Object};
use crate::program::Program;
use crate::retain::{RetainSample, RetainSampler};
use crate::value::Value;

/// Result of a full collection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectOutcome {
    /// Bytes reachable after the collection, excluding pinned objects.
    pub reachable_bytes: u64,
    /// Objects reachable after the collection, excluding pinned objects.
    pub reachable_count: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Objects reclaimed.
    pub freed_count: u64,
    /// Unreachable objects newly queued for finalization (resurrected until
    /// their finalizer runs).
    pub pending_finalizers: Vec<Handle>,
    /// Retaining-path samples drawn during the mark (empty unless the
    /// collection ran through [`collect_full_traced`]).
    pub retain_samples: Vec<RetainSample>,
    /// Wall-clock spent in the collection (pause-time accounting).
    pub elapsed: Duration,
}

/// Result of a minor (nursery-only) collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinorOutcome {
    /// Bytes reclaimed from the nursery.
    pub freed_bytes: u64,
    /// Objects reclaimed from the nursery.
    pub freed_count: u64,
    /// Nursery survivors promoted to the old generation.
    pub promoted: u64,
    /// Wall-clock spent in the collection (pause-time accounting).
    pub elapsed: Duration,
}

fn trace_children(object: &Object, worklist: &mut Vec<Handle>) {
    for value in &object.data {
        if let Value::Ref(h) = value {
            worklist.push(*h);
        }
    }
}

/// Runs a full mark-sweep collection.
///
/// `roots` are the mutator roots (operand stacks, locals, statics). Pinned
/// objects and objects queued for finalization are implicit roots.
/// `on_free` is invoked for every reclaimed non-pinned object, before it is
/// freed.
pub fn collect_full(
    heap: &mut Heap,
    program: &Program,
    roots: &[Handle],
    on_free: &mut dyn FnMut(&Object),
) -> CollectOutcome {
    collect_full_impl(heap, program, roots, on_free, None)
}

/// Runs a full mark-sweep collection with retaining-path sampling.
///
/// Identical to [`collect_full`] — same marking, finalizer resurrection,
/// and sweep — except that the mark loop additionally records each
/// object's discovery edge and draws from the sampler's seeded stream;
/// the resolved samples come back in
/// [`CollectOutcome::retain_samples`]. The sampler's generator state is
/// advanced in place so the caller can carry it to the next collection.
pub fn collect_full_traced(
    heap: &mut Heap,
    program: &Program,
    roots: &[Handle],
    on_free: &mut dyn FnMut(&Object),
    sampler: &mut RetainSampler,
) -> CollectOutcome {
    collect_full_impl(heap, program, roots, on_free, Some(sampler))
}

fn collect_full_impl(
    heap: &mut Heap,
    program: &Program,
    roots: &[Handle],
    on_free: &mut dyn FnMut(&Object),
    mut sampler: Option<&mut RetainSampler>,
) -> CollectOutcome {
    let start = Instant::now();
    debug_assert_marks_clear(heap);

    let mut worklist: Vec<Handle> = roots.to_vec();
    worklist.extend(
        heap.iter()
            .filter(|(_, o)| o.pinned || o.finalize_pending)
            .map(|(h, _)| h),
    );
    let mut traced = 0u64;
    match sampler.as_deref_mut() {
        Some(s) => {
            for &h in &worklist {
                s.note_seed(h);
            }
            mark_traced(heap, &mut worklist, &mut traced, s);
        }
        None => mark(heap, &mut worklist, &mut traced),
    }

    // Resurrect unreachable finalizable objects and queue them. The
    // resurrection mark is never sampled: a finalizer-pending subgraph
    // is not *retained* by the mutator, so it has no retaining path.
    let finalizable = |o: &Object| program.classes[o.class.index()].finalizer.is_some();
    let pending: Vec<Handle> = heap
        .iter()
        .filter(|(_, o)| !o.marked && !o.finalized && !o.finalize_pending && finalizable(o))
        .map(|(h, _)| h)
        .collect();
    for &h in &pending {
        heap.get_mut(h).expect("live").finalize_pending = true;
    }
    worklist.extend_from_slice(&pending);
    mark(heap, &mut worklist, &mut traced);
    heap.stats_mut().traced_objects += traced;

    // Resolve sampled paths while the marked heap is still populated.
    let retain_samples = match sampler {
        Some(s) => {
            s.resolve(heap, program);
            s.take_samples()
        }
        None => Vec::new(),
    };

    // Sweep, clearing the survivors' mark bits as it goes.
    let mut outcome = CollectOutcome {
        pending_finalizers: pending,
        retain_samples,
        ..CollectOutcome::default()
    };
    heap.sweep(|o| {
        if o.marked {
            o.marked = false;
            // Tenure every survivor: with no young objects left, clearing
            // the remembered set below cannot drop a live old-to-young edge.
            o.old = true;
            if !o.pinned {
                outcome.reachable_bytes += o.size_bytes;
                outcome.reachable_count += 1;
            }
            true
        } else {
            if !o.pinned {
                on_free(o);
            }
            outcome.freed_bytes += o.size_bytes;
            outcome.freed_count += 1;
            false
        }
    });
    heap.stats_mut().full_collections += 1;
    heap.remembered.clear();
    outcome.elapsed = start.elapsed();
    outcome
}

/// Runs a minor collection over the nursery (objects not yet promoted).
///
/// Old objects are never reclaimed here; old-to-young edges created by
/// mutation are covered by the heap's remembered set (maintained by the
/// interpreter's write barrier). Nursery objects whose class declares a
/// finalizer are conservatively promoted rather than collected. All
/// survivors are promoted, so the remembered set can be cleared afterwards.
pub fn collect_minor(
    heap: &mut Heap,
    program: &Program,
    roots: &[Handle],
    on_free: &mut dyn FnMut(&Object),
) -> MinorOutcome {
    let start = Instant::now();
    debug_assert_marks_clear(heap);

    let mut worklist: Vec<Handle> = roots.to_vec();
    // Remembered-set entries contribute their outgoing edges.
    let remembered = std::mem::take(&mut heap.remembered);
    for &h in &remembered {
        if let Some(o) = heap.get(h) {
            trace_children(o, &mut worklist);
        }
    }
    // Pinned or finalizable nursery objects survive unconditionally.
    worklist.extend(
        heap.iter()
            .filter(|(_, o)| {
                !o.old
                    && (o.pinned
                        || o.finalize_pending
                        || program.classes[o.class.index()].finalizer.is_some())
            })
            .map(|(h, _)| h),
    );

    let mut traced = 0u64;
    // Mark, skipping old objects entirely.
    while let Some(h) = worklist.pop() {
        let Some(o) = heap.get_mut(h) else { continue };
        if o.old || o.marked {
            continue;
        }
        o.marked = true;
        traced += 1;
        trace_children(o, &mut worklist);
    }
    heap.stats_mut().traced_objects += traced;

    let mut outcome = MinorOutcome::default();
    heap.sweep(|o| {
        if o.old {
            true
        } else if o.marked {
            o.marked = false;
            o.old = true;
            outcome.promoted += 1;
            true
        } else {
            if !o.pinned {
                on_free(o);
            }
            outcome.freed_bytes += o.size_bytes;
            outcome.freed_count += 1;
            false
        }
    });
    heap.stats_mut().minor_collections += 1;
    outcome.elapsed = start.elapsed();
    outcome
}

/// Checks the invariant every collection starts from.
fn debug_assert_marks_clear(heap: &Heap) {
    debug_assert!(
        heap.iter().all(|(_, o)| !o.marked),
        "mark bits must be clear outside a collection"
    );
}

fn mark(heap: &mut Heap, worklist: &mut Vec<Handle>, traced: &mut u64) {
    while let Some(h) = worklist.pop() {
        let Some(o) = heap.get_mut(h) else { continue };
        if o.marked {
            continue;
        }
        o.marked = true;
        *traced += 1;
        trace_children(o, worklist);
    }
}

/// [`mark`] with discovery-edge recording and per-object sampling. Kept
/// as a separate loop so the untraced mark pays nothing for the feature.
fn mark_traced(heap: &mut Heap, worklist: &mut Vec<Handle>, traced: &mut u64, s: &mut RetainSampler) {
    while let Some(h) = worklist.pop() {
        let Some(o) = heap.get_mut(h) else { continue };
        if o.marked {
            continue;
        }
        o.marked = true;
        *traced += 1;
        s.draw(h);
        for (slot, value) in o.data.iter().enumerate() {
            if let Value::Ref(child) = value {
                s.note_edge(*child, h, slot as u32);
                worklist.push(*child);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClassId;

    fn test_program() -> Program {
        let mut p = Program::empty();
        let mut main = crate::class::Method::new("main", 1, 1);
        main.code = vec![crate::insn::Insn::Ret];
        p.methods.push(main);
        p.link().unwrap();
        p
    }

    fn plain_class(p: &Program) -> ClassId {
        p.builtins.object
    }

    #[test]
    fn unreachable_objects_are_swept() {
        let p = test_program();
        let c = plain_class(&p);
        let mut heap = Heap::new();
        let a = heap.alloc(c, 1, false, false);
        let b = heap.alloc(c, 1, false, false);
        // a references b; only a is a root.
        heap.get_mut(a).unwrap().data[0] = Value::Ref(b);
        let orphan = heap.alloc(c, 5, false, false);
        let mut freed = Vec::new();
        let outcome = collect_full(&mut heap, &p, &[a], &mut |o| freed.push(o.id));
        assert_eq!(outcome.freed_count, 1);
        assert_eq!(outcome.reachable_count, 2);
        assert_eq!(freed.len(), 1);
        assert!(heap.get(orphan).is_none());
        assert!(heap.get(a).is_some());
        assert!(heap.get(b).is_some(), "transitively reachable survives");
    }

    #[test]
    fn cycles_are_collected() {
        let p = test_program();
        let c = plain_class(&p);
        let mut heap = Heap::new();
        let a = heap.alloc(c, 1, false, false);
        let b = heap.alloc(c, 1, false, false);
        heap.get_mut(a).unwrap().data[0] = Value::Ref(b);
        heap.get_mut(b).unwrap().data[0] = Value::Ref(a);
        let outcome = collect_full(&mut heap, &p, &[], &mut |_| {});
        assert_eq!(outcome.freed_count, 2);
        assert_eq!(heap.live_count(), 0);
    }

    #[test]
    fn pinned_objects_are_roots_and_unreported() {
        let p = test_program();
        let c = plain_class(&p);
        let mut heap = Heap::new();
        let pinned = heap.alloc(c, 1, false, true);
        let reached = heap.alloc(c, 0, false, false);
        heap.get_mut(pinned).unwrap().data[0] = Value::Ref(reached);
        let mut freed = 0;
        let outcome = collect_full(&mut heap, &p, &[], &mut |_| freed += 1);
        assert_eq!(freed, 0);
        assert_eq!(outcome.freed_count, 0);
        // Pinned objects are excluded from the reachable sample.
        assert_eq!(outcome.reachable_count, 1);
        assert!(heap.get(pinned).is_some());
        assert!(heap.get(reached).is_some());
    }

    #[test]
    fn finalizable_objects_are_resurrected_once() {
        let mut p = Program::empty();
        let mut fin = crate::class::Method::new("finalize", 1, 1);
        fin.is_static = false;
        fin.code = vec![crate::insn::Insn::Ret];
        let fin_id = crate::ids::MethodId(p.methods.len() as u32);
        let mut c = crate::class::ClassDef::new("Finalizable");
        c.super_class = Some(p.builtins.object);
        let cid = ClassId(p.classes.len() as u32);
        fin.class = Some(cid);
        p.methods.push(fin);
        c.finalizer = Some(fin_id);
        p.classes.push(c);
        let mut main = crate::class::Method::new("main", 1, 1);
        main.code = vec![crate::insn::Insn::Ret];
        p.methods.push(main);
        p.entry = crate::ids::MethodId(1);
        p.link().unwrap();

        let mut heap = Heap::new();
        let f = heap.alloc(cid, 0, false, false);
        let mut freed = 0;
        let o1 = collect_full(&mut heap, &p, &[], &mut |_| freed += 1);
        assert_eq!(o1.pending_finalizers, vec![f]);
        assert_eq!(freed, 0, "resurrected, not freed");
        assert!(heap.get(f).is_some());
        // Simulate the finalizer having run.
        {
            let o = heap.get_mut(f).unwrap();
            o.finalize_pending = false;
            o.finalized = true;
        }
        let o2 = collect_full(&mut heap, &p, &[], &mut |_| freed += 1);
        assert!(o2.pending_finalizers.is_empty());
        assert_eq!(freed, 1, "second collection reclaims it");
        assert!(heap.get(f).is_none());
    }

    #[test]
    fn minor_collects_only_nursery() {
        let p = test_program();
        let c = plain_class(&p);
        let mut heap = Heap::new();
        let old = heap.alloc(c, 1, false, false);
        heap.get_mut(old).unwrap().old = true;
        let young_dead = heap.alloc(c, 0, false, false);
        let young_live = heap.alloc(c, 0, false, false);
        let outcome = collect_minor(&mut heap, &p, &[young_live], &mut |_| {});
        assert_eq!(outcome.freed_count, 1);
        assert_eq!(outcome.promoted, 1);
        assert!(heap.get(young_dead).is_none());
        assert!(heap.get(young_live).is_some());
        assert!(heap.get(young_live).unwrap().old, "survivor promoted");
        assert!(heap.get(old).is_some(), "old gen untouched even if unrooted");
    }

    #[test]
    fn remembered_set_keeps_young_referents_alive() {
        let p = test_program();
        let c = plain_class(&p);
        let mut heap = Heap::new();
        let old = heap.alloc(c, 1, false, false);
        heap.get_mut(old).unwrap().old = true;
        let young = heap.alloc(c, 0, false, false);
        heap.get_mut(old).unwrap().data[0] = Value::Ref(young);
        heap.remembered.push(old); // what the write barrier would do
        let outcome = collect_minor(&mut heap, &p, &[], &mut |_| {});
        assert_eq!(outcome.freed_count, 0);
        assert!(heap.get(young).is_some(), "old->young edge kept it alive");
        // Without the remembered set the young object would have died:
        let young2 = heap.alloc(c, 0, false, false);
        heap.get_mut(old).unwrap().data[0] = Value::Ref(young2);
        // (barrier "forgot" to record it)
        let outcome = collect_minor(&mut heap, &p, &[], &mut |_| {});
        assert_eq!(outcome.freed_count, 1, "demonstrates the barrier is load-bearing");
    }
}
