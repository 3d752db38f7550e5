//! In-process live profiling feed: a bounded single-producer /
//! single-consumer ring buffer and the [`LiveProfiler`] observer that
//! forwards heap events through it.
//!
//! The design constraint is the interpreter's fast path: the producer
//! side must **never block and never allocate**. [`RingProducer::push`]
//! is one relaxed load, one acquire load, one slot write, and one
//! release store; when the ring is full the event is *dropped* and a
//! shared overflow counter incremented — the consumer can tell exactly
//! how much it missed, and the analysis layer treats a nonzero drop
//! count as "this run is not byte-reproducible", never as an error.
//!
//! The ring is a power-of-two slot array with free-running head/tail
//! indices (wrapping arithmetic; the mask picks the slot). `push` takes
//! `&mut self` — single-producer is enforced by ownership, not by
//! atomics — and the release store on `tail` publishes the slot write
//! to the consumer's acquire load. Dropping an endpoint never drops
//! in-flight events twice: the ring's own `Drop` reads both indices
//! non-atomically (it has exclusive access by then) and drains the
//! remainder.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, RetainDelivery, RetainEvent, UseDelivery,
    UseEvent,
};

struct RingInner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to pop (consumer-owned; producer reads with Acquire).
    head: AtomicUsize,
    /// Next slot to push (producer-owned; consumer reads with Acquire).
    tail: AtomicUsize,
}

// SAFETY: slots are only touched by the single producer (between
// reserving a tail index and publishing it) or the single consumer
// (between observing a published tail and advancing head); the
// release/acquire pair on `tail` (and symmetrically `head`) orders the
// slot accesses. `T: Send` is required to move values across threads.
unsafe impl<T: Send> Send for RingInner<T> {}
unsafe impl<T: Send> Sync for RingInner<T> {}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            // SAFETY: exclusive access (we are in Drop); every index in
            // [head, tail) holds an initialised value not yet popped.
            unsafe { (*self.buf[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// The producer endpoint of a [`ring`]. Not cloneable: one producer.
pub struct RingProducer<T> {
    inner: Arc<RingInner<T>>,
}

/// The consumer endpoint of a [`ring`]. Not cloneable: one consumer.
pub struct RingConsumer<T> {
    inner: Arc<RingInner<T>>,
}

/// Creates a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to the next power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(RingInner {
        buf,
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        RingProducer {
            inner: Arc::clone(&inner),
        },
        RingConsumer { inner },
    )
}

impl<T> RingProducer<T> {
    /// Offers one value. Returns `false` — without blocking, waiting, or
    /// touching the value's destination slot — when the ring is full.
    pub fn push(&mut self, value: T) -> bool {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == inner.buf.len() {
            return false;
        }
        // SAFETY: the slot at `tail` is not visible to the consumer
        // until the release store below, and the capacity check above
        // proves the consumer has finished with it.
        unsafe { (*inner.buf[tail & inner.mask].get()).write(value) };
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }
}

impl<T> RingConsumer<T> {
    /// Takes the oldest value, or `None` when the ring is momentarily
    /// empty (which says nothing about whether the producer is done).
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        let tail = inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the acquire load of `tail` observed the producer's
        // release store, so the slot at `head` is initialised; the
        // release store on `head` below hands the slot back.
        let value = unsafe { (*inner.buf[head & inner.mask].get()).assume_init_read() };
        inner.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.buf.len()
    }
}

/// One heap event as it crosses the ring — the observer callbacks,
/// reified. `Exit` carries the final allocation-clock value and is the
/// stream terminator. (Not `Copy`: retain samples carry their rendered
/// path.)
#[derive(Debug, Clone)]
pub enum LiveEvent {
    /// An object was allocated.
    Alloc(AllocEvent),
    /// An object was used (read/written/called through).
    Use(UseEvent),
    /// An object was reclaimed, or reported as a survivor at exit.
    Free(FreeEvent),
    /// A periodic deep-GC census.
    DeepGc(GcEvent),
    /// A retaining path was sampled during a deep-GC mark.
    Retain(RetainEvent),
    /// The VM exited; no further events follow.
    Exit {
        /// Final allocation-clock value (bytes ever allocated).
        time: u64,
    },
}

/// Shared state between a [`LiveProfiler`] and its consumer: the
/// overflow count and the done flag.
#[derive(Debug, Default)]
pub struct LiveShared {
    /// Events the ring had no room for, by kind-independent count.
    pub dropped: AtomicU64,
    /// Set when the producer is finished (VM exit or error); once set,
    /// an empty ring means end-of-stream.
    pub done: AtomicBool,
}

/// A [`HeapObserver`] that forwards every heap event into an SPSC ring
/// for an in-process analysis thread, instead of buffering trailers for
/// a post-mortem log. The fast path never blocks: a full ring drops the
/// event and counts it in [`LiveShared::dropped`].
///
/// Uses batched [`UseDelivery::Coalesced`] delivery — at most one use
/// event per object per GC window, flushed with original timestamps at
/// safepoints — exactly like the file-logging `DragProfiler` in
/// `heapdrag-core`: the consumer in `heapdrag-core` feeds these events
/// to a `DragProfiler` of its own, so the trailers it builds are the
/// file-logging path's.
pub struct LiveProfiler {
    tx: RingProducer<LiveEvent>,
    shared: Arc<LiveShared>,
}

impl LiveProfiler {
    /// Wraps the producer endpoint. The matching consumer should hold a
    /// clone of [`shared`](Self::shared) to observe drops and completion.
    pub fn new(tx: RingProducer<LiveEvent>) -> Self {
        LiveProfiler {
            tx,
            shared: Arc::new(LiveShared::default()),
        }
    }

    /// The drop counter and done flag this profiler publishes to.
    pub fn shared(&self) -> Arc<LiveShared> {
        Arc::clone(&self.shared)
    }

    /// Marks the stream finished without an exit event — the error
    /// path's terminator, so a consumer draining the ring terminates
    /// even when the VM never reached `on_exit`.
    pub fn abort(&self) {
        self.shared.done.store(true, Ordering::Release);
    }

    fn offer(&mut self, event: LiveEvent) {
        if !self.tx.push(event) {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl HeapObserver for LiveProfiler {
    fn on_alloc(&mut self, event: AllocEvent) {
        self.offer(LiveEvent::Alloc(event));
    }

    fn on_use(&mut self, event: UseEvent) {
        self.offer(LiveEvent::Use(event));
    }

    fn on_free(&mut self, event: FreeEvent) {
        self.offer(LiveEvent::Free(event));
    }

    fn on_deep_gc(&mut self, event: GcEvent) {
        self.offer(LiveEvent::DeepGc(event));
    }

    fn on_retain_sample(&mut self, event: RetainEvent) {
        self.offer(LiveEvent::Retain(event));
    }

    fn on_exit(&mut self, time: u64) {
        self.offer(LiveEvent::Exit { time });
        self.shared.done.store(true, Ordering::Release);
    }

    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::Coalesced
    }

    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert!(tx.push(1) && tx.push(2) && tx.push(3));
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.push(4) && tx.push(5));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), Some(5));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_without_overwriting() {
        let (mut tx, mut rx) = ring::<u32>(2);
        assert_eq!(tx.capacity(), 2);
        assert!(tx.push(10));
        assert!(tx.push(11));
        assert!(!tx.push(12));
        assert_eq!(rx.pop(), Some(10));
        assert!(tx.push(13));
        assert_eq!(rx.pop(), Some(11));
        assert_eq!(rx.pop(), Some(13));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn drop_releases_inflight_values() {
        let payload = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(8);
        for _ in 0..5 {
            assert!(tx.push(Arc::clone(&payload)));
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn profiler_counts_drops_and_signals_done() {
        let (tx, mut rx) = ring::<LiveEvent>(2);
        let mut profiler = LiveProfiler::new(tx);
        let shared = profiler.shared();
        for t in 0..5u64 {
            profiler.on_exit(t); // any event kind; Exit is simplest to forge
        }
        // Capacity 2: three of the five pushes overflowed.
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 3);
        assert!(shared.done.load(Ordering::Acquire));
        assert!(matches!(rx.pop(), Some(LiveEvent::Exit { time: 0 })));
        assert!(matches!(rx.pop(), Some(LiveEvent::Exit { time: 1 })));
        assert!(rx.pop().is_none());
    }
}
