//! The on-line phase: a [`HeapObserver`] that maintains object trailers and
//! emits [`ObjectRecord`]s as objects die.
//!
//! The paper keeps each object's trailer *inside* the object, so updating
//! it on allocation, use and reclamation is O(1). [`DragProfiler`] keeps
//! the analogue outside the heap as a dense table: object ids are handed
//! out densely and in increasing order within a run, so an allocation
//! pushes the object's [`ObjectRecord`] straight onto the record list and
//! stores its position in a `Vec<u32>` indexed by id. Uses and retain
//! samples update or read that record in place; reclamation finishes it in
//! place. The records therefore come out in id order without a sort, and
//! memory stays one record plus one `u32` per object.
//!
//! This is the only trailer table: the live fold of [`crate::live`]
//! steps a `DragProfiler` with the VM's events through the `record_*`
//! methods, which return what they finished, and folds every record it
//! finishes.

use heapdrag_obs::{Counter, Gauge, Registry};
use heapdrag_vm::error::VmError;
use heapdrag_vm::ids::{ChainId, ObjectId};
use heapdrag_vm::interp::{RunOutcome, Vm, VmConfig};
use heapdrag_vm::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, RetainDelivery, RetainEvent, UseDelivery,
    UseEvent, UseKind,
};
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;

use crate::record::{GcSample, ObjectRecord, RetainRecord};

/// Metric handles for the on-line phase.
///
/// The `heapdrag_*` family is the **reconciliation surface**: the off-line
/// analyzer publishes the same names from the parsed log
/// ([`crate::log::ParsedLog::publish_metrics`]), and the two snapshots must
/// agree exactly. `profiler_events_total{kind="..."}` additionally counts
/// raw observer callbacks per event kind.
#[derive(Debug, Clone)]
pub struct ProfilerMetrics {
    created: Counter,
    alloc_bytes: Counter,
    reclaimed: Counter,
    at_exit: Counter,
    samples: Counter,
    retains: Counter,
    end_time: Gauge,
    ev_alloc: Counter,
    ev_free: Counter,
    ev_deep_gc: Counter,
    ev_exit: Counter,
    ev_use: [Counter; UseKind::ALL.len()],
}

impl ProfilerMetrics {
    /// Registers (or re-attaches to) the profiler metric family in
    /// `registry`.
    pub fn register(registry: &Registry) -> Self {
        ProfilerMetrics {
            created: registry.counter("heapdrag_objects_created_total"),
            alloc_bytes: registry.counter("heapdrag_alloc_bytes_total"),
            reclaimed: registry.counter("heapdrag_objects_reclaimed_total"),
            at_exit: registry.counter("heapdrag_objects_at_exit_total"),
            samples: registry.counter("heapdrag_deep_gc_samples_total"),
            retains: registry.counter("heapdrag_retain_samples_total"),
            end_time: registry.gauge("heapdrag_end_time_bytes"),
            ev_alloc: registry.counter("profiler_events_total{kind=\"alloc\"}"),
            ev_free: registry.counter("profiler_events_total{kind=\"free\"}"),
            ev_deep_gc: registry.counter("profiler_events_total{kind=\"deep_gc\"}"),
            ev_exit: registry.counter("profiler_events_total{kind=\"exit\"}"),
            ev_use: std::array::from_fn(|i| {
                let kind = UseKind::ALL[i].name();
                registry.counter(&format!("profiler_events_total{{kind=\"use_{kind}\"}}"))
            }),
        }
    }
}

/// A drag profiler: attach to a [`Vm`] run (or use the
/// [`profile`] convenience) and collect per-object records plus deep-GC
/// samples.
///
/// Records are kept in id order. Within one run that is allocation order,
/// so no sort is needed; a profiler reused across runs (ids restart at 0)
/// falls back to a stable sort by id at exit.
#[derive(Debug, Default)]
pub struct DragProfiler {
    /// Per object id, `index + 1` of its live record in `records`; 0 for
    /// an object that is not live (finished, or pinned and never
    /// announced).
    slots: Vec<u32>,
    records: Vec<ObjectRecord>,
    samples: Vec<GcSample>,
    retains: Vec<RetainRecord>,
    metrics: Option<ProfilerMetrics>,
}

impl DragProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler that publishes its event counts into `registry`.
    pub fn with_metrics(registry: &Registry) -> Self {
        DragProfiler {
            metrics: Some(ProfilerMetrics::register(registry)),
            ..Self::default()
        }
    }

    /// Consumes the profiler, yielding records, samples, and retain
    /// samples.
    pub fn into_parts(self) -> (Vec<ObjectRecord>, Vec<GcSample>, Vec<RetainRecord>) {
        (self.records, self.samples, self.retains)
    }

    /// The `records` index of `object`'s live record, if it has one.
    fn live_index(&self, object: ObjectId) -> Option<usize> {
        let slot = *self.slots.get(usize::try_from(object.0).ok()?)?;
        (slot != 0).then(|| slot as usize - 1)
    }

    /// Finishes the live record in `slot` at `time`, clears the slot, and
    /// counts it — the single bookkeeping point both
    /// [`record_free`](Self::record_free) and the exit flush go through,
    /// so every object ends up in exactly one of reclaimed / at-exit.
    fn finish(&mut self, slot: usize, time: u64, at_exit: bool) -> &ObjectRecord {
        let index = std::mem::take(&mut self.slots[slot]) as usize - 1;
        if let Some(m) = &self.metrics {
            if at_exit {
                m.at_exit.inc();
            } else {
                m.reclaimed.inc();
            }
        }
        let record = &mut self.records[index];
        record.freed = time;
        record.at_exit = at_exit;
        record
    }

    /// Records a use of a live object (last-write-wins) and returns its
    /// allocation site and the time it was touched before this use — its
    /// previous use, or its creation. `None` when the object has no live
    /// trailer (never announced, or already finished).
    pub(crate) fn record_use(&mut self, event: UseEvent) -> Option<(ChainId, u64)> {
        if let Some(m) = &self.metrics {
            m.ev_use[event.kind as usize].inc();
        }
        let i = self.live_index(event.object)?;
        let record = &mut self.records[i];
        let previous = record.last_touch();
        record.last_use = Some(event.time);
        record.last_use_site = Some(event.site);
        Some((record.alloc_site, previous))
    }

    /// Finishes a reclaimed (or, with `at_exit`, surviving) object's
    /// trailer and returns the finished record; `None` when the object
    /// has no live trailer.
    pub(crate) fn record_free(&mut self, event: FreeEvent) -> Option<&ObjectRecord> {
        if let Some(m) = &self.metrics {
            m.ev_free.inc();
        }
        self.live_index(event.object)?;
        Some(self.finish(event.object.0 as usize, event.time, event.at_exit))
    }

    /// The exit flush: finishes every still-live trailer as an at-exit
    /// record at `time`, handing each to `visit` in id order. The VM
    /// normally reports every survivor itself, so this is defensive.
    pub(crate) fn flush_at_exit(&mut self, time: u64, mut visit: impl FnMut(&ObjectRecord)) {
        if let Some(m) = &self.metrics {
            m.ev_exit.inc();
            m.end_time.set(i64::try_from(time).unwrap_or(i64::MAX));
        }
        for slot in 0..self.slots.len() {
            if self.slots[slot] != 0 {
                visit(self.finish(slot, time, true));
            }
        }
        // Only a profiler reused across runs (ids restart at 0) holds
        // records out of id order.
        if !self.records.is_sorted_by_key(|r| r.object) {
            self.records.sort_by_key(|r| r.object);
        }
    }

    /// `object`'s record while the object is live; `None` once it is
    /// finished or if it was never announced.
    pub(crate) fn live_record(&self, object: ObjectId) -> Option<&ObjectRecord> {
        Some(&self.records[self.live_index(object)?])
    }
}

impl HeapObserver for DragProfiler {
    fn on_alloc(&mut self, event: AllocEvent) {
        if let Some(m) = &self.metrics {
            m.created.inc();
            m.alloc_bytes.add(event.size);
            m.ev_alloc.inc();
        }
        let slot = usize::try_from(event.object.0).expect("object id fits the address space");
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, 0);
        }
        self.records.push(ObjectRecord {
            object: event.object,
            class: event.class,
            size: event.size,
            created: event.time,
            freed: event.time,
            last_use: None,
            alloc_site: event.site,
            last_use_site: None,
            at_exit: false,
        });
        self.slots[slot] = u32::try_from(self.records.len()).expect("fewer than 2^32 records");
    }

    fn on_use(&mut self, event: UseEvent) {
        self.record_use(event);
    }

    fn on_free(&mut self, event: FreeEvent) {
        self.record_free(event);
    }

    fn on_deep_gc(&mut self, event: GcEvent) {
        if let Some(m) = &self.metrics {
            m.samples.inc();
            m.ev_deep_gc.inc();
        }
        self.samples.push(GcSample {
            time: event.time,
            reachable_bytes: event.reachable_bytes,
            reachable_count: event.reachable_count,
        });
    }

    /// The sampled object is alive (it survived the mark), so its trailer
    /// resolves the allocation site; a sample that resolves nothing is
    /// dropped.
    fn on_retain_sample(&mut self, event: RetainEvent) {
        if let Some(m) = &self.metrics {
            m.retains.inc();
        }
        let Some(i) = self.live_index(event.object) else {
            return;
        };
        self.retains.push(RetainRecord {
            alloc_site: self.records[i].alloc_site,
            size: event.size,
            time: event.time,
            depth: event.path.depth,
            truncated: event.path.truncated,
            path: event.path.text,
        });
    }

    fn on_exit(&mut self, time: u64) {
        self.flush_at_exit(time, |_| {});
    }

    /// The trailer update is last-write-wins per object, so the fast
    /// interpreter may deliver only the final use per object per GC window
    /// — the paper's "touch the trailer once per handle", batched.
    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::Coalesced
    }

    /// Retain samples are welcome whenever the VM is configured to draw
    /// them; with no [`RetainConfig`](heapdrag_vm::retain::RetainConfig)
    /// on the VM this hint alone changes nothing.
    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Sample
    }
}

/// A finished profiling run: records, samples, the site table for naming,
/// and the program outcome.
#[derive(Debug)]
pub struct ProfileRun {
    /// One record per object that lived during the run.
    pub records: Vec<ObjectRecord>,
    /// Deep-GC samples, in time order.
    pub samples: Vec<GcSample>,
    /// Retaining-path samples, in draw order (empty unless the config
    /// enables sampling).
    pub retains: Vec<RetainRecord>,
    /// Site table for resolving chain ids to code locations.
    pub sites: SiteTable,
    /// The VM run outcome (program output, steps, GC statistics).
    pub outcome: RunOutcome,
}

impl ProfileRun {
    /// Streams this run's trace to `writer` in `format` — the profiler's
    /// phase-1 output path (also reachable as
    /// [`crate::Pipeline::write_to`]). The trace goes through a streaming
    /// [`crate::codec::TraceSink`], so it never materialises as one
    /// in-memory buffer.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors, and the sinks' `InvalidInput` for a
    /// retain sample with an empty path ([`crate::codec::TraceSink::retain`]).
    pub fn write_log_to<W: std::io::Write>(
        &self,
        program: &Program,
        format: crate::codec::LogFormat,
        writer: W,
    ) -> std::io::Result<u64> {
        crate::log::write_run_to(self, program, format, writer)
    }
}

/// Runs `program` under the drag profiler.
///
/// `config` is usually [`VmConfig::profiling`] (deep GC every 100 KB); the
/// deep-GC interval and site depth may be adjusted for
/// precision/overhead trade-offs, as §2.1.1 of the paper discusses.
///
/// # Errors
///
/// Propagates any [`VmError`] from the run.
pub fn profile(program: &Program, input: &[i64], config: VmConfig) -> Result<ProfileRun, VmError> {
    profile_with(program, input, config, None)
}

/// [`profile`], optionally publishing on-line metrics into `registry`:
/// the VM family (`vm_*`, via [`Vm::attach_metrics`]) and the profiler
/// family (`heapdrag_*`, `profiler_events_total{...}`, via
/// [`DragProfiler::with_metrics`]).
///
/// # Errors
///
/// Propagates any [`VmError`] from the run.
pub fn profile_with(
    program: &Program,
    input: &[i64],
    config: VmConfig,
    registry: Option<&Registry>,
) -> Result<ProfileRun, VmError> {
    let mut profiler = match registry {
        Some(r) => DragProfiler::with_metrics(r),
        None => DragProfiler::new(),
    };
    let mut vm = Vm::new(program, config);
    if let Some(r) = registry {
        vm.attach_metrics(r);
    }
    let outcome = vm.run_observed(input, &mut profiler)?;
    let (records, samples, retains) = profiler.into_parts();
    Ok(ProfileRun {
        records,
        samples,
        retains,
        sites: vm.into_sites(),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::value::Value;

    /// A program that allocates three objects with distinct lifetimes:
    /// one used then dropped, one never used, one held to exit.
    fn lifetime_program() -> (Program, heapdrag_vm::ids::ClassId) {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Thing")
            .field("f", Visibility::Private)
            .finish();
        let filler = b.declare_method("filler", None, true, 0, 1);
        {
            // Allocate ~120KB of garbage to force a deep GC in between.
            let mut m = b.begin_body(filler);
            m.push_int(0).store(0);
            m.label("loop");
            m.load(0).push_int(200).cmpge().branch("done");
            m.push_int(64).new_array().pop();
            m.load(0).push_int(1).add().store(0);
            m.jump("loop");
            m.label("done").ret();
            m.finish();
        }
        let holder = b.static_var("Holder.survivor", Visibility::Public, Value::Null);
        let main = b.declare_method("main", None, true, 1, 4);
        {
            let mut m = b.begin_body(main);
            // used: allocate, use, drop reference
            m.mark("used thing").new_obj(c).store(1);
            m.load(1).push_int(1).putfield(0);
            m.push_null().store(1);
            // never used: allocate, drop
            m.mark("never-used thing").new_obj(c).store(2);
            m.push_null().store(2);
            // survivor: allocate, keep reachable from a static
            m.mark("survivor").new_obj(c).store(3);
            m.load(3).putstatic(holder);
            m.call(filler);
            m.load(3).push_int(2).putfield(0);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), c)
    }

    #[test]
    fn profiler_captures_lifetimes() {
        let (p, c) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        let things: Vec<_> = run.records.iter().filter(|r| r.class == c).collect();
        assert_eq!(things.len(), 3);
        let used = &things[0];
        let never = &things[1];
        let survivor = &things[2];
        assert!(used.last_use.is_some());
        assert!(used.freed < run.outcome.end_time);
        assert!(never.is_never_used(0));
        assert!(survivor.at_exit);
        assert_eq!(survivor.freed, run.outcome.end_time);
        assert!(survivor.last_use.is_some());
    }

    #[test]
    fn samples_are_taken_every_interval() {
        let (p, _) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        // ~205 KB of allocation at 100 KB interval → at least the exit
        // sample plus one periodic sample.
        assert!(run.samples.len() >= 2, "got {} samples", run.samples.len());
        assert!(run.samples.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn smaller_interval_more_samples() {
        let (p, _) = lifetime_program();
        let coarse = profile(&p, &[], VmConfig::profiling()).unwrap();
        let mut fine_cfg = VmConfig::profiling();
        fine_cfg.deep_gc_interval = Some(25 * 1024);
        let fine = profile(&p, &[], fine_cfg).unwrap();
        assert!(fine.samples.len() > coarse.samples.len());
    }

    #[test]
    fn metrics_reconcile_with_collected_records() {
        let (p, _) = lifetime_program();
        let registry = Registry::new();
        let run = profile_with(&p, &[], VmConfig::profiling(), Some(&registry)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["heapdrag_objects_created_total"],
            run.records.len() as u64
        );
        assert_eq!(
            snap.counters["heapdrag_alloc_bytes_total"],
            run.records.iter().map(|r| r.size).sum::<u64>()
        );
        let at_exit = run.records.iter().filter(|r| r.at_exit).count() as u64;
        assert_eq!(snap.counters["heapdrag_objects_at_exit_total"], at_exit);
        assert_eq!(
            snap.counters["heapdrag_objects_reclaimed_total"],
            run.records.len() as u64 - at_exit
        );
        assert_eq!(
            snap.counters["heapdrag_deep_gc_samples_total"],
            run.samples.len() as u64
        );
        assert_eq!(
            snap.gauges["heapdrag_end_time_bytes"],
            run.outcome.end_time as i64
        );
        // VM-side counters agree with the outcome too.
        let dispatch_total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("vm_dispatch_total{"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(dispatch_total, run.outcome.steps);
        assert_eq!(snap.counters["vm_deep_gc_total"], run.outcome.deep_gcs);
        assert_eq!(
            snap.counters["vm_heap_alloc_bytes_total"],
            run.outcome.heap.allocated_bytes
        );
    }

    /// The trailer table `DragProfiler` replaced — a map from object id
    /// to trailer, flushed and sorted at exit — kept as the oracle for
    /// record order and content.
    #[derive(Default)]
    struct MapProfiler {
        live: std::collections::HashMap<ObjectId, ObjectRecord>,
        records: Vec<ObjectRecord>,
        retains: Vec<RetainRecord>,
    }

    impl HeapObserver for MapProfiler {
        fn on_alloc(&mut self, e: AllocEvent) {
            let record = ObjectRecord {
                object: e.object,
                class: e.class,
                size: e.size,
                created: e.time,
                freed: e.time,
                last_use: None,
                alloc_site: e.site,
                last_use_site: None,
                at_exit: false,
            };
            self.live.insert(e.object, record);
        }

        fn on_use(&mut self, e: UseEvent) {
            if let Some(r) = self.live.get_mut(&e.object) {
                r.last_use = Some(e.time);
                r.last_use_site = Some(e.site);
            }
        }

        fn on_free(&mut self, e: FreeEvent) {
            if let Some(mut r) = self.live.remove(&e.object) {
                r.freed = e.time;
                r.at_exit = e.at_exit;
                self.records.push(r);
            }
        }

        fn on_retain_sample(&mut self, e: RetainEvent) {
            if let Some(r) = self.live.get(&e.object) {
                self.retains.push(RetainRecord {
                    alloc_site: r.alloc_site,
                    size: e.size,
                    time: e.time,
                    depth: e.path.depth,
                    truncated: e.path.truncated,
                    path: e.path.text,
                });
            }
        }

        fn on_exit(&mut self, time: u64) {
            for (_, mut r) in self.live.drain() {
                r.freed = time;
                r.at_exit = true;
                self.records.push(r);
            }
            self.records.sort_by_key(|r| r.object);
        }

        fn use_delivery(&self) -> UseDelivery {
            UseDelivery::Coalesced
        }

        fn retain_delivery(&self) -> RetainDelivery {
            RetainDelivery::Sample
        }
    }

    /// Feeds the same events to the dense-table profiler and the oracle.
    fn both(events: impl Fn(&mut dyn HeapObserver)) -> (DragProfiler, MapProfiler) {
        let mut dense = DragProfiler::new();
        let mut oracle = MapProfiler::default();
        events(&mut dense);
        events(&mut oracle);
        (dense, oracle)
    }

    fn alloc(o: &mut dyn HeapObserver, id: u64, time: u64, site: u32) {
        o.on_alloc(AllocEvent::new(
            ObjectId(id),
            heapdrag_vm::ids::ClassId(1),
            16 + id,
            time,
            heapdrag_vm::ids::ChainId(site),
        ));
    }

    fn retain(o: &mut dyn HeapObserver, id: u64, time: u64) {
        let path = heapdrag_vm::retain::RetainPath::new(format!("static Holder.x{id}"), 0, false);
        o.on_retain_sample(RetainEvent::new(ObjectId(id), 16 + id, time, path));
    }

    #[test]
    fn trailer_table_matches_map_oracle_on_handmade_events() {
        use heapdrag_vm::ids::ChainId;
        let (dense, oracle) = both(|o| {
            // Ids 2 and 4 are pinned: numbered, never announced. Their use
            // and free events must not touch any record.
            for (id, site) in [(0, 7), (1, 8), (3, 9), (5, 7), (6, 8)] {
                alloc(o, id, 100 * (id + 1), site);
            }
            o.on_use(UseEvent::new(
                ObjectId(3),
                UseKind::GetField,
                900,
                ChainId(11),
            ));
            o.on_use(UseEvent::new(
                ObjectId(2),
                UseKind::GetField,
                910,
                ChainId(12),
            ));
            o.on_use(UseEvent::new(
                ObjectId(3),
                UseKind::PutField,
                950,
                ChainId(13),
            ));
            // Frees out of id order; the pinned id's free is ignored.
            o.on_free(FreeEvent::new(ObjectId(5), 1000));
            o.on_free(FreeEvent::new(ObjectId(4), 1000));
            o.on_free(FreeEvent::new(ObjectId(1), 1100));
            // A retain sample on a live object resolves its alloc site;
            // one on a freed object and one on a pinned id resolve nothing.
            retain(o, 3, 1200);
            retain(o, 1, 1200);
            retain(o, 2, 1200);
            o.on_free(FreeEvent::new(ObjectId(6), 1300).with_at_exit(true));
            // Objects 0 and 3 are never reported: the exit flush takes them.
            o.on_exit(1300);
        });
        assert_eq!(dense.records, oracle.records);
        assert_eq!(dense.retains, oracle.retains);
        let ids: Vec<u64> = dense.records.iter().map(|r| r.object.0).collect();
        assert_eq!(ids, [0, 1, 3, 5, 6]);
        assert_eq!(dense.retains.len(), 1);
        assert_eq!(dense.retains[0].alloc_site, ChainId(9));
        let flushed: Vec<u64> = dense
            .records
            .iter()
            .filter(|r| r.at_exit)
            .map(|r| r.object.0)
            .collect();
        assert_eq!(flushed, [0, 3, 6]);
        assert_eq!(dense.records[2].last_use_site, Some(ChainId(13)));
    }

    #[test]
    fn reused_profiler_matches_map_oracle_across_runs() {
        let (p, _) = lifetime_program();
        let mut config = VmConfig::profiling();
        config.retain = heapdrag_vm::retain::RetainConfig::from_rate(0.5);
        let mut dense = DragProfiler::new();
        let mut oracle = MapProfiler::default();
        for _ in 0..2 {
            Vm::new(&p, config.clone())
                .run_observed(&[], &mut dense)
                .unwrap();
            Vm::new(&p, config.clone())
                .run_observed(&[], &mut oracle)
                .unwrap();
        }
        // Ids restart at 0 in the second run, so the reused table holds
        // every id twice and takes the sort path at exit.
        let single = profile(&p, &[], config).unwrap().records.len();
        assert_eq!(dense.records.len(), 2 * single);
        assert!(!dense.retains.is_empty());
        assert_eq!(dense.records, oracle.records);
        assert_eq!(dense.retains, oracle.retains);
        assert!(dense.records.windows(2).all(|w| w[0].object <= w[1].object));
    }

    #[test]
    fn drag_identity_over_all_records() {
        let (p, _) = lifetime_program();
        let run = profile(&p, &[], VmConfig::profiling()).unwrap();
        for r in &run.records {
            assert_eq!(r.reachable_product(), r.in_use_product() + r.drag());
            assert!(r.created <= r.freed);
            if let Some(u) = r.last_use {
                assert!(u >= r.created && u <= r.freed);
            }
        }
    }
}
