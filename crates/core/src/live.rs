//! Live in-process drag profiling: run a program while a second thread
//! folds its heap events through the shared [`DragEngine`], emitting
//! periodic windowed snapshots (with the coldness dimension) and a final
//! report — no HDLOG file round-trip.
//!
//! The VM thread carries a [`LiveProfiler`] observer that pushes every
//! heap event into a bounded SPSC ring (`heapdrag_vm::live`); its fast
//! path never blocks — a full ring drops the event and counts it. The
//! consumer thread feeds the events to a plain [`DragProfiler`], the
//! same trailer table the file-logging path runs, and the engine folds
//! each record that table finishes. With an unbounded window and zero
//! drops, the records, and therefore the final report, are the ones a
//! post-mortem `heapdrag report` over a log of the same run sees — the
//! differential suite in `tests/live_parity.rs` holds this for all nine
//! workloads.
//!
//! Snapshots fire on allocation-clock cadence ([`LiveOptions::every`]),
//! so their count and contents are deterministic whenever no events were
//! dropped. Mid-run snapshots label sites `chain#N`: the chain-name
//! table lives in the VM's `SiteTable`, which is only available after
//! the run; the final report resolves real (normalized) names and is the
//! place byte-parity is claimed.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use heapdrag_vm::ids::{ChainId, ObjectId, SiteId};
use heapdrag_vm::interp::{RunOutcome, Vm, VmConfig};
use heapdrag_vm::live::{ring, LiveEvent, LiveProfiler, LiveShared, RingConsumer};
use heapdrag_vm::observer::HeapObserver;
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;
use heapdrag_vm::VmError;

use crate::analyzer::{AnalyzerConfig, DragAnalyzer, DragReport};
use crate::codec::normalize_chain_name;
use crate::engine::{DragEngine, EngineConfig, EngineSnapshot, SiteIdleSummary, WindowSpec};
use crate::pattern::PatternConfig;
use crate::profiler::DragProfiler;
use crate::record::{GcSample, ObjectRecord, RetainRecord};
use crate::report::{fmt_mb2, ChainNamer};

/// Configuration of a live profiling run.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Snapshot aggregation window.
    pub window: WindowSpec,
    /// Idle threshold (allocation-clock bytes) for cold-resident rows.
    pub cold_after: u64,
    /// Snapshot cadence: one snapshot per `every` bytes of allocation.
    pub every: u64,
    /// SPSC ring capacity in events (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Site rows per snapshot table.
    pub top: usize,
    /// Pattern-classification thresholds (the analyzer's).
    pub patterns: PatternConfig,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            window: WindowSpec::Unbounded,
            cold_after: 256 * 1024,
            every: 512 * 1024,
            ring_capacity: 1 << 18,
            top: 10,
            patterns: PatternConfig::default(),
        }
    }
}

/// Everything a live run produced.
#[derive(Debug)]
pub struct LiveRun {
    /// The final drag report — with [`WindowSpec::Unbounded`] and zero
    /// [`dropped`](Self::dropped), byte-identical (rendered with
    /// [`ReportSections::standard`](crate::ReportSections::standard)) to `report` over a log of the same
    /// run.
    pub report: DragReport,
    /// Per-site idle-interval summaries (the coldness columns).
    pub coldness: Vec<SiteIdleSummary>,
    /// Normalized chain names for every site the report references.
    pub chain_names: HashMap<ChainId, String>,
    /// One record per object whose allocation event arrived, in id order:
    /// with zero [`dropped`](Self::dropped), exactly the records the
    /// file-logging profiler collects. An object whose free and the
    /// exit event were both dropped keeps its unfinished trailer.
    pub records: Vec<ObjectRecord>,
    /// Deep-GC samples, in time order.
    pub samples: Vec<GcSample>,
    /// Retaining-path samples that resolved to a live trailer, in event
    /// order — already folded into [`report`](Self::report).
    pub retains: Vec<RetainRecord>,
    /// Final allocation-clock value.
    pub end_time: u64,
    /// Intermediate snapshots emitted.
    pub snapshots: u64,
    /// Heap events the ring buffer dropped (0 ⇒ deterministic run).
    pub dropped: u64,
    /// Events that referenced an object whose alloc event was dropped.
    pub unmatched: u64,
    /// The VM run outcome (program output, steps, GC statistics).
    pub outcome: RunOutcome,
    /// Site table of the run (for resolving further names).
    pub sites: SiteTable,
}

impl ChainNamer for LiveRun {
    fn chain_name(&self, chain: ChainId) -> String {
        self.chain_names
            .get(&chain)
            .cloned()
            .unwrap_or_else(|| format!("<chain {}>", chain.0))
    }
}

/// Renders one snapshot. Sites are labeled `chain#N` — real names are
/// only resolvable after the run (see the module docs).
fn render_snapshot(snap: &EngineSnapshot, seq: u64, dropped: u64, top: usize) -> String {
    let mut out = String::new();
    let window = match snap.window {
        WindowSpec::Unbounded => "window: unbounded".to_string(),
        WindowSpec::Rolling { window, advance } => {
            format!("window: last {window} bytes, advance {advance}")
        }
    };
    out.push_str(&format!(
        "=== live snapshot #{seq} @ {} bytes ({window}) ===\n",
        snap.clock
    ));
    out.push_str(&format!(
        "folded: {} records; dropped: {} events; resident: {} objects / {} bytes\n",
        snap.records, dropped, snap.resident_objects, snap.resident_bytes
    ));
    out.push_str(&format!(
        "cold (idle >= {} bytes): {} objects / {} bytes\n",
        snap.cold_after, snap.cold_objects, snap.cold_bytes
    ));
    out.push_str("rank  drag(MB^2)  objects       bytes  site\n");
    for (i, s) in snap.sites.iter().take(top).enumerate() {
        out.push_str(&format!(
            "{:>4}  {:>10}  {:>7}  {:>10}  chain#{}\n",
            i + 1,
            fmt_mb2(s.drag),
            s.objects,
            s.bytes,
            s.site.0,
        ));
    }
    if !snap.cold_sites.is_empty() {
        out.push_str("--- cold-resident sites ---\n");
        out.push_str("     bytes  objects     max-idle  site\n");
        for c in snap.cold_sites.iter().take(top) {
            out.push_str(&format!(
                "{:>10}  {:>7}  {:>11}  chain#{}\n",
                c.bytes, c.objects, c.max_idle, c.site.0,
            ));
        }
    }
    out
}

type LiveEngine = DragEngine<fn(ChainId) -> Option<SiteId>>;

/// The consumer thread's per-event state: the trailer table the ring
/// feeds, the engine folding every record it finishes, and the counts.
struct LiveFold {
    profiler: DragProfiler,
    engine: LiveEngine,
    /// Ids of the objects allocated, in id order, less the finished ones
    /// each compaction drops: snapshots visit O(live objects) ids rather
    /// than the profiler's slot table, which has an entry per object
    /// ever allocated.
    live_ids: Vec<ObjectId>,
    events: u64,
    unmatched: u64,
}

impl LiveFold {
    fn new(config: EngineConfig) -> Self {
        LiveFold {
            profiler: DragProfiler::new(),
            engine: DragEngine::live(config, |c: ChainId| Some(SiteId(c.0))),
            live_ids: Vec::new(),
            events: 0,
            unmatched: 0,
        }
    }

    /// A snapshot of the engine with the records still live.
    fn snapshot(&self) -> EngineSnapshot {
        let profiler = &self.profiler;
        self.engine.snapshot(
            self.live_ids
                .iter()
                .filter_map(|&id| profiler.live_record(id)),
        )
    }

    /// The exit flush: finishes every record still live as an at-exit
    /// record at `time` and folds it.
    fn finish(&mut self, time: u64) {
        let engine = &mut self.engine;
        self.profiler
            .flush_at_exit(time, |r| fold_finished(engine, r));
        self.live_ids.clear();
    }

    /// Feeds one ring event to the trailer table. The clock advances on
    /// every event with a time; a use, free or retain sample for an
    /// object the table does not hold (its allocation event was dropped)
    /// counts as unmatched and is otherwise ignored.
    fn step(&mut self, ev: LiveEvent) {
        self.events += 1;
        let engine = &mut self.engine;
        let matched = match ev {
            LiveEvent::Alloc(e) => {
                engine.advance(e.time);
                self.profiler.on_alloc(e);
                // Before the list would grow, drop the finished ids and
                // leave room for as many pushes as ids remain: amortised
                // O(1), and the list stays near twice the live objects.
                if self.live_ids.len() == self.live_ids.capacity() {
                    let profiler = &self.profiler;
                    self.live_ids
                        .retain(|&id| profiler.live_record(id).is_some());
                    self.live_ids.reserve(self.live_ids.len().max(1_024));
                }
                self.live_ids.push(e.object);
                true
            }
            LiveEvent::Use(e) => {
                engine.advance(e.time);
                self.profiler
                    .record_use(e)
                    .map(|(site, previous)| {
                        engine.record_idle(site, e.time.saturating_sub(previous))
                    })
                    .is_some()
            }
            LiveEvent::Free(e) => {
                engine.advance(e.time);
                self.profiler
                    .record_free(e)
                    .map(|r| fold_finished(engine, r))
                    .is_some()
            }
            LiveEvent::DeepGc(e) => {
                engine.advance(e.time);
                self.profiler.on_deep_gc(e);
                true
            }
            LiveEvent::Retain(e) => {
                engine.advance(e.time);
                self.profiler.record_retain(e)
            }
            LiveEvent::Exit { time } => {
                self.finish(time);
                true
            }
        };
        self.unmatched += u64::from(!matched);
    }
}

/// Folds a record the trailer table just finished, with its last idle
/// gap (last touch to reclamation).
fn fold_finished(engine: &mut LiveEngine, r: &ObjectRecord) {
    engine.record_idle(r.alloc_site, r.freed.saturating_sub(r.last_touch()));
    engine.fold(r);
}

/// Drains the ring until the producer is done, stepping every event and
/// emitting a snapshot each time the clock crosses a multiple of
/// `every`. Returns the fold and the number of snapshots.
fn consume<S: FnMut(&str)>(
    mut rx: RingConsumer<LiveEvent>,
    shared: &LiveShared,
    config: EngineConfig,
    every: u64,
    top: usize,
    mut on_snapshot: S,
) -> (LiveFold, u64) {
    let mut fold = LiveFold::new(config);
    let mut snapshots = 0u64;
    let mut last_mark = 0u64;
    let mut idle_spins = 0u32;
    loop {
        let ev = match rx.pop() {
            Some(ev) => ev,
            // `done` is set only after the producer's final push, so one
            // more drain pass sees everything.
            None if shared.done.load(Ordering::Acquire) => match rx.pop() {
                Some(ev) => ev,
                None => break,
            },
            None => {
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 128 {
                    std::hint::spin_loop();
                } else if idle_spins < 1_024 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
                continue;
            }
        };
        idle_spins = 0;
        fold.step(ev);
        let mark = fold.engine.clock() / every;
        if mark > last_mark {
            last_mark = mark;
            snapshots += 1;
            let snap = fold.snapshot();
            let dropped = shared.dropped.load(Ordering::Relaxed);
            on_snapshot(&render_snapshot(&snap, snapshots, dropped, top));
        }
    }
    (fold, snapshots)
}

/// Runs `program` under live profiling: the VM on the calling thread,
/// the drag engine on a consumer thread, joined before returning. Each
/// rendered snapshot is passed to `on_snapshot` as it is produced (from
/// the consumer thread).
///
/// When `registry` is given, the run publishes the `heapdrag_live_*`
/// family: `heapdrag_live_events_total`, `heapdrag_live_dropped_total`,
/// `heapdrag_live_snapshots_total`, `heapdrag_live_unmatched_total`
/// counters and the `heapdrag_live_ring_capacity` gauge — plus the usual
/// `vm_*` family via [`Vm::attach_metrics`].
///
/// # Errors
///
/// Propagates any [`VmError`] from the run (the consumer thread is
/// always joined first).
///
/// # Panics
///
/// The trailer table keeps one record per object allocated, as
/// [`profile`](crate::profile)'s does, so memory grows with the objects
/// allocated and a run of 2^32 objects or more panics.
pub fn run_live<S>(
    program: &Program,
    input: &[i64],
    config: VmConfig,
    options: &LiveOptions,
    registry: Option<&heapdrag_obs::Registry>,
    on_snapshot: S,
) -> Result<LiveRun, VmError>
where
    S: FnMut(&str) + Send,
{
    let (tx, rx) = ring::<LiveEvent>(options.ring_capacity);
    let capacity = tx.capacity();
    let mut profiler = LiveProfiler::new(tx);
    let shared = profiler.shared();
    let engine_config = EngineConfig {
        patterns: options.patterns,
        window: options.window,
        cold_after: options.cold_after,
    };
    let every = options.every.max(1);

    let mut vm = Vm::new(program, config);
    if let Some(r) = registry {
        vm.attach_metrics(r);
    }

    let consumer_shared = Arc::clone(&shared);
    let (outcome, out) = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            consume(
                rx,
                &consumer_shared,
                engine_config,
                every,
                options.top,
                on_snapshot,
            )
        });
        let outcome = vm.run_observed(input, &mut profiler);
        // On success `on_exit` already set `done`; on error this is the
        // terminator that lets the consumer finish draining.
        profiler.abort();
        let out = consumer.join().expect("live consumer panicked");
        (outcome, out)
    });
    let outcome = outcome?;

    let (mut fold, snapshots) = out;
    // A no-op unless the ring dropped the exit event: every record leaves
    // finished, as the file-logging profiler's do.
    fold.finish(outcome.end_time);
    let LiveFold {
        profiler,
        engine,
        events,
        unmatched,
        ..
    } = fold;
    let dropped = shared.dropped.load(Ordering::Relaxed);

    let sites = vm.into_sites();
    let chain_names: HashMap<ChainId, String> = engine
        .chains_seen()
        .into_iter()
        .map(|c| (c, normalize_chain_name(&sites.format_chain(program, c))))
        .collect();
    let coldness = engine.coldness_summary();
    let (records, samples, retains) = profiler.into_parts();
    let analyzer = DragAnalyzer::with_config(AnalyzerConfig {
        patterns: options.patterns,
    });
    let mut report = analyzer.finalize(engine.into_accum());
    report.attach_retains(&retains);

    if let Some(r) = registry {
        r.counter("heapdrag_live_events_total").add(events);
        r.counter("heapdrag_live_dropped_total").add(dropped);
        r.counter("heapdrag_live_snapshots_total").add(snapshots);
        r.counter("heapdrag_live_unmatched_total").add(unmatched);
        r.counter("heapdrag_retain_samples_total")
            .add(retains.len() as u64);
        r.gauge("heapdrag_live_ring_capacity")
            .set(i64::try_from(capacity).unwrap_or(i64::MAX));
    }

    Ok(LiveRun {
        report,
        coldness,
        chain_names,
        records,
        samples,
        retains,
        end_time: outcome.end_time,
        snapshots,
        dropped,
        unmatched,
        outcome,
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::ids::ClassId;
    use heapdrag_vm::observer::{AllocEvent, FreeEvent, GcEvent, UseEvent, UseKind};

    /// A program that allocates a dragged buffer plus loop garbage —
    /// enough churn for several deep GCs.
    fn dragging_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            m.push_int(4000).mark("big buffer").new_array().store(1);
            m.load(1).push_int(0).push_int(1).astore();
            m.push_int(0).store(2);
            m.label("work");
            m.load(2).push_int(200).cmpge().branch("done");
            m.push_int(64).mark("loop garbage").new_array().pop();
            m.load(2).push_int(1).add().store(2);
            m.jump("work");
            m.label("done").ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn unbounded_live_matches_post_mortem_profile() {
        let program = dragging_program();
        let config = VmConfig::profiling();
        let run = profile(&program, &[], config.clone()).unwrap();
        let offline = DragAnalyzer::new().analyze(&run.records, |c| Some(SiteId(c.0)));

        let mut snaps = Vec::new();
        let live = run_live(
            &program,
            &[],
            config,
            &LiveOptions {
                every: 2_000,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snaps.push(s.to_string()),
        )
        .unwrap();

        assert_eq!(live.dropped, 0);
        assert_eq!(live.unmatched, 0);
        assert!(live.snapshots >= 1, "no intermediate snapshot fired");
        assert_eq!(live.snapshots as usize, snaps.len());
        // The analyzer in the log path resolves chains identically.
        let log_report = DragAnalyzer::new().analyze(&run.records, |c| Some(SiteId(c.0)));
        assert_eq!(log_report, offline);
        assert_eq!(live.report, offline);
        // The live trailer table holds the profiler's record vector exactly.
        assert_eq!(live.records, run.records);
        assert_eq!(live.samples, run.samples);
        // Coldness columns exist and snapshots carried cold data.
        assert!(!live.coldness.is_empty());
        assert!(snaps.iter().all(|s| s.contains("cold (idle >=")));
    }

    #[test]
    fn rolling_window_snapshots_shrink() {
        let program = dragging_program();
        let mut snaps = Vec::new();
        let live = run_live(
            &program,
            &[],
            VmConfig::profiling(),
            &LiveOptions {
                window: WindowSpec::Rolling {
                    window: 4_096,
                    advance: 1_024,
                },
                every: 2_000,
                ..LiveOptions::default()
            },
            None,
            |s: &str| snaps.push(s.to_string()),
        )
        .unwrap();
        assert!(live.snapshots >= 1);
        assert!(snaps[0].contains("window: last 4096 bytes, advance 1024"));
        // The final cumulative report is unaffected by the window mode.
        assert!(live.report.total_drag() > 0);
    }

    #[test]
    fn vm_errors_still_join_the_consumer() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            // Index out of bounds: allocate a 1-element array, read slot 5.
            m.push_int(1).new_array().store(0);
            m.load(0).push_int(5).aload().pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let program = b.finish().unwrap();
        let err = run_live(
            &program,
            &[],
            VmConfig::profiling(),
            &LiveOptions::default(),
            None,
            |_: &str| {},
        );
        assert!(err.is_err());
    }

    fn fold_with(window: WindowSpec, cold_after: u64) -> LiveFold {
        LiveFold::new(EngineConfig {
            window,
            cold_after,
            ..EngineConfig::default()
        })
    }

    fn alloc(id: u64, site: u32, size: u64, time: u64) -> LiveEvent {
        LiveEvent::Alloc(AllocEvent::new(
            ObjectId(id),
            ClassId(0),
            size,
            time,
            ChainId(site),
        ))
    }

    fn use_of(id: u64, site: u32, time: u64) -> LiveEvent {
        LiveEvent::Use(UseEvent::new(
            ObjectId(id),
            UseKind::GetField,
            time,
            ChainId(site),
        ))
    }

    fn free(id: u64, time: u64) -> LiveEvent {
        LiveEvent::Free(FreeEvent::new(ObjectId(id), time))
    }

    /// Alloc/use/free events stepped through the trailer table finish the
    /// records they came from and fold the sums the record path does:
    /// identical reports from either side of the engine.
    #[test]
    fn event_path_matches_record_path() {
        let record = |id, site, created, last_use: Option<u64>, freed, size| ObjectRecord {
            object: ObjectId(id),
            class: ClassId(0),
            size,
            created,
            freed,
            last_use,
            alloc_site: ChainId(site),
            last_use_site: last_use.map(|_| ChainId(100 + site)),
            at_exit: false,
        };
        let records = vec![
            record(1, 0, 0, Some(1_000), 50_000, 64),
            record(2, 1, 100, None, 70_000, 32),
            record(3, 0, 200, Some(60_000), 90_000, 128),
        ];
        let offline = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));

        let mut fold = fold_with(WindowSpec::Unbounded, u64::MAX);
        for r in &records {
            fold.step(alloc(r.object.0, r.alloc_site.0, r.size, r.created));
            if let (Some(t), Some(s)) = (r.last_use, r.last_use_site) {
                fold.step(use_of(r.object.0, s.0, t));
            }
            fold.step(free(r.object.0, r.freed));
        }
        assert_eq!(fold.unmatched, 0);
        let (rebuilt, _, _) = fold.profiler.into_parts();
        assert_eq!(rebuilt, records);
        let live = DragAnalyzer::new().finalize(fold.engine.into_accum());
        assert_eq!(live, offline);
    }

    #[test]
    fn coldness_tracks_idle_residents() {
        let mut fold = fold_with(WindowSpec::Unbounded, 1_000);
        fold.step(alloc(1, 0, 64, 0));
        fold.step(alloc(2, 1, 32, 0));
        fold.step(use_of(2, 9, 4_900));
        // Advance the clock via a GC sample.
        fold.step(LiveEvent::DeepGc(GcEvent::new(5_000).with_reachable(96, 2)));
        let snap = fold.snapshot();
        assert_eq!(snap.resident_objects, 2);
        assert_eq!(snap.resident_bytes, 96);
        // Object 1 idles since creation (5_000 >= 1_000: cold); object 2
        // was touched 100 bytes ago (warm).
        assert_eq!(snap.cold_objects, 1);
        assert_eq!(snap.cold_bytes, 64);
        assert_eq!(snap.cold_sites.len(), 1);
        assert_eq!(snap.cold_sites[0].site, ChainId(0));
        assert_eq!(snap.cold_sites[0].max_idle, 5_000);
    }

    /// Every use records the gap since the object's previous touch, and
    /// the free records the gap since its last use.
    #[test]
    fn idle_gaps_run_from_the_previous_touch() {
        let mut fold = fold_with(WindowSpec::Unbounded, u64::MAX);
        fold.step(alloc(1, 0, 8, 0));
        fold.step(use_of(1, 9, 100));
        fold.step(use_of(1, 9, 1_100));
        fold.step(free(1, 1_200));
        let rows = fold.engine.coldness_summary();
        assert_eq!(rows.len(), 1);
        // Gaps 100, 1_000 and 100: median in bucket [64, 128).
        assert_eq!(
            (rows[0].intervals, rows[0].median_idle, rows[0].max_idle),
            (3, 64, 1_000)
        );
    }

    #[test]
    fn unmatched_events_are_counted_not_folded() {
        let mut fold = fold_with(WindowSpec::Unbounded, u64::MAX);
        fold.step(use_of(7, 0, 10));
        fold.step(free(7, 20));
        assert_eq!(fold.unmatched, 2);
        assert_eq!(fold.engine.records(), 0);
        // Unmatched events still move the clock the snapshots key on.
        assert_eq!(fold.engine.clock(), 20);
    }

    #[test]
    fn exit_flush_drains_in_object_order() {
        let mut fold = fold_with(WindowSpec::Unbounded, u64::MAX);
        fold.step(alloc(5, 0, 8, 0));
        fold.step(alloc(2, 0, 8, 10));
        fold.step(LiveEvent::Exit { time: 100 });
        assert_eq!(fold.engine.records(), 2);
        let snap = fold.snapshot();
        assert_eq!(snap.resident_objects, 0);
        let (flushed, _, _) = fold.profiler.into_parts();
        let ids: Vec<u64> = flushed.iter().map(|r| r.object.0).collect();
        assert_eq!(ids, vec![2, 5]);
        assert!(flushed.iter().all(|r| r.at_exit && r.freed == 100));
    }

    /// When the ring overflows, the consumer sees use/free events whose
    /// alloc event is gone. It must count them as unmatched — exactly —
    /// and keep folding, snapshotting, and summarising without
    /// panicking, under any seeded pattern of drops and window modes.
    /// Runs long enough to compact the live-id list, and a dropped exit
    /// event is made up by `finish`, as `run_live` does.
    #[test]
    fn the_engine_survives_event_streams_with_dropped_allocs() {
        use heapdrag_testkit::{check, Rng};

        check("live-fold-dropped-allocs", 64, |rng: &mut Rng| {
            let window = if rng.bool() {
                WindowSpec::Rolling {
                    window: rng.range_u64(512, 8192),
                    advance: rng.range_u64(64, 512),
                }
            } else {
                WindowSpec::Unbounded
            };
            let mut fold = fold_with(window, EngineConfig::default().cold_after);
            let mut clock = 0u64;
            let mut expect_unmatched = 0u64;
            let mut folded = 0u64;
            let mut live = 0u64;
            for i in 0..rng.range_u64(1, 3_000) {
                let size = rng.range_u64(8, 256);
                let known = rng.ratio(3, 4);
                clock += size;
                if known {
                    fold.step(alloc(i, i as u32 % 5, size, clock));
                    live += 1;
                }
                for _ in 0..rng.range_usize(0, 4) {
                    clock += rng.range_u64(0, 64);
                    fold.step(use_of(i, i as u32 % 3, clock));
                    expect_unmatched += u64::from(!known);
                }
                if rng.ratio(4, 5) {
                    clock += rng.range_u64(0, 64);
                    let before = fold.engine.records();
                    fold.step(free(i, clock));
                    let folds = fold.engine.records() - before == 1;
                    assert_eq!(folds, known, "free folds iff the alloc arrived");
                    expect_unmatched += u64::from(!known);
                    folded += u64::from(known);
                    live -= u64::from(known);
                }
            }
            assert_eq!(
                fold.snapshot().resident_objects,
                live,
                "snapshots see the live"
            );
            folded += live;
            if rng.bool() {
                fold.step(LiveEvent::Exit { time: clock });
            } else {
                fold.finish(clock);
            }
            assert_eq!(fold.unmatched, expect_unmatched, "unmatched is exact");
            assert_eq!(fold.engine.records(), folded, "only complete objects fold");
            let snap = fold.snapshot();
            assert_eq!(snap.resident_objects, 0, "the exit drained every resident");
            let _ = fold.engine.coldness_summary();
        });
    }
}
