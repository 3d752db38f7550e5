//! Live in-process drag profiling: run a program while a second thread
//! folds its heap events through the shared [`DragEngine`], emitting
//! periodic windowed snapshots (with the coldness dimension) and a final
//! report — no HDLOG file round-trip.
//!
//! The VM thread carries a [`LiveProfiler`] observer that pushes every
//! heap event into a bounded SPSC ring (`heapdrag_vm::live`); its fast
//! path never blocks — a full ring drops the event and counts it. The
//! consumer thread rebuilds profiler trailers inside the engine
//! ([`DragEngine::observe_alloc`] / `observe_use` / `observe_free`), so
//! the records it folds are exactly the ones the file-logging
//! [`DragProfiler`](crate::DragProfiler) would have written. With an
//! unbounded window and zero drops, the final report is therefore
//! byte-identical to `heapdrag report` over a log of the same run — the
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

use heapdrag_vm::ids::{ChainId, SiteId};
use heapdrag_vm::interp::{RunOutcome, Vm, VmConfig};
use heapdrag_vm::live::{ring, LiveEvent, LiveProfiler, LiveShared, RingConsumer};
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;
use heapdrag_vm::VmError;

use crate::analyzer::{AnalyzerConfig, DragAnalyzer, DragReport};
use crate::codec::normalize_chain_name;
use crate::engine::{DragEngine, EngineConfig, EngineSnapshot, SiteIdleSummary, WindowSpec};
use crate::pattern::PatternConfig;
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
    /// Also retain the rebuilt records and GC samples so the caller can
    /// write a post-mortem log (`profile --live-window`).
    pub keep_records: bool,
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
            keep_records: false,
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
    /// Records folded (freed objects).
    pub records: u64,
    /// Total bytes those records allocated.
    pub alloc_bytes: u64,
    /// Records still live at exit.
    pub at_exit: u64,
    /// Deep-GC samples folded.
    pub samples: u64,
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
    /// The rebuilt records and samples, when
    /// [`LiveOptions::keep_records`] was set: everything needed to write
    /// the same log the file-logging profiler would have.
    pub collected: Option<(Vec<ObjectRecord>, Vec<GcSample>)>,
    /// Retaining-path samples observed live (site-resolved), in event
    /// order — already folded into [`report`](Self::report).
    pub retains: Vec<RetainRecord>,
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

/// What the consumer thread hands back after draining the ring.
struct ConsumerOut {
    engine: DragEngine<fn(ChainId) -> Option<SiteId>>,
    records: Vec<ObjectRecord>,
    samples: Vec<GcSample>,
    snapshots: u64,
    events: u64,
}

fn consume<S: FnMut(&str)>(
    mut rx: RingConsumer<LiveEvent>,
    shared: &LiveShared,
    config: EngineConfig,
    every: u64,
    top: usize,
    keep: bool,
    mut on_snapshot: S,
) -> ConsumerOut {
    let mut engine: DragEngine<fn(ChainId) -> Option<SiteId>> =
        DragEngine::live(config, |c: ChainId| Some(SiteId(c.0)));
    let mut records = Vec::new();
    let mut samples = Vec::new();
    let mut snapshots = 0u64;
    let mut events = 0u64;
    let mut last_mark = 0u64;
    let mut idle_spins = 0u32;

    let mut handle = |ev: LiveEvent,
                      engine: &mut DragEngine<fn(ChainId) -> Option<SiteId>>,
                      records: &mut Vec<ObjectRecord>,
                      samples: &mut Vec<GcSample>,
                      snapshots: &mut u64,
                      events: &mut u64| {
        *events += 1;
        match ev {
            LiveEvent::Alloc(e) => {
                engine.observe_alloc(e.object, e.class, e.site, e.size, e.time);
            }
            LiveEvent::Use(e) => engine.observe_use(e.object, e.site, e.time),
            LiveEvent::Free(e) => {
                if let Some(r) = engine.observe_free(e.object, e.time, e.at_exit) {
                    if keep {
                        records.push(r);
                    }
                }
            }
            LiveEvent::DeepGc(e) => {
                let sample = GcSample {
                    time: e.time,
                    reachable_bytes: e.reachable_bytes,
                    reachable_count: e.reachable_count,
                };
                engine.note_sample(&sample);
                if keep {
                    samples.push(sample);
                }
            }
            LiveEvent::Retain(e) => {
                engine.observe_retain(
                    e.object,
                    e.size,
                    e.time,
                    e.path.depth,
                    e.path.truncated,
                    e.path.text,
                );
            }
            LiveEvent::Exit { time } => {
                let flushed = engine.flush_residents(time);
                if keep {
                    records.extend(flushed);
                }
            }
        }
        let mark = engine.clock() / every;
        if mark > last_mark {
            last_mark = mark;
            *snapshots += 1;
            let dropped = shared.dropped.load(Ordering::Relaxed);
            on_snapshot(&render_snapshot(&engine.snapshot(), *snapshots, dropped, top));
        }
    };

    loop {
        match rx.pop() {
            Some(ev) => {
                idle_spins = 0;
                handle(
                    ev,
                    &mut engine,
                    &mut records,
                    &mut samples,
                    &mut snapshots,
                    &mut events,
                );
            }
            None => {
                if shared.done.load(Ordering::Acquire) {
                    // `done` is set only after the producer's final push,
                    // so one more drain pass sees everything.
                    match rx.pop() {
                        Some(ev) => handle(
                            ev,
                            &mut engine,
                            &mut records,
                            &mut samples,
                            &mut snapshots,
                            &mut events,
                        ),
                        None => break,
                    }
                } else {
                    idle_spins = idle_spins.saturating_add(1);
                    if idle_spins < 128 {
                        std::hint::spin_loop();
                    } else if idle_spins < 1_024 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
        }
    }

    ConsumerOut {
        engine,
        records,
        samples,
        snapshots,
        events,
    }
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
                options.keep_records,
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

    let ConsumerOut {
        mut engine,
        mut records,
        samples,
        snapshots,
        events,
    } = out;
    let dropped = shared.dropped.load(Ordering::Relaxed);

    let sites = vm.into_sites();
    let chain_names: HashMap<ChainId, String> = engine
        .chains_seen()
        .into_iter()
        .map(|c| (c, normalize_chain_name(&sites.format_chain(program, c))))
        .collect();
    let coldness = engine.coldness_summary();
    let (record_count, alloc_bytes, at_exit, sample_count, unmatched) = (
        engine.records(),
        engine.alloc_bytes(),
        engine.at_exit_records(),
        engine.samples(),
        engine.unmatched(),
    );
    let retains = engine.take_retains();
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

    let collected = options.keep_records.then(|| {
        // The file-logging profiler sorts records by object id at exit;
        // match it so a log written from a live run is byte-identical.
        records.sort_by_key(|r| r.object);
        (records, samples)
    });

    Ok(LiveRun {
        report,
        coldness,
        chain_names,
        records: record_count,
        alloc_bytes,
        at_exit,
        samples: sample_count,
        end_time: outcome.end_time,
        snapshots,
        dropped,
        unmatched,
        outcome,
        sites,
        collected,
        retains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile;
    use heapdrag_vm::builder::ProgramBuilder;

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
                keep_records: true,
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
        assert_eq!(live.records, run.records.len() as u64);
        // keep_records reproduces the profiler's record vector exactly.
        let (collected, samples) = live.collected.as_ref().unwrap();
        assert_eq!(collected, &run.records);
        assert_eq!(samples, &run.samples);
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
}
