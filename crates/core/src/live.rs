//! Live in-process drag profiling: run a program while its heap events
//! fold into the drag fold the offline analyzer uses, emitting periodic
//! windowed snapshots (with the coldness dimension) and a final report —
//! no HDLOG file round-trip.
//!
//! The VM carries a `LiveFold` as its [`HeapObserver`], on the thread
//! that runs the program, as the paper's on-line phase updates each
//! object's trailer inside the running JVM. The fold steps a plain
//! [`DragProfiler`], the same trailer table the file-logging path runs,
//! and adds each record that table finishes to the drag fold the offline
//! analyzer uses. Every event reaches the fold, so with an unbounded
//! window the records, and therefore the final report, are the ones a
//! post-mortem `heapdrag report` over a log of the same run sees — the
//! differential suite in `tests/live_parity.rs` holds this for all nine
//! workloads.
//!
//! On top of that fold a live run keeps what only it needs:
//!
//! * **Allocation clock**: the largest event time seen; it drives the
//!   snapshot cadence, the window and coldness.
//! * **Rolling window** ([`WindowSpec::Rolling`]): a ring of per-site
//!   window buckets, `window / advance` slots wide, each accumulating the
//!   drag of records whose *free time* lands in its allocation-clock
//!   interval. A snapshot sums the in-window buckets, so a long-running
//!   service sees "drag accumulated recently" instead of an ever-growing
//!   cumulative total. Ring slots are recycled in place as the clock
//!   advances (free times are nondecreasing), and stale slots are excluded
//!   by bucket index at snapshot time, so memory is O(slots ×
//!   sites-per-slot). An unbounded window reads the cumulative table.
//! * **Coldness**: per-site log₂ idle-interval histograms of the gaps
//!   read off the trailers ([`SiteIdleSummary`] in the final report), and
//!   — at each snapshot, over the objects still live — the
//!   *cold-resident* bytes per site: objects whose last use (or creation)
//!   is at least [`LiveOptions::cold_after`] allocation-clock bytes in the
//!   past. These are the live objects the paper's post-mortem drag can
//!   only blame after they die.
//!
//! Snapshots fire on allocation-clock cadence ([`LiveOptions::every`]),
//! so their count and contents are deterministic. Mid-run snapshots
//! label sites `chain#N`: the chain-name table lives in the VM's
//! `SiteTable`, which is only available after the run; the final report
//! resolves real (normalized) names and is the place byte-parity is
//! claimed.

use std::collections::HashMap;

use heapdrag_obs::histogram::{bucket_index, NUM_BUCKETS};
use heapdrag_vm::ids::{ChainId, ObjectId, SiteId};
use heapdrag_vm::interp::{RunOutcome, Vm, VmConfig};
use heapdrag_vm::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, RetainDelivery, RetainEvent, UseDelivery,
    UseEvent,
};
use heapdrag_vm::program::Program;
use heapdrag_vm::site::SiteTable;
use heapdrag_vm::VmError;

use crate::analyzer::{AnalyzerConfig, DragAnalyzer, DragReport};
use crate::codec::normalize_chain_name;
use crate::engine::{DragFold, IdMap};
use crate::pattern::PatternConfig;
use crate::profiler::DragProfiler;
use crate::record::{GcSample, ObjectRecord, RetainRecord};
use crate::report::{fmt_mb2, ChainNamer};

/// How much history a live run's snapshots aggregate per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep everything — the cumulative fold the offline report uses.
    Unbounded,
    /// Keep a rolling window of per-site drag buckets.
    Rolling {
        /// Window width in allocation-clock bytes; snapshots aggregate
        /// records freed within the last `window` bytes of allocation.
        window: u64,
        /// Bucket granularity in allocation-clock bytes; the ring holds
        /// `window / advance` (rounded up, at least one) buckets and
        /// recycles the oldest every `advance` bytes of allocation.
        advance: u64,
    },
}

/// Configuration of a live profiling run.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Snapshot aggregation window.
    pub window: WindowSpec,
    /// Idle threshold (allocation-clock bytes) for cold-resident rows.
    pub cold_after: u64,
    /// Snapshot cadence: one snapshot per `every` bytes of allocation.
    pub every: u64,
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
            top: 10,
            patterns: PatternConfig::default(),
        }
    }
}

/// Per-site idle-interval summary for the final live report — the
/// coldness columns appended after the standard drag report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteIdleSummary {
    /// The nested allocation site.
    pub site: ChainId,
    /// Idle intervals observed (use-to-use, plus the final use-to-free).
    pub intervals: u64,
    /// Lower bound of the median interval's log₂ bucket.
    pub median_idle: u64,
    /// The largest interval observed.
    pub max_idle: u64,
}

/// Everything a live run produced.
#[derive(Debug)]
pub struct LiveRun {
    /// The final drag report — with [`WindowSpec::Unbounded`],
    /// byte-identical (rendered with
    /// [`ReportSections::standard`](crate::ReportSections::standard)) to `report` over a log of the same
    /// run.
    pub report: DragReport,
    /// Per-site idle-interval summaries (the coldness columns).
    pub coldness: Vec<SiteIdleSummary>,
    /// Normalized chain names for every site the report references.
    pub chain_names: HashMap<ChainId, String>,
    /// One record per object allocated, in id order: exactly the records
    /// the file-logging profiler collects.
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
    /// Heap events lost on the way to the fold: always 0, since the fold
    /// runs on the VM thread. Kept for callers that check it.
    pub dropped: u64,
    /// Events for an object the trailer table did not hold: always 0, as
    /// [`dropped`](Self::dropped).
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

/// A base-2 logarithmic histogram of idle intervals (allocation-clock
/// bytes between consecutive touches of the same object), in the buckets
/// of [`heapdrag_obs::histogram`]: bucket 0 holds zero, bucket `k` holds
/// values in `[2^(k-1), 2^k)`.
#[derive(Debug, Clone)]
struct IdleHistogram {
    counts: [u64; NUM_BUCKETS],
    total: u64,
    max: u64,
}

impl Default for IdleHistogram {
    fn default() -> Self {
        IdleHistogram {
            counts: [0; NUM_BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl IdleHistogram {
    fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Lower bound of the bucket holding the median interval (0 when
    /// empty). Exact integer arithmetic: deterministic across runs.
    fn median_idle(&self) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = self.total.div_ceil(2);
        let mut seen = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if k == 0 { 0 } else { 1u64 << (k - 1) };
            }
        }
        0
    }
}

/// One per-site cell of a rolling-window bucket, and one site row of a
/// snapshot: objects freed in the window, the bytes they held and their
/// accumulated drag (byte²).
#[derive(Debug, Clone, Copy, Default)]
struct WindowCell {
    objects: u64,
    bytes: u64,
    drag: u128,
}

/// One slot of the window ring. `index == u64::MAX` marks a slot that
/// has never been written.
#[derive(Debug, Clone, Default)]
struct WindowBucket {
    index: u64,
    sites: IdMap<ChainId, WindowCell>,
}

#[derive(Debug, Clone)]
struct WindowRing {
    advance: u64,
    buckets: Vec<WindowBucket>,
}

impl WindowRing {
    fn new(window: u64, advance: u64) -> Self {
        let slots = window.div_ceil(advance).max(1) as usize;
        WindowRing {
            advance,
            buckets: (0..slots)
                .map(|_| WindowBucket {
                    index: u64::MAX,
                    sites: IdMap::default(),
                })
                .collect(),
        }
    }

    /// Folds one freed record into its bucket, recycling the slot if it
    /// still holds an older window's cell (free times are nondecreasing,
    /// so a recycled slot can never be needed again).
    fn add(&mut self, r: &ObjectRecord) {
        let index = r.freed / self.advance;
        let slot = (index % self.buckets.len() as u64) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.index != index {
            bucket.index = index;
            bucket.sites.clear();
        }
        let cell = bucket.sites.entry(r.alloc_site).or_default();
        cell.objects += 1;
        cell.bytes += r.size;
        cell.drag += r.drag();
    }

    /// Sums the cells of buckets still inside the window ending at
    /// `clock`; stale (not yet recycled) slots are excluded by index.
    fn in_window(&self, clock: u64) -> IdMap<ChainId, WindowCell> {
        let newest = clock / self.advance;
        let oldest = (newest + 1).saturating_sub(self.buckets.len() as u64);
        let mut sites: IdMap<ChainId, WindowCell> = IdMap::default();
        for bucket in &self.buckets {
            if bucket.index == u64::MAX || bucket.index < oldest || bucket.index > newest {
                continue;
            }
            for (site, cell) in &bucket.sites {
                let s = sites.entry(*site).or_default();
                s.objects += cell.objects;
                s.bytes += cell.bytes;
                s.drag += cell.drag;
            }
        }
        sites
    }
}

/// One cold-resident row of a [`Snapshot`]: objects still alive whose
/// last touch is at least `cold_after` allocation-clock bytes ago.
#[derive(Debug, Clone, Copy)]
struct ColdSite {
    site: ChainId,
    objects: u64,
    /// The bytes they pin.
    bytes: u64,
    /// The largest idle gap among them (allocation-clock bytes).
    max_idle: u64,
}

/// A point-in-time view of a live run: the windowed site table plus the
/// coldness dimension.
#[derive(Debug, Clone)]
struct Snapshot {
    /// Allocation clock at the snapshot.
    clock: u64,
    /// Records folded so far (freed objects).
    records: u64,
    window: WindowSpec,
    /// Objects (and their bytes) allocated and not yet freed.
    resident_objects: u64,
    resident_bytes: u64,
    cold_after: u64,
    /// Resident objects idle for at least `cold_after` bytes, and the
    /// bytes they pin.
    cold_objects: u64,
    cold_bytes: u64,
    /// Per-site windowed drag, sorted by drag (desc), then site.
    sites: Vec<(ChainId, WindowCell)>,
    /// Per-site cold resident objects, sorted by bytes (desc), then site.
    cold_sites: Vec<ColdSite>,
}

/// Renders one snapshot. Sites are labeled `chain#N` — real names are
/// only resolvable after the run (see the module docs). The header keeps
/// its `dropped: 0 events` field so the snapshot format stays stable.
fn render_snapshot(snap: &Snapshot, seq: u64, top: usize) -> String {
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
        "folded: {} records; dropped: 0 events; resident: {} objects / {} bytes\n",
        snap.records, snap.resident_objects, snap.resident_bytes
    ));
    out.push_str(&format!(
        "cold (idle >= {} bytes): {} objects / {} bytes\n",
        snap.cold_after, snap.cold_objects, snap.cold_bytes
    ));
    out.push_str("rank  drag(MB^2)  objects       bytes  site\n");
    for (i, (site, c)) in snap.sites.iter().take(top).enumerate() {
        out.push_str(&format!(
            "{:>4}  {:>10}  {:>7}  {:>10}  chain#{}\n",
            i + 1,
            fmt_mb2(c.drag),
            c.objects,
            c.bytes,
            site.0,
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

/// What a live run folds finished records and idle gaps into: the
/// offline [`DragFold`] plus the window ring, the per-site idle
/// histograms and the allocation clock. It is a field of its own beside
/// the [`DragProfiler`], so a record the profiler has just finished, and
/// still lends out, can be folded in place.
struct LiveSums {
    fold: DragFold,
    patterns: PatternConfig,
    ring: Option<WindowRing>,
    idle: IdMap<ChainId, IdleHistogram>,
    /// The largest event time seen.
    clock: u64,
}

impl LiveSums {
    fn advance(&mut self, time: u64) {
        self.clock = self.clock.max(time);
    }

    /// Records one idle interval (allocation-clock bytes between two
    /// touches of an object) into `site`'s histogram.
    fn record_idle(&mut self, site: ChainId, gap: u64) {
        self.idle.entry(site).or_default().record(gap);
    }

    /// Folds a record the trailer table just finished, with its last idle
    /// gap (last touch to reclamation). A trace's chain ids are their own
    /// innermost sites, so the live run resolves them by identity.
    fn finish(&mut self, r: &ObjectRecord) {
        self.record_idle(r.alloc_site, r.freed.saturating_sub(r.last_touch()));
        self.fold
            .add_record(r, &self.patterns, &|c: ChainId| Some(SiteId(c.0)));
        self.advance(r.freed);
        if let Some(ring) = &mut self.ring {
            ring.add(r);
        }
    }
}

/// The live run's heap observer: the trailer table the VM feeds, the
/// sums folding every record it finishes, and the snapshot cadence.
struct LiveFold<S> {
    profiler: DragProfiler,
    sums: LiveSums,
    window: WindowSpec,
    /// Idle threshold, in allocation-clock bytes, after which a resident
    /// object counts as cold in snapshots.
    cold_after: u64,
    /// Ids of the objects allocated, in id order, less the finished ones
    /// each compaction drops: snapshots visit O(live objects) ids rather
    /// than the profiler's slot table, which has an entry per object
    /// ever allocated.
    live_ids: Vec<ObjectId>,
    events: u64,
    /// Snapshot cadence in allocation-clock bytes (at least 1).
    every: u64,
    top: usize,
    /// `clock / every` at the last snapshot.
    last_mark: u64,
    snapshots: u64,
    on_snapshot: S,
}

impl<S: FnMut(&str)> LiveFold<S> {
    fn new(options: &LiveOptions, on_snapshot: S) -> Self {
        let ring = match options.window {
            WindowSpec::Unbounded => None,
            WindowSpec::Rolling { window, advance } => Some(WindowRing::new(window, advance)),
        };
        LiveFold {
            profiler: DragProfiler::new(),
            sums: LiveSums {
                fold: DragFold::default(),
                patterns: options.patterns,
                ring,
                idle: IdMap::default(),
                clock: 0,
            },
            window: options.window,
            cold_after: options.cold_after,
            live_ids: Vec::new(),
            events: 0,
            every: options.every.max(1),
            top: options.top,
            last_mark: 0,
            snapshots: 0,
            on_snapshot,
        }
    }

    /// A point-in-time view: the windowed per-site drag table (the
    /// cumulative one for an unbounded window) plus the resident and
    /// cold-resident rows over the objects still live.
    fn snapshot(&self) -> Snapshot {
        let sums = &self.sums;
        let cells: IdMap<ChainId, WindowCell> = match &sums.ring {
            Some(ring) => ring.in_window(sums.clock),
            None => sums
                .fold
                .nested
                .iter()
                .map(|(site, p)| {
                    let cell = WindowCell {
                        objects: p.pattern.objects,
                        bytes: p.bytes,
                        drag: p.pattern.drag,
                    };
                    (*site, cell)
                })
                .collect(),
        };
        let mut sites: Vec<(ChainId, WindowCell)> = cells.into_iter().collect();
        sites.sort_by(|(a, x), (b, y)| y.drag.cmp(&x.drag).then(a.cmp(b)));

        let mut resident_objects = 0u64;
        let mut resident_bytes = 0u64;
        let mut cold_objects = 0u64;
        let mut cold_bytes = 0u64;
        let mut cold_cells: IdMap<ChainId, ColdSite> = IdMap::default();
        let profiler = &self.profiler;
        for r in self
            .live_ids
            .iter()
            .filter_map(|&id| profiler.live_record(id))
        {
            resident_objects += 1;
            resident_bytes += r.size;
            let idle = sums.clock.saturating_sub(r.last_touch());
            if idle < self.cold_after {
                continue;
            }
            cold_objects += 1;
            cold_bytes += r.size;
            let cell = cold_cells.entry(r.alloc_site).or_insert(ColdSite {
                site: r.alloc_site,
                objects: 0,
                bytes: 0,
                max_idle: 0,
            });
            cell.objects += 1;
            cell.bytes += r.size;
            cell.max_idle = cell.max_idle.max(idle);
        }
        let mut cold_sites: Vec<ColdSite> = cold_cells.into_values().collect();
        cold_sites.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));

        Snapshot {
            clock: sums.clock,
            records: sums.fold.records,
            window: self.window,
            resident_objects,
            resident_bytes,
            cold_after: self.cold_after,
            cold_objects,
            cold_bytes,
            sites,
            cold_sites,
        }
    }

    /// Per-site idle-interval summaries, sorted by largest interval
    /// (desc), then interval count (desc), then site — the coldness
    /// columns of the final live report.
    fn coldness_summary(&self) -> Vec<SiteIdleSummary> {
        let mut rows: Vec<SiteIdleSummary> = self
            .sums
            .idle
            .iter()
            .map(|(site, h)| SiteIdleSummary {
                site: *site,
                intervals: h.total,
                median_idle: h.median_idle(),
                max_idle: h.max,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.max_idle
                .cmp(&a.max_idle)
                .then(b.intervals.cmp(&a.intervals))
                .then(a.site.cmp(&b.site))
        });
        rows
    }

    /// Counts the event just stepped and emits a snapshot each time the
    /// clock crosses a multiple of `every`.
    fn tick(&mut self) {
        self.events += 1;
        let mark = self.sums.clock / self.every;
        if mark > self.last_mark {
            self.last_mark = mark;
            self.snapshots += 1;
            let text = render_snapshot(&self.snapshot(), self.snapshots, self.top);
            (self.on_snapshot)(&text);
        }
    }
}

/// Every event advances the clock and steps the trailer table; a use
/// also records the idle gap since the object's previous touch, and a
/// finished record folds with its last idle gap.
impl<S: FnMut(&str)> HeapObserver for LiveFold<S> {
    fn on_alloc(&mut self, e: AllocEvent) {
        self.sums.advance(e.time);
        self.profiler.on_alloc(e);
        // Before the list would grow, drop the finished ids and leave
        // room for as many pushes as ids remain: amortised O(1), and the
        // list stays near twice the live objects.
        if self.live_ids.len() == self.live_ids.capacity() {
            let profiler = &self.profiler;
            self.live_ids
                .retain(|&id| profiler.live_record(id).is_some());
            self.live_ids.reserve(self.live_ids.len().max(1_024));
        }
        self.live_ids.push(e.object);
        self.tick();
    }

    fn on_use(&mut self, e: UseEvent) {
        let sums = &mut self.sums;
        sums.advance(e.time);
        if let Some((site, previous)) = self.profiler.record_use(e) {
            sums.record_idle(site, e.time.saturating_sub(previous));
        }
        self.tick();
    }

    fn on_free(&mut self, e: FreeEvent) {
        let sums = &mut self.sums;
        sums.advance(e.time);
        if let Some(r) = self.profiler.record_free(e) {
            sums.finish(r);
        }
        self.tick();
    }

    fn on_deep_gc(&mut self, e: GcEvent) {
        self.sums.advance(e.time);
        self.profiler.on_deep_gc(e);
        self.tick();
    }

    fn on_retain_sample(&mut self, e: RetainEvent) {
        self.sums.advance(e.time);
        self.profiler.on_retain_sample(e);
        self.tick();
    }

    /// The exit flush: finishes every record still live as an at-exit
    /// record and folds it. The VM reports every survivor through
    /// `on_free` first, so this normally finds none.
    fn on_exit(&mut self, time: u64) {
        let sums = &mut self.sums;
        self.profiler.flush_at_exit(time, |r| sums.finish(r));
        self.live_ids.clear();
        self.tick();
    }

    fn use_delivery(&self) -> UseDelivery {
        UseDelivery::Coalesced
    }

    fn retain_delivery(&self) -> RetainDelivery {
        RetainDelivery::Sample
    }
}

/// Runs `program` under live profiling on the calling thread: the VM
/// steps the trailer table and the drag fold at every heap event.
/// Each rendered snapshot is passed to `on_snapshot` as it is produced.
///
/// When `registry` is given, the run publishes the `heapdrag_live_*`
/// family — the `heapdrag_live_events_total` and
/// `heapdrag_live_snapshots_total` counters — plus
/// `heapdrag_retain_samples_total` and the usual `vm_*` family via
/// [`Vm::attach_metrics`].
///
/// # Errors
///
/// Propagates any [`VmError`] from the run.
///
/// # Panics
///
/// The trailer table keeps one record per object allocated, as
/// [`profile`](crate::profile)'s does, so memory grows with the objects
/// allocated and a run of 2^32 objects or more panics.
pub fn run_live<S: FnMut(&str)>(
    program: &Program,
    input: &[i64],
    config: VmConfig,
    options: &LiveOptions,
    registry: Option<&heapdrag_obs::Registry>,
    on_snapshot: S,
) -> Result<LiveRun, VmError> {
    let mut fold = LiveFold::new(options, on_snapshot);
    let mut vm = Vm::new(program, config);
    if let Some(r) = registry {
        vm.attach_metrics(r);
    }
    let outcome = vm.run_observed(input, &mut fold)?;
    let coldness = fold.coldness_summary();
    let LiveFold {
        profiler,
        sums,
        events,
        snapshots,
        ..
    } = fold;

    let sites = vm.into_sites();
    let chain_names: HashMap<ChainId, String> = sums
        .fold
        .chain_ids()
        .into_iter()
        .map(|c| (c, normalize_chain_name(&sites.format_chain(program, c))))
        .collect();
    let (records, samples, retains) = profiler.into_parts();
    let analyzer = DragAnalyzer::with_config(AnalyzerConfig {
        patterns: options.patterns,
    });
    let mut report = analyzer.finalize(sums.fold);
    report.attach_retains(&retains);

    if let Some(r) = registry {
        r.counter("heapdrag_live_events_total").add(events);
        r.counter("heapdrag_live_snapshots_total").add(snapshots);
        r.counter("heapdrag_retain_samples_total")
            .add(retains.len() as u64);
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
        dropped: 0,
        unmatched: 0,
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
    use heapdrag_vm::observer::UseKind;

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
    fn vm_errors_are_returned() {
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

    /// A fold that never snapshots on its own.
    fn fold_with(window: WindowSpec, cold_after: u64) -> LiveFold<impl FnMut(&str)> {
        let options = LiveOptions {
            window,
            cold_after,
            every: u64::MAX,
            ..LiveOptions::default()
        };
        LiveFold::new(&options, |_: &str| {})
    }

    fn record(id: u64, site: u32, last_use: Option<u64>, freed: u64, size: u64) -> ObjectRecord {
        ObjectRecord {
            object: ObjectId(id),
            class: ClassId(0),
            size,
            created: 0,
            freed,
            last_use,
            alloc_site: ChainId(site),
            last_use_site: last_use.map(|_| ChainId(100 + site)),
            at_exit: false,
        }
    }

    #[test]
    fn rolling_window_evicts_old_buckets() {
        let window = WindowSpec::Rolling {
            window: 1000,
            advance: 100,
        };
        let mut fold = fold_with(window, u64::MAX);
        // Freed at clock 150: bucket 1. Freed at 5_050: bucket 50.
        fold.sums.finish(&record(1, 0, Some(50), 150, 8));
        fold.sums.finish(&record(2, 1, Some(4_100), 5_050, 8));
        let snap = fold.snapshot();
        // Clock is 5_050; the window covers buckets 41..=50, so only
        // site 1's record remains.
        assert_eq!(snap.sites.len(), 1);
        assert_eq!(snap.sites[0].0, ChainId(1));
        // The cumulative fold still holds both records.
        assert_eq!(fold.sums.fold.records, 2);
    }

    #[test]
    fn ring_recycles_slots_in_place() {
        let mut ring = WindowRing::new(300, 100); // 3 slots
        for i in 0..10u64 {
            ring.add(&record(i, (i % 2) as u32, None, i * 100 + 50, 8));
        }
        assert_eq!(ring.buckets.len(), 3);
        // Only the last three buckets (indices 7, 8, 9) are in-window.
        let cells = ring.in_window(950);
        let total: u64 = cells.values().map(|c| c.objects).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn idle_histogram_quantiles() {
        let mut h = IdleHistogram::default();
        assert_eq!(h.median_idle(), 0);
        for v in [0, 3, 5, 9, 1_000] {
            h.record(v);
        }
        assert_eq!(h.total, 5);
        assert_eq!(h.max, 1_000);
        // Median of the five values is 5: bucket 3 = [4, 8).
        assert_eq!(h.median_idle(), 4);
    }

    fn alloc(id: u64, site: u32, size: u64, time: u64) -> AllocEvent {
        AllocEvent::new(ObjectId(id), ClassId(0), size, time, ChainId(site))
    }

    fn use_of(id: u64, site: u32, time: u64) -> UseEvent {
        UseEvent::new(ObjectId(id), UseKind::GetField, time, ChainId(site))
    }

    fn free(id: u64, time: u64) -> FreeEvent {
        FreeEvent::new(ObjectId(id), time)
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
            fold.on_alloc(alloc(r.object.0, r.alloc_site.0, r.size, r.created));
            if let (Some(t), Some(s)) = (r.last_use, r.last_use_site) {
                fold.on_use(use_of(r.object.0, s.0, t));
            }
            fold.on_free(free(r.object.0, r.freed));
        }
        let (rebuilt, _, _) = fold.profiler.into_parts();
        assert_eq!(rebuilt, records);
        let live = DragAnalyzer::new().finalize(fold.sums.fold);
        assert_eq!(live, offline);
    }

    #[test]
    fn coldness_tracks_idle_residents() {
        let mut fold = fold_with(WindowSpec::Unbounded, 1_000);
        fold.on_alloc(alloc(1, 0, 64, 0));
        fold.on_alloc(alloc(2, 1, 32, 0));
        fold.on_use(use_of(2, 9, 4_900));
        // Advance the clock via a GC sample.
        fold.on_deep_gc(GcEvent::new(5_000).with_reachable(96, 2));
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
        fold.on_alloc(alloc(1, 0, 8, 0));
        fold.on_use(use_of(1, 9, 100));
        fold.on_use(use_of(1, 9, 1_100));
        fold.on_free(free(1, 1_200));
        let rows = fold.coldness_summary();
        assert_eq!(rows.len(), 1);
        // Gaps 100, 1_000 and 100: median in bucket [64, 128).
        assert_eq!(
            (rows[0].intervals, rows[0].median_idle, rows[0].max_idle),
            (3, 64, 1_000)
        );
    }

    #[test]
    fn exit_flush_drains_in_object_order() {
        let mut fold = fold_with(WindowSpec::Unbounded, u64::MAX);
        fold.on_alloc(alloc(5, 0, 8, 0));
        fold.on_alloc(alloc(2, 0, 8, 10));
        fold.on_exit(100);
        assert_eq!(fold.sums.fold.records, 2);
        let snap = fold.snapshot();
        assert_eq!(snap.resident_objects, 0);
        let (flushed, _, _) = fold.profiler.into_parts();
        let ids: Vec<u64> = flushed.iter().map(|r| r.object.0).collect();
        assert_eq!(ids, vec![2, 5]);
        assert!(flushed.iter().all(|r| r.at_exit && r.freed == 100));
    }

    /// A seeded complete event stream, in either window mode and long
    /// enough to compact the live-id list: every snapshot counts exactly
    /// the live objects, every free folds its record once, and the exit
    /// drains every resident — whether the survivors arrive as at-exit
    /// frees first, as the VM sends them, or only through the exit flush.
    #[test]
    fn the_engine_folds_complete_event_streams() {
        use heapdrag_testkit::{check, Rng};

        check("live-fold-complete-streams", 64, |rng: &mut Rng| {
            let window = if rng.bool() {
                WindowSpec::Rolling {
                    window: rng.range_u64(512, 8192),
                    advance: rng.range_u64(64, 512),
                }
            } else {
                WindowSpec::Unbounded
            };
            let mut fold = fold_with(window, LiveOptions::default().cold_after);
            let mut clock = 0u64;
            let mut live = Vec::new();
            let objects = rng.range_u64(1, 3_000);
            for i in 0..objects {
                let size = rng.range_u64(8, 256);
                clock += size;
                fold.on_alloc(alloc(i, i as u32 % 5, size, clock));
                live.push(i);
                for _ in 0..rng.range_usize(0, 4) {
                    let id = *rng.choose(&live);
                    clock += rng.range_u64(0, 64);
                    fold.on_use(use_of(id, i as u32 % 3, clock));
                }
                if rng.ratio(4, 5) {
                    let id = live.swap_remove(rng.range_usize(0, live.len()));
                    clock += rng.range_u64(0, 64);
                    let before = fold.sums.fold.records;
                    fold.on_free(free(id, clock));
                    assert_eq!(fold.sums.fold.records, before + 1, "a free folds once");
                }
                if rng.ratio(1, 50) {
                    assert_eq!(
                        fold.snapshot().resident_objects,
                        live.len() as u64,
                        "a snapshot counts exactly the live objects"
                    );
                }
            }
            assert_eq!(fold.snapshot().resident_objects, live.len() as u64);
            if rng.bool() {
                live.sort_unstable();
                for &id in &live {
                    fold.on_free(free(id, clock).with_at_exit(true));
                }
            }
            fold.on_exit(clock);
            assert_eq!(fold.sums.fold.records, objects, "every object folds once");
            let snap = fold.snapshot();
            assert_eq!(snap.resident_objects, 0, "the exit drains every resident");
            let (records, _, _) = fold.profiler.into_parts();
            assert_eq!(records.len() as u64, objects);
            assert_eq!(
                records.iter().filter(|r| r.at_exit).count(),
                live.len(),
                "survivors leave as at-exit records"
            );
        });
    }
}
