//! The drag-engine core: one record-level aggregation fold shared by the
//! offline analyzer, the streaming pipeline, and the in-process live
//! profiler.
//!
//! Historically the per-site fold lived inside [`crate::analyzer`] (the
//! sharded record-slice path) and [`crate::pipeline`] (the streaming
//! path) as two thin private wrappers around the same accumulator. The
//! [`DragEngine`] extracts that fold behind one type so a third consumer
//! — the live in-VM feed of [`crate::live`] — folds events through
//! *exactly* the code path the offline report uses. Offline behaviour is
//! unchanged: an engine built with [`DragEngine::offline`] performs the
//! identical integer sums in the identical order, so reports stay
//! byte-identical.
//!
//! On top of the shared fold the engine offers two live-only dimensions:
//!
//! * **Rolling window** ([`WindowSpec::Rolling`]): a ring of per-site
//!   window buckets, `window / advance` slots wide, each accumulating
//!   the drag of records whose *free time* lands in its
//!   allocation-clock interval. A [snapshot](DragEngine::snapshot) sums
//!   the in-window buckets, so a long-running service sees "drag
//!   accumulated recently" instead of an ever-growing cumulative total.
//!   Ring slots are recycled in place as the clock advances (free times
//!   are nondecreasing), and stale slots are excluded by bucket index at
//!   snapshot time, so memory is O(slots × sites-per-slot).
//! * **Coldness**: a per-object resident table fed by the live alloc /
//!   use / free events, per-site log₂ idle-interval histograms
//!   ([`IdleHistogram`]) derived from the last-use trailers, and — at
//!   each snapshot — the *cold-resident* bytes per site: objects still
//!   resident whose last use (or creation) is at least
//!   [`EngineConfig::cold_after`] allocation-clock bytes in the past.
//!   These are the live objects the paper's post-mortem drag can only
//!   blame after they die.
//!
//! All state is exact integers; given the same event sequence the engine
//! is deterministic, which is what lets the live path reproduce the
//! post-mortem report byte-for-byte when no ring-buffer events were
//! dropped (see `tests/live_parity.rs`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use heapdrag_vm::ids::{ChainId, ClassId, ObjectId, SiteId};

use crate::integrals::Integrals;
use crate::pattern::PatternConfig;
use crate::record::{GcSample, ObjectRecord, RetainRecord};

/// A map keyed by dense integer ids (objects, chains, sites), hashed by
/// [`IdHasher`] instead of SipHash. Nothing reads these maps in iteration
/// order without sorting first, so the cheaper hash cannot change output.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiplicative hasher for integer keys: each word is folded in with
/// a rotate, xor and multiply by an odd constant (the FxHash step). The
/// multiply is a bijection on the low bits, so dense ids spread over the
/// buckets, and it mixes them into the high bits the table's tag uses.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Exact, order-independent per-group sums — everything
/// [`GroupStats`](crate::analyzer::GroupStats) holds, with the lifetime
/// pattern represented by its sufficient statistics
/// ([`PatternSums`](crate::pattern::PatternSums)) rather than a member
/// list. Merging two partials is integer addition, so shard merges — and
/// the streaming fold, which never sees two records of a group at once —
/// cannot drift from the sequential result.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PartialStats {
    pub(crate) bytes: u64,
    pub(crate) never_used_drag: u128,
    pub(crate) reachable: u128,
    pub(crate) in_use: u128,
    pub(crate) pattern: crate::pattern::PatternSums,
}

impl PartialStats {
    pub(crate) fn add(&mut self, r: &ObjectRecord, patterns: &PatternConfig) {
        self.bytes += r.size;
        self.reachable += r.reachable_product();
        self.in_use += r.in_use_product();
        if r.is_never_used(patterns.ctor_use_window) {
            self.never_used_drag += r.drag();
        }
        self.pattern.add(r, patterns);
    }

    fn merge(&mut self, other: &PartialStats) {
        self.bytes += other.bytes;
        self.never_used_drag += other.never_used_drag;
        self.reachable += other.reachable;
        self.in_use += other.in_use;
        self.pattern.merge(&other.pattern);
    }
}

/// All three partitions plus totals for one shard of records.
/// `Clone` lets the serve layer finalize a per-session report while
/// retaining the accumulator for the fleet-wide merge.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardAccum {
    pub(crate) nested: IdMap<ChainId, PartialStats>,
    pub(crate) coarse: IdMap<SiteId, PartialStats>,
    pub(crate) pairs: IdMap<(ChainId, Option<ChainId>), PartialStats>,
    pub(crate) totals: Integrals,
}

impl ShardAccum {
    pub(crate) fn group_count(&self) -> u64 {
        (self.nested.len() + self.coarse.len() + self.pairs.len()) as u64
    }

    /// Folds one record into all three partitions and the totals.
    pub(crate) fn add<F>(&mut self, r: &ObjectRecord, patterns: &PatternConfig, innermost: &F)
    where
        F: Fn(ChainId) -> Option<SiteId> + ?Sized,
    {
        self.nested
            .entry(r.alloc_site)
            .or_default()
            .add(r, patterns);
        if let Some(s) = innermost(r.alloc_site) {
            self.coarse.entry(s).or_default().add(r, patterns);
        }
        let use_site = if r.is_never_used(patterns.ctor_use_window) {
            None
        } else {
            r.last_use_site
        };
        self.pairs
            .entry((r.alloc_site, use_site))
            .or_default()
            .add(r, patterns);
        self.totals.reachable += r.reachable_product();
        self.totals.in_use += r.in_use_product();
    }

    pub(crate) fn merge(&mut self, other: ShardAccum) {
        for (k, g) in other.nested {
            self.nested.entry(k).or_default().merge(&g);
        }
        for (k, g) in other.coarse {
            self.coarse.entry(k).or_default().merge(&g);
        }
        for (k, g) in other.pairs {
            self.pairs.entry(k).or_default().merge(&g);
        }
        self.totals.reachable += other.totals.reachable;
        self.totals.in_use += other.totals.in_use;
    }

    /// Every chain id the accumulator has seen — allocation chains plus
    /// last-use chains. The live driver resolves exactly these names
    /// after the VM exits, so its final report renders the same site
    /// strings the log writer would have emitted.
    pub(crate) fn chain_ids(&self) -> Vec<ChainId> {
        let mut ids: Vec<ChainId> = self.nested.keys().copied().collect();
        ids.extend(self.pairs.keys().filter_map(|(_, last_use)| *last_use));
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Accumulates one contiguous shard.
pub(crate) fn accumulate_shard<F>(
    records: &[ObjectRecord],
    patterns: &PatternConfig,
    innermost: &F,
) -> ShardAccum
where
    F: Fn(ChainId) -> Option<SiteId>,
{
    let mut engine = DragEngine::offline(*patterns, innermost);
    for r in records {
        engine.fold(r);
    }
    engine.into_accum()
}

/// How much history a live engine aggregates per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep everything — the cumulative fold the offline report uses.
    /// A live run with an unbounded window reproduces the post-mortem
    /// report byte-for-byte (when no events were dropped).
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

/// Configuration of a live [`DragEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Pattern-classification thresholds (the offline analyzer's).
    pub patterns: PatternConfig,
    /// Window mode for snapshot site tables.
    pub window: WindowSpec,
    /// Idle threshold, in allocation-clock bytes, after which a resident
    /// object counts as *cold* in snapshots.
    pub cold_after: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            patterns: PatternConfig::default(),
            window: WindowSpec::Unbounded,
            cold_after: 256 * 1024,
        }
    }
}

/// A base-2 logarithmic histogram of idle intervals (allocation-clock
/// bytes between consecutive uses of the same object), 65 buckets:
/// bucket 0 holds zero, bucket `k` holds values in `[2^(k-1), 2^k)`.
/// The same bucketing `heapdrag-obs` histograms use, kept local so the
/// engine stays free of registry plumbing.
#[derive(Debug, Clone)]
pub struct IdleHistogram {
    counts: [u64; 65],
    total: u64,
    max: u64,
}

impl Default for IdleHistogram {
    fn default() -> Self {
        IdleHistogram {
            counts: [0; 65],
            total: 0,
            max: 0,
        }
    }
}

impl IdleHistogram {
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one idle interval.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Number of intervals recorded.
    pub fn intervals(&self) -> u64 {
        self.total
    }

    /// The largest interval recorded (exact, not bucketed).
    pub fn max_idle(&self) -> u64 {
        self.max
    }

    /// Lower bound of the bucket holding the median interval (0 when
    /// empty). Exact integer arithmetic: deterministic across runs.
    pub fn median_idle(&self) -> u64 {
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

/// One still-resident object in a live engine — the in-engine mirror of
/// the profiler trailer, rebuilt from alloc/use events.
#[derive(Debug, Clone, Copy)]
struct Resident {
    class: ClassId,
    site: ChainId,
    size: u64,
    created: u64,
    last_use: Option<(u64, ChainId)>,
}

impl Resident {
    /// The allocation-clock time this object was last touched: its last
    /// use, or its creation when never used.
    fn last_touch(&self) -> u64 {
        self.last_use.map_or(self.created, |(t, _)| t)
    }
}

/// One per-site cell of a rolling-window bucket.
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

/// Live-only engine state: the window ring, the resident table, and the
/// per-site idle histograms. Boxed so an offline engine pays one `None`.
#[derive(Debug, Clone)]
struct LiveState {
    window: WindowSpec,
    cold_after: u64,
    ring: Option<WindowRing>,
    residents: IdMap<ObjectId, Resident>,
    resident_bytes: u64,
    idle: IdMap<ChainId, IdleHistogram>,
    unmatched: u64,
}

/// One site row of an [`EngineSnapshot`]: drag accumulated inside the
/// snapshot's window (or since the run started, for
/// [`WindowSpec::Unbounded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSite {
    /// The nested allocation site.
    pub site: ChainId,
    /// Objects freed in the window.
    pub objects: u64,
    /// Bytes those objects held.
    pub bytes: u64,
    /// Their accumulated drag (byte²).
    pub drag: u128,
}

/// One cold-resident row of an [`EngineSnapshot`]: objects still alive
/// whose last touch is at least `cold_after` allocation-clock bytes ago.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdSite {
    /// The nested allocation site of the cold residents.
    pub site: ChainId,
    /// How many resident objects at this site are cold.
    pub objects: u64,
    /// The bytes they pin.
    pub bytes: u64,
    /// The largest idle gap among them (allocation-clock bytes).
    pub max_idle: u64,
}

/// A point-in-time view of a live engine: the windowed site table plus
/// the coldness dimension.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Allocation clock at the snapshot.
    pub clock: u64,
    /// Records folded so far (freed objects).
    pub records: u64,
    /// The window the site rows aggregate over.
    pub window: WindowSpec,
    /// Objects currently resident (allocated, not yet freed).
    pub resident_objects: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// The idle threshold the cold rows used.
    pub cold_after: u64,
    /// Resident objects idle for at least `cold_after` bytes.
    pub cold_objects: u64,
    /// Bytes those cold objects pin.
    pub cold_bytes: u64,
    /// Per-site windowed drag, sorted by drag (desc), then site.
    pub sites: Vec<SnapshotSite>,
    /// Per-site cold residents, sorted by bytes (desc), then site.
    pub cold_sites: Vec<ColdSite>,
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

/// The shared aggregation fold. Offline paths construct it with
/// [`offline`](DragEngine::offline) and feed finished [`ObjectRecord`]s
/// through [`fold`](DragEngine::fold); the live path constructs it with
/// [`live`](DragEngine::live) and feeds raw heap events through
/// [`observe_alloc`](DragEngine::observe_alloc) /
/// [`observe_use`](DragEngine::observe_use) /
/// [`observe_free`](DragEngine::observe_free), which rebuild the
/// records and route them through the *same* fold.
#[derive(Debug, Clone)]
pub struct DragEngine<F> {
    accum: ShardAccum,
    patterns: PatternConfig,
    innermost: F,
    records: u64,
    alloc_bytes: u64,
    at_exit: u64,
    samples: u64,
    retains: Vec<RetainRecord>,
    clock: u64,
    live: Option<Box<LiveState>>,
}

impl<F> DragEngine<F>
where
    F: Fn(ChainId) -> Option<SiteId>,
{
    /// An engine for the offline paths: the pure fold, no window ring,
    /// no resident table. Exactly the integer sums the pre-extraction
    /// analyzer performed, in the same order.
    pub fn offline(patterns: PatternConfig, innermost: F) -> Self {
        DragEngine {
            accum: ShardAccum::default(),
            patterns,
            innermost,
            records: 0,
            alloc_bytes: 0,
            at_exit: 0,
            samples: 0,
            retains: Vec::new(),
            clock: 0,
            live: None,
        }
    }

    /// An engine for the live path: the offline fold plus the window
    /// ring, the resident table, and the idle histograms.
    pub fn live(config: EngineConfig, innermost: F) -> Self {
        let ring = match config.window {
            WindowSpec::Unbounded => None,
            WindowSpec::Rolling { window, advance } => Some(WindowRing::new(window, advance)),
        };
        DragEngine {
            accum: ShardAccum::default(),
            patterns: config.patterns,
            innermost,
            records: 0,
            alloc_bytes: 0,
            at_exit: 0,
            samples: 0,
            retains: Vec::new(),
            clock: 0,
            live: Some(Box::new(LiveState {
                window: config.window,
                cold_after: config.cold_after,
                ring,
                residents: IdMap::default(),
                resident_bytes: 0,
                idle: IdMap::default(),
                unmatched: 0,
            })),
        }
    }

    /// Folds one finished record into the per-site aggregates — the one
    /// aggregation step every consumer shares.
    pub fn fold(&mut self, r: &ObjectRecord) {
        self.records += 1;
        self.alloc_bytes += r.size;
        self.at_exit += u64::from(r.at_exit);
        self.accum.add(r, &self.patterns, &self.innermost);
        self.clock = self.clock.max(r.freed);
        if let Some(live) = &mut self.live {
            if let Some(ring) = &mut live.ring {
                ring.add(r);
            }
        }
    }

    /// Notes one deep-GC sample.
    pub fn note_sample(&mut self, s: &GcSample) {
        self.samples += 1;
        self.clock = self.clock.max(s.time);
    }

    /// Notes one retaining-path sample, already attributed to its
    /// allocation site (the offline ingest path). The engine keeps the
    /// raw samples; [`DragReport::attach_retains`](crate::analyzer::DragReport::attach_retains)
    /// folds them into per-site summaries after the report is finalized.
    pub fn note_retain(&mut self, r: RetainRecord) {
        self.clock = self.clock.max(r.time);
        self.retains.push(r);
    }

    /// Live event: a retaining-path sample for a resident object. The
    /// allocation site comes from the object's resident trailer; samples
    /// for objects the engine never saw allocated (their alloc event was
    /// dropped) count as unmatched and are otherwise ignored.
    pub fn observe_retain(
        &mut self,
        object: ObjectId,
        size: u64,
        time: u64,
        depth: u32,
        truncated: bool,
        path: String,
    ) {
        self.clock = self.clock.max(time);
        let Some(live) = &mut self.live else { return };
        let Some(resident) = live.residents.get(&object) else {
            live.unmatched += 1;
            return;
        };
        let alloc_site = resident.site;
        self.retains.push(RetainRecord {
            alloc_site,
            size,
            time,
            depth,
            truncated,
            path,
        });
    }

    /// Live event: an object was allocated. Starts its resident trailer.
    pub fn observe_alloc(
        &mut self,
        object: ObjectId,
        class: ClassId,
        site: ChainId,
        size: u64,
        time: u64,
    ) {
        self.clock = self.clock.max(time);
        let Some(live) = &mut self.live else { return };
        live.resident_bytes += size;
        live.residents.insert(
            object,
            Resident {
                class,
                site,
                size,
                created: time,
                last_use: None,
            },
        );
    }

    /// Live event: an object was used. Records the idle gap since its
    /// previous touch into the allocation site's histogram and advances
    /// the trailer (last-write-wins, same as the file-logging profiler).
    /// Unknown objects (their alloc event was dropped) count as
    /// unmatched and are otherwise ignored.
    pub fn observe_use(&mut self, object: ObjectId, site: ChainId, time: u64) {
        self.clock = self.clock.max(time);
        let Some(live) = &mut self.live else { return };
        match live.residents.get_mut(&object) {
            Some(r) => {
                let gap = time.saturating_sub(r.last_touch());
                live.idle.entry(r.site).or_default().record(gap);
                r.last_use = Some((time, site));
            }
            None => live.unmatched += 1,
        }
    }

    /// Live event: an object was reclaimed (or survived to exit, with
    /// `at_exit`). Finishes the trailer into an [`ObjectRecord`], folds
    /// it, and returns it so the caller may also retain it (the
    /// `profile --live-window` path still writes a log). Unknown objects
    /// count as unmatched and return `None`.
    pub fn observe_free(
        &mut self,
        object: ObjectId,
        time: u64,
        at_exit: bool,
    ) -> Option<ObjectRecord> {
        self.clock = self.clock.max(time);
        let live = self.live.as_mut()?;
        let Some(resident) = live.residents.remove(&object) else {
            live.unmatched += 1;
            return None;
        };
        live.resident_bytes -= resident.size;
        let gap = time.saturating_sub(resident.last_touch());
        live.idle.entry(resident.site).or_default().record(gap);
        let record = ObjectRecord {
            object,
            class: resident.class,
            size: resident.size,
            created: resident.created,
            freed: time,
            last_use: resident.last_use.map(|(t, _)| t),
            alloc_site: resident.site,
            last_use_site: resident.last_use.map(|(_, s)| s),
            at_exit,
        };
        self.fold(&record);
        Some(record)
    }

    /// Flushes every still-resident object as an at-exit record at
    /// `time` — the live equivalent of the profiler's defensive exit
    /// flush. Residents drain in object-id order, matching the sorted
    /// record order the file-logging profiler emits.
    pub fn flush_residents(&mut self, time: u64) -> Vec<ObjectRecord> {
        let Some(live) = &mut self.live else {
            return Vec::new();
        };
        let mut ids: Vec<ObjectId> = live.residents.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| self.observe_free(id, time, true))
            .collect()
    }

    /// A point-in-time view: the windowed per-site drag table plus the
    /// cold-resident rows. Meaningful for live engines; an offline
    /// engine reports its cumulative table and no residents.
    pub fn snapshot(&self) -> EngineSnapshot {
        let (window, cold_after) = match &self.live {
            Some(live) => (live.window, live.cold_after),
            None => (WindowSpec::Unbounded, u64::MAX),
        };
        let cells: IdMap<ChainId, WindowCell> =
            match self.live.as_ref().and_then(|l| l.ring.as_ref()) {
                Some(ring) => ring.in_window(self.clock),
                None => self
                    .accum
                    .nested
                    .iter()
                    .map(|(site, p)| {
                        (
                            *site,
                            WindowCell {
                                objects: p.pattern.objects,
                                bytes: p.bytes,
                                drag: p.pattern.drag,
                            },
                        )
                    })
                    .collect(),
            };
        let mut sites: Vec<SnapshotSite> = cells
            .into_iter()
            .map(|(site, c)| SnapshotSite {
                site,
                objects: c.objects,
                bytes: c.bytes,
                drag: c.drag,
            })
            .collect();
        sites.sort_by(|a, b| b.drag.cmp(&a.drag).then(a.site.cmp(&b.site)));

        let mut resident_objects = 0u64;
        let mut resident_bytes = 0u64;
        let mut cold_objects = 0u64;
        let mut cold_bytes = 0u64;
        let mut cold_cells: IdMap<ChainId, ColdSite> = IdMap::default();
        if let Some(live) = &self.live {
            resident_objects = live.residents.len() as u64;
            resident_bytes = live.resident_bytes;
            for r in live.residents.values() {
                let idle = self.clock.saturating_sub(r.last_touch());
                if idle < live.cold_after {
                    continue;
                }
                cold_objects += 1;
                cold_bytes += r.size;
                let cell = cold_cells.entry(r.site).or_insert(ColdSite {
                    site: r.site,
                    objects: 0,
                    bytes: 0,
                    max_idle: 0,
                });
                cell.objects += 1;
                cell.bytes += r.size;
                cell.max_idle = cell.max_idle.max(idle);
            }
        }
        let mut cold_sites: Vec<ColdSite> = cold_cells.into_values().collect();
        cold_sites.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));

        EngineSnapshot {
            clock: self.clock,
            records: self.records,
            window,
            resident_objects,
            resident_bytes,
            cold_after,
            cold_objects,
            cold_bytes,
            sites,
            cold_sites,
        }
    }

    /// Per-site idle-interval summaries, sorted by largest interval
    /// (desc), then interval count (desc), then site — the coldness
    /// columns of the final live report.
    pub fn coldness_summary(&self) -> Vec<SiteIdleSummary> {
        let Some(live) = &self.live else {
            return Vec::new();
        };
        let mut rows: Vec<SiteIdleSummary> = live
            .idle
            .iter()
            .map(|(site, h)| SiteIdleSummary {
                site: *site,
                intervals: h.intervals(),
                median_idle: h.median_idle(),
                max_idle: h.max_idle(),
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

    /// The allocation clock: the largest event time folded so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Records folded (freed objects).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total bytes allocated by the folded records.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes
    }

    /// Folded records that were still live at exit.
    pub fn at_exit_records(&self) -> u64 {
        self.at_exit
    }

    /// Deep-GC samples noted.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The retaining-path samples folded so far.
    pub fn retain_samples(&self) -> &[RetainRecord] {
        &self.retains
    }

    /// Drains the retaining-path samples (the live driver attaches them
    /// to the final report after finalizing the accumulator).
    pub fn take_retains(&mut self) -> Vec<RetainRecord> {
        std::mem::take(&mut self.retains)
    }

    /// Events that referenced an object the engine never saw allocated
    /// (their alloc event was dropped by the ring buffer).
    pub fn unmatched(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.unmatched)
    }

    /// Every chain id the aggregates reference (allocation and last-use
    /// chains) — what the live driver must resolve names for.
    pub fn chains_seen(&self) -> Vec<ChainId> {
        self.accum.chain_ids()
    }

    pub(crate) fn into_accum(self) -> ShardAccum {
        self.accum
    }

    pub(crate) fn into_fold_parts(self) -> (ShardAccum, u64, u64, u64, u64, Vec<RetainRecord>) {
        (
            self.accum,
            self.records,
            self.alloc_bytes,
            self.at_exit,
            self.samples,
            self.retains,
        )
    }
}

impl<F> crate::stream::StreamFold for DragEngine<F>
where
    F: Fn(ChainId) -> Option<SiteId>,
{
    fn record(&mut self, r: ObjectRecord) {
        self.fold(&r);
    }

    fn sample(&mut self, s: GcSample) {
        self.note_sample(&s);
    }

    fn retain(&mut self, r: RetainRecord) {
        self.note_retain(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        id: u64,
        site: u32,
        created: u64,
        last_use: Option<u64>,
        freed: u64,
        size: u64,
    ) -> ObjectRecord {
        ObjectRecord {
            object: ObjectId(id),
            class: ClassId(0),
            size,
            created,
            freed,
            last_use,
            alloc_site: ChainId(site),
            last_use_site: last_use.map(|_| ChainId(100 + site)),
            at_exit: false,
        }
    }

    fn live_engine(
        window: WindowSpec,
        cold_after: u64,
    ) -> DragEngine<fn(ChainId) -> Option<SiteId>> {
        DragEngine::live(
            EngineConfig {
                patterns: PatternConfig::default(),
                window,
                cold_after,
            },
            |c: ChainId| Some(SiteId(c.0)),
        )
    }

    /// The event path (alloc/use/free) folds the same sums the record
    /// path does: identical reports from either side of the engine.
    #[test]
    fn event_path_matches_record_path() {
        let records = vec![
            record(1, 0, 0, Some(1_000), 50_000, 64),
            record(2, 1, 100, None, 70_000, 32),
            record(3, 0, 200, Some(60_000), 90_000, 128),
        ];
        let offline = crate::DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));

        let mut engine = live_engine(WindowSpec::Unbounded, u64::MAX);
        for r in &records {
            engine.observe_alloc(r.object, r.class, r.alloc_site, r.size, r.created);
            if let (Some(t), Some(s)) = (r.last_use, r.last_use_site) {
                engine.observe_use(r.object, s, t);
            }
            let rebuilt = engine.observe_free(r.object, r.freed, r.at_exit).unwrap();
            assert_eq!(&rebuilt, r);
        }
        assert_eq!(engine.unmatched(), 0);
        let live = crate::DragAnalyzer::new().finalize(engine.into_accum());
        assert_eq!(live, offline);
    }

    #[test]
    fn rolling_window_evicts_old_buckets() {
        let mut engine = live_engine(
            WindowSpec::Rolling {
                window: 1000,
                advance: 100,
            },
            u64::MAX,
        );
        // Freed at clock 150: bucket 1. Freed at 5_050: bucket 50.
        engine.fold(&record(1, 0, 0, Some(50), 150, 8));
        engine.fold(&record(2, 1, 4_000, Some(4_100), 5_050, 8));
        let snap = engine.snapshot();
        // Clock is 5_050; the window covers buckets 41..=50, so only
        // site 1's record remains.
        assert_eq!(snap.sites.len(), 1);
        assert_eq!(snap.sites[0].site, ChainId(1));
        // The cumulative aggregates still hold both records.
        assert_eq!(engine.records(), 2);
    }

    #[test]
    fn ring_recycles_slots_in_place() {
        let mut ring = WindowRing::new(300, 100); // 3 slots
        for i in 0..10u64 {
            ring.add(&record(i, (i % 2) as u32, 0, None, i * 100 + 50, 8));
        }
        assert_eq!(ring.buckets.len(), 3);
        // Only the last three buckets (indices 7, 8, 9) are in-window.
        let cells = ring.in_window(950);
        let total: u64 = cells.values().map(|c| c.objects).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn coldness_tracks_idle_residents() {
        let mut engine = live_engine(WindowSpec::Unbounded, 1_000);
        engine.observe_alloc(ObjectId(1), ClassId(0), ChainId(0), 64, 0);
        engine.observe_alloc(ObjectId(2), ClassId(0), ChainId(1), 32, 0);
        engine.observe_use(ObjectId(2), ChainId(9), 4_900);
        // Advance the clock via a GC sample.
        engine.note_sample(&GcSample {
            time: 5_000,
            reachable_bytes: 96,
            reachable_count: 2,
        });
        let snap = engine.snapshot();
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

    #[test]
    fn idle_histogram_quantiles() {
        let mut h = IdleHistogram::default();
        assert_eq!(h.median_idle(), 0);
        for v in [0, 3, 5, 9, 1_000] {
            h.record(v);
        }
        assert_eq!(h.intervals(), 5);
        assert_eq!(h.max_idle(), 1_000);
        // Median of the five values is 5: bucket 3 = [4, 8).
        assert_eq!(h.median_idle(), 4);
    }

    #[test]
    fn unmatched_events_are_counted_not_folded() {
        let mut engine = live_engine(WindowSpec::Unbounded, u64::MAX);
        engine.observe_use(ObjectId(7), ChainId(0), 10);
        assert!(engine.observe_free(ObjectId(7), 20, false).is_none());
        assert_eq!(engine.unmatched(), 2);
        assert_eq!(engine.records(), 0);
    }

    #[test]
    fn flush_residents_drains_in_object_order() {
        let mut engine = live_engine(WindowSpec::Unbounded, u64::MAX);
        engine.observe_alloc(ObjectId(5), ClassId(0), ChainId(0), 8, 0);
        engine.observe_alloc(ObjectId(2), ClassId(0), ChainId(0), 8, 10);
        let flushed = engine.flush_residents(100);
        let ids: Vec<u64> = flushed.iter().map(|r| r.object.0).collect();
        assert_eq!(ids, vec![2, 5]);
        assert!(flushed.iter().all(|r| r.at_exit && r.freed == 100));
        assert_eq!(engine.snapshot().resident_objects, 0);
    }
}
