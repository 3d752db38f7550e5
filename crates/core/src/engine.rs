//! The drag-engine core: one record-level aggregation fold shared by the
//! offline analyzer, the streaming pipeline, and the in-process live
//! profiler.
//!
//! A [`DragEngine`] folds finished [`ObjectRecord`]s into the per-site
//! sums the drag report is built from. Every consumer — the sharded
//! record-slice path of [`crate::analyzer`], the streaming path of
//! [`crate::pipeline`], and the live feed of [`crate::live`] — goes
//! through [`fold`](DragEngine::fold), so an engine built with
//! [`DragEngine::offline`] and one built with [`DragEngine::live`]
//! perform the identical integer sums in the identical order.
//!
//! The engine keeps no per-object state: the live fold owns a
//! [`DragProfiler`](crate::DragProfiler), the one trailer table, and
//! hands the engine each record that table finishes. On top of the
//! shared fold a live engine offers two dimensions:
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
//! * **Coldness**: per-site log₂ idle-interval histograms
//!   ([`IdleHistogram`]) of the gaps the live fold reads off the
//!   trailers, and — at each snapshot, over the live records the
//!   caller passes in — the *cold-resident* bytes per site: objects still
//!   resident whose last use (or creation) is at least
//!   [`EngineConfig::cold_after`] allocation-clock bytes in the past.
//!   These are the live objects the paper's post-mortem drag can only
//!   blame after they die.
//!
//! All state is exact integers; given the same record sequence the
//! engine is deterministic, which is what lets the live path reproduce
//! the post-mortem report byte-for-byte when no ring-buffer events were
//! dropped (see `tests/live_parity.rs`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use heapdrag_vm::ids::{ChainId, SiteId};

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

/// Live-only engine state: the window ring and the per-site idle
/// histograms. Boxed so an offline engine pays one `None`.
#[derive(Debug, Clone)]
struct LiveState {
    window: WindowSpec,
    cold_after: u64,
    ring: Option<WindowRing>,
    idle: IdMap<ChainId, IdleHistogram>,
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
    /// The nested allocation site of the cold resident objects.
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
    /// Per-site cold resident objects, sorted by bytes (desc), then site.
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

/// The shared aggregation fold. Every path feeds finished
/// [`ObjectRecord`]s through [`fold`](DragEngine::fold); the live path
/// constructs the engine with [`live`](DragEngine::live) and also
/// advances its clock on every heap event and records idle gaps.
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
    /// no idle histograms. Exactly the integer sums the pre-extraction
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
    /// ring and the idle histograms.
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
                idle: IdMap::default(),
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

    /// Advances the allocation clock to `time` — the live fold calls this
    /// on every heap event, so the snapshot cadence depends only on the
    /// event stream.
    pub(crate) fn advance(&mut self, time: u64) {
        self.clock = self.clock.max(time);
    }

    /// Records one idle interval (allocation-clock bytes between two
    /// touches of an object) into `site`'s histogram. A no-op on an
    /// offline engine.
    pub(crate) fn record_idle(&mut self, site: ChainId, gap: u64) {
        if let Some(live) = &mut self.live {
            live.idle.entry(site).or_default().record(gap);
        }
    }

    /// A point-in-time view: the windowed per-site drag table plus the
    /// resident and cold-resident rows over `live_records`, the records
    /// of the objects still live. An offline engine reports its cumulative
    /// table and counts nothing as cold.
    pub fn snapshot<'a>(
        &self,
        live_records: impl IntoIterator<Item = &'a ObjectRecord>,
    ) -> EngineSnapshot {
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
        for r in live_records {
            resident_objects += 1;
            resident_bytes += r.size;
            let idle = self.clock.saturating_sub(r.last_touch());
            if idle < cold_after {
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
    use heapdrag_vm::ids::{ClassId, ObjectId};

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

    #[test]
    fn rolling_window_evicts_old_buckets() {
        let mut engine = DragEngine::live(
            EngineConfig {
                window: WindowSpec::Rolling {
                    window: 1000,
                    advance: 100,
                },
                ..EngineConfig::default()
            },
            |c: ChainId| Some(SiteId(c.0)),
        );
        // Freed at clock 150: bucket 1. Freed at 5_050: bucket 50.
        engine.fold(&record(1, 0, 0, Some(50), 150, 8));
        engine.fold(&record(2, 1, 4_000, Some(4_100), 5_050, 8));
        let snap = engine.snapshot([]);
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
}
