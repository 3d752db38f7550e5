//! The drag fold: the one record-level aggregation every analysis path
//! shares.
//!
//! A [`DragFold`] holds the per-site sums the drag report is built from
//! (three partitions plus the whole-run integrals) and the run counters
//! (records, allocated bytes, at-exit records, deep-GC samples, retain
//! samples). It has one `add` per record, sample and retain sample, and
//! one commutative [`merge`](DragFold::merge). The sequential and sharded
//! record-slice analysis of [`crate::analyzer`], the streaming analyze of
//! [`crate::pipeline`], the serve layer's fleet report and the live run of
//! [`crate::live`] all fold through it, so they perform the identical
//! integer sums in the identical order; classification and sorting happen
//! once, after the last merge, in `DragAnalyzer::finalize`.
//!
//! All state is exact integers, so a fold is deterministic for a given
//! record sequence and a merge of folds cannot drift from folding the
//! concatenated sequence: that is what keeps reports byte-identical for
//! every shard count, read geometry, session order and live run (the
//! `parallel_parity`, `streaming_parity`, `serve_concurrency` and
//! `live_parity` suites).

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

/// The per-site tables and run counters of one fold: the mergeable value
/// every analysis path accumulates into. `Clone` lets the serve layer
/// finalize a per-session report while keeping the fold for the fleet
/// merge.
#[derive(Debug, Clone, Default)]
pub(crate) struct DragFold {
    pub(crate) nested: IdMap<ChainId, PartialStats>,
    pub(crate) coarse: IdMap<SiteId, PartialStats>,
    pub(crate) pairs: IdMap<(ChainId, Option<ChainId>), PartialStats>,
    pub(crate) totals: Integrals,
    /// Object records folded.
    pub(crate) records: u64,
    /// Total bytes allocated by those records.
    pub(crate) alloc_bytes: u64,
    /// Records still live at exit.
    pub(crate) at_exit: u64,
    /// Deep-GC samples folded.
    pub(crate) samples: u64,
    /// Retaining-path samples, kept whole: they merge by concatenation
    /// and are summarised per (site, path) after finalization.
    pub(crate) retains: Vec<RetainRecord>,
}

impl DragFold {
    /// Folds one record into the counters, all three partitions and the
    /// totals.
    pub(crate) fn add_record<F>(
        &mut self,
        r: &ObjectRecord,
        patterns: &PatternConfig,
        innermost: &F,
    ) where
        F: Fn(ChainId) -> Option<SiteId> + ?Sized,
    {
        self.records += 1;
        self.alloc_bytes += r.size;
        self.at_exit += u64::from(r.at_exit);
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

    /// Counts one deep-GC sample.
    pub(crate) fn add_sample(&mut self) {
        self.samples += 1;
    }

    /// Keeps one retaining-path sample, already attributed to its
    /// allocation site.
    pub(crate) fn add_retain(&mut self, r: RetainRecord) {
        self.retains.push(r);
    }

    /// Adds `other` into `self`: integer sums throughout, retain samples
    /// appended. Commutative up to retain order, which finalization
    /// sorts away.
    pub(crate) fn merge(&mut self, other: DragFold) {
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
        self.records += other.records;
        self.alloc_bytes += other.alloc_bytes;
        self.at_exit += other.at_exit;
        self.samples += other.samples;
        self.retains.extend(other.retains);
    }

    pub(crate) fn group_count(&self) -> u64 {
        (self.nested.len() + self.coarse.len() + self.pairs.len()) as u64
    }

    /// Every chain id the fold has seen — allocation chains plus
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

/// Folds one contiguous slice of records.
pub(crate) fn accumulate<F>(
    records: &[ObjectRecord],
    patterns: &PatternConfig,
    innermost: &F,
) -> DragFold
where
    F: Fn(ChainId) -> Option<SiteId>,
{
    let mut fold = DragFold::default();
    for r in records {
        fold.add_record(r, patterns, innermost);
    }
    fold
}

/// A [`DragFold`] with the thresholds and the innermost-site resolver its
/// records need: what the streaming merge folds into.
pub(crate) struct StreamDragFold<F> {
    pub(crate) fold: DragFold,
    pub(crate) patterns: PatternConfig,
    pub(crate) innermost: F,
}

impl<F> crate::stream::StreamFold for StreamDragFold<F>
where
    F: Fn(ChainId) -> Option<SiteId>,
{
    fn record(&mut self, r: ObjectRecord) {
        self.fold.add_record(&r, &self.patterns, &self.innermost);
    }

    fn sample(&mut self, _: GcSample) {
        self.fold.add_sample();
    }

    fn retain(&mut self, r: RetainRecord) {
        self.fold.add_retain(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DragAnalyzer;
    use heapdrag_vm::ids::{ClassId, ObjectId};

    fn counters(f: &DragFold) -> (u64, u64, u64, u64, usize) {
        (
            f.records,
            f.alloc_bytes,
            f.at_exit,
            f.samples,
            f.retains.len(),
        )
    }

    /// Folding two halves and merging them gives the same counters and
    /// the same finalized report as folding the whole run at once.
    #[test]
    fn merging_folds_equals_folding_the_concatenation() {
        let records: Vec<ObjectRecord> = (0..50u64)
            .map(|i| ObjectRecord {
                object: ObjectId(i),
                class: ClassId(0),
                size: 8 + (i % 7) * 16,
                created: i * 10,
                freed: i * 10 + 300 + (i % 5) * 100,
                last_use: (i % 3 != 0).then_some(i * 10 + 150),
                alloc_site: ChainId((i % 4) as u32),
                last_use_site: (i % 3 != 0).then_some(ChainId(10 + (i % 2) as u32)),
                at_exit: i % 9 == 0,
            })
            .collect();
        let retain = RetainRecord {
            alloc_site: ChainId(1),
            size: 24,
            time: 200,
            depth: 2,
            truncated: false,
            path: "static Main.keep -> Node.next".to_string(),
        };
        let patterns = PatternConfig::default();
        let innermost = |c: ChainId| Some(SiteId(c.0 % 3));

        let mut whole = accumulate(&records, &patterns, &innermost);
        whole.add_sample();
        whole.add_retain(retain.clone());
        let mut merged = accumulate(&records[20..], &patterns, &innermost);
        let mut front = accumulate(&records[..20], &patterns, &innermost);
        front.add_sample();
        front.add_retain(retain);
        merged.merge(front);

        assert_eq!(counters(&merged), (50, counters(&whole).1, 6, 1, 1));
        assert_eq!(counters(&merged), counters(&whole));
        assert_eq!(merged.chain_ids(), whole.chain_ids());
        let analyzer = DragAnalyzer::new();
        assert_eq!(analyzer.finalize(merged), analyzer.finalize(whole));
    }
}
