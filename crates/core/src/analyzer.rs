//! The off-line phase: partition dragged objects by site and produce
//! drag-sorted reports (§2.2 of the paper).
//!
//! The partitioning is data-parallel: the record slice is split into
//! contiguous shards, each shard accumulates *partial groups* (exact,
//! order-independent integer sums — including the drag moments lifetime
//! classification needs, see `crate::pattern::PatternSums`) on its own
//! worker thread, and a commutative merge combines the shards. Because
//! every per-group quantity, classification included, is derived from
//! those sums after the merge, the report is byte-identical for every
//! shard count — and for the streaming ingest path, which folds records
//! into the same sums chunk by chunk without ever materialising the
//! record vector. See [`crate::parallel`] for the configuration and
//! [`crate::stream`] for the streaming fold.

use std::collections::HashMap;
use std::time::Instant;

use heapdrag_vm::ids::{ChainId, SiteId};

use crate::engine::IdMap;
pub(crate) use crate::engine::{accumulate_shard, PartialStats, ShardAccum};
use crate::integrals::Integrals;
use crate::parallel::{ParallelConfig, ParallelMetrics, ShardMetrics};
use crate::pattern::{classify_from_sums, LifetimePattern, PatternConfig, TransformKind};
use crate::record::{ObjectRecord, RetainRecord};

/// Aggregate statistics for one group of objects (a partition cell).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Number of objects in the group.
    pub objects: u64,
    /// Objects never used (within the constructor window).
    pub never_used: u64,
    /// Total bytes allocated by the group.
    pub bytes: u64,
    /// Accumulated drag space-time product (byte²).
    pub drag: u128,
    /// Accumulated drag due to never-used objects only (byte²).
    pub never_used_drag: u128,
    /// Accumulated reachable space-time product (byte²).
    pub reachable: u128,
    /// Accumulated in-use space-time product (byte²).
    pub in_use: u128,
    /// Lifetime behaviour classification.
    pub pattern: LifetimePattern,
}

impl GroupStats {
    /// The rewriting suggested by the group's lifetime pattern.
    pub fn suggested_transform(&self) -> TransformKind {
        self.pattern.suggested_transform()
    }
}

/// Drag accumulated per nested allocation site.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedSiteEntry {
    /// The nested allocation site (call chain, innermost first).
    pub site: ChainId,
    /// Aggregates for its objects.
    pub stats: GroupStats,
}

/// Drag accumulated per coarse (innermost-only) allocation site.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseSiteEntry {
    /// The allocation site proper.
    pub site: SiteId,
    /// Aggregates for its objects.
    pub stats: GroupStats,
}

/// Drag accumulated per (nested allocation site, nested last-use site) pair;
/// the last-use site hints at where a reference goes dead (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocUsePairEntry {
    /// The nested allocation site.
    pub alloc_site: ChainId,
    /// The nested last-use site; `None` groups the never-used objects.
    pub last_use_site: Option<ChainId>,
    /// Aggregates for the pair.
    pub stats: GroupStats,
}

/// One sampled retaining path of an allocation site, with its sampled
/// weight. Weights are exact integer sums of the sampled objects' sizes,
/// so the entry is identical whatever order the samples arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainPathEntry {
    /// The rendered access path, root first, e.g.
    /// `static Holder.survivor -> Thing.next`.
    pub path: String,
    /// Samples that observed this path for this site.
    pub samples: u64,
    /// Total size of the sampled objects (the path's sampled weight).
    pub bytes: u64,
    /// True if any sample hit the depth bound before reaching the object.
    pub truncated: bool,
    /// Largest edge-step count among the samples.
    pub max_depth: u32,
}

/// Sampled retaining-path summary for one allocation site: who was
/// holding this site's surviving objects at deep-GC censuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRetainEntry {
    /// The nested allocation site of the sampled objects.
    pub site: ChainId,
    /// Total samples drawn for this site.
    pub samples: u64,
    /// Total sampled bytes for this site.
    pub bytes: u64,
    /// Distinct paths, heaviest first (bytes desc, samples desc, path asc).
    pub paths: Vec<RetainPathEntry>,
}

impl SiteRetainEntry {
    /// The heaviest sampled path, if any — the optimizer's anchor.
    pub fn dominant_path(&self) -> Option<&RetainPathEntry> {
        self.paths.first()
    }
}

/// The full output of the off-line analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DragReport {
    /// Sites sorted by accumulated drag, largest first.
    pub by_nested_site: Vec<NestedSiteEntry>,
    /// Coarse partition (allocation site only), sorted by drag.
    pub by_coarse_site: Vec<CoarseSiteEntry>,
    /// Partition by (allocation site, last-use site), sorted by drag.
    pub by_alloc_and_last_use: Vec<AllocUsePairEntry>,
    /// Nested sites whose objects are *all* never-used — the paper's "sure
    /// bet" list — sorted by drag.
    pub never_used_sites: Vec<NestedSiteEntry>,
    /// Sampled retaining-path summaries per site, heaviest first. Empty
    /// until [`attach_retains`](Self::attach_retains) is called (and
    /// always empty when sampling was off), so reports without samples
    /// are unchanged byte-for-byte.
    pub retaining: Vec<SiteRetainEntry>,
    /// Whole-run integrals.
    pub totals: Integrals,
}

impl DragReport {
    /// Total drag across the run (byte²).
    pub fn total_drag(&self) -> u128 {
        self.totals.drag()
    }

    /// The entry for a specific nested site, if present.
    pub fn nested_site(&self, site: ChainId) -> Option<&NestedSiteEntry> {
        self.by_nested_site.iter().find(|e| e.site == site)
    }

    /// The retaining-path summary for a specific nested site, if any
    /// samples were attached for it.
    pub fn retain_entry(&self, site: ChainId) -> Option<&SiteRetainEntry> {
        self.retaining.iter().find(|e| e.site == site)
    }

    /// Folds retaining-path samples into per-site summaries and attaches
    /// them to the report.
    ///
    /// Aggregation is keyed by `(site, path)` with exact integer sums, and
    /// every sort key is total (path strings are unique within a site), so
    /// the result is byte-identical for any sample order — which is why
    /// the sharded ingest can hand the merged sample vector over in
    /// whatever order the shards produced. Calling with an empty slice
    /// leaves the report untouched.
    pub fn attach_retains(&mut self, retains: &[RetainRecord]) {
        if retains.is_empty() {
            return;
        }
        let mut sites: HashMap<ChainId, HashMap<&str, RetainPathEntry>> = HashMap::new();
        for r in retains {
            let paths = sites.entry(r.alloc_site).or_default();
            let e = paths.entry(r.path.as_str()).or_insert_with(|| RetainPathEntry {
                path: r.path.clone(),
                samples: 0,
                bytes: 0,
                truncated: false,
                max_depth: 0,
            });
            e.samples += 1;
            e.bytes += r.size;
            e.truncated |= r.truncated;
            e.max_depth = e.max_depth.max(r.depth);
        }
        let mut retaining: Vec<SiteRetainEntry> = sites
            .into_iter()
            .map(|(site, paths)| {
                let mut paths: Vec<RetainPathEntry> = paths.into_values().collect();
                paths.sort_by(|a, b| {
                    b.bytes
                        .cmp(&a.bytes)
                        .then(b.samples.cmp(&a.samples))
                        .then(a.path.cmp(&b.path))
                });
                SiteRetainEntry {
                    site,
                    samples: paths.iter().map(|p| p.samples).sum(),
                    bytes: paths.iter().map(|p| p.bytes).sum(),
                    paths,
                }
            })
            .collect();
        retaining.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        self.retaining = retaining;
    }

    /// Publishes report shape and totals into `registry` as
    /// `offline_report_*` gauges. Drag is a `byte²` `u128`; it is saturated
    /// to `i64::MAX` for the gauge (the exact value stays in the report).
    pub fn publish_metrics(&self, registry: &heapdrag_obs::Registry) {
        let g = |name: &str, v: usize| {
            registry
                .gauge(name)
                .set(i64::try_from(v).unwrap_or(i64::MAX));
        };
        g("offline_report_nested_sites", self.by_nested_site.len());
        g("offline_report_coarse_sites", self.by_coarse_site.len());
        g("offline_report_pairs", self.by_alloc_and_last_use.len());
        g("offline_report_never_used_sites", self.never_used_sites.len());
        registry
            .gauge("offline_total_drag_bytes2")
            .set(i64::try_from(self.total_drag()).unwrap_or(i64::MAX));
    }
}

/// Configuration of the off-line analyzer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzerConfig {
    /// Pattern-classification thresholds.
    pub patterns: PatternConfig,
}

/// The off-line analyzer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DragAnalyzer {
    config: AnalyzerConfig,
}

/// Finishes one merged group: copies the exact sums and derives the
/// classification from them — a constant-time step per group, identical
/// whatever order or sharding produced the sums.
fn group_stats(partial: &PartialStats, patterns: &PatternConfig) -> GroupStats {
    GroupStats {
        objects: partial.pattern.objects,
        never_used: partial.pattern.never_used,
        bytes: partial.bytes,
        drag: partial.pattern.drag,
        never_used_drag: partial.never_used_drag,
        reachable: partial.reachable,
        in_use: partial.in_use,
        pattern: classify_from_sums(&partial.pattern, patterns),
    }
}

/// Turns merged groups into report entries. Classification is a
/// constant-time derivation from the sums, so no fan-out is needed; the
/// caller sorts the entries with a total order.
fn finalize_groups<K, E, M>(
    groups: IdMap<K, PartialStats>,
    patterns: &PatternConfig,
    make: M,
) -> Vec<E>
where
    M: Fn(K, GroupStats) -> E,
{
    groups
        .into_iter()
        .map(|(k, g)| make(k, group_stats(&g, patterns)))
        .collect()
}

impl DragAnalyzer {
    /// Creates an analyzer with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer with explicit thresholds.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        DragAnalyzer { config }
    }

    /// The thresholds this analyzer runs with.
    pub(crate) fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Partitions `records` (with the innermost-site resolver `innermost`,
    /// typically [`SiteTable::innermost`](heapdrag_vm::site::SiteTable::innermost))
    /// and produces the report. Sequential — the `shards = 1` special case
    /// of [`crate::Pipeline::analyze_records`], kept separate so resolvers
    /// need not be [`Sync`].
    pub fn analyze<F>(&self, records: &[ObjectRecord], innermost: F) -> DragReport
    where
        F: Fn(ChainId) -> Option<SiteId>,
    {
        let accum = accumulate_shard(records, &self.config.patterns, &innermost);
        self.finalize(accum)
    }

    /// The sharded analysis behind [`crate::Pipeline::analyze_records`]:
    /// splits `records` into [`ParallelConfig::shards`] contiguous shards,
    /// accumulates each as a job on the shared
    /// [`WorkerPool`](crate::serve::WorkerPool), merges the partial groups
    /// deterministically, and classifies the merged groups. The report is
    /// byte-identical to [`analyze`](Self::analyze) for every shard count;
    /// the returned [`ParallelMetrics`] carry per-shard record counts and
    /// timings.
    pub(crate) fn analyze_sharded_impl<F>(
        &self,
        records: &[ObjectRecord],
        innermost: F,
        par: &ParallelConfig,
    ) -> (DragReport, ParallelMetrics)
    where
        F: Fn(ChainId) -> Option<SiteId> + Sync,
    {
        let start = Instant::now();
        let patterns = &self.config.patterns;
        let workers = par.effective_shards(records.len());
        let mut metrics = ParallelMetrics::default();

        let split_start = Instant::now();
        // Contiguous, near-even shards; shard i covers
        // records[bounds[i]..bounds[i + 1]].
        let per_shard = records.len().div_ceil(workers.max(1));
        let slices: Vec<&[ObjectRecord]> = (0..workers)
            .map(|i| {
                let lo = (i * per_shard).min(records.len());
                let hi = ((i + 1) * per_shard).min(records.len());
                &records[lo..hi]
            })
            .collect();
        metrics.split_elapsed = split_start.elapsed();

        let innermost = &innermost;
        let shard_results: Vec<(ShardAccum, ShardMetrics)> = if workers <= 1 {
            let t = Instant::now();
            let accum = accumulate_shard(records, patterns, innermost);
            let m = ShardMetrics {
                shard: 0,
                records: records.len() as u64,
                samples: 0,
                groups: accum.group_count(),
                elapsed: t.elapsed(),
            };
            vec![(accum, m)]
        } else {
            // One borrowing job per shard on the shared pool; `scope`
            // blocks until every slot is written.
            let mut slots: Vec<Option<(ShardAccum, ShardMetrics)>> =
                slices.iter().map(|_| None).collect();
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(slices.iter().copied())
                .enumerate()
                .map(|(shard, (slot, slice))| {
                    Box::new(move || {
                        let t = Instant::now();
                        let accum = accumulate_shard(slice, patterns, innermost);
                        let m = ShardMetrics {
                            shard,
                            records: slice.len() as u64,
                            samples: 0,
                            groups: accum.group_count(),
                            elapsed: t.elapsed(),
                        };
                        *slot = Some((accum, m));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            crate::serve::WorkerPool::shared().scope(jobs);
            slots
                .into_iter()
                .map(|s| s.expect("analysis shard panicked"))
                .collect()
        };

        let merge_start = Instant::now();
        let mut merged = ShardAccum::default();
        for (accum, m) in shard_results {
            merged.merge(accum);
            metrics.shards.push(m);
        }
        let report = self.finalize(merged);
        metrics.merge_elapsed = merge_start.elapsed();
        metrics.total_elapsed = start.elapsed();
        (report, metrics)
    }

    /// Classification, entry construction, and sorting over merged groups.
    pub(crate) fn finalize(&self, accum: ShardAccum) -> DragReport {
        let patterns = &self.config.patterns;
        let ShardAccum {
            nested,
            coarse,
            pairs,
            totals,
        } = accum;

        let mut by_nested_site: Vec<NestedSiteEntry> =
            finalize_groups(nested, patterns, |site, stats| NestedSiteEntry { site, stats });
        by_nested_site.sort_by(|a, b| b.stats.drag.cmp(&a.stats.drag).then(a.site.cmp(&b.site)));

        let mut by_coarse_site: Vec<CoarseSiteEntry> =
            finalize_groups(coarse, patterns, |site, stats| CoarseSiteEntry { site, stats });
        by_coarse_site.sort_by(|a, b| b.stats.drag.cmp(&a.stats.drag).then(a.site.cmp(&b.site)));

        let mut by_alloc_and_last_use: Vec<AllocUsePairEntry> =
            finalize_groups(pairs, patterns, |(alloc_site, last_use_site), stats| {
                AllocUsePairEntry {
                    alloc_site,
                    last_use_site,
                    stats,
                }
            });
        by_alloc_and_last_use.sort_by(|a, b| {
            b.stats
                .drag
                .cmp(&a.stats.drag)
                .then(a.alloc_site.cmp(&b.alloc_site))
                .then(a.last_use_site.cmp(&b.last_use_site))
        });

        let never_used_sites: Vec<NestedSiteEntry> = by_nested_site
            .iter()
            .filter(|e| e.stats.pattern == LifetimePattern::AllNeverUsed)
            .cloned()
            .collect();

        DragReport {
            by_nested_site,
            by_coarse_site,
            by_alloc_and_last_use,
            never_used_sites,
            retaining: Vec::new(),
            totals,
        }
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

    fn analyze(records: &[ObjectRecord]) -> DragReport {
        // Innermost site of chain k is site k (identity-ish resolver).
        DragAnalyzer::new().analyze(records, |c| Some(SiteId(c.0)))
    }

    #[test]
    fn sites_sorted_by_drag() {
        let records = vec![
            record(1, 0, 0, Some(10), 100, 10),  // drag 900
            record(2, 1, 0, Some(90), 100, 10),  // drag 100
            record(3, 2, 0, None, 1000, 100),    // drag 100_000
        ];
        let report = analyze(&records);
        let order: Vec<u32> = report.by_nested_site.iter().map(|e| e.site.0).collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert_eq!(report.by_nested_site[0].stats.drag, 100_000);
        assert_eq!(report.total_drag(), 101_000);
    }

    #[test]
    fn never_used_partition() {
        let records = vec![
            record(1, 0, 0, None, 100_000, 10),
            record(2, 0, 0, None, 100_000, 10),
            record(3, 1, 0, Some(50_000), 100_000, 10),
        ];
        let report = analyze(&records);
        assert_eq!(report.never_used_sites.len(), 1);
        assert_eq!(report.never_used_sites[0].site, ChainId(0));
        assert_eq!(report.never_used_sites[0].stats.never_used, 2);
        assert_eq!(
            report.never_used_sites[0].stats.pattern,
            LifetimePattern::AllNeverUsed
        );
    }

    #[test]
    fn pair_partition_separates_last_use_sites() {
        let mut a = record(1, 0, 0, Some(50_000), 100_000, 10);
        a.last_use_site = Some(ChainId(7));
        let mut b = record(2, 0, 0, Some(60_000), 100_000, 10);
        b.last_use_site = Some(ChainId(8));
        let c = record(3, 0, 0, None, 100_000, 10);
        let report = analyze(&[a, b, c]);
        assert_eq!(report.by_alloc_and_last_use.len(), 3);
        assert!(report
            .by_alloc_and_last_use
            .iter()
            .any(|e| e.last_use_site.is_none()));
    }

    #[test]
    fn coarse_partition_merges_chains_with_same_innermost() {
        // Chains 0 and 1 share innermost site 5; chain 2 maps to site 6.
        let records = vec![
            record(1, 0, 0, Some(10), 100, 10),
            record(2, 1, 0, Some(10), 100, 10),
            record(3, 2, 0, Some(10), 100, 10),
        ];
        let report = DragAnalyzer::new().analyze(&records, |c| {
            Some(if c.0 <= 1 { SiteId(5) } else { SiteId(6) })
        });
        assert_eq!(report.by_coarse_site.len(), 2);
        let merged = report
            .by_coarse_site
            .iter()
            .find(|e| e.site == SiteId(5))
            .unwrap();
        assert_eq!(merged.stats.objects, 2);
    }

    #[test]
    fn group_invariants() {
        let records = vec![
            record(1, 0, 0, Some(10), 100, 10),
            record(2, 0, 5, None, 50, 20),
        ];
        let report = analyze(&records);
        let e = &report.by_nested_site[0];
        assert_eq!(e.stats.reachable, e.stats.in_use + e.stats.drag);
        assert!(e.stats.never_used_drag <= e.stats.drag);
        assert_eq!(e.stats.bytes, 30);
    }

    #[test]
    fn sharded_matches_sequential_on_small_inputs() {
        let records: Vec<ObjectRecord> = (0..37)
            .map(|i| {
                record(
                    i,
                    (i % 5) as u32,
                    i * 3,
                    (i % 3 == 0).then_some(i * 3 + 40),
                    i * 3 + 200,
                    8 + (i % 7) * 16,
                )
            })
            .collect();
        let sequential = analyze(&records);
        for shards in [1, 2, 3, 8, 64] {
            let (sharded, metrics) = DragAnalyzer::new().analyze_sharded_impl(
                &records,
                |c| Some(SiteId(c.0)),
                &ParallelConfig::with_shards(shards),
            );
            assert_eq!(sharded, sequential, "shards = {shards}");
            assert_eq!(metrics.total_records(), records.len() as u64);
            assert_eq!(metrics.shards.len(), shards.min(records.len()));
        }
    }

    #[test]
    fn sharded_handles_empty_input() {
        let (report, metrics) = DragAnalyzer::new().analyze_sharded_impl(
            &[],
            |c| Some(SiteId(c.0)),
            &ParallelConfig::with_shards(4),
        );
        assert_eq!(report, analyze(&[]));
        assert_eq!(metrics.total_records(), 0);
    }
}
