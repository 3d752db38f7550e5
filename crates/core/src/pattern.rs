//! Lifetime-pattern classification of allocation sites (§3.4 of the paper)
//! and the program transformation each pattern suggests.

use std::fmt;

use crate::record::ObjectRecord;
use crate::u256::U256;

/// The four site behaviours of §3.4, plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifetimePattern {
    /// Pattern 1: all of the drag at the site is due to never-used objects
    /// (counting constructor-only uses as never-used).
    AllNeverUsed,
    /// Pattern 2: most of the dragged objects at the site are never-used.
    MostlyNeverUsed,
    /// Pattern 3: most of the dragged objects at the site have a large
    /// drag relative to their lifetime.
    MostlyLargeDrag,
    /// Pattern 4: the variance of per-object drag is high — there may be no
    /// transformation that helps (e.g. the db repository).
    HighVariance,
    /// None of the four patterns applies cleanly.
    Mixed,
}

impl fmt::Display for LifetimePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LifetimePattern::AllNeverUsed => "all never-used",
            LifetimePattern::MostlyNeverUsed => "mostly never-used",
            LifetimePattern::MostlyLargeDrag => "mostly large drag",
            LifetimePattern::HighVariance => "high variance",
            LifetimePattern::Mixed => "mixed",
        };
        f.write_str(s)
    }
}

/// The code-rewriting strategies of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Assign `null` to a reference after its last use.
    AssignNull,
    /// Remove the allocation entirely (dead code removal).
    DeadCodeRemoval,
    /// Allocate lazily at the first use.
    LazyAllocation,
    /// No transformation is expected to help.
    NoTransformation,
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransformKind::AssignNull => "assigning null",
            TransformKind::DeadCodeRemoval => "code removal",
            TransformKind::LazyAllocation => "lazy allocation",
            TransformKind::NoTransformation => "none",
        };
        f.write_str(s)
    }
}

impl LifetimePattern {
    /// The rewriting §3.4 suggests for this behaviour.
    pub fn suggested_transform(self) -> TransformKind {
        match self {
            LifetimePattern::AllNeverUsed => TransformKind::DeadCodeRemoval,
            LifetimePattern::MostlyNeverUsed => TransformKind::LazyAllocation,
            LifetimePattern::MostlyLargeDrag => TransformKind::AssignNull,
            LifetimePattern::HighVariance | LifetimePattern::Mixed => {
                TransformKind::NoTransformation
            }
        }
    }
}

/// Thresholds steering [`classify`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternConfig {
    /// Clock window after creation within which uses count as
    /// constructor-only (folded into never-used). The default, 1 KB of
    /// allocation, absorbs uses performed while the constructor itself
    /// allocates sub-objects.
    pub ctor_use_window: u64,
    /// Fraction of never-used objects above which a site is "mostly
    /// never-used" (jack's sites were > 97 %).
    pub mostly_never_used: f64,
    /// An object has "large drag" when `drag_time / reachable_time`
    /// exceeds this.
    pub large_drag_fraction: f64,
    /// Fraction of large-drag objects above which a site is "mostly large
    /// drag".
    pub mostly_large_drag: f64,
    /// Coefficient of variation of per-object drag above which the site is
    /// "high variance".
    pub high_variance_cv: f64,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            ctor_use_window: 1024,
            mostly_never_used: 0.9,
            large_drag_fraction: 0.4,
            mostly_large_drag: 0.6,
            high_variance_cv: 1.5,
        }
    }
}

/// True when the record's drag dominates its lifetime — the per-record
/// predicate behind "mostly large drag". Each record votes independently,
/// so the votes sum across shards like any other counter.
pub(crate) fn is_large_drag(r: &ObjectRecord, config: &PatternConfig) -> bool {
    let reach = r.reachable_time().max(1) as f64;
    r.drag_time() as f64 / reach >= config.large_drag_fraction
}

/// Order-independent sums from which a group's lifetime pattern is fully
/// derivable: object/never-used/large-drag counts plus the exact first and
/// second moments of per-object drag. Merging two accumulators is integer
/// addition, so the classification of a merged group cannot depend on how
/// records were sharded, batched, or streamed — the one float conversion
/// happens in [`classify_from_sums`], after all merging is done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PatternSums {
    /// Number of records.
    pub(crate) objects: u64,
    /// Records never used within the constructor window.
    pub(crate) never_used: u64,
    /// Records passing [`is_large_drag`].
    pub(crate) large_drag: u64,
    /// Σ drag (byte²).
    pub(crate) drag: u128,
    /// Σ drag² (byte⁴) — exact, hence 256-bit.
    pub(crate) drag_sq: U256,
}

impl PatternSums {
    pub(crate) fn add(&mut self, r: &ObjectRecord, config: &PatternConfig) {
        self.objects += 1;
        if r.is_never_used(config.ctor_use_window) {
            self.never_used += 1;
        }
        if is_large_drag(r, config) {
            self.large_drag += 1;
        }
        let d = r.drag();
        self.drag += d;
        self.drag_sq.add_assign(U256::mul_u128(d, d));
    }

    pub(crate) fn merge(&mut self, other: &PatternSums) {
        self.objects += other.objects;
        self.never_used += other.never_used;
        self.large_drag += other.large_drag;
        self.drag += other.drag;
        self.drag_sq.add_assign(other.drag_sq);
    }
}

/// The coefficient of variation of per-object drag, from exact sums:
/// `sqrt(E[d²] − mean²) / mean`. A zero drag sum means a zero mean, for
/// which the CV is defined as 0 (matching the pre-streaming behaviour).
pub(crate) fn cv_from_sums(objects: u64, drag: u128, drag_sq: U256) -> f64 {
    if drag == 0 || objects == 0 {
        return 0.0;
    }
    let n = objects as f64;
    let mean = drag as f64 / n;
    let ex2 = drag_sq.to_f64() / n;
    let var = (ex2 - mean * mean).max(0.0);
    var.sqrt() / mean
}

/// The §3.4 decision ladder over [`PatternSums`].
pub(crate) fn classify_from_sums(sums: &PatternSums, config: &PatternConfig) -> LifetimePattern {
    if sums.objects == 0 {
        return LifetimePattern::Mixed;
    }
    let n = sums.objects as f64;
    if sums.never_used == sums.objects {
        return LifetimePattern::AllNeverUsed;
    }
    if sums.never_used as f64 / n >= config.mostly_never_used {
        return LifetimePattern::MostlyNeverUsed;
    }
    // Variance check before the large-drag check only when drag sizes are
    // wildly spread — a uniform set of large drags is actionable, a spread
    // is not.
    let cv = cv_from_sums(sums.objects, sums.drag, sums.drag_sq);
    if sums.large_drag as f64 / n >= config.mostly_large_drag && cv <= config.high_variance_cv {
        return LifetimePattern::MostlyLargeDrag;
    }
    if cv > config.high_variance_cv {
        return LifetimePattern::HighVariance;
    }
    LifetimePattern::Mixed
}

/// Classifies the lifetime behaviour of one group of records (all from the
/// same allocation site). Internally this folds the records into
/// `PatternSums` and classifies the sums, so it agrees exactly with the
/// sharded and streaming analyzers, which merge the same sums.
pub fn classify(records: &[&ObjectRecord], config: &PatternConfig) -> LifetimePattern {
    let mut sums = PatternSums::default();
    for r in records {
        sums.add(r, config);
    }
    classify_from_sums(&sums, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

    fn record(created: u64, last_use: Option<u64>, freed: u64) -> ObjectRecord {
        ObjectRecord {
            object: ObjectId(0),
            class: ClassId(0),
            size: 16,
            created,
            freed,
            last_use,
            alloc_site: ChainId(0),
            last_use_site: None,
            at_exit: false,
        }
    }

    fn classify_owned(records: &[ObjectRecord]) -> LifetimePattern {
        let refs: Vec<&ObjectRecord> = records.iter().collect();
        classify(&refs, &PatternConfig::default())
    }

    #[test]
    fn pattern_one_all_never_used() {
        let rs = vec![record(0, None, 100), record(10, Some(10), 100)];
        assert_eq!(classify_owned(&rs), LifetimePattern::AllNeverUsed);
        assert_eq!(
            LifetimePattern::AllNeverUsed.suggested_transform(),
            TransformKind::DeadCodeRemoval
        );
    }

    #[test]
    fn pattern_two_mostly_never_used() {
        let mut rs: Vec<ObjectRecord> = (0..97).map(|_| record(0, None, 100_000)).collect();
        rs.push(record(0, Some(90_000), 100_000));
        rs.push(record(0, Some(90_000), 100_000));
        rs.push(record(0, Some(90_000), 100_000));
        assert_eq!(classify_owned(&rs), LifetimePattern::MostlyNeverUsed);
        assert_eq!(
            LifetimePattern::MostlyNeverUsed.suggested_transform(),
            TransformKind::LazyAllocation
        );
    }

    #[test]
    fn pattern_three_uniform_large_drag() {
        // Every object in-use for half its life, dragged the other half
        // (times far beyond the constructor window).
        let rs: Vec<ObjectRecord> = (0..10)
            .map(|i| record(i, Some(i + 50_000), i + 100_000))
            .collect();
        assert_eq!(classify_owned(&rs), LifetimePattern::MostlyLargeDrag);
        assert_eq!(
            LifetimePattern::MostlyLargeDrag.suggested_transform(),
            TransformKind::AssignNull
        );
    }

    #[test]
    fn pattern_four_high_variance() {
        // Mostly tiny drags with a couple of enormous ones → high CV.
        let mut rs: Vec<ObjectRecord> = (0..20)
            .map(|i| record(i, Some(i + 99_000), i + 100_000))
            .collect();
        rs.push(record(0, Some(10_000), 100_000_000));
        rs.push(record(0, Some(10_000), 100_000_000));
        assert_eq!(classify_owned(&rs), LifetimePattern::HighVariance);
        assert_eq!(
            LifetimePattern::HighVariance.suggested_transform(),
            TransformKind::NoTransformation
        );
    }

    #[test]
    fn empty_group_is_mixed() {
        assert_eq!(
            classify(&[], &PatternConfig::default()),
            LifetimePattern::Mixed
        );
    }

    #[test]
    fn sums_are_split_invariant() {
        // Folding the same records through any split of PatternSums must
        // yield bit-identical sums (and hence the same classification) —
        // the property the sharded and streaming analyzers rely on.
        let config = PatternConfig::default();
        let mut rs: Vec<ObjectRecord> = (0..23)
            .map(|i| record(i * 7, (i % 3 == 0).then_some(i * 7 + 2_000), i * 7 + 90_000))
            .collect();
        rs.push(record(0, Some(10_000), 100_000_000));
        let mut whole = PatternSums::default();
        for r in &rs {
            whole.add(r, &config);
        }
        for split in [1, 2, 5, rs.len()] {
            let mut merged = PatternSums::default();
            for chunk in rs.chunks(split) {
                let mut part = PatternSums::default();
                for r in chunk {
                    part.add(r, &config);
                }
                merged.merge(&part);
            }
            assert_eq!(merged, whole, "split = {split}");
            assert_eq!(
                classify_from_sums(&merged, &config),
                classify_from_sums(&whole, &config)
            );
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(LifetimePattern::AllNeverUsed.to_string(), "all never-used");
        assert_eq!(TransformKind::LazyAllocation.to_string(), "lazy allocation");
    }
}
