//! Property tests over the profiler and analyzer: invariants of object
//! records, integrals, partitions, and savings arithmetic on arbitrary
//! (well-formed) record sets.

use heapdrag::core::{DragAnalyzer, Integrals, ObjectRecord, SavingsReport, Timeline};
use heapdrag::vm::{ChainId, ObjectId, SiteId};
use heapdrag_testkit::{check, Rng};

fn record(rng: &mut Rng) -> ObjectRecord {
    let created = rng.range_u64(0, 200_000);
    // Enforce created <= last_use <= freed by construction.
    let last_use = created + rng.range_u64(0, 50_000);
    let freed = last_use + rng.range_u64(0, 50_000);
    let used = rng.bool();
    let site = rng.range_u32(0, 12);
    ObjectRecord {
        object: ObjectId(rng.range_u64(0, 1000)),
        class: heapdrag::vm::ClassId(0),
        size: rng.range_u64(1, 4096) * 8,
        created,
        freed,
        last_use: used.then_some(last_use),
        alloc_site: ChainId(site),
        last_use_site: used.then_some(ChainId(site + 100)),
        at_exit: rng.bool(),
    }
}

fn records(rng: &mut Rng, min: usize, max: usize) -> Vec<ObjectRecord> {
    rng.vec(min, max, record)
}

#[test]
fn per_record_identities() {
    check("per_record_identities", 128, |rng| {
        let r = record(rng);
        assert_eq!(r.reachable_product(), r.in_use_product() + r.drag());
        assert!(r.in_use_time() <= r.reachable_time());
        assert!(r.drag_time() <= r.reachable_time());
        assert!(r.is_never_used(u64::MAX) || r.last_use.is_some());
    });
}

#[test]
fn integrals_equal_sum_of_site_stats() {
    check("integrals_equal_sum_of_site_stats", 128, |rng| {
        let records = records(rng, 0, 60);
        let report = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));
        let totals = Integrals::from_records(&records);
        assert_eq!(report.totals, totals);
        let site_drag: u128 = report.by_nested_site.iter().map(|e| e.stats.drag).sum();
        let site_reach: u128 = report
            .by_nested_site
            .iter()
            .map(|e| e.stats.reachable)
            .sum();
        assert_eq!(site_drag, totals.drag());
        assert_eq!(site_reach, totals.reachable);
        // The pair partition covers the same mass.
        let pair_drag: u128 = report
            .by_alloc_and_last_use
            .iter()
            .map(|e| e.stats.drag)
            .sum();
        assert_eq!(pair_drag, totals.drag());
        // Sorted descending by drag.
        assert!(report
            .by_nested_site
            .windows(2)
            .all(|w| w[0].stats.drag >= w[1].stats.drag));
    });
}

#[test]
fn object_counts_partition_exactly() {
    check("object_counts_partition_exactly", 128, |rng| {
        let records = records(rng, 0, 60);
        let report = DragAnalyzer::new().analyze(&records, |c| Some(SiteId(c.0)));
        let by_site: u64 = report.by_nested_site.iter().map(|e| e.stats.objects).sum();
        let by_pair: u64 = report
            .by_alloc_and_last_use
            .iter()
            .map(|e| e.stats.objects)
            .sum();
        assert_eq!(by_site, records.len() as u64);
        assert_eq!(by_pair, records.len() as u64);
    });
}

#[test]
fn timeline_curves_are_consistent() {
    check("timeline_curves_are_consistent", 128, |rng| {
        let records = records(rng, 1, 40);
        let times = rng.vec(1, 20, |r| r.range_u64(0, 300_000));
        let t = Timeline::from_records(&records, &times);
        let total: u64 = records.iter().map(|r| r.size).sum();
        for p in &t.points {
            assert!(p.in_use <= p.reachable, "at t={}", p.time);
            assert!(p.reachable <= total);
        }
    });
}

#[test]
fn savings_arithmetic_is_exact() {
    check("savings_arithmetic_is_exact", 128, |rng| {
        let a = records(rng, 1, 40);
        let b = records(rng, 1, 40);
        let ia = Integrals::from_records(&a);
        let ib = Integrals::from_records(&b);
        let s = SavingsReport::new(ia, ib);
        // space saving of x vs x is 0; antisymmetry-ish sanity.
        let self_s = SavingsReport::new(ia, ia);
        assert!(self_s.space_saving_pct().abs() < 1e-9);
        assert!(self_s.drag_saving_pct().abs() < 1e-9);
        if ia.reachable > 0 {
            let frac = 1.0 - ib.reachable as f64 / ia.reachable as f64;
            assert!((s.space_saving_pct() - frac * 100.0).abs() < 1e-6);
        }
        assert_eq!(s.beats_original_in_use(), ib.reachable < ia.in_use);
    });
}
