//! Space-time integrals: the areas under the reachable and in-use curves.
//!
//! Following Agesen et al. (and §4.1 of the paper), the *reachable
//! integral* is `Σ size·(freed − created)` over all objects and the *in-use
//! integral* is `Σ size·(last_use − created)`; their difference is the
//! total drag. The paper reports these in M Byte².

use crate::record::ObjectRecord;

/// Reachable and in-use space-time integrals for one run, in byte².
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Integrals {
    /// Area under the reachable-size curve.
    pub reachable: u128,
    /// Area under the in-use-size curve.
    pub in_use: u128,
}

impl Integrals {
    /// Computes both integrals from object records.
    pub fn from_records(records: &[ObjectRecord]) -> Self {
        let mut totals = Integrals::default();
        for r in records {
            totals.reachable += r.reachable_product();
            totals.in_use += r.in_use_product();
        }
        totals
    }

    /// Total drag: `reachable − in_use` (byte²).
    pub fn drag(&self) -> u128 {
        self.reachable - self.in_use
    }

    /// Reachable integral in M Byte² (the paper's Table 2/3 unit).
    pub fn reachable_mb2(&self) -> f64 {
        self.reachable as f64 / (1024.0 * 1024.0)
    }

    /// In-use integral in M Byte².
    pub fn in_use_mb2(&self) -> f64 {
        self.in_use as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::ids::{ChainId, ClassId, ObjectId};

    fn record(created: u64, last_use: Option<u64>, freed: u64, size: u64) -> ObjectRecord {
        ObjectRecord {
            object: ObjectId(0),
            class: ClassId(0),
            size,
            created,
            freed,
            last_use,
            alloc_site: ChainId(0),
            last_use_site: None,
            at_exit: false,
        }
    }

    #[test]
    fn integrals_sum_products() {
        let records = vec![
            record(0, Some(50), 100, 10), // reach 1000, in-use 500
            record(20, None, 120, 4),     // reach 400, in-use 0
        ];
        let i = Integrals::from_records(&records);
        assert_eq!(i.reachable, 1400);
        assert_eq!(i.in_use, 500);
        assert_eq!(i.drag(), 900);
    }

    #[test]
    fn reachable_always_at_least_in_use() {
        let records = vec![record(0, Some(100), 100, 8), record(5, Some(7), 9, 8)];
        let i = Integrals::from_records(&records);
        assert!(i.reachable >= i.in_use);
    }

    #[test]
    fn mb2_conversion() {
        let i = Integrals {
            reachable: 1024 * 1024,
            in_use: 0,
        };
        assert!((i.reachable_mb2() - 1.0).abs() < 1e-12);
        assert_eq!(i.in_use_mb2(), 0.0);
    }
}
