//! Reachable / in-use heap-size curves over allocation time (Figure 2 of
//! the paper).

use crate::profiler::ProfileRun;
use crate::record::ObjectRecord;

/// One point of the heap-size curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Allocation-clock time of the sample.
    pub time: u64,
    /// Bytes reachable at `time`.
    pub reachable: u64,
    /// Bytes in use at `time` (reachable objects still to be used).
    pub in_use: u64,
}

/// A sampled pair of curves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timeline {
    /// Samples in increasing time order.
    pub points: Vec<TimelinePoint>,
}

/// Is the object reachable at `t`, per its record? Survivors reported at
/// exit count as reachable at the final sample.
fn reachable_at(r: &ObjectRecord, t: u64) -> bool {
    r.created <= t && (t < r.freed || (r.at_exit && t <= r.freed))
}

/// Is the object in use at `t` (created, and still to be used strictly
/// after `t`)? The strict bound keeps `in_use ⊆ reachable` at sample
/// boundaries: a use and a collection can share one byte-clock tick, and
/// the sample is taken after the collection.
fn in_use_at(r: &ObjectRecord, t: u64) -> bool {
    match r.last_use {
        Some(u) => r.created <= t && t < u,
        None => false,
    }
}

impl Timeline {
    /// Reconstructs both curves from records at the given sample times.
    pub fn from_records(records: &[ObjectRecord], times: &[u64]) -> Self {
        let points = times
            .iter()
            .map(|&t| {
                let mut reachable = 0u64;
                let mut in_use = 0u64;
                for r in records {
                    if reachable_at(r, t) {
                        reachable += r.size;
                    }
                    if in_use_at(r, t) {
                        in_use += r.size;
                    }
                }
                TimelinePoint {
                    time: t,
                    reachable,
                    in_use,
                }
            })
            .collect();
        Timeline { points }
    }

    /// Builds the curves for a profiling run at its deep-GC sample times,
    /// taking the reachable sizes from the VM's own samples (ground truth)
    /// and reconstructing in-use sizes from the records.
    pub fn from_run(run: &ProfileRun) -> Self {
        let points = run
            .samples
            .iter()
            .map(|s| {
                let in_use = run
                    .records
                    .iter()
                    .filter(|r| in_use_at(r, s.time))
                    .map(|r| r.size)
                    .sum();
                TimelinePoint {
                    time: s.time,
                    reachable: s.reachable_bytes,
                    in_use,
                }
            })
            .collect();
        Timeline { points }
    }

    /// Peak reachable size over the sampled points.
    pub fn peak_reachable(&self) -> u64 {
        self.points.iter().map(|p| p.reachable).max().unwrap_or(0)
    }

    /// Renders both curves as CSV (`time,reachable,in_use` in bytes).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,reachable,in_use\n");
        for p in &self.points {
            out.push_str(&format!("{},{},{}\n", p.time, p.reachable, p.in_use));
        }
        out
    }

    /// A terminal-friendly chart of the two curves (`#` reachable, `.` in
    /// use), `height` rows tall — the stand-in for the paper's Figure 2
    /// panels.
    pub fn ascii_chart(&self, height: usize) -> String {
        if self.points.is_empty() || height == 0 {
            return String::new();
        }
        let peak = self.peak_reachable().max(1);
        let width = self.points.len();
        let mut rows = vec![vec![b' '; width]; height];
        for (x, p) in self.points.iter().enumerate() {
            let scale =
                |v: u64| ((v as f64 / peak as f64) * (height as f64 - 1.0)).round() as usize;
            let ry = scale(p.reachable);
            let iy = scale(p.in_use);
            rows[height - 1 - ry][x] = b'#';
            if iy != ry {
                rows[height - 1 - iy][x] = b'.';
            }
        }
        let mut out = String::new();
        for row in rows {
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push('\n');
        }
        out.push_str(&format!(
            "peak reachable: {} KB over {} samples ('#' reachable, '.' in use)\n",
            peak / 1024,
            width
        ));
        out
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
    fn curves_step_with_lifetimes() {
        let records = vec![record(10, Some(30), 50, 8), record(20, None, 60, 4)];
        let t = Timeline::from_records(&records, &[0, 15, 25, 35, 55, 70]);
        let reach: Vec<u64> = t.points.iter().map(|p| p.reachable).collect();
        let in_use: Vec<u64> = t.points.iter().map(|p| p.in_use).collect();
        assert_eq!(reach, vec![0, 8, 12, 12, 4, 0]);
        assert_eq!(in_use, vec![0, 8, 8, 0, 0, 0]);
    }

    #[test]
    fn in_use_never_exceeds_reachable() {
        let records = vec![
            record(0, Some(90), 100, 16),
            record(5, Some(6), 200, 8),
            record(7, None, 99, 24),
        ];
        let times: Vec<u64> = (0..210).step_by(10).collect();
        let t = Timeline::from_records(&records, &times);
        for p in &t.points {
            assert!(p.in_use <= p.reachable, "at t={}", p.time);
        }
    }

    #[test]
    fn exit_survivors_count_at_final_sample() {
        let mut r = record(10, Some(40), 100, 8);
        r.at_exit = true;
        let t = Timeline::from_records(&[r], &[100]);
        assert_eq!(t.points[0].reachable, 8);
    }

    #[test]
    fn csv_and_chart_render() {
        let records = vec![record(0, Some(50), 100, 1024)];
        let t = Timeline::from_records(&records, &[0, 25, 50, 75]);
        let csv = t.to_csv();
        assert!(csv.starts_with("time,reachable,in_use\n"));
        assert_eq!(csv.lines().count(), 5);
        let chart = t.ascii_chart(5);
        assert!(chart.contains('#'));
        assert_eq!(t.peak_reachable(), 1024);
    }
}
