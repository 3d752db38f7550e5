//! Sharding configuration and per-shard instrumentation for the parallel
//! off-line pipeline.
//!
//! The off-line phase (§2.2) has two data-parallel stages:
//!
//! 1. **Parse** ([`Pipeline::ingest_reader`](crate::Pipeline::ingest_reader),
//!    the engine in [`crate::stream`]) — shared state (the header, chain
//!    table, and end marker) is parsed once on the coordinating thread
//!    while record-bearing units are
//!    batched into chunks of [`ParallelConfig::chunk_records`] units and
//!    decoded on worker threads. Chunk boundaries follow the input's own
//!    structure — line boundaries for the text format, *frame* boundaries
//!    for HDLOG v2 binary logs (the scanner hops length prefixes; workers
//!    never search the input for delimiters) — so chunking, and therefore
//!    every result, is independent of the worker count.
//! 2. **Aggregate** ([`Pipeline::analyze_records`](crate::Pipeline::analyze_records))
//!    — the record slice is split into [`ParallelConfig::shards`]
//!    contiguous shards, each accumulated into partial per-site groups on
//!    its own worker, then merged deterministically.
//!
//! Both stages are *exact*: every per-group quantity that crosses a shard
//! boundary is an integer sum (associative, order-independent), and the
//! floating-point lifetime classifier runs only after the merge, over each
//! group's members in original record order. The report for `shards = n`
//! is therefore byte-identical to the sequential `shards = 1` report.
//!
//! `shards` sizes the *logical* parallelism only. No ingest spawns its
//! own threads anymore: both stages submit their chunk/shard jobs to the
//! process-wide [`serve::WorkerPool`](crate::serve::WorkerPool) (sized to
//! the host, shared by every concurrent ingest and every serve session),
//! so a thousand concurrent 8-shard ingests still run on one host-sized
//! pool rather than eight thousand transient threads.

use std::time::Duration;

/// Knobs of the parallel off-line pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker shards. `1` (the default) is the sequential path;
    /// `0` is treated as `1`.
    pub shards: usize,
    /// Record-bearing units (text lines or binary frames) per parse chunk
    /// — the work-unit handed to parse workers.
    pub chunk_records: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            shards: 1,
            chunk_records: 8192,
        }
    }
}

impl ParallelConfig {
    /// The sequential configuration (`shards = 1`).
    pub fn sequential() -> Self {
        Self::default()
    }

    /// A configuration with `shards` workers and the default chunk size.
    pub fn with_shards(shards: usize) -> Self {
        ParallelConfig {
            shards,
            ..Self::default()
        }
    }

    /// Worker count actually used for `items` work units: at least 1, at
    /// most `shards`, and never more than the number of units.
    pub fn effective_shards(&self, items: usize) -> usize {
        self.shards.max(1).min(items.max(1))
    }

    /// Chunk size actually used (guards against a zero knob).
    pub fn effective_chunk(&self) -> usize {
        self.chunk_records.max(1)
    }
}

/// Counters for one shard (or parse chunk) of the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard (or chunk) index, in input order.
    pub shard: usize,
    /// Object records processed by this shard.
    pub records: u64,
    /// Deep-GC samples processed by this shard.
    pub samples: u64,
    /// Distinct groups (nested + coarse + pair cells) this shard touched;
    /// zero for parse chunks.
    pub groups: u64,
    /// Wall-clock the worker spent on this shard.
    pub elapsed: Duration,
}

/// Instrumentation of one parallel stage: per-shard counters plus the
/// stage-level costs that do not parallelise.
#[derive(Debug, Clone, Default)]
pub struct ParallelMetrics {
    /// One entry per shard/chunk, in input order.
    pub shards: Vec<ShardMetrics>,
    /// Sequential work before the fan-out (header/chain scan, slicing).
    pub split_elapsed: Duration,
    /// Sequential work after the fan-in (merge, classification, sorting).
    pub merge_elapsed: Duration,
    /// End-to-end wall-clock of the stage.
    pub total_elapsed: Duration,
}

impl ParallelMetrics {
    /// Total records processed across all shards.
    pub fn total_records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// The longest single shard — the stage's critical path through the
    /// fan-out section.
    pub fn slowest_shard(&self) -> Option<&ShardMetrics> {
        self.shards.iter().max_by_key(|s| s.elapsed)
    }

    /// Publishes the stage's counters into `registry` under
    /// `offline_<stage>_*` names: per-shard elapsed observations into the
    /// `offline_<stage>_shard_us` histogram, totals as counters, and the
    /// sequential split/merge/total costs as microsecond gauges.
    ///
    /// Called once per stage after the workers have joined, so nothing here
    /// is on a hot path.
    pub fn publish(&self, stage: &str, registry: &heapdrag_obs::Registry) {
        let shard_us = registry.histogram(&format!("offline_{stage}_shard_us"));
        for s in &self.shards {
            shard_us.observe_duration(s.elapsed);
        }
        registry
            .counter(&format!("offline_{stage}_shards_total"))
            .add(self.shards.len() as u64);
        registry
            .counter(&format!("offline_{stage}_records_total"))
            .add(self.total_records());
        registry
            .counter(&format!("offline_{stage}_samples_total"))
            .add(self.shards.iter().map(|s| s.samples).sum());
        registry
            .counter(&format!("offline_{stage}_groups_total"))
            .add(self.shards.iter().map(|s| s.groups).sum());
        let us = |d: Duration| i64::try_from(d.as_micros()).unwrap_or(i64::MAX);
        registry
            .gauge(&format!("offline_{stage}_split_us"))
            .set(us(self.split_elapsed));
        registry
            .gauge(&format!("offline_{stage}_merge_us"))
            .set(us(self.merge_elapsed));
        registry
            .gauge(&format!("offline_{stage}_total_us"))
            .set(us(self.total_elapsed));
    }

    /// One line per shard, for `--shards`-aware tools to print.
    pub fn render(&self, stage: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "[{stage}] {} shards, {} records, split {:?}, merge {:?}, total {:?}\n",
            self.shards.len(),
            self.total_records(),
            self.split_elapsed,
            self.merge_elapsed,
            self.total_elapsed,
        ));
        for s in &self.shards {
            out.push_str(&format!(
                "[{stage}]   shard {:>3}: {:>9} records {:>7} samples {:>7} groups in {:?}\n",
                s.shard, s.records, s.samples, s.groups, s.elapsed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_shards_clamps_to_work() {
        let c = ParallelConfig::with_shards(8);
        assert_eq!(c.effective_shards(3), 3);
        assert_eq!(c.effective_shards(100), 8);
        assert_eq!(c.effective_shards(0), 1);
        let z = ParallelConfig {
            shards: 0,
            chunk_records: 0,
        };
        assert_eq!(z.effective_shards(10), 1);
        assert_eq!(z.effective_chunk(), 1);
    }

    #[test]
    fn metrics_aggregate() {
        let m = ParallelMetrics {
            shards: vec![
                ShardMetrics {
                    shard: 0,
                    records: 10,
                    samples: 1,
                    groups: 4,
                    elapsed: Duration::from_millis(5),
                },
                ShardMetrics {
                    shard: 1,
                    records: 20,
                    samples: 0,
                    groups: 6,
                    elapsed: Duration::from_millis(9),
                },
            ],
            ..Default::default()
        };
        assert_eq!(m.total_records(), 30);
        assert_eq!(m.slowest_shard().unwrap().shard, 1);
        let text = m.render("analyze");
        assert!(text.contains("shard   0"));
        assert!(text.contains("2 shards"));
    }

    #[test]
    fn publish_writes_stage_prefixed_metrics() {
        let m = ParallelMetrics {
            shards: vec![
                ShardMetrics {
                    shard: 0,
                    records: 10,
                    samples: 1,
                    groups: 4,
                    elapsed: Duration::from_micros(5),
                },
                ShardMetrics {
                    shard: 1,
                    records: 20,
                    samples: 0,
                    groups: 6,
                    elapsed: Duration::from_micros(9),
                },
            ],
            split_elapsed: Duration::from_micros(2),
            merge_elapsed: Duration::from_micros(3),
            total_elapsed: Duration::from_micros(19),
        };
        let registry = heapdrag_obs::Registry::new();
        m.publish("parse", &registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["offline_parse_shards_total"], 2);
        assert_eq!(snap.counters["offline_parse_records_total"], 30);
        assert_eq!(snap.counters["offline_parse_samples_total"], 1);
        assert_eq!(snap.counters["offline_parse_groups_total"], 10);
        assert_eq!(snap.histograms["offline_parse_shard_us"].count, 2);
        assert_eq!(snap.histograms["offline_parse_shard_us"].sum, 14);
        assert_eq!(snap.gauges["offline_parse_split_us"], 2);
        assert_eq!(snap.gauges["offline_parse_merge_us"], 3);
        assert_eq!(snap.gauges["offline_parse_total_us"], 19);
    }
}
