//! Registry-backed VM metrics.
//!
//! The interpreter's hot path never touches these directly: instruction
//! dispatch is tallied in a plain per-VM array and flushed here once per
//! run (see [`crate::interp::Vm::attach_metrics`]). The handles below are
//! only hit on cold events — GC pauses and deep-GC samples.

use heapdrag_obs::{Counter, Histogram, Registry};

use crate::insn::OpcodeClass;

/// Metric handles a [`crate::interp::Vm`] reports into when attached to a
/// [`Registry`].
#[derive(Debug, Clone)]
pub struct VmMetrics {
    registry: Registry,
    dispatch: [Counter; OpcodeClass::COUNT],
    deep_gcs: Counter,
    full_pause_us: Histogram,
    minor_pause_us: Histogram,
}

impl VmMetrics {
    /// Registers (or re-attaches to) the VM metric family in `registry`:
    /// `vm_dispatch_total{class="..."}` per [`OpcodeClass`],
    /// `vm_deep_gc_total`, and the GC pause histograms
    /// `vm_gc_full_pause_us` / `vm_gc_minor_pause_us`.
    pub fn register(registry: &Registry) -> Self {
        VmMetrics {
            registry: registry.clone(),
            dispatch: std::array::from_fn(|i| {
                let class = OpcodeClass::ALL[i].name();
                registry.counter(&format!("vm_dispatch_total{{class=\"{class}\"}}"))
            }),
            deep_gcs: registry.counter("vm_deep_gc_total"),
            full_pause_us: registry.histogram("vm_gc_full_pause_us"),
            minor_pause_us: registry.histogram("vm_gc_minor_pause_us"),
        }
    }

    /// The registry these metrics live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records the pause of one full collection.
    pub(crate) fn on_full_gc(&self, pause: std::time::Duration) {
        self.full_pause_us.observe_duration(pause);
    }

    /// Records the pause of one minor collection.
    pub(crate) fn on_minor_gc(&self, pause: std::time::Duration) {
        self.minor_pause_us.observe_duration(pause);
    }

    /// Records one completed deep-GC cycle.
    pub(crate) fn on_deep_gc(&self) {
        self.deep_gcs.inc();
    }

    /// Adds a run's per-class dispatch tallies to the registry counters.
    pub(crate) fn flush_dispatch(&self, counts: &[u64; OpcodeClass::COUNT]) {
        for (counter, &n) in self.dispatch.iter().zip(counts) {
            if n != 0 {
                counter.add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_creates_one_series_per_opcode_class() {
        let registry = Registry::new();
        let metrics = VmMetrics::register(&registry);
        metrics.flush_dispatch(&std::array::from_fn(|i| i as u64));
        let snap = registry.snapshot();
        let dispatch: Vec<_> = snap
            .counters
            .keys()
            .filter(|k| k.starts_with("vm_dispatch_total{"))
            .collect();
        assert_eq!(dispatch.len(), OpcodeClass::COUNT);
        // flush skips zero tallies, but the series exists from registration.
        assert_eq!(snap.counters["vm_dispatch_total{class=\"stack\"}"], 0);
        assert_eq!(
            snap.counters[&format!("vm_dispatch_total{{class=\"{}\"}}", OpcodeClass::Io.name())],
            OpcodeClass::Io as u64
        );
    }

    #[test]
    fn gc_events_feed_the_histograms() {
        let registry = Registry::new();
        let metrics = VmMetrics::register(&registry);
        metrics.on_full_gc(std::time::Duration::from_micros(7));
        metrics.on_minor_gc(std::time::Duration::from_micros(3));
        metrics.on_deep_gc();
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["vm_gc_full_pause_us"].sum, 7);
        assert_eq!(snap.histograms["vm_gc_minor_pause_us"].sum, 3);
        assert_eq!(snap.counters["vm_deep_gc_total"], 1);
    }
}
