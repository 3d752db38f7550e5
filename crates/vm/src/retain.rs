//! Retaining-path sampling: *who holds the drag*.
//!
//! The drag report names the allocation site of every dragging object,
//! but the assign-null rewriting needs the opposite end of the story —
//! the reference path that keeps the object reachable. This module
//! samples that path during the full-heap mark the profiler's deep GC
//! already performs: every newly marked object draws from a seeded
//! generator, and a hit reconstructs the object's discovery path back
//! to a mutator root (a static, a frame local, an operand stack slot,
//! or a monitor).
//!
//! Paths are *bounded access paths* in the sense of the access-graph
//! literature: array indices collapse to `[*]`, and paths longer than
//! [`RetainConfig::max_depth`] are truncated at the leaf end (keeping
//! the root-anchored prefix, which is what the optimizer needs). This
//! keeps the path universe finite, so per-site summaries converge.
//!
//! Everything here is deterministic given the seed: the mark worklist
//! order is a pure function of the mutator state, the generator is
//! SplitMix64, and one draw happens per newly marked object.

use std::collections::HashMap;

use crate::heap::{Handle, Heap};
use crate::ids::{MethodId, ObjectId};
use crate::program::Program;

/// SplitMix64 step (same generator the test kit uses; reimplemented here
/// because the VM cannot depend on the test kit).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Retain-sampling knobs. Stored as an integer threshold (not an `f64`
/// rate) so `VmConfig` stays `Eq` and the sampling decision is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetainConfig {
    /// A newly marked object is sampled when a SplitMix64 draw is
    /// strictly below this threshold. `0` disables sampling entirely;
    /// `u64::MAX` samples (almost) every object.
    pub threshold: u64,
    /// Seed of the per-run SplitMix64 stream.
    pub seed: u64,
    /// Maximum number of path steps kept (root side wins; longer paths
    /// are flagged truncated).
    pub max_depth: u32,
}

impl RetainConfig {
    /// The documented default sampling rate (1 object in 16).
    pub const DEFAULT_RATE: f64 = 1.0 / 16.0;
    /// The default seed: ASCII `heapdrag`.
    pub const DEFAULT_SEED: u64 = 0x6865_6170_6472_6167;
    /// The default path-depth bound.
    pub const DEFAULT_MAX_DEPTH: u32 = 8;

    /// Builds a config from a sampling rate in `[0, 1]`; returns `None`
    /// for a non-positive rate (sampling off). Rates above 1 clamp.
    pub fn from_rate(rate: f64) -> Option<Self> {
        if rate.is_nan() || rate <= 0.0 {
            return None;
        }
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        Some(RetainConfig {
            threshold,
            seed: Self::DEFAULT_SEED,
            max_depth: Self::DEFAULT_MAX_DEPTH,
        })
    }

    /// Same as [`RetainConfig::from_rate`] with an explicit seed.
    pub fn from_rate_seeded(rate: f64, seed: u64) -> Option<Self> {
        Self::from_rate(rate).map(|c| RetainConfig { seed, ..c })
    }
}

/// Where a retaining path is anchored: the mutator root that discovered
/// the sampled object during the mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootRef {
    /// A static variable, by index into [`Program::statics`].
    Static(u32),
    /// A frame local slot.
    Local {
        /// The frame's method.
        method: MethodId,
        /// The local slot index.
        slot: u32,
    },
    /// An operand-stack slot of a frame (transient).
    Stack {
        /// The frame's method.
        method: MethodId,
    },
    /// A held monitor.
    Monitor,
    /// An implicit GC root (pinned object or pending finalizer).
    Pinned,
}

impl RootRef {
    /// Stable textual rendering, e.g. `static jess.Engine.workingMemory`
    /// or `local Gen.main#2`. The first word is the root *kind*; the
    /// optimizer keys off it.
    pub fn render(&self, program: &Program) -> String {
        match self {
            RootRef::Static(i) => format!("static {}", program.statics[*i as usize].name),
            RootRef::Local { method, slot } => {
                format!("local {}#{}", program.method_name(*method), slot)
            }
            RootRef::Stack { method } => format!("stack {}", program.method_name(*method)),
            RootRef::Monitor => "monitor".to_string(),
            RootRef::Pinned => "pinned".to_string(),
        }
    }
}

/// A bounded access path, already rendered to its stable text form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct RetainPath {
    /// `<root> -> <Class.field> -> ... ` (arrays collapse to `[*]`).
    pub text: String,
    /// Number of edge steps between the root and the object (0 = the
    /// object is directly rooted).
    pub depth: u32,
    /// True when the real path was longer than the depth bound and the
    /// leaf end was cut.
    pub truncated: bool,
}

impl RetainPath {
    /// Builds a path value.
    pub fn new(text: impl Into<String>, depth: u32, truncated: bool) -> Self {
        RetainPath {
            text: text.into(),
            depth,
            truncated,
        }
    }
}

/// One resolved sample: a surviving object and the path that retains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainSample {
    /// The sampled (marked, surviving) object.
    pub object: ObjectId,
    /// Its size in bytes — the sample's weight.
    pub size: u64,
    /// The retaining path.
    pub path: RetainPath,
}

/// Mark-time edge tracker and sampler, threaded through
/// [`collect_full`](crate::gc::collect_full).
///
/// The mark loop calls [`note_seed`](Self::note_seed) for every initial
/// worklist entry, [`note_edge`](Self::note_edge) for every traced
/// reference edge, and [`draw`](Self::draw) once per newly marked
/// object; [`resolve`](Self::resolve) then turns the hits into
/// [`RetainSample`]s while the marked heap is still intact.
#[derive(Debug)]
pub struct RetainSampler {
    config: RetainConfig,
    state: u64,
    /// Handles that terminate a path walk (mutator roots and implicit
    /// GC seeds), indexed by handle slot.
    terminal: Vec<bool>,
    /// Discovery-tree parent of each handle: `(parent, slot-in-parent)`,
    /// recorded at first push and never overwritten.
    parents: Vec<Option<(Handle, u32)>>,
    /// Root descriptors for terminal handles.
    roots: HashMap<Handle, RootRef>,
    hits: Vec<Handle>,
    samples: Vec<RetainSample>,
}

impl RetainSampler {
    /// Creates a sampler for one collection. `state` carries the
    /// SplitMix64 stream across collections; `roots` maps each mutator
    /// root handle to its descriptor (first-wins priority chosen by the
    /// caller).
    pub fn new(config: RetainConfig, state: u64, roots: HashMap<Handle, RootRef>) -> Self {
        RetainSampler {
            config,
            state,
            terminal: Vec::new(),
            parents: Vec::new(),
            roots,
            hits: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// The generator state after the collection, to be carried into the
    /// next one.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Marks `h` as a path terminator (initial worklist entry).
    #[inline]
    pub fn note_seed(&mut self, h: Handle) {
        let idx = h.index();
        if idx >= self.terminal.len() {
            self.terminal.resize(idx + 1, false);
        }
        self.terminal[idx] = true;
    }

    /// Records the discovery edge `parent --slot--> child`, unless the
    /// child is a terminal or already has a parent. Recording at *push*
    /// time (before the child is marked) guarantees the parent chain is
    /// acyclic: every recorded parent was marked strictly before its
    /// child.
    #[inline]
    pub fn note_edge(&mut self, child: Handle, parent: Handle, slot: u32) {
        let idx = child.index();
        if idx < self.terminal.len() && self.terminal[idx] {
            return;
        }
        if idx >= self.parents.len() {
            self.parents.resize(idx + 1, None);
        }
        if self.parents[idx].is_none() {
            self.parents[idx] = Some((parent, slot));
        }
    }

    /// One draw per newly marked object; a hit queues the object for
    /// path resolution.
    #[inline]
    pub fn draw(&mut self, h: Handle) {
        if splitmix64(&mut self.state) < self.config.threshold {
            self.hits.push(h);
        }
    }

    /// Resolves every hit into a [`RetainSample`] while the marked heap
    /// is still populated (called between mark and sweep).
    pub fn resolve(&mut self, heap: &Heap, program: &Program) {
        let hits = std::mem::take(&mut self.hits);
        for h in hits {
            let Some(obj) = heap.get(h) else { continue };
            if obj.pinned {
                continue;
            }
            let (root, steps, truncated) = self.walk(h);
            let root_text = self
                .roots
                .get(&root)
                .copied()
                .unwrap_or(RootRef::Pinned)
                .render(program);
            let mut text = root_text;
            for &(parent, slot) in &steps {
                text.push_str(" -> ");
                text.push_str(&edge_label(heap, program, parent, slot));
            }
            self.samples.push(RetainSample {
                object: obj.id,
                size: obj.size_bytes,
                path: RetainPath::new(text, steps.len() as u32, truncated),
            });
        }
    }

    /// Walks the discovery tree from `h` up to its terminal, returning
    /// the terminal handle, the root-to-leaf edge steps (bounded by
    /// `max_depth`, root side kept), and the truncation flag.
    fn walk(&self, h: Handle) -> (Handle, Vec<(Handle, u32)>, bool) {
        let mut up = Vec::new();
        let mut cur = h;
        while let Some(&(parent, slot)) = self.parents.get(cur.index()).and_then(|p| p.as_ref()) {
            up.push((parent, slot));
            cur = parent;
        }
        up.reverse();
        let truncated = up.len() > self.config.max_depth as usize;
        if truncated {
            up.truncate(self.config.max_depth as usize);
        }
        (cur, up, truncated)
    }

    /// The resolved samples, in deterministic (draw) order.
    pub fn into_samples(self) -> Vec<RetainSample> {
        self.samples
    }

    /// Drains the resolved samples, leaving the sampler reusable.
    pub fn take_samples(&mut self) -> Vec<RetainSample> {
        std::mem::take(&mut self.samples)
    }
}

/// Label of the edge out of `parent` at `slot`: `Class.field` for a
/// scalar field (resolved through the class layout, so inherited fields
/// name their declaring class), `[*]` for any array element (the
/// bounded-index abstraction).
fn edge_label(heap: &Heap, program: &Program, parent: Handle, slot: u32) -> String {
    let Some(po) = heap.get(parent) else {
        return "?".to_string();
    };
    if po.is_array {
        return "[*]".to_string();
    }
    let layout = &program.classes[po.class.index()].layout;
    match layout.get(slot as usize) {
        Some(&(declaring, field)) => {
            let class = &program.classes[declaring.index()];
            format!("{}.{}", class.name, class.fields[field as usize].name)
        }
        None => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rate_bounds() {
        assert!(RetainConfig::from_rate(0.0).is_none());
        assert!(RetainConfig::from_rate(-1.0).is_none());
        assert!(RetainConfig::from_rate(f64::NAN).is_none());
        assert_eq!(RetainConfig::from_rate(2.0).unwrap().threshold, u64::MAX);
        let half = RetainConfig::from_rate(0.5).unwrap();
        assert!(half.threshold > u64::MAX / 4 && half.threshold < 3 * (u64::MAX / 4));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..10 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn path_walk_is_bounded() {
        let config = RetainConfig {
            threshold: u64::MAX,
            seed: 1,
            max_depth: 2,
        };
        let mut s = RetainSampler::new(config, 1, HashMap::new());
        // Build a chain root(0) -> 1 -> 2 -> 3 -> 4 via fabricated handles.
        let h = |i: u32| Handle::from_parts(i, 0);
        s.note_seed(h(0));
        for i in 1..5u32 {
            s.note_edge(h(i), h(i - 1), 0);
        }
        let (root, steps, truncated) = s.walk(h(4));
        assert_eq!(root, h(0));
        assert_eq!(steps.len(), 2, "root-side prefix kept");
        assert!(truncated);
        assert_eq!(steps[0].0, h(0));
        let (_, steps1, trunc1) = s.walk(h(1));
        assert_eq!(steps1.len(), 1);
        assert!(!trunc1);
    }

    #[test]
    fn first_parent_wins_and_terminals_stay_parentless() {
        let config = RetainConfig {
            threshold: 0,
            seed: 1,
            max_depth: 8,
        };
        let mut s = RetainSampler::new(config, 1, HashMap::new());
        let h = |i: u32| Handle::from_parts(i, 0);
        s.note_seed(h(0));
        s.note_edge(h(0), h(1), 3); // terminal: ignored
        s.note_edge(h(2), h(0), 1);
        s.note_edge(h(2), h(1), 7); // second parent: ignored
        let (root, steps, _) = s.walk(h(2));
        assert_eq!(root, h(0));
        assert_eq!(steps, vec![(h(0), 1)]);
        let (root0, steps0, _) = s.walk(h(0));
        assert_eq!(root0, h(0));
        assert!(steps0.is_empty());
    }
}
