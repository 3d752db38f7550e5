//! The bytecode interpreter, GC policy, and deep-GC orchestration.

use std::collections::HashMap;

use crate::error::VmError;
use crate::gc::{collect_full, collect_minor, CollectOutcome};
use crate::heap::{Handle, Heap, HeapStats};
use crate::ids::{ChainId, ClassId, MethodId, ObjectId, VSlot};
use crate::insn::{Insn, OpcodeClass};
use crate::metrics::VmMetrics;
use crate::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, NullObserver, RetainDelivery, RetainEvent,
    UseDelivery, UseEvent, UseKind,
};
use crate::predecode::{predecode, ChainIc, CtxIc, IcState, Op, PredecodedProgram, VtIc};
use crate::program::Program;
use crate::retain::{RetainConfig, RetainSampler, RootRef};
use crate::site::{CtxTable, SiteTable};
use crate::value::Value;

/// Which dispatch loop executes bytecode.
///
/// Both interpreters are observably identical — same output, step counts,
/// per-class dispatch tallies, observer event streams, and errors; the
/// differential test harness pins this. The fast loop runs on a
/// pre-decoded instruction stream (see [`crate::predecode`]) with
/// superinstructions and inline caches; the reference loop executes
/// `Method.code` one [`Insn`] at a time and serves as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpreterKind {
    /// Pre-decoded, superinstruction-fused, inline-cached dispatch (default).
    #[default]
    Fast,
    /// The original one-`Insn`-at-a-time loop.
    Reference,
}

/// Tuning knobs for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// Trigger a *deep GC* every this many allocated bytes — the paper uses
    /// 100 KB. A deep GC is GC → finalizers → GC, where the second GC runs
    /// only if the first queued a finalizer; the last collection is the
    /// census the profiler samples. `None` disables periodic deep GCs
    /// (plain execution).
    pub deep_gc_interval: Option<u64>,
    /// Hard heap limit; exceeding it after a forced collection throws
    /// `OutOfMemoryError` into the program.
    pub heap_limit: Option<u64>,
    /// Run a full collection whenever live bytes exceed this soft threshold
    /// (models a fixed heap size, which determines GC frequency).
    pub gc_trigger: Option<u64>,
    /// Depth of nested allocation/use site chains (the paper's configurable
    /// "level of nesting").
    pub site_depth: usize,
    /// Enable the generational collector (nursery + tenured).
    pub generational: bool,
    /// Bytes of allocation between minor collections in generational mode.
    pub nursery_bytes: u64,
    /// Maximum interpreter call depth.
    pub max_frames: usize,
    /// Optional hard cap on executed instructions.
    pub max_steps: Option<u64>,
    /// Which dispatch loop to use (observably identical; see
    /// [`InterpreterKind`]).
    pub interpreter: InterpreterKind,
    /// Retaining-path sampling during deep-GC census marks (see
    /// [`crate::retain`]). `None` disables sampling; the observer must
    /// additionally opt in through
    /// [`HeapObserver::retain_delivery`].
    pub retain: Option<RetainConfig>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            deep_gc_interval: None,
            heap_limit: None,
            gc_trigger: None,
            site_depth: 4,
            generational: false,
            nursery_bytes: 64 * 1024,
            max_frames: 1024,
            max_steps: Some(2_000_000_000),
            interpreter: InterpreterKind::default(),
            retain: None,
        }
    }
}

impl VmConfig {
    /// The configuration the paper's tool uses: deep GC every 100 KB,
    /// nesting depth 4.
    pub fn profiling() -> Self {
        VmConfig {
            deep_gc_interval: Some(100 * 1024),
            ..Self::default()
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Values printed by the program, in order.
    pub output: Vec<i64>,
    /// Instructions executed.
    pub steps: u64,
    /// Final allocation-clock value (total bytes allocated).
    pub end_time: u64,
    /// Deep-GC cycles performed.
    pub deep_gcs: u64,
    /// Heap counters (allocations, frees, GC work).
    pub heap: HeapStats,
    /// Per-[`OpcodeClass`] dispatch tallies, in discriminant order. A fused
    /// superinstruction counts once per *original* instruction, so the
    /// tallies are interpreter-independent.
    pub dispatch: [u64; OpcodeClass::COUNT],
}

impl RunOutcome {
    /// A deterministic, platform-independent cost model for runtime
    /// comparisons: one unit per instruction, plus allocation and GC work.
    ///
    /// Allocation cost models both the allocation itself and object
    /// initialisation (the paper attributes part of its Table 4 speedups to
    /// "allocation and initialization \[being\] avoided").
    pub fn cost_units(&self) -> u64 {
        self.steps + self.heap.allocated_bytes / 8 + 4 * self.heap.traced_objects
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Normal,
    Entry,
    Finalizer,
}

#[derive(Debug)]
struct Frame {
    method: MethodId,
    pc: u32,
    locals: Vec<Value>,
    stack: Vec<Value>,
    /// Caller context: an id into the VM's [`CtxTable`] naming the call
    /// chain's sites, innermost first, truncated to `site_depth - 1`. Entry
    /// and finalizer frames run in the empty context, id 0.
    ctx: u32,
    kind: FrameKind,
}

/// An executing instruction: its method and pc, and the caller context of
/// the frame running it. Event chains, callee contexts and bytecode errors
/// are functions of it.
#[derive(Debug, Clone, Copy)]
struct At {
    method: MethodId,
    pc: u32,
    ctx: u32,
}

impl At {
    fn invalid(self, reason: String) -> VmError {
        VmError::InvalidBytecode {
            method: self.method,
            pc: self.pc,
            reason,
        }
    }
}

/// One buffered use event under [`UseDelivery::Coalesced`]: the last use of
/// a live handle since the previous flush.
#[derive(Debug, Clone, Copy)]
struct PendingUse {
    /// The handle's slot index (key into `PendingUses::slots`).
    slot: u32,
    object: ObjectId,
    kind: UseKind,
    time: u64,
    site: ChainId,
}

/// Last-use-per-handle buffer for coalesced delivery. `slots[h]` holds
/// `position + 1` of the handle's entry in `entries` (0 = none). Handles
/// cannot be recycled within a window because frees happen only inside GC,
/// which flushes first.
#[derive(Debug, Default)]
struct PendingUses {
    entries: Vec<PendingUse>,
    slots: Vec<u32>,
}

impl PendingUses {
    fn note(&mut self, handle: Handle, object: ObjectId, kind: UseKind, time: u64, site: ChainId) {
        let idx = handle.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        let entry = PendingUse {
            slot: idx as u32,
            object,
            kind,
            time,
            site,
        };
        let pos = self.slots[idx];
        if pos == 0 {
            self.entries.push(entry);
            self.slots[idx] = self.entries.len() as u32;
        } else {
            self.entries[(pos - 1) as usize] = entry;
        }
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.slots.clear();
    }
}

struct Thrown {
    class: ClassId,
    value: Option<Handle>,
}

impl Thrown {
    /// A runtime-raised exception of a builtin class, with no object.
    fn builtin(class: ClassId) -> Self {
        Thrown { class, value: None }
    }
}

enum StepResult {
    Continue,
    ProgramExit,
}

/// The virtual machine: interprets a linked [`Program`] against a fresh heap.
///
/// A `Vm` can run the same program several times; the site table persists
/// across runs (so site ids are stable), while heap, statics, and output are
/// reset.
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    sites: SiteTable,
    heap: Heap,
    statics: Vec<Value>,
    frames: Vec<Frame>,
    output: Vec<i64>,
    monitors: HashMap<Handle, u32>,
    steps: u64,
    next_deep_gc: u64,
    next_minor_gc: u64,
    deep_gcs: u64,
    in_deep_gc: bool,
    /// Objects a collection queued for finalization, awaiting their
    /// finalizer at the next deep GC or post-allocation safe point.
    finalize_queue: Vec<Handle>,
    /// Always-on per-class dispatch tallies (plain array increment on the
    /// hot path; flushed to registry counters at the end of a run).
    dispatch: [u64; OpcodeClass::COUNT],
    metrics: Option<VmMetrics>,
    /// Pre-decoded program for the fast loop (empty under
    /// [`InterpreterKind::Reference`]).
    pre: PredecodedProgram,
    /// Inline-cache state, persistent across runs (site ids are too).
    ics: IcState,
    /// Interned caller contexts of every frame.
    ctxs: CtxTable,
    /// Buffered uses awaiting a coalesced flush.
    pending: PendingUses,
    /// SplitMix64 stream for retain sampling, carried across collections.
    retain_state: u64,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program` with the given configuration.
    ///
    /// Under [`InterpreterKind::Fast`] this pre-decodes every method (see
    /// [`crate::predecode`]); the pre-decoded stream is a pure function of
    /// the immutably borrowed program, so code edits require a new `Vm`
    /// (the borrow checker enforces this).
    pub fn new(program: &'p Program, config: VmConfig) -> Self {
        let pre = match config.interpreter {
            InterpreterKind::Fast => predecode(program),
            InterpreterKind::Reference => PredecodedProgram::default(),
        };
        let ics = IcState::for_program(&pre);
        Vm {
            program,
            config,
            sites: SiteTable::new(),
            heap: Heap::new(),
            statics: Vec::new(),
            frames: Vec::new(),
            output: Vec::new(),
            monitors: HashMap::new(),
            steps: 0,
            next_deep_gc: u64::MAX,
            next_minor_gc: u64::MAX,
            deep_gcs: 0,
            in_deep_gc: false,
            finalize_queue: Vec::new(),
            dispatch: [0; OpcodeClass::COUNT],
            metrics: None,
            pre,
            ics,
            ctxs: CtxTable::new(),
            pending: PendingUses::default(),
            retain_state: 0,
        }
    }

    /// Attaches a metric registry: instruction dispatch per opcode class,
    /// GC pause histograms, deep-GC counts, and heap totals are published
    /// into it (see [`VmMetrics::register`] for the metric names). Dispatch
    /// tallies and heap totals land when a run finishes.
    pub fn attach_metrics(&mut self, registry: &heapdrag_obs::Registry) {
        self.metrics = Some(VmMetrics::register(registry));
    }

    /// The site table accumulated so far.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// Consumes the VM, yielding the site table for off-line analysis.
    pub fn into_sites(self) -> SiteTable {
        self.sites
    }

    /// Runs the program without an observer.
    ///
    /// # Errors
    ///
    /// See [`Vm::run_observed`].
    pub fn run(&mut self, input: &[i64]) -> Result<RunOutcome, VmError> {
        let mut observer = NullObserver;
        self.run_observed(input, &mut observer)
    }

    /// Runs the program, reporting heap events to `observer`.
    ///
    /// The entry method receives the input as an int array in local 0; the
    /// array is pinned (invisible to the observer, like command-line
    /// arguments materialised by the runtime).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UncaughtException`] if an exception escapes the
    /// entry method, or another [`VmError`] for VM-level faults.
    pub fn run_observed(
        &mut self,
        input: &[i64],
        observer: &mut dyn HeapObserver,
    ) -> Result<RunOutcome, VmError> {
        self.reset();
        let input_array = self
            .heap
            .alloc(self.program.builtins.array, input.len(), true, true);
        {
            let obj = self.heap.get_mut(input_array).expect("fresh allocation");
            for (slot, v) in obj.data.iter_mut().zip(input) {
                *slot = Value::Int(*v);
            }
        }
        let entry = self.program.entry;
        let mut locals = vec![Value::Null; self.program.methods[entry.index()].num_locals as usize];
        if !locals.is_empty() {
            locals[0] = Value::Ref(input_array);
        }
        let stack = match self.config.interpreter {
            InterpreterKind::Fast => {
                Vec::with_capacity(self.pre.methods[entry.index()].stack_capacity)
            }
            InterpreterKind::Reference => Vec::new(),
        };
        self.frames.push(Frame {
            method: entry,
            pc: 0,
            locals,
            stack,
            ctx: 0,
            kind: FrameKind::Entry,
        });

        match self.config.interpreter {
            InterpreterKind::Fast => self.run_fast(observer)?,
            InterpreterKind::Reference => while let StepResult::Continue = self.step(observer)? {},
        }
        self.flush_pending_uses(observer);

        // Final deep GC, then report survivors as-if collected at exit.
        if self.config.deep_gc_interval.is_some() {
            self.deep_gc(observer)?;
        }
        let end = self.heap.clock();
        let survivors: Vec<_> = self
            .heap
            .iter()
            .filter(|(_, o)| !o.pinned)
            .map(|(_, o)| o.id)
            .collect();
        for id in survivors {
            observer.on_free(FreeEvent {
                object: id,
                time: end,
                at_exit: true,
            });
        }
        observer.on_exit(end);

        if let Some(metrics) = &self.metrics {
            metrics.flush_dispatch(&self.dispatch);
            self.heap.stats().publish(metrics.registry());
        }

        Ok(RunOutcome {
            output: std::mem::take(&mut self.output),
            steps: self.steps,
            end_time: end,
            deep_gcs: self.deep_gcs,
            heap: self.heap.stats(),
            dispatch: self.dispatch,
        })
    }

    fn reset(&mut self) {
        self.heap = match self.config.heap_limit {
            Some(limit) => Heap::with_limit(limit),
            None => Heap::new(),
        };
        self.statics = self.program.statics.iter().map(|s| s.init).collect();
        self.frames.clear();
        self.output.clear();
        self.monitors.clear();
        self.steps = 0;
        self.deep_gcs = 0;
        self.in_deep_gc = false;
        self.finalize_queue.clear();
        self.dispatch = [0; OpcodeClass::COUNT];
        self.pending.reset();
        self.retain_state = self.config.retain.map_or(0, |r| r.seed);
        self.next_deep_gc = self.config.deep_gc_interval.unwrap_or(u64::MAX);
        self.next_minor_gc = if self.config.generational {
            self.config.nursery_bytes
        } else {
            u64::MAX
        };
    }

    // --- event helpers ----------------------------------------------------
    //
    // Both dispatch loops call these; the fast loop passes its inline-cache
    // slot, the reference loop `None`. A cache miss interns exactly what an
    // uncached call does, at the same logical point in the run, so the site
    // table's insertion order (and therefore all log output) is the same
    // under both interpreters.

    /// The event chain of an allocation or use at `at`: its site, then the
    /// frame's caller context, truncated to `site_depth`.
    fn chain(&mut self, at: At, ic: Option<&mut ChainIc>) -> ChainId {
        if let Some(slot) = &ic {
            if slot.ctx_plus1 == at.ctx + 1 {
                return slot.chain;
            }
        }
        let site = self.sites.intern_site(at.method, at.pc);
        let len = self.config.site_depth.max(1);
        let id = self.sites.intern_chain(self.ctxs.extend(site, at.ctx, len));
        if let Some(slot) = ic {
            *slot = ChainIc {
                ctx_plus1: at.ctx + 1,
                chain: id,
            };
        }
        id
    }

    /// The caller context of a frame called from `caller`: the call site,
    /// then the caller's own context, truncated to `site_depth - 1`.
    fn callee_ctx(&mut self, caller: At, cic: Option<&mut CtxIc>) -> u32 {
        if let Some(slot) = &cic {
            if slot.caller_plus1 == caller.ctx + 1 {
                return slot.callee;
            }
        }
        let site = self.sites.intern_site(caller.method, caller.pc);
        let len = self.config.site_depth.saturating_sub(1);
        let id = self.ctxs.intern_extended(site, caller.ctx, len);
        if let Some(slot) = cic {
            *slot = CtxIc {
                caller_plus1: caller.ctx + 1,
                callee: id,
            };
        }
        id
    }

    /// Records a use of `handle` at `at` as `delivery` says. `step()`
    /// always passes [`UseDelivery::PerAccess`], so its event stream does
    /// not depend on the observer's preference.
    fn record_use(
        &mut self,
        observer: &mut dyn HeapObserver,
        delivery: UseDelivery,
        handle: Handle,
        kind: UseKind,
        at: At,
        ic: Option<&mut ChainIc>,
    ) {
        if delivery == UseDelivery::Skip {
            return;
        }
        let Some(obj) = self.heap.get(handle) else {
            return;
        };
        if obj.pinned {
            return;
        }
        let object = obj.id;
        let site = self.chain(at, ic);
        let time = self.heap.clock();
        match delivery {
            UseDelivery::Coalesced => self.pending.note(handle, object, kind, time, site),
            _ => observer.on_use(UseEvent {
                object,
                kind,
                time,
                site,
            }),
        }
    }

    /// Delivers buffered coalesced uses in noting order and clears the
    /// buffer. Called at every GC safepoint (before any frees) and at the
    /// end of a run (before survivor frees), so observers always see a use
    /// before the free that follows it.
    fn flush_pending_uses(&mut self, observer: &mut dyn HeapObserver) {
        if self.pending.entries.is_empty() {
            return;
        }
        let PendingUses { entries, slots } = &mut self.pending;
        for e in entries.drain(..) {
            slots[e.slot as usize] = 0;
            observer.on_use(UseEvent {
                object: e.object,
                kind: e.kind,
                time: e.time,
                site: e.site,
            });
        }
    }

    // --- roots & collections ------------------------------------------------

    fn roots(&self) -> Vec<Handle> {
        let mut roots = Vec::new();
        for frame in &self.frames {
            for v in frame.locals.iter().chain(frame.stack.iter()) {
                if let Value::Ref(h) = v {
                    roots.push(*h);
                }
            }
        }
        for v in &self.statics {
            if let Value::Ref(h) = v {
                roots.push(*h);
            }
        }
        roots.extend(self.monitors.keys().copied());
        roots
    }

    /// One full collection. `census` marks a deep-GC collection, whose
    /// reachability numbers may feed the deep-GC sample; only those sample
    /// retaining paths (so the sampling cadence matches the profiler's
    /// census cadence and the draw sequence is deterministic). Objects the
    /// collection resurrects join `finalize_queue`.
    fn full_gc(&mut self, observer: &mut dyn HeapObserver, census: bool) -> CollectOutcome {
        self.flush_pending_uses(observer);
        let roots = self.roots();
        let time = self.heap.clock();
        let sampling = census && observer.retain_delivery() == RetainDelivery::Sample;
        let mut sampler = (self.config.retain)
            .filter(|r| sampling && r.threshold > 0)
            .map(|r| RetainSampler::new(r, self.retain_state, self.root_refs()));
        let on_free = &mut |o: &crate::heap::Object| observer.on_free(FreeEvent::new(o.id, time));
        let outcome = collect_full(
            &mut self.heap,
            self.program,
            &roots,
            on_free,
            sampler.as_mut(),
        );
        if let Some(sampler) = sampler {
            self.retain_state = sampler.state();
        }
        self.finalize_queue
            .extend_from_slice(&outcome.pending_finalizers);
        self.monitors.retain(|h, _| self.heap.get(*h).is_some());
        if let Some(metrics) = &self.metrics {
            metrics.on_full_gc(outcome.elapsed);
        }
        outcome
    }

    /// Root descriptors for retain sampling, priority statics > locals >
    /// operand stacks > monitors (the durable holder wins when an object
    /// is multiply rooted).
    fn root_refs(&self) -> HashMap<Handle, RootRef> {
        let mut map = HashMap::new();
        for (i, v) in self.statics.iter().enumerate() {
            if let Value::Ref(h) = v {
                map.entry(*h).or_insert(RootRef::Static(i as u32));
            }
        }
        for frame in &self.frames {
            for (slot, v) in frame.locals.iter().enumerate() {
                if let Value::Ref(h) = v {
                    map.entry(*h).or_insert(RootRef::Local {
                        method: frame.method,
                        slot: slot as u32,
                    });
                }
            }
            for v in &frame.stack {
                if let Value::Ref(h) = v {
                    map.entry(*h).or_insert(RootRef::Stack {
                        method: frame.method,
                    });
                }
            }
        }
        for h in self.monitors.keys() {
            map.entry(*h).or_insert(RootRef::Monitor);
        }
        map
    }

    fn minor_gc(&mut self, observer: &mut dyn HeapObserver) {
        self.flush_pending_uses(observer);
        let roots = self.roots();
        let time = self.heap.clock();
        let outcome = collect_minor(&mut self.heap, self.program, &roots, &mut |o| {
            observer.on_free(FreeEvent::new(o.id, time));
        });
        self.monitors.retain(|h, _| self.heap.get(*h).is_some());
        if let Some(metrics) = &self.metrics {
            metrics.on_minor_gc(outcome.elapsed);
        }
    }

    /// Deep GC: GC → finalizers → GC, where the second GC runs only if the
    /// first queued a finalizer; otherwise it would mark the same graph and
    /// free nothing, so the first collection is the census. Observer order:
    /// frees, the census's retain samples, then the deep-GC sample.
    fn deep_gc(&mut self, observer: &mut dyn HeapObserver) -> Result<(), VmError> {
        if self.in_deep_gc {
            return Ok(());
        }
        self.in_deep_gc = true;
        let retain_state = self.retain_state;
        let mut census = self.full_gc(observer, true);
        if self.run_finalizers(observer)? {
            // The collection after the finalizers is the census: it draws
            // the retain stream the discarded first mark drew.
            self.retain_state = retain_state;
            census = self.full_gc(observer, true);
        }
        let time = self.heap.clock();
        for s in census.retain_samples {
            observer.on_retain_sample(RetainEvent::new(s.object, s.size, time, s.path));
        }
        self.deep_gcs += 1;
        if let Some(metrics) = &self.metrics {
            metrics.on_deep_gc();
        }
        observer.on_deep_gc(
            GcEvent::new(time).with_reachable(census.reachable_bytes, census.reachable_count),
        );
        self.in_deep_gc = false;
        Ok(())
    }

    /// Runs every queued finalizer in queue order; returns whether any ran.
    /// A finalizer that allocates reaches a safe point itself, where the
    /// objects queued since (by a collection it forced) are finalized.
    fn run_finalizers(&mut self, observer: &mut dyn HeapObserver) -> Result<bool, VmError> {
        if self.finalize_queue.is_empty() {
            return Ok(false);
        }
        self.flush_pending_uses(observer);
        for handle in std::mem::take(&mut self.finalize_queue) {
            let Some(obj) = self.heap.get_mut(handle) else {
                continue;
            };
            obj.finalize_pending = false;
            obj.finalized = true;
            let class = obj.class;
            if let Some(fin) = self.program.classes[class.index()].finalizer {
                self.run_nested(fin, vec![Value::Ref(handle)], observer)?;
            }
        }
        Ok(true)
    }

    /// GC policy checks after an allocation (the freshly allocated object is
    /// already rooted on the operand stack by then).
    fn post_alloc_gc(&mut self, observer: &mut dyn HeapObserver) -> Result<(), VmError> {
        if self.heap.clock() >= self.next_deep_gc {
            let interval = self.config.deep_gc_interval.expect("interval set");
            while self.next_deep_gc <= self.heap.clock() {
                self.next_deep_gc += interval;
            }
            self.deep_gc(observer)?;
        }
        if self.config.generational && self.heap.clock() >= self.next_minor_gc {
            while self.next_minor_gc <= self.heap.clock() {
                self.next_minor_gc += self.config.nursery_bytes;
            }
            self.minor_gc(observer);
        }
        if let Some(trigger) = self.config.gc_trigger {
            if self.heap.live_bytes() > trigger && !self.in_deep_gc {
                self.full_gc(observer, false);
            }
        }
        // Finalizers queued by a collection outside a deep GC (the trigger
        // above, or a heap-limit collection before this allocation).
        self.run_finalizers(observer)?;
        Ok(())
    }

    /// Allocates at `at` and runs the allocation's safe point: a forced
    /// collection if the heap limit would be exceeded (then an
    /// `OutOfMemoryError` thrown into the program if it still would), the
    /// alloc event, the push of the new reference, and the GC policy
    /// checks. The current frame must be on `self.frames`: the collections
    /// need its roots.
    fn allocate(
        &mut self,
        observer: &mut dyn HeapObserver,
        class: ClassId,
        slots: usize,
        is_array: bool,
        at: At,
        ic: Option<&mut ChainIc>,
    ) -> Result<(), VmError> {
        if self.heap.would_exceed_limit(slots) {
            self.full_gc(observer, false);
            if self.heap.would_exceed_limit(slots) {
                let oom = Thrown::builtin(self.program.builtins.out_of_memory);
                return self.throw(oom, at.pc);
            }
        }
        let pinned = self.program.classes[class.index()].pinned;
        let handle = self.heap.alloc(class, slots, is_array, pinned);
        if !pinned {
            let obj = self.heap.get(handle).expect("fresh allocation");
            let (object, size) = (obj.id, obj.size_bytes);
            let site = self.chain(at, ic);
            observer.on_alloc(AllocEvent {
                object,
                class,
                size,
                time: self.heap.clock(),
                site,
            });
        }
        self.push(Value::Ref(handle));
        self.post_alloc_gc(observer)
    }

    // --- frames ---------------------------------------------------------------

    /// Pushes a frame for `method`: with a `caller`, a normal frame whose
    /// context is [`callee_ctx`](Self::callee_ctx) of the call there;
    /// without, a finalizer frame in the empty context.
    fn push_frame(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        caller: Option<At>,
        cic: Option<&mut CtxIc>,
        stack_capacity: usize,
    ) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_frames {
            return Err(VmError::StackOverflow {
                limit: self.config.max_frames,
            });
        }
        let m = &self.program.methods[method.index()];
        debug_assert_eq!(args.len(), m.num_params as usize);
        let mut locals = args;
        locals.resize(m.num_locals as usize, Value::Null);
        let (kind, ctx) = match caller {
            Some(at) => (FrameKind::Normal, self.callee_ctx(at, cic)),
            None => (FrameKind::Finalizer, 0),
        };
        self.frames.push(Frame {
            method,
            pc: 0,
            locals,
            stack: Vec::with_capacity(stack_capacity),
            ctx,
            kind,
        });
        Ok(())
    }

    /// Returns from a popped frame of `kind` with `value`: a normal frame's
    /// value goes to its caller's operand stack, a finalizer's is
    /// discarded. True when the entry frame returned (program exit).
    fn ret(&mut self, kind: FrameKind, value: Option<Value>) -> bool {
        match kind {
            FrameKind::Normal => {
                if let (Some(v), Some(caller)) = (value, self.frames.last_mut()) {
                    caller.stack.push(v);
                }
            }
            FrameKind::Entry => return true,
            FrameKind::Finalizer => {}
        }
        false
    }

    /// Runs `method` to completion on top of the current stack (used for
    /// finalizers). Exceptions escaping the method are swallowed, as the
    /// JVM does for finalizers.
    ///
    /// Finalizers run on `step()` under both interpreters: the fast loop
    /// holds the pre-decoded program and caches for its whole run.
    fn run_nested(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        observer: &mut dyn HeapObserver,
    ) -> Result<(), VmError> {
        let base = self.frames.len();
        self.push_frame(method, args, None, None, 0)?;
        while self.frames.len() > base {
            match self.step(observer)? {
                StepResult::Continue => {}
                StepResult::ProgramExit => break,
            }
        }
        Ok(())
    }

    // --- exception handling ------------------------------------------------------

    /// What `Throw` throws: the object `h`, as an instance of its class.
    fn thrown(&self, h: Handle) -> Result<Thrown, VmError> {
        let class = self.heap.get(h).ok_or(VmError::InvalidHandle)?.class;
        Ok(Thrown {
            class,
            value: Some(h),
        })
    }

    fn throw(&mut self, thrown: Thrown, insn_pc: u32) -> Result<(), VmError> {
        let mut pc = insn_pc;
        while let Some(frame) = self.frames.last_mut() {
            let method = &self.program.methods[frame.method.index()];
            let handler = method.handlers.iter().find(|h| {
                pc >= h.start_pc
                    && pc < h.end_pc
                    && h.catch
                        .is_none_or(|c| self.program.is_subclass(thrown.class, c))
            });
            if let Some(h) = handler {
                frame.stack.clear();
                frame.stack.push(match thrown.value {
                    Some(obj) => Value::Ref(obj),
                    None => Value::Null,
                });
                frame.pc = h.handler_pc;
                return Ok(());
            }
            let kind = frame.kind;
            self.frames.pop();
            match kind {
                // Continue unwinding at the caller's faulting pc.
                FrameKind::Normal => {
                    if let Some(caller) = self.frames.last() {
                        pc = caller.pc.saturating_sub(1);
                    }
                }
                FrameKind::Entry => break,
                // The JVM ignores exceptions thrown by finalizers.
                FrameKind::Finalizer => return Ok(()),
            }
        }
        Err(VmError::UncaughtException {
            class: thrown.class,
            class_name: self.program.classes[thrown.class.index()].name.clone(),
        })
    }

    // --- operand helpers ----------------------------------------------------------------

    /// Counts one executed instruction against the step budget.
    #[inline]
    fn charge_step(&mut self) -> Result<(), VmError> {
        if self.config.max_steps.is_some_and(|max| self.steps >= max) {
            return Err(VmError::StepBudgetExhausted);
        }
        self.steps += 1;
        Ok(())
    }

    fn top(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    fn pop(&mut self) -> Result<Value, VmError> {
        let frame = self.top();
        frame.stack.pop().ok_or(VmError::StackUnderflow {
            method: frame.method,
            pc: frame.pc.saturating_sub(1),
        })
    }

    fn push(&mut self, v: Value) {
        self.top().stack.push(v);
    }

    fn pop_int(&mut self) -> Result<i64, VmError> {
        self.pop()?.as_int()
    }

    /// Field `slot` of object `h`; a slot past the object's end is invalid
    /// bytecode at `at`.
    fn field(&mut self, h: Handle, slot: u16, at: At) -> Result<&mut Value, VmError> {
        let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
        obj.data
            .get_mut(slot as usize)
            .ok_or_else(|| at.invalid(format!("field slot {slot} out of range")))
    }

    /// Element `idx` of array `h`, or `None` when out of bounds.
    fn element(&mut self, h: Handle, idx: i64) -> Result<Option<&mut Value>, VmError> {
        let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
        Ok(usize::try_from(idx).ok().and_then(|i| obj.data.get_mut(i)))
    }

    fn instance_of(&self, v: Value, class: ClassId) -> Result<bool, VmError> {
        Ok(match v.as_ref_nullable()? {
            Some(h) => {
                let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                self.program.is_subclass(obj.class, class)
            }
            None => false,
        })
    }

    /// The method a virtual call at `at` reaches on a receiver of `class`,
    /// checked to respond to `vslot` with `total` parameters. A checked
    /// target is remembered in the call site's cache, when given.
    fn virtual_target(
        &self,
        class: ClassId,
        vslot: VSlot,
        total: usize,
        at: At,
        vic: Option<&mut VtIc>,
    ) -> Result<MethodId, VmError> {
        if let Some(vt) = &vic {
            if vt.class_plus1 == class.index() as u32 + 1 {
                return Ok(vt.target);
            }
        }
        let target = self.program.dispatch(class, vslot).ok_or_else(|| {
            at.invalid(format!(
                "class {} does not respond to `{}`",
                self.program.classes[class.index()].name,
                self.program.selectors[vslot.index()]
            ))
        })?;
        let callee = &self.program.methods[target.index()];
        if callee.num_params as usize != total {
            return Err(at.invalid(format!(
                "virtual call arity mismatch: {} expects {} params, got {total}",
                self.program.method_name(target),
                callee.num_params
            )));
        }
        if let Some(vt) = vic {
            *vt = VtIc {
                class_plus1: class.index() as u32 + 1,
                target,
            };
        }
        Ok(target)
    }

    fn monitor_exit(&mut self, h: Handle) -> Result<(), VmError> {
        match self.monitors.get_mut(&h) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.monitors.remove(&h);
                }
                Ok(())
            }
            _ => Err(VmError::UnbalancedMonitor),
        }
    }

    // --- the reference interpreter ---------------------------------------------------------

    fn step(&mut self, observer: &mut dyn HeapObserver) -> Result<StepResult, VmError> {
        self.charge_step()?;

        let top = self.top();
        let at = At {
            method: top.method,
            pc: top.pc,
            ctx: top.ctx,
        };
        let code = &self.program.methods[at.method.index()].code;
        let Some(&insn) = code.get(at.pc as usize) else {
            return Err(at.invalid("fell off the end of the method".into()));
        };
        self.top().pc = at.pc + 1;
        self.dispatch[insn.class() as usize] += 1;

        macro_rules! throw_builtin {
            ($class:ident) => {{
                self.throw(Thrown::builtin(self.program.builtins.$class), at.pc)?;
                return Ok(StepResult::Continue);
            }};
        }

        macro_rules! pop_ref {
            () => {
                match self.pop()?.as_ref_nullable()? {
                    Some(h) => h,
                    None => throw_builtin!(null_pointer),
                }
            };
        }

        /// Delivers a use per access, whatever the observer prefers.
        macro_rules! note_use {
            ($h:expr, $kind:ident) => {{
                let kind = UseKind::$kind;
                self.record_use(observer, UseDelivery::PerAccess, $h, kind, at, None)
            }};
        }

        match insn {
            Insn::PushInt(i) => self.push(Value::Int(i)),
            Insn::PushNull => self.push(Value::Null),
            Insn::Dup => {
                let v = self.pop()?;
                self.push(v);
                self.push(v);
            }
            Insn::Pop => {
                self.pop()?;
            }
            Insn::Swap => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a);
                self.push(b);
            }
            Insn::Load(n) => {
                let v = self.top().locals[n as usize];
                self.push(v);
            }
            Insn::Store(n) => {
                let v = self.pop()?;
                self.top().locals[n as usize] = v;
            }
            Insn::Add | Insn::Sub | Insn::Mul => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                let r = match insn {
                    Insn::Add => a.wrapping_add(b),
                    Insn::Sub => a.wrapping_sub(b),
                    _ => a.wrapping_mul(b),
                };
                self.push(Value::Int(r));
            }
            Insn::Div | Insn::Rem => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                if b == 0 {
                    throw_builtin!(arithmetic);
                }
                let r = if matches!(insn, Insn::Div) {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                self.push(Value::Int(r));
            }
            Insn::Neg => {
                let a = self.pop_int()?;
                self.push(Value::Int(a.wrapping_neg()));
            }
            Insn::CmpEq | Insn::CmpNe => {
                let b = self.pop()?;
                let a = self.pop()?;
                let eq = values_equal(a, b)?;
                self.push(Value::Int((eq == matches!(insn, Insn::CmpEq)) as i64));
            }
            Insn::CmpLt | Insn::CmpLe | Insn::CmpGt | Insn::CmpGe => {
                let b = self.pop_int()?;
                let a = self.pop_int()?;
                let r = match insn {
                    Insn::CmpLt => a < b,
                    Insn::CmpLe => a <= b,
                    Insn::CmpGt => a > b,
                    _ => a >= b,
                };
                self.push(Value::Int(r as i64));
            }
            Insn::Jump(t) => self.top().pc = t,
            Insn::Branch(t) => {
                if self.pop_int()? != 0 {
                    self.top().pc = t;
                }
            }
            Insn::BranchIfNull(t) => {
                if self.pop()?.as_ref_nullable()?.is_none() {
                    self.top().pc = t;
                }
            }
            Insn::BranchIfNotNull(t) => {
                if self.pop()?.as_ref_nullable()?.is_some() {
                    self.top().pc = t;
                }
            }
            Insn::New(class) => {
                let slots = self.program.classes[class.index()].num_slots() as usize;
                self.allocate(observer, class, slots, false, at, None)?;
            }
            Insn::NewArray => {
                let len = self.pop_int()?;
                if len < 0 {
                    throw_builtin!(index_oob);
                }
                let array = self.program.builtins.array;
                self.allocate(observer, array, len as usize, true, at, None)?;
            }
            Insn::GetField(slot) => {
                let h = pop_ref!();
                note_use!(h, GetField);
                let v = *self.field(h, slot, at)?;
                self.push(v);
            }
            Insn::PutField(slot) => {
                let v = self.pop()?;
                let h = pop_ref!();
                note_use!(h, PutField);
                self.write_barrier(h, v);
                *self.field(h, slot, at)? = v;
            }
            Insn::ALoad => {
                let idx = self.pop_int()?;
                let h = pop_ref!();
                note_use!(h, HandleDeref);
                match self.element(h, idx)?.copied() {
                    Some(v) => self.push(v),
                    None => throw_builtin!(index_oob),
                }
            }
            Insn::AStore => {
                let v = self.pop()?;
                let idx = self.pop_int()?;
                let h = pop_ref!();
                note_use!(h, HandleDeref);
                self.write_barrier(h, v);
                match self.element(h, idx)? {
                    Some(cell) => *cell = v,
                    None => throw_builtin!(index_oob),
                }
            }
            Insn::ArrayLen => {
                let h = pop_ref!();
                note_use!(h, HandleDeref);
                let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                self.push(Value::Int(obj.data.len() as i64));
            }
            Insn::InstanceOf(class) => {
                let v = self.pop()?;
                let r = self.instance_of(v, class)?;
                self.push(Value::Int(r as i64));
            }
            Insn::GetStatic(s) => {
                let v = self.statics[s.index()];
                self.push(v);
            }
            Insn::PutStatic(s) => {
                let v = self.pop()?;
                self.statics[s.index()] = v;
            }
            Insn::Call(target) => {
                let callee = &self.program.methods[target.index()];
                let (nparams, is_instance) = (callee.num_params as usize, !callee.is_static);
                let args = pop_args(&mut self.top().stack, nparams, at)?;
                if is_instance {
                    let Some(recv) = args[0].as_ref_nullable()? else {
                        throw_builtin!(null_pointer);
                    };
                    note_use!(recv, Invoke);
                }
                self.push_frame(target, args, Some(at), None, 0)?;
            }
            Insn::CallVirtual { vslot, argc } => {
                let total = argc as usize + 1;
                let args = pop_args(&mut self.top().stack, total, at)?;
                let Some(recv) = args[0].as_ref_nullable()? else {
                    throw_builtin!(null_pointer);
                };
                note_use!(recv, Invoke);
                let class = self.heap.get(recv).ok_or(VmError::InvalidHandle)?.class;
                let target = self.virtual_target(class, vslot, total, at, None)?;
                self.push_frame(target, args, Some(at), None, 0)?;
            }
            Insn::Ret | Insn::RetVal => {
                let value = if matches!(insn, Insn::RetVal) {
                    Some(self.pop()?)
                } else {
                    None
                };
                let finished = self.frames.pop().expect("active frame");
                if self.ret(finished.kind, value) {
                    return Ok(StepResult::ProgramExit);
                }
            }
            Insn::MonitorEnter => {
                let h = pop_ref!();
                note_use!(h, MonitorEnter);
                *self.monitors.entry(h).or_insert(0) += 1;
            }
            Insn::MonitorExit => {
                let h = pop_ref!();
                note_use!(h, MonitorExit);
                self.monitor_exit(h)?;
            }
            Insn::Throw => {
                let h = pop_ref!();
                let thrown = self.thrown(h)?;
                self.throw(thrown, at.pc)?;
            }
            Insn::Print => {
                let v = self.pop_int()?;
                self.output.push(v);
            }
            Insn::Nop => {}
        }

        if self.frames.is_empty() {
            return Ok(StepResult::ProgramExit);
        }
        Ok(StepResult::Continue)
    }

    // --- the fast interpreter ---------------------------------------------
    //
    // Observably identical to `step()` (the differential harness pins this)
    // and sharing every helper with it; only dispatch differs. It executes
    // the pre-decoded op stream with the top frame held in an owned local,
    // spilling it back to `self.frames` only around allocation, calls, and
    // unwinding (so `roots()` always sees it). Inline caches make the chain
    // interning, callee-context and vtable work a compare on the hot path;
    // `UseDelivery` lets observers skip or coalesce the per-access use
    // traffic.

    /// Runs the fast loop, temporarily moving the pre-decoded program and
    /// inline caches out of `self` so the loop can borrow them alongside
    /// `&mut self`.
    fn run_fast(&mut self, observer: &mut dyn HeapObserver) -> Result<(), VmError> {
        let pre = std::mem::take(&mut self.pre);
        let mut ics = std::mem::take(&mut self.ics);
        let result = self.fast_loop(&pre, &mut ics, observer);
        self.pre = pre;
        self.ics = ics;
        result
    }

    /// The pre-decoded dispatch loop. Mirrors `step()` op for op — same
    /// step accounting, dispatch tallies, event points, error values, and
    /// fault-pc attribution (fused ops attribute each half to its original
    /// pc) — see the module docs of [`crate::predecode`].
    #[allow(clippy::too_many_lines)]
    fn fast_loop(
        &mut self,
        pre: &PredecodedProgram,
        ics: &mut IcState,
        observer: &mut dyn HeapObserver,
    ) -> Result<(), VmError> {
        let delivery = observer.use_delivery();
        let mut frame = match self.frames.pop() {
            Some(f) => f,
            None => return Ok(()),
        };
        let mut mid = frame.method;
        let mut ops: &[Op] = &pre.methods[mid.index()].ops;
        let mut pc = frame.pc as usize;
        let mut ctx = frame.ctx;

        /// Pops the next runnable frame into the loop's locals; program
        /// exit when none remain.
        macro_rules! reload {
            () => {{
                frame = match self.frames.pop() {
                    Some(f) => f,
                    None => return Ok(()),
                };
                mid = frame.method;
                ops = &pre.methods[mid.index()].ops;
                pc = frame.pc as usize;
                ctx = frame.ctx;
            }};
        }

        /// Spills the frame, resuming after this op, so that a helper finds
        /// it on `self.frames`; the arm `reload!`s afterwards.
        macro_rules! spill {
            () => {{
                frame.pc = pc as u32;
                self.frames.push(frame);
            }};
        }

        /// Pops the operand stack; `StackUnderflow` at the given fault pc
        /// (the reference's `pop()` reports `frame.pc - 1`).
        macro_rules! fpop {
            ($fault_pc:expr) => {
                match frame.stack.pop() {
                    Some(v) => v,
                    None => {
                        return Err(VmError::StackUnderflow {
                            method: mid,
                            pc: $fault_pc,
                        })
                    }
                }
            };
        }

        macro_rules! fpop_int {
            ($fault_pc:expr) => {
                fpop!($fault_pc).as_int()?
            };
        }

        /// Spills the frame (with the pc the reference would hold: one past
        /// the faulting pc) and runs the shared unwinder, then resumes.
        macro_rules! fast_throw {
            ($thrown:expr, $fault_pc:expr) => {{
                let fault_pc = $fault_pc;
                frame.pc = fault_pc + 1;
                self.frames.push(frame);
                self.throw($thrown, fault_pc)?;
                reload!();
                continue;
            }};
        }

        macro_rules! throw_builtin {
            ($class:ident, $fault_pc:expr) => {
                fast_throw!(Thrown::builtin(self.program.builtins.$class), $fault_pc)
            };
        }

        /// Pops a reference; a null throws `NullPointerException`.
        macro_rules! fpop_ref {
            ($fault_pc:expr) => {
                match fpop!($fault_pc).as_ref_nullable()? {
                    Some(h) => h,
                    None => throw_builtin!(null_pointer, $fault_pc),
                }
            };
        }

        /// Records a use at `$at` through the site's chain cache.
        macro_rules! note_use {
            ($h:expr, $kind:ident, $at:expr, $ic:expr) => {{
                let ic = Some(&mut ics.chains[$ic as usize]);
                self.record_use(observer, delivery, $h, UseKind::$kind, $at, ic)
            }};
        }

        /// Pushes the callee frame of a call at `$at` (its context through
        /// the call site's cache) and continues in it.
        macro_rules! call {
            ($target:expr, $args:expr, $at:expr, $cic:expr) => {{
                let target = $target;
                spill!();
                let cic = Some(&mut ics.ctxs[$cic as usize]);
                let stack = pre.methods[target.index()].stack_capacity;
                self.push_frame(target, $args, Some($at), cic, stack)?;
                reload!();
            }};
        }

        /// The inter-step bookkeeping for the second half of a fused pair:
        /// budget check, step count, and dispatch tally, exactly as the
        /// reference performs at the top of the second `step()`.
        macro_rules! fuse_second {
            ($class:expr) => {{
                self.charge_step()?;
                self.dispatch[$class as usize] += 1;
                pc += 1;
            }};
        }

        /// A fused compare-and-branch: the comparison pops at the first pc,
        /// the (virtual) branch consumes the comparison result directly.
        macro_rules! cmp_branch {
            ($t:expr, $op:tt, $fault_pc:expr) => {{
                let b = fpop_int!($fault_pc);
                let a = fpop_int!($fault_pc);
                let cond = a $op b;
                fuse_second!(OpcodeClass::Control);
                if cond {
                    pc = $t as usize;
                }
            }};
        }

        loop {
            self.charge_step()?;
            let insn_pc = pc as u32;
            let at = At {
                method: mid,
                pc: insn_pc,
                ctx,
            };
            let Some(&op) = ops.get(pc) else {
                return Err(at.invalid("fell off the end of the method".into()));
            };
            self.dispatch[op.class_first() as usize] += 1;
            pc += 1;

            match op {
                Op::PushInt(i) => frame.stack.push(Value::Int(i)),
                Op::PushNull => frame.stack.push(Value::Null),
                Op::Dup => {
                    let v = fpop!(insn_pc);
                    frame.stack.push(v);
                    frame.stack.push(v);
                }
                Op::Pop => {
                    fpop!(insn_pc);
                }
                Op::Swap => {
                    let a = fpop!(insn_pc);
                    let b = fpop!(insn_pc);
                    frame.stack.push(a);
                    frame.stack.push(b);
                }
                Op::Load(n) => {
                    let v = frame.locals[n as usize];
                    frame.stack.push(v);
                }
                Op::Store(n) => {
                    let v = fpop!(insn_pc);
                    frame.locals[n as usize] = v;
                }
                Op::Add => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    frame.stack.push(Value::Int(a.wrapping_add(b)));
                }
                Op::Sub => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    frame.stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Op::Mul => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    frame.stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Op::Div | Op::Rem => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    if b == 0 {
                        throw_builtin!(arithmetic, insn_pc);
                    }
                    let r = if matches!(op, Op::Div) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    frame.stack.push(Value::Int(r));
                }
                Op::Neg => {
                    let a = fpop_int!(insn_pc);
                    frame.stack.push(Value::Int(a.wrapping_neg()));
                }
                Op::CmpEq | Op::CmpNe => {
                    let b = fpop!(insn_pc);
                    let a = fpop!(insn_pc);
                    let eq = values_equal(a, b)?;
                    frame
                        .stack
                        .push(Value::Int((eq == matches!(op, Op::CmpEq)) as i64));
                }
                Op::CmpLt | Op::CmpLe | Op::CmpGt | Op::CmpGe => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    let r = match op {
                        Op::CmpLt => a < b,
                        Op::CmpLe => a <= b,
                        Op::CmpGt => a > b,
                        _ => a >= b,
                    };
                    frame.stack.push(Value::Int(r as i64));
                }
                Op::Jump(t) => pc = t as usize,
                Op::Branch(t) => {
                    if fpop_int!(insn_pc) != 0 {
                        pc = t as usize;
                    }
                }
                Op::BranchIfNull(t) => {
                    if fpop!(insn_pc).as_ref_nullable()?.is_none() {
                        pc = t as usize;
                    }
                }
                Op::BranchIfNotNull(t) => {
                    if fpop!(insn_pc).as_ref_nullable()?.is_some() {
                        pc = t as usize;
                    }
                }
                Op::New { class, slots, ic } => {
                    spill!();
                    let ic = Some(&mut ics.chains[ic as usize]);
                    self.allocate(observer, class, slots as usize, false, at, ic)?;
                    reload!();
                }
                Op::NewArray { ic } => {
                    let len = fpop_int!(insn_pc);
                    if len < 0 {
                        throw_builtin!(index_oob, insn_pc);
                    }
                    spill!();
                    let array = self.program.builtins.array;
                    let ic = Some(&mut ics.chains[ic as usize]);
                    self.allocate(observer, array, len as usize, true, at, ic)?;
                    reload!();
                }
                Op::GetField { slot, ic } => {
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, GetField, at, ic);
                    frame.stack.push(*self.field(h, slot, at)?);
                }
                Op::PutField { slot, ic } => {
                    let v = fpop!(insn_pc);
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, PutField, at, ic);
                    self.write_barrier(h, v);
                    *self.field(h, slot, at)? = v;
                }
                Op::ALoad { ic } => {
                    let idx = fpop_int!(insn_pc);
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, HandleDeref, at, ic);
                    match self.element(h, idx)?.copied() {
                        Some(v) => frame.stack.push(v),
                        None => throw_builtin!(index_oob, insn_pc),
                    }
                }
                Op::AStore { ic } => {
                    let v = fpop!(insn_pc);
                    let idx = fpop_int!(insn_pc);
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, HandleDeref, at, ic);
                    self.write_barrier(h, v);
                    match self.element(h, idx)? {
                        Some(cell) => *cell = v,
                        None => throw_builtin!(index_oob, insn_pc),
                    }
                }
                Op::ArrayLen { ic } => {
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, HandleDeref, at, ic);
                    let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                    frame.stack.push(Value::Int(obj.data.len() as i64));
                }
                Op::InstanceOf(class) => {
                    let r = self.instance_of(fpop!(insn_pc), class)?;
                    frame.stack.push(Value::Int(r as i64));
                }
                Op::GetStatic(s) => {
                    let v = self.statics[s.index()];
                    frame.stack.push(v);
                }
                Op::PutStatic(s) => {
                    let v = fpop!(insn_pc);
                    self.statics[s.index()] = v;
                }
                Op::Call {
                    target,
                    nparams,
                    is_instance,
                    ic,
                    cic,
                } => {
                    let args = pop_args(&mut frame.stack, nparams as usize, at)?;
                    if is_instance {
                        let Some(recv) = args[0].as_ref_nullable()? else {
                            throw_builtin!(null_pointer, insn_pc);
                        };
                        note_use!(recv, Invoke, at, ic);
                    }
                    call!(target, args, at, cic);
                }
                Op::CallVirtual {
                    vslot,
                    argc,
                    ic,
                    cic,
                    vic,
                } => {
                    let total = argc as usize + 1;
                    let args = pop_args(&mut frame.stack, total, at)?;
                    let Some(recv) = args[0].as_ref_nullable()? else {
                        throw_builtin!(null_pointer, insn_pc);
                    };
                    note_use!(recv, Invoke, at, ic);
                    let class = self.heap.get(recv).ok_or(VmError::InvalidHandle)?.class;
                    let vic = Some(&mut ics.vtables[vic as usize]);
                    let target = self.virtual_target(class, vslot, total, at, vic)?;
                    call!(target, args, at, cic);
                }
                Op::Ret | Op::RetVal => {
                    let value = if matches!(op, Op::RetVal) {
                        Some(fpop!(insn_pc))
                    } else {
                        None
                    };
                    // Only entry and normal frames reach this loop: see
                    // `run_nested`.
                    if self.ret(frame.kind, value) {
                        return Ok(());
                    }
                    reload!();
                }
                Op::MonitorEnter { ic } => {
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, MonitorEnter, at, ic);
                    *self.monitors.entry(h).or_insert(0) += 1;
                }
                Op::MonitorExit { ic } => {
                    let h = fpop_ref!(insn_pc);
                    note_use!(h, MonitorExit, at, ic);
                    self.monitor_exit(h)?;
                }
                Op::Throw => {
                    let h = fpop_ref!(insn_pc);
                    let thrown = self.thrown(h)?;
                    fast_throw!(thrown, insn_pc);
                }
                Op::Print => {
                    let v = fpop!(insn_pc).as_int()?;
                    self.output.push(v);
                }
                Op::Nop => {}

                // --- superinstructions: each half keeps its original pc ---
                Op::LoadGetField { local, slot, ic } => {
                    let recv = frame.locals[local as usize];
                    fuse_second!(OpcodeClass::Field);
                    let at = At {
                        pc: insn_pc + 1,
                        ..at
                    };
                    let Some(h) = recv.as_ref_nullable()? else {
                        throw_builtin!(null_pointer, at.pc);
                    };
                    note_use!(h, GetField, at, ic);
                    frame.stack.push(*self.field(h, slot, at)?);
                }
                Op::LoadLoad { a, b } => {
                    let va = frame.locals[a as usize];
                    frame.stack.push(va);
                    fuse_second!(OpcodeClass::Stack);
                    let vb = frame.locals[b as usize];
                    frame.stack.push(vb);
                }
                Op::LoadPushInt { local, value } => {
                    let v = frame.locals[local as usize];
                    frame.stack.push(v);
                    fuse_second!(OpcodeClass::Stack);
                    frame.stack.push(Value::Int(value));
                }
                Op::LoadStore { from, to } => {
                    let v = frame.locals[from as usize];
                    fuse_second!(OpcodeClass::Stack);
                    frame.locals[to as usize] = v;
                }
                Op::PushIntAdd { value } => {
                    fuse_second!(OpcodeClass::Arith);
                    let a = fpop!(insn_pc + 1).as_int()?;
                    frame.stack.push(Value::Int(a.wrapping_add(value)));
                }
                Op::AddStore { local } => {
                    let b = fpop_int!(insn_pc);
                    let a = fpop_int!(insn_pc);
                    let r = a.wrapping_add(b);
                    fuse_second!(OpcodeClass::Stack);
                    frame.locals[local as usize] = Value::Int(r);
                }
                Op::CmpLtBranch(t) => cmp_branch!(t, <, insn_pc),
                Op::CmpLeBranch(t) => cmp_branch!(t, <=, insn_pc),
                Op::CmpGtBranch(t) => cmp_branch!(t, >, insn_pc),
                Op::CmpGeBranch(t) => cmp_branch!(t, >=, insn_pc),
            }
        }
    }

    fn write_barrier(&mut self, target: Handle, value: Value) {
        if !self.config.generational {
            return;
        }
        if let Value::Ref(young) = value {
            let target_old = self.heap.get(target).map(|o| o.old).unwrap_or(false);
            let value_young = self.heap.get(young).map(|o| !o.old).unwrap_or(false);
            if target_old && value_young {
                self.heap.remembered.push(target);
            }
        }
    }
}

/// `CmpEq` equality: ints by value, references by identity, and null equal
/// only to null. An int compared with a reference is a type error.
fn values_equal(a: Value, b: Value) -> Result<bool, VmError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x == y),
        (Value::Ref(x), Value::Ref(y)) => Ok(x == y),
        (Value::Null, Value::Null) => Ok(true),
        (Value::Ref(_), Value::Null) | (Value::Null, Value::Ref(_)) => Ok(false),
        _ => Err(VmError::TypeMismatch {
            expected: "comparable pair",
            found: "mixed int/reference",
        }),
    }
}

/// Pops the `n` arguments of a call at `at` off `stack`, first argument
/// first.
fn pop_args(stack: &mut Vec<Value>, n: usize, at: At) -> Result<Vec<Value>, VmError> {
    match stack.len().checked_sub(n) {
        Some(base) => Ok(stack.split_off(base)),
        None => Err(VmError::StackUnderflow {
            method: at.method,
            pc: at.pc,
        }),
    }
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("steps", &self.steps)
            .field("heap", &self.heap)
            .field("frames", &self.frames.len())
            .finish()
    }
}
