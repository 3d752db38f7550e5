//! The bytecode interpreter, GC policy, and deep-GC orchestration.

use std::collections::HashMap;

use crate::error::VmError;
use crate::gc::{collect_full, collect_full_traced, collect_minor, CollectOutcome};
use crate::heap::{Handle, Heap, HeapStats};
use crate::ids::{ChainId, ClassId, MethodId, ObjectId, SiteId};
use crate::insn::{Insn, OpcodeClass};
use crate::metrics::VmMetrics;
use crate::observer::{
    AllocEvent, FreeEvent, GcEvent, HeapObserver, NullObserver, RetainDelivery, RetainEvent,
    UseDelivery, UseEvent, UseKind,
};
use crate::predecode::{predecode, ChainIc, CtxIc, CtxTable, IcState, Op, PredecodedProgram, VtIc};
use crate::program::Program;
use crate::retain::{RetainConfig, RetainSampler, RootRef};
use crate::site::SiteTable;
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
    /// Caller context: interned sites of the call chain, innermost first,
    /// already truncated to `site_depth - 1`. Reference-interpreter frames
    /// (and finalizer-lineage frames) carry it materialized; fast frames
    /// leave it empty and use `ctx` instead.
    context: Vec<SiteId>,
    /// The same caller context as an id into the VM's private
    /// [`CtxTable`]; only meaningful for frames the fast loop pushed.
    ctx: u32,
    kind: FrameKind,
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
    /// Interned caller contexts for fast frames.
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
            context: Vec::new(),
            ctx: 0,
            kind: FrameKind::Entry,
        });

        match self.config.interpreter {
            InterpreterKind::Fast => self.run_fast(observer)?,
            InterpreterKind::Reference => {
                while let StepResult::Continue = self.step(observer)? {}
            }
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

    fn event_chain(&mut self, insn_pc: u32) -> crate::ids::ChainId {
        let frame = self.frames.last().expect("active frame");
        let site = self.sites.intern_site(frame.method, insn_pc);
        let mut chain = Vec::with_capacity(1 + frame.context.len());
        chain.push(site);
        chain.extend_from_slice(&frame.context);
        chain.truncate(self.config.site_depth.max(1));
        self.sites.intern_chain(&chain)
    }

    fn record_use(
        &mut self,
        observer: &mut dyn HeapObserver,
        handle: Handle,
        kind: UseKind,
        insn_pc: u32,
    ) {
        let Some(obj) = self.heap.get(handle) else {
            return;
        };
        if obj.pinned {
            return;
        }
        let object = obj.id;
        let site = self.event_chain(insn_pc);
        observer.on_use(UseEvent {
            object,
            kind,
            time: self.heap.clock(),
            site,
        });
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
        let sampling = census
            && observer.retain_delivery() == RetainDelivery::Sample
            && self.config.retain.is_some_and(|r| r.threshold > 0);
        let on_free = &mut |o: &crate::heap::Object| observer.on_free(FreeEvent::new(o.id, time));
        let outcome = if sampling {
            let retain = self.config.retain.expect("sampling checked");
            let mut sampler = RetainSampler::new(retain, self.retain_state, self.root_refs());
            let out =
                collect_full_traced(&mut self.heap, self.program, &roots, on_free, &mut sampler);
            self.retain_state = sampler.state();
            out
        } else {
            collect_full(&mut self.heap, self.program, &roots, on_free)
        };
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

    /// Allocates, forcing a collection (and then failing over to an
    /// `OutOfMemoryError` thrown into the program) if the limit would be
    /// exceeded.
    fn allocate(
        &mut self,
        class: ClassId,
        slots: usize,
        is_array: bool,
        insn_pc: u32,
        observer: &mut dyn HeapObserver,
    ) -> Result<Result<Handle, Thrown>, VmError> {
        if self.heap.would_exceed_limit(slots) {
            self.full_gc(observer, false);
            if self.heap.would_exceed_limit(slots) {
                return Ok(Err(Thrown {
                    class: self.program.builtins.out_of_memory,
                    value: None,
                }));
            }
        }
        let pinned = self.program.classes[class.index()].pinned;
        let handle = self.heap.alloc(class, slots, is_array, pinned);
        if !pinned {
            let object = self.heap.get(handle).expect("fresh allocation").id;
            let site = self.event_chain(insn_pc);
            observer.on_alloc(AllocEvent {
                object,
                class,
                size: self.heap.get(handle).expect("fresh allocation").size_bytes,
                time: self.heap.clock(),
                site,
            });
        }
        Ok(Ok(handle))
    }

    // --- frames ---------------------------------------------------------------

    fn push_frame(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        kind: FrameKind,
        caller_insn_pc: u32,
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
        let context = match (kind, self.frames.last()) {
            (FrameKind::Normal, Some(caller)) => {
                let site = self.sites.intern_site(caller.method, caller_insn_pc);
                let mut ctx = Vec::with_capacity(1 + caller.context.len());
                ctx.push(site);
                ctx.extend_from_slice(&caller.context);
                ctx.truncate(self.config.site_depth.saturating_sub(1));
                ctx
            }
            _ => Vec::new(),
        };
        self.frames.push(Frame {
            method,
            pc: 0,
            locals,
            stack: Vec::new(),
            context,
            ctx: 0,
            kind,
        });
        Ok(())
    }

    /// Runs `method` to completion on top of the current stack (used for
    /// finalizers). Exceptions escaping the method are swallowed, as the
    /// JVM does for finalizers.
    fn run_nested(
        &mut self,
        method: MethodId,
        args: Vec<Value>,
        observer: &mut dyn HeapObserver,
    ) -> Result<(), VmError> {
        let base = self.frames.len();
        self.push_frame(method, args, FrameKind::Finalizer, 0)?;
        while self.frames.len() > base {
            match self.step(observer)? {
                StepResult::Continue => {}
                StepResult::ProgramExit => break,
            }
        }
        Ok(())
    }

    // --- exception handling ------------------------------------------------------

    fn throw(&mut self, thrown: Thrown, insn_pc: u32) -> Result<(), VmError> {
        let mut pc = insn_pc;
        loop {
            let frame = match self.frames.last_mut() {
                Some(f) => f,
                None => {
                    return Err(VmError::UncaughtException {
                        class: thrown.class,
                        class_name: self.program.classes[thrown.class.index()].name.clone(),
                    })
                }
            };
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
            match kind {
                FrameKind::Normal => {
                    // Continue unwinding at the caller's faulting pc.
                    self.frames.pop();
                    if let Some(caller) = self.frames.last() {
                        pc = caller.pc.saturating_sub(1);
                    }
                }
                FrameKind::Entry => {
                    self.frames.pop();
                    return Err(VmError::UncaughtException {
                        class: thrown.class,
                        class_name: self.program.classes[thrown.class.index()].name.clone(),
                    });
                }
                FrameKind::Finalizer => {
                    // The JVM ignores exceptions thrown by finalizers.
                    self.frames.pop();
                    return Ok(());
                }
            }
        }
    }

    // --- stack helpers ----------------------------------------------------------------

    fn pop(&mut self) -> Result<Value, VmError> {
        let frame = self.frames.last_mut().expect("active frame");
        frame.stack.pop().ok_or(VmError::StackUnderflow {
            method: frame.method,
            pc: frame.pc.saturating_sub(1),
        })
    }

    fn push(&mut self, v: Value) {
        self.frames.last_mut().expect("active frame").stack.push(v);
    }

    fn pop_int(&mut self) -> Result<i64, VmError> {
        self.pop()?.as_int()
    }

    // --- the interpreter proper ----------------------------------------------------------

    fn step(&mut self, observer: &mut dyn HeapObserver) -> Result<StepResult, VmError> {
        if let Some(max) = self.config.max_steps {
            if self.steps >= max {
                return Err(VmError::StepBudgetExhausted);
            }
        }
        self.steps += 1;

        let (method_id, insn_pc) = {
            let frame = self.frames.last().expect("active frame");
            (frame.method, frame.pc)
        };
        let method = &self.program.methods[method_id.index()];
        let insn = match method.code.get(insn_pc as usize) {
            Some(i) => *i,
            None => {
                return Err(VmError::InvalidBytecode {
                    method: method_id,
                    pc: insn_pc,
                    reason: "fell off the end of the method".into(),
                })
            }
        };
        self.frames.last_mut().expect("active frame").pc = insn_pc + 1;
        self.dispatch[insn.class() as usize] += 1;

        macro_rules! throw_builtin {
            ($class:expr) => {{
                let class = $class;
                self.throw(Thrown { class, value: None }, insn_pc)?;
                return Ok(StepResult::Continue);
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
                let v = self.frames.last().expect("active frame").locals[n as usize];
                self.push(v);
            }
            Insn::Store(n) => {
                let v = self.pop()?;
                self.frames.last_mut().expect("active frame").locals[n as usize] = v;
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
                    throw_builtin!(self.program.builtins.arithmetic);
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
                let eq = match (a, b) {
                    (Value::Int(x), Value::Int(y)) => x == y,
                    (Value::Ref(x), Value::Ref(y)) => x == y,
                    (Value::Null, Value::Null) => true,
                    (Value::Ref(_), Value::Null) | (Value::Null, Value::Ref(_)) => false,
                    _ => {
                        return Err(VmError::TypeMismatch {
                            expected: "comparable pair",
                            found: "mixed int/reference",
                        })
                    }
                };
                let want = matches!(insn, Insn::CmpEq);
                self.push(Value::Int((eq == want) as i64));
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
            Insn::Jump(t) => self.frames.last_mut().expect("active frame").pc = t,
            Insn::Branch(t) => {
                if self.pop_int()? != 0 {
                    self.frames.last_mut().expect("active frame").pc = t;
                }
            }
            Insn::BranchIfNull(t) => {
                if self.pop()?.as_ref_nullable()?.is_none() {
                    self.frames.last_mut().expect("active frame").pc = t;
                }
            }
            Insn::BranchIfNotNull(t) => {
                if self.pop()?.as_ref_nullable()?.is_some() {
                    self.frames.last_mut().expect("active frame").pc = t;
                }
            }
            Insn::New(class) => {
                let slots = self.program.classes[class.index()].num_slots() as usize;
                match self.allocate(class, slots, false, insn_pc, observer)? {
                    Ok(h) => {
                        self.push(Value::Ref(h));
                        self.post_alloc_gc(observer)?;
                    }
                    Err(t) => {
                        self.throw(t, insn_pc)?;
                    }
                }
            }
            Insn::NewArray => {
                let len = self.pop_int()?;
                if len < 0 {
                    throw_builtin!(self.program.builtins.index_oob);
                }
                match self.allocate(
                    self.program.builtins.array,
                    len as usize,
                    true,
                    insn_pc,
                    observer,
                )? {
                    Ok(h) => {
                        self.push(Value::Ref(h));
                        self.post_alloc_gc(observer)?;
                    }
                    Err(t) => {
                        self.throw(t, insn_pc)?;
                    }
                }
            }
            Insn::GetField(slot) => {
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::GetField, insn_pc);
                let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                let v = *obj.data.get(slot as usize).ok_or(VmError::InvalidBytecode {
                    method: method_id,
                    pc: insn_pc,
                    reason: format!("field slot {slot} out of range"),
                })?;
                self.push(v);
            }
            Insn::PutField(slot) => {
                let v = self.pop()?;
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::PutField, insn_pc);
                self.write_barrier(h, v);
                let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
                let cell = obj.data.get_mut(slot as usize).ok_or(VmError::InvalidBytecode {
                    method: method_id,
                    pc: insn_pc,
                    reason: format!("field slot {slot} out of range"),
                })?;
                *cell = v;
            }
            Insn::ALoad => {
                let idx = self.pop_int()?;
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::HandleDeref, insn_pc);
                let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                if idx < 0 || idx as usize >= obj.data.len() {
                    throw_builtin!(self.program.builtins.index_oob);
                }
                let v = obj.data[idx as usize];
                self.push(v);
            }
            Insn::AStore => {
                let v = self.pop()?;
                let idx = self.pop_int()?;
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::HandleDeref, insn_pc);
                self.write_barrier(h, v);
                let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
                if idx < 0 || idx as usize >= obj.data.len() {
                    throw_builtin!(self.program.builtins.index_oob);
                }
                obj.data[idx as usize] = v;
            }
            Insn::ArrayLen => {
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::HandleDeref, insn_pc);
                let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                self.push(Value::Int(obj.data.len() as i64));
            }
            Insn::InstanceOf(class) => {
                let v = self.pop()?;
                let r = match v.as_ref_nullable()? {
                    Some(h) => {
                        let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                        self.program.is_subclass(obj.class, class)
                    }
                    None => false,
                };
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
                let nparams = callee.num_params as usize;
                let is_instance = !callee.is_static;
                let frame = self.frames.last_mut().expect("active frame");
                if frame.stack.len() < nparams {
                    return Err(VmError::StackUnderflow {
                        method: method_id,
                        pc: insn_pc,
                    });
                }
                let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - nparams);
                if is_instance {
                    match args[0].as_ref_nullable()? {
                        Some(recv) => self.record_use(observer, recv, UseKind::Invoke, insn_pc),
                        None => throw_builtin!(self.program.builtins.null_pointer),
                    }
                }
                self.push_frame(target, args, FrameKind::Normal, insn_pc)?;
            }
            Insn::CallVirtual { vslot, argc } => {
                let total = argc as usize + 1;
                let frame = self.frames.last_mut().expect("active frame");
                if frame.stack.len() < total {
                    return Err(VmError::StackUnderflow {
                        method: method_id,
                        pc: insn_pc,
                    });
                }
                let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - total);
                let Some(recv) = args[0].as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, recv, UseKind::Invoke, insn_pc);
                let class = self.heap.get(recv).ok_or(VmError::InvalidHandle)?.class;
                let target = self.program.dispatch(class, vslot).ok_or_else(|| {
                    VmError::InvalidBytecode {
                        method: method_id,
                        pc: insn_pc,
                        reason: format!(
                            "class {} does not respond to `{}`",
                            self.program.classes[class.index()].name,
                            self.program.selectors[vslot.index()]
                        ),
                    }
                })?;
                let callee = &self.program.methods[target.index()];
                if callee.num_params as usize != total {
                    return Err(VmError::InvalidBytecode {
                        method: method_id,
                        pc: insn_pc,
                        reason: format!(
                            "virtual call arity mismatch: {} expects {} params, got {total}",
                            self.program.method_name(target),
                            callee.num_params
                        ),
                    });
                }
                self.push_frame(target, args, FrameKind::Normal, insn_pc)?;
            }
            Insn::Ret | Insn::RetVal => {
                let value = if matches!(insn, Insn::RetVal) {
                    Some(self.pop()?)
                } else {
                    None
                };
                let finished = self.frames.pop().expect("active frame");
                match finished.kind {
                    FrameKind::Normal => {
                        if let (Some(v), Some(caller)) = (value, self.frames.last_mut()) {
                            caller.stack.push(v);
                        }
                    }
                    FrameKind::Entry => return Ok(StepResult::ProgramExit),
                    FrameKind::Finalizer => { /* return value discarded */ }
                }
            }
            Insn::MonitorEnter => {
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::MonitorEnter, insn_pc);
                *self.monitors.entry(h).or_insert(0) += 1;
            }
            Insn::MonitorExit => {
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                self.record_use(observer, h, UseKind::MonitorExit, insn_pc);
                match self.monitors.get_mut(&h) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        if *n == 0 {
                            self.monitors.remove(&h);
                        }
                    }
                    _ => return Err(VmError::UnbalancedMonitor),
                }
            }
            Insn::Throw => {
                let Some(h) = self.pop()?.as_ref_nullable()? else {
                    throw_builtin!(self.program.builtins.null_pointer);
                };
                let class = self.heap.get(h).ok_or(VmError::InvalidHandle)?.class;
                self.throw(
                    Thrown {
                        class,
                        value: Some(h),
                    },
                    insn_pc,
                )?;
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
    // Observably identical to `step()` (the differential harness pins this),
    // but structured for speed: it executes the pre-decoded op stream with
    // the top frame held in an owned local, spilling it back to
    // `self.frames` only around GC, calls, and unwinding (so `roots()`
    // always sees it). Inline caches make the chain-interning and vtable
    // work a compare on the hot path; `UseDelivery` lets observers skip or
    // coalesce the per-access use traffic.

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

    /// The event chain for an allocation or use site, via its inline cache.
    ///
    /// On a miss this interns exactly what the reference interpreter's
    /// `event_chain` would — at the same logical point in the run — so the
    /// site table's insertion order (and therefore all log output) is
    /// identical across interpreters.
    fn fast_chain(
        &mut self,
        ics: &mut IcState,
        method: MethodId,
        insn_pc: u32,
        ctx: u32,
        ic: u32,
    ) -> ChainId {
        let slot = &mut ics.chains[ic as usize];
        if slot.ctx_plus1 == ctx + 1 {
            return slot.chain;
        }
        let site = self.sites.intern_site(method, insn_pc);
        let parent = self.ctxs.get(ctx);
        let mut chain = Vec::with_capacity(1 + parent.len());
        chain.push(site);
        chain.extend_from_slice(parent);
        chain.truncate(self.config.site_depth.max(1));
        let id = self.sites.intern_chain(&chain);
        *slot = ChainIc {
            ctx_plus1: ctx + 1,
            chain: id,
        };
        id
    }

    /// The fast-path `record_use`: honors the observer's [`UseDelivery`].
    #[allow(clippy::too_many_arguments)]
    fn fast_use(
        &mut self,
        ics: &mut IcState,
        observer: &mut dyn HeapObserver,
        delivery: UseDelivery,
        handle: Handle,
        kind: UseKind,
        method: MethodId,
        insn_pc: u32,
        ctx: u32,
        ic: u32,
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
        let site = self.fast_chain(ics, method, insn_pc, ctx, ic);
        let time = self.heap.clock();
        match delivery {
            UseDelivery::PerAccess => observer.on_use(UseEvent {
                object,
                kind,
                time,
                site,
            }),
            UseDelivery::Coalesced => self.pending.note(handle, object, kind, time, site),
            UseDelivery::Skip => unreachable!("handled above"),
        }
    }

    /// The fast-path `allocate`: same GC-then-OOM policy and events as the
    /// reference, with the chain via the site's inline cache. The current
    /// frame must already be spilled (the forced collection needs roots).
    #[allow(clippy::too_many_arguments)]
    fn allocate_fast(
        &mut self,
        ics: &mut IcState,
        observer: &mut dyn HeapObserver,
        class: ClassId,
        slots: usize,
        is_array: bool,
        method: MethodId,
        insn_pc: u32,
        ctx: u32,
        ic: u32,
    ) -> Result<Handle, Thrown> {
        if self.heap.would_exceed_limit(slots) {
            self.full_gc(observer, false);
            if self.heap.would_exceed_limit(slots) {
                return Err(Thrown {
                    class: self.program.builtins.out_of_memory,
                    value: None,
                });
            }
        }
        let pinned = self.program.classes[class.index()].pinned;
        let handle = self.heap.alloc(class, slots, is_array, pinned);
        if !pinned {
            let obj = self.heap.get(handle).expect("fresh allocation");
            let object = obj.id;
            let size = obj.size_bytes;
            let site = self.fast_chain(ics, method, insn_pc, ctx, ic);
            observer.on_alloc(AllocEvent {
                object,
                class,
                size,
                time: self.heap.clock(),
                site,
            });
        }
        Ok(handle)
    }

    /// The fast-path `push_frame` for `FrameKind::Normal` calls: the callee
    /// context is a `u32` from the call site's context cache instead of a
    /// materialized `Vec`. A miss interns the caller site exactly as the
    /// reference `push_frame` would.
    #[allow(clippy::too_many_arguments)]
    fn push_frame_fast(
        &mut self,
        pre: &PredecodedProgram,
        ics: &mut IcState,
        method: MethodId,
        args: Vec<Value>,
        caller_method: MethodId,
        caller_insn_pc: u32,
        caller_ctx: u32,
        cic: u32,
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
        let slot = &mut ics.ctxs[cic as usize];
        let ctx = if slot.caller_plus1 == caller_ctx + 1 {
            slot.callee
        } else {
            let site = self.sites.intern_site(caller_method, caller_insn_pc);
            let parent = self.ctxs.get(caller_ctx);
            let mut ctx_vec = Vec::with_capacity(1 + parent.len());
            ctx_vec.push(site);
            ctx_vec.extend_from_slice(parent);
            ctx_vec.truncate(self.config.site_depth.saturating_sub(1));
            let id = self.ctxs.intern(ctx_vec);
            *slot = CtxIc {
                caller_plus1: caller_ctx + 1,
                callee: id,
            };
            id
        };
        self.frames.push(Frame {
            method,
            pc: 0,
            locals,
            stack: Vec::with_capacity(pre.methods[method.index()].stack_capacity),
            context: Vec::new(),
            ctx,
            kind: FrameKind::Normal,
        });
        Ok(())
    }

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

        /// The inter-step bookkeeping for the second half of a fused pair:
        /// budget check, step count, and dispatch tally, exactly as the
        /// reference performs at the top of the second `step()`.
        macro_rules! fuse_second {
            ($class:expr) => {{
                if let Some(max) = self.config.max_steps {
                    if self.steps >= max {
                        return Err(VmError::StepBudgetExhausted);
                    }
                }
                self.steps += 1;
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
            if let Some(max) = self.config.max_steps {
                if self.steps >= max {
                    return Err(VmError::StepBudgetExhausted);
                }
            }
            self.steps += 1;
            let op = match ops.get(pc) {
                Some(op) => *op,
                None => {
                    return Err(VmError::InvalidBytecode {
                        method: mid,
                        pc: pc as u32,
                        reason: "fell off the end of the method".into(),
                    })
                }
            };
            self.dispatch[op.class_first() as usize] += 1;
            let insn_pc = pc as u32;
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
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.arithmetic,
                                value: None,
                            },
                            insn_pc
                        );
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
                    let eq = match (a, b) {
                        (Value::Int(x), Value::Int(y)) => x == y,
                        (Value::Ref(x), Value::Ref(y)) => x == y,
                        (Value::Null, Value::Null) => true,
                        (Value::Ref(_), Value::Null) | (Value::Null, Value::Ref(_)) => false,
                        _ => {
                            return Err(VmError::TypeMismatch {
                                expected: "comparable pair",
                                found: "mixed int/reference",
                            })
                        }
                    };
                    let want = matches!(op, Op::CmpEq);
                    frame.stack.push(Value::Int((eq == want) as i64));
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
                    frame.pc = pc as u32;
                    self.frames.push(frame);
                    match self.allocate_fast(
                        ics,
                        observer,
                        class,
                        slots as usize,
                        false,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    ) {
                        Ok(h) => {
                            self.frames
                                .last_mut()
                                .expect("active frame")
                                .stack
                                .push(Value::Ref(h));
                            self.post_alloc_gc(observer)?;
                        }
                        Err(t) => self.throw(t, insn_pc)?,
                    }
                    reload!();
                }
                Op::NewArray { ic } => {
                    let len = fpop_int!(insn_pc);
                    if len < 0 {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.index_oob,
                                value: None,
                            },
                            insn_pc
                        );
                    }
                    frame.pc = pc as u32;
                    self.frames.push(frame);
                    match self.allocate_fast(
                        ics,
                        observer,
                        self.program.builtins.array,
                        len as usize,
                        true,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    ) {
                        Ok(h) => {
                            self.frames
                                .last_mut()
                                .expect("active frame")
                                .stack
                                .push(Value::Ref(h));
                            self.post_alloc_gc(observer)?;
                        }
                        Err(t) => self.throw(t, insn_pc)?,
                    }
                    reload!();
                }
                Op::GetField { slot, ic } => {
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::GetField,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                    let v =
                        *obj.data
                            .get(slot as usize)
                            .ok_or_else(|| VmError::InvalidBytecode {
                                method: mid,
                                pc: insn_pc,
                                reason: format!("field slot {slot} out of range"),
                            })?;
                    frame.stack.push(v);
                }
                Op::PutField { slot, ic } => {
                    let v = fpop!(insn_pc);
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::PutField,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    self.write_barrier(h, v);
                    let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
                    let cell =
                        obj.data
                            .get_mut(slot as usize)
                            .ok_or_else(|| VmError::InvalidBytecode {
                                method: mid,
                                pc: insn_pc,
                                reason: format!("field slot {slot} out of range"),
                            })?;
                    *cell = v;
                }
                Op::ALoad { ic } => {
                    let idx = fpop_int!(insn_pc);
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::HandleDeref,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                    let v = if idx >= 0 {
                        obj.data.get(idx as usize).copied()
                    } else {
                        None
                    };
                    match v {
                        Some(v) => frame.stack.push(v),
                        None => fast_throw!(
                            Thrown {
                                class: self.program.builtins.index_oob,
                                value: None,
                            },
                            insn_pc
                        ),
                    }
                }
                Op::AStore { ic } => {
                    let v = fpop!(insn_pc);
                    let idx = fpop_int!(insn_pc);
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::HandleDeref,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    self.write_barrier(h, v);
                    let stored = {
                        let obj = self.heap.get_mut(h).ok_or(VmError::InvalidHandle)?;
                        let cell = if idx >= 0 {
                            obj.data.get_mut(idx as usize)
                        } else {
                            None
                        };
                        match cell {
                            Some(cell) => {
                                *cell = v;
                                true
                            }
                            None => false,
                        }
                    };
                    if !stored {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.index_oob,
                                value: None,
                            },
                            insn_pc
                        );
                    }
                }
                Op::ArrayLen { ic } => {
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::HandleDeref,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                    frame.stack.push(Value::Int(obj.data.len() as i64));
                }
                Op::InstanceOf(class) => {
                    let v = fpop!(insn_pc);
                    let r = match v.as_ref_nullable()? {
                        Some(h) => {
                            let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                            self.program.is_subclass(obj.class, class)
                        }
                        None => false,
                    };
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
                    let nparams = nparams as usize;
                    if frame.stack.len() < nparams {
                        return Err(VmError::StackUnderflow {
                            method: mid,
                            pc: insn_pc,
                        });
                    }
                    let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - nparams);
                    if is_instance {
                        match args[0].as_ref_nullable()? {
                            Some(recv) => self.fast_use(
                                ics,
                                observer,
                                delivery,
                                recv,
                                UseKind::Invoke,
                                mid,
                                insn_pc,
                                ctx,
                                ic,
                            ),
                            None => fast_throw!(
                                Thrown {
                                    class: self.program.builtins.null_pointer,
                                    value: None,
                                },
                                insn_pc
                            ),
                        }
                    }
                    frame.pc = pc as u32;
                    let caller_ctx = ctx;
                    self.frames.push(frame);
                    self.push_frame_fast(pre, ics, target, args, mid, insn_pc, caller_ctx, cic)?;
                    reload!();
                }
                Op::CallVirtual {
                    vslot,
                    argc,
                    ic,
                    cic,
                    vic,
                } => {
                    let total = argc as usize + 1;
                    if frame.stack.len() < total {
                        return Err(VmError::StackUnderflow {
                            method: mid,
                            pc: insn_pc,
                        });
                    }
                    let args: Vec<Value> = frame.stack.split_off(frame.stack.len() - total);
                    let Some(recv) = args[0].as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        recv,
                        UseKind::Invoke,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    let class = self.heap.get(recv).ok_or(VmError::InvalidHandle)?.class;
                    let vt = &mut ics.vtables[vic as usize];
                    let target = if vt.class_plus1 == class.index() as u32 + 1 {
                        vt.target
                    } else {
                        let target = self.program.dispatch(class, vslot).ok_or_else(|| {
                            VmError::InvalidBytecode {
                                method: mid,
                                pc: insn_pc,
                                reason: format!(
                                    "class {} does not respond to `{}`",
                                    self.program.classes[class.index()].name,
                                    self.program.selectors[vslot.index()]
                                ),
                            }
                        })?;
                        let callee = &self.program.methods[target.index()];
                        if callee.num_params as usize != total {
                            return Err(VmError::InvalidBytecode {
                                method: mid,
                                pc: insn_pc,
                                reason: format!(
                                    "virtual call arity mismatch: {} expects {} params, got {total}",
                                    self.program.method_name(target),
                                    callee.num_params
                                ),
                            });
                        }
                        *vt = VtIc {
                            class_plus1: class.index() as u32 + 1,
                            target,
                        };
                        target
                    };
                    frame.pc = pc as u32;
                    let caller_ctx = ctx;
                    self.frames.push(frame);
                    self.push_frame_fast(pre, ics, target, args, mid, insn_pc, caller_ctx, cic)?;
                    reload!();
                }
                Op::Ret | Op::RetVal => {
                    let value = if matches!(op, Op::RetVal) {
                        Some(fpop!(insn_pc))
                    } else {
                        None
                    };
                    match frame.kind {
                        FrameKind::Normal | FrameKind::Finalizer => {
                            // Finalizer frames never run on this loop
                            // (`run_nested` drives them through `step()`),
                            // but mirror the reference either way: a
                            // finalizer's return value is discarded.
                            if frame.kind == FrameKind::Normal {
                                if let (Some(v), Some(caller)) = (value, self.frames.last_mut()) {
                                    caller.stack.push(v);
                                }
                            }
                            reload!();
                        }
                        FrameKind::Entry => return Ok(()),
                    }
                }
                Op::MonitorEnter { ic } => {
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::MonitorEnter,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    *self.monitors.entry(h).or_insert(0) += 1;
                }
                Op::MonitorExit { ic } => {
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::MonitorExit,
                        mid,
                        insn_pc,
                        ctx,
                        ic,
                    );
                    match self.monitors.get_mut(&h) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            if *n == 0 {
                                self.monitors.remove(&h);
                            }
                        }
                        _ => return Err(VmError::UnbalancedMonitor),
                    }
                }
                Op::Throw => {
                    let Some(h) = fpop!(insn_pc).as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            insn_pc
                        );
                    };
                    let class = self.heap.get(h).ok_or(VmError::InvalidHandle)?.class;
                    fast_throw!(
                        Thrown {
                            class,
                            value: Some(h),
                        },
                        insn_pc
                    );
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
                    let gf_pc = insn_pc + 1;
                    let Some(h) = recv.as_ref_nullable()? else {
                        fast_throw!(
                            Thrown {
                                class: self.program.builtins.null_pointer,
                                value: None,
                            },
                            gf_pc
                        );
                    };
                    self.fast_use(
                        ics,
                        observer,
                        delivery,
                        h,
                        UseKind::GetField,
                        mid,
                        gf_pc,
                        ctx,
                        ic,
                    );
                    let obj = self.heap.get(h).ok_or(VmError::InvalidHandle)?;
                    let v =
                        *obj.data
                            .get(slot as usize)
                            .ok_or_else(|| VmError::InvalidBytecode {
                                method: mid,
                                pc: gf_pc,
                                reason: format!("field slot {slot} out of range"),
                            })?;
                    frame.stack.push(v);
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
                    let add_pc = insn_pc + 1;
                    let a = fpop!(add_pc).as_int()?;
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

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("steps", &self.steps)
            .field("heap", &self.heap)
            .field("frames", &self.frames.len())
            .finish()
    }
}
