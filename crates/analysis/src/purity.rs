//! Method effect summaries and constructor-purity checks, backing the
//! safety conditions of dead-code removal and lazy allocation (§3.3.2,
//! §3.3.3).

use std::collections::HashMap;

use heapdrag_vm::ids::MethodId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::callgraph::CallGraph;
use crate::provenance::{infer_provenance, Prov};

/// What one method does to the world outside its own fresh objects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Reads a static variable (depends on program state).
    pub reads_statics: bool,
    /// Writes a static variable.
    pub writes_statics: bool,
    /// Writes a field or element of an object that is neither the
    /// receiver, a parameter, nor allocated inside the method.
    pub writes_foreign: bool,
    /// Writes a field or element of a (non-receiver) *parameter*. Whether
    /// that is an external effect depends on what each caller passes; the
    /// fixpoint resolves it per call site.
    pub writes_params: bool,
    /// Produces program output.
    pub prints: bool,
    /// Enters or exits a monitor.
    pub uses_monitors: bool,
    /// Contains an explicit `throw`.
    pub throws_explicitly: bool,
    /// Stores the receiver into a field, static, array, or passes it on —
    /// after the call, the receiver may be reachable from elsewhere.
    pub receiver_escapes: bool,
    /// Contains a virtual call (targets approximated by CHA but treated as
    /// opaque for purity).
    pub has_virtual_calls: bool,
    /// Reads a parameter other than the receiver.
    pub reads_other_params: bool,
    /// Provenance inference failed; everything must be assumed.
    pub opaque: bool,
}

impl EffectSummary {
    fn worst() -> Self {
        EffectSummary {
            reads_statics: true,
            writes_statics: true,
            writes_foreign: true,
            writes_params: true,
            prints: true,
            uses_monitors: true,
            throws_explicitly: true,
            receiver_escapes: true,
            has_virtual_calls: true,
            reads_other_params: true,
            opaque: true,
        }
    }

    fn absorb_callee(&mut self, callee: &EffectSummary) {
        self.reads_statics |= callee.reads_statics;
        self.writes_statics |= callee.writes_statics;
        self.writes_foreign |= callee.writes_foreign;
        self.prints |= callee.prints;
        self.uses_monitors |= callee.uses_monitors;
        self.throws_explicitly |= callee.throws_explicitly;
        self.has_virtual_calls |= callee.has_virtual_calls;
        self.opaque |= callee.opaque;
        // receiver_escapes, reads_other_params, and writes_params are
        // per-frame properties, resolved per call site in the fixpoint.
    }
}

/// What a direct call site passes to its callee, as far as effect
/// propagation cares.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    callee: MethodId,
    /// Our receiver is handed over as the callee's receiver.
    receiver_to_receiver: bool,
    /// Some argument is one of our own parameters.
    has_param_arg: bool,
    /// Some argument is an unknown reference (neither frame-local nor a
    /// parameter).
    has_other_arg: bool,
}

/// Effect summaries for every method, computed to a fixpoint over the call
/// graph.
#[derive(Debug, Clone)]
pub struct Purity {
    summaries: HashMap<MethodId, EffectSummary>,
}

impl Purity {
    /// Analyzes all methods of `program`.
    pub fn build(program: &Program, callgraph: &CallGraph) -> Self {
        let n = program.methods.len();
        let mut local: Vec<EffectSummary> = Vec::with_capacity(n);
        let mut callsites: Vec<Vec<CallSite>> = vec![Vec::new(); n];
        for mid in 0..n as u32 {
            let mid = MethodId(mid);
            local.push(local_summary(program, mid, &mut callsites));
        }
        // Fixpoint: absorb callee effects.
        let mut summaries = local.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for mid in 0..n {
                let mut s = summaries[mid];
                for callee in callgraph.callees(MethodId(mid as u32)) {
                    let c = summaries[callee.index()];
                    let before = s;
                    s.absorb_callee(&c);
                    for cs in callsites[mid].iter().filter(|cs| cs.callee == *callee) {
                        // If our receiver is passed to a callee whose own
                        // receiver escapes, ours escapes too.
                        if cs.receiver_to_receiver && c.receiver_escapes {
                            s.receiver_escapes = true;
                        }
                        // A callee that writes its parameters writes
                        // whatever we passed: our own fresh objects (no
                        // effect), our parameters, or something unknown.
                        if c.writes_params {
                            s.writes_params |= cs.has_param_arg;
                            s.writes_foreign |= cs.has_other_arg;
                        }
                    }
                    changed |= s != before;
                }
                summaries[mid] = s;
            }
        }
        Purity {
            summaries: summaries
                .into_iter()
                .enumerate()
                .map(|(i, s)| (MethodId(i as u32), s))
                .collect(),
        }
    }

    /// The transitive effect summary of `method`.
    pub fn summary(&self, method: MethodId) -> EffectSummary {
        self.summaries
            .get(&method)
            .copied()
            .unwrap_or_else(EffectSummary::worst)
    }

    /// §3.3.2's condition for removing an allocation together with its
    /// constructor call: the paper requires "the constructor has no
    /// influence on the rest of the program" — no foreign or parameter
    /// writes, no static writes, no output, no explicit throws, no
    /// receiver escape, no virtual calls.
    pub fn is_removable_constructor(&self, method: MethodId) -> bool {
        let s = self.summary(method);
        !s.opaque
            && !s.writes_statics
            && !s.writes_foreign
            && !s.writes_params
            && !s.prints
            && !s.uses_monitors
            && !s.throws_explicitly
            && !s.receiver_escapes
            && !s.has_virtual_calls
    }

    /// §3.3.3's condition for *delaying* an allocation: everything above,
    /// plus the constructor may not depend on program state — it must not
    /// read statics or non-receiver parameters, so running it later yields
    /// the same object.
    pub fn is_lazy_allocatable_constructor(&self, method: MethodId) -> bool {
        let s = self.summary(method);
        self.is_removable_constructor(method) && !s.reads_statics && !s.reads_other_params
    }
}

fn local_summary(
    program: &Program,
    mid: MethodId,
    callsites: &mut [Vec<CallSite>],
) -> EffectSummary {
    let method = &program.methods[mid.index()];
    let mut s = EffectSummary::default();
    let prov = match infer_provenance(program, mid) {
        Some(p) => p,
        None => return EffectSummary::worst(),
    };
    for (pc, insn) in method.code.iter().enumerate() {
        let pc = pc as u32;
        if !prov.analyzed(pc) {
            continue; // unreachable code has no effects
        }
        match insn {
            Insn::GetStatic(_) => s.reads_statics = true,
            Insn::PutStatic(_) => {
                s.writes_statics = true;
                if prov.stack(pc, 0) == Prov::This {
                    s.receiver_escapes = true;
                }
            }
            Insn::PutField(_) => {
                let receiver = prov.stack(pc, 1);
                let value = prov.stack(pc, 0);
                match receiver {
                    Prov::This | Prov::Alloc(_) => {}
                    Prov::Param(_) => s.writes_params = true,
                    _ => s.writes_foreign = true,
                }
                if value == Prov::This && receiver != Prov::This {
                    s.receiver_escapes = true;
                }
            }
            Insn::AStore => {
                let receiver = prov.stack(pc, 2);
                let value = prov.stack(pc, 0);
                match receiver {
                    Prov::Alloc(_) => {}
                    Prov::Param(_) => s.writes_params = true,
                    _ => s.writes_foreign = true,
                }
                if value == Prov::This {
                    s.receiver_escapes = true;
                }
            }
            Insn::Print => s.prints = true,
            Insn::MonitorEnter | Insn::MonitorExit => s.uses_monitors = true,
            Insn::Throw => s.throws_explicitly = true,
            Insn::RetVal if prov.stack(pc, 0) == Prov::This => {
                s.receiver_escapes = true;
            }
            Insn::Load(l) => {
                if *l > 0 && (*l as usize) < method.num_params as usize {
                    s.reads_other_params = true;
                }
                if *l == 0 && method.is_static && method.num_params > 0 {
                    // Static methods' param 0 is an ordinary parameter.
                    s.reads_other_params = true;
                }
            }
            Insn::Call(target) => {
                let callee = &program.methods[target.index()];
                let p = callee.num_params as usize;
                let mut site = CallSite {
                    callee: *target,
                    receiver_to_receiver: false,
                    has_param_arg: false,
                    has_other_arg: false,
                };
                for d in 0..p {
                    let arg = prov.stack(pc, d);
                    let is_callee_receiver = d == p - 1 && !callee.is_static;
                    match arg {
                        Prov::This if is_callee_receiver => {
                            site.receiver_to_receiver = true;
                        }
                        Prov::This => s.receiver_escapes = true,
                        Prov::Param(_) => site.has_param_arg = true,
                        other if other.is_frame_local() => {}
                        _ => site.has_other_arg = true,
                    }
                }
                callsites[mid.index()].push(site);
            }
            Insn::CallVirtual { argc, .. } => {
                s.has_virtual_calls = true;
                for d in 0..=*argc as usize {
                    if prov.stack(pc, d) == Prov::This {
                        s.receiver_escapes = true;
                    }
                }
            }
            _ => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::value::Value;

    struct Fixture {
        program: Program,
        pure_ctor: MethodId,
        static_reading_ctor: MethodId,
        escaping_ctor: MethodId,
        printing_ctor: MethodId,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new();
        let c = b.begin_class("C").field("x", Visibility::Private).finish();
        let registry = b.static_var("G.registry", Visibility::Public, Value::Null);

        let pure_ctor = b.declare_method("init", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(pure_ctor);
            m.load(0).push_int(1).putfield(0);
            m.ret();
            m.finish();
        }
        let static_reading_ctor = b.declare_method("initFromGlobal", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(static_reading_ctor);
            m.load(0).getstatic(registry).putfield(0);
            m.ret();
            m.finish();
        }
        let escaping_ctor = b.declare_method("initRegistered", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(escaping_ctor);
            m.load(0).putstatic(registry); // receiver escapes!
            m.ret();
            m.finish();
        }
        let printing_ctor = b.declare_method("initLoud", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(printing_ctor);
            m.push_int(42).print();
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).dup().store(1).call(pure_ctor);
            m.load(1).call(static_reading_ctor);
            m.load(1).call(escaping_ctor);
            m.load(1).call(printing_ctor);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        Fixture {
            program: b.finish().unwrap(),
            pure_ctor,
            static_reading_ctor,
            escaping_ctor,
            printing_ctor,
        }
    }

    #[test]
    fn pure_constructor_is_removable_and_lazy() {
        let f = fixture();
        let cg = CallGraph::build(&f.program);
        let purity = Purity::build(&f.program, &cg);
        assert!(purity.is_removable_constructor(f.pure_ctor));
        assert!(purity.is_lazy_allocatable_constructor(f.pure_ctor));
    }

    #[test]
    fn static_reading_ctor_not_lazy_but_removable() {
        let f = fixture();
        let cg = CallGraph::build(&f.program);
        let purity = Purity::build(&f.program, &cg);
        // Reading state doesn't make removal unsafe, but delaying changes
        // which state is read.
        assert!(purity.is_removable_constructor(f.static_reading_ctor));
        assert!(!purity.is_lazy_allocatable_constructor(f.static_reading_ctor));
    }

    #[test]
    fn escaping_receiver_blocks_removal() {
        let f = fixture();
        let cg = CallGraph::build(&f.program);
        let purity = Purity::build(&f.program, &cg);
        let s = purity.summary(f.escaping_ctor);
        assert!(s.receiver_escapes);
        assert!(!purity.is_removable_constructor(f.escaping_ctor));
    }

    #[test]
    fn output_blocks_removal() {
        let f = fixture();
        let cg = CallGraph::build(&f.program);
        let purity = Purity::build(&f.program, &cg);
        assert!(purity.summary(f.printing_ctor).prints);
        assert!(!purity.is_removable_constructor(f.printing_ctor));
    }

    #[test]
    fn effects_propagate_through_calls() {
        // wrapper() calls a printing helper → wrapper prints transitively.
        let mut b = ProgramBuilder::new();
        let helper = b.declare_method("helper", None, true, 0, 0);
        {
            let mut m = b.begin_body(helper);
            m.push_int(1).print().ret();
            m.finish();
        }
        let c = b.begin_class("C").finish();
        let wrapper = b.declare_method("init", Some(c), false, 1, 1);
        {
            let mut m = b.begin_body(wrapper);
            m.call(helper);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).call(wrapper);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let cg = CallGraph::build(&p);
        let purity = Purity::build(&p, &cg);
        assert!(purity.summary(wrapper).prints);
        assert!(!purity.is_removable_constructor(wrapper));
    }
}

#[cfg(test)]
mod param_write_tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    /// fill(a) writes its parameter; callers' effects depend on what they
    /// pass.
    fn fixture() -> (Program, MethodId, MethodId, MethodId, MethodId) {
        let mut b = ProgramBuilder::new();
        let fill = b.declare_method("fill", None, true, 1, 1);
        {
            let mut m = b.begin_body(fill);
            m.load(0).push_int(0).push_int(7).astore();
            m.ret();
            m.finish();
        }
        let c = b
            .begin_class("C")
            .field("buf", Visibility::Private)
            .finish();
        // Constructor passing a FRESH array to fill: stays effect-free.
        let fresh_ctor = b.declare_method("init", Some(c), false, 1, 2);
        {
            let mut m = b.begin_body(fresh_ctor);
            m.load(0);
            m.push_int(8).new_array().dup().call(fill);
            m.putfield_named(c, "buf");
            m.ret();
            m.finish();
        }
        // Method passing its own PARAMETER through: inherits writes_params.
        let pass_through = b.declare_method("fillIt", Some(c), false, 2, 2);
        {
            let mut m = b.begin_body(pass_through);
            m.load(1).call(fill);
            m.ret();
            m.finish();
        }
        // Method passing an UNKNOWN reference (read from a field): foreign.
        let pass_unknown = b.declare_method("fillMine", Some(c), false, 1, 2);
        {
            let mut m = b.begin_body(pass_unknown);
            m.load(0).getfield_named(c, "buf").call(fill);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).dup().store(1).call(fresh_ctor);
            m.load(1).push_int(4).new_array().call(pass_through);
            m.load(1).call(pass_unknown);
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        (
            b.finish().unwrap(),
            fill,
            fresh_ctor,
            pass_through,
            pass_unknown,
        )
    }

    #[test]
    fn param_writer_is_flagged_but_not_foreign() {
        let (p, fill, ..) = fixture();
        let cg = CallGraph::build(&p);
        let purity = Purity::build(&p, &cg);
        let s = purity.summary(fill);
        assert!(s.writes_params);
        assert!(!s.writes_foreign);
        assert!(
            !purity.is_removable_constructor(fill),
            "writing params disqualifies removal at unknown call sites"
        );
    }

    #[test]
    fn fresh_argument_keeps_the_caller_clean() {
        let (p, _, fresh_ctor, ..) = fixture();
        let cg = CallGraph::build(&p);
        let purity = Purity::build(&p, &cg);
        let s = purity.summary(fresh_ctor);
        assert!(!s.writes_params, "{s:?}");
        assert!(!s.writes_foreign, "{s:?}");
        assert!(
            purity.is_removable_constructor(fresh_ctor),
            "zero-fill of a fresh array is invisible outside"
        );
    }

    #[test]
    fn param_argument_propagates_writes_params() {
        let (p, _, _, pass_through, _) = fixture();
        let cg = CallGraph::build(&p);
        let purity = Purity::build(&p, &cg);
        let s = purity.summary(pass_through);
        assert!(s.writes_params, "{s:?}");
        assert!(!s.writes_foreign, "{s:?}");
    }

    #[test]
    fn unknown_argument_becomes_foreign() {
        let (p, _, _, _, pass_unknown) = fixture();
        let cg = CallGraph::build(&p);
        let purity = Purity::build(&p, &cg);
        let s = purity.summary(pass_unknown);
        assert!(s.writes_foreign, "{s:?}");
    }
}
