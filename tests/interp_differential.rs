//! Differential harness: the fast pre-decoded interpreter must be
//! *observably identical* to the reference `step()` loop. "Observably"
//! means everything a user of the tool can see: program output, step
//! counts, per-opcode-class dispatch tallies, heap statistics, the
//! profiler's object records and GC samples, and the encoded trace in
//! both log formats — byte for byte.
//!
//! Two layers:
//!
//! 1. every built-in workload on both of its inputs (the programs the
//!    paper's tables are built from), and
//! 2. a seeded property sweep over random programs from
//!    `heapdrag_testkit::genprog` — megamorphic call sites, exception
//!    unwinds, finalizers and stack-edge shapes the workloads never hit.
//!    Replay a failure with `TESTKIT_SEED=<seed> TESTKIT_CASES=1`.
//!
//! Two targeted checks ride along: frames that finalizers push (they run
//! on the reference loop under both interpreters), and hostile bytecode —
//! generated programs with one operand or opcode mutated, which must be
//! rejected by the linker (which verifies) or run to the same result, or
//! the same error, under both interpreters.

use heapdrag::core::{
    profile, DragAnalyzer, LogFormat, Pipeline, ProfileRun, ReportSections, VmConfig,
};
use heapdrag::vm::builder::ProgramBuilder;
use heapdrag::vm::class::Visibility;
use heapdrag::vm::{
    ClassId, Insn, InterpreterKind, MethodId, Program, SiteId, StaticId, Value, Vm, VmError,
};
use heapdrag::workloads::all_workloads;
use heapdrag_testkit::{check, random_program, Rng};

fn with_kind(mut config: VmConfig, kind: InterpreterKind) -> VmConfig {
    config.interpreter = kind;
    config
}

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("encoding a profile run cannot fail on a Vec");
    buf
}

/// Renders the end-user drag report from encoded log bytes.
fn report(bytes: &[u8]) -> String {
    let parsed = Pipeline::options()
        .ingest_bytes(bytes)
        .expect("round-trip ingest");
    let analysis = DragAnalyzer::new().analyze(&parsed.log.records, |c| Some(SiteId(c.0)));
    ReportSections::standard(&analysis, &parsed.log).render()
}

/// Asserts fast and reference interpreters agree on one (program, input,
/// profiling-config) triple, across every observable surface.
fn assert_profiled_parity(program: &Program, input: &[i64], config: VmConfig, what: &str) {
    let fast = profile(
        program,
        input,
        with_kind(config.clone(), InterpreterKind::Fast),
    );
    let reference = profile(
        program,
        input,
        with_kind(config, InterpreterKind::Reference),
    );
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.outcome, r.outcome, "{what}: outcomes differ");
            for format in [LogFormat::Text, LogFormat::Binary] {
                let fb = encode(&f, program, format);
                let rb = encode(&r, program, format);
                assert_eq!(fb, rb, "{what}: {format:?} logs are not byte-identical");
                assert_eq!(report(&fb), report(&rb), "{what}: drag reports differ");
            }
        }
        (Err(f), Err(r)) => assert_eq!(f, r, "{what}: errors differ"),
        (f, r) => panic!(
            "{what}: interpreters disagree on success: fast={:?} reference={:?}",
            f.map(|p| p.outcome),
            r.map(|p| p.outcome)
        ),
    }
}

/// Asserts parity of a plain (unobserved, NullObserver-path) run and
/// returns the error both interpreters stopped with, if any.
fn assert_plain_parity(
    program: &Program,
    input: &[i64],
    config: VmConfig,
    what: &str,
) -> Option<VmError> {
    let fast = Vm::new(program, with_kind(config.clone(), InterpreterKind::Fast)).run(input);
    let reference = Vm::new(program, with_kind(config, InterpreterKind::Reference)).run(input);
    assert_eq!(fast, reference, "{what}: plain runs differ");
    fast.err()
}

#[test]
fn every_workload_is_interpreter_invariant() {
    for w in all_workloads() {
        let program = w.original();
        for (tag, input) in [
            ("default", (w.default_input)()),
            ("alternate", (w.alternate_input)()),
        ] {
            let what = format!("{} ({tag} input)", w.name);
            assert_plain_parity(&program, &input, VmConfig::default(), &what);
            assert_profiled_parity(&program, &input, VmConfig::profiling(), &what);
        }
    }
}

/// A profiling configuration scaled down to generated-program heaps, so
/// deep GCs (and with them finalizers, sampling, and the batched use
/// flush) actually fire; half the cases run the generational collector.
fn small_heap_config(generational: bool) -> VmConfig {
    let mut c = VmConfig::profiling();
    c.deep_gc_interval = Some(4 * 1024);
    c.gc_trigger = Some(16 * 1024);
    c.generational = generational;
    c.nursery_bytes = 2 * 1024;
    c
}

#[test]
fn random_programs_are_interpreter_invariant() {
    check("fast/reference differential", 256, |rng: &mut Rng| {
        let (program, input) = random_program(rng);
        let generational = rng.bool();
        assert_plain_parity(&program, &input, VmConfig::default(), "random plain");
        assert_profiled_parity(
            &program,
            &input,
            small_heap_config(generational),
            "random profiled",
        );
    });
}

#[test]
fn step_budget_exhaustion_is_interpreter_invariant() {
    // Truncating the same program at every budget N must fail (or
    // succeed) identically — this walks the budget boundary through the
    // middle of fused superinstruction pairs.
    let mut rng = Rng::new(0xd1ff);
    let (program, input, full) = loop {
        let (p, i) = random_program(&mut rng);
        if let Ok(o) = Vm::new(&p, VmConfig::default()).run(&i) {
            break (p, i, o);
        }
    };
    let last = full.steps;
    for budget in (1..=last.min(64)).chain([last - 1, last, last + 1]) {
        let config = VmConfig {
            max_steps: Some(budget),
            ..VmConfig::default()
        };
        assert_plain_parity(&program, &input, config, &format!("budget {budget}"));
    }
}

/// `main` drops finalizable resources while churning through deep GCs;
/// each resource's finalizer calls `helper`, which allocates a box and
/// reads its field. Returns the program with `helper`, `finalize` and the
/// box class.
fn finalizer_calling_a_helper() -> (Program, MethodId, MethodId, ClassId) {
    let mut b = ProgramBuilder::new();
    let total = b.static_var("G.total", Visibility::Public, Value::Int(0));
    let boxed = b
        .begin_class("app.Box")
        .field("v", Visibility::Public)
        .finish();
    let res = b.begin_class("app.Resource").finish();
    let helper = b.declare_method("helper", None, true, 0, 1);
    {
        let mut m = b.begin_body(helper);
        m.new_obj(boxed).store(0);
        m.load(0).push_int(3).putfield_named(boxed, "v");
        m.load(0).getfield_named(boxed, "v");
        m.getstatic(total).add().putstatic(total);
        m.ret();
        m.finish();
    }
    let fin = b.declare_method("finalize", Some(res), false, 1, 1);
    {
        let mut m = b.begin_body(fin);
        m.call(helper).ret();
        m.finish();
    }
    b.set_finalizer(res, fin);
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        m.push_int(0).store(1);
        m.label("loop");
        m.load(1).push_int(400).cmpge().branch("done");
        m.new_obj(res).pop();
        m.push_int(30).new_array().pop();
        m.load(1).push_int(1).add().store(1);
        m.jump("loop");
        m.label("done");
        m.getstatic(total).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    (b.finish().expect("links"), helper, fin, boxed)
}

#[test]
fn finalizer_lineage_frames_are_interpreter_invariant() {
    let (program, helper, fin, boxed) = finalizer_calling_a_helper();
    let mut config = VmConfig::profiling();
    config.site_depth = 4;
    config.deep_gc_interval = Some(8 * 1024);
    assert_profiled_parity(&program, &[], config.clone(), "finalizer lineage");

    let run = profile(&program, &[], config).expect("runs");
    assert!(run.outcome.output[0] > 0, "no finalizer ran");
    let method_of = |site: SiteId| run.sites.site(site).method;
    let boxes: Vec<_> = run.records.iter().filter(|r| r.class == boxed).collect();
    assert!(!boxes.is_empty(), "the helper's boxes are profiled");
    for r in boxes {
        for chain in [Some(r.alloc_site), r.last_use_site] {
            let chain = run.sites.chain(chain.expect("every box is used"));
            let methods: Vec<_> = chain.iter().map(|&s| method_of(s)).collect();
            assert_eq!(
                methods,
                [helper, fin],
                "the finalizer is the helper's caller"
            );
        }
    }
}

/// Mutates one instruction of `program`: a jump target, a local, a field
/// slot, a class, a static or an int constant, or (for any other
/// instruction, and sometimes for those) the whole opcode.
fn mutate_one_insn(program: &mut Program, rng: &mut Rng) -> String {
    const OPCODES: &[Insn] = &[
        Insn::PushNull,
        Insn::Dup,
        Insn::Pop,
        Insn::Swap,
        Insn::Add,
        Insn::Div,
        Insn::Neg,
        Insn::CmpEq,
        Insn::CmpLt,
        Insn::NewArray,
        Insn::ALoad,
        Insn::AStore,
        Insn::ArrayLen,
        Insn::Ret,
        Insn::RetVal,
        Insn::MonitorEnter,
        Insn::MonitorExit,
        Insn::Throw,
        Insn::Print,
        Insn::Nop,
    ];
    let (classes, statics) = (program.classes.len() as u32, program.statics.len() as u32);
    let mid = rng.range_usize(0, program.methods.len());
    let method = &mut program.methods[mid];
    if method.code.is_empty() {
        return format!("method {mid} has no code");
    }
    let len = method.code.len() as u32;
    let locals = method.num_locals;
    let pc = rng.range_usize(0, method.code.len());
    let insn = &mut method.code[pc];
    let before = *insn;
    *insn = match before {
        _ if rng.ratio(1, 5) => *rng.choose(OPCODES),
        Insn::Jump(_) => Insn::Jump(rng.range_u32(0, len + 2)),
        Insn::Branch(_) => Insn::Branch(rng.range_u32(0, len + 2)),
        Insn::BranchIfNull(_) => Insn::BranchIfNull(rng.range_u32(0, len + 2)),
        Insn::BranchIfNotNull(_) => Insn::BranchIfNotNull(rng.range_u32(0, len + 2)),
        Insn::Load(_) => Insn::Load(rng.range_u16(0, locals + 2)),
        Insn::Store(_) => Insn::Store(rng.range_u16(0, locals + 2)),
        Insn::GetField(_) => Insn::GetField(rng.range_u16(0, 8)),
        Insn::PutField(_) => Insn::PutField(rng.range_u16(0, 8)),
        Insn::New(_) => Insn::New(ClassId(rng.range_u32(0, classes + 1))),
        Insn::InstanceOf(_) => Insn::InstanceOf(ClassId(rng.range_u32(0, classes + 1))),
        Insn::GetStatic(_) => Insn::GetStatic(StaticId(rng.range_u32(0, statics + 1))),
        Insn::PutStatic(_) => Insn::PutStatic(StaticId(rng.range_u32(0, statics + 1))),
        Insn::PushInt(_) => Insn::PushInt(*rng.choose(&[
            -1,
            0,
            1,
            1 << 20,
            i64::from(i32::MAX) + 1,
            i64::MAX,
            i64::MIN,
        ])),
        _ => *rng.choose(OPCODES),
    };
    format!("method {mid} pc {pc}: `{before}` -> `{}`", method.code[pc])
}

#[test]
fn hostile_bytecode_is_rejected_or_interpreter_invariant() {
    check("hostile bytecode differential", 64, |rng: &mut Rng| {
        let (program, input) = random_program(rng);
        // Unmutated, the program relinks: rejection below is the
        // mutation's doing.
        let mut relinked = program.clone();
        relinked.link().expect("relinking is idempotent");
        for _ in 0..8 {
            let mut mutant = program.clone();
            let what = mutate_one_insn(&mut mutant, rng);
            if mutant.link().is_err() {
                continue;
            }
            // The budget and heap limit bound every mutant's run: a mutated
            // loop bound may never exit, a mutated length may be huge.
            let bound = |config: VmConfig| VmConfig {
                max_steps: Some(20_000),
                heap_limit: Some(1 << 20),
                ..config
            };
            let err = assert_plain_parity(&mutant, &input, bound(VmConfig::default()), &what);
            // Linking verified the stack discipline, so the interpreters'
            // own underflow check never fires on a linked mutant.
            assert!(
                !matches!(err, Some(VmError::StackUnderflow { .. })),
                "{what}: a linked mutant underflowed at run time: {err:?}"
            );
            let profiled = bound(small_heap_config(rng.bool()));
            assert_profiled_parity(&mutant, &input, profiled, &what);
        }
    });
}
