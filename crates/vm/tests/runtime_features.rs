//! End-to-end tests of the VM's runtime features: exception propagation
//! across frames, finalization (during deep GC and after any other
//! collection), the deep GC's collection count, out-of-memory behaviour
//! with a bounded heap, and monitor bookkeeping.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::error::VmError;
use heapdrag_vm::interp::{InterpreterKind, Vm, VmConfig};
use heapdrag_vm::observer::{CountingObserver, GcEvent, HeapObserver};
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

#[test]
fn exception_propagates_through_calls_to_outer_handler() {
    let mut b = ProgramBuilder::new();
    let arith = b.builtins().arithmetic;
    // inner() divides by zero with no handler of its own.
    let inner = b.declare_method("inner", None, true, 1, 1);
    {
        let mut m = b.begin_body(inner);
        m.push_int(10).load(0).div().ret_val();
        m.finish();
    }
    let middle = b.declare_method("middle", None, true, 1, 1);
    {
        let mut m = b.begin_body(middle);
        m.load(0).call(inner).ret_val();
        m.finish();
    }
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.label("try");
        m.push_int(0).call(middle).print();
        m.label("end");
        m.jump("out");
        m.label("catch");
        m.pop().push_int(-7).print();
        m.label("out");
        m.ret();
        m.handler("try", "end", "catch", Some(arith));
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let out = Vm::new(&p, VmConfig::default()).run(&[]).unwrap();
    assert_eq!(out.output, vec![-7], "unwound two frames into the handler");
}

#[test]
fn uncaught_user_exception_reports_class() {
    let mut b = ProgramBuilder::new();
    let boom = b.begin_class("app.Boom").finish();
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.new_obj(boom).throw();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let err = Vm::new(&p, VmConfig::default()).run(&[]).unwrap_err();
    match err {
        VmError::UncaughtException { class_name, .. } => assert_eq!(class_name, "app.Boom"),
        other => panic!("expected uncaught exception, got {other}"),
    }
}

#[test]
fn user_exception_object_reaches_the_handler() {
    let mut b = ProgramBuilder::new();
    let boom = b
        .begin_class("app.Boom")
        .field("code", Visibility::Public)
        .finish();
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.label("try");
        m.new_obj(boom).dup().push_int(55).putfield(0);
        m.throw();
        m.label("end");
        m.label("catch");
        m.getfield(0).print(); // the thrown object is on the stack
        m.ret();
        m.handler("try", "end", "catch", Some(boom));
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let out = Vm::new(&p, VmConfig::default()).run(&[]).unwrap();
    assert_eq!(out.output, vec![55]);
}

/// Allocates three finalizable resources, drops them, churns past two
/// 100 KB deep-GC intervals, then prints how many were finalized.
fn three_dropped_resources() -> Program {
    let mut b = ProgramBuilder::new();
    let counter = b.static_var("G.finalized", Visibility::Public, Value::Int(0));
    let res = b.begin_class("app.Resource").finish();
    let fin = b.declare_method("finalize", Some(res), false, 1, 1);
    {
        let mut m = b.begin_body(fin);
        m.getstatic(counter).push_int(1).add().putstatic(counter);
        m.ret();
        m.finish();
    }
    b.set_finalizer(res, fin);
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        for _ in 0..3 {
            m.new_obj(res).pop();
        }
        m.push_int(0).store(1);
        m.label("churn");
        m.load(1).push_int(600).cmpge().branch("done");
        m.push_int(40).new_array().pop();
        m.load(1).push_int(1).add().store(1);
        m.jump("churn");
        m.label("done");
        m.getstatic(counter).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    b.finish().unwrap()
}

#[test]
fn finalizers_run_once_during_deep_gc() {
    let p = three_dropped_resources();
    let out = Vm::new(&p, VmConfig::profiling()).run(&[]).unwrap();
    assert_eq!(out.output, vec![3], "each resource finalized exactly once");
}

#[test]
fn collections_outside_a_deep_gc_keep_their_finalizer_queue() {
    // A soft-limit collection queues the dropped resources; their
    // finalizers run at the next post-allocation safe point, with or
    // without deep GCs, in both dispatch loops.
    let p = three_dropped_resources();
    for base in [VmConfig::default(), VmConfig::profiling()] {
        for interpreter in [InterpreterKind::Fast, InterpreterKind::Reference] {
            let config = VmConfig {
                gc_trigger: Some(2048),
                interpreter,
                ..base.clone()
            };
            let out = Vm::new(&p, config).run(&[]).unwrap();
            assert_eq!(
                out.output,
                vec![3],
                "{interpreter:?}, deep GC every {:?} bytes",
                base.deep_gc_interval
            );
        }
    }
}

#[test]
fn heap_limit_collections_keep_their_finalizer_queue() {
    // The forced collection before an allocation over the limit queues
    // the resources too.
    let p = three_dropped_resources();
    for interpreter in [InterpreterKind::Fast, InterpreterKind::Reference] {
        let config = VmConfig {
            heap_limit: Some(1024),
            interpreter,
            ..VmConfig::default()
        };
        let out = Vm::new(&p, config).run(&[]).unwrap();
        assert_eq!(out.output, vec![3], "{interpreter:?}");
    }
}

/// Records the reachability census of every deep GC.
#[derive(Default)]
struct Census(Vec<GcEvent>);

impl HeapObserver for Census {
    fn on_deep_gc(&mut self, event: GcEvent) {
        self.0.push(event);
    }
}

#[test]
fn a_deep_gc_runs_a_second_collection_only_after_finalizers() {
    // One live plain object held by a static, plus four dropped objects
    // of a class with or without a finalizer; the only deep GC is the one
    // at exit.
    let run = |finalizable: bool| {
        let mut b = ProgramBuilder::new();
        let keep = b.static_var("G.keep", Visibility::Public, Value::Null);
        let plain = b.begin_class("app.Plain").finish();
        let res = b.begin_class("app.Resource").finish();
        if finalizable {
            let fin = b.declare_method("finalize", Some(res), false, 1, 1);
            let mut m = b.begin_body(fin);
            m.ret();
            m.finish();
            b.set_finalizer(res, fin);
        }
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.new_obj(plain).putstatic(keep);
            for _ in 0..4 {
                m.new_obj(res).pop();
            }
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let mut census = Census::default();
        let out = Vm::new(&p, VmConfig::profiling())
            .run_observed(&[], &mut census)
            .unwrap();
        (out, census.0)
    };

    let (plain, plain_census) = run(false);
    assert_eq!(plain.deep_gcs, 1);
    assert_eq!(
        plain.heap.full_collections, 1,
        "the first collection is the census"
    );
    assert_eq!(plain.heap.freed_objects, 4);

    let (fin, fin_census) = run(true);
    assert_eq!(fin.deep_gcs, 1);
    assert_eq!(
        fin.heap.full_collections, 2,
        "the first collection queued finalizers, so a second one follows them"
    );
    assert_eq!(
        fin.heap.freed_objects, 4,
        "the census collection reclaims them"
    );
    for census in [&plain_census, &fin_census] {
        assert_eq!(census.len(), 1);
        assert_eq!(
            census[0].reachable_count, 1,
            "the census counts only the static-held object"
        );
    }
    assert_eq!(plain_census, fin_census);
}

#[test]
fn finalizable_objects_survive_one_extra_cycle_in_the_profile() {
    // Resurrection is visible to the profiler: a finalizable object's
    // reclamation time is at least one deep-GC later than a plain one's.
    let mut b = ProgramBuilder::new();
    let res = b.begin_class("app.Resource").finish();
    let plain = b.begin_class("app.Plain").finish();
    let fin = b.declare_method("finalize", Some(res), false, 1, 1);
    {
        let mut m = b.begin_body(fin);
        m.ret();
        m.finish();
    }
    b.set_finalizer(res, fin);
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        m.new_obj(res).pop();
        m.new_obj(plain).pop();
        m.push_int(0).store(1);
        m.label("churn");
        m.load(1).push_int(800).cmpge().branch("done");
        m.push_int(40).new_array().pop();
        m.load(1).push_int(1).add().store(1);
        m.jump("churn");
        m.label("done");
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let mut observer = CountingObserver::default();
    let out = Vm::new(&p, VmConfig::profiling())
        .run_observed(&[], &mut observer)
        .unwrap();
    assert!(out.deep_gcs >= 2);
    assert!(observer.frees >= 2, "both objects eventually reclaimed");
}

#[test]
fn oom_throws_into_the_program_after_a_forced_gc() {
    let mut b = ProgramBuilder::new();
    let oom = b.builtins().out_of_memory;
    let main = b.declare_method("main", None, true, 1, 2);
    {
        // Keep allocating 1 KB arrays while holding the last two; a 4 KB
        // heap fills up quickly — but dropping references lets the forced
        // collection recover, so only the *retaining* loop dies.
        let mut m = b.begin_body(main);
        m.label("try");
        m.push_int(0).store(1);
        m.label("grow");
        // allocate and retain forever via an escaping chain: arr[0] = prev
        m.push_int(120).new_array();
        m.dup().push_int(0).load(1).astore(); // arr[0] = prev
        m.store(1); // keep only the newest — still, below, we retain
        m.jump("grow");
        m.label("end");
        m.label("catch");
        m.pop().push_int(-1).print();
        m.ret();
        m.handler("try", "end", "catch", Some(oom));
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    // With an unbounded heap this would loop forever (step budget); bound
    // it and watch the program catch its own OOM. The collection keeps
    // recovering the dropped arrays, so we must retain: use a tiny limit
    // smaller than one array to force it immediately.
    let config = VmConfig {
        heap_limit: Some(600),
        max_steps: Some(2_000_000),
        ..VmConfig::default()
    };
    let out = Vm::new(&p, config).run(&[]).unwrap();
    assert_eq!(
        out.output,
        vec![-1],
        "OutOfMemoryError caught by the program"
    );
}

#[test]
fn unbalanced_monitor_is_a_vm_error() {
    let mut b = ProgramBuilder::new();
    let c = b.begin_class("C").finish();
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        m.new_obj(c).store(1);
        m.load(1).monitor_exit(); // never entered
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let err = Vm::new(&p, VmConfig::default()).run(&[]).unwrap_err();
    assert_eq!(err, VmError::UnbalancedMonitor);
}

#[test]
fn monitors_count_as_uses_and_root_objects() {
    let mut b = ProgramBuilder::new();
    let c = b.begin_class("C").finish();
    let main = b.declare_method("main", None, true, 1, 2);
    {
        let mut m = b.begin_body(main);
        m.new_obj(c).store(1);
        m.load(1).monitor_enter();
        m.load(1).monitor_exit();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let mut observer = CountingObserver::default();
    Vm::new(&p, VmConfig::default())
        .run_observed(&[], &mut observer)
        .unwrap();
    assert!(observer.uses >= 2, "enter and exit both recorded as uses");
}

#[test]
fn step_budget_is_enforced() {
    let mut b = ProgramBuilder::new();
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.label("spin");
        m.jump("spin");
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let config = VmConfig {
        max_steps: Some(10_000),
        ..VmConfig::default()
    };
    let err = Vm::new(&p, config).run(&[]).unwrap_err();
    assert_eq!(err, VmError::StepBudgetExhausted);
}

#[test]
fn deep_recursion_overflows_cleanly() {
    let mut b = ProgramBuilder::new();
    let f = b.declare_method("f", None, true, 1, 1);
    {
        let mut m = b.begin_body(f);
        m.load(0).push_int(1).add().call(f).ret_val();
        m.finish();
    }
    let main = b.declare_method("main", None, true, 1, 1);
    {
        let mut m = b.begin_body(main);
        m.push_int(0).call(f).print();
        m.ret();
        m.finish();
    }
    b.set_entry(main);
    let p = b.finish().unwrap();
    let err = Vm::new(&p, VmConfig::default()).run(&[]).unwrap_err();
    assert!(matches!(err, VmError::StackOverflow { .. }));
}

#[test]
fn an_unallocatable_array_length_throws_out_of_memory() {
    // Lengths past Java's `int` array bound throw OutOfMemoryError into the
    // program whether or not the heap is bounded, under both interpreters;
    // `i64::MAX` slots would overflow the byte size.
    for len in [i64::from(i32::MAX) + 1, i64::MAX] {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 1);
        {
            let mut m = b.begin_body(main);
            m.push_int(len).new_array().pop();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        for heap_limit in [None, Some(1 << 20)] {
            for interpreter in [InterpreterKind::Fast, InterpreterKind::Reference] {
                let config = VmConfig {
                    heap_limit,
                    interpreter,
                    ..VmConfig::default()
                };
                let err = Vm::new(&p, config).run(&[]).unwrap_err();
                assert!(
                    matches!(&err, VmError::UncaughtException { class_name, .. }
                        if class_name.contains("OutOfMemory")),
                    "length {len}, limit {heap_limit:?}, {interpreter:?}: {err}"
                );
            }
        }
    }
}
