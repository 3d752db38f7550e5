//! Property tests for the collector: on arbitrary object graphs, a full
//! collection frees exactly the complement of the root closure, accounting
//! stays consistent, and the generational collector never frees anything a
//! full collection would keep.

use std::collections::HashSet;

use heapdrag_testkit::{check, Rng};
use heapdrag_vm::class::Method;
use heapdrag_vm::gc::{collect_full, collect_minor};
use heapdrag_vm::heap::{Handle, Heap};
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;
use heapdrag_vm::value::Value;

fn test_program() -> Program {
    let mut p = Program::empty();
    let mut main = Method::new("main", 1, 1);
    main.code = vec![Insn::Ret];
    p.methods.push(main);
    p.link().unwrap();
    p
}

/// A random heap shape: object field counts, edges, and roots.
#[derive(Debug, Clone)]
struct GraphSpec {
    fields: Vec<u8>,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
}

fn graph(rng: &mut Rng, max_objects: usize) -> GraphSpec {
    let n = rng.range_usize(2, max_objects);
    let fields = (0..n).map(|_| rng.range_u8(1, 6)).collect();
    let edges = rng.vec(0, n * 3, |r| (r.range_usize(0, n), r.range_usize(0, n)));
    let roots = rng.vec(0, n.div_ceil(2).max(1), |r| r.range_usize(0, n));
    GraphSpec {
        fields,
        edges,
        roots,
    }
}

/// Materialises the spec; returns handles in spec order.
fn build_heap(program: &Program, spec: &GraphSpec) -> (Heap, Vec<Handle>) {
    let mut heap = Heap::new();
    let handles: Vec<Handle> = spec
        .fields
        .iter()
        .map(|f| heap.alloc(program.builtins.object, *f as usize, false, false))
        .collect();
    for (from, to) in &spec.edges {
        let slot = to % spec.fields[*from] as usize;
        heap.get_mut(handles[*from]).unwrap().data[slot] = Value::Ref(handles[*to]);
    }
    (heap, handles)
}

/// The root closure, computed independently of the collector.
fn closure(spec: &GraphSpec) -> HashSet<usize> {
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = spec.roots.clone();
    while let Some(i) = stack.pop() {
        if !seen.insert(i) {
            continue;
        }
        for (from, to) in &spec.edges {
            // Edges into the same slot overwrite earlier ones; recompute
            // the final slot contents the same way build_heap does.
            if *from == i {
                let slot = to % spec.fields[*from] as usize;
                let winner = spec
                    .edges
                    .iter()
                    .rfind(|(f, t)| *f == i && t % spec.fields[i] as usize == slot)
                    .map(|(_, t)| *t)
                    .expect("at least this edge");
                stack.push(winner);
            }
        }
    }
    seen
}

#[test]
fn full_collection_frees_exactly_the_unreachable() {
    check("full_collection_frees_exactly_the_unreachable", 64, |rng| {
        let spec = graph(rng, 24);
        let program = test_program();
        let (mut heap, handles) = build_heap(&program, &spec);
        let roots: Vec<Handle> = spec.roots.iter().map(|i| handles[*i]).collect();
        let expected = closure(&spec);
        let mut freed = 0usize;
        collect_full(&mut heap, &program, &roots, &mut |_| freed += 1, None);
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(
                heap.get(*h).is_some(),
                expected.contains(&i),
                "object {} reachable={}",
                i,
                expected.contains(&i)
            );
        }
        assert_eq!(freed, handles.len() - expected.len());
    });
}

#[test]
fn accounting_stays_consistent_after_collection() {
    check("accounting_stays_consistent_after_collection", 64, |rng| {
        let spec = graph(rng, 24);
        let program = test_program();
        let (mut heap, handles) = build_heap(&program, &spec);
        let roots: Vec<Handle> = spec.roots.iter().map(|i| handles[*i]).collect();
        collect_full(&mut heap, &program, &roots, &mut |_| {}, None);
        let live_bytes: u64 = heap.iter().map(|(_, o)| o.size_bytes).sum();
        assert_eq!(heap.live_bytes(), live_bytes);
        assert_eq!(heap.live_count(), heap.iter().count() as u64);
        let stats = heap.stats();
        assert_eq!(
            stats.allocated_objects,
            heap.live_count() + stats.freed_objects
        );
    });
}

#[test]
fn collection_is_idempotent() {
    check("collection_is_idempotent", 64, |rng| {
        let spec = graph(rng, 20);
        let program = test_program();
        let (mut heap, handles) = build_heap(&program, &spec);
        let roots: Vec<Handle> = spec.roots.iter().map(|i| handles[*i]).collect();
        collect_full(&mut heap, &program, &roots, &mut |_| {}, None);
        let alive_after_first: Vec<bool> = handles.iter().map(|h| heap.get(*h).is_some()).collect();
        let mut freed_second = 0;
        collect_full(
            &mut heap,
            &program,
            &roots,
            &mut |_| freed_second += 1,
            None,
        );
        assert_eq!(freed_second, 0, "second collection frees nothing");
        for (h, was_alive) in handles.iter().zip(alive_after_first) {
            assert_eq!(heap.get(*h).is_some(), was_alive);
        }
    });
}

#[test]
fn minor_collection_is_conservative() {
    check("minor_collection_is_conservative", 64, |rng| {
        // Whatever survives a full collection must also survive a minor
        // one (the nursery may keep more alive, never less).
        let spec = graph(rng, 20);
        let program = test_program();
        let (mut heap, handles) = build_heap(&program, &spec);
        let roots: Vec<Handle> = spec.roots.iter().map(|i| handles[*i]).collect();
        let expected = closure(&spec);
        collect_minor(&mut heap, &program, &roots, &mut |_| {});
        for (i, h) in handles.iter().enumerate() {
            if expected.contains(&i) {
                assert!(heap.get(*h).is_some(), "reachable {} survives minor", i);
            }
        }
    });
}
