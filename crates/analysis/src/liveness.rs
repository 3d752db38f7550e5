//! Liveness of local reference variables, and the *death points* where an
//! `assign null` can be inserted (§5.1's liveness-analysis).

use heapdrag_vm::class::Method;
use heapdrag_vm::ids::MethodId;
use heapdrag_vm::insn::Insn;
use heapdrag_vm::program::Program;

use crate::cfg::Cfg;
use crate::dataflow::{solve, BitProblem, BitSet, Direction};
use crate::types::{infer, MethodTypes, TypeError};

struct LocalLiveness<'a> {
    code: &'a [Insn],
    locals: usize,
}

impl BitProblem for LocalLiveness<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn capacity(&self) -> usize {
        self.locals
    }
    fn transfer(&self, pc: u32, fact: &mut BitSet) {
        match self.code[pc as usize] {
            Insn::Store(n) => fact.remove(n as usize),
            Insn::Load(n) => {
                fact.insert(n as usize);
            }
            _ => {}
        }
    }
}

/// The liveness solution for one method.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live locals entering each pc.
    pub live_in: Vec<BitSet>,
    /// Live locals leaving each pc.
    pub live_out: Vec<BitSet>,
}

/// Computes local-variable liveness for `method`.
pub fn liveness(method: &Method) -> Liveness {
    let cfg = Cfg::build(method);
    let problem = LocalLiveness {
        code: &method.code,
        locals: method.num_locals as usize,
    };
    let sol = solve(&problem, method, &cfg);
    Liveness {
        live_in: sol.in_,
        live_out: sol.out,
    }
}

/// A point on the *death frontier* of a reference local: the local is dead
/// entering `pc` but was live at some predecessor. Inserting
/// `pushnull; store local` immediately **before** `pc` is
/// semantics-preserving (the local is dead along every path reaching `pc`,
/// liveness being path-insensitive) and un-roots whatever it referenced.
///
/// This covers both straight-line deaths (the instruction after a last
/// use) and deaths on loop-exit or join edges, like the arrays in the
/// paper's `euler` rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathPoint {
    /// The method.
    pub method: MethodId,
    /// Insertion point: the null store goes in front of this pc.
    pub pc: u32,
    /// The local variable index.
    pub local: u16,
}

/// Finds the death frontier of every reference-typed local in `method_id`.
///
/// A point `(pc, local)` is reported when:
/// * the local is **dead** in `live_in(pc)`,
/// * it was **live** in `live_in(p)` for some predecessor `p`, and
/// * it holds a reference at `pc` (per type inference) — nulling an int
///   local would be safe but useless.
///
/// # Errors
///
/// Propagates [`TypeError`] from type inference.
pub fn death_points(program: &Program, method_id: MethodId) -> Result<Vec<DeathPoint>, TypeError> {
    let method = &program.methods[method_id.index()];
    let types = infer(program, method_id)?;
    let live = liveness(method);
    Ok(collect_death_points(method_id, method, &types, &live))
}

fn collect_death_points(
    method_id: MethodId,
    method: &Method,
    types: &MethodTypes,
    live: &Liveness,
) -> Vec<DeathPoint> {
    let cfg = Cfg::build(method);
    let mut points = Vec::new();
    for pc in 0..method.code.len() as u32 {
        for local in 0..method.num_locals {
            if live.live_in[pc as usize].contains(local as usize) {
                continue;
            }
            if !types.local(pc, local).is_reflike() {
                continue;
            }
            let died_here = cfg
                .preds(pc)
                .iter()
                .any(|&p| live.live_in[p as usize].contains(local as usize));
            // Skip points already covered by a `pushnull; store local` pair
            // (keeps the assign-null transformation idempotent).
            let already_nulled = matches!(method.code[pc as usize], Insn::PushNull)
                && matches!(method.code.get(pc as usize + 1), Some(Insn::Store(l)) if *l == local);
            if died_here && !already_nulled {
                points.push(DeathPoint {
                    method: method_id,
                    pc,
                    local,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;

    fn program_with_dead_ref() -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Buf")
            .field("len", Visibility::Private)
            .finish();
        let filler = b.declare_method("filler", None, true, 0, 0);
        {
            let mut m = b.begin_body(filler);
            m.ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1); // pc 0,1
            m.load(1).push_int(9).putfield(0); // pc 2,3,4  <- last use of 1
            m.call(filler); // pc 5: local 1 dragged across this call
            m.ret(); // pc 6
            m.finish();
        }
        b.set_entry(main);
        (b.finish().unwrap(), main)
    }

    #[test]
    fn finds_frontier_after_last_use() {
        let (p, main) = program_with_dead_ref();
        let points = death_points(&p, main).unwrap();
        // pc 2 is the last use (`load 1`); the frontier is pc 3, where a
        // null store detaches the object before the filler call.
        assert_eq!(
            points,
            vec![DeathPoint {
                method: main,
                pc: 3,
                local: 1
            }]
        );
    }

    #[test]
    fn live_through_loop_is_not_a_death_point() {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Buf")
            .field("x", Visibility::Private)
            .finish();
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            m.new_obj(c).store(1);
            m.push_int(0).store(2);
            m.label("loop");
            m.load(2).push_int(3).cmpge().branch("done");
            m.load(1).push_int(0).putfield(0); // used every iteration
            m.load(2).push_int(1).add().store(2);
            m.jump("loop");
            m.label("done");
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let points = death_points(&p, p.entry).unwrap();
        // Inside the loop the local stays live around the back edge, so no
        // point there — but it dies on the loop-exit edge, which is exactly
        // the euler-style frontier the paper nulls manually.
        let m = &p.methods[p.entry.index()];
        let exit_pc = (m.code.len() - 1) as u32; // the `ret` at label done
        assert_eq!(
            points,
            vec![DeathPoint {
                method: p.entry,
                pc: exit_pc,
                local: 1
            }]
        );
    }

    #[test]
    fn int_locals_are_ignored() {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 2);
        {
            let mut m = b.begin_body(main);
            m.push_int(7).store(1);
            m.load(1).print(); // last use of an *int* local
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        let p = b.finish().unwrap();
        let points = death_points(&p, p.entry).unwrap();
        assert!(points.is_empty());
    }

    #[test]
    fn liveness_solution_shape() {
        let (p, main) = program_with_dead_ref();
        let m = &p.methods[main.index()];
        let live = liveness(m);
        assert_eq!(live.live_in.len(), m.code.len());
        // Local 1 is live entering pc 2 (the load), dead after.
        assert!(live.live_in[2].contains(1));
        assert!(!live.live_out[2].contains(1));
    }
}
