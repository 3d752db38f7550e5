//! Per-method control-flow graphs at instruction granularity — the
//! substrate every §5 dataflow analysis (liveness, reaching, types)
//! iterates over.
//!
//! Methods in this VM are small, so the dataflow analyses run directly over
//! instructions; the [`Cfg`] precomputes successor and predecessor lists
//! from the VM's one successor rule, [`heapdrag_vm::flow::successors`],
//! including exception edges (every pc covered by a handler has an edge to
//! the handler entry).

use heapdrag_vm::class::Method;
use heapdrag_vm::flow::successors;

/// Control-flow graph of one method.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    /// pcs with no successors (returns, throws with no handler).
    exits: Vec<u32>,
}

impl Cfg {
    /// Builds the CFG of `method`.
    pub fn build(method: &Method) -> Self {
        let n = method.code.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pc, s) in succs.iter_mut().enumerate() {
            let targets = successors(method, pc as u32).map(|(t, _)| t);
            s.extend(targets.filter(|&t| (t as usize) < n));
            s.sort_unstable();
            s.dedup();
        }
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (pc, ss) in succs.iter().enumerate() {
            for &t in ss {
                preds[t as usize].push(pc as u32);
            }
        }
        let exits = succs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(pc, _)| pc as u32)
            .collect();
        Cfg {
            succs,
            preds,
            exits,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True for an empty method body.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successor pcs of `pc`.
    pub fn succs(&self, pc: u32) -> &[u32] {
        &self.succs[pc as usize]
    }

    /// Predecessor pcs of `pc`.
    pub fn preds(&self, pc: u32) -> &[u32] {
        &self.preds[pc as usize]
    }

    /// Exit pcs (no successors).
    pub fn exits(&self) -> &[u32] {
        &self.exits
    }

    /// pcs reachable from entry (pc 0), in discovery order.
    pub fn reachable(&self) -> Vec<u32> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut seen = vec![false; self.len()];
        let mut order = Vec::new();
        let mut stack = vec![0u32];
        while let Some(pc) = stack.pop() {
            if seen[pc as usize] {
                continue;
            }
            seen[pc as usize] = true;
            order.push(pc);
            for &s in self.succs(pc) {
                if !seen[s as usize] {
                    stack.push(s);
                }
            }
        }
        order
    }

    /// True if `a` dominates `b` (every path from entry to `b` passes
    /// through `a`). Computed by reachability with `a` removed; quadratic
    /// in the worst case but the methods are tiny.
    pub fn dominates(&self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![0u32];
        while let Some(pc) = stack.pop() {
            if pc == a || seen[pc as usize] {
                continue;
            }
            seen[pc as usize] = true;
            if pc == b {
                return false; // reached b while avoiding a
            }
            for &s in self.succs(pc) {
                stack.push(s);
            }
        }
        // b unreachable without a; if 0 == a, also fine.
        a == 0 || !seen[b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::class::Handler;
    use heapdrag_vm::insn::Insn;

    fn method(code: Vec<Insn>) -> Method {
        let mut m = Method::new("f", 0, 4);
        m.code = code;
        m
    }

    #[test]
    fn straight_line() {
        let m = method(vec![Insn::PushInt(1), Insn::Pop, Insn::Ret]);
        let cfg = Cfg::build(&m);
        assert_eq!(cfg.succs(0), &[1]);
        assert_eq!(cfg.succs(1), &[2]);
        assert_eq!(cfg.succs(2), &[] as &[u32]);
        assert_eq!(cfg.preds(1), &[0]);
        assert_eq!(cfg.exits(), &[2]);
    }

    #[test]
    fn branch_has_two_successors() {
        // 0: push 1; 1: branch 3; 2: nop; 3: ret
        let m = method(vec![
            Insn::PushInt(1),
            Insn::Branch(3),
            Insn::Nop,
            Insn::Ret,
        ]);
        let cfg = Cfg::build(&m);
        assert_eq!(cfg.succs(1), &[2, 3]);
        assert_eq!(cfg.preds(3), &[1, 2]);
    }

    #[test]
    fn exception_edges() {
        let mut m = method(vec![
            Insn::PushInt(1),
            Insn::PushInt(0),
            Insn::Div,
            Insn::Ret,
            Insn::Ret,
        ]);
        m.handlers.push(Handler {
            start_pc: 0,
            end_pc: 3,
            handler_pc: 4,
            catch: None,
        });
        let cfg = Cfg::build(&m);
        assert!(cfg.succs(2).contains(&4), "covered pc has handler edge");
        assert!(!cfg.succs(3).contains(&4), "uncovered pc has none");
    }

    #[test]
    fn reachability_skips_dead_code() {
        // 0: jump 2; 1: nop (dead); 2: ret
        let m = method(vec![Insn::Jump(2), Insn::Nop, Insn::Ret]);
        let cfg = Cfg::build(&m);
        let r = cfg.reachable();
        assert!(r.contains(&0) && r.contains(&2));
        assert!(!r.contains(&1));
    }

    #[test]
    fn dominance() {
        // 0: branch 3 ; 1: nop ; 2: jump 4 ; 3: nop ; 4: ret
        let m = method(vec![
            Insn::Branch(3),
            Insn::Nop,
            Insn::Jump(4),
            Insn::Nop,
            Insn::Ret,
        ]);
        let cfg = Cfg::build(&m);
        assert!(cfg.dominates(0, 4));
        assert!(!cfg.dominates(1, 4), "4 reachable via 3");
        assert!(!cfg.dominates(3, 4));
        assert!(cfg.dominates(4, 4));
    }
}
