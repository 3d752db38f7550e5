//! Reaching definitions and use-def chains (§5.1: "possible uses of a
//! reference are identified using use-def chains").
//!
//! A *definition* of local `l` is either the method entry (parameters and
//! the implicit null initialisation of non-parameter locals) or a
//! `store l` at some pc. The forward may-analysis computes, for every
//! program point, which definitions can reach it; [`UseDefChains`] inverts
//! that into per-`load` definition sets and per-definition use sets.

use heapdrag_vm::class::Method;
use heapdrag_vm::insn::Insn;

use crate::cfg::Cfg;
use crate::dataflow::{solve, BitProblem, BitSet, Direction};

/// A definition site of a local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefSite {
    /// The value the local has on method entry (a parameter, or null).
    Entry {
        /// The local defined.
        local: u16,
    },
    /// A `store` instruction.
    Store {
        /// pc of the store.
        pc: u32,
        /// The local defined.
        local: u16,
    },
}

impl DefSite {
    /// The local variable this definition writes.
    pub fn local(&self) -> u16 {
        match self {
            DefSite::Entry { local } | DefSite::Store { local, .. } => *local,
        }
    }
}

struct ReachingProblem<'a> {
    code: &'a [Insn],
    defs: &'a [DefSite],
    /// def indices grouped by local, for kill sets.
    by_local: Vec<Vec<usize>>,
    entry_defs: BitSet,
}

impl BitProblem for ReachingProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn capacity(&self) -> usize {
        self.defs.len()
    }
    fn boundary(&self) -> BitSet {
        self.entry_defs.clone()
    }
    fn transfer(&self, pc: u32, fact: &mut BitSet) {
        if let Insn::Store(local) = self.code[pc as usize] {
            for &d in &self.by_local[local as usize] {
                fact.remove(d);
            }
            let this_def = self
                .defs
                .iter()
                .position(|d| matches!(d, DefSite::Store { pc: p, .. } if *p == pc))
                .expect("every store is a def");
            fact.insert(this_def);
        }
    }
}

/// The reaching-definitions solution for one method.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    defs: Vec<DefSite>,
    /// Definitions reaching the *entry* of each pc.
    in_: Vec<BitSet>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `method`.
    pub fn compute(method: &Method) -> Self {
        let mut defs: Vec<DefSite> = (0..method.num_locals)
            .map(|local| DefSite::Entry { local })
            .collect();
        for (pc, insn) in method.code.iter().enumerate() {
            if let Insn::Store(local) = insn {
                defs.push(DefSite::Store {
                    pc: pc as u32,
                    local: *local,
                });
            }
        }
        let mut by_local = vec![Vec::new(); method.num_locals as usize];
        for (i, d) in defs.iter().enumerate() {
            by_local[d.local() as usize].push(i);
        }
        let mut entry_defs = BitSet::new(defs.len());
        for i in 0..method.num_locals as usize {
            entry_defs.insert(i); // Entry defs are defs 0..num_locals
        }
        let cfg = Cfg::build(method);
        let problem = ReachingProblem {
            code: &method.code,
            defs: &defs,
            by_local,
            entry_defs,
        };
        let sol = solve(&problem, method, &cfg);
        ReachingDefs { defs, in_: sol.in_ }
    }

    /// All definition sites of the method, entry defs first.
    pub fn defs(&self) -> &[DefSite] {
        &self.defs
    }

    /// The definitions of `local` that may reach the entry of `pc`.
    pub fn reaching(&self, pc: u32, local: u16) -> Vec<DefSite> {
        self.in_[pc as usize]
            .iter()
            .map(|i| self.defs[i])
            .filter(|d| d.local() == local)
            .collect()
    }
}

/// Use-def and def-use chains derived from [`ReachingDefs`].
#[derive(Debug, Clone)]
pub struct UseDefChains {
    /// For each `load` pc: the definitions that may flow into it.
    pub use_to_defs: Vec<(u32, Vec<DefSite>)>,
}

impl UseDefChains {
    /// Builds the chains for `method`.
    pub fn build(method: &Method) -> Self {
        let rd = ReachingDefs::compute(method);
        let use_to_defs = method
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, insn)| match insn {
                Insn::Load(local) => Some((pc as u32, rd.reaching(pc as u32, *local))),
                _ => None,
            })
            .collect();
        UseDefChains { use_to_defs }
    }

    /// The definitions reaching the `load` at `pc`, if it is one.
    pub fn defs_for_use(&self, pc: u32) -> Option<&[DefSite]> {
        self.use_to_defs
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, d)| d.as_slice())
    }

    /// All `load` pcs that a given definition may flow into.
    pub fn uses_of_def(&self, def: DefSite) -> Vec<u32> {
        self.use_to_defs
            .iter()
            .filter(|(_, defs)| defs.contains(&def))
            .map(|(pc, _)| *pc)
            .collect()
    }

    /// Stores whose value can never reach any use — dead stores. (Assign-
    /// null rewrites intentionally create these; they are dead to the
    /// *program* but alive to the *collector*, which is the whole point —
    /// so no transformation eliminates them.)
    pub fn dead_stores(&self, method: &Method) -> Vec<u32> {
        method
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, insn)| match insn {
                Insn::Store(local) => {
                    let def = DefSite::Store {
                        pc: pc as u32,
                        local: *local,
                    };
                    if self.uses_of_def(def).is_empty() {
                        Some(pc as u32)
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::program::Program;

    fn build(body: impl FnOnce(&mut heapdrag_vm::builder::MethodBuilder<'_>)) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.declare_method("main", None, true, 1, 4);
        {
            let mut m = b.begin_body(main);
            body(&mut m);
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn straight_line_single_def() {
        // 0: push 1 ; 1: store 1 ; 2: load 1 ; 3: print ; 4: ret
        let p = build(|m| {
            m.push_int(1).store(1).load(1).print().ret();
        });
        let chains = UseDefChains::build(&p.methods[0]);
        let defs = chains.defs_for_use(2).unwrap();
        assert_eq!(defs, &[DefSite::Store { pc: 1, local: 1 }]);
    }

    #[test]
    fn merge_sees_both_definitions() {
        let p = build(|m| {
            m.load(0).push_int(0).aload().branch("else");
            m.push_int(1).store(1);
            m.jump("merge");
            m.label("else");
            m.push_int(2).store(1);
            m.label("merge");
            m.load(1).print().ret();
        });
        let method = &p.methods[0];
        let chains = UseDefChains::build(method);
        let load_pc = method
            .code
            .iter()
            .rposition(|i| matches!(i, Insn::Load(1)))
            .unwrap() as u32;
        let mut defs = chains.defs_for_use(load_pc).unwrap().to_vec();
        defs.sort();
        assert_eq!(
            defs.len(),
            2,
            "both branch stores reach the merge: {defs:?}"
        );
    }

    #[test]
    fn kill_removes_earlier_definition() {
        // store 1; store 1; load 1 — only the second store reaches.
        let p = build(|m| {
            m.push_int(1).store(1);
            m.push_int(2).store(1);
            m.load(1).print().ret();
        });
        let chains = UseDefChains::build(&p.methods[0]);
        let defs = chains.defs_for_use(4).unwrap();
        assert_eq!(defs, &[DefSite::Store { pc: 3, local: 1 }]);
    }

    #[test]
    fn loop_carried_definition_reaches_the_condition() {
        let p = build(|m| {
            m.push_int(0).store(1);
            m.label("loop");
            m.load(1).push_int(5).cmpge().branch("done");
            m.load(1).push_int(1).add().store(1);
            m.jump("loop");
            m.label("done");
            m.load(1).print().ret();
        });
        let chains = UseDefChains::build(&p.methods[0]);
        // The load at pc 2 (loop head) sees both the init store and the
        // loop-body store.
        let defs = chains.defs_for_use(2).unwrap();
        assert_eq!(defs.len(), 2, "{defs:?}");
    }

    #[test]
    fn entry_definition_reaches_unstored_local() {
        let p = build(|m| {
            m.load(0).pop().ret();
        });
        let chains = UseDefChains::build(&p.methods[0]);
        assert_eq!(
            chains.defs_for_use(0).unwrap(),
            &[DefSite::Entry { local: 0 }]
        );
    }

    #[test]
    fn dead_store_detected() {
        let p = build(|m| {
            m.push_int(9).store(2); // never loaded
            m.push_int(1).print().ret();
        });
        let method = &p.methods[0];
        let chains = UseDefChains::build(method);
        assert_eq!(chains.dead_stores(method), vec![1]);
    }

    #[test]
    fn def_use_inverse_is_consistent() {
        let p = build(|m| {
            m.push_int(3).store(1);
            m.load(1).load(1).add().print().ret();
        });
        let chains = UseDefChains::build(&p.methods[0]);
        let def = DefSite::Store { pc: 1, local: 1 };
        let uses = chains.uses_of_def(def);
        assert_eq!(uses, vec![2, 3]);
        for u in uses {
            assert!(chains.defs_for_use(u).unwrap().contains(&def));
        }
    }
}
