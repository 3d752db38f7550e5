//! Interning of code locations ("sites") and nested call-chain contexts.
//!
//! The paper reports drag per *nested allocation site* — the call chain
//! leading to the allocation, truncated to a configurable depth — and per
//! *nested last-use site*. The [`SiteTable`] interns both flavours so that
//! every profiling event carries only a compact [`ChainId`].

use std::collections::HashMap;

use crate::ids::{ChainId, MethodId, SiteId};
use crate::program::Program;

/// A single interned code location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// Method containing the site.
    pub method: MethodId,
    /// Program counter within the method.
    pub pc: u32,
}

/// Interning table for sites and nested site chains.
///
/// Cloneable so that a finished run can hand the table to the off-line
/// analyzer together with the object records.
#[derive(Debug, Clone, Default)]
pub struct SiteTable {
    sites: Vec<SiteInfo>,
    by_loc: HashMap<(MethodId, u32), SiteId>,
    chains: Vec<Vec<SiteId>>,
    by_chain: HashMap<Vec<SiteId>, ChainId>,
}

impl SiteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the location `(method, pc)`.
    pub fn intern_site(&mut self, method: MethodId, pc: u32) -> SiteId {
        if let Some(&id) = self.by_loc.get(&(method, pc)) {
            return id;
        }
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(SiteInfo { method, pc });
        self.by_loc.insert((method, pc), id);
        id
    }

    /// Interns a call chain (innermost site first).
    pub fn intern_chain(&mut self, chain: &[SiteId]) -> ChainId {
        if let Some(&id) = self.by_chain.get(chain) {
            return id;
        }
        let id = ChainId(self.chains.len() as u32);
        self.chains.push(chain.to_vec());
        self.by_chain.insert(chain.to_vec(), id);
        id
    }

    /// Looks up an interned site.
    pub fn site(&self, id: SiteId) -> &SiteInfo {
        &self.sites[id.index()]
    }

    /// Looks up an interned chain (innermost site first).
    pub fn chain(&self, id: ChainId) -> &[SiteId] {
        &self.chains[id.index()]
    }

    /// The innermost site of a chain, i.e. the *coarse* (non-nested) site.
    ///
    /// Returns `None` only for the empty chain, which the VM never produces.
    pub fn innermost(&self, id: ChainId) -> Option<SiteId> {
        self.chain(id).first().copied()
    }

    /// Number of interned sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of interned chains.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Formats one site like `Juru.indexDocument@12 "new char[]"`, using the
    /// method's site label when present.
    pub fn format_site(&self, program: &Program, id: SiteId) -> String {
        let info = self.site(id);
        let name = program.method_name(info.method);
        match program.methods[info.method.index()].site_label(info.pc) {
            Some(label) => format!("{name}@{} \"{label}\"", info.pc),
            None => format!("{name}@{}", info.pc),
        }
    }

    /// Formats a chain innermost-first, separated by ` <- `.
    pub fn format_chain(&self, program: &Program, id: ChainId) -> String {
        self.chain(id)
            .iter()
            .map(|s| self.format_site(program, *s))
            .collect::<Vec<_>>()
            .join(" <- ")
    }
}

/// Interned caller contexts: the call chain a frame runs in, innermost
/// site first, truncated to `site_depth - 1`, so that every frame carries a
/// single `u32`. Id 0 is the empty context.
///
/// The table is private to the interpreter and never feeds the
/// [`SiteTable`] numbering, so log output is unaffected by it.
#[derive(Debug)]
pub(crate) struct CtxTable {
    list: Vec<Vec<SiteId>>,
    by_ctx: HashMap<Vec<SiteId>, u32>,
    /// The buffer [`CtxTable::extend`] builds in, reused across calls.
    scratch: Vec<SiteId>,
}

impl CtxTable {
    /// A table containing only the empty context (id 0).
    pub(crate) fn new() -> Self {
        CtxTable {
            list: vec![Vec::new()],
            by_ctx: HashMap::from([(Vec::new(), 0)]),
            scratch: Vec::new(),
        }
    }

    /// `site` followed by the sites of context `ctx`, truncated to `len`.
    pub(crate) fn extend(&mut self, site: SiteId, ctx: u32, len: usize) -> &[SiteId] {
        self.scratch.clear();
        self.scratch.push(site);
        self.scratch.extend_from_slice(&self.list[ctx as usize]);
        self.scratch.truncate(len);
        &self.scratch
    }

    /// Interns [`extend`](Self::extend)`(site, ctx, len)` as a context,
    /// returning its stable id.
    pub(crate) fn intern_extended(&mut self, site: SiteId, ctx: u32, len: usize) -> u32 {
        self.extend(site, ctx, len);
        if let Some(&id) = self.by_ctx.get(self.scratch.as_slice()) {
            return id;
        }
        let id = self.list.len() as u32;
        self.list.push(self.scratch.clone());
        self.by_ctx.insert(self.scratch.clone(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_table_interns_stably() {
        let mut t = CtxTable::new();
        let a = t.intern_extended(SiteId(1), 0, 3);
        let b = t.intern_extended(SiteId(2), a, 3);
        assert_ne!(a, 0);
        assert_eq!(t.intern_extended(SiteId(2), a, 3), b);
        assert_eq!(
            t.extend(SiteId(3), b, 3),
            &[SiteId(3), SiteId(2), SiteId(1)]
        );
        // Truncation maps different parents to one context.
        let c = t.intern_extended(SiteId(2), 0, 1);
        assert_eq!(t.intern_extended(SiteId(2), b, 1), c);
        assert_eq!(t.intern_extended(SiteId(9), a, 0), 0);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = SiteTable::new();
        let a = t.intern_site(MethodId(0), 3);
        let b = t.intern_site(MethodId(0), 3);
        let c = t.intern_site(MethodId(0), 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.num_sites(), 2);
    }

    #[test]
    fn chain_interning() {
        let mut t = SiteTable::new();
        let s0 = t.intern_site(MethodId(0), 0);
        let s1 = t.intern_site(MethodId(1), 5);
        let c1 = t.intern_chain(&[s0, s1]);
        let c2 = t.intern_chain(&[s0, s1]);
        let c3 = t.intern_chain(&[s1, s0]);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        assert_eq!(t.chain(c1), &[s0, s1]);
        assert_eq!(t.innermost(c1), Some(s0));
        assert_eq!(t.num_chains(), 2);
    }

    #[test]
    fn empty_chain_has_no_innermost() {
        let mut t = SiteTable::new();
        let c = t.intern_chain(&[]);
        assert_eq!(t.innermost(c), None);
    }
}
