//! The profile-guided optimizer: §3.4's "putting it all together", run
//! mechanically. Given a drag profile, walk the allocation sites from
//! largest drag down and apply the transformation the site's lifetime
//! pattern suggests, with every safety check of the static analyses.
//!
//! Two levels of API:
//!
//! * [`optimize`] / [`optimize_iteratively`] — the whole-report drivers:
//!   walk every ranked site in one call (optionally looping
//!   profile → rewrite → re-profile rounds).
//! * [`optimize_site`] — one site at a time, threading an explicit
//!   [`OptimizeState`] between calls. This is the building block the
//!   fleet driver uses to make each rewrite *transactional*: clone the
//!   program, attempt one site, verify equivalence, and commit or revert.
//!
//! Every visited site produces a [`SiteAttempt`] carrying the stable
//! outcome taxonomy ([`RewriteOutcome`]): `applied`,
//! `rejected-by-analysis`, `rejected-by-verify` (assigned by callers that
//! run an output-differential check, e.g. the fleet driver), or `no-op`.

use std::collections::HashSet;
use std::fmt;

use heapdrag_core::analyzer::{DragReport, NestedSiteEntry};
use heapdrag_core::pattern::{LifetimePattern, TransformKind};
use heapdrag_core::profiler::ProfileRun;
use heapdrag_vm::ids::{ChainId, MethodId, StaticId};
use heapdrag_vm::program::Program;

use crate::assign_null::{assign_null_method, null_static_after};
use crate::dead_code::{remove_dead_allocation, DeadCodeContext};
use crate::lazy_alloc::{apply_lazy_allocation, find_lazy_candidates};

/// Tuning for the optimizer's site walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerOptions {
    /// Ignore sites contributing less than this share of the total drag.
    pub min_drag_share: f64,
    /// Visit at most this many sites.
    pub max_sites: usize,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            min_drag_share: 0.01,
            max_sites: 25,
        }
    }
}

/// Where a path-anchored assign-null would strike: the holding static
/// (named by the dominant sampled retaining path) and the pc right after
/// which to null it (the profile's dominant last-use point).
///
/// Resolved by [`find_path_anchor`], consumed by [`optimize_site`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAnchor {
    /// The static variable rooting the site's sampled objects.
    pub target: StaticId,
    /// Its name, for attempt details.
    pub static_name: String,
    /// Method containing the dominant last use.
    pub method: MethodId,
    /// Pc of the dominant last-use instruction; the null store lands
    /// right after it.
    pub pc: u32,
    /// The full sampled path, for attempt details.
    pub path: String,
}

/// Resolves the path-anchored assign-null opportunity at `site`, if any:
/// the report must carry retaining samples for the site
/// ([`DragReport::attach_retains`]), the dominant path must be rooted at
/// a static, and the profile must know a last-use point for the site's
/// objects.
pub fn find_path_anchor(
    program: &Program,
    run: &ProfileRun,
    report: &DragReport,
    site: ChainId,
) -> Option<PathAnchor> {
    let retain = report.retaining.iter().find(|r| r.site == site)?;
    let dominant = retain.dominant_path()?;
    let root = dominant.path.split(" -> ").next()?;
    let name = root.strip_prefix("static ")?;
    let target = program.static_by_name(name)?;
    // The pair partition is sorted by drag, so the first used pair for
    // this site is the dominant last use.
    let pair = report
        .by_alloc_and_last_use
        .iter()
        .find(|p| p.alloc_site == site && p.last_use_site.is_some())?;
    let use_site = run.sites.innermost(pair.last_use_site?)?;
    let info = run.sites.site(use_site);
    Some(PathAnchor {
        target,
        static_name: name.to_string(),
        method: info.method,
        pc: info.pc,
        path: dominant.path.clone(),
    })
}

/// One transformation the optimizer performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedTransform {
    /// The profiled site that motivated the rewrite.
    pub site: ChainId,
    /// Which of the three rewritings ran.
    pub kind: TransformKind,
    /// Human-readable description of what was changed.
    pub detail: String,
}

/// How a per-site rewrite attempt ended — the stable outcome taxonomy.
///
/// The string forms (via [`Display`](fmt::Display) or
/// [`as_str`](RewriteOutcome::as_str)) are part of the scoreboard and
/// metrics contract and must not change:
/// `applied` / `rejected-by-analysis` / `rejected-by-verify` / `no-op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteOutcome {
    /// The suggested rewriting (or its safe fallback) changed the program.
    Applied,
    /// A §5 static analysis refused the rewrite as potentially unsafe.
    RejectedByAnalysis,
    /// The rewrite was applied but an output-differential check showed a
    /// behaviour change, so it was reverted. Never produced by
    /// [`optimize_site`] itself — assigned by callers that verify (the
    /// fleet driver, `heapdrag optimize-fleet`).
    RejectedByVerify,
    /// Nothing to do at this site (pattern suggests no rewrite, no dead
    /// locals found, or the method was already rewritten this round).
    NoOp,
}

impl RewriteOutcome {
    /// The stable string form used in scoreboards and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RewriteOutcome::Applied => "applied",
            RewriteOutcome::RejectedByAnalysis => "rejected-by-analysis",
            RewriteOutcome::RejectedByVerify => "rejected-by-verify",
            RewriteOutcome::NoOp => "no-op",
        }
    }
}

impl fmt::Display for RewriteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The record of one ranked site's visit: which pattern it exhibited,
/// which rewriting the decision table chose, and how the attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteAttempt {
    /// The profiled allocation site (nested chain).
    pub site: ChainId,
    /// The lifetime pattern the analyzer classified the site as.
    pub pattern: LifetimePattern,
    /// The rewriting the pattern → transform decision table selected.
    pub chosen: TransformKind,
    /// How the attempt ended.
    pub outcome: RewriteOutcome,
    /// Human-readable detail (what changed, or why not).
    pub detail: String,
    /// True when the rewrite was placed by a sampled retaining path
    /// (path-anchored assign-null) rather than a static analysis.
    pub path_anchored: bool,
}

/// The optimizer's report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizationOutcome {
    /// Transformations applied, in site-drag order.
    pub applied: Vec<AppliedTransform>,
    /// Sites visited whose suggested rewriting was refused by a safety
    /// check (site, reason).
    pub refused: Vec<(ChainId, String)>,
    /// One entry per ranked site visited, carrying the stable outcome
    /// taxonomy. Superset of the information in `applied`/`refused`.
    pub attempts: Vec<SiteAttempt>,
}

/// Cross-site state for one optimization round.
///
/// Pc-shifting rewrites (dead-code removal, lazy allocation, null-store
/// insertion) invalidate the profiled pcs of the methods they touch;
/// the state records those methods so later sites in the same round skip
/// them. Clone it before a tentative [`optimize_site`] call to make the
/// attempt revertible.
#[derive(Debug, Clone, Default)]
pub struct OptimizeState {
    nulled: HashSet<MethodId>,
    shifted: HashSet<MethodId>,
}

/// The result of one [`optimize_site`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStep {
    /// The taxonomy record for this site.
    pub attempt: SiteAttempt,
    /// Transformations applied at this site (possibly a fallback kind).
    pub applied: Vec<AppliedTransform>,
    /// Refusal reasons recorded at this site.
    pub refused: Vec<(ChainId, String)>,
}

fn assign_null_chain(
    program: &mut Program,
    run: &ProfileRun,
    site: ChainId,
    state: &mut OptimizeState,
) -> usize {
    let mut inserted = 0usize;
    for s in run.sites.chain(site) {
        let m = run.sites.site(*s).method;
        if state.nulled.contains(&m) || state.shifted.contains(&m) {
            continue;
        }
        if let Ok(n) = assign_null_method(program, m) {
            inserted += n;
            if n > 0 {
                // Insertions shift pcs; stale profiled pcs in this method
                // must not be rewritten further this round.
                state.shifted.insert(m);
            }
        }
        state.nulled.insert(m);
    }
    inserted
}

/// Attempts the pattern-appropriate rewriting at one ranked site.
///
/// `program` must be the program that produced `run` (profiled pcs are
/// looked up in it). On return the program may have been rewritten
/// in place — callers that need transactionality should clone `program`
/// (and `state`) first and commit or discard the pair based on
/// [`SiteStep::attempt`]. After committing, relink via `Program::link`.
///
/// `anchor` is the site's path-anchored assign-null opportunity (see
/// [`find_path_anchor`]); pass `None` to restrict assign-null to the
/// statically-safe liveness rewrite. An anchor is only consulted when
/// liveness inserts nothing, and the resulting attempt is flagged
/// [`SiteAttempt::path_anchored`] — callers passing `Some` must verify
/// the rewrite behind an output-differential check.
pub fn optimize_site(
    program: &mut Program,
    run: &ProfileRun,
    entry: &NestedSiteEntry,
    anchor: Option<&PathAnchor>,
    state: &mut OptimizeState,
) -> SiteStep {
    let pattern = entry.stats.pattern;
    let chosen = pattern.suggested_transform();
    let mut step = SiteStep {
        attempt: SiteAttempt {
            site: entry.site,
            pattern,
            chosen,
            outcome: RewriteOutcome::NoOp,
            detail: String::new(),
            path_anchored: false,
        },
        applied: Vec::new(),
        refused: Vec::new(),
    };
    let mut path_anchored = false;
    let mut resolve = |outcome: RewriteOutcome, detail: String| {
        step.attempt.outcome = outcome;
        step.attempt.detail = detail;
    };

    let Some(site_id) = run.sites.innermost(entry.site) else {
        resolve(
            RewriteOutcome::NoOp,
            "site has no resolvable innermost frame".into(),
        );
        return step;
    };
    let info = run.sites.site(site_id);
    let (method, pc) = (info.method, info.pc);

    match chosen {
        TransformKind::DeadCodeRemoval => {
            if state.shifted.contains(&method) {
                step.refused
                    .push((entry.site, "method already rewritten this round".into()));
                resolve(
                    RewriteOutcome::NoOp,
                    "method already rewritten this round".into(),
                );
                return step;
            }
            let ctx = DeadCodeContext::build(program);
            match remove_dead_allocation(program, &ctx, method, pc) {
                Ok(r) => {
                    state.shifted.insert(method);
                    let detail = format!(
                        "removed allocation at {}@{}{}",
                        program.method_name(method),
                        r.pc,
                        match r.ctor_call {
                            Some(c) => format!(" (+ constructor call at {c})"),
                            None => String::new(),
                        }
                    );
                    step.applied.push(AppliedTransform {
                        site: entry.site,
                        kind: TransformKind::DeadCodeRemoval,
                        detail: detail.clone(),
                    });
                    resolve(RewriteOutcome::Applied, detail);
                }
                Err(e) => {
                    step.refused.push((entry.site, e.to_string()));
                    // Fall back to the always-safe rewrite.
                    let n = assign_null_chain(program, run, entry.site, state);
                    if n > 0 {
                        let detail =
                            format!("fallback: inserted {n} null store(s) on the call chain");
                        step.applied.push(AppliedTransform {
                            site: entry.site,
                            kind: TransformKind::AssignNull,
                            detail: detail.clone(),
                        });
                        resolve(RewriteOutcome::Applied, format!("{e}; {detail}"));
                    } else {
                        resolve(
                            RewriteOutcome::RejectedByAnalysis,
                            format!("{e}; fallback inserted nothing"),
                        );
                    }
                }
            }
        }
        TransformKind::LazyAllocation => {
            if state.shifted.contains(&method) {
                step.refused
                    .push((entry.site, "method already rewritten this round".into()));
                resolve(
                    RewriteOutcome::NoOp,
                    "method already rewritten this round".into(),
                );
                return step;
            }
            let callgraph = heapdrag_analysis::CallGraph::build(program);
            let purity = heapdrag_analysis::Purity::build(program, &callgraph);
            // §3.4's anchor walk: the innermost frame is usually inside
            // library code (e.g. the array allocation in Vector.init);
            // walk the chain outwards to the first frame holding a
            // rewritable constructor shape around its call site.
            let candidate = run
                .sites
                .chain(entry.site)
                .iter()
                .filter(|s| !state.shifted.contains(&run.sites.site(**s).method))
                .find_map(|s| {
                    let info = run.sites.site(*s);
                    find_lazy_candidates(program, &purity, info.method)
                        .into_iter()
                        .find(|c| c.alloc_pc <= info.pc && info.pc <= c.store_pc)
                });
            match candidate.as_ref() {
                Some(c) => match apply_lazy_allocation(program, c) {
                    Ok(applied) => {
                        state.shifted.insert(method);
                        state.shifted.insert(c.ctor);
                        for g in &applied.guards {
                            state.shifted.insert(g.method);
                        }
                        let detail = format!(
                            "delayed allocation of field slot {} of {} ({} guard(s))",
                            c.slot,
                            program.classes[c.class.index()].name,
                            applied.guards.len()
                        );
                        step.applied.push(AppliedTransform {
                            site: entry.site,
                            kind: TransformKind::LazyAllocation,
                            detail: detail.clone(),
                        });
                        resolve(RewriteOutcome::Applied, detail);
                    }
                    Err(e) => {
                        step.refused.push((entry.site, e.to_string()));
                        resolve(RewriteOutcome::RejectedByAnalysis, e.to_string());
                    }
                },
                None => {
                    let reason = "no lazy-allocation candidate at this site".to_string();
                    step.refused.push((entry.site, reason.clone()));
                    resolve(RewriteOutcome::RejectedByAnalysis, reason);
                }
            }
        }
        TransformKind::AssignNull => {
            // Null dead references in every method on the call chain —
            // the §3.4 anchor walk.
            let inserted = assign_null_chain(program, run, entry.site, state);
            if inserted > 0 {
                let detail = format!("inserted {inserted} null store(s) on the call chain");
                step.applied.push(AppliedTransform {
                    site: entry.site,
                    kind: TransformKind::AssignNull,
                    detail: detail.clone(),
                });
                resolve(RewriteOutcome::Applied, detail);
            } else if let Some(a) = anchor.filter(|a| !state.shifted.contains(&a.method)) {
                // Liveness found nothing to null: the drag is rooted in a
                // static, not a frame slot. The sampled retaining path
                // names the static; null it right after the profile's
                // dominant last use. Verification is the caller's gate.
                null_static_after(program, a.method, a.pc, a.target);
                state.shifted.insert(a.method);
                path_anchored = true;
                let detail = format!(
                    "no dead reference locals; path-anchored: nulled static {} \
                     after last use at {}@{} (sampled path `{}`)",
                    a.static_name,
                    program.method_name(a.method),
                    a.pc,
                    a.path,
                );
                step.applied.push(AppliedTransform {
                    site: entry.site,
                    kind: TransformKind::AssignNull,
                    detail: detail.clone(),
                });
                resolve(RewriteOutcome::Applied, detail);
            } else {
                let reason = "no dead reference locals found".to_string();
                step.refused.push((entry.site, reason.clone()));
                resolve(RewriteOutcome::NoOp, reason);
            }
        }
        TransformKind::NoTransformation => {
            let reason = format!("pattern `{}` suggests no rewrite", pattern);
            step.refused.push((entry.site, reason.clone()));
            resolve(RewriteOutcome::NoOp, reason);
        }
    }
    step.attempt.path_anchored = path_anchored;
    step
}

/// Rewrites `program` in place, guided by `run`/`report`.
///
/// The program must be the one that produced the profile (site pcs are
/// looked up in it). After the call the program is relinked by the caller
/// via [`Program::link`] — the transforms keep jump targets consistent, so
/// this is just a revalidation.
///
/// It attempts no path-anchored assign-null: that placement is guided by
/// the profile, not proven by an analysis, so only a caller that verifies
/// every rewrite (`optimize-fleet`) computes anchors, with
/// [`find_path_anchor`].
pub fn optimize(
    program: &mut Program,
    run: &ProfileRun,
    report: &DragReport,
    options: OptimizerOptions,
) -> OptimizationOutcome {
    let mut outcome = OptimizationOutcome::default();
    let total_drag = report.total_drag().max(1);
    let mut state = OptimizeState::default();

    for entry in report.by_nested_site.iter().take(options.max_sites) {
        let share = entry.stats.drag as f64 / total_drag as f64;
        if share < options.min_drag_share {
            break;
        }
        if run.sites.innermost(entry.site).is_none() {
            continue;
        }
        let step = optimize_site(program, run, entry, None, &mut state);
        outcome.applied.extend(step.applied);
        outcome.refused.extend(step.refused);
        outcome.attempts.push(step.attempt);
    }
    let _ = LifetimePattern::Mixed; // referenced for doc-link stability
    outcome
}

/// Runs profile → optimize → re-profile cycles, as §3.2 describes
/// ("sometimes, the results revealed more opportunities for drag
/// reduction; in that case, another cycle of code rewriting and applying
/// the tool took place"). Re-profiling also refreshes site pcs after
/// pc-shifting rewrites. Stops early when a round applies nothing.
///
/// ```
/// use heapdrag_transform::{optimize_iteratively, OptimizerOptions};
/// use heapdrag_vm::interp::{Vm, VmConfig};
/// use heapdrag_vm::ProgramBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// let main = b.declare_method("main", None, true, 1, 2);
/// {
///     let mut m = b.begin_body(main);
///     m.push_int(4000).new_array().store(1); // big buffer…
///     m.load(1).push_int(0).push_int(7).astore();
///     m.load(1).push_int(0).aload().print(); // …last used here…
///     m.push_int(64).new_array().pop(); // …drags across this allocation
///     m.ret();
///     m.finish();
/// }
/// b.set_entry(main);
/// let original = b.finish()?;
///
/// let mut revised = original.clone();
/// let outcome = optimize_iteratively(
///     &mut revised,
///     &[],
///     VmConfig::profiling(),
///     OptimizerOptions::default(),
///     3,
/// )?;
/// assert!(!outcome.applied.is_empty(), "the dragged buffer gets a rewrite");
///
/// // Behaviour is preserved: same output on the original input.
/// let o1 = Vm::new(&original, VmConfig::default()).run(&[])?.output;
/// let o2 = Vm::new(&revised, VmConfig::default()).run(&[])?.output;
/// assert_eq!(o1, o2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates VM errors from profiling runs.
pub fn optimize_iteratively(
    program: &mut Program,
    input: &[i64],
    config: heapdrag_vm::interp::VmConfig,
    options: OptimizerOptions,
    max_rounds: usize,
) -> Result<OptimizationOutcome, heapdrag_vm::error::VmError> {
    use heapdrag_core::analyzer::DragAnalyzer;
    let mut combined = OptimizationOutcome::default();
    for _ in 0..max_rounds {
        let run = heapdrag_core::profiler::profile(program, input, config.clone())?;
        let report = DragAnalyzer::new().analyze(&run.records, |ch| run.sites.innermost(ch));
        let outcome = optimize(program, &run, &report, options);
        program
            .link()
            .expect("transforms keep the program well-formed");
        let progressed = !outcome.applied.is_empty();
        combined.applied.extend(outcome.applied);
        combined.refused.extend(outcome.refused);
        combined.attempts.extend(outcome.attempts);
        if !progressed {
            break;
        }
    }
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_core::{profile, DragAnalyzer, Integrals, VmConfig};
    use heapdrag_vm::builder::ProgramBuilder;
    use heapdrag_vm::class::Visibility;
    use heapdrag_vm::interp::Vm;

    /// One program exhibiting all three patterns at different sites.
    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let c = b
            .begin_class("Obj")
            .field("f", Visibility::Private)
            .finish();
        let filler = b.declare_method("filler", None, true, 0, 1);
        {
            let mut m = b.begin_body(filler);
            m.push_int(0).store(0);
            m.label("loop");
            m.load(0).push_int(300).cmpge().branch("done");
            m.push_int(32).new_array().pop();
            m.load(0).push_int(1).add().store(0);
            m.jump("loop");
            m.label("done").ret();
            m.finish();
        }
        let main = b.declare_method("main", None, true, 1, 3);
        {
            let mut m = b.begin_body(main);
            // Site A: never-used objects (dead-code removal).
            m.push_int(0).store(2);
            m.label("never_loop");
            m.load(2).push_int(40).cmpge().branch("never_done");
            m.mark("site A: never used").new_obj(c).store(1);
            m.push_null().store(1);
            m.load(2).push_int(1).add().store(2);
            m.jump("never_loop");
            m.label("never_done");
            // Site B: big array genuinely *read* across some allocation
            // (so its in-use span is visible on the byte clock), then
            // dragged. The read matters: a write-only buffer would be
            // plain dead code to the indirect-usage analysis.
            m.push_int(3000)
                .mark("site B: dragged buffer")
                .new_array()
                .store(1);
            m.load(1).push_int(0).push_int(3).astore();
            m.push_int(64).new_array().pop(); // clock advances between uses
            m.load(1).push_int(0).aload().pop(); // last use: a *read*
            m.call(filler);
            m.push_int(17).print();
            m.ret();
            m.finish();
        }
        b.set_entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn optimizer_applies_pattern_appropriate_transforms() {
        let original = mixed_program();
        let run = profile(&original, &[], VmConfig::profiling()).unwrap();
        let report = DragAnalyzer::new().analyze(&run.records, |ch| run.sites.innermost(ch));
        let mut revised = original.clone();
        let outcome = optimize(&mut revised, &run, &report, OptimizerOptions::default());
        revised.link().unwrap();

        let kinds: Vec<TransformKind> = outcome.applied.iter().map(|a| a.kind).collect();
        assert!(
            kinds.contains(&TransformKind::AssignNull),
            "dragged buffer wants assign-null; applied: {:?}, refused: {:?}",
            outcome.applied,
            outcome.refused
        );
        assert!(
            kinds.contains(&TransformKind::DeadCodeRemoval),
            "never-used site wants removal; applied: {:?}, refused: {:?}",
            outcome.applied,
            outcome.refused
        );

        // Behaviour preserved, space saved.
        let o1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(o1.output, o2.output);
        let r2 = profile(&revised, &[], VmConfig::profiling()).unwrap();
        let i1 = Integrals::from_records(&run.records);
        let i2 = Integrals::from_records(&r2.records);
        assert!(i2.reachable < i1.reachable);
    }

    #[test]
    fn optimizer_respects_min_share() {
        let original = mixed_program();
        let run = profile(&original, &[], VmConfig::profiling()).unwrap();
        let report = DragAnalyzer::new().analyze(&run.records, |ch| run.sites.innermost(ch));
        let mut revised = original.clone();
        let outcome = optimize(
            &mut revised,
            &run,
            &report,
            OptimizerOptions {
                min_drag_share: 1.1, // impossible share → nothing visited
                ..OptimizerOptions::default()
            },
        );
        assert!(outcome.applied.is_empty());
        assert!(outcome.attempts.is_empty());
    }

    #[test]
    fn attempts_carry_the_stable_taxonomy() {
        let original = mixed_program();
        let run = profile(&original, &[], VmConfig::profiling()).unwrap();
        let report = DragAnalyzer::new().analyze(&run.records, |ch| run.sites.innermost(ch));
        let mut revised = original.clone();
        let outcome = optimize(&mut revised, &run, &report, OptimizerOptions::default());

        // Every applied transform's site has an `applied` attempt, every
        // refused-only site a non-applied one.
        assert_eq!(
            outcome
                .attempts
                .iter()
                .filter(|a| a.outcome == RewriteOutcome::Applied)
                .count(),
            outcome.applied.len(),
            "attempts: {:?}",
            outcome.attempts
        );
        for a in &outcome.attempts {
            // The string forms are a stable contract.
            assert!(matches!(
                a.outcome.as_str(),
                "applied" | "rejected-by-analysis" | "rejected-by-verify" | "no-op"
            ));
            assert!(!a.detail.is_empty(), "attempt lacks detail: {a:?}");
        }
    }

    #[test]
    fn per_site_steps_compose_to_the_whole_report_walk() {
        let original = mixed_program();
        let run = profile(&original, &[], VmConfig::profiling()).unwrap();
        let report = DragAnalyzer::new().analyze(&run.records, |ch| run.sites.innermost(ch));

        let mut whole = original.clone();
        let expected = optimize(&mut whole, &run, &report, OptimizerOptions::default());

        let options = OptimizerOptions::default();
        let mut stepped = original.clone();
        let mut state = OptimizeState::default();
        let mut got = OptimizationOutcome::default();
        let total = report.total_drag().max(1);
        for entry in report.by_nested_site.iter().take(options.max_sites) {
            if (entry.stats.drag as f64 / total as f64) < options.min_drag_share {
                break;
            }
            if run.sites.innermost(entry.site).is_none() {
                continue;
            }
            let step = optimize_site(&mut stepped, &run, entry, None, &mut state);
            got.applied.extend(step.applied);
            got.refused.extend(step.refused);
            got.attempts.push(step.attempt);
        }
        assert_eq!(expected, got);
    }
}
