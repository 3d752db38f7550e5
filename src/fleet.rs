//! The fleet optimizer: the paper's loop — profile → rank → rewrite →
//! verify → re-profile — run as one batch over the nine-workload
//! evaluation suite, sharded on a [`WorkerPool`].
//!
//! Each workload × input is one pool job. A job:
//!
//! 1. profiles the original program on the fast interpreter,
//! 2. streams the trace through the [`Pipeline`] API (encode → ingest →
//!    sharded analyze) and ranks allocation sites by drag integral,
//! 3. for each ranked site, selects the pattern-appropriate rewriting
//!    (assign-null / dead-code / lazy-alloc) via the §5 analyses,
//! 4. applies it *transactionally*: the candidate program must pass an
//!    output-differential equivalence check
//!    ([`check_equivalence`]) on both benchmark inputs or the rewrite is
//!    reverted and recorded as `rejected-by-verify`,
//! 5. re-profiles and loops (up to [`FleetOptions::rounds`] rounds), and
//! 6. reports before/after drag integrals plus the per-site attempt log.
//!
//! The aggregated [`Scoreboard`] renders deterministically — byte-identical
//! at any pool size or shard count — because jobs write into
//! position-indexed slots, the VM is deterministic, and `Pipeline` reports
//! are shard-invariant. See `OPTIMIZER.md` for the operator's guide.

use std::io;
use std::path::{Path, PathBuf};

use heapdrag_core::analyzer::DragReport;
use heapdrag_core::codec::LogFormat;
use heapdrag_core::pattern::TransformKind;
use heapdrag_core::profiler::{profile, ProfileRun};
use heapdrag_core::serve::WorkerPool;
use heapdrag_core::{Integrals, Pipeline};
use heapdrag_obs::Registry;
use heapdrag_transform::{
    check_equivalence, find_path_anchor, optimize_site, AppliedTransform, Equivalence,
    OptimizeState, OptimizerOptions, RewriteOutcome, SiteAttempt,
};
use heapdrag_vm::disasm::disassemble;
use heapdrag_vm::error::VmError;
use heapdrag_vm::interp::{InterpreterKind, VmConfig};
use heapdrag_vm::program::Program;
use heapdrag_vm::retain::RetainConfig;
use heapdrag_workloads::{all_workloads, workload_by_name, Workload};

/// Which benchmark input(s) each workload is optimized against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSelection {
    /// The paper's Table 2 input only.
    Default,
    /// The Table 3 input only.
    Alternate,
    /// Both inputs, as two independent jobs.
    Both,
}

impl InputSelection {
    /// Parses the CLI spelling (`default` / `alternate` / `both`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "default" => Some(InputSelection::Default),
            "alternate" => Some(InputSelection::Alternate),
            "both" => Some(InputSelection::Both),
            _ => None,
        }
    }
}

/// The output-differential check a fleet run uses to accept or revert
/// each applied rewrite. The default is [`check_equivalence`]; tests
/// inject an always-rejecting stub to pin the revert path.
pub type VerifyFn = fn(&Program, &Program, &[Vec<i64>]) -> Result<Equivalence, VmError>;

/// Configuration for one [`optimize_fleet`] run.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Workload names to optimize; empty means all nine.
    pub workloads: Vec<String>,
    /// Which input(s) to profile and optimize against.
    pub inputs: InputSelection,
    /// Maximum profile → rewrite → re-profile rounds per job.
    pub rounds: usize,
    /// Worker threads in the fleet's pool (jobs run concurrently).
    pub pool_workers: usize,
    /// Shard count for the ranking pipeline (report is shard-invariant).
    pub shards: usize,
    /// Chunk granularity for the ranking pipeline.
    pub chunk_records: usize,
    /// Site-walk tuning passed through to the optimizer.
    pub optimizer: OptimizerOptions,
    /// Dispatch loop for the profiling runs.
    pub interpreter: InterpreterKind,
    /// Retaining-path sampling for the profiling runs; when set, the
    /// ranked report carries per-site retaining paths and `assign-null`
    /// can anchor on the sampled holder when liveness alone finds no
    /// dead local.
    pub retain: Option<RetainConfig>,
    /// The semantic-preservation check gating every rewrite.
    pub verify: VerifyFn,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            workloads: Vec::new(),
            inputs: InputSelection::Default,
            rounds: 3,
            pool_workers: 4,
            shards: 1,
            chunk_records: 8192,
            optimizer: OptimizerOptions::default(),
            interpreter: InterpreterKind::Fast,
            retain: None,
            verify: check_equivalence,
        }
    }
}

/// The result of one workload × input job.
#[derive(Debug, Clone)]
pub struct JobScore {
    /// Workload name (Table 1).
    pub workload: String,
    /// `default` or `alternate`.
    pub input: &'static str,
    /// Integrals of the profile before any rewriting.
    pub before: Integrals,
    /// Integrals of the final re-profile (equals `before` when nothing
    /// was applied — the same run is reused, so the tie is exact).
    pub after: Integrals,
    /// Ranking rounds executed.
    pub rounds_run: usize,
    /// Rewrites committed (each one passed the equivalence check).
    pub applied: Vec<AppliedTransform>,
    /// Every ranked site visited, with the stable outcome taxonomy.
    pub attempts: Vec<SiteAttempt>,
    /// The optimized program, present only when ≥ 1 rewrite committed.
    pub revised: Option<Program>,
    /// Set when the job failed (profiling error, unknown workload, or a
    /// worker panic); the integrals are zero in that case.
    pub error: Option<String>,
}

impl JobScore {
    fn empty(workload: &str, input: &'static str) -> Self {
        JobScore {
            workload: workload.to_string(),
            input,
            before: Integrals::default(),
            after: Integrals::default(),
            rounds_run: 0,
            applied: Vec::new(),
            attempts: Vec::new(),
            revised: None,
            error: None,
        }
    }

    fn failed(workload: &str, input: &'static str, error: String) -> Self {
        JobScore {
            error: Some(error),
            ..JobScore::empty(workload, input)
        }
    }

    /// Drag integral before rewriting (byte²).
    pub fn drag_before(&self) -> u128 {
        self.before.drag()
    }

    /// Drag integral after the final re-profile (byte²).
    pub fn drag_after(&self) -> u128 {
        self.after.drag()
    }

    /// Percentage of the drag integral reclaimed (0 when none existed).
    pub fn reduction_pct(&self) -> f64 {
        let before = self.drag_before();
        if before == 0 {
            return 0.0;
        }
        let saved = before.saturating_sub(self.drag_after());
        saved as f64 / before as f64 * 100.0
    }

    /// Number of attempts that ended with `outcome`.
    pub fn outcome_count(&self, outcome: RewriteOutcome) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.outcome == outcome)
            .count()
    }

    /// Number of committed rewrites of `kind`.
    pub fn applied_of_kind(&self, kind: TransformKind) -> usize {
        self.applied.iter().filter(|a| a.kind == kind).count()
    }

    /// Committed rewrites that were placed by a sampled retaining path
    /// (path-anchored assign-null) rather than a static analysis.
    pub fn path_anchored_count(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.path_anchored && a.outcome == RewriteOutcome::Applied)
            .count()
    }
}

/// The fleet-wide before/after drag accounting.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    /// One entry per workload × input, in fleet order (workload order of
    /// the request, inputs `default` before `alternate`).
    pub jobs: Vec<JobScore>,
}

/// Stable metric-label slug for a transform kind.
fn kind_slug(kind: TransformKind) -> &'static str {
    match kind {
        TransformKind::AssignNull => "assign-null",
        TransformKind::DeadCodeRemoval => "dead-code",
        TransformKind::LazyAllocation => "lazy-alloc",
        TransformKind::NoTransformation => "none",
    }
}

fn fmt_mb2(v: u128) -> String {
    format!("{:.3}", v as f64 / (1024.0 * 1024.0))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Scoreboard {
    /// Jobs whose final drag integral is strictly below the initial one.
    pub fn jobs_with_reduction(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.drag_after() < j.drag_before())
            .count()
    }

    fn total_outcome(&self, outcome: RewriteOutcome) -> usize {
        self.jobs.iter().map(|j| j.outcome_count(outcome)).sum()
    }

    fn total_applied_of_kind(&self, kind: TransformKind) -> usize {
        self.jobs.iter().map(|j| j.applied_of_kind(kind)).sum()
    }

    /// How many applied assign-nulls across the fleet were placed by a
    /// sampled retaining path rather than the liveness analysis.
    pub fn total_path_anchored(&self) -> usize {
        self.jobs.iter().map(|j| j.path_anchored_count()).sum()
    }

    /// Renders the deterministic text scoreboard.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== optimize-fleet scoreboard: {} job(s) ===\n\n",
            self.jobs.len()
        ));
        out.push_str(
            "workload   input      drag-before  drag-after   reduced  rounds  sites  \
             applied  rej-an  rej-ver  no-op  an/dc/la\n",
        );
        for j in &self.jobs {
            let an = j.applied_of_kind(TransformKind::AssignNull);
            let dc = j.applied_of_kind(TransformKind::DeadCodeRemoval);
            let la = j.applied_of_kind(TransformKind::LazyAllocation);
            out.push_str(&format!(
                "{:<10} {:<9} {:>12} {:>11} {:>8} {:>7} {:>6} {:>8} {:>7} {:>8} {:>6}  {}/{}/{}\n",
                j.workload,
                j.input,
                fmt_mb2(j.drag_before()),
                fmt_mb2(j.drag_after()),
                format!("{:.2}%", j.reduction_pct()),
                j.rounds_run,
                j.attempts.len(),
                j.outcome_count(RewriteOutcome::Applied),
                j.outcome_count(RewriteOutcome::RejectedByAnalysis),
                j.outcome_count(RewriteOutcome::RejectedByVerify),
                j.outcome_count(RewriteOutcome::NoOp),
                an,
                dc,
                la,
            ));
        }
        for j in self.jobs.iter().filter(|j| j.error.is_some()) {
            out.push_str(&format!(
                "!! {}/{} failed: {}\n",
                j.workload,
                j.input,
                j.error.as_deref().unwrap_or("")
            ));
        }

        let before: u128 = self.jobs.iter().map(|j| j.drag_before()).sum();
        let after: u128 = self.jobs.iter().map(|j| j.drag_after()).sum();
        let reclaimed = if before == 0 {
            0.0
        } else {
            before.saturating_sub(after) as f64 / before as f64 * 100.0
        };
        let failed = self.jobs.iter().filter(|j| j.error.is_some()).count();
        out.push_str("\n--- fleet totals ---\n");
        out.push_str(&format!(
            "jobs: {} ({} ok, {} failed), {} with drag reduced\n",
            self.jobs.len(),
            self.jobs.len() - failed,
            failed,
            self.jobs_with_reduction(),
        ));
        out.push_str(&format!(
            "drag before: {} MByte^2   after: {} MByte^2   reclaimed: {:.2}%\n",
            fmt_mb2(before),
            fmt_mb2(after),
            reclaimed,
        ));
        out.push_str(&format!(
            "rewrites: {} applied (assign-null {}, dead-code {}, lazy-alloc {}), \
             {} rejected-by-analysis, {} rejected-by-verify, {} no-op\n",
            self.total_outcome(RewriteOutcome::Applied),
            self.total_applied_of_kind(TransformKind::AssignNull),
            self.total_applied_of_kind(TransformKind::DeadCodeRemoval),
            self.total_applied_of_kind(TransformKind::LazyAllocation),
            self.total_outcome(RewriteOutcome::RejectedByAnalysis),
            self.total_outcome(RewriteOutcome::RejectedByVerify),
            self.total_outcome(RewriteOutcome::NoOp),
        ));
        // Only retain-sampled runs can anchor on a path, so sampling-off
        // scoreboards stay byte-identical to the pre-sampling golden.
        let path_anchored = self.total_path_anchored();
        if path_anchored > 0 {
            out.push_str(&format!(
                "path-anchored assign-null: {path_anchored} (placed by sampled retaining paths)\n",
            ));
        }
        out
    }

    /// Renders the scoreboard as stable JSON (fixed key order, one job
    /// per array element, attempt details included).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"jobs\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"input\": \"{}\", \
                 \"drag_before\": {}, \"drag_after\": {}, \
                 \"reachable_before\": {}, \"reachable_after\": {}, \
                 \"in_use_before\": {}, \"in_use_after\": {}, \
                 \"reduction_pct\": {:.4}, \"rounds\": {}, ",
                json_escape(&j.workload),
                j.input,
                j.drag_before(),
                j.drag_after(),
                j.before.reachable,
                j.after.reachable,
                j.before.in_use,
                j.after.in_use,
                j.reduction_pct(),
                j.rounds_run,
            ));
            out.push_str(&format!(
                "\"applied\": {{\"assign-null\": {}, \"dead-code\": {}, \"lazy-alloc\": {}}}, ",
                j.applied_of_kind(TransformKind::AssignNull),
                j.applied_of_kind(TransformKind::DeadCodeRemoval),
                j.applied_of_kind(TransformKind::LazyAllocation),
            ));
            out.push_str(&format!(
                "\"outcomes\": {{\"applied\": {}, \"rejected-by-analysis\": {}, \
                 \"rejected-by-verify\": {}, \"no-op\": {}}}, ",
                j.outcome_count(RewriteOutcome::Applied),
                j.outcome_count(RewriteOutcome::RejectedByAnalysis),
                j.outcome_count(RewriteOutcome::RejectedByVerify),
                j.outcome_count(RewriteOutcome::NoOp),
            ));
            out.push_str("\"attempts\": [");
            for (k, a) in j.attempts.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"site\": {}, \"pattern\": \"{}\", \"chosen\": \"{}\", \
                     \"outcome\": \"{}\", \"path_anchored\": {}, \"detail\": \"{}\"}}",
                    a.site.0,
                    json_escape(&a.pattern.to_string()),
                    json_escape(&a.chosen.to_string()),
                    a.outcome.as_str(),
                    a.path_anchored,
                    json_escape(&a.detail),
                ));
                if k + 1 < j.attempts.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("], ");
            match &j.error {
                Some(e) => out.push_str(&format!("\"error\": \"{}\"}}", json_escape(e))),
                None => out.push_str("\"error\": null}"),
            }
            if i + 1 < self.jobs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let before: u128 = self.jobs.iter().map(|j| j.drag_before()).sum();
        let after: u128 = self.jobs.iter().map(|j| j.drag_after()).sum();
        out.push_str(&format!(
            "  ],\n  \"totals\": {{\"jobs\": {}, \"reduced\": {}, \
             \"drag_before\": {}, \"drag_after\": {}}}\n}}\n",
            self.jobs.len(),
            self.jobs_with_reduction(),
            before,
            after,
        ));
        out
    }

    /// Publishes the fleet's accounting as `heapdrag_optimize_*` metrics.
    pub fn publish_metrics(&self, registry: &Registry) {
        let failed = self.jobs.iter().filter(|j| j.error.is_some()).count();
        registry
            .counter("heapdrag_optimize_jobs_total")
            .add(self.jobs.len() as u64);
        registry
            .counter("heapdrag_optimize_jobs_failed_total")
            .add(failed as u64);
        registry
            .counter("heapdrag_optimize_jobs_reduced_total")
            .add(self.jobs_with_reduction() as u64);
        registry
            .counter("heapdrag_optimize_rounds_total")
            .add(self.jobs.iter().map(|j| j.rounds_run as u64).sum());
        registry
            .counter("heapdrag_optimize_sites_ranked_total")
            .add(self.jobs.iter().map(|j| j.attempts.len() as u64).sum());
        for outcome in [
            RewriteOutcome::Applied,
            RewriteOutcome::RejectedByAnalysis,
            RewriteOutcome::RejectedByVerify,
            RewriteOutcome::NoOp,
        ] {
            registry
                .counter(&format!(
                    "heapdrag_optimize_attempts_total{{outcome=\"{}\"}}",
                    outcome.as_str()
                ))
                .add(self.total_outcome(outcome) as u64);
        }
        for kind in [
            TransformKind::AssignNull,
            TransformKind::DeadCodeRemoval,
            TransformKind::LazyAllocation,
        ] {
            registry
                .counter(&format!(
                    "heapdrag_optimize_applied_total{{kind=\"{}\"}}",
                    kind_slug(kind)
                ))
                .add(self.total_applied_of_kind(kind) as u64);
        }
        registry
            .counter("heapdrag_optimize_path_anchored_total")
            .add(self.total_path_anchored() as u64);
        let before: u128 = self.jobs.iter().map(|j| j.drag_before()).sum();
        let after: u128 = self.jobs.iter().map(|j| j.drag_after()).sum();
        registry
            .gauge("heapdrag_optimize_drag_before_bytes2")
            .set(i64::try_from(before).unwrap_or(i64::MAX));
        registry
            .gauge("heapdrag_optimize_drag_after_bytes2")
            .set(i64::try_from(after).unwrap_or(i64::MAX));
    }

    /// Writes each job's optimized program (jobs with ≥ 1 committed
    /// rewrite only — rejected rewrites never reach disk) as
    /// `<workload>-<input>.hdasm` under `dir`, returning the paths
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_revised(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for j in &self.jobs {
            let Some(program) = &j.revised else { continue };
            let path = dir.join(format!("{}-{}.hdasm", j.workload, j.input));
            std::fs::write(&path, disassemble(program))?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Ranks allocation sites for one profiling run by streaming its trace
/// through the `Pipeline` API: encode → (sharded) ingest → (sharded)
/// analyze. The report is byte-identical at any shard count.
fn ranked_report(
    pipe: &Pipeline,
    program: &Program,
    run: &ProfileRun,
) -> Result<DragReport, String> {
    let mut bytes: Vec<u8> = Vec::new();
    pipe.write_to(run, program, &mut bytes)
        .map_err(|e| format!("encode trace: {e}"))?;
    let ingested = pipe
        .ingest_bytes(&bytes)
        .map_err(|e| format!("ingest trace: {e}"))?;
    let (mut report, _metrics) =
        pipe.analyze_records(&ingested.log.records, |ch| run.sites.innermost(ch));
    // Retaining-path samples ride the same encoded trace; fold them onto
    // the ranked report so the optimizer can anchor assign-null rewrites.
    report.attach_retains(&ingested.log.retains);
    Ok(report)
}

fn run_job(workload: &Workload, input_label: &'static str, options: &FleetOptions) -> JobScore {
    let input = match input_label {
        "alternate" => (workload.alternate_input)(),
        _ => (workload.default_input)(),
    };
    let verify_inputs = vec![(workload.default_input)(), (workload.alternate_input)()];
    let original = workload.original();
    let mut config = VmConfig::profiling();
    config.interpreter = options.interpreter;
    config.retain = options.retain;
    let pipe = Pipeline::options()
        .shards(options.shards)
        .chunk_records(options.chunk_records)
        .format(LogFormat::Binary);

    let mut score = JobScore::empty(workload.name, input_label);
    let mut program = original.clone();
    let mut run = match profile(&program, &input, config.clone()) {
        Ok(r) => r,
        Err(e) => return JobScore::failed(workload.name, input_label, format!("profile: {e}")),
    };
    score.before = Integrals::from_records(&run.records);

    for _ in 0..options.rounds.max(1) {
        score.rounds_run += 1;
        let report = match ranked_report(&pipe, &program, &run) {
            Ok(r) => r,
            Err(e) => {
                score.error = Some(e);
                break;
            }
        };
        let total_drag = report.total_drag().max(1);
        let mut state = OptimizeState::default();
        let mut applied_this_round = 0usize;

        for entry in report
            .by_nested_site
            .iter()
            .take(options.optimizer.max_sites)
        {
            let share = entry.stats.drag as f64 / total_drag as f64;
            if share < options.optimizer.min_drag_share {
                break;
            }
            // Transactional attempt: rewrite a clone, keep it only if the
            // equivalence check accepts it. Every rewrite here is gated
            // by the verify below, so the profile-guided path anchor is
            // safe to offer.
            let anchor = find_path_anchor(&program, &run, &report, entry.site);
            let mut candidate = program.clone();
            let mut cand_state = state.clone();
            let mut step = optimize_site(
                &mut candidate,
                &run,
                entry,
                anchor.as_ref(),
                &mut cand_state,
            );
            if step.attempt.outcome != RewriteOutcome::Applied {
                // Nothing changed; keep the state so round-local skip
                // bookkeeping (nulled methods) matches the plain optimizer.
                state = cand_state;
                score.attempts.push(step.attempt);
                continue;
            }
            let verdict = match candidate.link() {
                Ok(()) => (options.verify)(&original, &candidate, &verify_inputs),
                Err(e) => Err(e),
            };
            match verdict {
                Ok(Equivalence::Same) => {
                    program = candidate;
                    state = cand_state;
                    applied_this_round += 1;
                    score.applied.append(&mut step.applied);
                    score.attempts.push(step.attempt);
                }
                Ok(Equivalence::Different { input, .. }) => {
                    step.attempt.outcome = RewriteOutcome::RejectedByVerify;
                    step.attempt.detail = format!(
                        "{}; reverted: output diverged on input {:?}",
                        step.attempt.detail, input
                    );
                    score.attempts.push(step.attempt);
                }
                Err(e) => {
                    step.attempt.outcome = RewriteOutcome::RejectedByVerify;
                    step.attempt.detail =
                        format!("{}; reverted: verify failed ({e})", step.attempt.detail);
                    score.attempts.push(step.attempt);
                }
            }
        }

        if applied_this_round == 0 || score.error.is_some() {
            break;
        }
        // Re-profile the rewritten program: refreshes the stale pcs for
        // the next round and provides the "after" integrals.
        run = match profile(&program, &input, config.clone()) {
            Ok(r) => r,
            Err(e) => {
                score.error = Some(format!("re-profile: {e}"));
                break;
            }
        };
    }

    score.after = Integrals::from_records(&run.records);
    if !score.applied.is_empty() {
        score.revised = Some(program);
    }
    score
}

/// Runs the full fleet: every requested workload × input as one
/// [`WorkerPool`] job, aggregated into a deterministic [`Scoreboard`].
///
/// When `registry` is given, the fleet's accounting is published as
/// `heapdrag_optimize_*` metrics after the jobs complete (a deterministic
/// fold over the scoreboard, so snapshots are pool-size-invariant too).
///
/// # Errors
///
/// Returns an error for an unknown workload name; individual job
/// failures are reported in their [`JobScore::error`] instead.
pub fn optimize_fleet(
    options: &FleetOptions,
    registry: Option<&Registry>,
) -> Result<Scoreboard, String> {
    let workloads: Vec<Workload> = if options.workloads.is_empty() {
        all_workloads()
    } else {
        options
            .workloads
            .iter()
            .map(|name| workload_by_name(name).ok_or_else(|| format!("unknown workload `{name}`")))
            .collect::<Result<_, _>>()?
    };
    let labels: &[&'static str] = match options.inputs {
        InputSelection::Default => &["default"],
        InputSelection::Alternate => &["alternate"],
        InputSelection::Both => &["default", "alternate"],
    };
    let specs: Vec<(&Workload, &'static str)> = workloads
        .iter()
        .flat_map(|w| labels.iter().map(move |l| (w, *l)))
        .collect();

    let mut slots: Vec<Option<JobScore>> = (0..specs.len()).map(|_| None).collect();
    {
        // A fleet-owned pool, distinct from `WorkerPool::shared()`: the
        // jobs call `Pipeline` terminals that fan out on the shared pool,
        // and a pool's own workers must not re-enter its `scope`.
        let pool = WorkerPool::new(options.pool_workers.max(1));
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = specs
            .iter()
            .zip(slots.iter_mut())
            .map(|((workload, label), slot)| {
                let workload: &Workload = workload;
                let label: &'static str = label;
                Box::new(move || {
                    *slot = Some(run_job(workload, label, options));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(jobs);
    }

    let scoreboard = Scoreboard {
        jobs: specs
            .iter()
            .zip(slots)
            .map(|((workload, label), slot)| {
                slot.unwrap_or_else(|| {
                    JobScore::failed(workload.name, label, "worker panicked".into())
                })
            })
            .collect(),
    };
    if let Some(registry) = registry {
        scoreboard.publish_metrics(registry);
    }
    Ok(scoreboard)
}
