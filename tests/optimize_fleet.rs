//! End-to-end tests of the fleet optimizer (`heapdrag optimize-fleet`):
//! the closed profile → rank → rewrite → verify → re-profile loop.
//!
//! Pinned here:
//!
//! * the scoreboard is **deterministic**: byte-identical text and JSON at
//!   shard counts 1/4/7 and pool sizes 1/4;
//! * rejected rewrites are **reported, not swallowed**, and never reach
//!   disk (the `rejected-by-verify` leg, driven by an injected verifier);
//! * the full fleet, nine workloads × both inputs, reduces drag on at
//!   least three jobs with every rewrite verified or rejected — the
//!   paper's loop, closed mechanically — and its scoreboard is the fleet
//!   table pinned in EXPERIMENTS.md (see `tests/pinned/mod.rs`).

mod pinned;

use heapdrag::fleet::{optimize_fleet, FleetOptions, InputSelection, Scoreboard};
use heapdrag::transform::{Equivalence, RewriteOutcome};
use heapdrag::vm::error::VmError;
use heapdrag::vm::program::Program;
use heapdrag::vm::retain::RetainConfig;

fn fleet(workloads: &[&str], shards: usize, pool: usize, inputs: InputSelection) -> Scoreboard {
    let options = FleetOptions {
        workloads: workloads.iter().map(|s| s.to_string()).collect(),
        inputs,
        shards,
        pool_workers: pool,
        ..FleetOptions::default()
    };
    optimize_fleet(&options, None).expect("fleet run")
}

#[test]
fn scoreboard_is_byte_identical_across_shards_and_pools() {
    let workloads = ["jess", "juru", "analyzer"];
    let baseline = fleet(&workloads, 1, 1, InputSelection::Both);
    let base_text = baseline.render_text();
    let base_json = baseline.render_json();
    assert!(
        baseline.jobs.iter().all(|j| j.error.is_none()),
        "baseline jobs failed: {base_text}"
    );

    for (shards, pool) in [(4, 4), (7, 1), (7, 4), (1, 4)] {
        let board = fleet(&workloads, shards, pool, InputSelection::Both);
        assert_eq!(
            base_text,
            board.render_text(),
            "text scoreboard diverged at shards={shards} pool={pool}"
        );
        assert_eq!(
            base_json,
            board.render_json(),
            "json scoreboard diverged at shards={shards} pool={pool}"
        );
    }
}

#[test]
fn unknown_workload_is_an_error_not_a_job() {
    let options = FleetOptions {
        workloads: vec!["jess".into(), "nope".into()],
        ..FleetOptions::default()
    };
    let err = optimize_fleet(&options, None).unwrap_err();
    assert!(err.contains("nope"), "unhelpful error: {err}");
}

/// A verifier that rejects every rewrite: whatever the optimizer applies
/// must be reverted, reported as `rejected-by-verify`, and kept off disk.
fn reject_everything(
    _original: &Program,
    _revised: &Program,
    inputs: &[Vec<i64>],
) -> Result<Equivalence, VmError> {
    Ok(Equivalence::Different {
        input: inputs.first().cloned().unwrap_or_default(),
        original: vec![0],
        revised: vec![1],
    })
}

#[test]
fn rejected_rewrites_are_reported_and_never_written() {
    let options = FleetOptions {
        workloads: vec!["jess".into(), "juru".into()],
        verify: reject_everything,
        ..FleetOptions::default()
    };
    let board = optimize_fleet(&options, None).expect("fleet run");

    let rejected: usize = board
        .jobs
        .iter()
        .map(|j| j.outcome_count(RewriteOutcome::RejectedByVerify))
        .sum();
    assert!(rejected > 0, "the stub verifier never fired");

    for j in &board.jobs {
        assert!(
            j.error.is_none(),
            "{}/{} failed: {:?}",
            j.workload,
            j.input,
            j.error
        );
        // Every rejection is reported with the apply detail *and* the
        // revert reason — not swallowed.
        for a in &j.attempts {
            assert_ne!(
                a.outcome,
                RewriteOutcome::Applied,
                "a rewrite survived a rejecting verifier: {a:?}"
            );
            if a.outcome == RewriteOutcome::RejectedByVerify {
                assert!(
                    a.detail.contains("reverted"),
                    "rejection lacks revert detail: {a:?}"
                );
            }
        }
        // Nothing committed → the profile never changes and there is no
        // revised program to write.
        assert!(j.applied.is_empty());
        assert!(j.revised.is_none());
        assert_eq!(j.before, j.after, "{}/{} drag moved", j.workload, j.input);
    }

    // The scoreboard surfaces the rejections…
    let text = board.render_text();
    assert!(text.contains("rejected-by-verify"), "{text}");
    // …and write_revised refuses to write anything.
    let dir = std::env::temp_dir().join(format!("heapdrag-fleet-reject-{}", std::process::id()));
    let written = board.write_revised(&dir).expect("write_revised");
    assert!(
        written.is_empty(),
        "rejected rewrites reached disk: {written:?}"
    );
    let leftover = std::fs::read_dir(&dir).expect("dir exists").count();
    assert_eq!(leftover, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retaining-path acceptance loop: on `analyzer`, the drag-heavy
/// vector-element sites are rooted in `static analyzer.Mutability.graph`,
/// but their reference locals are all still live at the last use — so
/// liveness-driven assign-null has nothing to insert and the site no-ops.
/// With retain sampling on, the sampled path names the static holder and
/// the optimizer places `pushnull; putstatic` after the profile's
/// dominant last use instead — a rewrite it could not place before, and
/// still gated by the output-differential verifier like every other.
#[test]
fn path_anchoring_places_assign_null_where_liveness_cannot() {
    let base_options = FleetOptions {
        workloads: vec!["analyzer".into()],
        inputs: InputSelection::Default,
        ..FleetOptions::default()
    };
    let baseline = optimize_fleet(&base_options, None).expect("baseline fleet run");
    assert_eq!(baseline.total_path_anchored(), 0);
    assert!(
        baseline.jobs[0]
            .attempts
            .iter()
            .any(|a| a.detail.contains("no dead reference locals found")),
        "precondition lost: liveness now places every assign-null on analyzer:\n{}",
        baseline.render_text()
    );
    assert!(
        !baseline.render_text().contains("path-anchored"),
        "scoreboard mentions path anchoring without sampling:\n{}",
        baseline.render_text()
    );

    let retain_options = FleetOptions {
        retain: RetainConfig::from_rate(0.25),
        ..base_options
    };
    let board = optimize_fleet(&retain_options, None).expect("retain fleet run");
    let job = &board.jobs[0];
    assert!(job.error.is_none(), "{:?}", job.error);
    assert!(
        board.total_path_anchored() >= 1,
        "no path-anchored assign-null placed:\n{}",
        board.render_text()
    );
    for a in job.attempts.iter().filter(|a| a.path_anchored) {
        assert_eq!(a.outcome, RewriteOutcome::Applied, "{a:?}");
        assert!(
            a.detail
                .contains("path-anchored: nulled static analyzer.Mutability.graph"),
            "{a:?}"
        );
    }
    // The placement is reported in both renderings…
    let text = board.render_text();
    assert!(
        text.contains("path-anchored assign-null:"),
        "scoreboard line missing:\n{text}"
    );
    assert!(board.render_json().contains("\"path_anchored\": true"));
    // …and the committed program still passes the output-differential
    // check on both stock inputs, like every fleet rewrite.
    let revised = job.revised.as_ref().expect("rewrites were committed");
    let w = heapdrag::workloads::workload_by_name("analyzer").unwrap();
    let verdict = heapdrag::transform::check_equivalence(
        &w.original(),
        revised,
        &[(w.default_input)(), (w.alternate_input)()],
    )
    .expect("revised program runs");
    assert_eq!(verdict, Equivalence::Same);

    // Sampling is seeded: the whole retain-driven scoreboard is
    // reproducible byte-for-byte.
    let again = optimize_fleet(&retain_options, None).expect("repeat fleet run");
    assert_eq!(board.render_text(), again.render_text());
    assert_eq!(board.render_json(), again.render_json());
}

#[test]
fn full_fleet_reduces_drag_with_every_rewrite_verified() {
    let board = fleet(&[], 4, 4, InputSelection::Both);
    assert_eq!(board.jobs.len(), 18, "all nine workloads on both inputs");
    assert!(
        board.jobs.iter().all(|j| j.error.is_none()),
        "jobs failed:\n{}",
        board.render_text()
    );
    assert!(
        board.jobs_with_reduction() >= 3,
        "expected ≥3 workloads with nonzero drag reduction:\n{}",
        board.render_text()
    );
    for j in &board.jobs {
        // Every attempt carries the stable taxonomy; every *applied* one
        // passed the output-differential check by construction, so the
        // committed program must agree with the original on both inputs.
        for a in &j.attempts {
            assert!(matches!(
                a.outcome.as_str(),
                "applied" | "rejected-by-analysis" | "rejected-by-verify" | "no-op"
            ));
        }
        assert_eq!(
            j.outcome_count(RewriteOutcome::Applied),
            j.applied.len(),
            "{}/{} taxonomy out of sync",
            j.workload,
            j.input
        );
        if let Some(revised) = &j.revised {
            let w = heapdrag::workloads::workload_by_name(&j.workload).unwrap();
            let verdict = heapdrag::transform::check_equivalence(
                &w.original(),
                revised,
                &[(w.default_input)(), (w.alternate_input)()],
            )
            .expect("revised program runs");
            assert_eq!(verdict, Equivalence::Same, "{}/{}", j.workload, j.input);
        } else {
            assert!(j.applied.is_empty());
        }
    }

    // Metrics fold: publishing the scoreboard must reconcile with it.
    let registry = heapdrag::obs::Registry::new();
    board.publish_metrics(&registry);
    let snapshot = registry.render_prometheus();
    assert!(
        snapshot.contains("heapdrag_optimize_jobs_total 18"),
        "{snapshot}"
    );
    let applied: usize = board.jobs.iter().map(|j| j.applied.len()).sum();
    assert!(
        snapshot.contains(&format!(
            "heapdrag_optimize_attempts_total{{outcome=\"applied\"}} {applied}"
        )),
        "{snapshot}"
    );

    pinned::check(&[("fleet", board.render_text())]);
}
