//! Seeded stress schedules for the serve layer: random session mixes —
//! clean and fault-mutated traces, sources that panic mid-read, strict
//! and salvage policies, random shard counts, interleaved cancels,
//! occasional over-budget rejects —
//! against a randomly sized shared pool. Every case must finish inside a
//! bounded-time watchdog (no deadlocks), panic-free, with every session
//! in a terminal state and the `heapdrag_serve_*` counters reconciling
//! *exactly* against the final per-session states.

use std::io::Read;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use heapdrag::core::{
    Pipeline, ServeConfig, ServeManager, SessionId, SessionSource, SessionSpec, SessionState,
};
use heapdrag::obs::Registry;
use heapdrag_testkit::{check, inject, Fault, Rng};

/// The clean synthetic trace the fault mutators chew on.
fn clean_log() -> String {
    let mut text = String::from("heapdrag-log v1\n");
    for c in 0..6 {
        text.push_str(&format!("chain {c} Main.site{c}@{c}\n"));
    }
    for i in 0u64..300 {
        text.push_str(&format!(
            "obj {i} {} {} {} {} {} {} {} 0\n",
            2 + i % 3,
            8 + (i % 17) * 24,
            i * 5,
            i * 5 + 350 + (i % 7) * 40,
            i * 5 + 90,
            i % 6,
            i % 6,
        ));
    }
    text.push_str("end 2000\n");
    text
}

/// A session source that hands out its bytes, then panics on the next
/// read.
struct PanicReader {
    bytes: Vec<u8>,
}

impl Read for PanicReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.bytes.is_empty() {
            panic!("session source panicked mid-read");
        }
        let n = self.bytes.len().min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes.drain(..n);
        Ok(n)
    }
}

/// One pre-drawn session in a schedule. All randomness is drawn before
/// the watchdog thread starts so the case stays deterministic per seed.
struct PlannedSession {
    bytes: Vec<u8>,
    /// Read `bytes` through a [`PanicReader`] instead of from memory:
    /// the session must fail, and the service must carry on.
    panics: bool,
    shards: usize,
    salvage: bool,
    /// Cancel this session right after submitting the *next* one.
    cancel: bool,
}

struct Plan {
    pool_workers: usize,
    drivers: usize,
    budget_chunks: u64,
    sessions: Vec<PlannedSession>,
}

fn draw_plan(clean: &str, rng: &mut Rng) -> Plan {
    let sessions = rng.vec(6, 14, |rng| {
        let panics = rng.ratio(1, 8);
        let faulted = rng.ratio(2, 5);
        let bytes = if panics {
            // A clean prefix, so nothing but the panic can end the read.
            clean.as_bytes()[..clean.len() / 2].to_vec()
        } else if faulted {
            let fault = *rng.choose(&Fault::ALL);
            inject(clean, fault, rng).0.into_bytes()
        } else {
            clean.as_bytes().to_vec()
        };
        PlannedSession {
            bytes,
            panics,
            // Up to 8 shards (cost 16) against budgets as low as 6, so
            // some sessions are legitimately rejected at admission.
            shards: rng.range_usize(1, 9),
            salvage: rng.bool(),
            cancel: rng.ratio(1, 5),
        }
    });
    Plan {
        pool_workers: rng.range_usize(1, 4),
        drivers: rng.range_usize(1, 4),
        budget_chunks: rng.range_u64(6, 13),
        sessions,
    }
}

/// Runs one schedule and returns the per-state tallies plus the final
/// metrics snapshot; every assertion that needs the manager lives here
/// so the watchdog thread owns it end to end.
fn run_plan(plan: Plan) {
    let registry = Registry::new();
    let manager = ServeManager::new(ServeConfig {
        pool_workers: plan.pool_workers,
        drivers: plan.drivers,
        budget_chunks: plan.budget_chunks,
        max_queue: 1024,
        pipeline: Pipeline::options().chunk_records(32),
        registry: registry.clone(),
    });
    let mut ids: Vec<SessionId> = Vec::new();
    let mut pending_cancel: Option<SessionId> = None;
    for s in &plan.sessions {
        if let Some(id) = pending_cancel.take() {
            // Cancel the previous session while this submission races it:
            // it may already be running, done, or still queued — all legal.
            manager.cancel(id);
        }
        let mut pipe = Pipeline::options().shards(s.shards).chunk_records(32);
        if s.salvage {
            pipe = pipe.salvage(None);
        }
        let source = if s.panics {
            SessionSource::Reader(Box::new(PanicReader {
                bytes: s.bytes.clone(),
            }))
        } else {
            SessionSource::Bytes(s.bytes.clone())
        };
        let id = manager
            .submit(SessionSpec::new(format!("stress-{}", ids.len()), source).pipeline(pipe));
        if s.cancel {
            pending_cancel = Some(id);
        }
        ids.push(id);
    }
    if let Some(id) = pending_cancel {
        manager.cancel(id);
    }
    manager.wait_idle();

    // Every session reached a terminal state, and the counters reconcile
    // exactly with the final states — no lost or double-counted session.
    let mut by_state = std::collections::HashMap::new();
    for (s, planned) in manager.sessions().into_iter().zip(&plan.sessions) {
        assert!(s.state.is_terminal(), "{} stuck in {}", s.id, s.state);
        if planned.panics {
            assert_ne!(
                s.state,
                SessionState::Completed,
                "{} survived its panic",
                s.id
            );
            if s.state == SessionState::Failed {
                assert_eq!(s.error.as_deref(), Some("session panicked"));
            }
        }
        *by_state.entry(s.state).or_insert(0u64) += 1;
        if s.state == SessionState::Completed {
            assert!(s.stats.is_some(), "{} completed without stats", s.id);
            // A completed session's report must render (and deterministically).
            let a = manager.report(s.id, 5).expect("report renders");
            let b = manager.report(s.id, 5).expect("report renders");
            assert_eq!(a, b);
        }
    }
    let count = |state| by_state.get(&state).copied().unwrap_or(0);
    let snap = registry.snapshot();
    let total = plan.sessions.len() as u64;
    assert_eq!(
        snap.counters["heapdrag_serve_sessions_submitted_total"],
        total
    );
    assert_eq!(
        snap.counters["heapdrag_serve_sessions_completed_total"],
        count(SessionState::Completed)
    );
    assert_eq!(
        snap.counters["heapdrag_serve_sessions_failed_total"],
        count(SessionState::Failed)
    );
    assert_eq!(
        snap.counters["heapdrag_serve_sessions_canceled_total"],
        count(SessionState::Canceled)
    );
    assert_eq!(
        snap.counters["heapdrag_serve_admission_rejections_total"],
        count(SessionState::Rejected)
    );
    assert_eq!(
        count(SessionState::Completed)
            + count(SessionState::Failed)
            + count(SessionState::Canceled)
            + count(SessionState::Rejected),
        total,
        "states must partition the fleet"
    );

    // Admission accounting drained to zero and never exceeded the budget.
    assert_eq!(snap.gauges["heapdrag_serve_active_sessions"], 0);
    assert_eq!(snap.gauges["heapdrag_serve_queued_sessions"], 0);
    assert_eq!(snap.gauges["heapdrag_serve_inflight_chunks"], 0);
    let budget = i64::try_from(plan.budget_chunks).unwrap();
    assert!(
        snap.gauges["heapdrag_serve_inflight_chunks_peak"] <= budget,
        "in-flight peak {} exceeded budget {budget}",
        snap.gauges["heapdrag_serve_inflight_chunks_peak"]
    );

    // No decode job panicked: faults degrade to per-chunk errors, never
    // to a pool panic.
    assert_eq!(snap.gauges["heapdrag_serve_pool_panics"], 0);

    // The fleet report renders whatever the mix was.
    let fleet = manager.fleet_report(5);
    assert!(fleet.starts_with("=== fleet drag report:"), "{fleet}");
}

#[test]
fn random_session_schedules_never_deadlock_and_reconcile_exactly() {
    let clean = clean_log();
    check("serve-stress", 24, |rng: &mut Rng| {
        let plan = draw_plan(&clean, rng);
        // Bounded-time watchdog: the whole schedule — submissions,
        // cancels, drain, reconciliation — must finish well under the
        // deadline or we call it a deadlock.
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            run_plan(plan);
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => handle.join().expect("stress case panicked"),
            Err(RecvTimeoutError::Disconnected) => {
                handle.join().expect("stress case panicked");
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("serve stress case did not finish within 60s (deadlock?)")
            }
        }
    });
}
