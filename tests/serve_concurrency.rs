//! The serve acceptance test: 64 concurrent sessions — mixed text/binary
//! traces, mixed strict/salvage policies, mixed shard counts, interleaved
//! submission orders — through one shared decode pool must yield
//!
//! 1. per-session reports byte-identical to single-shot [`Pipeline`]
//!    runs of the same trace,
//! 2. a fleet-aggregate report invariant under arrival order and pool
//!    size (1, 4, and 7 workers), and
//! 3. transit memory bounded by the admission budget, asserted through
//!    `heapdrag_ingest_peak_buffered_bytes` and the
//!    `heapdrag_serve_inflight_chunks_peak` gauge,
//!
//! with the `heapdrag_serve_*` counters reconciling exactly at idle.

use std::io::Read;

use heapdrag::core::serve::session_cost;
use heapdrag::core::{
    LogFormat, Pipeline, ProfileRun, ReportSections, ServeConfig, ServeManager, SessionId,
    SessionSource, SessionSpec, SessionState,
};
use heapdrag::obs::Registry;
use heapdrag::vm::Program;
use heapdrag::workloads::workload_by_name;

const POOL_SIZES: [usize; 3] = [1, 4, 7];
const BUDGET: u64 = 32;

fn profile(program: &Program, name: &str) -> ProfileRun {
    let w = workload_by_name(name).expect("workload exists");
    heapdrag::core::profile(
        program,
        &(w.default_input)(),
        heapdrag::core::VmConfig::profiling(),
    )
    .unwrap_or_else(|e| panic!("{name} profiles: {e}"))
}

fn encode(run: &ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    Pipeline::options()
        .format(format)
        .write_to(run, program, &mut buf)
        .expect("writes");
    buf
}

/// The same deterministic synthetic trace shape `streaming_parity` uses,
/// sized so chunking engages at `chunk_records(64)`.
fn synthetic_text_log() -> String {
    let mut text = String::from("heapdrag-log v1\n");
    for c in 0..6 {
        text.push_str(&format!("chain {c} Main.site{c}@{c}\n"));
    }
    for i in 0u64..400 {
        let (last, uchain) = if i.is_multiple_of(5) {
            ("-".to_string(), "-".to_string())
        } else {
            ((i * 5 + 90).to_string(), (i % 6).to_string())
        };
        text.push_str(&format!(
            "obj {i} {} {} {} {} {last} {} {uchain} {}\n",
            2 + i % 3,
            8 + (i % 17) * 24,
            i * 5,
            i * 5 + 350 + (i % 7) * 40,
            i % 6,
            u8::from(i.is_multiple_of(9)),
        ));
        if i.is_multiple_of(25) {
            text.push_str(&format!("gc {} {} {}\n", i * 5 + 10, 4000 + i * 11, 40 + i));
        }
    }
    text.push_str("end 2500\n");
    text
}

/// One distinct (trace, pipeline) combination, with the single-shot
/// expected report computed once up front.
struct Spec {
    name: String,
    bytes: Vec<u8>,
    pipe: Pipeline,
    shards: usize,
    want: String,
}

impl Spec {
    fn new(name: &str, bytes: Vec<u8>, shards: usize, salvage: bool) -> Spec {
        let mut pipe = Pipeline::options().shards(shards).chunk_records(64);
        if salvage {
            pipe = pipe.salvage(None);
        }
        // The single-shot baseline: exactly what `heapdrag report` renders.
        let streamed = pipe.analyze_reader(&bytes[..]).expect("single-shot run");
        let mut sections = ReportSections::standard(&streamed.report, &streamed);
        if streamed.salvage.salvage {
            sections = sections.salvage_footer(&streamed.salvage);
        }
        let want = sections.render();
        Spec {
            name: name.to_string(),
            bytes,
            pipe,
            shards,
            want,
        }
    }
}

/// The 8 distinct session shapes; 64 sessions = 8 rounds over these.
fn build_specs() -> Vec<Spec> {
    let w = workload_by_name("jess").expect("workload exists");
    let program = w.original();
    let run = profile(&program, "jess");
    let text = encode(&run, &program, LogFormat::Text);
    let binary = encode(&run, &program, LogFormat::Binary);
    let synth = synthetic_text_log().into_bytes();
    let truncated = synth[..synth.len() * 3 / 5].to_vec();
    vec![
        Spec::new("jess-text-s1-strict", text.clone(), 1, false),
        Spec::new("jess-text-s4-salvage", text, 4, true),
        Spec::new("jess-bin-s7-strict", binary.clone(), 7, false),
        Spec::new("jess-bin-s4-salvage", binary, 4, true),
        Spec::new("synth-s1-salvage", synth.clone(), 1, true),
        Spec::new("synth-s7-strict", synth.clone(), 7, false),
        Spec::new("synth-cut-s4-salvage", truncated, 4, true),
        Spec::new("synth-s2-strict", synth, 2, false),
    ]
}

/// Submits 64 sessions (8 rounds over the 8 specs, in `order`) to a
/// fresh manager with `pool` decode workers, waits for idle, checks every
/// per-session report against its single-shot baseline plus the memory
/// and accounting invariants, and returns the fleet report.
fn run_fleet(specs: &[Spec], pool: usize, order: &[usize]) -> String {
    let registry = Registry::new();
    let manager = ServeManager::new(ServeConfig {
        pool_workers: pool,
        drivers: 4,
        budget_chunks: BUDGET,
        pipeline: Pipeline::options().chunk_records(64),
        registry: registry.clone(),
        ..ServeConfig::default()
    });
    let mut submitted: Vec<(SessionId, usize)> = Vec::new();
    for &spec_index in order {
        let spec = &specs[spec_index];
        let id = manager.submit(
            SessionSpec::new(spec.name.clone(), SessionSource::Bytes(spec.bytes.clone()))
                .pipeline(spec.pipe),
        );
        submitted.push((id, spec_index));
    }
    assert_eq!(submitted.len(), 64);
    manager.wait_idle();

    // 1. Per-session byte-identity against the single-shot baseline.
    for &(id, spec_index) in &submitted {
        let spec = &specs[spec_index];
        assert_eq!(
            manager.state(id),
            Some(SessionState::Completed),
            "{} ({id}) at pool {pool}",
            spec.name
        );
        let got = manager.report(id, 10).expect("completed session reports");
        assert_eq!(got, spec.want, "{} ({id}) at pool {pool}", spec.name);
    }

    // 3. The memory bound. Per session, the streaming engine never holds
    // more than its admission cost in decoded chunks plus one read block
    // of scanner carry; the fleet-wide in-flight peak stays within the
    // budget the sessions were admitted against.
    let mut max_peak = 0u64;
    for s in manager.sessions() {
        let stats = s.stats.as_ref().expect("completed session has stats");
        let spec = &specs[submitted.iter().find(|(id, _)| *id == s.id).unwrap().1];
        assert_eq!(s.cost, session_cost(spec.shards), "{}", spec.name);
        let bound = s.cost * stats.max_chunk_bytes + 2 * heapdrag::core::stream::READ_BLOCK as u64;
        assert!(
            stats.peak_buffered_bytes <= bound,
            "{}: peak {} over bound {bound} at pool {pool}",
            spec.name,
            stats.peak_buffered_bytes
        );
        max_peak = max_peak.max(stats.peak_buffered_bytes);
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.gauges["heapdrag_ingest_peak_buffered_bytes"],
        i64::try_from(max_peak).unwrap(),
        "the registry gauge carries the fleet-wide high-water mark"
    );
    let inflight_peak = snap.gauges["heapdrag_serve_inflight_chunks_peak"];
    assert!(
        inflight_peak > 0 && inflight_peak <= i64::try_from(BUDGET).unwrap(),
        "in-flight peak {inflight_peak} must stay within the budget {BUDGET}"
    );

    // Accounting reconciles exactly at idle.
    assert_eq!(snap.counters["heapdrag_serve_sessions_submitted_total"], 64);
    assert_eq!(snap.counters["heapdrag_serve_sessions_completed_total"], 64);
    assert_eq!(snap.counters["heapdrag_serve_sessions_failed_total"], 0);
    assert_eq!(
        snap.counters["heapdrag_serve_admission_rejections_total"],
        0
    );
    assert_eq!(snap.gauges["heapdrag_serve_active_sessions"], 0);
    assert_eq!(snap.gauges["heapdrag_serve_queued_sessions"], 0);
    assert_eq!(snap.gauges["heapdrag_serve_inflight_chunks"], 0);
    assert_eq!(
        snap.gauges["heapdrag_serve_pool_workers"],
        i64::try_from(pool).unwrap()
    );

    manager.fleet_report(10)
}

#[test]
fn sixty_four_sessions_match_single_shot_runs_at_every_pool_size() {
    let specs = build_specs();
    // Two arrival orders: spec-major rounds, and the reverse (so the
    // last-submitted spec of one order is the first of the other).
    let forward: Vec<usize> = (0..64).map(|i| i % 8).collect();
    let reverse: Vec<usize> = forward.iter().rev().copied().collect();

    let mut fleets: Vec<String> = Vec::new();
    for pool in POOL_SIZES {
        for order in [&forward, &reverse] {
            fleets.push(run_fleet(&specs, pool, order));
        }
    }
    // 2. The fleet aggregate is invariant under pool size and arrival
    // order, down to the byte.
    let first = &fleets[0];
    assert!(first.starts_with("=== fleet drag report: 64 sessions merged"));
    for (i, fleet) in fleets.iter().enumerate() {
        assert_eq!(fleet, first, "fleet report {i} diverged");
    }
}

/// A reader that panics the *driver* would be a manager bug; what the
/// pool must tolerate is a panicking decode job. Raw panicking jobs on
/// the shared pool — the worst case of a poisoned decode — must not
/// perturb concurrently running sessions (E010-style isolation: the
/// panic is contained and counted, everyone else's bytes are identical).
#[test]
fn panicking_pool_jobs_do_not_perturb_live_sessions() {
    let specs = build_specs();
    let registry = Registry::new();
    let manager = ServeManager::new(ServeConfig {
        pool_workers: 2,
        drivers: 2,
        budget_chunks: BUDGET,
        pipeline: Pipeline::options().chunk_records(64),
        registry: registry.clone(),
        ..ServeConfig::default()
    });
    let mut submitted = Vec::new();
    for round in 0..4 {
        for (spec_index, spec) in specs.iter().enumerate() {
            let id = manager.submit(
                SessionSpec::new(
                    format!("{}-{round}", spec.name),
                    SessionSource::Bytes(spec.bytes.clone()),
                )
                .pipeline(spec.pipe),
            );
            submitted.push((id, spec_index));
            // Interleave a hostile job between every submission.
            manager
                .pool()
                .execute(Box::new(|| panic!("poisoned decode job")));
        }
    }
    manager.wait_idle();
    for (id, spec_index) in submitted {
        assert_eq!(manager.state(id), Some(SessionState::Completed));
        assert_eq!(
            manager.report(id, 10).expect("completed"),
            specs[spec_index].want,
            "session {id} perturbed by a panicking pool job"
        );
    }
    // Hostile jobs may still be queued behind real decode work; give the
    // pool a moment to drain them before counting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while manager.pool().panics() < 32 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        manager.pool().panics(),
        32,
        "every hostile job was contained"
    );
}

/// Admission control under pressure: sessions whose combined cost
/// exceeds the budget queue rather than run, the queue drains in FIFO
/// order, and the in-flight gauge never exceeds the budget.
#[test]
fn admission_queues_sessions_beyond_the_budget_and_drains_them_all() {
    let synth = synthetic_text_log().into_bytes();
    let registry = Registry::new();
    let manager = ServeManager::new(ServeConfig {
        pool_workers: 2,
        drivers: 6,
        // cost(4 shards) = 8, so only one 4-shard session runs at a time
        // even though six drivers are available.
        budget_chunks: 8,
        pipeline: Pipeline::options().shards(4).chunk_records(64),
        registry: registry.clone(),
        ..ServeConfig::default()
    });
    let ids: Vec<SessionId> = (0..12)
        .map(|i| {
            manager.submit(SessionSpec::new(
                format!("pressured-{i}"),
                SessionSource::Bytes(synth.clone()),
            ))
        })
        .collect();
    manager.wait_idle();
    for id in ids {
        assert_eq!(manager.state(id), Some(SessionState::Completed));
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counters["heapdrag_serve_sessions_completed_total"], 12);
    assert_eq!(snap.gauges["heapdrag_serve_inflight_chunks_peak"], 8);
    assert_eq!(snap.gauges["heapdrag_serve_inflight_chunks"], 0);
}

/// A socket-free sanity check that `SessionSource::Reader` behaves like
/// `Bytes`: the reader is only pulled once the session runs, and the
/// report is identical.
#[test]
fn reader_sources_report_identically_to_byte_sources() {
    struct SlowReader {
        bytes: Vec<u8>,
        off: usize,
    }
    impl Read for SlowReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(97).min(self.bytes.len() - self.off);
            buf[..n].copy_from_slice(&self.bytes[self.off..self.off + n]);
            self.off += n;
            Ok(n)
        }
    }
    let specs = build_specs();
    let manager = ServeManager::new(ServeConfig {
        pool_workers: 2,
        drivers: 2,
        budget_chunks: BUDGET,
        pipeline: Pipeline::options().chunk_records(64),
        ..ServeConfig::default()
    });
    let spec = &specs[1];
    let id = manager.submit(
        SessionSpec::new(
            "reader",
            SessionSource::Reader(Box::new(SlowReader {
                bytes: spec.bytes.clone(),
                off: 0,
            })),
        )
        .pipeline(spec.pipe),
    );
    manager.wait_idle();
    assert_eq!(manager.report(id, 10).expect("completed"), spec.want);
}
