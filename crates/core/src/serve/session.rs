//! The session registry and its driver threads: lifecycle states,
//! admission control on the fleet-wide in-flight-chunk budget, and the
//! deterministic fleet merge.
//!
//! See the [module docs](super) for the big picture and DESIGN.md §12
//! for the state machine and the invariants.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use heapdrag_obs::{Counter, Gauge, Registry};
use heapdrag_vm::ids::{ChainId, SiteId};

use crate::analyzer::ShardAccum;
use crate::log::SalvageSummary;
use crate::pipeline::{AnalyzePartials, Pipeline, PipelineError};
use crate::report::ReportSections;
use crate::serve::WorkerPool;
use crate::stream::flight_cap;

/// The admission-control cost of one session at `shards` decode shards:
/// the in-flight-chunk cap its streaming engine will run under, charged
/// up front against [`ServeConfig::budget_chunks`]. Because the engine
/// never holds more than this many chunks in transit, the sum of the
/// costs of all running sessions bounds the fleet's transit memory.
pub fn session_cost(shards: usize) -> u64 {
    flight_cap(shards) as u64
}

/// Configuration of a [`ServeManager`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decode worker threads in the manager-owned [`WorkerPool`].
    pub pool_workers: usize,
    /// Driver threads — the maximum number of *running* sessions. Each
    /// driver coordinates one session at a time (reads, scans, merges);
    /// the decode work all lands on the shared pool.
    pub drivers: usize,
    /// Fleet-wide in-flight-chunk budget. A session charges
    /// [`session_cost`] of its shard count; sessions that would exceed
    /// the budget wait in the queue, and sessions whose cost alone
    /// exceeds it are rejected outright.
    pub budget_chunks: u64,
    /// Maximum queued (admitted but not yet running) sessions before
    /// submissions are rejected.
    pub max_queue: usize,
    /// Default per-session pipeline (shards, chunk size, fault policy,
    /// analyzer thresholds); a [`SessionSpec`] may override it. The
    /// fleet report always finalizes with this pipeline's analyzer.
    pub pipeline: Pipeline,
    /// Where `heapdrag_serve_*` (and per-session `heapdrag_ingest_*`)
    /// metrics publish.
    pub registry: Registry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2);
        ServeConfig {
            pool_workers: host,
            drivers: host.min(8),
            budget_chunks: (4 * host as u64).max(8),
            max_queue: 1024,
            pipeline: Pipeline::options(),
            registry: Registry::new(),
        }
    }
}

/// Identifies a session within one [`ServeManager`]; assigned in
/// submission order starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Where a session's trace bytes come from.
pub enum SessionSource {
    /// A file on disk, opened when the session starts running.
    Path(PathBuf),
    /// An in-memory trace.
    Bytes(Vec<u8>),
    /// Any reader — a socket, a pipe. Read once, when the session runs.
    Reader(Box<dyn Read + Send>),
}

impl fmt::Debug for SessionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionSource::Path(p) => f.debug_tuple("Path").field(p).finish(),
            SessionSource::Bytes(b) => f.debug_tuple("Bytes").field(&b.len()).finish(),
            SessionSource::Reader(_) => f.debug_tuple("Reader").finish(),
        }
    }
}

/// A session submission: a name, a trace source, and optional overrides.
pub struct SessionSpec {
    /// Display name (a file name, a socket peer) — not required to be
    /// unique; the [`SessionId`] is the identity.
    pub name: String,
    /// Where the trace bytes come from.
    pub source: SessionSource,
    /// Per-session pipeline override; `None` uses
    /// [`ServeConfig::pipeline`].
    pub pipeline: Option<Pipeline>,
    /// Where to write the per-session report (or error) when the session
    /// reaches a terminal state — the reply half of a socket submission.
    pub responder: Option<Box<dyn Write + Send>>,
}

impl SessionSpec {
    /// A spec with no overrides and no responder.
    pub fn new(name: impl Into<String>, source: SessionSource) -> Self {
        SessionSpec {
            name: name.into(),
            source,
            pipeline: None,
            responder: None,
        }
    }

    /// Sets a per-session pipeline override.
    #[must_use]
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Sets the terminal-state reply writer.
    #[must_use]
    pub fn responder(mut self, responder: Box<dyn Write + Send>) -> Self {
        self.responder = Some(responder);
        self
    }
}

/// A session's lifecycle state.
///
/// ```text
///             ┌──────────┐  budget+driver  ┌─────────┐ ok  ┌───────────┐
/// submit ───▶ │  Queued  │ ───────────────▶│ Running │────▶│ Completed │
///      │      └──────────┘                 └─────────┘     └───────────┘
///      │            │ cancel                │    │ error     (terminal)
///      │            ▼                cancel │    ▼
///      │      ┌──────────┐                  │  ┌────────┐
///      │      └─▶ Canceled ◀────────────────┘  │ Failed │
///      ▼      (terminal)                       └────────┘
/// ┌──────────┐                                 (terminal)
/// │ Rejected │  cost > budget, queue full, or shutting down
/// └──────────┘
/// (terminal)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// Admitted; waiting for budget and a free driver.
    Queued,
    /// A driver is streaming the trace through the pipeline.
    Running,
    /// The trace was analyzed; the partial aggregates are retained for
    /// per-session reports and the fleet merge.
    Completed,
    /// The pipeline failed (I/O error, strict-mode log fault, salvage
    /// error budget exceeded).
    Failed,
    /// Canceled before or during its run.
    Canceled,
    /// Refused admission: its cost exceeds the fleet budget, the queue
    /// was full, or the manager was shutting down.
    Rejected,
}

impl SessionState {
    /// True once the state can no longer change.
    pub fn is_terminal(self) -> bool {
        !matches!(self, SessionState::Queued | SessionState::Running)
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Completed => "completed",
            SessionState::Failed => "failed",
            SessionState::Canceled => "canceled",
            SessionState::Rejected => "rejected",
        })
    }
}

/// A point-in-time view of one session, as listed by
/// [`ServeManager::sessions`].
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The session's identity.
    pub id: SessionId,
    /// The submitted display name.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: SessionState,
    /// Admission cost in budget chunks.
    pub cost: u64,
    /// Records folded (completed sessions only).
    pub records: u64,
    /// The session's streaming stats (completed sessions only).
    pub stats: Option<crate::stream::StreamStats>,
    /// Time spent admitted but not yet running (still growing while
    /// queued) — the admission-stall signal.
    pub queued_for: Duration,
    /// Time spent running (still growing while running; zero if the
    /// session never started).
    pub running_for: Duration,
    /// Why the session failed, was rejected, or was canceled.
    pub error: Option<String>,
}

/// A reader wrapper that aborts with an I/O error once the session's
/// cancel flag is set — how a running session's read loop is interrupted.
struct CancelReader<R> {
    inner: R,
    cancel: Arc<AtomicBool>,
}

impl<R: Read> Read for CancelReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("session canceled"));
        }
        self.inner.read(buf)
    }
}

/// One session's record in the registry.
struct Session {
    name: String,
    state: SessionState,
    cost: u64,
    pipe: Pipeline,
    cancel: Arc<AtomicBool>,
    source: Option<SessionSource>,
    responder: Option<Box<dyn Write + Send>>,
    partials: Option<AnalyzePartials>,
    error: Option<String>,
    submitted_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
}

impl Session {
    /// Queued duration so far: submission to run start, or to terminal
    /// state for sessions that never ran, or to `now` while still queued.
    fn queued_for(&self, now: Instant) -> Duration {
        let end = self.started_at.or(self.finished_at).unwrap_or(now);
        end.saturating_duration_since(self.submitted_at)
    }

    /// Running duration so far: run start to terminal state, or to `now`
    /// while still running. Zero for sessions that never started.
    fn running_for(&self, now: Instant) -> Duration {
        match self.started_at {
            Some(start) => self
                .finished_at
                .unwrap_or(now)
                .saturating_duration_since(start),
            None => Duration::ZERO,
        }
    }
}

/// The mutex-guarded registry state.
struct State {
    sessions: BTreeMap<u64, Session>,
    /// Admitted session ids in FIFO order.
    queue: VecDeque<u64>,
    /// Budget chunks reserved by running sessions.
    reserved: u64,
    running: usize,
    next_id: u64,
    shutdown: bool,
}

/// The `heapdrag_serve_*` metric handles.
struct Metrics {
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    canceled: Counter,
    rejected: Counter,
    active: Gauge,
    queued: Gauge,
    inflight: Gauge,
    inflight_peak: Gauge,
    budget: Gauge,
    pool_workers: Gauge,
    pool_busy_peak: Gauge,
    pool_jobs: Gauge,
    pool_panics: Gauge,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            submitted: registry.counter("heapdrag_serve_sessions_submitted_total"),
            completed: registry.counter("heapdrag_serve_sessions_completed_total"),
            failed: registry.counter("heapdrag_serve_sessions_failed_total"),
            canceled: registry.counter("heapdrag_serve_sessions_canceled_total"),
            rejected: registry.counter("heapdrag_serve_admission_rejections_total"),
            active: registry.gauge("heapdrag_serve_active_sessions"),
            queued: registry.gauge("heapdrag_serve_queued_sessions"),
            inflight: registry.gauge("heapdrag_serve_inflight_chunks"),
            inflight_peak: registry.gauge("heapdrag_serve_inflight_chunks_peak"),
            budget: registry.gauge("heapdrag_serve_inflight_chunk_budget"),
            pool_workers: registry.gauge("heapdrag_serve_pool_workers"),
            pool_busy_peak: registry.gauge("heapdrag_serve_pool_busy_peak"),
            pool_jobs: registry.gauge("heapdrag_serve_pool_jobs"),
            pool_panics: registry.gauge("heapdrag_serve_pool_panics"),
        }
    }
}

/// Shared between the manager handle and its driver threads.
struct Shared {
    state: Mutex<State>,
    /// Signaled on every queue/budget/terminal-state/shutdown change;
    /// drivers and [`ServeManager::wait_idle`] wait on it.
    cond: Condvar,
    budget: u64,
    max_queue: usize,
    pool: WorkerPool,
    registry: Registry,
    metrics: Metrics,
    default_pipe: Pipeline,
}

/// The long-running session manager. See the [module docs](super).
///
/// Dropping the manager shuts it down: the queue drains, drivers join,
/// and the pool joins.
pub struct ServeManager {
    shared: Arc<Shared>,
    drivers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ServeManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeManager")
            .field("drivers", &self.drivers.len())
            .field("budget_chunks", &self.shared.budget)
            .finish()
    }
}

impl ServeManager {
    /// Starts a manager: spawns the decode pool and the driver threads.
    pub fn new(config: ServeConfig) -> Self {
        let metrics = Metrics::new(&config.registry);
        metrics
            .budget
            .set(i64::try_from(config.budget_chunks).unwrap_or(i64::MAX));
        let pool = WorkerPool::new(config.pool_workers);
        metrics.pool_workers.set(pool.workers() as i64);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                sessions: BTreeMap::new(),
                queue: VecDeque::new(),
                reserved: 0,
                running: 0,
                next_id: 1,
                shutdown: false,
            }),
            cond: Condvar::new(),
            budget: config.budget_chunks,
            max_queue: config.max_queue,
            pool,
            registry: config.registry,
            metrics,
            default_pipe: config.pipeline,
        });
        let drivers = (0..config.drivers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("heapdrag-driver-{i}"))
                    .spawn(move || driver_loop(&shared))
                    .expect("spawn driver thread")
            })
            .collect();
        ServeManager { shared, drivers }
    }

    /// The registry `heapdrag_serve_*` metrics publish to.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The shared decode pool (for its utilization counters).
    pub fn pool(&self) -> &WorkerPool {
        &self.shared.pool
    }

    /// The default per-session pipeline ([`ServeConfig::pipeline`]) —
    /// the base that socket-protocol overrides apply on top of.
    pub fn default_pipeline(&self) -> Pipeline {
        self.shared.default_pipe
    }

    /// Submits a session. Admission control runs here: the session is
    /// queued FIFO unless its cost alone exceeds the fleet budget, the
    /// queue is full, or the manager is shutting down — in which case it
    /// is `Rejected` (the returned id stays queryable either way).
    pub fn submit(&self, spec: SessionSpec) -> SessionId {
        let pipe = spec.pipeline.unwrap_or(self.shared.default_pipe);
        let cost = session_cost(pipe.parallel_config().shards);
        let m = &self.shared.metrics;
        m.submitted.inc();
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let reject = if st.shutdown {
            Some("manager is shutting down".to_string())
        } else if cost > self.shared.budget {
            Some(format!(
                "session needs {cost} in-flight chunks but the fleet budget is {}",
                self.shared.budget
            ))
        } else if st.queue.len() >= self.shared.max_queue {
            Some(format!("queue is full ({} sessions)", st.queue.len()))
        } else {
            None
        };
        let mut session = Session {
            name: spec.name,
            state: SessionState::Queued,
            cost,
            pipe,
            cancel: Arc::new(AtomicBool::new(false)),
            source: Some(spec.source),
            responder: spec.responder,
            partials: None,
            error: None,
            submitted_at: Instant::now(),
            started_at: None,
            finished_at: None,
        };
        if let Some(reason) = reject {
            m.rejected.inc();
            session.state = SessionState::Rejected;
            session.finished_at = Some(session.submitted_at);
            session.source = None;
            respond(
                &mut session.responder,
                &format!("error: rejected: {reason}\n"),
            );
            session.error = Some(reason);
            st.sessions.insert(id, session);
            return SessionId(id);
        }
        st.sessions.insert(id, session);
        st.queue.push_back(id);
        m.queued.set(st.queue.len() as i64);
        drop(st);
        self.shared.cond.notify_all();
        SessionId(id)
    }

    /// Requests cancellation. A queued session is removed immediately; a
    /// running session's reader aborts at its next read. Returns false
    /// when the session is unknown or already terminal.
    pub fn cancel(&self, id: SessionId) -> bool {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        let Some(session) = st.sessions.get_mut(&id.0) else {
            return false;
        };
        match session.state {
            SessionState::Queued => {
                session.state = SessionState::Canceled;
                session.finished_at = Some(Instant::now());
                session.error = Some("canceled while queued".to_string());
                session.source = None;
                respond(&mut session.responder, "error: canceled\n");
                let m = &self.shared.metrics;
                m.canceled.inc();
                st.queue.retain(|&q| q != id.0);
                m.queued.set(st.queue.len() as i64);
                drop(st);
                self.shared.cond.notify_all();
                true
            }
            SessionState::Running => {
                session.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The lifecycle state of a session.
    pub fn state(&self, id: SessionId) -> Option<SessionState> {
        let st = self.shared.state.lock().expect("serve state poisoned");
        st.sessions.get(&id.0).map(|s| s.state)
    }

    /// Snapshots every session, in submission order. Also refreshes the
    /// pool-utilization gauges.
    pub fn sessions(&self) -> Vec<SessionSummary> {
        self.publish_pool_metrics();
        let now = Instant::now();
        let st = self.shared.state.lock().expect("serve state poisoned");
        st.sessions
            .iter()
            .map(|(&id, s)| SessionSummary {
                id: SessionId(id),
                name: s.name.clone(),
                state: s.state,
                cost: s.cost,
                records: s.partials.as_ref().map_or(0, |p| p.records),
                stats: s.partials.as_ref().map(|p| p.stats),
                queued_for: s.queued_for(now),
                running_for: s.running_for(now),
                error: s.error.clone(),
            })
            .collect()
    }

    /// Renders a completed session's drag report (top-N sites), exactly
    /// the bytes a single-shot `Pipeline::analyze_reader` + render of the
    /// same trace would produce. `None` unless the session completed.
    pub fn report(&self, id: SessionId, top: usize) -> Option<String> {
        let (pipe, partials) = {
            let st = self.shared.state.lock().expect("serve state poisoned");
            let s = st.sessions.get(&id.0)?;
            (s.pipe, s.partials.clone()?)
        };
        Some(render_session(&pipe, partials, top))
    }

    /// Blocks until no session is queued or running, then refreshes the
    /// pool gauges. New submissions may still arrive afterwards.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        while !st.queue.is_empty() || st.running > 0 {
            st = self.shared.cond.wait(st).expect("serve state poisoned");
        }
        drop(st);
        self.publish_pool_metrics();
    }

    /// The deterministic fleet-aggregate report: merges every completed
    /// session's exact-integer per-site partials with the same
    /// commutative fold the shard merge uses, then classifies and sorts
    /// once. Invariant under session arrival order and pool size; chain
    /// ids are assumed to share a site namespace across sessions (the
    /// same instrumented program), with name conflicts resolved to the
    /// lexicographically smallest name.
    pub fn fleet_report(&self, top: usize) -> String {
        self.publish_pool_metrics();
        let (partials, pipe) = {
            let st = self.shared.state.lock().expect("serve state poisoned");
            let list: Vec<AnalyzePartials> = st
                .sessions
                .values()
                .filter(|s| s.state == SessionState::Completed)
                .filter_map(|s| s.partials.clone())
                .collect();
            (list, self.shared.default_pipe)
        };
        let merged_sessions = partials.len();
        let mut accum = ShardAccum::default();
        let mut names: HashMap<ChainId, String> = HashMap::new();
        let (mut records, mut alloc_bytes, mut at_exit, mut samples) = (0u64, 0u64, 0u64, 0u64);
        let mut end_time = 0u64;
        // Retain samples merge by concatenation: attach_retains sums per
        // (site, path) and sorts canonically, so session order is moot.
        let mut retains = Vec::new();
        for p in partials {
            records += p.records;
            alloc_bytes += p.alloc_bytes;
            at_exit += p.at_exit;
            samples += p.samples;
            end_time = end_time.max(p.end_time);
            retains.extend(p.retains);
            accum.merge(p.accum);
            for (id, name) in p.chain_names {
                names
                    .entry(id)
                    .and_modify(|have| {
                        if name < *have {
                            *have = name.clone();
                        }
                    })
                    .or_insert(name);
            }
        }
        let fleet = AnalyzePartials {
            accum,
            records,
            alloc_bytes,
            at_exit,
            samples,
            retains,
            salvage: SalvageSummary::default(),
            end_time,
            chain_names: names,
            parse_metrics: Default::default(),
            stats: Default::default(),
        };
        let sr = pipe.finalize_partials(fleet);
        format!(
            "=== fleet drag report: {merged_sessions} sessions merged, \
             {records} records, {alloc_bytes} bytes allocated ===\n\n{}",
            ReportSections::standard(&sr.report, &sr).top(top).render()
        )
    }

    /// Copies the pool's utilization counters into the
    /// `heapdrag_serve_pool_*` gauges.
    pub fn publish_pool_metrics(&self) {
        let m = &self.shared.metrics;
        let pool = &self.shared.pool;
        m.pool_busy_peak.set(pool.busy_peak() as i64);
        m.pool_jobs
            .set(i64::try_from(pool.jobs_run()).unwrap_or(i64::MAX));
        m.pool_panics
            .set(i64::try_from(pool.panics()).unwrap_or(i64::MAX));
    }

    /// Graceful shutdown: refuses new submissions, drains the queue
    /// (every admitted session still runs), joins the drivers, then
    /// joins the pool. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("serve state poisoned");
            st.shutdown = true;
        }
        self.shared.cond.notify_all();
        for h in self.drivers.drain(..) {
            h.join().expect("driver thread panicked");
        }
        self.shared.pool.shutdown();
        self.publish_pool_metrics();
    }
}

impl Drop for ServeManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Best-effort terminal-state reply; the writer is dropped (closing a
/// socket's write half) either way.
fn respond(responder: &mut Option<Box<dyn Write + Send>>, message: &str) {
    if let Some(mut w) = responder.take() {
        let _ = w.write_all(message.as_bytes());
        let _ = w.flush();
    }
}

/// Finalizes retained partials into the user-facing report string —
/// byte-identical to the single-shot path in `tests/streaming_parity.rs`.
fn render_session(pipe: &Pipeline, partials: AnalyzePartials, top: usize) -> String {
    let sr = pipe.finalize_partials(partials);
    let mut sections = ReportSections::standard(&sr.report, &sr).top(top);
    if sr.salvage.salvage {
        sections = sections.salvage_footer(&sr.salvage);
    }
    sections.render()
}

/// What a driver takes out of the registry to run one session.
struct Claimed {
    id: u64,
    cost: u64,
    pipe: Pipeline,
    cancel: Arc<AtomicBool>,
    source: SessionSource,
}

fn driver_loop(shared: &Shared) {
    loop {
        let Some(claimed) = claim_next(shared) else {
            return;
        };
        let Claimed {
            id,
            cost,
            pipe,
            cancel,
            source,
        } = claimed;
        let result = run_session(shared, &pipe, &cancel, source);
        finish_session(shared, id, cost, &cancel, result);
    }
}

/// Blocks until the head of the queue fits in the budget (strict FIFO —
/// a small session never overtakes a large one, so a large one cannot
/// starve), claims it, and reserves its cost. Returns `None` when the
/// manager is shutting down and the queue is empty.
fn claim_next(shared: &Shared) -> Option<Claimed> {
    let mut st = shared.state.lock().expect("serve state poisoned");
    loop {
        if let Some(&head) = st.queue.front() {
            let cost = st.sessions[&head].cost;
            if st.reserved + cost <= shared.budget {
                st.queue.pop_front();
                st.reserved += cost;
                st.running += 1;
                let m = &shared.metrics;
                m.queued.set(st.queue.len() as i64);
                m.active.set(st.running as i64);
                let inflight = i64::try_from(st.reserved).unwrap_or(i64::MAX);
                m.inflight.set(inflight);
                m.inflight_peak.set_max(inflight);
                let s = st.sessions.get_mut(&head).expect("queued session exists");
                s.state = SessionState::Running;
                s.started_at = Some(Instant::now());
                return Some(Claimed {
                    id: head,
                    cost,
                    pipe: s.pipe,
                    cancel: Arc::clone(&s.cancel),
                    source: s.source.take().expect("queued session has a source"),
                });
            }
        } else if st.shutdown {
            return None;
        }
        st = shared.cond.wait(st).expect("serve state poisoned");
    }
}

/// Streams one session's trace through its pipeline on the shared pool.
fn run_session(
    shared: &Shared,
    pipe: &Pipeline,
    cancel: &Arc<AtomicBool>,
    source: SessionSource,
) -> Result<AnalyzePartials, PipelineError> {
    let inner: Box<dyn Read + Send> = match source {
        SessionSource::Path(p) => Box::new(std::fs::File::open(p).map_err(PipelineError::Io)?),
        SessionSource::Bytes(b) => Box::new(std::io::Cursor::new(b)),
        SessionSource::Reader(r) => r,
    };
    let reader = CancelReader {
        inner,
        cancel: Arc::clone(cancel),
    };
    let partials = pipe.analyze_partials_on(&shared.pool, reader, |c| Some(SiteId(c.0)))?;
    partials.stats.publish_metrics(&shared.registry);
    Ok(partials)
}

/// Writes the terminal state back into the registry, releases the
/// budget reservation, and replies on the responder.
fn finish_session(
    shared: &Shared,
    id: u64,
    cost: u64,
    cancel: &AtomicBool,
    result: Result<AnalyzePartials, PipelineError>,
) {
    let mut st = shared.state.lock().expect("serve state poisoned");
    let m = &shared.metrics;
    {
        let s = st.sessions.get_mut(&id).expect("running session exists");
        s.finished_at = Some(Instant::now());
        match result {
            Ok(partials) => {
                s.state = SessionState::Completed;
                s.partials = Some(partials);
                m.completed.inc();
                let (pipe, partials) = (s.pipe, s.partials.clone().expect("just set"));
                let reply = render_session(&pipe, partials, 10);
                respond(&mut s.responder, &reply);
            }
            Err(e) => {
                if cancel.load(Ordering::Relaxed) {
                    s.state = SessionState::Canceled;
                    s.error = Some("canceled while running".to_string());
                    m.canceled.inc();
                    respond(&mut s.responder, "error: canceled\n");
                } else {
                    s.state = SessionState::Failed;
                    let msg = e.to_string();
                    respond(&mut s.responder, &format!("error: {msg}\n"));
                    s.error = Some(msg);
                    m.failed.inc();
                }
            }
        }
    }
    st.reserved -= cost;
    st.running -= 1;
    m.active.set(st.running as i64);
    m.inflight
        .set(i64::try_from(st.reserved).unwrap_or(i64::MAX));
    drop(st);
    shared.cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(records: u32) -> Vec<u8> {
        let mut t = String::from("heapdrag-log v1\nchain 0 Main.a@0\nchain 1 Main.b@1\n");
        for i in 0..records {
            let created = u64::from(i) * 10;
            t.push_str(&format!(
                "obj {i} 0 {} {created} {} {} {} {} 0\n",
                16 + (i % 3) * 8,
                created + 500,
                created + 100,
                i % 2,
                i % 2,
            ));
        }
        t.push_str("end 90000\n");
        t.into_bytes()
    }

    fn config(pool: usize, drivers: usize, budget: u64) -> ServeConfig {
        ServeConfig {
            pool_workers: pool,
            drivers,
            budget_chunks: budget,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn a_session_completes_and_reports_like_a_single_shot_run() {
        let trace = tiny_trace(40);
        let pipe = Pipeline::options().shards(2).chunk_records(8);
        let single = {
            let sr = pipe.analyze_reader(&trace[..]).expect("single-shot run");
            ReportSections::standard(&sr.report, &sr).render()
        };
        let mut manager = ServeManager::new(ServeConfig {
            pipeline: pipe,
            ..config(2, 2, 16)
        });
        let id = manager.submit(SessionSpec::new("tiny", SessionSource::Bytes(trace)));
        manager.wait_idle();
        assert_eq!(manager.state(id), Some(SessionState::Completed));
        assert_eq!(manager.report(id, 10).expect("completed"), single);
        let snap = manager.registry().snapshot();
        assert_eq!(snap.counters["heapdrag_serve_sessions_submitted_total"], 1);
        assert_eq!(snap.counters["heapdrag_serve_sessions_completed_total"], 1);
        assert_eq!(snap.gauges["heapdrag_serve_active_sessions"], 0);
        assert_eq!(snap.gauges["heapdrag_serve_queued_sessions"], 0);
        assert_eq!(snap.gauges["heapdrag_serve_inflight_chunks"], 0);
        assert!(snap.gauges["heapdrag_serve_inflight_chunks_peak"] >= 4);
        manager.shutdown();
    }

    #[test]
    fn oversized_sessions_are_rejected_up_front() {
        // Budget 4; a 16-shard session costs 32 and must be rejected,
        // while a default session still runs.
        let manager = ServeManager::new(config(1, 1, 4));
        let big = manager.submit(
            SessionSpec::new("big", SessionSource::Bytes(tiny_trace(5)))
                .pipeline(Pipeline::options().shards(16)),
        );
        let small = manager.submit(SessionSpec::new(
            "small",
            SessionSource::Bytes(tiny_trace(5)),
        ));
        assert_eq!(manager.state(big), Some(SessionState::Rejected));
        manager.wait_idle();
        assert_eq!(manager.state(small), Some(SessionState::Completed));
        let snap = manager.registry().snapshot();
        assert_eq!(
            snap.counters["heapdrag_serve_admission_rejections_total"],
            1
        );
        assert_eq!(snap.counters["heapdrag_serve_sessions_submitted_total"], 2);
    }

    #[test]
    fn a_failing_trace_marks_the_session_failed_not_the_manager() {
        let manager = ServeManager::new(config(1, 1, 8));
        let bad = manager.submit(SessionSpec::new(
            "bad",
            SessionSource::Bytes(b"heapdrag-log v1\ngarbage line\nend 5\n".to_vec()),
        ));
        let good = manager.submit(SessionSpec::new(
            "good",
            SessionSource::Bytes(tiny_trace(8)),
        ));
        manager.wait_idle();
        assert_eq!(manager.state(bad), Some(SessionState::Failed));
        assert_eq!(manager.state(good), Some(SessionState::Completed));
        let summaries = manager.sessions();
        let bad_summary = summaries.iter().find(|s| s.id == bad).unwrap();
        assert!(bad_summary.error.as_deref().unwrap().contains("E003"));
    }

    #[test]
    fn fleet_report_is_invariant_under_submission_order() {
        let traces: Vec<Vec<u8>> = vec![tiny_trace(10), tiny_trace(25), tiny_trace(40)];
        let fleet_of = |order: &[usize]| {
            let manager = ServeManager::new(config(2, 2, 16));
            for &i in order {
                manager.submit(SessionSpec::new(
                    format!("t{i}"),
                    SessionSource::Bytes(traces[i].clone()),
                ));
            }
            manager.wait_idle();
            manager.fleet_report(10)
        };
        let a = fleet_of(&[0, 1, 2]);
        let b = fleet_of(&[2, 0, 1]);
        assert_eq!(a, b);
        assert!(a.starts_with("=== fleet drag report: 3 sessions merged"));
    }

    #[test]
    fn cancel_of_a_queued_session_releases_it_without_running() {
        // One driver, and the first session's reader blocks until we
        // cancel the queued one behind it.
        struct StallReader {
            sent: bool,
            gate: std::sync::mpsc::Receiver<()>,
        }
        impl Read for StallReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.sent {
                    self.sent = true;
                    let header = b"heapdrag-log v1\nend 5\n";
                    buf[..header.len()].copy_from_slice(header);
                    return Ok(header.len());
                }
                let _ = self.gate.recv();
                Ok(0)
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let manager = ServeManager::new(config(1, 1, 8));
        let first = manager.submit(SessionSpec::new(
            "stalling",
            SessionSource::Reader(Box::new(StallReader {
                sent: false,
                gate: rx,
            })),
        ));
        let second = manager.submit(SessionSpec::new(
            "queued",
            SessionSource::Bytes(tiny_trace(4)),
        ));
        // Wait until the first session is actually running.
        while manager.state(first) != Some(SessionState::Running) {
            std::thread::yield_now();
        }
        assert_eq!(manager.state(second), Some(SessionState::Queued));
        assert!(manager.cancel(second));
        assert_eq!(manager.state(second), Some(SessionState::Canceled));
        drop(tx); // unblock the stalling reader
        manager.wait_idle();
        assert_eq!(manager.state(first), Some(SessionState::Completed));
        let snap = manager.registry().snapshot();
        assert_eq!(snap.counters["heapdrag_serve_sessions_canceled_total"], 1);
    }
}
