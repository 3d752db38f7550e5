//! Workload definitions and set-up: drawing inputs from the seed,
//! building programs, computing reference outputs, traces and reports,
//! and starting the in-process server.

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use heapdrag_core::serve::{client_command, serve_socket};
use heapdrag_core::{profile, LogFormat, Pipeline, ReportSections, ServeConfig, ServeManager};
use heapdrag_obs::Registry;
use heapdrag_vm::{InterpreterKind, Program, SiteId, Vm, VmConfig};
use heapdrag_workloads::workload_by_name;

use crate::stats::Rng;

/// Rows of every rendered report the benchmark compares.
pub const TOP: usize = 10;

/// Relative spread of every drawn input parameter around its scaled
/// default. `perfbench --validate` runs both ends of each range.
pub const JITTER: f64 = 0.015;

/// One benchmark workload: which programs run, at what input scale, and
/// how each cycle of a run is split between the VM and offline phases.
pub struct Spec {
    pub name: &'static str,
    /// Programs of the VM and serve phases, with the factor applied to
    /// each program's first default input parameter.
    pub jobs: &'static [(&'static str, i64)],
    /// Programs whose traces the offline phase analyzes; empty means the
    /// traces of `jobs`.
    pub offline: &'static [(&'static str, i64)],
    /// Shares of the VM and offline phases in the part of each cycle the
    /// serve rounds leave over.
    pub weights: [f64; 2],
}

const CHURN: &[(&str, i64)] = &[
    ("javac", 10),
    ("jack", 10),
    ("jess", 10),
    ("juru", 10),
    ("euler", 10),
    ("analyzer", 10),
];
const RETAINED: &[(&str, i64)] = &[("db", 10), ("raytrace", 10), ("mc", 10)];
const LARGE_VM: &[(&str, i64)] = &[("javac", 1), ("jack", 1), ("juru", 1)];
const LARGE: &[(&str, i64)] = &[("javac", 80), ("jack", 80), ("juru", 80)];

pub const SPECS: &[Spec] = &[
    Spec {
        name: "profile-churn",
        jobs: CHURN,
        offline: &[],
        weights: [0.8, 0.2],
    },
    Spec {
        name: "profile-retained",
        jobs: RETAINED,
        offline: &[],
        weights: [0.7, 0.3],
    },
    Spec {
        name: "report-large",
        jobs: LARGE_VM,
        offline: LARGE,
        weights: [0.2, 0.8],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Input parameters that seed a program's own generator rather than size
/// its work (db's third). They stay at their defaults: a different seed
/// changes how much work db does.
fn is_seed_param(program: &str, index: usize) -> bool {
    program == "db" && index == 2
}

/// One program input: every size parameter is its default times `factor`
/// (the first also times `scale`); seed parameters keep their defaults.
pub fn input_for(program: &str, scale: i64, factor: f64) -> Option<Vec<i64>> {
    let w = workload_by_name(program)?;
    let base = (w.default_input)();
    Some(
        base.iter()
            .enumerate()
            .map(|(i, &v)| {
                if is_seed_param(program, i) {
                    v
                } else {
                    let v = if i == 0 { v * scale } else { v };
                    ((v as f64 * factor).round() as i64).max(1)
                }
            })
            .collect(),
    )
}

fn draw_input(program: &str, scale: i64, rng: &mut Rng) -> Option<Vec<i64>> {
    let factor = 1.0 + (2.0 * rng.unit() - 1.0) * JITTER;
    input_for(program, scale, factor)
}

/// A profiled trace in both formats with its reference report.
pub struct Trace {
    pub name: String,
    pub text: Vec<u8>,
    pub binary: Vec<u8>,
    pub records: u64,
    /// `ReportSections::standard(..).top(TOP)` of the sequential
    /// in-memory analysis: what every other path must reproduce.
    pub report: String,
}

/// A program with its drawn input, reference output and trace.
pub struct Job {
    pub name: &'static str,
    pub program: Program,
    pub input: Vec<i64>,
    /// Output of the reference (one-instruction-at-a-time) interpreter.
    pub output: Vec<i64>,
    pub trace: Trace,
}

fn encode(run: &heapdrag_core::ProfileRun, program: &Program, format: LogFormat) -> Vec<u8> {
    let mut buf = Vec::new();
    run.write_log_to(program, format, &mut buf)
        .expect("writing to a Vec cannot fail");
    buf
}

/// The reference report: in-memory ingest, then the sequential fold.
fn reference_report(text: &[u8]) -> Result<(String, u64), String> {
    let pipe = Pipeline::options();
    let ingested = pipe.ingest_bytes(text).map_err(|e| e.to_string())?;
    let report = pipe.analyze_records_seq(&ingested.log.records, |c| Some(SiteId(c.0)));
    let rendered = ReportSections::standard(&report, &ingested.log)
        .top(TOP)
        .render();
    Ok((rendered, ingested.log.records.len() as u64))
}

fn make_trace(name: String, program: &Program, input: &[i64]) -> Result<(Trace, Vec<i64>), String> {
    let run = profile(program, input, VmConfig::profiling()).map_err(|e| format!("{name}: {e}"))?;
    let text = encode(&run, program, LogFormat::Text);
    let binary = encode(&run, program, LogFormat::Binary);
    let (report, records) = reference_report(&text).map_err(|e| format!("{name}: {e}"))?;
    let trace = Trace {
        name,
        text,
        binary,
        records,
        report,
    };
    Ok((trace, run.outcome.output))
}

fn make_job(name: &'static str, scale: i64, rng: &mut Rng) -> Result<Job, String> {
    let w = workload_by_name(name).ok_or_else(|| format!("unknown program {name}"))?;
    let input = draw_input(name, scale, rng).expect("known program");
    let program = w.original();
    let reference = VmConfig {
        interpreter: InterpreterKind::Reference,
        ..VmConfig::default()
    };
    let output = Vm::new(&program, reference)
        .run(&input)
        .map_err(|e| format!("{name} {input:?}: {e}"))?
        .output;
    let (trace, profiled_output) = make_trace(format!("{name}@{scale}"), &program, &input)?;
    if profiled_output != output {
        return Err(format!(
            "{name} {input:?}: profiled output differs from the reference"
        ));
    }
    Ok(Job {
        name,
        program,
        input,
        output,
        trace,
    })
}

/// The in-process server: a [`ServeManager`] behind `serve_socket` on a
/// unix socket, stopped (and its threads joined) on drop.
pub struct Server {
    pub manager: Arc<ServeManager>,
    pub socket: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(workers: usize, tag: usize) -> std::io::Result<Server> {
        // A relative path keeps the address short whatever the checkout's
        // location (unix socket paths are limited to ~100 bytes).
        let socket = PathBuf::from(format!(".perfbench-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        let manager = Arc::new(ServeManager::new(ServeConfig {
            pool_workers: workers,
            drivers: workers,
            pipeline: Pipeline::options().shards(workers),
            registry: Registry::new(),
            ..ServeConfig::default()
        }));
        let m = Arc::clone(&manager);
        let thread = std::thread::spawn(move || serve_socket(&m, &listener));
        Ok(Server {
            manager,
            socket,
            thread: Some(thread),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = client_command(&self.socket, "SHUTDOWN");
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Everything the measured phases need.
pub struct Prepared {
    pub jobs: Vec<Job>,
    /// Offline-phase traces when the spec names its own; otherwise empty
    /// and the job traces are used.
    offline: Vec<Trace>,
    /// The seeded order of (job index, binary?) in which the serve client
    /// submits every job's trace in both formats, once per round.
    pub plan: Vec<(usize, bool)>,
    pub server: Server,
}

impl Prepared {
    pub fn offline_traces(&self) -> Vec<&Trace> {
        if self.offline.is_empty() {
            self.jobs.iter().map(|j| &j.trace).collect()
        } else {
            self.offline.iter().collect()
        }
    }

    /// Bytes that must repeat exactly for the same seed.
    pub fn fingerprint(&self) -> Vec<(String, Vec<i64>, usize, usize)> {
        let jobs = self.jobs.iter().map(|j| (&j.trace, j.input.clone()));
        let offline = self.offline.iter().map(|t| (t, Vec::new()));
        jobs.chain(offline)
            .map(|(t, input)| (t.name.clone(), input, t.text.len(), t.binary.len()))
            .collect()
    }
}

/// Builds a [`Prepared`] for `spec` from `seed`. A job whose drawn input
/// fails is dropped and reported in the returned error list, so a bad
/// draw counts as a failed operation instead of aborting the run.
pub fn prepare(spec: &Spec, seed: u64, workers: usize, tag: usize) -> (Prepared, Vec<String>) {
    let mut rng = Rng::new(seed);
    let mut errors = Vec::new();
    let mut jobs = Vec::new();
    for &(name, scale) in spec.jobs {
        match make_job(name, scale, &mut rng) {
            Ok(j) => jobs.push(j),
            Err(e) => errors.push(e),
        }
    }
    let mut offline = Vec::new();
    for &(name, scale) in spec.offline {
        let program = workload_by_name(name).expect("known program").original();
        let input = draw_input(name, scale, &mut rng).expect("known program");
        match make_trace(format!("{name}@{scale}"), &program, &input) {
            Ok((t, _)) => offline.push(t),
            Err(e) => errors.push(e),
        }
    }
    let mut plan: Vec<(usize, bool)> = (0..jobs.len())
        .flat_map(|j| [(j, false), (j, true)])
        .collect();
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.range(0, i as u64) as usize);
    }
    let server = Server::start(workers, tag).expect("bind the benchmark's unix socket");
    (
        Prepared {
            jobs,
            offline,
            plan,
            server,
        },
        errors,
    )
}

/// Runs every program of every workload at both ends of its drawn input
/// range, plain and profiled, and lists the draws that fail.
pub fn validate() -> Vec<String> {
    let mut failures = Vec::new();
    for spec in SPECS {
        for &(name, scale) in spec.jobs.iter().chain(spec.offline) {
            let program = workload_by_name(name).expect("known program").original();
            for factor in [1.0 - JITTER, 1.0 + JITTER] {
                let input = input_for(name, scale, factor).expect("known program");
                let plain = Vm::new(&program, VmConfig::default()).run(&input);
                let profiled = profile(&program, &input, VmConfig::profiling());
                match (plain, profiled) {
                    (Ok(p), Ok(r)) if p.output == r.outcome.output => {}
                    (p, r) => failures.push(format!(
                        "{}: {name} {input:?}: plain {:?}, profiled {:?}",
                        spec.name,
                        p.err(),
                        r.err()
                    )),
                }
            }
        }
    }
    failures
}
