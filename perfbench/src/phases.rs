//! The three measured phases. Each pass calls into the layers' public
//! functions, checks every result against the set-up references, and
//! records one sample per metric.
//!
//! * **VM**: per program, `Vm::run` (plain), `profile` + text encode,
//!   `profile` with retain sampling + text encode, `run_live`, then
//!   `analyze_reader` + render over the pass's log.
//! * **Offline**: per trace, `analyze_reader` + render in both formats.
//! * **Serve**: one closed-loop client `client_submit`s every job's trace
//!   in both formats, in a seeded order, waiting for each reply.
//!
//! An untraced pass keeps, per program and per trace and format, the
//! fastest time the run has seen, and every serve session's latency;
//! `main` turns those into the end-to-end metrics.
//!
//! A traced pass additionally runs the calls that split a layer's cost
//! (deep GC without an observer, binary encode, `ingest_reader`,
//! `analyze_records`, `fleet_report`) and reads the registries.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use heapdrag_core::serve::client_submit;
use heapdrag_core::{
    profile_with, run_live, LiveOptions, LogFormat, Pipeline, ReportSections, SessionState,
};
use heapdrag_obs::Registry;
use heapdrag_vm::retain::RetainConfig;
use heapdrag_vm::{OpcodeClass, SiteId, Vm, VmConfig};

use crate::setup::{Prepared, TOP};
use crate::stats::secs;
use crate::trace::Tracer;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, why: String) {
        self.op(false, || why);
    }
}

/// Per-pass samples, keyed by metric name.
#[derive(Default)]
pub struct Samples(pub BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Sums of one pass, pushed as one sample each when the pass ends.
#[derive(Default)]
struct PassSums(BTreeMap<String, f64>);

impl PassSums {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_default();
        *e = e.max(v);
    }

    fn flush(self, into: &mut Samples) {
        for (k, v) in self.0 {
            into.push(&k, v);
        }
    }
}

/// One session as its client saw it.
pub struct SessionObs {
    pub name: String,
    pub latency: Duration,
}

/// All state of one measured run.
pub struct Bench<'a> {
    pub prep: &'a Prepared,
    pub workers: usize,
    pub tr: Tracer,
    pub tally: Tally,
    /// End-to-end samples (untraced passes only).
    pub e2e: Samples,
    /// Per end-to-end timing, the fastest untraced time of each program
    /// or trace it sums over.
    pub fastest: BTreeMap<&'static str, BTreeMap<String, f64>>,
    /// Records of each offline trace, keyed like `fastest`.
    pub records: BTreeMap<String, f64>,
    /// Client latencies in ms of untraced serve rounds, per trace and format.
    pub latency_ms: BTreeMap<String, Vec<f64>>,
    /// Per-layer samples (traced passes only).
    pub layer: Samples,
    /// Per-phase pass wall times, `[untraced, traced]`, excluding the
    /// calls only a traced pass makes: the tracing-overhead base.
    pub walls: BTreeMap<&'static str, [Vec<f64>; 2]>,
    /// Deterministic counters; any change between passes is drift.
    pub witness: BTreeMap<String, u64>,
    pub sessions: Vec<SessionObs>,
}

impl<'a> Bench<'a> {
    pub fn new(prep: &'a Prepared, workers: usize, traced: bool) -> Self {
        Bench {
            prep,
            workers,
            tr: Tracer::new(traced),
            tally: Tally::default(),
            e2e: Samples::default(),
            fastest: BTreeMap::new(),
            records: BTreeMap::new(),
            latency_ms: BTreeMap::new(),
            layer: Samples::default(),
            walls: BTreeMap::new(),
            witness: BTreeMap::new(),
            sessions: Vec::new(),
        }
    }

    /// Records a deterministic counter; a value that differs from the one
    /// an earlier pass recorded is reported as drift.
    fn witness(&mut self, key: String, v: u64) {
        match self.witness.get(&key) {
            Some(&was) if was != v => self
                .tally
                .fail(format!("determinism drift: {key} was {was}, now {v}")),
            Some(_) => {}
            None => {
                self.witness.insert(key, v);
            }
        }
    }

    /// Keeps `d` if it is the fastest time of `unit` for `metric` so far.
    fn fast(&mut self, metric: &'static str, unit: &str, d: Duration) {
        let best = self
            .fastest
            .entry(metric)
            .or_default()
            .entry(unit.to_string())
            .or_insert(f64::INFINITY);
        *best = best.min(secs(d));
    }

    fn pipe(&self) -> Pipeline {
        Pipeline::options().shards(self.workers)
    }

    fn wall(&mut self, phase: &'static str, traced: bool, d: f64) {
        self.walls.entry(phase).or_default()[usize::from(traced)].push(d);
    }

    /// Runs passes of `phase` for `budget`, at least one; with tracing
    /// on, every other pass of the phase is traced.
    pub fn repeat(
        &mut self,
        phase: &'static str,
        budget: Duration,
        mut pass: impl FnMut(&mut Self, bool),
    ) {
        let start = Instant::now();
        loop {
            let n = self.walls.get(phase).map_or(0, |w| w[0].len() + w[1].len());
            pass(self, self.tr.on() && n % 2 == 1);
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    pub fn vm_pass(&mut self, traced: bool) {
        let prep = self.prep;
        let pipe = self.pipe();
        let mut e = PassSums::default();
        let mut l = PassSums::default();
        let mut extra = Duration::ZERO;
        let covered = self.tr.covered();
        let pass = self.tr.open("vm.pass");
        for job in &prep.jobs {
            let (p, input, name) = (&job.program, job.input.as_slice(), job.name);

            let (res, t_plain) = self.tr.leaf("vm.interp.run", || {
                Vm::new(p, VmConfig::default()).run(input)
            });
            let plain = match res {
                Ok(o) => o,
                Err(err) => {
                    self.tally.fail(format!("{name}: plain run: {err}"));
                    continue;
                }
            };
            self.tally.op(plain.output == job.output, || {
                format!("{name}: plain output differs from the reference")
            });
            self.witness(format!("{name}.steps"), plain.steps);
            for (i, class) in OpcodeClass::ALL.iter().enumerate() {
                self.witness(
                    format!("{name}.dispatch.{}", class.name()),
                    plain.dispatch[i],
                );
            }
            if !traced {
                self.fast("plain_s", name, t_plain);
            }

            let mut t_nobs = Duration::ZERO;
            if traced {
                let (res, t) = self.tr.leaf("vm.gc.deep_gc_run", || {
                    Vm::new(p, VmConfig::profiling()).run(input)
                });
                t_nobs = t;
                self.tally
                    .op(res.as_ref().is_ok_and(|o| o.output == job.output), || {
                        format!("{name}: deep-GC run without observer failed or differs")
                    });
                extra += t;
                l.add("vm.interp.plain_s", secs(t_plain));
                l.add("vm.interp.steps", plain.steps as f64);
                for (i, class) in OpcodeClass::ALL.iter().enumerate() {
                    l.add(
                        &format!("vm.interp.dispatch.{}", class.name()),
                        plain.dispatch[i] as f64,
                    );
                }
                l.add("vm.heap.alloc_objects", plain.heap.allocated_objects as f64);
                l.add("vm.heap.alloc_bytes", plain.heap.allocated_bytes as f64);
                l.add("vm.gc.deep_gc_s", secs(t) - secs(t_plain));
            }

            let reg = traced.then(Registry::new);
            let (res, t_prof) = self.tr.leaf("core.profiler.profile", || {
                profile_with(p, input, VmConfig::profiling(), reg.as_ref())
            });
            let run = match res {
                Ok(r) => r,
                Err(err) => {
                    self.tally.fail(format!("{name}: profiled run: {err}"));
                    continue;
                }
            };
            let (log, t_enc) = self.tr.leaf("core.codec.encode_text", || {
                let mut buf = Vec::with_capacity(job.trace.text.len());
                run.write_log_to(p, LogFormat::Text, &mut buf).map(|_| buf)
            });
            let log = log.unwrap_or_default();
            self.tally.op(run.outcome.output == job.output, || {
                format!("{name}: profiled output differs")
            });
            self.tally.op(log == job.trace.text, || {
                format!("{name}: text log differs from the set-up trace")
            });
            self.witness(
                format!("{name}.traced_objects"),
                run.outcome.heap.traced_objects,
            );
            self.witness(format!("{name}.deep_gcs"), run.outcome.deep_gcs);
            self.witness(format!("{name}.records"), run.records.len() as u64);
            self.witness(format!("{name}.log_bytes"), log.len() as u64);
            if !traced {
                self.fast("profile_s", name, t_prof + t_enc);
            }
            e.add("log_bytes", log.len() as f64);

            if let Some(reg) = &reg {
                let (bin, t_bin) = self.tr.leaf("core.codec.encode_binary", || {
                    let mut buf = Vec::with_capacity(job.trace.binary.len());
                    run.write_log_to(p, LogFormat::Binary, &mut buf)
                        .map(|_| buf)
                });
                let bin = bin.unwrap_or_default();
                self.tally.op(bin == job.trace.binary, || {
                    format!("{name}: binary log differs from the set-up trace")
                });
                extra += t_bin;
                let ev = |kind: &str| {
                    reg.counter(&format!("profiler_events_total{{kind=\"{kind}\"}}"))
                        .get() as f64
                };
                let uses: f64 = heapdrag_vm::UseKind::ALL
                    .iter()
                    .map(|k| ev(&format!("use_{}", k.name())))
                    .sum();
                l.add(
                    "vm.gc.full_pause_s",
                    reg.histogram("vm_gc_full_pause_us").sum() as f64 / 1e6,
                );
                // A plain run never collects, so the peak comes from the
                // profiled run, whose deep GCs reclaim as the program goes.
                l.add(
                    "vm.heap.peak_live_bytes",
                    run.outcome.heap.peak_live_bytes as f64,
                );
                l.add("vm.gc.deep_gcs", run.outcome.deep_gcs as f64);
                l.add(
                    "vm.gc.full_collections",
                    run.outcome.heap.full_collections as f64,
                );
                l.add(
                    "vm.gc.traced_objects",
                    run.outcome.heap.traced_objects as f64,
                );
                l.add("core.profiler.observe_s", secs(t_prof) - secs(t_nobs));
                l.add("core.profiler.events.alloc", ev("alloc"));
                l.add("core.profiler.events.free", ev("free"));
                l.add("core.profiler.events.use", uses);
                l.add("core.profiler.events.deep_gc", ev("deep_gc"));
                l.add("core.profiler.records", run.records.len() as f64);
                l.add("core.codec.encode_text_s", secs(t_enc));
                l.add("core.codec.encode_binary_s", secs(t_bin));
                l.add("core.codec.text_bytes", log.len() as f64);
                l.add("core.codec.binary_bytes", bin.len() as f64);
            }
            drop(run);

            let retain = VmConfig {
                retain: RetainConfig::from_rate(RetainConfig::DEFAULT_RATE),
                ..VmConfig::profiling()
            };
            // Same registry set-up as the profiled run, so the difference
            // between the two is the sampling alone.
            let reg = traced.then(Registry::new);
            let (res, t_rprof) = self.tr.leaf("vm.retain.profile", || {
                profile_with(p, input, retain, reg.as_ref())
            });
            match res {
                Ok(run) => {
                    let (rlog, t_renc) = self.tr.leaf("core.codec.encode_text_retain", || {
                        let mut buf = Vec::with_capacity(job.trace.text.len());
                        run.write_log_to(p, LogFormat::Text, &mut buf).map(|_| buf)
                    });
                    self.tally
                        .op(run.outcome.output == job.output && rlog.is_ok(), || {
                            format!("{name}: retain-sampled run differs or failed to encode")
                        });
                    self.witness(format!("{name}.retain_samples"), run.retains.len() as u64);
                    if traced {
                        l.add("vm.retain.sample_s", secs(t_rprof) - secs(t_prof));
                        l.add("vm.retain.samples", run.retains.len() as f64);
                    } else {
                        self.fast("profile_retain_s", name, t_rprof + t_renc);
                    }
                }
                Err(err) => self
                    .tally
                    .fail(format!("{name}: retain-sampled run: {err}")),
            }

            let opts = LiveOptions {
                every: u64::MAX,
                ..LiveOptions::default()
            };
            let reg = traced.then(Registry::new);
            let (res, t_live) = self.tr.leaf("core.live.run", || {
                run_live(
                    p,
                    input,
                    VmConfig::profiling(),
                    &opts,
                    reg.as_ref(),
                    |_: &str| {},
                )
            });
            match res {
                Ok(live) => {
                    let text = ReportSections::standard(&live.report, &live)
                        .top(TOP)
                        .render();
                    self.tally.op(live.dropped == 0 && live.unmatched == 0, || {
                        format!("{name}: live run dropped {} events", live.dropped)
                    });
                    self.tally.op(
                        live.outcome.output == job.output && text == job.trace.report,
                        || format!("{name}: live final report differs from the post-mortem one"),
                    );
                    if !traced {
                        self.fast("live_s", name, t_live);
                    }
                    if let Some(reg) = &reg {
                        l.add("core.live.run_s", secs(t_live));
                        l.add(
                            "core.live.events",
                            reg.counter("heapdrag_live_events_total").get() as f64,
                        );
                        l.add("core.live.dropped", live.dropped as f64);
                    }
                }
                Err(err) => self.tally.fail(format!("{name}: live run: {err}")),
            }

            let (res, t_an) = self.tr.leaf("core.stream.analyze_reader", || {
                pipe.analyze_reader(&log[..])
            });
            match res {
                Ok(sr) => {
                    let (text, t_render) = self.tr.leaf("core.report.render", || {
                        ReportSections::standard(&sr.report, &sr).top(TOP).render()
                    });
                    self.tally.op(text == job.trace.report, || {
                        format!("{name}: report differs from the reference")
                    });
                    if !traced {
                        self.fast("report_s", name, t_an + t_render);
                    }
                }
                Err(err) => self.tally.fail(format!("{name}: report: {err}")),
            }
        }
        let wall = self.tr.close(pass);
        self.wall("vm", traced, secs(wall - extra));
        if traced {
            l.add(
                "trace.coverage.vm",
                secs(self.tr.covered() - covered) / secs(wall),
            );
            l.flush(&mut self.layer);
        } else {
            e.flush(&mut self.e2e);
        }
    }

    pub fn offline_pass(&mut self, traced: bool) {
        let pipe = self.pipe();
        let mut l = PassSums::default();
        let mut extra = Duration::ZERO;
        let covered = self.tr.covered();
        let pass = self.tr.open("offline.pass");
        for t in self.prep.offline_traces() {
            for (format, bytes) in [("text", &t.text), ("binary", &t.binary)] {
                let (res, t_an) = self.tr.leaf(&format!("core.stream.analyze_{format}"), || {
                    pipe.analyze_reader(&bytes[..])
                });
                let sr = match res {
                    Ok(sr) => sr,
                    Err(err) => {
                        self.tally
                            .fail(format!("{}: {format} analyze: {err}", t.name));
                        continue;
                    }
                };
                let (text, t_render) = self.tr.leaf("core.report.render", || {
                    ReportSections::standard(&sr.report, &sr).top(TOP).render()
                });
                self.tally
                    .op(text == t.report && sr.records == t.records, || {
                        format!(
                            "{}: {format} report differs from the sequential reference",
                            t.name
                        )
                    });
                if !traced {
                    let unit = format!("{}/{format}", t.name);
                    let metric = if format == "text" {
                        "analyze_text_mrec_s"
                    } else {
                        "analyze_binary_mrec_s"
                    };
                    self.fast(metric, &unit, t_an);
                    self.records.insert(unit, sr.records as f64);
                    continue;
                }
                l.add("core.report.render_s", secs(t_render));
                l.add("core.report.bytes", text.len() as f64);
                l.add("core.stream.bytes_read", sr.stats.bytes_read as f64);
                l.add("core.stream.chunks", sr.stats.chunks as f64);
                l.max(
                    "core.stream.peak_buffered_bytes",
                    sr.stats.peak_buffered_bytes as f64,
                );
                l.add(
                    "core.stream.backpressure_stalls",
                    sr.stats.backpressure_stalls as f64,
                );

                let (res, t_ingest) = self
                    .tr
                    .leaf("core.stream.ingest", || pipe.ingest_reader(&bytes[..]));
                extra += t_ingest;
                let Ok((ingested, _)) = res else {
                    self.tally
                        .fail(format!("{}: {format} ingest failed", t.name));
                    continue;
                };
                let ((report, _), t_fold) = self.tr.leaf("core.engine.fold", || {
                    pipe.analyze_records(&ingested.log.records, |c| Some(SiteId(c.0)))
                });
                extra += t_fold;
                let text = ReportSections::standard(&report, &ingested.log)
                    .top(TOP)
                    .render();
                self.tally.op(text == t.report, || {
                    format!(
                        "{}: {format} ingest + fold differs from the reference",
                        t.name
                    )
                });
                l.add("core.stream.ingest_s", secs(t_ingest));
                l.add("core.engine.fold_s", secs(t_fold));
                l.add("core.engine.sites", report.by_nested_site.len() as f64);
            }
        }
        let wall = self.tr.close(pass);
        self.wall("offline", traced, secs(wall - extra));
        if traced {
            l.add(
                "trace.coverage.offline",
                secs(self.tr.covered() - covered) / secs(wall),
            );
            l.flush(&mut self.layer);
        }
    }

    /// One closed-loop round: the client submits every session of the
    /// plan, one at a time, waiting for each reply.
    pub fn serve_round(&mut self, round: usize, traced: bool) {
        let prep = self.prep;
        let socket = prep.server.socket.as_path();
        let pass = self.tr.open("serve.round");
        let mut busy = Duration::ZERO;
        for &(ji, binary) in &prep.plan {
            let trace = &prep.jobs[ji].trace;
            let (mut bytes, format): (&[u8], &str) = if binary {
                (&trace.binary, "binary")
            } else {
                (&trace.text, "text")
            };
            let name = format!("r{round}-{}-{format}", trace.name);
            let start = Instant::now();
            let reply = client_submit(socket, &name, "", &mut bytes);
            let latency = start.elapsed();
            self.tr.record("core.serve.session", start, latency, 1);
            self.tally.op(reply.is_ok_and(|r| r == trace.report), || {
                format!("{name}: reply differs from the single-shot report")
            });
            busy += latency;
            if !traced {
                self.latency_ms
                    .entry(format!("{}/{format}", trace.name))
                    .or_default()
                    .push(secs(latency) * 1e3);
            }
            self.sessions.push(SessionObs { name, latency });
        }
        let wall = self.tr.close(pass);
        self.wall("serve", traced, secs(wall));
        if traced {
            self.layer
                .push("trace.coverage.serve", secs(busy) / secs(wall));
        }
    }

    /// Server-side numbers for the sessions this run submitted: queue
    /// wait and run time from `ServeManager::sessions`, the remainder of
    /// the client latency as transport, pool counters, and one timed
    /// `fleet_report`.
    pub fn serve_layers(&mut self) {
        let manager = &self.prep.server.manager;
        let summaries = manager.sessions();
        let by_name: BTreeMap<&str, _> = summaries.iter().map(|s| (s.name.as_str(), s)).collect();
        let (mut queued, mut run, mut transport) = (Vec::new(), Vec::new(), Vec::new());
        for obs in &self.sessions {
            let Some(s) = by_name.get(obs.name.as_str()) else {
                continue;
            };
            let (q, r) = (secs(s.queued_for), secs(s.running_for));
            queued.push(q);
            run.push(r);
            transport.push(secs(obs.latency) - q - r);
        }
        let completed = summaries
            .iter()
            .filter(|s| s.state == SessionState::Completed)
            .count();
        let med = crate::stats::median;
        self.layer.push("core.serve.queued_s", med(&queued));
        self.layer.push("core.serve.run_s", med(&run));
        self.layer.push("core.serve.transport_s", med(&transport));
        let pool = manager.pool();
        self.layer.push(
            "core.serve.pool_jobs",
            pool.jobs_run() as f64 / completed.max(1) as f64,
        );
        self.layer
            .push("core.serve.pool_busy_peak", pool.busy_peak() as f64);
        let rejected = manager
            .registry()
            .counter("heapdrag_serve_admission_rejections_total")
            .get();
        self.layer.push("core.serve.rejected", rejected as f64);
        let (fleet, t_fleet) = self
            .tr
            .leaf("core.serve.fleet_report", || manager.fleet_report(TOP));
        let want = format!("=== fleet drag report: {completed} sessions merged");
        self.tally.op(fleet.starts_with(&want), || {
            "fleet report does not merge every completed session".to_string()
        });
        self.layer.push("core.serve.fleet_report_s", secs(t_fleet));
    }
}
