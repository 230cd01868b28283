//! The traced run: the workload's inputs replayed in-process, one public
//! call of each crate at a time, with a span around every call.
//!
//! Every replayed operation is also run through the CLI, untraced, and
//! its output must match the replay's byte for byte. A layer the workload
//! does not exercise is read from a one-operation probe of a workload
//! that does, so every per-layer metric is a real measurement in every
//! traced run; shares and the tracing overhead come from the workload's
//! own operations only.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sega_dcim::explore::{DcimProblem, Geometry};
use sega_dcim::{
    CacheStore, CohortEvaluator, DistillStrategy, EvalBackend, MacroModelBackend, ParetoSolution,
    PipelineOptions, RemoteBackend, RemoteOptions, SharedEvalCache, UserSpec,
};
use sega_estimator::{estimate, EstimatorStats};
use sega_layout::LayoutOptions;
use sega_moga::{DriverPhase, Nsga2Driver, ObjectiveMatrix, Problem};
use sega_parallel::Pool;
use sega_wire::frame::{self, JobRequest, JobResponse, Message, SyncRequest};
use sega_wire::{CacheDigest, Json, Snapshot};

use crate::child::{self, Daemon, RunDir, Session, OP_TIMEOUT};
use crate::jobs::{self, Job, Op, Workload};
use crate::reference::{check_front, front_json, setting, user_spec, DaemonModel};
use crate::stats::{self, Metric, PER_LAYER};
use crate::untraced::{check_compile, estimate_args, op_args, printed_front};
use crate::Ctx;

/// `estimate` runs behind `cli.process_start_s` (their median).
const PROCESS_START_RUNS: usize = 11;

/// Daemon-mix requests replayed (the first ones of the run's list).
const DAEMON_REPLAY: usize = 64;

/// One timed call.
#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    duration: Duration,
}

/// Spans and counters of one replay, kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: HashMap<&'static str, f64>,
}

/// The tracer shared by the replay and the timing backend wrappers.
type Shared = Arc<Mutex<Tracer>>;

fn lock(tracer: &Shared) -> std::sync::MutexGuard<'_, Tracer> {
    tracer.lock().expect("a replay step panicked while tracing")
}

/// Runs `f` inside a span named `name`, a child of the innermost open span.
fn span<R>(tracer: &Shared, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = {
        let mut t = lock(tracer);
        let id = t.spans.len();
        let parent = t.open.last().copied();
        t.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            duration: Duration::ZERO,
        });
        t.open.push(id);
        id
    };
    let result = f();
    let mut t = lock(tracer);
    let span = &mut t.spans[id];
    span.duration = span.start.elapsed();
    t.open.pop();
    result
}

/// Adds `value` to counter `name`.
fn count(tracer: &Shared, name: &'static str, value: f64) {
    *lock(tracer).counters.entry(name).or_default() += value;
}

impl Tracer {
    /// Total seconds spent in spans named `name`; `None` when none ran.
    fn seconds(&self, name: &str) -> Option<f64> {
        let mut spans = self.spans.iter().filter(|s| s.name == name).peekable();
        spans.peek()?;
        Some(spans.map(|s| s.duration.as_secs_f64()).sum())
    }

    /// Total seconds of the top-level spans: the traced wall of the work
    /// replayed.
    fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration.as_secs_f64())
            .sum()
    }

    fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// The law children <= parent: the direct children of every span
    /// together take no longer than the span itself.
    fn check_nesting(&self) -> Result<(), String> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration;
            }
        }
        for (s, inner) in self.spans.iter().zip(children) {
            if inner > s.duration {
                return Err(format!(
                    "span `{}` ({:?}) is shorter than its children ({inner:?})",
                    s.name, s.duration
                ));
            }
        }
        Ok(())
    }

    /// Every per-layer metric this replay measured.
    fn layer_metrics(&self) -> HashMap<&'static str, f64> {
        let mut m = HashMap::new();
        let mut put = |name: &'static str, value: Option<f64>| {
            if let Some(v) = value {
                m.insert(name, v);
            }
        };
        for name in [
            "moga.breed",
            "moga.reconcile",
            "moga.select",
            "core.evaluate",
            "core.audit",
            "estimator.cohort",
            "netlist.generate",
            "netlist.verilog",
            "layout.floorplan",
            "layout.drc",
            "layout.def",
            "store.load",
            "store.save",
            "wire.report_encode",
            "wire.snapshot_encode",
            "wire.snapshot_decode",
            "serve.hello",
            "serve.job",
            "serve.sync",
            "remote.spawn",
            "remote.cohort",
        ] {
            put(metric_name(name), self.seconds(name));
        }
        for name in [
            "moga.dominance_comparisons",
            "moga.dominance_word_ops",
            "core.distinct_evaluations",
            "estimator.designs",
            "netlist.verilog_bytes",
            "store.bytes_read",
            "store.bytes_written",
            "remote.round_trips",
            "remote.requeues",
            "remote.deaths",
        ] {
            put(name, self.counter(name));
        }
        if let Some(evaluate) = self.seconds("core.evaluate") {
            // The cache tier's own time: evaluation minus the backend
            // calls nested in it (the replayed estimator cohorts of
            // daemon-mix run outside `core.evaluate`).
            let backend: f64 = self
                .spans
                .iter()
                .filter(|s| matches!(s.name, "estimator.cohort" | "remote.cohort"))
                .filter(|s| {
                    s.parent
                        .is_some_and(|p| self.spans[p].name == "core.evaluate")
                })
                .map(|s| s.duration.as_secs_f64())
                .sum();
            put("core.cache_self_s", Some(evaluate - backend));
        }
        if let (Some(hits), Some(evaluations)) =
            (self.counter("core.hits"), self.counter("core.evaluations"))
        {
            put("core.cache_hit_ratio", Some(hits / evaluations));
        }
        m
    }
}

/// `layer.call` -> `layer.call_s`.
fn metric_name(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| n.strip_suffix("_s") == Some(span))
        .unwrap_or_else(|| panic!("span `{span}` has no metric"))
}

/// An [`EvalBackend`] that times every non-empty cohort of the wrapped
/// backend as a `layer` span and counts its designs (into `designs`, when
/// set); with `record`, it also keeps each cohort and its rows.
#[derive(Debug)]
struct Timed {
    inner: Arc<dyn EvalBackend>,
    layer: &'static str,
    designs: Option<&'static str>,
    tracer: Shared,
    record: Option<Arc<Mutex<Vec<Recorded>>>>,
}

/// A cohort a backend evaluated, with its spec and rows.
#[derive(Debug)]
struct Recorded {
    spec: UserSpec,
    cohort: Vec<Geometry>,
    rows: Vec<[f64; 4]>,
}

#[derive(Debug)]
struct TimedEvaluator {
    inner: Arc<dyn CohortEvaluator>,
    layer: &'static str,
    designs: Option<&'static str>,
    tracer: Shared,
    spec: UserSpec,
    record: Option<Arc<Mutex<Vec<Recorded>>>>,
}

impl EvalBackend for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind(
        &self,
        spec: &UserSpec,
        tech: &sega_cells::Technology,
        conditions: &sega_estimator::OperatingConditions,
    ) -> Arc<dyn CohortEvaluator> {
        Arc::new(TimedEvaluator {
            inner: self.inner.bind(spec, tech, conditions),
            layer: self.layer,
            designs: self.designs,
            tracer: Arc::clone(&self.tracer),
            spec: *spec,
            record: self.record.clone(),
        })
    }
}

impl CohortEvaluator for TimedEvaluator {
    fn evaluate_cohort(&self, cohort: &[Geometry], pool: &Pool, workers: usize) -> Vec<[f64; 4]> {
        if cohort.is_empty() {
            return self.inner.evaluate_cohort(cohort, pool, workers);
        }
        let rows = span(&self.tracer, self.layer, || {
            self.inner.evaluate_cohort(cohort, pool, workers)
        });
        if let Some(designs) = self.designs {
            count(&self.tracer, designs, cohort.len() as f64);
        }
        if let Some(record) = &self.record {
            record.lock().expect("recorder poisoned").push(Recorded {
                spec: self.spec,
                cohort: cohort.to_vec(),
                rows: rows.clone(),
            });
        }
        rows
    }

    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        self.inner.materialize(g)
    }

    fn estimator_stats(&self) -> EstimatorStats {
        self.inner.estimator_stats()
    }
}

/// The macro model behind a timing wrapper.
fn timed_estimator(tracer: &Shared) -> Arc<dyn EvalBackend> {
    Arc::new(Timed {
        inner: Arc::new(MacroModelBackend),
        layer: "estimator.cohort",
        designs: Some("estimator.designs"),
        tracer: Arc::clone(tracer),
        record: None,
    })
}

/// An exploration driven by hand: breed, `begin_cohort`/`finish_cohort`,
/// `provide_rows`, reconcile and select, one call at a time. Returns the
/// front exactly as the explorer concludes it.
fn replay_exploration(
    tracer: &Shared,
    job: &Job,
    pipeline: PipelineOptions,
) -> Result<Vec<ParetoSolution>, String> {
    let (tech, conditions) = setting();
    let problem = DcimProblem::with_options(user_spec(job.spec)?, tech, conditions, pipeline);
    let mut driver = Nsga2Driver::new(job.nsga_config(), problem.objectives());
    let result = loop {
        match driver.phase() {
            DriverPhase::Breed => span(tracer, "moga.breed", || driver.breed(&problem)),
            DriverPhase::Submitted => {
                let rows: ObjectiveMatrix = span(tracer, "core.evaluate", || {
                    let pending = problem.begin_cohort(driver.pending());
                    problem.finish_cohort(pending)
                });
                span(tracer, "moga.reconcile", || driver.provide_rows(&rows));
            }
            DriverPhase::Reconcile => span(tracer, "moga.reconcile", || driver.reconcile()),
            DriverPhase::Select => span(tracer, "moga.select", || driver.select()),
            DriverPhase::Done => break driver.into_result(),
        }
    };
    count(
        tracer,
        "moga.dominance_comparisons",
        result.dominance.comparisons as f64,
    );
    count(
        tracer,
        "moga.dominance_word_ops",
        result.dominance.word_ops as f64,
    );
    let stats = problem.stats();
    count(
        tracer,
        "core.distinct_evaluations",
        stats.distinct_evaluations() as f64,
    );
    count(tracer, "core.evaluations", result.evaluations as f64);
    count(tracer, "core.hits", (stats.hits() + result.interned) as f64);
    // The explorer's conclusion: feasible front members, by area, one per
    // design.
    let mut solutions: Vec<ParetoSolution> = result
        .front
        .iter()
        .filter_map(|ind| problem.materialize(&ind.genome))
        .filter(|s| s.estimate.area_mm2.is_finite())
        .collect();
    solutions.sort_by(|a, b| a.estimate.area_mm2.total_cmp(&b.estimate.area_mm2));
    solutions.dedup_by(|a, b| a.design == b.design);
    Ok(solutions)
}

/// Encodes a front document (the spec and the front in the CLI's wire
/// schema) inside a `wire.report_encode` span; returns the front's text.
fn encode_report(tracer: &Shared, job: &Job, solutions: &[ParetoSolution]) -> String {
    let front = front_json(solutions);
    span(tracer, "wire.report_encode", || {
        Json::obj([
            ("wstore", Json::from(job.spec.wstore)),
            ("precision", Json::from(job.spec.precision.name())),
            ("front", front.clone()),
        ])
        .to_string()
    });
    front.to_string()
}

/// The in-process state of daemon-mix replays: twin daemons fed the same
/// requests (the CLI client talks to one, the hand-driven client to the
/// other), a fleet of the same two workers for the replayed explorations,
/// and a cache mirroring the daemons'.
struct DaemonRig {
    cli_daemon: Daemon,
    hand_daemon: Daemon,
    fleet: Arc<RemoteBackend>,
    mirror: Arc<SharedEvalCache>,
    recorded: Arc<Mutex<Vec<Recorded>>>,
}

impl DaemonRig {
    fn start(ctx: &Ctx, dir: &Path, tracer: &Shared) -> Result<DaemonRig, String> {
        let cli_daemon = Daemon::start(&ctx.bin, dir, "cli")?;
        let hand_daemon = Daemon::start(&ctx.bin, dir, "hand")?;
        let mirror = Arc::new(SharedEvalCache::new());
        let fleet = span(tracer, "remote.spawn", || {
            RemoteBackend::spawn(RemoteOptions::fleet(&ctx.bin, 2))
        })?;
        Ok(DaemonRig {
            cli_daemon,
            hand_daemon,
            fleet: Arc::new(fleet.with_sink(Arc::clone(&mirror))),
            mirror,
            recorded: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Books the fleet's ledger into `tracer` and drains both daemons.
    fn finish(self, tracer: &Shared) -> [Result<(), String>; 2] {
        let stats = self.fleet.stats();
        count(tracer, "remote.round_trips", stats.round_trips as f64);
        count(tracer, "remote.requeues", stats.requeues as f64);
        count(tracer, "remote.deaths", stats.worker_deaths as f64);
        [self.cli_daemon.drain(), self.hand_daemon.drain()]
    }
}

/// One anti-entropy pull by hand: send the digest of `local`, decode the
/// daemon's summary and entries, merge the entries.
fn sync_pull(
    tracer: &Shared,
    session: &mut Session,
    local: &mut Snapshot,
    id: u64,
) -> Result<(), String> {
    let request = Message::SyncRequest(SyncRequest {
        id,
        digest: CacheDigest::of(local),
    });
    frame::send(&mut session.writer, &request).map_err(|e| format!("sync: {e}"))?;
    loop {
        let payload = frame::read_frame(&mut session.reader).map_err(|e| format!("sync: {e}"))?;
        let message = span(tracer, "wire.snapshot_decode", || Message::decode(&payload))
            .map_err(|e| format!("sync: {e}"))?;
        match message {
            Message::SyncResponse(r) if r.id == id => {}
            Message::Heartbeat => {}
            Message::SyncEntries(e) if e.id == id => {
                local.merge(&e.delta);
                return Ok(());
            }
            other => return Err(format!("sync: unexpected {other:?}")),
        }
    }
}

/// What one replayed operation produced, for comparison with the CLI.
struct Replayed {
    /// Traced wall of the replay.
    wall: Duration,
    /// Comparable output (front text, or Verilog + DEF bytes).
    output: Vec<u8>,
}

/// Replays one `explore --json` operation.
fn replay_explore(tracer: &Shared, job: &Job) -> Result<Replayed, String> {
    let start = Instant::now();
    let front = span(tracer, "op", || -> Result<String, String> {
        let pipeline = PipelineOptions::with_threads(1).with_backend(timed_estimator(tracer));
        let solutions = replay_exploration(tracer, job, pipeline)?;
        Ok(encode_report(tracer, job, &solutions))
    })?;
    Ok(Replayed {
        wall: start.elapsed(),
        output: front.into_bytes(),
    })
}

/// Replays one `compile`: exploration, distillation, then the generation
/// stages one call at a time.
fn replay_compile(tracer: &Shared, job: &Job) -> Result<Replayed, String> {
    let (tech, conditions) = setting();
    let start = Instant::now();
    let (verilog, def) = span(tracer, "op", || -> Result<(String, String), String> {
        let pipeline = PipelineOptions::with_threads(1).with_backend(timed_estimator(tracer));
        let solutions = replay_exploration(tracer, job, pipeline)?;
        let design = sega_dcim::distill::distill(&solutions, &DistillStrategy::Knee)
            .ok_or("empty frontier")?
            .design;
        design.validate().map_err(|e| e.to_string())?;
        let est = estimate(&design, &tech, &conditions);
        let netlist = span(tracer, "netlist.generate", || {
            sega_netlist::generators::generate_macro(&design)
        })
        .map_err(|e| e.to_string())?;
        let audit = span(tracer, "core.audit", || {
            sega_netlist::stats::audit(&netlist, &est)
        })
        .map_err(|e| e.to_string())?;
        if !audit.is_consistent(1e-9) {
            return Err("audit inconsistent".to_owned());
        }
        let verilog = span(tracer, "netlist.verilog", || {
            sega_netlist::verilog::emit(&netlist)
        })
        .map_err(|e| e.to_string())?;
        let layout = span(tracer, "layout.floorplan", || {
            sega_layout::floorplan::floorplan_macro(&design, &tech, &LayoutOptions::default())
        })
        .map_err(|e| e.to_string())?;
        let violations = span(tracer, "layout.drc", || {
            sega_layout::drc::check_floorplan(&layout)
        });
        if !violations.is_empty() {
            return Err(format!("{} DRC violations", violations.len()));
        }
        let def = span(tracer, "layout.def", || {
            sega_layout::export::to_def(&layout, &[])
        });
        Ok((verilog, def))
    })?;
    count(tracer, "netlist.verilog_bytes", verilog.len() as f64);
    let mut output = verilog.into_bytes();
    output.extend_from_slice(def.as_bytes());
    Ok(Replayed {
        wall: start.elapsed(),
        output,
    })
}

/// Replays one daemon-mix request as a hand-driven client of the twin
/// daemon (hello, store load, sync, job, sync, store save), then the
/// daemon's exploration itself in-process over the fleet.
fn replay_request(
    tracer: &Shared,
    rig: &mut DaemonRig,
    store_dir: &Path,
    job: &Job,
) -> Result<(Replayed, u64), String> {
    let start = Instant::now();
    let (front, distinct) = span(tracer, "op", || -> Result<(String, u64), String> {
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut session = span(tracer, "serve.hello", || {
            child::hello(rig.hand_daemon.socket(), deadline)
        })?;
        let mut store = CacheStore::dir(store_dir, sega_dcim::DEFAULT_MAX_SEGMENTS)?;
        let mut local = span(tracer, "store.load", || store.load())?.snapshot;
        span(tracer, "serve.sync", || {
            sync_pull(tracer, &mut session, &mut local, 1)
        })?;
        let request = Message::JobRequest(JobRequest {
            id: 1,
            wstore: job.spec.wstore,
            precision: job.spec.precision.name().to_ascii_lowercase(),
            population: job.nsga_config().population as u32,
            generations: job.nsga_config().generations as u32,
            seed: job.seed,
        });
        let response = span(tracer, "serve.job", || -> Result<JobResponse, String> {
            frame::send(&mut session.writer, &request).map_err(|e| format!("job: {e}"))?;
            loop {
                match frame::recv(&mut session.reader).map_err(|e| format!("job: {e}"))? {
                    Message::JobResponse(r) => return Ok(r),
                    Message::Heartbeat => {}
                    other => return Err(format!("job: unexpected {other:?}")),
                }
            }
        })?;
        span(tracer, "serve.sync", || {
            sync_pull(tracer, &mut session, &mut local, 2)
        })?;
        span(tracer, "store.save", || store.save(&local))?;
        span(tracer, "wire.snapshot_encode", || local.encode_binary());
        let stats = store.stats();
        count(tracer, "store.bytes_read", stats.bytes_read as f64);
        count(tracer, "store.bytes_written", stats.bytes_written as f64);
        // The client rematerializes the daemon's geometries locally.
        let (tech, conditions) = setting();
        let evaluator = MacroModelBackend.bind(&user_spec(job.spec)?, &tech, &conditions);
        let solutions: Vec<ParetoSolution> = response
            .front
            .iter()
            .map(|r| {
                evaluator.materialize(&Geometry {
                    log_h: r.log_h,
                    log_l: r.log_l,
                    k: r.k,
                })
            })
            .collect::<Option<_>>()
            .ok_or("daemon front outside the design space")?;
        Ok((
            encode_report(tracer, job, &solutions),
            response.distinct_evaluations,
        ))
    })?;
    let wall = start.elapsed();

    // The daemon's exploration, replayed against the mirror cache with
    // the fleet behind a timing wrapper; its fresh cohorts then go
    // through the in-process estimator, which must agree row for row.
    let timed_fleet: Arc<dyn EvalBackend> = Arc::new(Timed {
        inner: Arc::clone(&rig.fleet) as Arc<dyn EvalBackend>,
        layer: "remote.cohort",
        designs: None,
        tracer: Arc::clone(tracer),
        record: Some(Arc::clone(&rig.recorded)),
    });
    let pipeline = PipelineOptions::with_threads(1)
        .with_shared_cache(Arc::clone(&rig.mirror))
        .with_backend(timed_fleet);
    let replayed = span(tracer, "ga", || replay_exploration(tracer, job, pipeline))?;
    if front_json(&replayed).to_string() != front {
        return Err("the replayed exploration's front differs from the daemon's".to_owned());
    }
    let (tech, conditions) = setting();
    let recorded: Vec<Recorded> = std::mem::take(&mut *rig.recorded.lock().expect("recorder"));
    for r in recorded {
        let evaluator = timed_estimator(tracer).bind(&r.spec, &tech, &conditions);
        let pool = Pool::for_threads(1);
        let rows = evaluator.evaluate_cohort(&r.cohort, &pool, 1);
        if rows != r.rows {
            return Err("fleet rows differ from the in-process estimator".to_owned());
        }
    }
    Ok((
        Replayed {
            wall,
            output: front.into_bytes(),
        },
        distinct,
    ))
}

/// One workload's operations replayed into one tracer, each checked
/// against an untraced CLI run of the same operation.
struct Phase<'a> {
    ctx: &'a Ctx,
    dir: &'a Path,
    tracer: Shared,
    rig: Option<DaemonRig>,
    model: &'a DaemonModel,
    traced: Duration,
    untraced: Duration,
    attempted: usize,
    failed: usize,
    /// Daemons that had to be killed instead of draining.
    undrained: usize,
}

impl<'a> Phase<'a> {
    fn new(ctx: &'a Ctx, dir: &'a Path, model: &'a DaemonModel) -> Phase<'a> {
        Phase {
            ctx,
            dir,
            tracer: Shared::default(),
            rig: None,
            model,
            traced: Duration::ZERO,
            untraced: Duration::ZERO,
            attempted: 0,
            failed: 0,
            undrained: 0,
        }
    }

    /// Replays `op` of `workload`; a failed or diverging operation is
    /// counted and reported, not fatal.
    fn replay(&mut self, workload: Workload, op: &Op) {
        self.attempted += 1;
        if let Err(e) = self.try_replay(workload, op) {
            self.failed += 1;
            eprintln!("perfbench: traced {} {:?}: {e}", workload.name(), op.job);
        }
    }

    fn try_replay(&mut self, workload: Workload, op: &Op) -> Result<(), String> {
        if workload == Workload::DaemonMix && self.rig.is_none() {
            self.rig = Some(DaemonRig::start(self.ctx, self.dir, &self.tracer)?);
        }
        let daemon = self.rig.as_ref().map(|r| &r.cli_daemon);
        let args = op_args(workload, &op.job, self.dir, daemon)?;
        let out = child::run(&self.ctx.bin, &args, OP_TIMEOUT)?;
        if !out.ok {
            return Err(format!(
                "CLI failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let (cli_output, replayed) = match workload {
            Workload::CompileGen => {
                check_compile(&self.dir.join("out"))?;
                let read = |n: &str| std::fs::read(self.dir.join("out").join(n));
                let mut bytes = read("macro.v").map_err(|e| e.to_string())?;
                bytes.extend(read("macro.def").map_err(|e| e.to_string())?);
                (bytes, replay_compile(&self.tracer, &op.job)?)
            }
            Workload::DseSweep => {
                let (front, _) = printed_front(workload, &out)?;
                check_front(op.job.spec, &front)?;
                (
                    front.to_string().into_bytes(),
                    replay_explore(&self.tracer, &op.job)?,
                )
            }
            Workload::DaemonMix => {
                let (front, distinct) = printed_front(workload, &out)?;
                let store = self.dir.join("hand-client-store");
                let rig = self.rig.as_mut().expect("rig started");
                let (replayed, hand_distinct) = replay_request(&self.tracer, rig, &store, &op.job)?;
                let expected = self.model.expected(&op.job)?;
                let want = if op.repeat {
                    0
                } else {
                    expected.distinct as u64
                };
                if distinct != Some(want) || hand_distinct != want {
                    return Err(format!(
                        "distinct evaluations {distinct:?} (CLI) / {hand_distinct} (replay), expected {want}"
                    ));
                }
                if front.to_string() != expected.front {
                    return Err("front differs from the in-process batch".to_owned());
                }
                (front.to_string().into_bytes(), replayed)
            }
        };
        if cli_output != replayed.output {
            return Err("the traced replay's output differs from the CLI's".to_owned());
        }
        self.traced += replayed.wall;
        self.untraced += out.wall;
        Ok(())
    }

    /// Stops the daemons and books the fleet ledger.
    fn finish(&mut self) {
        if let Some(rig) = self.rig.take() {
            for drained in rig.finish(&self.tracer) {
                if let Err(e) = drained {
                    eprintln!("perfbench: {e}");
                    self.undrained += 1;
                }
            }
        }
    }
}

/// The operations the traced run replays for `workload`: one round of
/// its grid, or the first requests of its list.
fn replay_list(workload: Workload, seed: u64, model: &mut DaemonModel) -> Result<Vec<Op>, String> {
    Ok(match workload {
        Workload::DaemonMix => jobs::daemon_mix(seed, 0, DAEMON_REPLAY, &mut |j| model.run(j))?,
        w => jobs::paired_rounds(w, seed, jobs::grid(w).len()),
    })
}

/// Runs the traced replay and returns `(correct, attempted, failed, metrics)`.
pub fn run(ctx: &Ctx) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let dir = RunDir::create(&format!("{}-traced", ctx.workload.name()))?;
    let mut model = DaemonModel::new();
    let own_ops = replay_list(ctx.workload, ctx.seed, &mut model)?;
    // The probe: the first operations of the other workloads, for the
    // layers this workload never reaches.
    let mut probe_ops: Vec<(Workload, Op)> = Vec::new();
    for other in Workload::ALL.into_iter().filter(|&w| w != ctx.workload) {
        let ops = match other {
            Workload::DaemonMix => jobs::daemon_mix(ctx.seed, 0, 2, &mut |j| model.run(j))?,
            w => jobs::paired_rounds(w, ctx.seed, 1),
        };
        probe_ops.extend(ops.into_iter().map(|op| (other, op)));
    }

    let mut starts = Vec::with_capacity(PROCESS_START_RUNS);
    for _ in 0..PROCESS_START_RUNS {
        let out = child::run(&ctx.bin, &estimate_args(), OP_TIMEOUT)?;
        if !out.ok {
            return Err("`estimate` failed".to_owned());
        }
        starts.push(out.wall.as_secs_f64());
    }

    let mut own = Phase::new(ctx, dir.path(), &model);
    for op in &own_ops {
        own.replay(ctx.workload, op);
    }
    own.finish();
    let probe_dir = dir.path().join("probe");
    std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
    let mut probe = Phase::new(ctx, &probe_dir, &model);
    for (workload, op) in &probe_ops {
        probe.replay(*workload, op);
    }
    probe.finish();

    let mut laws = Ok(());
    let mut layers = HashMap::new();
    for phase in [&probe, &own] {
        let tracer = lock(&phase.tracer);
        laws = laws.and(tracer.check_nesting());
        layers.extend(tracer.layer_metrics());
    }
    let (wall, select) = {
        let tracer = lock(&own.tracer);
        (
            tracer.root_seconds(),
            tracer.seconds("moga.select").unwrap_or(0.0),
        )
    };
    layers.insert(
        "cli.process_start_s",
        stats::median(&starts).expect("runs").value,
    );
    layers.insert(
        "moga.select_share",
        if wall > 0.0 { select / wall } else { 0.0 },
    );
    layers.insert("trace.wall_s", own.traced.as_secs_f64());
    layers.insert(
        "trace.overhead_s",
        own.traced.as_secs_f64() - own.untraced.as_secs_f64(),
    );
    if let Err(e) = &laws {
        eprintln!("perfbench: {e}");
    }

    let attempted = own.attempted + probe.attempted;
    let failed = own.failed + probe.failed;
    let undrained = own.undrained + probe.undrained;
    println!(
        "perfbench {}",
        Json::obj([
            ("workload", Json::from(ctx.workload.name())),
            ("seed", Json::from(ctx.seed)),
            ("trace", Json::from(true)),
            ("nproc", Json::from(crate::nproc())),
            ("profile", Json::from(crate::PROFILE)),
            ("replayed_ops", Json::from(own.attempted)),
            ("probe_ops", Json::from(probe.attempted)),
            ("failed", Json::from(failed)),
            ("untraced_wall_s", Json::from(own.untraced.as_secs_f64())),
            ("children_le_parent", Json::from(laws.is_ok())),
            ("undrained_daemons", Json::from(undrained)),
        ])
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER.iter() {
        let value = *layers
            .get(name)
            .ok_or_else(|| format!("the traced run did not measure `{name}`"))?;
        metrics.push(Metric { name, value, unit });
    }
    let correct = failed == 0 && undrained == 0 && laws.is_ok();
    Ok((correct, attempted, failed, metrics))
}
