//! The untraced run: the release CLI driven as a closed loop (one
//! operation in flight) for the run's seconds, every output checked.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sega_wire::Json;

use crate::child::{self, Daemon, Outcome, RunDir, OP_TIMEOUT};
use crate::jobs::{self, Job, Op, Spec, Workload};
use crate::reference::{check_front, DaemonModel, Exhaustive};
use crate::stats::{self, Metric};
use crate::Ctx;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Upper bound on explore/compile operations per second: their lists
/// hold this many per second of the run, and a run that exhausts its list
/// ends early.
const OPS_PER_SECOND_CEILING: usize = 400;

/// Requests one daemon serves before daemon-mix restarts it cold. Each
/// request costs more as the daemon's cache grows (syncs and store loads
/// walk all of it); past about 200 requests on a 2-CPU machine a request
/// outlasts the 25 ms accept poll and latency jumps to two polls. Fixed,
/// equal sessions keep every run at the same point of that curve.
pub const DAEMON_SESSION: usize = 100;

/// The operations one daemon lifetime serves (daemon-mix), or the whole
/// run's (the other workloads), with what serves and checks them. Fields
/// drop in order, so the daemon drains before its directory goes.
struct Session {
    daemon: Option<Daemon>,
    model: Option<DaemonModel>,
    ops: Vec<Op>,
    dir: RunDir,
}

impl Session {
    /// Session `index` of the run: its operation list and, for
    /// daemon-mix, a cold daemon with its fleet, up and answering hellos.
    fn start(ctx: &Ctx, index: u64) -> Result<Session, String> {
        let dir = RunDir::create(ctx.workload.name())?;
        let (ops, model, daemon) = match ctx.workload {
            Workload::DaemonMix => {
                let mut model = DaemonModel::new();
                let ops =
                    jobs::daemon_mix(ctx.seed, index, DAEMON_SESSION, &mut |job| model.run(job))?;
                let daemon = Daemon::start(&ctx.bin, dir.path(), "daemon")?;
                (ops, Some(model), Some(daemon))
            }
            w => {
                let cap = (ctx.seconds.ceil() as usize * OPS_PER_SECOND_CEILING).max(64);
                (jobs::paired_rounds(w, ctx.seed, cap), None, None)
            }
        };
        Ok(Session {
            daemon,
            model,
            ops,
            dir,
        })
    }

    /// Drains the daemon, if any; returns its model, its peak RSS and
    /// whether it drained cleanly (a daemon that had to be killed makes
    /// the run incorrect, but is still reaped).
    fn close(self) -> (Option<DaemonModel>, Option<f64>, bool) {
        let Session { daemon, model, .. } = self;
        let Some(daemon) = daemon else {
            return (model, None, true);
        };
        let peak = daemon.peak_rss_mb();
        let drained = daemon.drain();
        if let Err(e) = &drained {
            eprintln!("perfbench: {e}");
        }
        (model, peak, drained.is_ok())
    }
}

/// Everything before the first timed operation: the first session, the
/// exhaustive fronts and a warm-up `estimate`.
fn prepare(ctx: &Ctx) -> Result<(Session, Exhaustive), String> {
    let session = Session::start(ctx, 0)?;
    let exhaustive = Exhaustive::of(&jobs::grid(ctx.workload))?;
    let warm = child::run(&ctx.bin, &estimate_args(), OP_TIMEOUT)?;
    if !warm.ok {
        return Err(format!(
            "warm-up `estimate` failed: {}",
            String::from_utf8_lossy(&warm.stderr)
        ));
    }
    Ok((session, exhaustive))
}

/// A one-point `estimate`: the floor of every CLI operation.
pub fn estimate_args() -> Vec<String> {
    [
        "estimate",
        "--n",
        "32",
        "--h",
        "128",
        "--l",
        "16",
        "--k",
        "4",
        "--precision",
        "int8",
        "--json",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// The CLI arguments of `op`; daemon-mix writes its job file first.
pub fn op_args(
    workload: Workload,
    job: &Job,
    dir: &std::path::Path,
    daemon: Option<&Daemon>,
) -> Result<Vec<String>, String> {
    let path = |p: PathBuf| p.display().to_string();
    Ok(match workload {
        Workload::DseSweep => {
            let mut args = vec!["explore".to_owned()];
            args.extend(job.cli_flags());
            args.extend(["--json", "--threads", "1"].map(str::to_owned));
            args
        }
        Workload::CompileGen => {
            let out = dir.join("out");
            let _ = std::fs::remove_dir_all(&out);
            let mut args = vec!["compile".to_owned()];
            args.extend(job.cli_flags());
            args.extend([
                "--threads".to_owned(),
                "1".to_owned(),
                "--out".to_owned(),
                path(out),
            ]);
            args
        }
        Workload::DaemonMix => {
            let jobs_file = dir.join("job.json");
            std::fs::write(&jobs_file, job.job_file()).map_err(|e| format!("job file: {e}"))?;
            let daemon = daemon.ok_or("daemon-mix without a daemon")?;
            vec![
                "batch".to_owned(),
                "--jobs".to_owned(),
                path(jobs_file),
                "--connect".to_owned(),
                daemon.addr(),
                "--cache-dir".to_owned(),
                path(dir.join("client-store")),
            ]
        }
    })
}

/// The front a CLI operation printed, as parsed JSON.
pub fn printed_front(workload: Workload, out: &Outcome) -> Result<(Json, Option<u64>), String> {
    let text = std::str::from_utf8(&out.stdout).map_err(|e| e.to_string())?;
    let doc = Json::parse(text.trim()).map_err(|e| format!("stdout is not JSON: {e}"))?;
    let node = match workload {
        Workload::DaemonMix => doc
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .ok_or("batch report without a job")?
            .clone(),
        _ => doc,
    };
    let distinct = node.get("distinct_evaluations").and_then(Json::as_u64);
    let front = node.get("front").ok_or("output without a front")?.clone();
    Ok((front, distinct))
}

/// The design labels of a compile report's Pareto-frontier table.
fn report_designs(report: &str) -> Vec<String> {
    report
        .split("## Pareto frontier")
        .nth(1)
        .unwrap_or("")
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| design"))
        .filter_map(|l| l.split(" | ").next())
        .map(|cell| cell.trim_start_matches("| ").to_owned())
        .collect()
}

/// Checks a finished `compile`: artifacts written and non-empty, the
/// gate-count audit consistent (exit 0 also means DRC clean and audit
/// within tolerance). Returns the frontier designs and a hash of the
/// Verilog and DEF bytes.
pub fn check_compile(out_dir: &std::path::Path) -> Result<(Vec<String>, u64), String> {
    let read = |name: &str| {
        std::fs::read(out_dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
    };
    let verilog = read("macro.v")?;
    let def = read("macro.def")?;
    if verilog.is_empty() || def.is_empty() {
        return Err("empty macro.v or macro.def".to_owned());
    }
    let report = String::from_utf8(read("report.md")?).map_err(|e| e.to_string())?;
    let audit = report
        .lines()
        .find_map(|l| l.strip_prefix("* audit: area err "))
        .ok_or("report without an audit line")?;
    let errors: Vec<f64> = audit
        .split(", energy err ")
        .map(|v| v.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("audit line `{audit}`: {e}"))?;
    if errors.len() != 2 || errors.iter().any(|e| e.is_nan() || e.abs() > 1e-9) {
        return Err(format!("audit inconsistent: {audit}"));
    }
    let designs = report_designs(&report);
    if designs.is_empty() {
        return Err("report without a frontier".to_owned());
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    verilog.hash(&mut hasher);
    def.hash(&mut hasher);
    Ok((designs, hasher.finish()))
}

/// One timed operation and what its checks found.
struct Sample {
    op: Op,
    session: usize,
    wall: f64,
    ok: bool,
    out: Outcome,
    designs: Vec<String>,
    /// What a repeat of the job must reproduce byte for byte.
    key: Vec<u8>,
}

/// Runs the workload and returns `(correct, attempted, failed, metrics)`.
pub fn run(ctx: &Ctx) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(prepare(ctx)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (mut session, exhaustive) = prepared.expect("at least one set-up");
    let workload = ctx.workload;

    // The closed loop: nothing but spawning, waiting and (for compile,
    // whose artifacts the next operation overwrites) reading the output
    // happens between operations — and, for daemon-mix, a daemon restart
    // every DAEMON_SESSION requests.
    let budget = Duration::from_secs_f64(ctx.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let mut models = Vec::new();
    let mut daemon_peaks = Vec::new();
    let mut undrained = 0;
    let start = Instant::now();
    'run: for index in 0.. {
        if index > 0 {
            if workload != Workload::DaemonMix {
                break;
            }
            let (model, peak, drained) = session.close();
            models.push(model);
            daemon_peaks.extend(peak);
            undrained += usize::from(!drained);
            session = Session::start(ctx, index as u64)?;
        }
        for op in &session.ops {
            if start.elapsed() >= budget {
                break 'run;
            }
            let args = op_args(
                workload,
                &op.job,
                session.dir.path(),
                session.daemon.as_ref(),
            )?;
            let out = child::run(&ctx.bin, &args, OP_TIMEOUT)?;
            let mut sample = Sample {
                op: *op,
                session: index,
                wall: out.wall.as_secs_f64(),
                ok: out.ok,
                out,
                designs: Vec::new(),
                key: Vec::new(),
            };
            if workload == Workload::CompileGen && sample.ok {
                match check_compile(&session.dir.path().join("out")) {
                    Ok((designs, hash)) => {
                        sample.designs = designs;
                        sample.key = hash.to_le_bytes().to_vec();
                    }
                    Err(e) => fail(&mut sample, &e),
                }
            }
            samples.push(sample);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (model, peak, drained) = session.close();
    models.push(model);
    daemon_peaks.extend(peak);
    undrained += usize::from(!drained);

    // Output checks, after the clock stopped.
    let mut first: HashMap<(usize, Job), Vec<u8>> = HashMap::new();
    for sample in samples.iter_mut().filter(|s| s.ok) {
        let spec = sample.op.job.spec;
        if workload != Workload::CompileGen {
            let model = models[sample.session].as_ref();
            match check_printed(workload, spec, sample, model) {
                Ok((designs, front)) => {
                    sample.designs = designs;
                    sample.key = front.into_bytes();
                }
                Err(e) => {
                    fail(sample, &e);
                    continue;
                }
            }
        }
        // A repeat must reproduce the first run of its job byte for byte
        // (the front for explore and batch, Verilog + DEF for compile).
        match first.get(&(sample.session, sample.op.job)) {
            Some(earlier) if *earlier != sample.key => {
                fail(sample, "a repeat of the job produced different output")
            }
            Some(_) => {}
            None => {
                first.insert((sample.session, sample.op.job), sample.key.clone());
            }
        }
    }

    let attempted = samples.len();
    let failed = samples.iter().filter(|s| !s.ok).count();
    let all: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let of = |repeat: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.op.repeat == repeat)
            .map(|s| s.wall)
            .collect()
    };
    let p50 = stats::median(&all).ok_or("no operation completed")?;
    let p90 = stats::tail(&all, 0.9).ok_or("too few operations for a tail percentile")?;
    let miss = stats::median(&of(false)).unwrap_or(p50);
    let hit = stats::median(&of(true)).unwrap_or(p50);
    // Recall per operation, averaged within each spec and then across
    // specs, so neither a spec's exhaustive-front size nor how often the
    // seed drew it weighs on the result.
    let mut by_spec: HashMap<Spec, Vec<f64>> = HashMap::new();
    for s in samples.iter().filter(|s| s.ok) {
        let (found, total) = exhaustive.recall(s.op.job.spec, &s.designs);
        by_spec
            .entry(s.op.job.spec)
            .or_default()
            .push(found as f64 / total.max(1) as f64);
    }
    let recall = by_spec
        .values()
        .map(|r| r.iter().sum::<f64>() / r.len() as f64)
        .sum::<f64>()
        / by_spec.len().max(1) as f64;
    // Memory at the operation tail, read like latency: the p90 of each
    // operation's own peak RSS (the maximum depends on how many
    // operations ran and on a rare GA seed picking a larger design), and
    // the daemon's high-water mark over its equal sessions.
    let op_peaks: Vec<f64> = samples.iter().map(|s| s.out.peak_rss_mb).collect();
    let op_peak = stats::tail(&op_peaks, 0.9).expect("the latency tail exists");
    let daemon_peak = stats::median(&daemon_peaks).map_or(0.0, |p| p.value);
    let setup = stats::median(&setups).expect("set-ups ran");

    println!(
        "perfbench {}",
        Json::obj([
            ("workload", Json::from(workload.name())),
            ("seed", Json::from(ctx.seed)),
            ("nproc", Json::from(crate::nproc())),
            ("profile", Json::from(crate::PROFILE)),
            ("ops", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("failed_ratio", Json::from(failed as f64 / attempted as f64)),
            ("wall_s", Json::from(wall)),
            ("sessions", Json::from(models.len())),
            ("undrained_daemons", Json::from(undrained)),
            ("p50_samples", Json::from(p50.samples)),
            ("p90_quantile", Json::from(p90.quantile)),
            ("p90_samples", Json::from(p90.samples)),
            ("miss_samples", Json::from(of(false).len())),
            ("hit_samples", Json::from(of(true).len())),
            ("setup_samples", Json::from(setups.len())),
            ("op_peak_rss_p90_mb", Json::from(op_peak.value)),
            ("daemon_peak_rss_mb", Json::from(daemon_peak)),
        ])
    );
    for s in samples.iter().filter(|s| !s.ok).take(5) {
        eprintln!(
            "perfbench: failed {:?} (timed out: {}): {}",
            s.op,
            s.out.timed_out,
            String::from_utf8_lossy(&s.out.stderr).trim()
        );
    }
    let metric = |name: &'static str, value: f64| Metric {
        name,
        value,
        unit: stats::unit_of(name),
    };
    let metrics = vec![
        metric("op_p50_s", p50.value),
        metric("op_p90_s", p90.value),
        metric("ops_per_s", (attempted - failed) as f64 / wall),
        metric("miss_op_p50_s", miss.value),
        metric("hit_op_p50_s", hit.value),
        metric("setup_s", setup.value),
        metric("peak_rss_mb", op_peak.value.max(daemon_peak)),
        metric("front_recall", recall),
    ];
    Ok((failed == 0 && undrained == 0, attempted, failed, metrics))
}

/// Marks a sample failed, keeping the reason with its stderr.
fn fail(sample: &mut Sample, reason: &str) {
    sample.ok = false;
    sample
        .out
        .stderr
        .extend_from_slice(format!("\ncheck: {reason}").as_bytes());
}

/// The checks of an `explore` or `batch --connect` output: the front
/// against the estimator and the dominance oracle, and for daemon-mix the
/// modelled accounting and front. Returns the front's designs and text.
fn check_printed(
    workload: Workload,
    spec: Spec,
    sample: &Sample,
    model: Option<&DaemonModel>,
) -> Result<(Vec<String>, String), String> {
    let (front, distinct) = printed_front(workload, &sample.out)?;
    let designs = check_front(spec, &front)?;
    let front = front.to_string();
    if let Some(model) = model {
        let expected = model.expected(&sample.op.job)?;
        let distinct = distinct.ok_or("report without distinct_evaluations")? as usize;
        let want = if sample.op.repeat {
            0
        } else {
            expected.distinct
        };
        if distinct != want {
            return Err(format!(
                "{} request reported {distinct} distinct evaluations, expected {want}",
                if sample.op.repeat { "repeat" } else { "new" }
            ));
        }
        if front != expected.front {
            return Err("front differs from the in-process batch of the same job".to_owned());
        }
    }
    Ok((designs, front))
}
