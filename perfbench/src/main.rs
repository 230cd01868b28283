//! `perfbench`: the end-to-end and per-layer benchmark of `sega-dcim`.
//!
//! ```text
//! perfbench --bin PATH --workload dse-sweep|compile-gen|daemon-mix
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it drives the release CLI at `--bin` as a closed
//! loop for `S` seconds and prints the end-to-end metrics; with
//! `--trace 1` it replays the workload's inputs in-process through each
//! crate's public calls and prints the per-layer metrics. The last line
//! of stdout is the result object; see `README.md` beside this crate.

mod child;
mod jobs;
mod reference;
mod stats;
mod traced;
mod untraced;

use std::path::PathBuf;
use std::process::ExitCode;

use jobs::Workload;

/// The build profile of this harness (the CLI is built the same way).
pub const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Hardware threads available to the run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One run's settings.
pub struct Ctx {
    /// The release `sega-dcim` binary.
    pub bin: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the untraced loop measures.
    pub seconds: f64,
}

fn parse(args: &[String]) -> Result<(Ctx, bool), String> {
    let mut bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--bin" => bin = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let ctx = Ctx {
        bin: bin.ok_or("missing --bin")?,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
    };
    Ok((ctx, trace.ok_or("missing --trace")?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(ctx, trace)| {
        if trace {
            traced::run(&ctx)
        } else {
            untraced::run(&ctx)
        }
    });
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                stats::result_line(correct, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
