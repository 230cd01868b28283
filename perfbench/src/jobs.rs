//! Seeded operation lists for the three workloads.
//!
//! The benchmark seed is the only source of randomness: it picks the
//! order of the specifications and every GA seed. The program under test
//! only ever sees the generated flags and job files.

use sega_estimator::Precision;

/// The precisions of the paper's Fig. 7 sweep.
pub const PRECISIONS: [Precision; 8] = [
    Precision::Int2,
    Precision::Int4,
    Precision::Int8,
    Precision::Int16,
    Precision::Fp8,
    Precision::Fp16,
    Precision::Bf16,
    Precision::Fp32,
];

/// The `Wstore` values of the paper's Fig. 8 sweep (4K to 128K weights).
pub const WSTORES: [u64; 6] = [4096, 8192, 16384, 32768, 65536, 131072];

/// The `compile-gen` exploration budget (population, generations).
pub const COMPILE_BUDGET: (usize, usize) = (64, 32);

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `explore --json` at the default budget over the Fig. 7 x Fig. 8 grid.
    DseSweep,
    /// `compile` at a small budget over INT and FP specs.
    CompileGen,
    /// `batch --connect` requests against one `serve` daemon with a fleet.
    DaemonMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DseSweep,
        Workload::CompileGen,
        Workload::DaemonMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseSweep => "dse-sweep",
            Workload::CompileGen => "compile-gen",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `(Wstore, precision)` specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Spec {
    /// Weights stored.
    pub wstore: u64,
    /// Computing precision.
    pub precision: Precision,
}

/// One exploration job: a specification, a GA budget and a GA seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The specification.
    pub spec: Spec,
    /// `(population, generations)`; `None` leaves the CLI default.
    pub budget: Option<(usize, usize)>,
    /// The NSGA-II seed.
    pub seed: u64,
}

impl Job {
    /// The NSGA-II configuration the program runs this job with.
    pub fn nsga_config(&self) -> sega_moga::Nsga2Config {
        let mut config = sega_moga::Nsga2Config {
            seed: self.seed,
            ..Default::default()
        };
        if let Some((population, generations)) = self.budget {
            config.population = population;
            config.generations = generations;
        }
        config
    }

    /// The `--wstore/--precision/--seed` (and budget) flags of this job.
    pub fn cli_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--wstore".to_owned(),
            self.spec.wstore.to_string(),
            "--precision".to_owned(),
            self.spec.precision.name().to_ascii_lowercase(),
            "--seed".to_owned(),
            self.seed.to_string(),
        ];
        if let Some((population, generations)) = self.budget {
            flags.extend([
                "--population".to_owned(),
                population.to_string(),
                "--generations".to_owned(),
                generations.to_string(),
            ]);
        }
        flags
    }

    /// This job as a one-job `batch --jobs` file.
    pub fn job_file(&self) -> String {
        let config = self.nsga_config();
        format!(
            "{{\"jobs\":[{{\"wstore\":{},\"precision\":\"{}\",\"population\":{},\"generations\":{},\"seed\":{}}}]}}\n",
            self.spec.wstore,
            self.spec.precision.name().to_ascii_lowercase(),
            config.population,
            config.generations,
            config.seed
        )
    }
}

/// One operation of a workload: a job, and whether the same job already
/// ran earlier in the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The job.
    pub job: Job,
    /// `true` when an earlier operation ran the identical job.
    pub repeat: bool,
}

/// SplitMix64: a tiny, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the stream named by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A GA seed (kept to 32 bits so job files stay readable).
    pub fn ga_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The specification grid a workload draws from.
pub fn grid(workload: Workload) -> Vec<Spec> {
    let mut specs = Vec::new();
    for &precision in &PRECISIONS {
        for &wstore in &WSTORES {
            // compile-gen leaves out INT2 (the generators' smallest
            // datapath adds nothing the INT4 points do not cover) and the
            // FP16/FP32 macros at 64K and above, whose single compiles
            // take 0.4 s to 1 s and write up to 25 MB of Verilog: one of
            // them would outweigh a whole round of the other specs.
            let skip = workload == Workload::CompileGen
                && (precision == Precision::Int2
                    || (matches!(precision, Precision::Fp16 | Precision::Fp32) && wstore >= 65536));
            if !skip {
                specs.push(Spec { wstore, precision });
            }
        }
    }
    specs
}

/// The operation list of `dse-sweep` or `compile-gen`: rounds over the
/// whole grid in seeded order, every job with a fresh GA seed. Each job
/// runs twice: new jobs and repeats of earlier ones alternate, so both
/// kinds meet the same machine conditions, and a repeat must reproduce
/// its first run byte for byte.
pub fn paired_rounds(workload: Workload, seed: u64, cap: usize) -> Vec<Op> {
    let budget = match workload {
        Workload::DseSweep => None,
        Workload::CompileGen => Some(COMPILE_BUDGET),
        Workload::DaemonMix => panic!("daemon-mix draws its requests from a cache model"),
    };
    let specs = grid(workload);
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let mut ops = Vec::with_capacity(cap + 1);
    while ops.len() < cap {
        let mut jobs: Vec<Job> = specs
            .iter()
            .map(|&spec| Job {
                spec,
                budget,
                seed: rng.ga_seed(),
            })
            .collect();
        rng.shuffle(&mut jobs);
        let mut unrepeated = Vec::with_capacity(jobs.len());
        for job in jobs {
            ops.push(Op { job, repeat: false });
            unrepeated.push(job);
            let again = unrepeated.swap_remove(rng.below(unrepeated.len()));
            ops.push(Op {
                job: again,
                repeat: true,
            });
        }
    }
    ops.truncate(cap);
    ops
}

/// Draws of a fresh job before `daemon_mix` gives up and repeats one.
const MAX_DRAWS: usize = 64;

/// The request list of one `daemon-mix` session (one daemon lifetime,
/// starting cold): each request is, with even odds, a
/// repeat of a job already served or a new small job (population 16-24,
/// 8-12 generations) on a spec of the Fig. 7 x Fig. 8 grid.
///
/// `model` runs a new job against a model of the daemon's cache and
/// returns its distinct evaluations. A drawn job the model says would
/// evaluate nothing new is redrawn, so every new request really misses
/// the daemon's cache and every repeat is answered from it.
pub fn daemon_mix(
    seed: u64,
    session: u64,
    cap: usize,
    model: &mut dyn FnMut(&Job) -> Result<usize, String>,
) -> Result<Vec<Op>, String> {
    let specs = grid(Workload::DaemonMix);
    let mut rng = Rng::new(seed, (session << 8) + Workload::DaemonMix as u64 + 1);
    let mut served: Vec<Job> = Vec::new();
    let mut ops = Vec::with_capacity(cap);
    while ops.len() < cap {
        let mut fresh = None;
        if served.is_empty() || rng.below(2) == 0 {
            for _ in 0..MAX_DRAWS {
                let job = Job {
                    spec: specs[rng.below(specs.len())],
                    budget: Some((16 + 4 * rng.below(3), 8 + 2 * rng.below(3))),
                    seed: rng.ga_seed(),
                };
                if !served.contains(&job) && model(&job)? > 0 {
                    fresh = Some(job);
                    break;
                }
            }
        }
        match fresh {
            Some(job) => {
                served.push(job);
                ops.push(Op { job, repeat: false });
            }
            None if served.is_empty() => return Err("no job misses an empty cache".to_owned()),
            None => ops.push(Op {
                job: served[rng.below(served.len())],
                repeat: true,
            }),
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_job_list() {
        for workload in [Workload::DseSweep, Workload::CompileGen] {
            let a = paired_rounds(workload, 7, 500);
            assert_eq!(a, paired_rounds(workload, 7, 500));
            assert_ne!(a, paired_rounds(workload, 8, 500));
            assert_eq!(a.len(), 500);
        }
        let mut model = |job: &Job| Ok(job.seed as usize % 5);
        let a = daemon_mix(3, 0, 300, &mut model).unwrap();
        assert_eq!(a, daemon_mix(3, 0, 300, &mut model).unwrap());
        assert_ne!(a, daemon_mix(4, 0, 300, &mut model).unwrap());
        assert_ne!(a, daemon_mix(3, 1, 300, &mut model).unwrap());
    }

    #[test]
    fn paired_rounds_run_every_job_once_fresh_then_once_repeated() {
        let specs = grid(Workload::CompileGen).len();
        let ops = paired_rounds(Workload::CompileGen, 11, 4 * specs);
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            assert_eq!(op.repeat, !seen.insert(op.job), "{op:?}");
        }
        assert_eq!(seen.len(), 2 * specs);
    }

    #[test]
    fn grids_cover_the_paper_sweeps() {
        assert_eq!(grid(Workload::DseSweep).len(), 48);
        assert_eq!(grid(Workload::DaemonMix).len(), 48);
        let compile = grid(Workload::CompileGen);
        assert!(compile.iter().any(|s| s.precision == Precision::Fp32));
        assert!(compile.iter().any(|s| s.wstore == 131072));
    }

    #[test]
    fn job_files_parse_back_to_the_same_job() {
        let job = Job {
            spec: Spec {
                wstore: 16384,
                precision: Precision::Bf16,
            },
            budget: Some((20, 10)),
            seed: 99,
        };
        let parsed =
            sega_dcim::batch::parse_jobs(&job.job_file(), &sega_moga::Nsga2Config::default())
                .unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].config, job.nsga_config());
        assert_eq!(parsed[0].spec.wstore, 16384);
        assert_eq!(parsed[0].spec.precision, Precision::Bf16);
    }
}
