//! Ground truth the output checks compare against: the estimator on each
//! front row, the exhaustive front of each spec, and an in-process model
//! of the daemon's cache that predicts every request's accounting.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sega_cells::Technology;
use sega_dcim::batch::{parse_jobs, run_batch, solution_json};
use sega_dcim::{ParetoSolution, PipelineOptions, SharedEvalCache, UserSpec};
use sega_estimator::{estimate, DcimDesign, OperatingConditions};
use sega_moga::pareto::non_dominated_sort_naive;
use sega_wire::Json;

use crate::jobs::{Job, Spec};

/// The technology and conditions every CLI command runs under.
pub fn setting() -> (Technology, OperatingConditions) {
    (Technology::tsmc28(), OperatingConditions::paper_default())
}

/// The validated spec of `spec`.
pub fn user_spec(spec: Spec) -> Result<UserSpec, String> {
    UserSpec::new(spec.wstore, spec.precision).map_err(|e| e.to_string())
}

/// A front in the wire schema the CLI prints (`explore --json`, the
/// batch report): the text the byte-identity checks compare.
pub fn front_json(solutions: &[ParetoSolution]) -> Json {
    Json::Arr(solutions.iter().map(solution_json).collect())
}

/// Checks a front the CLI printed for `spec`: every row's objective bits
/// equal `sega_estimator::estimate` on its geometry, its design label is
/// that geometry's, and the rows are mutually non-dominated under the
/// naive reference sort. Returns the rows' design labels.
pub fn check_front(spec: Spec, front: &Json) -> Result<Vec<String>, String> {
    let (tech, conditions) = setting();
    let rows = front.as_arr().ok_or("front is not an array")?;
    let mut designs = Vec::with_capacity(rows.len());
    let mut objectives = Vec::with_capacity(rows.len());
    for row in rows {
        let geometry = row.get("geometry").ok_or("front row without geometry")?;
        let dim = |key: &str| -> Result<u32, String> {
            geometry
                .get(key)
                .and_then(Json::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("front row without geometry `{key}`"))
        };
        let design =
            DcimDesign::for_precision(spec.precision, dim("n")?, dim("h")?, dim("l")?, dim("k")?)
                .map_err(|e| format!("front row geometry is not a design: {e}"))?;
        let label = row.get("design").and_then(Json::as_str).unwrap_or("");
        if label != design.to_string() {
            return Err(format!("front row `{label}` is not design {design}"));
        }
        let expected = estimate(&design, &tech, &conditions).objectives();
        let bits = row
            .get("bits")
            .and_then(Json::as_arr)
            .ok_or("front row without bits")?;
        let printed: Vec<u64> = bits
            .iter()
            .map(|b| b.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
            .collect::<Option<_>>()
            .ok_or("front row bits are not hex")?;
        let wanted: Vec<u64> = expected.iter().map(|o| o.to_bits()).collect();
        if printed != wanted {
            return Err(format!(
                "front row {design}: bits differ from the estimator"
            ));
        }
        designs.push(label.to_owned());
        objectives.push(expected);
    }
    let refs: Vec<&[f64]> = objectives.iter().map(|o| &o[..]).collect();
    let fronts = non_dominated_sort_naive(&refs);
    if fronts.len() > 1 {
        return Err(format!(
            "{} of {} front rows are dominated",
            rows.len() - fronts[0].len(),
            rows.len()
        ));
    }
    Ok(designs)
}

/// The design labels of each spec's exhaustive Pareto front.
pub struct Exhaustive(HashMap<Spec, HashSet<String>>);

impl Exhaustive {
    /// Enumerates the design space of every spec in `specs`.
    pub fn of(specs: &[Spec]) -> Result<Exhaustive, String> {
        let (tech, conditions) = setting();
        let mut fronts = HashMap::new();
        for &spec in specs {
            let front = sega_dcim::exhaustive_front(&user_spec(spec)?, &tech, &conditions);
            fronts.insert(spec, front.iter().map(|s| s.design.to_string()).collect());
        }
        Ok(Exhaustive(fronts))
    }

    /// `(recovered, total)`: how many of `spec`'s exhaustive-front designs
    /// appear among `designs`, and the exhaustive front's size.
    pub fn recall(&self, spec: Spec, designs: &[String]) -> (usize, usize) {
        let truth = &self.0[&spec];
        let found: HashSet<&String> = designs.iter().filter(|d| truth.contains(*d)).collect();
        (found.len(), truth.len())
    }
}

/// What the daemon must answer for one job.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Distinct evaluations the first time the job is served.
    pub distinct: usize,
    /// The front, as [`front_json`] text.
    pub front: String,
}

/// The daemon's cache, modelled in-process: jobs run through the
/// in-process batch runner on one shared cache, in request order, so
/// each job's distinct evaluations and front are what the daemon (which
/// starts cold and serves requests one at a time) must report.
pub struct DaemonModel {
    cache: Arc<SharedEvalCache>,
    expected: HashMap<Job, Expected>,
}

impl DaemonModel {
    /// A model of a cold daemon.
    pub fn new() -> DaemonModel {
        DaemonModel {
            cache: Arc::new(SharedEvalCache::new()),
            expected: HashMap::new(),
        }
    }

    /// Runs `job` against the modelled cache; returns its distinct
    /// evaluations and remembers its answer when it evaluated anything.
    pub fn run(&mut self, job: &Job) -> Result<usize, String> {
        let jobs = parse_jobs(&job.job_file(), &sega_moga::Nsga2Config::default())?;
        let (tech, conditions) = setting();
        let pipeline = PipelineOptions::with_threads(1).with_shared_cache(Arc::clone(&self.cache));
        let report = run_batch(&jobs, &tech, &conditions, pipeline);
        let result = &report.outcomes[0].result;
        if result.distinct_evaluations > 0 {
            self.expected.insert(
                *job,
                Expected {
                    distinct: result.distinct_evaluations,
                    front: front_json(&result.solutions).to_string(),
                },
            );
        }
        Ok(result.distinct_evaluations)
    }

    /// The answer recorded for `job`.
    pub fn expected(&self, job: &Job) -> Result<&Expected, String> {
        self.expected
            .get(job)
            .ok_or_else(|| format!("no modelled answer for {job:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{daemon_mix, grid, Workload};

    /// The daemon-mix labels agree with the accounting an in-process batch
    /// reports for the same requests in the same order: a fresh request
    /// evaluates something, a repeat evaluates nothing.
    #[test]
    fn daemon_mix_labels_agree_with_distinct_evaluations() {
        for seed in [1, 2] {
            let mut model = DaemonModel::new();
            let ops = daemon_mix(seed, 0, 40, &mut |job| model.run(job)).unwrap();
            assert!(ops.iter().any(|op| op.repeat) && ops.iter().any(|op| !op.repeat));
            let mut replay = DaemonModel::new();
            for op in &ops {
                let distinct = replay.run(&op.job).unwrap();
                assert_eq!(distinct == 0, op.repeat, "{op:?}");
                let expected = model.expected(&op.job).unwrap();
                if !op.repeat {
                    assert_eq!(distinct, expected.distinct);
                }
            }
        }
    }

    #[test]
    fn check_front_accepts_the_explorer_and_rejects_a_tampered_row() {
        let spec = grid(Workload::DseSweep)[7];
        let (tech, conditions) = setting();
        let config = sega_moga::Nsga2Config {
            population: 24,
            generations: 8,
            ..Default::default()
        };
        let result =
            sega_dcim::explore_pareto(&user_spec(spec).unwrap(), &tech, &conditions, &config);
        let text = front_json(&result.solutions).to_string();
        let designs = check_front(spec, &Json::parse(&text).unwrap()).unwrap();
        assert_eq!(designs.len(), result.solutions.len());
        let exhaustive = Exhaustive::of(&[spec]).unwrap();
        let (found, total) = exhaustive.recall(spec, &designs);
        assert!(found > 0 && found <= total);

        let first_bits = format!("{:016x}", result.solutions[0].objectives()[0].to_bits());
        let tampered = text.replacen(&first_bits, &format!("{:016x}", 1u64), 1);
        assert!(check_front(spec, &Json::parse(&tampered).unwrap()).is_err());
    }
}
