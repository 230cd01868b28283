//! Exhaustive enumeration of the DCIM design space.
//!
//! For one `(Wstore, precision)` specification the legal geometries are a
//! small discrete set (powers-of-two `H`, `L` within the paper's bounds ×
//! `k ≤ Bx`), so the *entire* space can be enumerated and Pareto-filtered
//! exactly. This serves two purposes:
//!
//! * a **ground truth** to measure the NSGA-II explorer against (the
//!   explorer must recover the true front — tested), and
//! * the data behind Fig. 7's full design-space clouds.

use sega_cells::Technology;
use sega_estimator::{
    CohortScratch, DcimDesign, EstimationContext, MacroEstimate, OperatingConditions,
};
use sega_moga::pareto::{cmp_nan_last, pareto_front_indices_matrix};
use sega_moga::ObjectiveMatrix;

use crate::backend::GeometryLens;
use crate::explore::{Geometry, ParetoSolution};
use crate::spec::UserSpec;

/// Every legal geometry of the specification's design space, within the
/// paper's exploration bounds.
pub fn enumerate_geometries(spec: &UserSpec) -> Vec<Geometry> {
    let bounds = spec.genome_bounds();
    let serial_bits = spec.precision.input_bits();

    let mut out = Vec::new();
    for log_h in bounds.min_log_h..=bounds.max_log_h {
        for log_l in 0..=bounds.max_log_l {
            if log_h + log_l > bounds.max_log_sum {
                continue;
            }
            for k in 1..=serial_bits {
                out.push(Geometry { log_h, log_l, k });
            }
        }
    }
    out
}

/// The design point of every feasible geometry, in enumeration order.
fn enumerate_designs(spec: &UserSpec) -> Vec<DcimDesign> {
    let lens = GeometryLens::new(spec);
    enumerate_geometries(spec)
        .iter()
        .filter_map(|g| lens.design_of(g))
        .collect()
}

/// Evaluates the complete design space and returns every point
/// (design + estimate) in enumeration order, unfiltered — Fig. 7's
/// cloud. One serial pass: the technology is voltage-realized once for
/// the whole cloud, not once per point.
pub fn enumerate_design_space(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    let ctx = EstimationContext::new(tech, conditions);
    enumerate_designs(spec)
        .into_iter()
        .map(|design| ParetoSolution {
            estimate: ctx.estimate(&design),
            design,
        })
        .collect()
}

/// The exact Pareto frontier of the full design space — ground truth for
/// the MOGA explorer — sorted stably by area.
///
/// One serial pass: the whole space is scored in a single SoA cohort
/// (rows bit-identical to the per-design estimate), and only the front
/// members get a full [`MacroEstimate`].
pub fn exhaustive_front(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    let ctx = EstimationContext::new(tech, conditions);
    front_of(
        &enumerate_designs(spec),
        &ctx,
        &mut CohortScratch::default(),
        |design| ctx.estimate(design),
    )
}

/// Scores `designs` in one `estimate_cohort` call through `scratch`,
/// keeps the first front, and builds the full estimate of each kept
/// design with `estimate`.
fn front_of(
    designs: &[DcimDesign],
    ctx: &EstimationContext,
    scratch: &mut CohortScratch,
    estimate: impl Fn(&DcimDesign) -> MacroEstimate,
) -> Vec<ParetoSolution> {
    let mut rows = Vec::new();
    ctx.estimate_cohort(designs, &mut rows, scratch);
    let mut objs = ObjectiveMatrix::with_capacity(4, rows.len());
    for row in &rows {
        objs.push_row(row);
    }
    let mut front: Vec<ParetoSolution> = pareto_front_indices_matrix(&objs)
        .into_iter()
        .map(|i| ParetoSolution {
            design: designs[i],
            estimate: estimate(&designs[i]),
        })
        .collect();
    front.sort_by(|a, b| cmp_nan_last(a.estimate.area_mm2, b.estimate.area_mm2));
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use sega_estimator::Precision;

    fn setup() -> (Technology, OperatingConditions) {
        (Technology::tsmc28(), OperatingConditions::paper_default())
    }

    #[test]
    fn enumeration_respects_bounds() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let geoms = enumerate_geometries(&spec);
        assert!(!geoms.is_empty());
        for g in &geoms {
            assert!(g.log_l <= 6, "L bound");
            assert!(g.log_h >= 1 && g.log_h <= 11, "H bound");
            assert!(g.k >= 1 && g.k <= 8, "k bound");
        }
    }

    #[test]
    fn enumeration_counts_are_exact() {
        // Wstore=8192 (2^13), INT8: max_sum = 13 - 2 = 11.
        // Pairs (log_h in 1..=11, log_l in 0..=6, sum <= 11): for log_h=1..5
        // all 7 log_l fit (log_h+6 <= 11); for log_h=6..11, 12-log_h each.
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let pairs: u32 = (1..=11u32)
            .map(|h| (0..=6u32).filter(|l| h + l <= 11).count() as u32)
            .sum();
        assert_eq!(enumerate_geometries(&spec).len() as u32, pairs * 8);
    }

    #[test]
    fn every_enumerated_design_is_valid() {
        let (tech, cond) = setup();
        let spec = UserSpec::new(4096, Precision::Bf16).unwrap();
        let all = enumerate_design_space(&spec, &tech, &cond);
        assert!(!all.is_empty());
        for s in &all {
            s.design.validate().unwrap();
            assert_eq!(s.design.wstore(), 4096);
            assert!(s.estimate.area_mm2.is_finite());
        }
    }

    #[test]
    fn exhaustive_front_scores_once_and_materializes_only_the_front() {
        let (tech, cond) = setup();
        let ctx = EstimationContext::new(&tech, &cond);
        for (wstore, precision) in [(4096, Precision::Int8), (65536, Precision::Fp32)] {
            let spec = UserSpec::new(wstore, precision).unwrap();
            let designs = enumerate_designs(&spec);
            assert_eq!(designs.len(), enumerate_geometries(&spec).len());
            let mut scratch = CohortScratch::default();
            let full = std::cell::Cell::new(0usize);
            let front = front_of(&designs, &ctx, &mut scratch, |d| {
                full.set(full.get() + 1);
                ctx.estimate(d)
            });
            assert_eq!(scratch.stats().designs, designs.len() as u64, "{spec}");
            assert_eq!(full.get(), front.len(), "{spec}");
            assert!(front.len() < designs.len());
            let reference: Vec<_> = exhaustive_front(&spec, &tech, &cond)
                .into_iter()
                .map(|s| s.design)
                .collect();
            let got: Vec<_> = front.iter().map(|s| s.design).collect();
            assert_eq!(got, reference, "{spec}");
        }
    }

    #[test]
    fn exhaustive_front_is_non_dominated_subset() {
        let (tech, cond) = setup();
        let spec = UserSpec::new(4096, Precision::Int4).unwrap();
        let all = enumerate_design_space(&spec, &tech, &cond);
        let front = exhaustive_front(&spec, &tech, &cond);
        assert!(!front.is_empty() && front.len() < all.len());
        // No point of the full space dominates a front member.
        for f in &front {
            for a in &all {
                assert!(
                    !sega_moga::pareto::dominates(&a.objectives(), &f.objectives()),
                    "{} dominates front member {}",
                    a.design,
                    f.design
                );
            }
        }
    }

    #[test]
    fn nsga2_recovers_most_of_the_true_front() {
        // The headline DSE quality check: with a realistic budget the GA
        // front must cover the exhaustive front's hypervolume closely.
        use sega_moga::pareto::hypervolume;
        let (tech, cond) = setup();
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let truth = exhaustive_front(&spec, &tech, &cond);
        let ga = crate::explore::explore_pareto(
            &spec,
            &tech,
            &cond,
            &sega_moga::Nsga2Config {
                population: 64,
                generations: 40,
                seed: 5,
                ..Default::default()
            },
        );
        let to_objs = |v: &[ParetoSolution]| -> Vec<Vec<f64>> {
            v.iter().map(|s| s.objectives().to_vec()).collect()
        };
        // Common reference comfortably dominating both fronts.
        let reference = vec![100.0, 100.0, 1000.0, 0.0];
        let hv_truth = hypervolume(&to_objs(&truth), &reference);
        let hv_ga = hypervolume(&to_objs(&ga.solutions), &reference);
        assert!(
            hv_ga >= 0.95 * hv_truth,
            "GA hypervolume {hv_ga:.4e} below 95% of ground truth {hv_truth:.4e}"
        );
    }
}
