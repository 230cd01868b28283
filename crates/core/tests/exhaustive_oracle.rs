//! `exhaustive_front` against a naive reference built from first
//! principles.
//!
//! The reference shares no code with the enumerator: it walks every
//! power-of-two `(H, L)` pair and every `k`, keeps the points the
//! exploration bounds admit (`min_h ≤ H ≤ max_h`, `L ≤ max_l`,
//! `N ≥ n_factor·Bw`), estimates each one with the one-shot
//! `sega_estimator::estimate`, keeps the first front of the textbook
//! `non_dominated_sort_naive` and sorts it stably by area. The production
//! path must return the same designs, in the same order, with the same
//! objective bits.

use sega_dcim::cells::Technology;
use sega_dcim::estimator::{estimate, DcimDesign, OperatingConditions, Precision};
use sega_dcim::{exhaustive_front, ExplorerLimits, ParetoSolution, UserSpec};
use sega_moga::pareto::non_dominated_sort_naive;

/// Every admitted design point of `spec`, estimated one at a time.
fn naive_space(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    let limits = &spec.limits;
    let bw = u64::from(spec.weight_bits());
    let mut out = Vec::new();
    for h in (0..32).map(|e| 1u64 << e) {
        for l in (0..32).map(|e| 1u64 << e) {
            let admitted = h >= u64::from(limits.min_h)
                && h <= u64::from(limits.max_h)
                && l <= u64::from(limits.max_l)
                && h * l <= spec.wstore
                && spec.wstore / (h * l) >= u64::from(limits.n_factor);
            if !admitted {
                continue;
            }
            let n = u32::try_from(spec.wstore / (h * l) * bw).expect("N fits in u32");
            for k in 1..=spec.precision.input_bits() {
                let design = DcimDesign::for_precision(spec.precision, n, h as u32, l as u32, k)
                    .expect("admitted geometry is a valid design");
                out.push(ParetoSolution {
                    estimate: estimate(&design, tech, conditions),
                    design,
                });
            }
        }
    }
    out
}

/// The naive reference front: first front of the textbook sort, in
/// index order, then a stable sort by area.
fn naive_front(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    let all = naive_space(spec, tech, conditions);
    let rows: Vec<[f64; 4]> = all.iter().map(ParetoSolution::objectives).collect();
    let slices: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let mut first = non_dominated_sort_naive(&slices).swap_remove(0);
    first.sort_unstable();
    let mut front: Vec<ParetoSolution> = first.into_iter().map(|i| all[i].clone()).collect();
    front.sort_by(|a, b| {
        a.estimate
            .area_mm2
            .partial_cmp(&b.estimate.area_mm2)
            .expect("finite areas")
    });
    front
}

fn assert_matches_oracle(spec: &UserSpec) {
    let tech = Technology::tsmc28();
    let conditions = OperatingConditions::paper_default();
    let got = exhaustive_front(spec, &tech, &conditions);
    let want = naive_front(spec, &tech, &conditions);
    assert!(!want.is_empty(), "{spec}: empty reference front");
    assert_eq!(got.len(), want.len(), "{spec}: front size");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.design, w.design, "{spec}: design at position {i}");
        assert_eq!(
            g.objectives().map(f64::to_bits),
            w.objectives().map(f64::to_bits),
            "{spec}: objective bits of {}",
            g.design
        );
    }
}

#[test]
fn exhaustive_front_equals_the_naive_reference() {
    for precision in [
        Precision::Int2,
        Precision::Int8,
        Precision::Bf16,
        Precision::Fp32,
    ] {
        for wstore in [4096u64, 16384] {
            assert_matches_oracle(&UserSpec::new(wstore, precision).expect("paper spec"));
        }
    }
}

#[test]
fn exhaustive_front_equals_the_naive_reference_under_custom_limits() {
    let limits = ExplorerLimits {
        max_h: 1000,
        max_l: 48,
        ..ExplorerLimits::default()
    };
    let spec = UserSpec::with_limits(65536, Precision::Int8, limits).expect("valid limits");
    assert_matches_oracle(&spec);
}
