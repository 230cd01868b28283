//! Criterion bench: end-to-end design space exploration runtime — the
//! paper's "the MOGA-based design exploration for a particular array size
//! and computing precision can be finished in 30 minutes" claim. Our
//! closed-form estimator brings the same population×generation budget down
//! to well under a second per specification.
//!
//! `exhaustive_grid_48` times the ground truth the explorer is measured
//! against: `exhaustive_front` over all 48 Fig. 7 × Fig. 8 design spaces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sega_bench::{quick_nsga_config, FIG7_PRECISIONS, FIG8_WSTORE};
use sega_cells::Technology;
use sega_dcim::{exhaustive_front, explore_pareto, UserSpec};
use sega_estimator::{OperatingConditions, Precision};

fn bench_dse(c: &mut Criterion) {
    let tech = Technology::tsmc28();
    let cond = OperatingConditions::paper_default();
    let mut group = c.benchmark_group("dse");
    group.sample_size(10);

    for (name, wstore, prec) in [
        ("int8_64k", 65536u64, Precision::Int8),
        ("bf16_64k", 65536, Precision::Bf16),
        ("fp32_16k", 16384, Precision::Fp32),
    ] {
        let spec = UserSpec::new(wstore, prec).unwrap();
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                explore_pareto(&spec, &tech, &cond, &quick_nsga_config(seed))
            })
        });
    }

    let grid: Vec<UserSpec> = FIG7_PRECISIONS
        .iter()
        .flat_map(|&prec| {
            FIG8_WSTORE
                .iter()
                .map(move |&w| UserSpec::new(w, prec).unwrap())
        })
        .collect();
    group.bench_function("exhaustive_grid_48", |b| {
        b.iter(|| {
            for spec in &grid {
                black_box(exhaustive_front(black_box(spec), &tech, &cond));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
