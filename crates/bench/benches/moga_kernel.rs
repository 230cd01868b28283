//! Criterion bench: the tiered dominance kernel — the MOGA selection
//! machinery's receipts, seeding the `BENCH_moga.json` perf trajectory.
//!
//! For every `(N, M)` in `{64, 256, 1024} × {2, 3, 4}` the setup phase
//! sorts a deterministic random cloud through the tiered kernel, records
//! the dominance-comparison and mask-word counters next to the naive
//! kernel's `N·(N−1)/2` pairwise bill, cross-checks the fronts against
//! the retained naive oracle, and asserts the asymptotic win at the top
//! scale. When `BENCH_MOGA_JSON` is set the records are written as
//! `BENCH_moga.json` (see `sega_wire::report::MogaKernelReport`); the
//! committed repo-root copy is the baseline CI's counter-based
//! regression guard diffs against — deterministic counters, so the guard
//! is stable on a 1-CPU runner where wall-clock is not.
//!
//! `M=4` is the production DCIM shape: it runs the blocked branchless
//! tier, whose bill is `word_ops` (64-lane mask words) rather than
//! scalar comparisons — the guard compares the *effective* counter
//! `comparisons + word_ops` against the pairwise bill.
//!
//! The `first_front_n{200,1024,1776}_m4` arms time the first-front
//! kernel (`pareto_front_indices_matrix`) next to a full-sort arm on the
//! same cloud; the setup phase asserts both return the same front.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sega_bench::json::{moga_json_path, MogaKernelRecord, MogaKernelReport};
use sega_moga::matrix::ObjectiveMatrix;
use sega_moga::pareto::{
    non_dominated_sort_matrix_into, non_dominated_sort_naive, pareto_front_indices_matrix,
    SortScratch,
};

/// The shared deterministic cloud generator — one implementation
/// (`ObjectiveMatrix::xorshift_cloud`) serves this bench and the
/// dominance-kernel property tests, so the committed baseline and the
/// oracle tests always sort identical point sets.
fn cloud(n: usize, m: usize, seed: u64) -> ObjectiveMatrix {
    ObjectiveMatrix::xorshift_cloud(n, m, None, seed)
}

const CASES: [(usize, usize); 9] = [
    (64, 2),
    (256, 2),
    (1024, 2),
    (64, 3),
    (256, 3),
    (1024, 3),
    (64, 4),
    (256, 4),
    (1024, 4),
];

fn bench_moga_kernel(c: &mut Criterion) {
    // Receipts, computed once: counters + wall clock per case, fronts
    // cross-checked against the naive oracle.
    let mut records = Vec::new();
    for (n, m) in CASES {
        let matrix = cloud(n, m, (n * 31 + m) as u64);
        let mut scratch = SortScratch::default();
        let mut fronts = Vec::new();
        // Warm the scratch so the measured sort is the steady state.
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        scratch.reset_stats();
        let started = Instant::now();
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        let wall_s = started.elapsed().as_secs_f64();
        let stats = scratch.stats();

        let rows: Vec<&[f64]> = matrix.iter_rows().collect();
        let naive = non_dominated_sort_naive(&rows);
        if m == 4 {
            // The blocked tier reproduces the exact Deb front order.
            assert_eq!(fronts, naive, "N={n} M={m}: blocked tier diverged");
        } else {
            let mut naive = naive;
            let mut tiered = fronts.clone();
            for f in naive.iter_mut().chain(tiered.iter_mut()) {
                f.sort_unstable();
            }
            assert_eq!(tiered, naive, "N={n} M={m}: tiered kernel diverged");
        }

        let naive_comparisons = (n * (n - 1) / 2) as u64;
        let effective = stats.comparisons + stats.word_ops;
        if n == 1024 {
            let factor = if m == 4 { 4 } else { 8 };
            assert!(
                effective * factor < naive_comparisons,
                "N={n} M={m}: {effective} effective ops not asymptotically below \
                 {naive_comparisons}",
            );
        }
        assert_eq!(stats.allocations, 0, "warm sorts must not allocate");
        eprintln!(
            "moga_kernel N={n:<5} M={m}: {:>8} comparisons + {:>6} word ops \
             (naive {naive_comparisons:>7}, {:>5.1}x fewer), {} fronts, {:.6}s",
            stats.comparisons,
            stats.word_ops,
            naive_comparisons as f64 / effective.max(1) as f64,
            fronts.len(),
            wall_s,
        );
        records.push(MogaKernelRecord {
            n,
            m,
            comparisons: stats.comparisons,
            word_ops: stats.word_ops,
            naive_comparisons,
            allocations: stats.allocations,
            fronts: fronts.len(),
            wall_s,
        });
    }

    if let Some(path) = moga_json_path() {
        let report = MogaKernelReport { cases: records };
        report.write_to(&path).expect("write BENCH_moga.json");
        eprintln!("wrote {}", path.display());
    }

    let mut group = c.benchmark_group("moga_kernel");
    group.sample_size(10);
    for (n, m) in [(1024usize, 2usize), (1024, 3)] {
        let matrix = cloud(n, m, 7);
        let mut scratch = SortScratch::default();
        let mut fronts = Vec::new();
        group.bench_function(format!("sort_n{n}_m{m}"), |b| {
            b.iter(|| {
                non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
                fronts.len()
            })
        });
    }
    // M=4 is the DCIM shape: the full sort runs the blocked branchless
    // fallback, and the first-front kernel that replaces it for
    // Pareto-front-only callers runs beside it on the same cloud. 1776
    // rows is the largest Fig. 7 x Fig. 8 exhaustive design space.
    for n in [200usize, 1024, 1776] {
        let matrix = cloud(n, 4, 7);
        let mut scratch = SortScratch::default();
        let mut fronts = Vec::new();
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        assert_eq!(
            pareto_front_indices_matrix(&matrix),
            fronts[0],
            "N={n} M=4: first-front kernel diverged from the full sort"
        );
        group.bench_function(format!("sort_n{n}_m4"), |b| {
            b.iter(|| {
                non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
                fronts.len()
            })
        });
        group.bench_function(format!("first_front_n{n}_m4"), |b| {
            b.iter(|| pareto_front_indices_matrix(&matrix).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_moga_kernel);
criterion_main!(benches);
