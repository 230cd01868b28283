//! Property tests of the first-front kernel behind
//! [`pareto_front_indices_matrix`]: for every cloud — continuous,
//! gridded (heavy ties), duplicated rows, ±∞ entries and NaN entries, of
//! widths 2 to 6 and up to 2000 rows — it must return exactly the first
//! front of the naive Deb oracle ([`non_dominated_sort_naive`]), as
//! strictly ascending indices.

use proptest::prelude::*;
use sega_moga::matrix::ObjectiveMatrix;
use sega_moga::pareto::{non_dominated_sort_naive, pareto_front_indices_matrix};

/// The shapes a cloud can take on top of the shared xorshift generator.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Continuous values in `[0, 1)`: ties are rare.
    Random,
    /// Values on a 4-level integer grid: ties and repeats everywhere.
    Gridded,
    /// A small pool of rows drawn over and over.
    Duplicates,
    /// Continuous values with every `stride`-th entry set to ±∞.
    Infinite(usize),
    /// Gridded values with every `stride`-th entry set to NaN.
    Nan(usize),
}

const KINDS: [Kind; 5] = [
    Kind::Random,
    Kind::Gridded,
    Kind::Duplicates,
    Kind::Infinite(5),
    Kind::Nan(9),
];

fn cloud(kind: Kind, n: usize, m: usize, seed: u64) -> ObjectiveMatrix {
    match kind {
        Kind::Random => ObjectiveMatrix::xorshift_cloud(n, m, None, seed),
        Kind::Gridded => ObjectiveMatrix::xorshift_cloud(n, m, Some(4.0), seed),
        Kind::Duplicates => {
            let pool = ObjectiveMatrix::xorshift_cloud(n.div_ceil(8), m, Some(6.0), seed);
            let mut matrix = ObjectiveMatrix::with_capacity(m, n);
            for i in 0..n {
                matrix.push_row(pool.row((i * 7 + i / 3) % pool.len()));
            }
            matrix
        }
        Kind::Infinite(stride) => with_every(
            ObjectiveMatrix::xorshift_cloud(n, m, None, seed),
            stride,
            |k| {
                if k % 2 == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            },
        ),
        Kind::Nan(stride) => with_every(
            ObjectiveMatrix::xorshift_cloud(n, m, Some(4.0), seed),
            stride,
            |_| f64::NAN,
        ),
    }
}

/// `matrix` with every `stride`-th flat entry `k` replaced by `value(k)`.
fn with_every(
    matrix: ObjectiveMatrix,
    stride: usize,
    value: impl Fn(usize) -> f64,
) -> ObjectiveMatrix {
    let mut rows = matrix.to_rows();
    let m = matrix.width();
    for (i, row) in rows.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            let k = i * m + j;
            if k % stride == stride - 1 {
                *v = value(k);
            }
        }
    }
    ObjectiveMatrix::from_rows(&rows)
}

/// The kernel's front, checked against the oracle's first front.
fn check(matrix: &ObjectiveMatrix) -> Result<(), String> {
    let front = pareto_front_indices_matrix(matrix);
    let rows: Vec<&[f64]> = matrix.iter_rows().collect();
    let oracle = non_dominated_sort_naive(&rows)
        .into_iter()
        .next()
        .unwrap_or_default();
    if !front.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!("front not strictly ascending: {front:?}"));
    }
    if front != oracle {
        return Err(format!("kernel {front:?} != oracle {oracle:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small and mid-size clouds of every kind and width.
    #[test]
    fn first_front_matches_naive_oracle(
        m in 2usize..=6,
        n in 0usize..=300,
        seed in 0u64..10_000,
        kind in 0usize..KINDS.len(),
    ) {
        let matrix = cloud(KINDS[kind], n, m, seed);
        if let Err(e) = check(&matrix) {
            prop_assert!(false, "{:?} n={} m={} seed={}: {}", KINDS[kind], n, m, seed, e);
        }
    }
}

/// Every kind and width at the top scale, N = 2000.
#[test]
fn first_front_matches_naive_oracle_at_n2000() {
    for m in 2usize..=6 {
        for kind in KINDS {
            let matrix = cloud(kind, 2000, m, 0x5F5 + m as u64);
            check(&matrix).unwrap_or_else(|e| panic!("{kind:?} m={m}: {e}"));
        }
    }
}

/// A cloud whose every row is the same point is one front.
#[test]
fn identical_rows_are_all_on_the_front() {
    for m in 2usize..=6 {
        let rows: Vec<Vec<f64>> = (0..50).map(|_| vec![0.25; m]).collect();
        let matrix = ObjectiveMatrix::from_rows(&rows);
        assert_eq!(
            pareto_front_indices_matrix(&matrix),
            (0..50).collect::<Vec<_>>()
        );
    }
}
