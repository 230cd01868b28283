//! `ExplorerLimits` bounds that are not powers of two.
//!
//! `H` and `L` are powers of two, so a bound such as `max_h: 1000` admits
//! every `H ≤ 512`. The GA's genome box and the exhaustive enumerator
//! must both read it that way, and limits that admit no geometry at all
//! must be rejected when the specification is built.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sega_dcim::cells::Technology;
use sega_dcim::enumerate::enumerate_geometries;
use sega_dcim::estimator::{OperatingConditions, Precision};
use sega_dcim::explore::{DcimProblem, Geometry};
use sega_dcim::{ExplorerLimits, SpecError, UserSpec};
use sega_moga::Problem;

fn custom(max_h: u32, max_l: u32) -> ExplorerLimits {
    ExplorerLimits {
        max_h,
        max_l,
        ..ExplorerLimits::default()
    }
}

#[test]
fn enumerator_rounds_non_power_of_two_bounds_inward() {
    let spec = UserSpec::with_limits(65536, Precision::Int8, custom(1000, 48)).unwrap();
    let geoms = enumerate_geometries(&spec);
    assert_eq!(geoms.iter().map(|g| g.log_h).max(), Some(9), "H ≤ 512");
    assert_eq!(geoms.iter().map(|g| g.log_l).max(), Some(5), "L ≤ 32");
}

#[test]
fn genome_bounds_round_non_power_of_two_bounds_inward() {
    let spec = UserSpec::with_limits(65536, Precision::Int8, custom(1000, 48)).unwrap();
    let problem = DcimProblem::new(
        spec,
        Technology::tsmc28(),
        OperatingConditions::paper_default(),
    );
    let mut g = Geometry {
        log_h: 11,
        log_l: 6,
        k: 1,
    };
    problem.repair(&mut g);
    assert_eq!(
        (g.log_h, g.log_l),
        (9, 5),
        "repair clamps to H ≤ 512, L ≤ 32"
    );

    let mut rng = StdRng::seed_from_u64(3);
    let draws: Vec<Geometry> = (0..2000).map(|_| problem.random_genome(&mut rng)).collect();
    assert_eq!(draws.iter().map(|g| g.log_h).max(), Some(9));
    assert_eq!(draws.iter().map(|g| g.log_l).max(), Some(5));
}

#[test]
fn limits_that_admit_no_geometry_are_rejected() {
    let bad = [
        custom(0, 64),
        custom(2048, 0),
        ExplorerLimits {
            min_h: 0,
            ..ExplorerLimits::default()
        },
        ExplorerLimits {
            n_factor: 0,
            ..ExplorerLimits::default()
        },
        ExplorerLimits {
            min_h: 64,
            max_h: 32,
            ..ExplorerLimits::default()
        },
        // No power of two lies in [600, 1000].
        ExplorerLimits {
            min_h: 600,
            max_h: 1000,
            ..ExplorerLimits::default()
        },
        ExplorerLimits {
            min_h: u32::MAX,
            max_h: u32::MAX,
            ..ExplorerLimits::default()
        },
    ];
    for limits in bad {
        let err = UserSpec::with_limits(8192, Precision::Int8, limits).unwrap_err();
        assert_eq!(err, SpecError::InvalidLimits(limits));
        assert!(err.to_string().contains("admit no geometry"), "{err}");
    }
}

#[test]
fn limits_with_a_power_of_two_in_range_are_accepted() {
    for limits in [
        ExplorerLimits::default(),
        custom(1000, 48),
        ExplorerLimits {
            min_h: 1,
            max_h: 1,
            max_l: 1,
            n_factor: 1,
        },
        ExplorerLimits {
            min_h: 600,
            max_h: 1024,
            ..ExplorerLimits::default()
        },
    ] {
        UserSpec::with_limits(1 << 20, Precision::Int8, limits).unwrap();
    }
}
