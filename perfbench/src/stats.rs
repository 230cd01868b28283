//! Percentiles and the metric record the benchmark prints.

use sega_wire::Json;

/// A percentile read off a sample, with the percentile actually used and
/// the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value, linearly interpolated between the closest ranks.
    pub value: f64,
    /// The percentile read, in `[0, 1]`.
    pub quantile: f64,
    /// Samples the value was read from.
    pub samples: usize,
}

/// The `quantile` of `values` (linear interpolation between the closest
/// ranks); `None` for an empty sample.
pub fn percentile(values: &[f64], quantile: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = quantile.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    Some(Percentile {
        value,
        quantile,
        samples: sorted.len(),
    })
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<Percentile> {
    percentile(values, 0.5)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `wanted` tail percentile when at least [`TAIL_SAMPLES`] samples lie
/// beyond it, otherwise the highest percentile that has that many beyond
/// it; `None` when the sample is too small for any.
pub fn tail(values: &[f64], wanted: f64) -> Option<Percentile> {
    let n = values.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // With rank r = q(n-1), the samples beyond it are n - 1 - ceil(r).
    let highest = (n - 1 - TAIL_SAMPLES) as f64 / (n - 1) as f64;
    percentile(values, wanted.min(highest))
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ops_per_s", "1/s"),
    ("miss_op_p50_s", "s"),
    ("hit_op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("front_recall", "ratio"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("cli.process_start_s", "s"),
    ("moga.breed_s", "s"),
    ("moga.reconcile_s", "s"),
    ("moga.select_s", "s"),
    ("moga.select_share", "ratio"),
    ("moga.dominance_comparisons", "count"),
    ("moga.dominance_word_ops", "count"),
    ("core.evaluate_s", "s"),
    ("core.cache_self_s", "s"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.distinct_evaluations", "count"),
    ("core.audit_s", "s"),
    ("estimator.cohort_s", "s"),
    ("estimator.designs", "count"),
    ("netlist.generate_s", "s"),
    ("netlist.verilog_s", "s"),
    ("netlist.verilog_bytes", "bytes"),
    ("layout.floorplan_s", "s"),
    ("layout.drc_s", "s"),
    ("layout.def_s", "s"),
    ("store.load_s", "s"),
    ("store.save_s", "s"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("wire.report_encode_s", "s"),
    ("wire.snapshot_encode_s", "s"),
    ("wire.snapshot_decode_s", "s"),
    ("serve.hello_s", "s"),
    ("serve.job_s", "s"),
    ("serve.sync_s", "s"),
    ("remote.spawn_s", "s"),
    ("remote.cohort_s", "s"),
    ("remote.round_trips", "count"),
    ("remote.requeues", "count"),
    ("remote.deaths", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The unit `name` is declared with in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count_and_quantile() {
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        let p50 = median(&values).unwrap();
        assert_eq!((p50.value, p50.samples), (51.0, 101));
        let p90 = tail(&values, 0.9).unwrap();
        assert_eq!((p90.value, p90.quantile, p90.samples), (91.0, 0.9, 101));
        assert_eq!(median(&[2.0, 1.0]).unwrap().value, 1.5);
        assert!(median(&[]).is_none());
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond_it() {
        let values: Vec<f64> = (0..41).map(f64::from).collect();
        let t = tail(&values, 0.9).unwrap();
        assert_eq!(t.samples, 41);
        assert!(t.quantile < 0.9);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_SAMPLES);
        assert!(tail(&values[..10], 0.9).is_none());
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric `{name}`");
            assert!(name.len() <= 64 && !name.is_empty());
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "`{name}` must match [A-Za-z0-9_.-]+"
            );
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
    }

    #[test]
    fn the_declared_metrics_are_those_of_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = declared
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "`{key}` of BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "op_p50_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
