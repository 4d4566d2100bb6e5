//! Self-tests: nearest-rank percentiles, the result-line schema against
//! `BENCHMARK.json`, and a small run of every workload, traced and not,
//! that must end with no failed operation.

use bayeslsh_perfbench::report::{parse, result_line, validate_result_line, Json, Metric};
use bayeslsh_perfbench::run::{run, Options};
use bayeslsh_perfbench::stats::{beyond, median, percentile, sorted, windowed, windows};
use bayeslsh_perfbench::workload::{Spec, NAMES};

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{section} entry without a name: {other:?}"),
        })
        .collect()
}

#[test]
fn percentiles_are_nearest_rank() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50), Some(500.0));
    assert_eq!(percentile(&v, 90), Some(900.0));
    assert_eq!(percentile(&v, 99), Some(990.0));
    assert_eq!(beyond(1000, 99), 10);
    assert_eq!(beyond(999, 99), 9);
    assert_eq!(beyond(100, 90), 10);
    assert_eq!(percentile(&[7.0], 99), Some(7.0));
    assert_eq!(percentile(&[], 50), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn windowed_percentiles_drop_a_stalled_window() {
    assert_eq!(windows(999, 99), 1);
    assert_eq!(windows(2000, 99), 2);
    assert_eq!(windows(200, 90), 2);
    assert_eq!(windows(100_000, 50), 9);
    for (n, p) in [(1000, 99), (2999, 99), (123_457, 99), (201, 90), (47, 50)] {
        assert!(beyond(n / windows(n, p), p) >= 10, "n {n} p{p}");
    }
    // A stall filling one window of three moves the plain p99 but not
    // the median of the windows' p99s.
    let mut xs = vec![1.0; 3000];
    xs[..1000].fill(50.0);
    assert_eq!(percentile(&sorted(&xs), 99), Some(50.0));
    assert_eq!(windowed(&xs, 99), Some(1.0));
    assert_eq!(windowed(&[], 50), None);
}

#[test]
fn result_line_schema_is_enforced() {
    let metrics = [
        Metric {
            name: "a_s",
            unit: "s",
            value: 0.25,
            samples: 3,
        },
        Metric {
            name: "b_us",
            unit: "us",
            value: 12.5,
            samples: 1000,
        },
    ];
    let names = ["a_s", "b_us"];
    let good = result_line(true, 10, 0, &metrics);
    validate_result_line(&good, &names).unwrap();
    assert!(
        validate_result_line(&good, &["a_s"]).is_err(),
        "extra metric"
    );
    assert!(
        validate_result_line(&good, &["a_s", "b_us", "c"]).is_err(),
        "missing metric"
    );
    assert!(validate_result_line(&result_line(true, 0, 0, &metrics), &names).is_err());
    assert!(validate_result_line(&result_line(false, 1, 2, &metrics), &names).is_err());
    let nan = [Metric {
        value: f64::NAN,
        ..metrics[0].clone()
    }];
    assert!(validate_result_line(&result_line(true, 1, 0, &nan), &["a_s"]).is_err());
    assert!(validate_result_line(&good.replace("\"failed\"", "\"errors\""), &names).is_err());
}

#[test]
fn every_workload_runs_clean_at_small_scale() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    fn names(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    for name in NAMES {
        for trace in [false, true] {
            let spec = Spec::named(name).unwrap().tiny();
            let opts = Options {
                seed: 7,
                seconds: 0.5,
                trace,
            };
            let out = run(&spec, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                out.error_rate(),
                0.0,
                "{name} trace={trace}: {:?}",
                out.tally.problems
            );
            let line = out.result_line(trace);
            let want = if trace { names(&layers) } else { names(&e2e) };
            validate_result_line(&line, &want).unwrap_or_else(|e| panic!("{name}: {e}"));
            let record = parse(&out.record).expect("the run record is JSON");
            assert_eq!(record.get("workload"), Some(&Json::Str(name.into())));
        }
    }
}
