//! The benchmark's own checks: every workload passes them at tiny size,
//! a lying oracle is caught, and `BENCHMARK.json` names exactly the
//! metrics a run prints, and only workloads the command runs.

use perfbench::attack::Local;
use perfbench::run::{reduce, result_line, run, Settings, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{prepare, Bench, Inputs, Size, Workload};

fn tiny(seed: u64) -> Inputs {
    Inputs {
        seed,
        lock_seed: 1000,
        size: Size::Tiny,
    }
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for workload in Workload::ALL {
        let mut bench = prepare(workload, tiny(7)).expect("inputs build");
        let plain = bench.pass(None);
        assert!(
            plain.failures.is_empty() && plain.failed == 0,
            "{}: {:?}",
            workload.name(),
            plain.failures
        );
        assert!(
            plain.attempted > 0 && plain.patterns > 0,
            "{}",
            workload.name()
        );
        assert!(
            !plain.wall.is_zero() && !plain.setup.is_zero(),
            "{}",
            workload.name()
        );
        assert!(!plain.latencies_us.is_empty(), "{}", workload.name());

        let tracer = Tracer::new();
        let traced = bench.pass(Some(&tracer));
        assert!(
            traced.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            traced.failures
        );
        let self_times = tracer.self_times();
        let attributed: f64 = self_times
            .iter()
            .filter(|(layer, _)| **layer != perfbench::trace::BENCH)
            .map(|(_, s)| s)
            .sum();
        assert!(attributed > 0.0, "{}: {self_times:?}", workload.name());
    }
}

#[test]
fn a_lying_oracle_is_caught() {
    let mut bench = Local::new(tiny(7)).expect("inputs build");
    bench.lie_at = Some(0);
    let out = bench.pass(None);
    assert!(out.failed > 0, "a flipped response bit went unnoticed");
    assert!(!out.failures.is_empty());
}

#[test]
fn a_run_reports_every_metric_and_none_is_zero() {
    for trace in [false, true] {
        let settings = Settings {
            workload: Workload::OracleServe,
            inputs: tiny(3),
            seconds: 1,
            trace,
        };
        let mut bench = prepare(settings.workload, settings.inputs).expect("inputs build");
        let passes = run(&settings, bench.as_mut());
        let outcome = reduce(settings, &passes);
        assert!(outcome.correct(), "{:?}", outcome.failures);
        let names: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.0).collect();
        let want = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(names, want.iter().map(|d| d.0).collect::<Vec<_>>());
        if !trace {
            for ((name, _, _), v) in &outcome.metrics {
                assert!(*v > 0.0, "{name} reads {v}");
            }
        }
        let line = result_line(&outcome);
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":"#),
            "{line}"
        );
    }
}

#[test]
fn benchmark_json_names_the_metrics_the_runs_print() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let v = ril_attacks::json::JsonValue::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|x| x.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let defined = |defs: &[(&str, &str, &str)]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.0.to_string(), d.1.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), defined(END_TO_END));
    assert_eq!(listed("per_layer"), defined(PER_LAYER));
    let workloads: Vec<String> = v
        .get("workloads")
        .and_then(|l| l.as_array())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(!workloads.is_empty());
    for name in workloads {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
