//! The benchmark's own checks: printed names match `BENCHMARK.json`,
//! the work counters repeat exactly for one seed, and the fixed
//! references agree with the library's analytic layer.

use super::*;
use workloads::eq11_poisson;

fn benchmark_json() -> serde::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde::json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(json: &serde::Value, key: &str) -> Vec<(String, String)> {
    let map = json.as_map().expect("a JSON object");
    serde::map_get(map, key)
        .and_then(serde::Value::as_seq)
        .expect("a metric list")
        .iter()
        .map(|entry| {
            let entry = entry.as_map().expect("metric entries are objects");
            let field = |k| {
                serde::map_get(entry, k)
                    .and_then(serde::Value::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn workloads_and_end_to_end_names_match_benchmark_json() {
    let json = benchmark_json();
    let map = json.as_map().expect("a JSON object");
    let workloads: Vec<&str> = serde::map_get(map, "workloads")
        .and_then(serde::Value::as_seq)
        .expect("a workload list")
        .iter()
        .map(|w| {
            let w = w.as_map().expect("workload entries are objects");
            serde::map_get(w, "name")
                .and_then(serde::Value::as_str)
                .expect("workload names are strings")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit.to_string()))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), end_to_end);
}

/// The metrics of unit `count`, by name.
fn counts(metrics: &[Metric]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn traced_names_match_and_counters_repeat_for_one_seed() {
    let seed = 7;
    let first = probe_layers(Workload::Fig4Flat1m, seed);
    let second = probe_layers(Workload::Fig4Flat1m, seed);
    let counted = counts(&first);
    assert_eq!(
        counted,
        counts(&second),
        "counts differ between same-seed runs"
    );
    let names: Vec<&str> = counted.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "engine.copies_per_rep",
            "traffic.frames_per_rep",
            "traffic.copies_dropped",
            "netsim.events_per_exec",
            "runtime.frames_per_exec",
        ]
    );
    // Every counter counts work; the contended stream overflows.
    assert!(counted.iter().all(|(_, value)| *value > 0.0), "{counted:?}");
    assert_eq!(printed(&first), printed(&second));

    let mut metrics = first;
    metrics.extend(span_metrics(&[], &[1.0], &[1.0]));
    assert_eq!(declared(&benchmark_json(), "per_layer"), printed(&metrics));
}

#[test]
fn fixed_references_match_the_analytic_layer() {
    for (q, loss) in [(0.6, 0.0), (0.75, 0.0), (0.9, 0.0), (1.0, 0.1)] {
        let scenario = gossip::Scenario::new(1000, gossip::FanoutSpec::poisson(4.0))
            .with_failure_ratio(q)
            .with_loss(loss);
        let analytic = Layer::Analytic.evaluate(&scenario).expect("analytic point");
        let ours = eq11_poisson(4.0, q, loss);
        assert!(
            (analytic.reliability - ours).abs() < 1e-9,
            "q={q} loss={loss}: analytic {} vs {ours}",
            analytic.reliability
        );
    }
    assert!((eq11_poisson(4.0, 0.9, 0.0) - 0.9695).abs() < 1e-4);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    let values: Vec<f64> = (1..=40).map(f64::from).collect();
    let (value, percentile, samples) = measure::tail(&values);
    assert_eq!((value, samples), (30.0, 40));
    assert_eq!(percentile, 75.0);
}
