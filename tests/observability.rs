//! End-to-end observability: the fig2 warm-cache cleaning flow, traced to
//! the JSON sink, must emit parseable JSON-lines with per-operator spans
//! and the full-ranking and top-k NeighborCache counters — and with
//! tracing off (the default), nothing may be recorded at all. This test binary is its own
//! process, so the sink override does not leak into other suites.

use navigating_data_errors::core::cleaning::iterative_cleaning_cached;
use navigating_data_errors::datagen::errors::flip_labels;
use navigating_data_errors::datagen::{HiringConfig, HiringScenario};
use navigating_data_errors::pipeline::Plan;
use nde_trace::json::JsonValue;

fn scenario() -> HiringScenario {
    HiringScenario::generate(&HiringConfig {
        n_train: 120,
        n_valid: 40,
        n_test: 40,
        ..Default::default()
    })
}

fn run_cleaning() -> Vec<navigating_data_errors::core::cleaning::CleaningStep> {
    let s = scenario();
    let (dirty, _) = flip_labels(&s.train, "sentiment", 0.2, 7).unwrap();
    iterative_cleaning_cached(&dirty, &s.train, &s.valid, &s.test, 20, 40, 5).unwrap()
}

#[test]
fn traced_cleaning_emits_parseable_spans_and_cache_counters() {
    let mut path = std::env::temp_dir();
    path.push(format!("nde_observability_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Tracing off (the default): results computed, nothing emitted.
    nde_trace::configure(nde_trace::Sink::Off, Some(&path));
    let baseline_steps = run_cleaning();
    assert_eq!(nde_trace::counter_value("neighbor_cache.hit"), 0);
    assert_eq!(nde_trace::counter_value("neighbor_cache.miss"), 0);
    assert!(nde_trace::span_stats("cleaning.iterative_cached").is_none());
    assert!(!path.exists(), "off sink must not create the JSON file");

    // Tracing on: identical results (observational only), full trajectory.
    nde_trace::configure(nde_trace::Sink::Json, Some(&path));
    let traced_steps = run_cleaning();
    assert_eq!(
        baseline_steps, traced_steps,
        "tracing must never change computed results"
    );

    // A traced pipeline run with per-operator spans rides the same sink.
    let table = navigating_data_errors::tabular::Table::builder()
        .int("k", [1, 2, 3])
        .str("v", ["a", "b", "c"])
        .build()
        .unwrap();
    let plan = Plan::source("t").filter("k > 1", |r| r.int("k").is_some_and(|k| k > 1));
    let traced = plan
        .run_traced(&navigating_data_errors::pipeline::exec::sources(vec![(
            "t", table,
        )]))
        .unwrap();
    assert_eq!(traced.table.num_rows(), 2);

    nde_trace::report();
    nde_trace::configure(nde_trace::Sink::Off, None); // flush + close

    let contents = std::fs::read_to_string(&path).expect("trace file written");
    let records: Vec<JsonValue> = contents
        .lines()
        .map(|line| {
            nde_trace::json::parse(line)
                .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"))
        })
        .collect();
    assert!(records.len() > 20, "expected a real trajectory");

    let spans_named = |name: &str| {
        records
            .iter()
            .filter(|r| {
                r.get("type").and_then(|v| v.as_str()) == Some("span")
                    && r.get("name").and_then(|v| v.as_str()) == Some(name)
            })
            .count()
    };
    // The cleaning loop re-scored from the warm cache each round…
    assert!(spans_named("importance.knn_shapley_cached") >= 2);
    assert_eq!(spans_named("neighbor_cache.build"), 1);
    // …and re-evaluated from one kd-tree-fed top-k test-side cache.
    assert_eq!(spans_named("neighbor_cache.build_topk"), 1);
    assert!(spans_named("cleaning.round") >= 2);
    // …and the pipeline operators each produced a span with row counts.
    for op in ["pipeline.source", "pipeline.filter"] {
        assert_eq!(spans_named(op), 1, "missing span for {op}");
    }
    let filter_span = records
        .iter()
        .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("pipeline.filter"))
        .unwrap();
    assert_eq!(
        filter_span
            .get("fields")
            .and_then(|f| f.get("rows_out"))
            .and_then(|v| v.as_u64()),
        Some(2)
    );

    // NeighborCache hit/miss counters made it into the report.
    let counter_value = |name: &str| {
        records
            .iter()
            .find(|r| {
                r.get("type").and_then(|v| v.as_str()) == Some("counter")
                    && r.get("name").and_then(|v| v.as_str()) == Some(name)
            })
            .and_then(|r| r.get("value"))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("no counter record named {name}"))
    };
    assert_eq!(counter_value("neighbor_cache.miss"), 1);
    assert!(counter_value("neighbor_cache.hit") >= 2);
    assert_eq!(counter_value("neighbor_cache.repair"), 40);
    // The same repairs also went through the test-side top-k cache.
    assert_eq!(counter_value("neighbor_cache.topk_build"), 1);
    assert_eq!(counter_value("neighbor_cache.topk_repair"), 40);

    let _ = std::fs::remove_file(&path);
}
