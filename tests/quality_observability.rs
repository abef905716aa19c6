//! End-to-end data-quality observability: the Figure-3 pipeline run under
//! `NDE_QUALITY=full` must produce bit-identical output tables, collect
//! one profile per operator boundary, and — when the trace JSON sink is
//! live — emit parseable `{"type":"profile"}` records alongside spans.
//! With profiling off (the default), nothing may be recorded at all.
//! This test binary is its own process, so the mode and sink overrides
//! do not leak into other suites; within it, tests that set them hold
//! [`GLOBAL_MODES`].

use navigating_data_errors::core::pipeline_scenario::{
    figure3_plan, figure3_plan_fuzzy, pipeline_sources,
};
use navigating_data_errors::datagen::{HiringConfig, HiringScenario};
use navigating_data_errors::pipeline::inspect::inspect;
use nde_quality::{QualityMode, TableProfile};
use nde_trace::json::JsonValue;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that set the process-wide quality mode and trace
/// sink.
static GLOBAL_MODES: Mutex<()> = Mutex::new(());

fn lock_global_modes() -> MutexGuard<'static, ()> {
    GLOBAL_MODES.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_figure3(scenario: &HiringScenario) -> navigating_data_errors::tabular::Table {
    let srcs = pipeline_sources(scenario, scenario.train.clone());
    figure3_plan().run(&srcs).expect("pipeline run")
}

#[test]
fn profiling_is_observational_and_emits_parseable_records() {
    let _modes = lock_global_modes();
    let mut path = std::env::temp_dir();
    path.push(format!("nde_quality_obs_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let scenario = HiringScenario::generate(&HiringConfig {
        n_train: 120,
        n_valid: 40,
        n_test: 40,
        ..Default::default()
    });

    // Profiling off (the default): results computed, nothing collected.
    nde_quality::configure_quality(QualityMode::Off);
    nde_trace::configure(nde_trace::Sink::Off, Some(&path));
    let baseline = run_figure3(&scenario);
    assert_eq!(
        nde_quality::profiles_pending(),
        0,
        "off mode must not profile"
    );
    assert_eq!(nde_trace::counter_value("quality.profiles"), 0);
    assert_eq!(nde_trace::counter_value("quality.cells_profiled"), 0);
    assert!(!path.exists(), "off sink must not create the JSON file");

    // Full profiling + JSON sink: identical output, one profile per
    // operator boundary, profile records on the trace stream.
    nde_quality::configure_quality(QualityMode::Full);
    nde_trace::configure(nde_trace::Sink::Json, Some(&path));
    let profiled = run_figure3(&scenario);
    assert_eq!(
        baseline, profiled,
        "profiling must never change computed results"
    );
    let ops = nde_quality::take_profiles();
    assert_eq!(ops.len(), 7, "figure-3 plan has 7 operator boundaries");
    assert_eq!(nde_trace::counter_value("quality.profiles"), 7);
    let final_op = ops.last().unwrap();
    assert_eq!(final_op.profile.rows, profiled.num_rows() as u64);
    assert_eq!(
        final_op.profile,
        profiled.quality_profile(),
        "the last boundary profile is exactly the output table's profile"
    );
    assert!(final_op.profile.column("employer_rating").is_some());
    assert!(final_op.profile.column("has_twitter").is_some());

    // Final mode: exactly one profile, taken at the plan root.
    nde_quality::configure_quality(QualityMode::Final);
    let final_only = run_figure3(&scenario);
    assert_eq!(baseline, final_only);
    let finals = nde_quality::take_profiles();
    assert_eq!(finals.len(), 1, "final mode profiles only the plan output");
    assert!(
        finals[0].op.starts_with("final:"),
        "unexpected label {:?}",
        finals[0].op
    );
    assert_eq!(finals[0].profile, final_op.profile);

    nde_quality::configure_quality(QualityMode::Off);
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

    // The profile records parse back: one per boundary (full run) plus
    // one (final run), in record order, matching the drained registry.
    let profiles: Vec<(String, JsonValue)> = records
        .iter()
        .filter_map(nde_quality::parse_profile_record)
        .collect();
    assert_eq!(profiles.len(), 8, "7 full-mode + 1 final-mode records");
    for (op_record, (op, payload)) in ops.iter().zip(&profiles) {
        assert_eq!(&op_record.op, op);
        assert_eq!(
            payload.get("rows").and_then(JsonValue::as_u64),
            Some(op_record.profile.rows),
            "summary payload row count for {op}"
        );
        // The summary payload is the compact per-column digest of the
        // same sketch state the registry holds. Compare rendered text:
        // parsing loses the Int/Number distinction for whole floats.
        let render = |v: &JsonValue| {
            let mut s = String::new();
            nde_trace::json::write_value(&mut s, v);
            s
        };
        assert_eq!(
            render(payload),
            render(&op_record.profile.summary_json_value()),
            "summary payload for {op}"
        );
    }
    assert!(profiles[7].0.starts_with("final:"));

    // The full-mode run also put `quality.profile` spans on the stream,
    // labelled with the operator they profiled.
    let quality_spans: Vec<&JsonValue> = records
        .iter()
        .filter(|r| {
            r.get("type").and_then(JsonValue::as_str) == Some("span")
                && r.get("name").and_then(JsonValue::as_str) == Some("quality.profile")
        })
        .collect();
    assert_eq!(quality_spans.len(), 7);
    assert!(quality_spans
        .iter()
        .any(|s| s.get("fields").and_then(|f| f.get("op")).is_some()));

    let _ = std::fs::remove_file(&path);
}

/// Plain, traced and inspected runs share one operator walk: profiling
/// sees the same boundaries in the same order either way, and only the
/// traced run opens per-operator spans.
#[test]
fn plain_traced_and_inspected_runs_observe_the_same_walk() {
    let _modes = lock_global_modes();
    let scenario = HiringScenario::generate(&HiringConfig {
        n_train: 120,
        n_valid: 40,
        n_test: 40,
        ..Default::default()
    });
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan_fuzzy();

    // Profiles per operator boundary, with the trace sink off (so no
    // counters move).
    nde_trace::configure(nde_trace::Sink::Off, None);
    nde_quality::configure_quality(QualityMode::Full);
    let plain = plan.run(&srcs).expect("plain run");
    let plain_profiles = nde_quality::take_profiles();
    let traced = plan.run_traced(&srcs).expect("traced run");
    let traced_profiles = nde_quality::take_profiles();
    nde_quality::configure_quality(QualityMode::Off);
    assert_eq!(plain, traced.table);
    let labels = |ops: &[nde_quality::OpProfile]| -> Vec<String> {
        ops.iter().map(|o| o.op.clone()).collect()
    };
    assert_eq!(
        plain_profiles.len(),
        9,
        "four sources, two joins, a filter, a UDF column and a fuzzy join"
    );
    assert_eq!(labels(&plain_profiles), labels(&traced_profiles));
    for (p, t) in plain_profiles.iter().zip(&traced_profiles) {
        assert_eq!(
            p.profile.to_json(),
            t.profile.to_json(),
            "profile of {}",
            p.op
        );
    }

    // Operator spans, one trace file per call.
    let mut dir = std::env::temp_dir();
    dir.push(format!("nde_one_walk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_of = |name: &str, call: &dyn Fn()| -> Vec<JsonValue> {
        let path = dir.join(format!("{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        nde_trace::configure(nde_trace::Sink::Json, Some(&path));
        call();
        nde_trace::configure(nde_trace::Sink::Off, None); // flush + close
        let contents = std::fs::read_to_string(&path).expect("trace file written");
        contents
            .lines()
            .map(|line| nde_trace::json::parse(line).expect("parseable trace line"))
            .collect()
    };
    // The `op` fields of the `pipeline.<operator>` spans, in record order.
    let operator_spans = |records: &[JsonValue]| -> Vec<String> {
        records
            .iter()
            .filter(|r| r.get("type").and_then(JsonValue::as_str) == Some("span"))
            .filter(|r| {
                let name = r.get("name").and_then(JsonValue::as_str).unwrap_or("");
                name.starts_with("pipeline.")
                    && name != "pipeline.run"
                    && name != "pipeline.run_traced"
            })
            .map(|r| {
                let op = r.get("fields").and_then(|f| f.get("op"));
                op.and_then(JsonValue::as_str).unwrap_or("").to_owned()
            })
            .collect()
    };
    let run_trace = trace_of("run", &|| {
        plan.run(&srcs).expect("plain run");
    });
    let traced_trace = trace_of("run_traced", &|| {
        plan.run_traced(&srcs).expect("traced run");
    });
    let inspect_trace = trace_of("inspect", &|| {
        inspect(&plan, &srcs, &["sector"], 1.0).expect("inspection");
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        operator_spans(&run_trace).is_empty(),
        "run opens no operator spans"
    );
    assert_eq!(
        operator_spans(&traced_trace),
        labels(&plain_profiles),
        "run_traced opens one span per operator, in post-order"
    );
    assert!(
        operator_spans(&inspect_trace).is_empty(),
        "inspect opens no operator spans"
    );
}

/// The lossless snapshot serialization (`TableProfile::to_json`) round
/// trips the exact sketch state a pipeline run produced — the property
/// the committed `PROFILE_baseline.json` gate relies on.
#[test]
fn pipeline_profile_round_trips_losslessly() {
    let scenario = HiringScenario::generate(&HiringConfig {
        n_train: 80,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    });
    let profile = scenario.train.quality_profile();
    let parsed = TableProfile::from_json(&profile.to_json()).expect("round trip");
    assert_eq!(parsed, profile);
    assert_eq!(parsed.to_json(), profile.to_json(), "stable bytes");
}
