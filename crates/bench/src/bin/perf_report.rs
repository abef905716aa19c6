//! **perf_report** — runs the fixed perf workload suite under the JSON
//! trace sink, aggregates each workload's trajectory into a versioned
//! `BENCH_<label>.json` snapshot, and diffs snapshots as a CI regression
//! gate. Also doubles as a standalone trace analyzer.
//!
//! Modes (first matching flag wins; `--help` prints them, and an unknown
//! flag prints them and exits 2 without running anything):
//!
//! ```text
//! perf_report [--label L] [--out FILE]        run suite, write BENCH_L.json
//! perf_report --check BASELINE [--out FILE]   run suite, diff vs baseline,
//!             [--time-tol X] [--counter-tol Y]  exit 1 on regression
//! perf_report --diff A.json B.json            diff two existing snapshots
//! perf_report --analyze TRACE.jsonl           span tree + aggregates +
//!             [--chrome OUT.json]               critical path (+ Perfetto export)
//! ```
//!
//! Per-workload trace files land in `NDE_PERF_TRACE_DIR` (default: the
//! system temp dir) and are left on disk so CI can upload them as
//! artifacts when the gate fails. See docs/OBSERVABILITY.md.

use nde_bench::perf::{self, DiffThresholds, Snapshot};
use nde_bench::{brute_knn_predict, load_snapshot, Args};
use nde_core::cleaning::iterative_cleaning_cached;
use nde_core::pipeline_scenario::{
    datascope_for_train_source, figure3_plan, pipeline_sources, run_figure3,
};
use nde_core::scenario::load_recommendation_letters;
use nde_datagen::errors::flip_labels;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::build_topk_cache;
use nde_learners::preprocessing::encoder::{ColumnSpec, TableEncoder};
use nde_learners::{KnnClassifier, Learner};
use nde_trace::analyze;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const K: usize = 5;

/// Figure-2 style warm-cache cleaning: cold KNN-Shapley scoring, then
/// cached re-ranks with incremental repairs. Exercises the neighbor
/// cache, the repair path, and the cleaning loop.
fn workload_fig2_cleaning() -> Option<u64> {
    let cfg = HiringConfig {
        n_train: 300,
        n_valid: 100,
        n_test: 100,
        ..Default::default()
    };
    let scenario = load_recommendation_letters(&cfg);
    let (dirty, _) = flip_labels(&scenario.train, "sentiment", 0.2, 11).expect("injection");
    let steps = iterative_cleaning_cached(
        &dirty,
        &scenario.train,
        &scenario.valid,
        &scenario.test,
        25,
        50,
        K,
    )
    .expect("cached cleaning run");
    std::hint::black_box(&steps);
    // Work volume: each step re-evaluates every training row's rank.
    Some(dirty.num_rows() as u64 * steps.len() as u64)
}

/// Figure-3 style provenance scoring: run the relational pipeline once
/// and compute Datascope importance for the dirty train source.
fn workload_fig3_pipeline() -> Option<u64> {
    let cfg = HiringConfig {
        n_train: 200,
        n_valid: 80,
        n_test: 100,
        ..Default::default()
    };
    let clean = load_recommendation_letters(&cfg);
    let (dirty, _) = flip_labels(&clean.train, "sentiment", 0.2, 9).expect("injection");
    let mut scenario = clean.clone();
    scenario.train = dirty;
    let run = run_figure3(&scenario).expect("pipeline run");
    let scores = datascope_for_train_source(&scenario, &run, K).expect("datascope");
    std::hint::black_box(&scores);
    Some(scenario.train.num_rows() as u64)
}

/// k-d-tree index at scale on low-dimensional hiring features: the
/// brute-force oracle vs the fitted model's batch prediction (bit-identity
/// asserted) plus the truncated top-k neighbor-cache build. The
/// `kdtree.points_scanned` counter from this workload is the tightest
/// regression signal in the suite.
fn workload_knn_index_scale() -> Option<u64> {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 4_000,
        n_valid: 400,
        n_test: 0,
        ..Default::default()
    });
    let encoder = TableEncoder::new(
        vec![
            ColumnSpec::numeric("employer_rating"),
            ColumnSpec::numeric("age"),
            ColumnSpec::categorical("degree"),
            ColumnSpec::categorical("sex"),
        ],
        "sentiment",
    );
    let fitted = encoder.fit(&s.train).expect("fit encoder");
    let train = fitted.transform(&s.train).expect("encode train");
    let valid = fitted.transform(&s.valid).expect("encode valid");

    let indexed = KnnClassifier::new(K).fit(&train).expect("fit");
    let p_brute = {
        let _s = nde_trace::span("phase.predict_brute");
        brute_knn_predict(&train, &valid.x, K)
    };
    let p_indexed = {
        let _s = nde_trace::span("phase.predict_indexed");
        indexed.predict_batch(&valid.x)
    };
    assert_eq!(p_brute, p_indexed, "indexed predictions must match brute");

    let topk = {
        let _s = nde_trace::span("phase.topk_cache");
        build_topk_cache(&train, &valid, K)
    };
    std::hint::black_box(&topk);
    Some(valid.len() as u64)
}

/// Data-quality profiling overhead on the Figure-3 pipeline: the same
/// plan executed with `NDE_QUALITY` off then full. The off phase must
/// leave every `quality.*` counter untouched (the gate is one relaxed
/// atomic load), and both phases must produce bit-identical outputs —
/// profiling is strictly observational. The `phase.quality_off` /
/// `phase.quality_on` span totals in the snapshot are the overhead
/// figure quoted in docs/OBSERVABILITY.md.
fn workload_fig3_quality() -> Option<u64> {
    use nde_quality::QualityMode;
    let cfg = HiringConfig {
        n_train: 200,
        n_valid: 80,
        n_test: 100,
        ..Default::default()
    };
    let scenario = HiringScenario::generate(&cfg);
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan();

    nde_quality::configure_quality(QualityMode::Off);
    nde_quality::reset_quality();
    let out_off = {
        let _s = nde_trace::span("phase.quality_off");
        plan.run(&srcs).expect("pipeline run (quality off)")
    };
    assert_eq!(
        nde_trace::counter_value("quality.profiles"),
        0,
        "off path must not touch quality counters"
    );
    assert_eq!(nde_quality::profiles_pending(), 0);

    nde_quality::configure_quality(QualityMode::Full);
    let out_on = {
        let _s = nde_trace::span("phase.quality_on");
        plan.run(&srcs).expect("pipeline run (quality on)")
    };
    nde_quality::configure_quality(QualityMode::Off);
    let profiles = nde_quality::take_profiles();

    assert_eq!(out_off, out_on, "profiling must be observational");
    assert!(!profiles.is_empty(), "full mode must record profiles");
    std::hint::black_box(&profiles);
    Some(out_on.num_rows() as u64)
}

fn trace_dir() -> PathBuf {
    match std::env::var_os("NDE_PERF_TRACE_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir(),
    }
}

/// A suite entry: workload name plus the function that runs it and
/// returns its work volume (rows) for throughput, if meaningful.
type Workload = (&'static str, fn() -> Option<u64>);

fn run_suite(label: &str) -> Snapshot {
    let dir = trace_dir();
    let suite: [Workload; 4] = [
        ("fig2_cleaning", workload_fig2_cleaning),
        ("fig3_pipeline", workload_fig3_pipeline),
        ("fig3_quality", workload_fig3_quality),
        ("knn_index_scale", workload_knn_index_scale),
    ];
    let mut workloads = Vec::with_capacity(suite.len());
    for (name, work) in suite {
        let trace_path = dir.join(format!("perf_{name}.jsonl"));
        eprintln!(
            "perf_report: running {name} (trace -> {})",
            trace_path.display()
        );
        let result = perf::run_workload(name, &trace_path, work);
        eprintln!(
            "perf_report: {name} {:.1}ms, {} counters, {} span names",
            result.wall_ms,
            result.counters.len(),
            result.spans.len()
        );
        workloads.push(result);
    }
    Snapshot {
        schema_version: perf::SCHEMA_VERSION,
        label: label.to_owned(),
        threads: nde_parallel::num_threads(),
        workloads,
    }
}

fn thresholds_from(args: &Args) -> DiffThresholds {
    let mut t = DiffThresholds::default();
    if let Some(v) = args.get("--time-tol") {
        t.time_ratio = v.parse().expect("--time-tol takes a float ratio");
    }
    if let Some(v) = args.get("--counter-tol") {
        t.counter_ratio = v.parse().expect("--counter-tol takes a float fraction");
    }
    t
}

fn analyze_mode(args: &Args) -> ExitCode {
    let path = args.get("--analyze").expect("--analyze takes a file");
    let data = match analyze::parse_jsonl_file(Path::new(path)) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("perf_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let roots = analyze::build_span_trees(&data.spans);

    println!(
        "=== Span tree ({} spans, {} roots) ===",
        data.spans.len(),
        roots.len()
    );
    print!("{}", analyze::render_tree(&roots));

    println!("\n=== Per-name aggregates ===");
    println!("name\tcount\ttotal_ms\tself_ms\tp50_us\tp95_us\tmax_us");
    for (name, agg) in analyze::aggregate_spans(&roots) {
        println!(
            "{name}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{}",
            agg.count,
            agg.total_us as f64 / 1e3,
            agg.self_us as f64 / 1e3,
            agg.p50_us,
            agg.p95_us,
            agg.max_us
        );
    }

    if let Some(root) = roots.iter().max_by_key(|r| r.inclusive_us()) {
        println!("\n=== Critical path (heaviest root) ===");
        for step in analyze::critical_path(root) {
            println!(
                "{}\tincl={:.3}ms\tself={:.3}ms",
                step.name,
                step.inclusive_us as f64 / 1e3,
                step.self_us as f64 / 1e3
            );
        }
    }

    if !data.counters.is_empty() {
        println!("\n=== Counters ===");
        for (name, value) in &data.counters {
            println!("{name}\t{value}");
        }
    }

    if let Some(out) = args.get("--chrome") {
        let chrome = analyze::to_chrome_trace(&data.spans);
        if let Err(e) = std::fs::write(out, chrome) {
            eprintln!("perf_report: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nChrome trace written to {out} (load in Perfetto or chrome://tracing).");
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "\
usage: perf_report [--label L] [--out FILE]          run suite, write BENCH_L.json
       perf_report --check BASELINE [--out FILE]     run suite, diff vs baseline
                   [--time-tol X] [--counter-tol Y]
       perf_report --diff A.json B.json              diff two existing snapshots
       perf_report --analyze TRACE.jsonl [--chrome OUT.json]
";

const FLAGS: &[&str] = &[
    "--label",
    "--out",
    "--check",
    "--time-tol",
    "--counter-tol",
    "--diff",
    "--analyze",
    "--chrome",
];

fn main() -> ExitCode {
    let args = match Args::from_env(USAGE, FLAGS) {
        Ok(args) => args,
        Err(code) => return code,
    };

    if args.has("--analyze") {
        return analyze_mode(&args);
    }

    if args.has("--diff") {
        let Some((a, b)) = args.two("--diff") else {
            eprintln!("usage: perf_report --diff BASE.json NEW.json");
            return ExitCode::FAILURE;
        };
        let (base, new) = match (
            load_snapshot(a, Snapshot::from_json),
            load_snapshot(b, Snapshot::from_json),
        ) {
            (Ok(base), Ok(new)) => (base, new),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perf_report: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = perf::diff_snapshots(&base, &new, &thresholds_from(&args));
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(baseline_path) = args.get("--check") {
        let base = match load_snapshot(baseline_path, Snapshot::from_json) {
            Ok(base) => base,
            Err(e) => {
                eprintln!("perf_report: {e}");
                return ExitCode::FAILURE;
            }
        };
        let new = run_suite("check");
        if let Some(out) = args.get("--out") {
            if let Err(e) = std::fs::write(out, new.to_json()) {
                eprintln!("perf_report: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("perf_report: snapshot written to {out}");
        }
        println!(
            "Checking against {baseline_path} (baseline: {} threads, this run: {} threads)",
            base.threads, new.threads
        );
        let report = perf::diff_snapshots(&base, &new, &thresholds_from(&args));
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Default: run the suite and write BENCH_<label>.json.
    let label = args.get("--label").unwrap_or("baseline").to_owned();
    let snapshot = run_suite(&label);
    let out = args
        .get("--out")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("BENCH_{label}.json"));
    if let Err(e) = std::fs::write(&out, snapshot.to_json()) {
        eprintln!("perf_report: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "Snapshot ({} workloads, {} threads) written to {out}.",
        snapshot.workloads.len(),
        snapshot.threads
    );
    for w in &snapshot.workloads {
        match w.rows_per_sec {
            Some(rps) => println!("  {}: {:.1}ms ({:.0} rows/s)", w.name, w.wall_ms, rps),
            None => println!("  {}: {:.1}ms", w.name, w.wall_ms),
        }
    }
    ExitCode::SUCCESS
}
