//! **quality_report** — runs the seeded Figure-3 pipeline under
//! `NDE_QUALITY=full`, snapshots the profile sketches observed at every
//! operator boundary into a versioned `PROFILE_<label>.json`, and diffs
//! snapshots as a CI data-quality gate. Also runs the error-injection
//! drift experiment behind EXPERIMENTS.md's "drift detection" table.
//!
//! Modes (first matching flag wins; `--help` prints them, and an unknown
//! flag prints them and exits 2 without running anything):
//!
//! ```text
//! quality_report [--label L] [--out FILE]      run pipeline, write PROFILE_L.json
//! quality_report --check BASELINE [--out FILE] run pipeline, score drift vs
//!                                                baseline, exit 1 on FAIL tier
//! quality_report --diff A.json B.json          score two existing snapshots
//! quality_report --experiment                  inject each error family at
//!                                                increasing rates; print which
//!                                                drift metric fires first
//! ```
//!
//! The pipeline inputs are generated from a fixed seed and every sketch
//! is deterministic, so `--check` against the committed baseline expects
//! *zero* drift — any movement at all is a behavioural change in the
//! pipeline or the profiler. See docs/OBSERVABILITY.md.

use nde_bench::quality::{check_snapshots, ProfileSnapshot};
use nde_bench::{load_snapshot, Args};
use nde_core::pipeline_scenario::{figure3_plan, pipeline_sources};
use nde_datagen::errors::{flip_labels, inject_missing, inject_shift, Mechanism};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_quality::{
    column_drift, ColumnDrift, DriftThresholds, OpProfile, QualityMode, TableProfile,
};
use nde_tabular::Table;
use std::process::ExitCode;

/// The fixed scenario the snapshot suite profiles. Generation is seeded,
/// so the resulting profiles are bit-identical across machines.
fn suite_config() -> HiringConfig {
    HiringConfig {
        n_train: 200,
        n_valid: 80,
        n_test: 100,
        ..Default::default()
    }
}

/// Runs the Figure-3 plan over `train` under full profiling and returns
/// the per-operator profiles in execution order plus the output table.
fn profile_pipeline(scenario: &HiringScenario, train: Table) -> (Vec<OpProfile>, Table) {
    nde_quality::configure_quality(QualityMode::Full);
    nde_quality::reset_quality();
    let srcs = pipeline_sources(scenario, train);
    let out = figure3_plan().run(&srcs).expect("pipeline run");
    let profiles = nde_quality::take_profiles();
    nde_quality::configure_quality(QualityMode::Off);
    assert!(
        !profiles.is_empty(),
        "full profiling must record every operator boundary"
    );
    (profiles, out)
}

fn run_suite(label: &str) -> ProfileSnapshot {
    let scenario = HiringScenario::generate(&suite_config());
    let (ops, _) = profile_pipeline(&scenario, scenario.train.clone());
    eprintln!(
        "quality_report: profiled {} operator boundaries over {} train rows",
        ops.len(),
        scenario.train.num_rows()
    );
    ProfileSnapshot::from_run(label, ops)
}

/// The final operator's profile — the pipeline output the experiment
/// scores drift on.
fn final_profile(ops: &[OpProfile]) -> &TableProfile {
    &ops.last().expect("non-empty profile run").profile
}

fn drift_row(family: &str, rate: f64, drift: &ColumnDrift, thresholds: &DriftThresholds) {
    let (metric, _) = drift.dominant_metric(thresholds);
    let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.4}"));
    nde_bench::row(&[
        family.to_owned(),
        format!("{rate:.2}"),
        drift.column.clone(),
        fmt(drift.psi),
        fmt(drift.ks),
        format!("{:.4}", drift.null_delta),
        format!("{:.4}", drift.distinct_delta),
        metric.to_owned(),
        drift.severity(thresholds).to_string(),
    ]);
}

/// The profile of `column` restricted to rows where `label_col == label`:
/// the class-conditional segment profile that catches what a marginal
/// monitor misses (balanced label flips leave the label's own
/// distribution untouched but mix the classes' feature distributions).
fn conditional_sketch(table: &Table, label_col: &str, label: &str) -> nde_quality::ColumnSketch {
    let segment = table
        .filter(|r| r.str(label_col) == Some(label))
        .expect("segment filter");
    segment
        .quality_profile()
        .columns
        .into_iter()
        .find(|c| c.name == "employer_rating")
        .expect("employer_rating in pipeline output")
}

/// Injects each datagen error family into the train source at increasing
/// rates and scores the pipeline *output* profile against the clean run —
/// showing which drift metric crosses its warn threshold first as each
/// error grows.
fn experiment_mode() -> ExitCode {
    let thresholds = DriftThresholds::default();
    let scenario = HiringScenario::generate(&suite_config());
    let (clean_ops, clean_out) = profile_pipeline(&scenario, scenario.train.clone());
    let clean = final_profile(&clean_ops).clone();
    let clean_cond = conditional_sketch(&clean_out, "sentiment", "positive");
    let rates = [0.05, 0.10, 0.20, 0.40];

    nde_bench::section("Error-injection drift detection (pipeline output vs clean run)");
    println!(
        "Severity tiers: warn past {{psi {}, ks {}, null {}, distinct {}}}, fail past {{{}, {}, {}, {}}}",
        thresholds.psi_warn,
        thresholds.ks_warn,
        thresholds.null_warn,
        thresholds.distinct_warn,
        thresholds.psi_fail,
        thresholds.ks_fail,
        thresholds.null_fail,
        thresholds.distinct_fail,
    );
    nde_bench::row(&[
        "family",
        "rate",
        "column",
        "psi",
        "ks",
        "null_d",
        "distinct_d",
        "dominant",
        "tier",
    ]);

    type Inject = fn(&Table, f64) -> Table;
    let families: [(&str, &str, Inject); 4] = [
        ("label_flip", "sentiment", |t, rate| {
            flip_labels(t, "sentiment", rate, 77).expect("flip").0
        }),
        ("missing_mcar", "employer_rating", |t, rate| {
            inject_missing(t, "employer_rating", rate, Mechanism::Mcar, 77)
                .expect("mcar")
                .0
        }),
        ("missing_mnar", "employer_rating", |t, rate| {
            inject_missing(t, "employer_rating", rate, Mechanism::Mnar, 77)
                .expect("mnar")
                .0
        }),
        // Covariate shift: the rate scales the offset (employer_rating
        // lives in [1, 5] with σ≈0.7, so rate 0.4 shifts by ~1.7σ).
        ("shift", "employer_rating", |t, rate| {
            inject_shift(t, "employer_rating", 1.0, 3.0 * rate)
                .expect("shift")
                .0
        }),
    ];

    for (family, column, inject) in families {
        for rate in rates {
            let dirty = inject(&scenario.train, rate);
            let (ops, out) = profile_pipeline(&scenario, dirty);
            let current = final_profile(&ops);
            let (Some(base_col), Some(cur_col)) = (clean.column(column), current.column(column))
            else {
                eprintln!("quality_report: column {column:?} missing from pipeline output");
                return ExitCode::FAILURE;
            };
            let drift = column_drift(base_col, cur_col);
            drift_row(family, rate, &drift, &thresholds);
            if family == "label_flip" {
                // The marginal label distribution barely moves when flips
                // are (near-)balanced; the class-conditional feature
                // profile is what catches them.
                let cur_cond = conditional_sketch(&out, "sentiment", "positive");
                let mut cond = column_drift(&clean_cond, &cur_cond);
                cond.column = "rating|positive".into();
                drift_row("label_flip_cond", rate, &cond, &thresholds);
            }
        }
    }
    println!(
        "\nReading the table: balanced label flips are nearly invisible to the marginal PSI \
         but fire the class-conditional KS (`rating|positive`), the null-rate delta reacts \
         to missingness (MNAR also bends KS by censoring high values), and KS to covariate \
         shift — each family's dominant metric is the alarm that fires first as its rate grows."
    );
    ExitCode::SUCCESS
}

const USAGE: &str = "\
usage: quality_report [--label L] [--out FILE]       run pipeline, write PROFILE_L.json
       quality_report --check BASELINE [--out FILE]  run pipeline, score drift vs baseline
       quality_report --diff A.json B.json           score two existing snapshots
       quality_report --experiment                   drift experiment per error family
";

const FLAGS: &[&str] = &["--label", "--out", "--check", "--diff", "--experiment"];

fn main() -> ExitCode {
    let args = match Args::from_env(USAGE, FLAGS) {
        Ok(args) => args,
        Err(code) => return code,
    };

    if args.has("--experiment") {
        return experiment_mode();
    }

    if args.has("--diff") {
        let Some((a, b)) = args.two("--diff") else {
            eprintln!("usage: quality_report --diff BASE.json NEW.json");
            return ExitCode::FAILURE;
        };
        let (base, new) = match (
            load_snapshot(a, ProfileSnapshot::from_json),
            load_snapshot(b, ProfileSnapshot::from_json),
        ) {
            (Ok(base), Ok(new)) => (base, new),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("quality_report: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = check_snapshots(&base, &new, &DriftThresholds::default());
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(baseline_path) = args.get("--check") {
        let base = match load_snapshot(baseline_path, ProfileSnapshot::from_json) {
            Ok(base) => base,
            Err(e) => {
                eprintln!("quality_report: {e}");
                return ExitCode::FAILURE;
            }
        };
        let new = run_suite("check");
        if let Some(out) = args.get("--out") {
            if let Err(e) = std::fs::write(out, new.to_json()) {
                eprintln!("quality_report: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("quality_report: snapshot written to {out}");
        }
        println!(
            "Checking against {baseline_path} ({} baseline operators, {} this run)",
            base.operators.len(),
            new.operators.len()
        );
        let report = check_snapshots(&base, &new, &DriftThresholds::default());
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Default: run the pipeline and write PROFILE_<label>.json.
    let label = args.get("--label").unwrap_or("baseline").to_owned();
    let snapshot = run_suite(&label);
    let out = args
        .get("--out")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("PROFILE_{label}.json"));
    if let Err(e) = std::fs::write(&out, snapshot.to_json()) {
        eprintln!("quality_report: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "Profile snapshot ({} operators) written to {out}.",
        snapshot.operators.len()
    );
    for op in &snapshot.operators {
        println!(
            "  {}: {} rows, {} columns",
            op.key,
            op.profile.rows,
            op.profile.columns.len()
        );
    }
    ExitCode::SUCCESS
}
