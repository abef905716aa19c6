//! Cross-crate integration: the Figure 3 pipeline from raw scenario tables
//! through provenance, inspection, screening and what-if analysis.

use navigating_data_errors::core::pipeline_scenario::{
    datascope_for_train_source, figure3_plan, pipeline_sources, run_figure3,
};
use navigating_data_errors::core::scenario::load_recommendation_letters;
use navigating_data_errors::datagen::errors::flip_labels;
use navigating_data_errors::datagen::HiringConfig;
use navigating_data_errors::learners::KnnClassifier;
use navigating_data_errors::pipeline::arguseyes::{provenance_leakage, screen, ScreeningConfig};
use navigating_data_errors::pipeline::inspect::inspect;
use navigating_data_errors::pipeline::whatif::{delete_source_rows, rerun_without_rows};
use navigating_data_errors::pipeline::Plan;

fn small_scenario() -> navigating_data_errors::datagen::HiringScenario {
    load_recommendation_letters(&HiringConfig {
        n_train: 150,
        n_valid: 60,
        n_test: 60,
        ..Default::default()
    })
}

#[test]
fn provenance_deletion_equals_rerun_on_the_real_pipeline() {
    let scenario = small_scenario();
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan();
    let traced = plan.run_traced(&srcs).unwrap();
    for deletions in [vec![0usize, 5, 33], (0..50).collect::<Vec<_>>(), vec![]] {
        let incremental = delete_source_rows(&traced, "train_df", &deletions).unwrap();
        let rerun = rerun_without_rows(&plan, &srcs, "train_df", &deletions).unwrap();
        assert_eq!(incremental.table, rerun);
    }
    // Side tables too.
    let inc = delete_source_rows(&traced, "jobdetail_df", &[0, 3]).unwrap();
    let rer = rerun_without_rows(&plan, &srcs, "jobdetail_df", &[0, 3]).unwrap();
    assert_eq!(inc.table, rer);
}

#[test]
fn incremental_insertion_matches_full_rerun_on_the_real_pipeline() {
    use navigating_data_errors::pipeline::whatif::insert_source_rows;
    let scenario = small_scenario();
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan();
    let before = plan.run(&srcs).unwrap();
    // New letters arrive: reuse some validation rows as the delta batch.
    let delta_rows = scenario.valid.head(20);
    let delta = insert_source_rows(&plan, &srcs, "train_df", &delta_rows).unwrap();
    let combined = before.concat(&delta.table).unwrap();
    // Reference: full rerun on the grown source.
    let grown = scenario.train.concat(&delta_rows).unwrap();
    let mut grown_srcs = srcs.clone();
    grown_srcs.insert("train_df".into(), grown);
    let full = plan.run(&grown_srcs).unwrap();
    assert_eq!(combined, full);
    // Delta lineage indexes into the grown table.
    if let Some(src) = delta.source_index("train_df") {
        for m in &delta.lineage {
            for row in m.rows_of_source(src) {
                assert!(row >= scenario.train.num_rows());
            }
        }
    }
}

#[test]
fn a_repaired_join_key_reaches_the_warm_join_index() {
    use navigating_data_errors::pipeline::whatif::rerun_with_repairs;
    use navigating_data_errors::tabular::Table;
    let scenario = small_scenario();
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan();
    // Builds the key indexes of jobdetail_df and social_df, which every
    // later run over these sources shares.
    let before = plan.run_traced(&srcs).unwrap().table;
    // Job 0 takes job 1's id: job 0's letters lose their match and job 1's
    // letters match twice.
    let jobs = &srcs["jobdetail_df"];
    let new_id = jobs.get(1, "job_id").unwrap();
    let repair = [(0, "job_id".to_owned(), new_id.clone())];
    let repaired = rerun_with_repairs(&plan, &srcs, "jobdetail_df", &repair).unwrap();
    // Reference: the same repair on a fresh copy, whose index is cold.
    let names = jobs.schema().names();
    let copy = names
        .iter()
        .map(|&n| (n.to_owned(), jobs.column(n).unwrap().clone()));
    let mut fresh = Table::from_columns(copy.collect()).unwrap();
    fresh.set(0, "job_id", new_id).unwrap();
    let mut cold = srcs.clone();
    cold.insert("jobdetail_df".into(), fresh);
    assert_eq!(repaired, plan.run(&cold).unwrap());
    assert_ne!(repaired, before);
}

#[test]
fn every_output_row_has_three_source_dependencies() {
    let scenario = small_scenario();
    let run = run_figure3(&scenario).unwrap();
    for m in &run.traced.lineage {
        // train ⋈ jobdetail ⋈ social: exactly one row of each.
        assert_eq!(m.tokens().len(), 3);
        let sources: std::collections::HashSet<usize> =
            m.tokens().iter().map(|t| t.source).collect();
        assert_eq!(sources.len(), 3);
    }
}

#[test]
fn inspection_counts_are_consistent_with_execution() {
    let scenario = small_scenario();
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    let plan = figure3_plan();
    let out = plan.run(&srcs).unwrap();
    let report = inspect(&plan, &srcs, &["sex", "sector"], 0.9).unwrap();
    // The last operator's row count equals the final output.
    assert_eq!(report.operators.last().unwrap().rows_out, out.num_rows());
    // Operator count matches the plan size.
    assert_eq!(report.operators.len(), plan.num_operators());
}

#[test]
fn screening_flags_label_errors_after_injection() {
    let mut scenario = small_scenario();
    let (dirty, _) = flip_labels(&scenario.train, "sentiment", 0.3, 3).unwrap();
    scenario.train = dirty;
    let run = run_figure3(&scenario).unwrap();
    let valid_srcs = pipeline_sources(&scenario, scenario.valid.clone());
    let valid_out = figure3_plan().run(&valid_srcs).unwrap();
    let valid = run.encoder.transform(&valid_out).unwrap();
    let learner = KnnClassifier::new(5);
    let report = screen(
        &ScreeningConfig::default(),
        &learner,
        &run.train,
        &valid,
        None,
    )
    .unwrap();
    assert!(
        !report.of_check("label_errors").is_empty(),
        "30% flips must trip the label-error screen: {:?}",
        report.issues
    );
}

#[test]
fn overlapping_splits_are_caught_by_provenance_leakage() {
    let scenario = small_scenario();
    let srcs = pipeline_sources(&scenario, scenario.train.clone());
    // "Test" pipeline accidentally built from the training table.
    let train_traced = figure3_plan().run_traced(&srcs).unwrap();
    let test_traced = Plan::source("train_df")
        .filter("even ids", |r| r.int("letter_id").unwrap_or(1) % 2 == 0)
        .run_traced(&srcs)
        .unwrap();
    let leaks = provenance_leakage(&train_traced, &test_traced);
    assert!(!leaks.is_empty(), "shared source rows must be reported");
    assert!(leaks.iter().all(|(name, _)| name == "train_df"));
}

#[test]
fn datascope_is_stable_across_runs() {
    let scenario = small_scenario();
    let run1 = run_figure3(&scenario).unwrap();
    let run2 = run_figure3(&scenario).unwrap();
    let s1 = datascope_for_train_source(&scenario, &run1, 5).unwrap();
    let s2 = datascope_for_train_source(&scenario, &run2, 5).unwrap();
    assert_eq!(s1, s2);
}
