//! Importance-ranked iterative cleaning — the attendee task of the paper's
//! Figure 2: rank training rows with a detection strategy, hand the most
//! suspicious ones to a cleaning oracle, retrain, measure, repeat.

use crate::scenario::{encode_splits, standard_encoder};
use nde_importance::aum::{aum_scores, AumConfig};
use nde_importance::confident::confident_learning;
use nde_importance::influence::{influence_scores, InfluenceConfig};
use nde_importance::knn_shapley::{
    build_neighbor_cache, build_topk_cache, knn_shapley, knn_shapley_cached,
};
use nde_importance::loo::leave_one_out;
use nde_importance::rank::rank_ascending;
use nde_importance::semivalue::{banzhaf_msr, beta_shapley, tmc_shapley, McConfig};
use nde_importance::utility::{ModelUtility, UtilityMetric};
use nde_learners::dataset::ClassDataset;
use nde_learners::models::knn;
use nde_learners::{KnnClassifier, Result};
use nde_parallel::NeighborCache;
use nde_tabular::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A data-error detection strategy for prioritizing cleaning effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random order (the baseline every method must beat).
    Random,
    /// Leave-one-out scores.
    Loo,
    /// Exact KNN-Shapley (the tutorial's main tool).
    KnnShapley,
    /// Truncated-Monte-Carlo Data Shapley.
    TmcShapley,
    /// Data Banzhaf (maximum sample reuse).
    Banzhaf,
    /// Beta(16, 1) Shapley.
    BetaShapley,
    /// Confident learning.
    Confident,
    /// Area under the margin.
    Aum,
    /// Influence functions (binary problems only).
    Influence,
}

impl Strategy {
    /// All strategies, for leaderboards and sweeps.
    pub fn all() -> &'static [Strategy] {
        &[
            Strategy::Random,
            Strategy::Loo,
            Strategy::KnnShapley,
            Strategy::TmcShapley,
            Strategy::Banzhaf,
            Strategy::BetaShapley,
            Strategy::Confident,
            Strategy::Aum,
            Strategy::Influence,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Loo => "loo",
            Strategy::KnnShapley => "knn_shapley",
            Strategy::TmcShapley => "tmc_shapley",
            Strategy::Banzhaf => "banzhaf",
            Strategy::BetaShapley => "beta_shapley",
            Strategy::Confident => "confident",
            Strategy::Aum => "aum",
            Strategy::Influence => "influence",
        }
    }
}

/// Scores every training example with the given strategy (lower = more
/// suspect). `k` is the k-NN parameter where applicable; `mc_samples`
/// bounds the Monte Carlo estimators; `seed` fixes all randomness.
pub fn importance_scores(
    strategy: Strategy,
    train: &ClassDataset,
    valid: &ClassDataset,
    k: usize,
    mc_samples: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let scores = match strategy {
        Strategy::Random => {
            let mut idx: Vec<usize> = (0..train.len()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            idx.shuffle(&mut rng);
            let mut scores = vec![0.0; train.len()];
            for (rank, &i) in idx.iter().enumerate() {
                scores[i] = rank as f64;
            }
            scores
        }
        Strategy::Loo => {
            let learner = KnnClassifier::new(k);
            let util = ModelUtility::new(&learner, train, valid, UtilityMetric::Accuracy);
            leave_one_out(&util)
        }
        Strategy::KnnShapley => knn_shapley(train, valid, k),
        Strategy::TmcShapley => {
            let learner = KnnClassifier::new(k);
            let util = ModelUtility::new(&learner, train, valid, UtilityMetric::Accuracy);
            tmc_shapley(
                &util,
                &McConfig::new(mc_samples, seed).with_truncation(1e-3),
            )
        }
        Strategy::Banzhaf => {
            let learner = KnnClassifier::new(k);
            let util = ModelUtility::new(&learner, train, valid, UtilityMetric::Accuracy);
            banzhaf_msr(&util, &McConfig::new(mc_samples, seed))
        }
        Strategy::BetaShapley => {
            let learner = KnnClassifier::new(k);
            let util = ModelUtility::new(&learner, train, valid, UtilityMetric::Accuracy);
            beta_shapley(&util, 16.0, 1.0, &McConfig::new(mc_samples, seed))
        }
        Strategy::Confident => {
            let learner = KnnClassifier::new(k);
            confident_learning(&learner, train, 5, seed)?.scores
        }
        Strategy::Aum => aum_scores(train, &AumConfig::default()),
        Strategy::Influence => influence_scores(train, valid, &InfluenceConfig::default())?,
    };
    Ok(scores)
}

/// One point of a cleaning curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningStep {
    /// Total rows cleaned so far.
    pub cleaned: usize,
    /// Test accuracy of the model retrained on the partially cleaned data.
    pub accuracy: f64,
}

/// The iterative cleaning workflow of Figure 2's attendee task.
///
/// Ranks the rows of `dirty` once with `strategy` (scores computed against
/// `valid`), then repairs them in suspicion order in batches of
/// `batch_size` using `clean` as the oracle (ground-truth row replacement),
/// recording test accuracy after every batch. The first step reports the
/// dirty baseline (0 cleaned).
// The argument list mirrors the paper's workflow signature one-to-one.
#[allow(clippy::too_many_arguments)]
pub fn iterative_cleaning(
    dirty: &Table,
    clean: &Table,
    valid: &Table,
    test: &Table,
    strategy: Strategy,
    batch_size: usize,
    max_cleaned: usize,
    k: usize,
    seed: u64,
) -> Result<Vec<CleaningStep>> {
    let mut span = nde_trace::span("cleaning.iterative");
    span.field("strategy", strategy.name());
    span.field("batch_size", batch_size);
    span.field("max_cleaned", max_cleaned);
    let (_, train_ds, valid_ds) = encode_splits(dirty, valid)?;
    let scores = importance_scores(strategy, &train_ds, &valid_ds, k, 60, seed)?;
    let ranking = rank_ascending(&scores);

    let mut working = dirty.clone();
    let mut steps = vec![CleaningStep {
        cleaned: 0,
        accuracy: crate::scenario::evaluate_model(&working, test, k)?,
    }];
    let mut cleaned = 0usize;
    for chunk in ranking.chunks(batch_size.max(1)) {
        if cleaned >= max_cleaned {
            break;
        }
        let mut round = nde_trace::span("cleaning.round");
        for &row in chunk.iter().take(max_cleaned - cleaned) {
            repair_row(&mut working, clean, row)?;
            cleaned += 1;
        }
        let accuracy = crate::scenario::evaluate_model(&working, test, k)?;
        round.field("cleaned", cleaned);
        round.field("accuracy", accuracy);
        steps.push(CleaningStep { cleaned, accuracy });
    }
    span.field("rounds", steps.len() - 1);
    Ok(steps)
}

/// Warm-cache iterative cleaning: the KNN-Shapley path of
/// [`iterative_cleaning`], re-ranked **every round** from a full-ranking
/// validation-side [`NeighborCache`] instead of scored once up front, and
/// re-evaluated from a top-k test-side [`NeighborCache`] instead of a
/// refitted model.
///
/// The feature encoder is fitted once on the dirty table and then held
/// fixed, so a repaired row only requires re-encoding that row and one
/// [`NeighborCache::update_row`] per cache: the validation side keeps the
/// re-score free of distance work, and the test side keeps each test row's
/// nearest training rows current (re-querying by brute force only the
/// lists the row moved out of). The one k-d tree of a session builds the
/// test-side cache; each round's accuracy is the uniform [`knn::vote`]
/// over every test row's `k` nearest — bit-identical to refitting a
/// [`KnnClassifier`] on the repaired rows. Evaluation uses the same fixed
/// encoder (this is the one semantic difference from
/// [`iterative_cleaning`], which refits the encoder on every evaluation).
pub fn iterative_cleaning_cached(
    dirty: &Table,
    clean: &Table,
    valid: &Table,
    test: &Table,
    batch_size: usize,
    max_cleaned: usize,
    k: usize,
) -> Result<Vec<CleaningStep>> {
    use nde_learners::matrix::sq_dist;
    use nde_learners::metrics::accuracy;

    let mut span = nde_trace::span("cleaning.iterative_cached");
    span.field("batch_size", batch_size);
    span.field("max_cleaned", max_cleaned);
    let encoder = standard_encoder().fit(dirty)?;
    let mut train_ds = encoder.transform(dirty)?;
    let valid_ds = encoder.transform(valid)?;
    let test_ds = encoder.transform(test)?;
    let mut cache = build_neighbor_cache(&train_ds, &valid_ds);
    let mut test_cache = build_topk_cache(&train_ds, &test_ds, k);

    // The first `min(k, n)` entries of each test row's list are exactly
    // the neighbors a `KnnClassifier::new(k)` fitted on `train_ds` finds.
    let n_votes = k.max(1).min(train_ds.len());
    let evaluate = |train_ds: &ClassDataset, test_cache: &NeighborCache| -> f64 {
        let preds: Vec<usize> = (0..test_cache.n_valid())
            .map(|v| {
                let nearest = test_cache.neighbors(v)[..n_votes]
                    .iter()
                    .map(|&(_, t)| t as usize);
                knn::argmax(&knn::vote(nearest, &train_ds.y, train_ds.n_classes))
            })
            .collect();
        accuracy(&test_ds.y, &preds)
    };

    let mut working = dirty.clone();
    let mut steps = vec![CleaningStep {
        cleaned: 0,
        accuracy: evaluate(&train_ds, &test_cache),
    }];
    let mut already_cleaned = vec![false; train_ds.len()];
    let mut cleaned = 0usize;
    let max_cleaned = max_cleaned.min(train_ds.len());
    while cleaned < max_cleaned {
        let mut round = nde_trace::span("cleaning.round");
        // Re-rank from the warm cache: repairs from previous rounds shift
        // every score, which the score-once workflow never sees.
        let scores = knn_shapley_cached(&cache, &train_ds.y, &valid_ds.y, k);
        let batch: Vec<usize> = rank_ascending(&scores)
            .into_iter()
            .filter(|&row| !already_cleaned[row])
            .take(batch_size.max(1).min(max_cleaned - cleaned))
            .collect();
        if batch.is_empty() {
            break;
        }
        for &row in &batch {
            repair_row(&mut working, clean, row)?;
            already_cleaned[row] = true;
            cleaned += 1;
            // Re-encode just the repaired row under the fixed encoder.
            let repaired_row =
                working
                    .take(&[row])
                    .map_err(|e| nde_learners::LearnError::Encoding {
                        detail: e.to_string(),
                    })?;
            let repaired = encoder.transform(&repaired_row)?;
            train_ds.x.row_mut(row).copy_from_slice(repaired.x.row(0));
            train_ds.y[row] = repaired.y[0];
            let train_x = &train_ds.x;
            cache.update_row(row, |t, v| sq_dist(train_x.row(t), valid_ds.x.row(v)));
            test_cache.update_row(row, |t, v| sq_dist(train_x.row(t), test_ds.x.row(v)));
        }
        let accuracy = evaluate(&train_ds, &test_cache);
        round.field("cleaned", cleaned);
        round.field("accuracy", accuracy);
        steps.push(CleaningStep { cleaned, accuracy });
    }
    span.field("rounds", steps.len() - 1);
    Ok(steps)
}

/// The cleaning oracle: overwrite row `row` of `dirty` with the ground
/// truth from `clean` (all columns).
pub fn repair_row(dirty: &mut Table, clean: &Table, row: usize) -> Result<()> {
    let truth = clean
        .row_values(row)
        .map_err(|e| nde_learners::LearnError::Encoding {
            detail: e.to_string(),
        })?;
    for (field, value) in clean.schema().fields().iter().zip(truth) {
        dirty
            .set(row, &field.name, value)
            .map_err(|e| nde_learners::LearnError::Encoding {
                detail: e.to_string(),
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_datagen::errors::flip_labels;
    use nde_datagen::{HiringConfig, HiringScenario};

    fn scenario() -> HiringScenario {
        HiringScenario::generate(&HiringConfig {
            n_train: 150,
            n_valid: 60,
            n_test: 60,
            ..Default::default()
        })
    }

    #[test]
    fn repair_row_restores_ground_truth() {
        let s = scenario();
        let (mut dirty, report) = flip_labels(&s.train, "sentiment", 0.2, 3).unwrap();
        let victim = report.affected[0];
        assert_ne!(
            dirty.get(victim, "sentiment").unwrap(),
            s.train.get(victim, "sentiment").unwrap()
        );
        repair_row(&mut dirty, &s.train, victim).unwrap();
        assert_eq!(
            dirty.row_values(victim).unwrap(),
            s.train.row_values(victim).unwrap()
        );
    }

    #[test]
    fn knn_shapley_cleaning_beats_dirty_baseline() {
        let s = scenario();
        let (dirty, _) = flip_labels(&s.train, "sentiment", 0.25, 7).unwrap();
        let steps = iterative_cleaning(
            &dirty,
            &s.train,
            &s.valid,
            &s.test,
            Strategy::KnnShapley,
            25,
            50,
            5,
            1,
        )
        .unwrap();
        assert_eq!(steps[0].cleaned, 0);
        let baseline = steps[0].accuracy;
        let last = steps.last().unwrap();
        assert_eq!(last.cleaned, 50);
        assert!(
            last.accuracy > baseline,
            "cleaning did not help: {baseline} → {}",
            last.accuracy
        );
    }

    #[test]
    fn cached_cleaning_beats_dirty_baseline_and_tracks_budget() {
        let s = scenario();
        let (dirty, _) = flip_labels(&s.train, "sentiment", 0.25, 7).unwrap();
        let steps =
            iterative_cleaning_cached(&dirty, &s.train, &s.valid, &s.test, 25, 50, 5).unwrap();
        assert_eq!(steps[0].cleaned, 0);
        let cleaned: Vec<usize> = steps.iter().map(|s| s.cleaned).collect();
        assert_eq!(cleaned, vec![0, 25, 50]);
        let baseline = steps[0].accuracy;
        let last = steps.last().unwrap();
        assert!(
            last.accuracy > baseline,
            "cached cleaning did not help: {baseline} → {}",
            last.accuracy
        );
    }

    #[test]
    fn cached_cleaning_first_batch_matches_score_once_workflow() {
        // With a budget of one batch, re-ranking each round can't diverge
        // from the score-once workflow: both clean exactly the bottom rows
        // of the initial KNN-Shapley ranking.
        let s = scenario();
        let (dirty, _) = flip_labels(&s.train, "sentiment", 0.2, 13).unwrap();
        let cached =
            iterative_cleaning_cached(&dirty, &s.train, &s.valid, &s.test, 20, 20, 5).unwrap();
        let (_, train_ds, valid_ds) = encode_splits(&dirty, &s.valid).unwrap();
        let scores = knn_shapley(&train_ds, &valid_ds, 5);
        let expected: Vec<usize> = rank_ascending(&scores).into_iter().take(20).collect();
        // Replay the expected repairs and evaluate under the same fixed
        // encoder the cached workflow uses.
        let mut working = dirty.clone();
        for &row in &expected {
            repair_row(&mut working, &s.train, row).unwrap();
        }
        let encoder = standard_encoder().fit(&dirty).unwrap();
        let train_repaired = encoder.transform(&working).unwrap();
        let test_ds = encoder.transform(&s.test).unwrap();
        use nde_learners::Learner;
        let model = KnnClassifier::new(5).fit(&train_repaired).unwrap();
        let expected_acc =
            nde_learners::metrics::accuracy(&test_ds.y, &model.predict_batch(&test_ds.x));
        assert_eq!(cached.last().unwrap().cleaned, 20);
        assert!(
            (cached.last().unwrap().accuracy - expected_acc).abs() < 1e-12,
            "cached {} vs replay {expected_acc}",
            cached.last().unwrap().accuracy
        );
    }

    /// The warm loop must pick and score exactly like a loop that re-ranks
    /// with uncached KNN-Shapley, re-encodes the whole repaired table and
    /// refits the model every round — also when repairs move rows in
    /// feature space. The ±2σ rating outliers sit inside the data, so
    /// repairing one moves it away from some test rows whose lists held
    /// it, and those lists must be re-queried.
    #[test]
    fn cached_cleaning_matches_refit_every_round() {
        use nde_datagen::errors::inject_outliers;
        use nde_learners::metrics::accuracy;
        use nde_learners::Learner;
        let (batch, rounds, k) = (7, 10, 5);
        let s = scenario();
        let (flipped, _) = flip_labels(&s.train, "sentiment", 0.25, 7).unwrap();
        let (dirty, _) = inject_outliers(&flipped, "employer_rating", 0.3, 2.0, 3).unwrap();
        let cached = iterative_cleaning_cached(
            &dirty,
            &s.train,
            &s.valid,
            &s.test,
            batch,
            batch * rounds,
            k,
        )
        .unwrap();

        let encoder = standard_encoder().fit(&dirty).unwrap();
        let valid_ds = encoder.transform(&s.valid).unwrap();
        let test_ds = encoder.transform(&s.test).unwrap();
        let evaluate = |train_ds: &ClassDataset| {
            let model = KnnClassifier::new(k).fit(train_ds).unwrap();
            accuracy(&test_ds.y, &model.predict_batch(&test_ds.x))
        };
        let mut working = dirty.clone();
        let mut train_ds = encoder.transform(&working).unwrap();
        let mut reference = vec![CleaningStep {
            cleaned: 0,
            accuracy: evaluate(&train_ds),
        }];
        let mut already_cleaned = vec![false; train_ds.len()];
        for round in 1..=rounds {
            let picks: Vec<usize> = rank_ascending(&knn_shapley(&train_ds, &valid_ds, k))
                .into_iter()
                .filter(|&row| !already_cleaned[row])
                .take(batch)
                .collect();
            for row in picks {
                repair_row(&mut working, &s.train, row).unwrap();
                already_cleaned[row] = true;
            }
            train_ds = encoder.transform(&working).unwrap();
            reference.push(CleaningStep {
                cleaned: round * batch,
                accuracy: evaluate(&train_ds),
            });
        }
        assert_eq!(cached, reference);
    }

    #[test]
    fn strategies_produce_scores_of_right_length() {
        let s = scenario();
        let (dirty, _) = flip_labels(&s.train, "sentiment", 0.1, 5).unwrap();
        let (_, train_ds, valid_ds) = encode_splits(&dirty, &s.valid).unwrap();
        for &strategy in &[
            Strategy::Random,
            Strategy::KnnShapley,
            Strategy::Confident,
            Strategy::Aum,
            Strategy::Influence,
        ] {
            let scores = importance_scores(strategy, &train_ds, &valid_ds, 5, 10, 3).unwrap();
            assert_eq!(scores.len(), train_ds.len(), "{}", strategy.name());
        }
    }

    #[test]
    fn knn_shapley_finds_more_errors_than_random() {
        let s = scenario();
        let (dirty, report) = flip_labels(&s.train, "sentiment", 0.2, 11).unwrap();
        let (_, train_ds, valid_ds) = encode_splits(&dirty, &s.valid).unwrap();
        let shapley =
            importance_scores(Strategy::KnnShapley, &train_ds, &valid_ds, 5, 0, 1).unwrap();
        let random = importance_scores(Strategy::Random, &train_ds, &valid_ds, 5, 0, 1).unwrap();
        let k = report.count();
        let p_shapley = report.precision_at_k(&rank_ascending(&shapley), k);
        let p_random = report.precision_at_k(&rank_ascending(&random), k);
        assert!(
            p_shapley > p_random + 0.1,
            "shapley {p_shapley} vs random {p_random}"
        );
    }

    #[test]
    fn strategy_names_are_unique() {
        let names: std::collections::HashSet<&str> =
            Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Strategy::all().len());
    }
}
