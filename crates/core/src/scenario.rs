//! The Figure 2 setup: load the recommendation-letter data, encode it, and
//! evaluate the downstream classifier.

use nde_datagen::{HiringConfig, HiringScenario};
use nde_learners::dataset::ClassDataset;
use nde_learners::metrics::accuracy;
use nde_learners::preprocessing::{ColumnSpec, FittedTableEncoder, TableEncoder};
use nde_learners::traits::Learner;
use nde_learners::{KnnClassifier, Result};
use nde_tabular::Table;

/// Loads the hiring scenario — the `nde.load_recommendation_letters()` of
/// the paper's Figure 2 (deterministic for a given config).
pub fn load_recommendation_letters(config: &HiringConfig) -> HiringScenario {
    HiringScenario::generate(config)
}

/// The standard feature encoding of the tutorial: pseudo-sentence-embedded
/// letter text, standardized employer rating, one-hot degree.
pub fn standard_encoder() -> TableEncoder {
    TableEncoder::new(
        vec![
            ColumnSpec::text("letter_text", 64),
            ColumnSpec::numeric("employer_rating"),
            ColumnSpec::categorical("degree"),
        ],
        "sentiment",
    )
}

/// Fits the standard encoder on `train` and encodes both splits.
pub fn encode_splits(
    train: &Table,
    other: &Table,
) -> Result<(FittedTableEncoder, ClassDataset, ClassDataset)> {
    let encoder = standard_encoder();
    let fitted = encoder.fit(train)?;
    let train_ds = fitted.transform(train)?;
    let other_ds = fitted.transform(other)?;
    Ok((fitted, train_ds, other_ds))
}

/// The `nde.evaluate_model` of Figure 2: train the tutorial's k-NN
/// classifier on `train` and report accuracy on `test` (both raw tables;
/// encoding is fit on `train` with the 69-dimensional
/// [`standard_encoder`]).
pub fn evaluate_model(train: &Table, test: &Table, k: usize) -> Result<f64> {
    let (_, train_ds, test_ds) = encode_splits(train, test)?;
    let model = KnnClassifier::new(k).fit(&train_ds)?;
    let preds = model.predict_batch(&test_ds.x);
    Ok(accuracy(&test_ds.y, &preds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HiringConfig {
        HiringConfig {
            n_train: 120,
            n_valid: 40,
            n_test: 40,
            ..Default::default()
        }
    }

    #[test]
    fn scenario_loads_and_evaluates() {
        let s = load_recommendation_letters(&small_config());
        let acc = evaluate_model(&s.train, &s.test, 5).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn encoder_round_trips_splits() {
        let s = load_recommendation_letters(&small_config());
        let (fitted, train_ds, valid_ds) = encode_splits(&s.train, &s.valid).unwrap();
        assert_eq!(train_ds.len(), 120);
        assert_eq!(valid_ds.len(), 40);
        assert_eq!(train_ds.n_features(), fitted.width());
        assert_eq!(fitted.classes(), &["negative", "positive"]);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let s = load_recommendation_letters(&small_config());
        let a = evaluate_model(&s.train, &s.test, 5).unwrap();
        let b = evaluate_model(&s.train, &s.test, 5).unwrap();
        assert_eq!(a, b);
    }
}
