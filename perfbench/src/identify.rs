//! `identify`: cold label-error detection, the paper's first pillar.
//!
//! A few thousand training letters with flipped labels, encoded with the
//! standard 69-dimensional features (a 64-dimensional text embedding plus
//! rating and degree), are scored by three detectors: KNN-Shapley,
//! Confident Learning and AUM. Each ranking is scored against the
//! injection report. One pass is one request: rank the training set with
//! all three detectors.

use crate::{in_span, BoxError, Checks, PassOut, Workload};
use nde_core::scenario::encode_splits;
use nde_datagen::errors::{flip_labels, InjectionReport};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::{build_neighbor_cache, knn_shapley, knn_shapley_cached};
use nde_importance::{aum_scores, confident_learning, rank_ascending, AumConfig};
use nde_learners::{ClassDataset, KnnClassifier};
use std::time::Instant;

const N_TRAIN: usize = 2_000;
const N_VALID: usize = 250;
const FLIP_RATE: f64 = 0.2;
const K: usize = 5;
const FOLDS: usize = 5;
const DETECTORS: [&str; 3] = ["knn_shapley", "confident_learning", "aum"];

pub struct Identify {
    train: ClassDataset,
    valid: ClassDataset,
    report: InjectionReport,
    seed: u64,
    precision: [f64; 3],
}

impl Workload for Identify {
    fn setup(seed: u64) -> Result<Self, BoxError> {
        let scenario = in_span("bench.datagen.generate", || {
            HiringScenario::generate(&HiringConfig {
                n_train: N_TRAIN,
                n_valid: N_VALID,
                n_test: 0,
                seed,
                ..Default::default()
            })
        });
        let (dirty, report) = in_span("bench.datagen.inject", || {
            flip_labels(&scenario.train, "sentiment", FLIP_RATE, seed)
        })?;
        let (_, train, valid) = encode_splits(&dirty, &scenario.valid)?;
        Ok(Identify {
            train,
            valid,
            report,
            seed,
            precision: [0.0; 3],
        })
    }

    fn pass(&mut self, _index: u64, out: &mut PassOut) -> Result<(), BoxError> {
        let start = Instant::now();
        let shapley = knn_shapley(&self.train, &self.valid, K);
        // Domain-separated from the injection seed, which also shuffles.
        let cv_seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let confident = in_span("bench.importance.confident_learning", || {
            confident_learning(&KnnClassifier::new(K), &self.train, FOLDS, cv_seed)
        })?
        .scores;
        let aum = in_span("bench.importance.aum_scores", || {
            aum_scores(&self.train, &AumConfig::default())
        });
        let rankings = [shapley, confident, aum].map(|scores| rank_ascending(&scores));
        let elapsed = start.elapsed().as_secs_f64();

        let injected = self.report.count();
        let precision = rankings.map(|ranking| self.report.precision_at_k(&ranking, injected));
        let mean = precision.iter().sum::<f64>() / precision.len() as f64;
        self.precision = precision;
        out.rows = (DETECTORS.len() * self.train.len()) as f64;
        out.work_s = elapsed;
        out.latencies_ms.push(elapsed * 1e3);
        out.quality = mean;
        out.figures.push(("importance.detect_precision", mean));
        Ok(())
    }

    fn check(&self, checks: &mut Checks) -> Result<(), BoxError> {
        // A sample: every 7th training row against every 5th validation row.
        let rows: Vec<usize> = (0..self.train.len()).step_by(7).collect();
        let train = self.train.subset(&rows);
        let rows: Vec<usize> = (0..self.valid.len()).step_by(5).collect();
        let valid = self.valid.subset(&rows);
        let cold = knn_shapley(&train, &valid, K);
        let cache = build_neighbor_cache(&train, &valid);
        let warm = knn_shapley_cached(&cache, &train.y, &valid.y, K);
        checks.expect(
            "identify: knn_shapley equals knn_shapley_cached on a sample",
            cold.len() == warm.len() && cold.iter().zip(&warm).all(|(a, b)| (a - b).abs() <= 1e-12),
        );
        for (name, p) in DETECTORS.iter().zip(self.precision) {
            checks.expect(
                &format!("identify: {name} precision@|injected| {p:.3} beats the flip rate"),
                p > FLIP_RATE,
            );
        }
        Ok(())
    }
}
