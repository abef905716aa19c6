//! `clean`: the warm write path of iterative cleaning (Figure 2's task).
//!
//! `iterative_cleaning_cached` repairs the most suspect rows in many small
//! batches, re-ranking every round from a neighbour cache that it keeps
//! current with `NeighborCache::update_row`, and re-evaluating with the
//! k-d-tree-indexed k-NN. The letter text is blanked, so the encoded
//! features vary in five dimensions (rating and one-hot degree): the
//! low-dimensional regime in which the k-d tree prunes. One pass is one
//! request: a whole cleaning session.

use crate::{in_span, BoxError, Checks, PassOut, Workload};
use nde_core::cleaning::{iterative_cleaning_cached, repair_row, CleaningStep};
use nde_core::scenario::{encode_splits, standard_encoder};
use nde_datagen::errors::flip_labels;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::knn_shapley;
use nde_importance::rank_ascending;
use nde_learners::metrics::accuracy;
use nde_learners::{KnnClassifier, Learner};
use nde_tabular::{Table, Value};
use std::time::Instant;

const N_TRAIN: usize = 2_000;
const N_VALID: usize = 200;
const N_TEST: usize = 1_000;
const FLIP_RATE: f64 = 0.2;
const K: usize = 5;
const BATCH: usize = 3;
const ROUNDS: usize = 100;
/// The first-batch check repairs more rows than one benchmark batch, so a
/// wrong pick shows in the test accuracy.
const CHECK_BATCH: usize = 20;

pub struct Clean {
    dirty: Table,
    clean: Table,
    valid: Table,
    test: Table,
    steps: Vec<CleaningStep>,
}

fn without_text(table: &Table) -> Result<Table, BoxError> {
    let mut blank = table.clone();
    for row in 0..blank.num_rows() {
        blank.set(row, "letter_text", Value::from(""))?;
    }
    Ok(blank)
}

impl Workload for Clean {
    /// Which rows get flipped sets one dataset's session time apart from
    /// the next by up to 0.15 of the median.
    const DATASETS: u64 = 4;

    fn setup(seed: u64) -> Result<Self, BoxError> {
        let (clean, valid, test) = in_span("bench.datagen.generate", || -> Result<_, BoxError> {
            let s = HiringScenario::generate(&HiringConfig {
                n_train: N_TRAIN,
                n_valid: N_VALID,
                n_test: N_TEST,
                seed,
                ..Default::default()
            });
            Ok((
                without_text(&s.train)?,
                without_text(&s.valid)?,
                without_text(&s.test)?,
            ))
        })?;
        let (dirty, _) = in_span("bench.datagen.inject", || {
            flip_labels(&clean, "sentiment", FLIP_RATE, seed)
        })?;
        Ok(Clean {
            dirty,
            clean,
            valid,
            test,
            steps: Vec::new(),
        })
    }

    fn pass(&mut self, _index: u64, out: &mut PassOut) -> Result<(), BoxError> {
        let repairs_before = nde_trace::counter_value("neighbor_cache.repair");
        let start = Instant::now();
        let steps = iterative_cleaning_cached(
            &self.dirty,
            &self.clean,
            &self.valid,
            &self.test,
            BATCH,
            BATCH * ROUNDS,
            K,
        )?;
        let elapsed = start.elapsed().as_secs_f64();
        let repairs = nde_trace::counter_value("neighbor_cache.repair") - repairs_before;
        let (first, last) = match (steps.first(), steps.last()) {
            (Some(first), Some(last)) => (first, last),
            _ => return Err("cleaning returned no steps".into()),
        };
        out.rows = (N_TRAIN * (steps.len() - 1)) as f64;
        out.work_s = elapsed;
        out.latencies_ms.push(elapsed * 1e3);
        out.quality = last.accuracy;
        out.figures
            .push(("cleaning.accuracy_gain", last.accuracy - first.accuracy));
        out.figures.push((
            "neighbor_cache.repairs_per_row",
            repairs as f64 / last.cleaned.max(1) as f64,
        ));
        self.steps = steps;
        Ok(())
    }

    fn check(&self, checks: &mut Checks) -> Result<(), BoxError> {
        checks.expect(
            &format!("clean: the session ran {ROUNDS} rounds"),
            self.steps.len() == ROUNDS + 1,
        );
        let (first, last) = (self.steps.first(), self.steps.last());
        checks.expect(
            "clean: cleaning raised test accuracy",
            matches!((first, last), (Some(a), Some(b)) if b.accuracy > a.accuracy),
        );

        // With a budget of one batch the warm loop must repair exactly the
        // bottom of the score-once KNN-Shapley ranking: replay those repairs
        // under the same fixed encoder, evaluated with brute-force k-NN.
        let one = iterative_cleaning_cached(
            &self.dirty,
            &self.clean,
            &self.valid,
            &self.test,
            CHECK_BATCH,
            CHECK_BATCH,
            K,
        )?;
        let (_, train, valid) = encode_splits(&self.dirty, &self.valid)?;
        let mut working = self.dirty.clone();
        for row in rank_ascending(&knn_shapley(&train, &valid, K))
            .into_iter()
            .take(CHECK_BATCH)
        {
            repair_row(&mut working, &self.clean, row)?;
        }
        let encoder = standard_encoder().fit(&self.dirty)?;
        let model = KnnClassifier::new(K).fit(&encoder.transform(&working)?)?;
        let test = encoder.transform(&self.test)?;
        let replay = accuracy(&test.y, &model.predict_batch(&test.x));
        checks.expect(
            "clean: the first batch matches the score-once KNN-Shapley ranking",
            one.last()
                .is_some_and(|s| s.cleaned == CHECK_BATCH && (s.accuracy - replay).abs() < 1e-12),
        );
        Ok(())
    }
}
