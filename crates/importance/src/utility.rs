//! Utility functions `v(S)`: the value of training on a subset `S` of the
//! training data, measured on a validation set. Every cooperative-game
//! method in this crate (LOO, Shapley, Banzhaf, Beta Shapley, group Shapley)
//! is defined over such a utility.

use nde_learners::dataset::ClassDataset;
use nde_learners::metrics::{accuracy, macro_f1};
use nde_learners::traits::Learner;

/// Which validation metric defines the utility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilityMetric {
    /// Validation accuracy.
    Accuracy,
    /// Macro-averaged F1 on the validation set.
    MacroF1,
}

/// A set function over training-example indices.
///
/// Implementations must be deterministic (same subset → same value) and
/// `Sync` so Monte Carlo estimators may evaluate permutations in parallel.
pub trait Utility: Sync {
    /// Number of players (training examples).
    fn n(&self) -> usize;

    /// The value of the coalition `subset` (indices into the training set;
    /// callers pass each index at most once).
    fn eval(&self, subset: &[usize]) -> f64;
}

/// The standard utility of data valuation: retrain `learner` on the subset,
/// score on the validation set.
pub struct ModelUtility<'a> {
    learner: &'a dyn Learner,
    train: &'a ClassDataset,
    valid: &'a ClassDataset,
    metric: UtilityMetric,
}

impl<'a> ModelUtility<'a> {
    /// Creates a utility from a learner, training set and validation set.
    pub fn new(
        learner: &'a dyn Learner,
        train: &'a ClassDataset,
        valid: &'a ClassDataset,
        metric: UtilityMetric,
    ) -> Self {
        ModelUtility {
            learner,
            train,
            valid,
            metric,
        }
    }

    /// The underlying training set.
    pub fn train(&self) -> &ClassDataset {
        self.train
    }

    /// The underlying validation set.
    pub fn valid(&self) -> &ClassDataset {
        self.valid
    }
}

impl Utility for ModelUtility<'_> {
    fn n(&self) -> usize {
        self.train.len()
    }

    fn eval(&self, subset: &[usize]) -> f64 {
        let data = self.train.subset(subset);
        let model = match self.learner.fit(&data) {
            Ok(m) => m,
            // Degenerate training failures score as worthless coalitions.
            Err(_) => return 0.0,
        };
        let preds = model.predict_batch(&self.valid.x);
        match self.metric {
            UtilityMetric::Accuracy => accuracy(&self.valid.y, &preds),
            UtilityMetric::MacroF1 => macro_f1(&self.valid.y, &preds, self.valid.n_classes),
        }
    }
}

/// A memoizing wrapper around any [`Utility`].
///
/// Coalition values are pure functions of the subset, so repeated
/// evaluations — frequent in group Shapley (few groups, many permutations)
/// and in exact enumeration over composite games — can be served from a
/// cache. Subsets are normalized (sorted) before lookup, and the cache is
/// behind a mutex so the wrapper stays `Sync` for the multi-threaded
/// estimators.
///
/// The lookup and the insert take the lock separately, so two workers can
/// both miss on one coalition and both evaluate it. Only the insert that
/// finds the slot vacant counts as a miss; the other counts as a hit and
/// returns the stored value. `misses` is therefore the number of distinct
/// coalitions evaluated.
pub struct CachedUtility<'a> {
    inner: &'a dyn Utility,
    cache: std::sync::Mutex<std::collections::HashMap<Vec<usize>, f64>>,
    hits: std::sync::atomic::AtomicUsize,
    misses: std::sync::atomic::AtomicUsize,
}

impl<'a> CachedUtility<'a> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: &'a dyn Utility) -> Self {
        CachedUtility {
            inner,
            cache: std::sync::Mutex::new(std::collections::HashMap::new()),
            hits: std::sync::atomic::AtomicUsize::new(0),
            misses: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// `(cache hits, cache misses)` so far; misses count distinct
    /// coalitions.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

impl Utility for CachedUtility<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn eval(&self, subset: &[usize]) -> f64 {
        let mut key = subset.to_vec();
        key.sort_unstable();
        if let Some(&v) = self.cache.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return v;
        }
        let v = self.inner.eval(&key);
        match self.cache.lock().expect("cache poisoned").entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                *slot.insert(v)
            }
            std::collections::hash_map::Entry::Occupied(stored) => {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                *stored.get()
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Utility;

    /// An additive game `v(S) = Σ_{i∈S} w_i`, whose Shapley, Banzhaf and
    /// Beta-Shapley values all equal `w_i` exactly — the canonical oracle
    /// for testing estimators.
    pub struct AdditiveUtility {
        pub weights: Vec<f64>,
    }

    impl Utility for AdditiveUtility {
        fn n(&self) -> usize {
            self.weights.len()
        }

        fn eval(&self, subset: &[usize]) -> f64 {
            subset.iter().map(|&i| self.weights[i]).sum()
        }
    }

    /// A "majority" game: v(S) = 1 if |S| > n/2 — non-additive, symmetric,
    /// so all players have equal Shapley value 1/n.
    pub struct MajorityUtility {
        pub n: usize,
    }

    impl Utility for MajorityUtility {
        fn n(&self) -> usize {
            self.n
        }

        fn eval(&self, subset: &[usize]) -> f64 {
            f64::from(u8::from(subset.len() * 2 > self.n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_learners::matrix::Matrix;
    use nde_learners::models::knn::KnnClassifier;

    fn tiny() -> (ClassDataset, ClassDataset) {
        let train = ClassDataset::new(
            Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]]).unwrap(),
            vec![0, 0, 1, 1],
            2,
        )
        .unwrap();
        let valid = ClassDataset::new(
            Matrix::from_rows(&[vec![0.05], vec![5.05]]).unwrap(),
            vec![0, 1],
            2,
        )
        .unwrap();
        (train, valid)
    }

    #[test]
    fn full_set_achieves_high_utility() {
        let (train, valid) = tiny();
        let learner = KnnClassifier::new(1);
        let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
        assert_eq!(util.n(), 4);
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(util.eval(&all), 1.0);
    }

    #[test]
    fn empty_set_scores_constant_model() {
        let (train, valid) = tiny();
        let learner = KnnClassifier::new(1);
        let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
        // Constant class-0 model gets the class-0 validation point right.
        assert_eq!(util.eval(&[]), 0.5);
    }

    #[test]
    fn one_sided_subset_hurts() {
        let (train, valid) = tiny();
        let learner = KnnClassifier::new(1);
        let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
        assert_eq!(util.eval(&[0, 1]), 0.5);
    }

    #[test]
    fn cached_utility_is_transparent_and_counts() {
        use super::test_util::AdditiveUtility;
        let base = AdditiveUtility {
            weights: vec![1.0, 2.0, 3.0],
        };
        let cached = CachedUtility::new(&base);
        assert_eq!(cached.n(), 3);
        assert_eq!(cached.eval(&[0, 2]), 4.0);
        // Order-insensitive cache key: [2, 0] hits the [0, 2] entry.
        assert_eq!(cached.eval(&[2, 0]), 4.0);
        assert_eq!(cached.eval(&[1]), 2.0);
        let (hits, misses) = cached.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    #[test]
    fn concurrent_misses_on_one_coalition_count_once() {
        use std::sync::Barrier;

        /// Holds every evaluation until both workers are inside one, so
        /// both miss on each new coalition before either stores it.
        struct Lockstep {
            barrier: Barrier,
        }

        impl Utility for Lockstep {
            fn n(&self) -> usize {
                3
            }

            fn eval(&self, subset: &[usize]) -> f64 {
                self.barrier.wait();
                subset.iter().map(|&i| i as f64).sum()
            }
        }

        let base = Lockstep {
            barrier: Barrier::new(2),
        };
        let cached = CachedUtility::new(&base);
        // Three distinct coalitions once sorted; both workers walk the
        // list in the same order.
        let subsets: [&[usize]; 5] = [&[0, 1], &[1, 0], &[2], &[0, 1, 2], &[2]];
        let values: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| subsets.map(|s| cached.eval(s)).to_vec()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(values[0], vec![1.0, 1.0, 2.0, 3.0, 2.0]);
        assert_eq!(values[0], values[1]);
        let (hits, misses) = cached.stats();
        assert_eq!(misses, 3);
        assert_eq!(hits + misses, 2 * subsets.len());
    }

    #[test]
    fn cached_group_shapley_reuses_coalitions() {
        use super::test_util::AdditiveUtility;
        use crate::group::group_shapley_mc;
        use crate::semivalue::McConfig;
        let base = AdditiveUtility {
            weights: vec![1.0, 2.0, 3.0, 4.0],
        };
        let cached = CachedUtility::new(&base);
        let groups = vec![vec![0, 1], vec![2], vec![3]];
        let phi = group_shapley_mc(&cached, &groups, &McConfig::new(200, 1));
        // 3 groups → at most 2³ distinct coalitions; everything else is a hit.
        let (hits, misses) = cached.stats();
        assert!(misses <= 8, "misses {misses}");
        assert!(hits > misses);
        assert!((phi[0] - 3.0).abs() < 0.2, "{phi:?}");
    }

    #[test]
    fn macro_f1_metric() {
        let (train, valid) = tiny();
        let learner = KnnClassifier::new(1);
        let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::MacroF1);
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(util.eval(&all), 1.0);
    }
}
