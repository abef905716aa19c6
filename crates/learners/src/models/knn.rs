//! K-nearest-neighbor classification.
//!
//! k-NN is the workhorse of the tutorial: besides being a model in its own
//! right, it is the *proxy model* that makes exact Shapley values tractable
//! (KNN-Shapley [Jia et al. 2019], Datascope [Karlaš et al. 2023]) and the
//! model for which certain predictions over incomplete data are computable
//! (CPClean [Karlaš et al. 2020]).

use crate::dataset::ClassDataset;
use crate::models::kdtree::KdTree;
use crate::traits::{ConstantModel, Learner, Model};
use crate::Result;

/// k-NN learner configuration.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    /// Number of neighbors.
    pub k: usize,
}

impl KnnClassifier {
    /// Creates a k-NN learner with `k` neighbors.
    pub fn new(k: usize) -> Self {
        KnnClassifier { k: k.max(1) }
    }
}

impl Default for KnnClassifier {
    fn default() -> Self {
        KnnClassifier::new(1)
    }
}

impl Learner for KnnClassifier {
    fn fit(&self, data: &ClassDataset) -> Result<Box<dyn Model>> {
        if data.is_empty() {
            return Ok(Box::new(ConstantModel::new(0, data.n_classes)));
        }
        Ok(Box::new(FittedKnn {
            index: KdTree::build(&data.x),
            y: data.y.clone(),
            n_classes: data.n_classes,
            k: self.k,
        }))
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

/// A fitted k-NN model: the training labels plus a k-d tree that owns the
/// training rows (§2.4's scalability concern: sublinear queries on
/// low-dimensional data, the same neighbors as a brute-force scan).
#[derive(Debug, Clone)]
pub struct FittedKnn {
    index: KdTree,
    y: Vec<usize>,
    n_classes: usize,
    k: usize,
}

impl FittedKnn {
    /// Returns the training-set indices of the `k` nearest neighbors of
    /// `query`, ordered by increasing distance (ties broken by index so the
    /// result is deterministic) — exactly the neighbors of a brute-force
    /// scan.
    pub fn neighbors(&self, query: &[f64]) -> Vec<usize> {
        self.index.nearest(query, self.k)
    }

    /// The effective number of neighbors.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Model for FittedKnn {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict(&self, x: &[f64]) -> usize {
        let probs = self.predict_proba(x);
        argmax(&probs)
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        vote(self.neighbors(x).into_iter(), &self.y, self.n_classes)
    }

    /// Fans the per-row queries out over threads. Chunk boundaries are
    /// fixed, each row's prediction is a pure function of that row, and
    /// chunks are reassembled in order — so the output is bit-identical to
    /// the sequential default for every `NDE_THREADS` setting.
    fn predict_batch(&self, x: &crate::Matrix) -> Vec<usize> {
        let mut span = nde_trace::span("learners.knn_predict_batch");
        span.field("rows", x.nrows());
        nde_parallel::par_map_chunks(x.nrows(), 8, |range| {
            range.map(|i| self.predict(x.row(i))).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The uniform k-NN vote: class probabilities in which each of the
/// `neighbors` (training-row indices, in neighbor order) adds `1 / len` to
/// its label's class; no neighbors at all vote for class 0. Fitted models
/// and cached neighbor lists both predict through it, so they agree bit
/// for bit.
pub fn vote(
    neighbors: impl ExactSizeIterator<Item = usize>,
    labels: &[usize],
    n_classes: usize,
) -> Vec<f64> {
    let mut probs = vec![0.0; n_classes];
    let n = neighbors.len();
    if n == 0 {
        probs[0] = 1.0;
        return probs;
    }
    let w = 1.0 / n as f64;
    for i in neighbors {
        probs[labels[i]] += w;
    }
    probs
}

/// Index of the maximum value (first on ties).
pub fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{sq_dist, Matrix};
    use nde_parallel::neighbor_order::k_nearest;

    fn blob_dataset() -> ClassDataset {
        // Two well-separated 1-D blobs.
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![5.0],
            vec![5.1],
            vec![5.2],
        ])
        .unwrap();
        ClassDataset::new(x, vec![0, 0, 0, 1, 1, 1], 2).unwrap()
    }

    #[test]
    fn knn_separates_blobs() {
        let model = KnnClassifier::new(3).fit(&blob_dataset()).unwrap();
        assert_eq!(model.predict(&[0.05]), 0);
        assert_eq!(model.predict(&[5.05]), 1);
    }

    #[test]
    fn proba_reflects_neighborhood_mix() {
        let model = KnnClassifier::new(6).fit(&blob_dataset()).unwrap();
        let p = model.predict_proba(&[2.5]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_dataset_uses_all_points() {
        let model = KnnClassifier::new(100).fit(&blob_dataset()).unwrap();
        let p = model.predict_proba(&[0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_training_set_gives_constant_model() {
        let data = blob_dataset().subset(&[]);
        let model = KnnClassifier::new(1).fit(&data).unwrap();
        assert_eq!(model.predict(&[1.0]), 0);
    }

    /// The fitted model itself, not the boxed trait object, so tests can
    /// reach `neighbors`.
    fn fit_concrete(data: &ClassDataset, k: usize) -> FittedKnn {
        FittedKnn {
            index: KdTree::build(&data.x),
            y: data.y.clone(),
            n_classes: data.n_classes,
            k,
        }
    }

    /// Brute-force oracle: the `k` nearest rows by a full scan in the
    /// workspace neighbor order.
    fn oracle_neighbors(x: &Matrix, query: &[f64], k: usize) -> Vec<usize> {
        k_nearest(x.nrows(), k, |i| sq_dist(x.row(i), query))
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    }

    #[test]
    fn neighbor_ties_break_by_index() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let data = ClassDataset::new(x, vec![0, 1, 0], 2).unwrap();
        assert_eq!(KnnClassifier::new(2).fit(&data).unwrap().predict(&[1.0]), 0);
        assert_eq!(fit_concrete(&data, 2).neighbors(&[1.0]), vec![0, 1]);
    }

    #[test]
    fn indexed_knn_matches_brute_force() {
        // n = 12 fits in one leaf; n = 200 makes a tree that prunes.
        for n in [12usize, 200] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![((i * 7) % 31) as f64, ((i * 13) % 17) as f64])
                .collect();
            let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let data = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap();
            for k in [1usize, 3, n, n + 5] {
                let model = fit_concrete(&data, k);
                for q in 0..30 {
                    let query = [q as f64, (q * 3 % 15) as f64];
                    let neigh = oracle_neighbors(&data.x, &query, k);
                    let mut probs = vec![0.0; 2];
                    for &i in &neigh {
                        probs[data.y[i]] += 1.0 / neigh.len() as f64;
                    }
                    assert_eq!(model.neighbors(&query), neigh, "n={n} k={k} q={q}");
                    assert_eq!(model.predict_proba(&query), probs, "n={n} k={k} q={q}");
                    assert_eq!(model.predict(&query), argmax(&probs));
                }
            }
        }
    }

    #[test]
    fn top_k_selection_equals_full_sort_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..30 {
            // Spans single-leaf trees (n <= 16) and split ones.
            let n = rng.random_range(1..60usize);
            let dims = rng.random_range(1..4usize);
            let mut rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.random_range(0.0..4.0)).collect())
                .collect();
            // Duplicate some rows so distance ties actually occur.
            for i in 1..n {
                if rng.random_bool(0.3) {
                    rows[i] = rows[i - 1].clone();
                }
            }
            let query: Vec<f64> = (0..dims).map(|_| rng.random_range(0.0..4.0)).collect();
            let data = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), vec![0; n], 1).unwrap();
            for k in [1usize, 3, n, n + 5] {
                assert_eq!(
                    fit_concrete(&data, k).neighbors(&query),
                    oracle_neighbors(&data.x, &query, k),
                    "trial={trial} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.2]), 1);
        assert_eq!(argmax(&[]), 0);
    }
}
