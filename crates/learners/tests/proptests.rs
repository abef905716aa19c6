//! Property-based tests for the ML substrate: metric identities, model
//! total-ness on arbitrary data, and preprocessing invariants.

use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::{sq_dist, Matrix};
use nde_learners::metrics::{accuracy, f1_score, log_loss, macro_f1, precision, recall, roc_auc};
use nde_learners::models::kdtree::KdTree;
use nde_learners::models::knn::KnnClassifier;
use nde_learners::models::logistic::softmax;
use nde_learners::models::naive_bayes::GaussianNb;
use nde_learners::models::tree::DecisionTree;
use nde_learners::preprocessing::scaler::{MinMaxScaler, StandardScaler};
use nde_learners::traits::Learner;
use nde_parallel::neighbor_order::k_nearest;
use proptest::prelude::*;

fn arb_labels(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..3, n..=n)
}

fn arb_dataset() -> impl Strategy<Value = ClassDataset> {
    (2usize..40, 1usize..4).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(prop::collection::vec(-100.0f64..100.0, d..=d), n..=n),
            prop::collection::vec(0usize..3, n..=n),
        )
            .prop_map(|(rows, y)| {
                ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 3).unwrap()
            })
    })
}

/// One of the values a query coordinate or training cell may take beyond
/// the finite grid: `None` keeps the finite value.
fn arb_non_finite() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(f64::NAN)),
        Just(Some(f64::INFINITY)),
        Just(Some(f64::NEG_INFINITY)),
    ]
}

/// A NaN of either sign: `f64::total_cmp`, and so the neighbor order,
/// ranks a negative NaN distance first and a positive one last.
fn arb_nan() -> impl Strategy<Value = f64> {
    prop_oneof![Just(f64::NAN), Just(-f64::NAN)]
}

/// Overwrites `cells[position % len]` with `value`, if there is one.
fn plant(cells: &mut [f64], value: Option<f64>, position: usize) {
    if let Some(v) = value {
        let len = cells.len();
        cells[position % len] = v;
    }
}

/// `(distance bits, index)`: compares NaN distances bit for bit.
fn bits(neighbors: &[(f64, usize)]) -> Vec<(u64, usize)> {
    neighbors.iter().map(|&(d, i)| (d.to_bits(), i)).collect()
}

/// Asserts that a k-d tree with `leaf_size` and a fitted k-NN model (its
/// own default tree) both equal the brute-force `k_nearest` oracle bit
/// for bit on every query: the same `(distance, index)` list, and the same
/// vote.
fn assert_matches_oracle(rows: &[Vec<f64>], leaf_size: usize, queries: &[Vec<f64>], k: usize) {
    let x = Matrix::from_rows(rows).unwrap();
    let y: Vec<usize> = (0..rows.len()).map(|i| i % 3).collect();
    let tree = KdTree::with_leaf_size(&x, leaf_size);
    let model = KnnClassifier::new(k)
        .fit(&ClassDataset::new(x.clone(), y.clone(), 3).unwrap())
        .unwrap();
    for q in queries {
        let oracle = k_nearest(x.nrows(), k, |i| sq_dist(x.row(i), q));
        prop_assert_eq!(bits(&tree.nearest_with_distances(q, k)), bits(&oracle));
        let mut votes = vec![0.0; 3];
        for &(_, i) in &oracle {
            votes[y[i]] += 1.0 / oracle.len() as f64;
        }
        prop_assert_eq!(model.predict_proba(q), votes);
    }
}

/// A one-hot-plus-constant feature row — the exact layout the table
/// encoder produces and the layout that used to degenerate the tree.
fn encoded_row(category: usize, informative: i32) -> Vec<f64> {
    let mut row = vec![1.0]; // constant column
    let mut onehot = vec![0.0; 4];
    onehot[category] = 1.0;
    row.extend(onehot);
    row.push(f64::from(informative));
    row
}

proptest! {
    /// k-d tree equals brute force on one-hot + constant-column layouts
    /// with duplicate rows (informative values snapped to a small grid, so
    /// ties and duplicates are common). Queries may carry a NaN or ±inf
    /// coordinate and one training cell may be a NaN of either sign.
    #[test]
    fn kdtree_matches_brute_force_on_encoded_layouts(
        cats in prop::collection::vec(0usize..4, 2..50),
        informative in prop::collection::vec(0i32..6, 2..50),
        queries in prop::collection::vec((0usize..4, 0i32..6, arb_non_finite(), 0usize..6), 1..8),
        nan_cell in prop::option::of((arb_nan(), 0usize..50, 0usize..6)),
        k in 1usize..8,
    ) {
        let n = cats.len().min(informative.len());
        let mut rows: Vec<Vec<f64>> = (0..n).map(|i| encoded_row(cats[i], informative[i])).collect();
        if let Some((nan, r, c)) = nan_cell {
            plant(&mut rows[r % n], Some(nan), c);
        }
        let queries: Vec<Vec<f64>> = queries
            .iter()
            .map(|&(qc, qv, special, at)| {
                let mut q = encoded_row(qc, qv);
                plant(&mut q, special, at);
                q
            })
            .collect();
        assert_matches_oracle(&rows, 4, &queries, k);
    }

    /// k-d tree equals brute force in high dimension, where the pruning
    /// bound rarely fires and duplicate coordinates are everywhere, with
    /// the same non-finite query coordinates and training cell.
    #[test]
    fn kdtree_matches_brute_force_in_high_dimension(
        rows in prop::collection::vec(prop::collection::vec(0i32..3, 12..=12), 1..40),
        query in prop::collection::vec(0i32..3, 12..=12),
        special in (arb_non_finite(), 0usize..12),
        nan_cell in prop::option::of((arb_nan(), 0usize..40, 0usize..12)),
        k in 1usize..10,
    ) {
        let mut rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| f64::from(v)).collect())
            .collect();
        if let Some((nan, r, c)) = nan_cell {
            let n = rows.len();
            plant(&mut rows[r % n], Some(nan), c);
        }
        let mut q: Vec<f64> = query.iter().map(|&v| f64::from(v)).collect();
        plant(&mut q, special.0, special.1);
        assert_matches_oracle(&rows, 2, &[q], k);
    }

    /// The widest-spread-axis fix actually splits one-hot data: whenever
    /// some axis discriminates and the partition exceeds the leaf size,
    /// the tree must not collapse into a single leaf.
    #[test]
    fn kdtree_splits_whenever_an_axis_discriminates(
        cats in prop::collection::vec(0usize..4, 16..64),
    ) {
        let rows: Vec<Vec<f64>> = cats.iter().map(|&c| encoded_row(c, 0)).collect();
        let tree = KdTree::with_leaf_size(&Matrix::from_rows(&rows).unwrap(), 4);
        let distinct = cats.iter().collect::<std::collections::HashSet<_>>().len();
        if distinct > 1 {
            prop_assert!(tree.depth() >= 1, "tree degenerated to one leaf");
            prop_assert!(tree.n_leaves() >= 2);
        } else {
            // All rows identical: a single leaf is the correct shape.
            prop_assert_eq!(tree.n_leaves(), 1);
        }
    }

    /// Accuracy is symmetric-bounded and perfect on self-comparison.
    #[test]
    fn accuracy_bounds(y in arb_labels(25)) {
        prop_assert_eq!(accuracy(&y, &y), 1.0);
        let flipped: Vec<usize> = y.iter().map(|&l| (l + 1) % 3).collect();
        prop_assert_eq!(accuracy(&y, &flipped), 0.0);
    }

    /// Precision/recall/F1 are in [0,1] and F1 is between min and max of
    /// precision and recall (harmonic-mean property).
    #[test]
    fn f1_between_precision_and_recall(
        y_true in arb_labels(30),
        y_pred in arb_labels(30),
    ) {
        for class in 0..3 {
            let p = precision(&y_true, &y_pred, class);
            let r = recall(&y_true, &y_pred, class);
            let f = f1_score(&y_true, &y_pred, class);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(f <= p.max(r) + 1e-12);
            if p > 0.0 && r > 0.0 {
                prop_assert!(f >= p.min(r) - 1e-12);
            }
        }
        let mf = macro_f1(&y_true, &y_pred, 3);
        prop_assert!((0.0..=1.0).contains(&mf));
    }

    /// AUC of scores vs their negation mirror around 0.5.
    #[test]
    fn auc_mirror(scores in prop::collection::vec(0.0f64..1.0, 10..30)) {
        let y: Vec<usize> = scores.iter().enumerate().map(|(i, _)| i % 2).collect();
        let auc = roc_auc(&y, &scores);
        let neg: Vec<f64> = scores.iter().map(|s| 1.0 - s).collect();
        let auc_neg = roc_auc(&y, &neg);
        prop_assert!((auc + auc_neg - 1.0).abs() < 1e-9);
    }

    /// Log loss is minimized by the one-hot distribution of the true label.
    #[test]
    fn log_loss_favors_truth(label in 0usize..3, p1 in 0.01f64..0.98) {
        let mut probs = vec![(1.0 - p1) / 2.0; 3];
        probs[label] = p1;
        let confident = {
            let mut v = vec![0.005; 3];
            v[label] = 0.99;
            v
        };
        let ll_confident = log_loss(&[label], &[confident]);
        let ll_spread = log_loss(&[label], &[probs]);
        prop_assert!(ll_confident <= ll_spread + 1e-12);
    }

    /// Softmax outputs a probability vector for arbitrary logits.
    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-500.0f64..500.0, 1..6)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v) && v.is_finite()));
    }

    /// Every learner is total on arbitrary (possibly degenerate) datasets:
    /// fit never errors and predictions land in the class range.
    #[test]
    fn learners_are_total(data in arb_dataset()) {
        let learners: Vec<Box<dyn Learner>> = vec![
            Box::new(KnnClassifier::new(3)),
            Box::new(GaussianNb::default()),
            Box::new(DecisionTree::with_depth(4)),
        ];
        for learner in &learners {
            let model = learner.fit(&data).unwrap();
            for i in 0..data.len().min(5) {
                let pred = model.predict(data.x.row(i));
                prop_assert!(pred < 3);
                let probs = model.predict_proba(data.x.row(i));
                prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            }
        }
    }

    /// 1-NN memorizes any training set with distinct points.
    #[test]
    fn one_nn_memorizes(values in prop::collection::hash_set(-1000i32..1000, 2..25)) {
        let values: Vec<i32> = values.into_iter().collect();
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![f64::from(v)]).collect();
        let y: Vec<usize> = values.iter().map(|&v| usize::from(v > 0)).collect();
        let data = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y.clone(), 2).unwrap();
        let model = KnnClassifier::new(1).fit(&data).unwrap();
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(model.predict(row), y[i]);
        }
    }

    /// StandardScaler then inverse check: scaled columns have ~zero mean;
    /// MinMax maps into [0,1].
    #[test]
    fn scalers_normalize(rows in prop::collection::vec(
        prop::collection::vec(-50.0f64..50.0, 2..=2), 3..20)
    ) {
        let x = Matrix::from_rows(&rows).unwrap();
        let (_, scaled) = StandardScaler::fit_transform(&x).unwrap();
        for j in 0..2 {
            let mean: f64 =
                (0..scaled.nrows()).map(|i| scaled.get(i, j)).sum::<f64>() / scaled.nrows() as f64;
            prop_assert!(mean.abs() < 1e-8, "column {j} mean {mean}");
        }
        let mm = MinMaxScaler::fit(&x).unwrap().transform(&x).unwrap();
        for i in 0..mm.nrows() {
            for j in 0..2 {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&mm.get(i, j)));
            }
        }
    }

    /// Binary learners (logistic, SVM) are total on arbitrary binary data,
    /// including degenerate single-class and tiny subsets.
    #[test]
    fn binary_learners_are_total(
        rows in prop::collection::vec(prop::collection::vec(-50.0f64..50.0, 2..=2), 1..20),
        labels in prop::collection::vec(0usize..2, 1..20),
    ) {
        use nde_learners::{LinearSvm, LogisticRegression};
        let n = rows.len().min(labels.len());
        let data = ClassDataset::new(
            Matrix::from_rows(&rows[..n]).unwrap(),
            labels[..n].to_vec(),
            2,
        ).unwrap();
        let learners: Vec<Box<dyn Learner>> = vec![
            Box::new(LogisticRegression { epochs: 20, ..Default::default() }),
            Box::new(LinearSvm { epochs: 10, ..Default::default() }),
        ];
        for learner in &learners {
            let model = learner.fit(&data).unwrap();
            let pred = model.predict(data.x.row(0));
            prop_assert!(pred < 2);
            let probs = model.predict_proba(data.x.row(0));
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            prop_assert!(probs.iter().all(|p| p.is_finite()));
        }
    }

    /// Bagging vote counts always sum to the ensemble size, and the
    /// majority label matches predict().
    #[test]
    fn bagging_votes_are_consistent(
        seed in any::<u64>(),
        n_estimators in 1usize..9,
        query in -10.0f64..10.0,
    ) {
        use nde_learners::models::bagging::BaggingClassifier;
        use nde_learners::Model as _;
        use std::sync::Arc;
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let data = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap();
        let bag = BaggingClassifier::bootstrap(
            Arc::new(KnnClassifier::new(1)),
            n_estimators,
            seed,
        );
        let ensemble = bag.fit_ensemble(&data).unwrap();
        let votes = ensemble.votes(&[query]);
        prop_assert_eq!(votes.iter().sum::<usize>(), n_estimators);
        let majority = if votes[1] > votes[0] { 1 } else { 0 };
        prop_assert_eq!(ensemble.predict(&[query]), majority);
    }

    /// Matrix solve is an inverse of matvec for well-conditioned systems.
    #[test]
    fn solve_inverts_matvec(
        diag in prop::collection::vec(1.0f64..10.0, 2..5),
        x in prop::collection::vec(-10.0f64..10.0, 2..5),
    ) {
        let n = diag.len().min(x.len());
        let mut a = Matrix::zeros(n, n);
        for (i, &dv) in diag.iter().enumerate().take(n) {
            a.set(i, i, dv);
            if i + 1 < n {
                a.set(i, i + 1, 0.5);
            }
        }
        let xs = &x[..n];
        let b = a.matvec(xs).unwrap();
        let solved = a.solve(&b).unwrap();
        for (s, e) in solved.iter().zip(xs) {
            prop_assert!((s - e).abs() < 1e-6);
        }
    }
}
