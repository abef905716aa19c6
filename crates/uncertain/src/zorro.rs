//! Zorro-style symbolic learning (Zhu, Feng, Glavic & Salimi, "Learning
//! from Uncertain Data: From Possible Worlds to Possible Models", NeurIPS
//! 2024): train a linear model by gradient descent where every missing
//! feature cell is a *symbolic* value ranging over its bounds. The trained
//! weights are zonotopes that simultaneously over-approximate the weights
//! of **every possible world**, yielding sound prediction ranges and a
//! worst-case-loss bound (the quantity plotted in the paper's Figure 4).

use crate::affine::{AffineForm, SymbolPool};
use crate::incomplete::IncompleteMatrix;
use crate::interval::Interval;
use nde_learners::dataset::RegDataset;
use nde_learners::Matrix;

/// The abstract domain symbolic training runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Plain interval arithmetic: cheap, but forgets correlations (the
    /// same missing cell on both sides of a product decorrelates).
    Interval,
    /// Affine forms / zonotopes: tracks correlations through training —
    /// the domain Zorro actually uses.
    Zonotope,
}

/// Hyperparameters of symbolic gradient descent. These must match the
/// concrete training run being over-approximated.
#[derive(Debug, Clone)]
pub struct ZorroConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 regularization on weights (not the intercept).
    pub l2: f64,
    /// Zonotope mode: maximum noise symbols kept per weight between epochs
    /// (excess folded soundly into a fresh symbol).
    pub max_symbols: usize,
    /// Abstract domain.
    pub domain: Domain,
}

impl Default for ZorroConfig {
    fn default() -> Self {
        ZorroConfig {
            learning_rate: 0.05,
            epochs: 40,
            l2: 0.01,
            max_symbols: 120,
            domain: Domain::Zonotope,
        }
    }
}

/// A symbolically trained linear model: every parameter is an affine form
/// covering its value in all possible worlds.
#[derive(Debug, Clone)]
pub struct SymbolicLinear {
    /// Weight forms, one per feature.
    pub weights: Vec<AffineForm>,
    /// Intercept form.
    pub intercept: AffineForm,
}

impl SymbolicLinear {
    /// The guaranteed prediction range for a (fully known) feature vector.
    pub fn prediction_range(&self, x: &[f64]) -> Interval {
        let mut acc = self.intercept.clone();
        for (w, &xi) in self.weights.iter().zip(x) {
            acc.add_scaled(w, xi);
        }
        acc.to_interval()
    }

    /// Sound upper bound on the squared error at one labelled test point.
    pub fn worst_case_squared_error(&self, x: &[f64], y: f64) -> f64 {
        let residual = self.prediction_range(x) - Interval::point(y);
        residual.square().hi
    }

    /// Sound upper bound on the MSE over a test set — the "maximum
    /// worst-case loss" of the paper's Figure 4.
    pub fn worst_case_mse(&self, test: &RegDataset) -> f64 {
        if test.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..test.len())
            .map(|i| self.worst_case_squared_error(test.x.row(i), test.y[i]))
            .sum();
        total / test.len() as f64
    }

    /// The guaranteed range of `σ(w·x + b)` — prediction ranges on the
    /// probability scale for classification-style use. Sound because the
    /// sigmoid is monotone, so the image of an interval is the interval of
    /// the images.
    pub fn sigmoid_prediction_range(&self, x: &[f64]) -> Interval {
        let raw = self.prediction_range(x);
        let sigmoid = |z: f64| 1.0 / (1.0 + (-z).exp());
        Interval::new(sigmoid(raw.lo), sigmoid(raw.hi))
    }

    /// Whether the thresholded classification `σ(w·x+b) ≥ 0.5` is the same
    /// in every possible world (`Some(label)`) or undetermined (`None`).
    pub fn certified_class(&self, x: &[f64]) -> Option<bool> {
        let range = self.sigmoid_prediction_range(x);
        if range.lo >= 0.5 {
            Some(true)
        } else if range.hi < 0.5 {
            Some(false)
        } else {
            None
        }
    }

    /// Width of the widest weight range (a precision diagnostic).
    pub fn max_weight_width(&self) -> f64 {
        self.weights
            .iter()
            .map(|w| w.to_interval().width())
            .fold(0.0, f64::max)
    }
}

/// Trains a linear model symbolically over the incomplete training matrix.
/// The result over-approximates, for **every** possible world `X*` of `x`,
/// the model produced by concrete full-batch gradient descent on `(X*, y)`
/// with the same hyperparameters (see [`train_concrete`]).
///
/// # Panics
///
/// If `y` does not hold exactly one label per row of `x`.
///
/// ```
/// use nde_learners::Matrix;
/// use nde_uncertain::incomplete::IncompleteMatrix;
/// use nde_uncertain::interval::Interval;
/// use nde_uncertain::zorro::{train_concrete, train_symbolic, ZorroConfig};
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
/// let y = vec![0.0, 1.0, 2.0, 3.0];
/// let mut incomplete = IncompleteMatrix::from_exact(&x);
/// incomplete.set_missing(1, 0, Interval::new(0.5, 1.5)); // cell is unknown
///
/// let cfg = ZorroConfig::default();
/// let model = train_symbolic(&incomplete, &y, &cfg);
/// // The symbolic weight range contains the concrete GD weight of any
/// // possible world — here, the midpoint world.
/// let (w, _) = train_concrete(&incomplete.midpoint_world(), &y, &cfg);
/// assert!(model.weights[0].to_interval().contains(w[0]));
/// ```
pub fn train_symbolic(x: &IncompleteMatrix, y: &[f64], cfg: &ZorroConfig) -> SymbolicLinear {
    let bounds: Vec<Interval> = y.iter().map(|&v| Interval::point(v)).collect();
    train_symbolic_uncertain_labels(x, &bounds, cfg)
}

/// The full Zorro setting of the paper's Figure 4 narrative: *both* missing
/// attributes and **uncertain labels**. Every label is an interval; a
/// possible world picks one value per missing cell and one label per
/// interval, and the symbolic weights cover the GD outcome of every such
/// world (each uncertain label gets its own shared noise symbol, so its
/// appearances across epochs stay correlated).
///
/// # Panics
///
/// If `y` does not hold exactly one label per row of `x`.
pub fn train_symbolic_uncertain_labels(
    x: &IncompleteMatrix,
    y: &[Interval],
    cfg: &ZorroConfig,
) -> SymbolicLinear {
    let (n, d) = (x.nrows(), x.ncols());
    assert_label_count(y.len(), n);
    let pool = SymbolPool::new();
    // One shared symbol per missing cell, fixed across all epochs.
    let cells: Vec<AffineForm> = (0..n)
        .flat_map(|i| (0..d).map(move |j| (i, j)))
        .map(|(i, j)| {
            let iv = x.get(i, j);
            // Both domains share the cell's symbol here; interval mode
            // decorrelates its uses in `mul_domain`.
            if iv.width() > 0.0 {
                AffineForm::from_interval(iv, &pool)
            } else {
                AffineForm::constant(iv.mid())
            }
        })
        .collect();
    let cell = |i: usize, j: usize| &cells[i * d + j];

    // One shared symbol per uncertain label as well.
    let y_forms: Vec<AffineForm> = y
        .iter()
        .map(|&iv| {
            if iv.width() > 0.0 {
                AffineForm::from_interval(iv, &pool)
            } else {
                AffineForm::constant(iv.mid())
            }
        })
        .collect();

    let mut w: Vec<AffineForm> = vec![AffineForm::constant(0.0); d];
    let mut b = AffineForm::constant(0.0);
    let inv_n = 1.0 / n.max(1) as f64;
    let lr = cfg.learning_rate;
    // Per-row buffers, reused for the whole run.
    let mut err = AffineForm::default();
    let mut product = AffineForm::default();

    for _ in 0..cfg.epochs {
        let mut grad_w: Vec<AffineForm> = vec![AffineForm::constant(0.0); d];
        let mut grad_b = AffineForm::constant(0.0);
        for (i, yi) in y_forms.iter().enumerate() {
            // err_i = w·x_i + b − y_i
            err.clone_from(&b);
            for (j, wj) in w.iter().enumerate() {
                mul_domain(wj, cell(i, j), &pool, cfg.domain, &mut product);
                err += &product;
            }
            err -= yi;
            for (j, gj) in grad_w.iter_mut().enumerate() {
                mul_domain(&err, cell(i, j), &pool, cfg.domain, &mut product);
                *gj += &product;
            }
            grad_b += &err;
        }
        for (wj, gj) in w.iter_mut().zip(&mut grad_w) {
            *wj *= 1.0 - lr * cfg.l2;
            *gj *= lr * inv_n;
            *wj -= gj;
            *wj = wj.condense(cfg.max_symbols, &pool);
        }
        grad_b *= lr * inv_n;
        b -= &grad_b;
        b = b.condense(cfg.max_symbols, &pool);
    }
    SymbolicLinear {
        weights: w,
        intercept: b,
    }
}

/// Domain-dependent multiplication into `out`: zonotopes use correlated
/// affine multiplication; interval mode collapses both operands to their
/// ranges (decorrelating them) and re-wraps — the baseline Zorro improves on.
fn mul_domain(
    a: &AffineForm,
    b: &AffineForm,
    pool: &SymbolPool,
    domain: Domain,
    out: &mut AffineForm,
) {
    match domain {
        Domain::Zonotope => AffineForm::mul_into(a, b, pool, out),
        Domain::Interval => {
            let product = a.to_interval() * b.to_interval();
            *out = AffineForm::from_interval(product, pool);
        }
    }
}

/// Both trainers divide the gradient by the row count, so a short label
/// vector would silently train on a prefix with the wrong step size.
fn assert_label_count(labels: usize, rows: usize) {
    assert_eq!(
        labels, rows,
        "one label per training row expected: {labels} labels for {rows} rows"
    );
}

/// The concrete reference: full-batch GD with the hyperparameters of `cfg`
/// on a fully known matrix. `train_symbolic` over-approximates this run
/// for every possible world.
///
/// # Panics
///
/// If `y` does not hold exactly one label per row of `x`.
pub fn train_concrete(x: &Matrix, y: &[f64], cfg: &ZorroConfig) -> (Vec<f64>, f64) {
    let (n, d) = (x.nrows(), x.ncols());
    assert_label_count(y.len(), n);
    let mut w = vec![0.0f64; d];
    let mut b = 0.0f64;
    let inv_n = 1.0 / n.max(1) as f64;
    for _ in 0..cfg.epochs {
        let mut grad_w = vec![0.0f64; d];
        let mut grad_b = 0.0f64;
        for (i, &yi) in y.iter().enumerate() {
            let xi = x.row(i);
            let err = w.iter().zip(xi).map(|(wj, &xj)| wj * xj).sum::<f64>() + b - yi;
            for (g, &xj) in grad_w.iter_mut().zip(xi) {
                *g += err * xj;
            }
            grad_b += err;
        }
        for j in 0..d {
            w[j] =
                w[j] * (1.0 - cfg.learning_rate * cfg.l2) - cfg.learning_rate * grad_w[j] * inv_n;
        }
        b -= cfg.learning_rate * grad_b * inv_n;
    }
    (w, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// y = 2x₀ − x₁ + 0.5 with a few missing cells.
    fn incomplete_problem() -> (IncompleteMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i % 5) as f64 * 0.2, ((i * 3) % 7) as f64 * 0.1])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 0.5).collect();
        let mut im = IncompleteMatrix::from_exact(&x);
        im.set_missing(1, 0, Interval::new(0.0, 1.0));
        im.set_missing(4, 1, Interval::new(0.0, 0.6));
        im.set_missing(9, 0, Interval::new(0.2, 0.8));
        (im, y)
    }

    fn cfg() -> ZorroConfig {
        ZorroConfig {
            epochs: 25,
            learning_rate: 0.1,
            ..Default::default()
        }
    }

    #[test]
    fn symbolic_training_is_sound_over_sampled_worlds() {
        let (im, y) = incomplete_problem();
        let model = train_symbolic(&im, &y, &cfg());
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let picks: Vec<f64> = (0..im.nrows() * im.ncols()).map(|_| rng.random()).collect();
            let ncols = im.ncols();
            let world = im.world(&|i, j| picks[i * ncols + j]);
            let (w, b) = train_concrete(&world, &y, &cfg());
            for (j, wj) in w.iter().enumerate() {
                let range = model.weights[j].to_interval();
                assert!(
                    range.contains(*wj),
                    "trial {trial}: w[{j}]={wj} outside {range}"
                );
            }
            assert!(model.intercept.to_interval().contains(b));
            // Predictions for a probe point are inside the range too.
            let probe = [0.4, 0.3];
            let concrete = w[0] * probe[0] + w[1] * probe[1] + b;
            assert!(model.prediction_range(&probe).contains(concrete));
        }
    }

    #[test]
    fn interval_domain_is_sound_but_looser() {
        let (im, y) = incomplete_problem();
        let zono = train_symbolic(&im, &y, &cfg());
        let intv = train_symbolic(
            &im,
            &y,
            &ZorroConfig {
                domain: Domain::Interval,
                ..cfg()
            },
        );
        // Both sound on the midpoint world…
        let (w, b) = train_concrete(&im.midpoint_world(), &y, &cfg());
        for (j, &wj) in w.iter().enumerate().take(2) {
            assert!(zono.weights[j].to_interval().contains(wj));
            assert!(intv.weights[j].to_interval().contains(wj));
        }
        assert!(zono.intercept.to_interval().contains(b));
        // …but the zonotope bounds are strictly tighter.
        assert!(
            zono.max_weight_width() < intv.max_weight_width(),
            "zonotope {} vs interval {}",
            zono.max_weight_width(),
            intv.max_weight_width()
        );
    }

    #[test]
    fn no_missing_values_yields_pointlike_model() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0]];
        let x = Matrix::from_rows(&rows).unwrap();
        let y = vec![1.0, 3.0, 5.0];
        let im = IncompleteMatrix::from_exact(&x);
        let model = train_symbolic(&im, &y, &cfg());
        assert!(model.max_weight_width() < 1e-9);
        let (w, _) = train_concrete(&x, &y, &cfg());
        assert!((model.weights[0].center - w[0]).abs() < 1e-9);
    }

    #[test]
    fn more_missingness_widens_worst_case_loss() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 10) as f64 * 0.1]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let test = RegDataset::new(x.clone(), y.clone()).unwrap();

        let mut losses = Vec::new();
        for n_missing in [0usize, 2, 4, 8] {
            let mut im = IncompleteMatrix::from_exact(&x);
            for i in 0..n_missing {
                im.set_missing(i, 0, Interval::new(0.0, 1.0));
            }
            let model = train_symbolic(&im, &y, &cfg());
            losses.push(model.worst_case_mse(&test));
        }
        for w in losses.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "losses not monotone: {losses:?}");
        }
        assert!(losses[3] > losses[0]);
    }

    #[test]
    fn worst_case_mse_bounds_concrete_mse() {
        let (im, y) = incomplete_problem();
        let model = train_symbolic(&im, &y, &cfg());
        let world = im.midpoint_world();
        let test = RegDataset::new(world.clone(), y.clone()).unwrap();
        let (w, b) = train_concrete(&world, &y, &cfg());
        let concrete_mse: f64 = (0..test.len())
            .map(|i| {
                let p: f64 = w
                    .iter()
                    .zip(test.x.row(i))
                    .map(|(wj, &xj)| wj * xj)
                    .sum::<f64>()
                    + b;
                (p - test.y[i]).powi(2)
            })
            .sum::<f64>()
            / test.len() as f64;
        assert!(model.worst_case_mse(&test) >= concrete_mse - 1e-9);
    }

    #[test]
    fn sigmoid_ranges_are_monotone_images() {
        let (im, y) = incomplete_problem();
        let model = train_symbolic(&im, &y, &cfg());
        let probe = [0.4, 0.3];
        let raw = model.prediction_range(&probe);
        let sig = model.sigmoid_prediction_range(&probe);
        assert!(sig.lo <= sig.hi);
        assert!(sig.lo >= 0.0 && sig.hi <= 1.0);
        // Concrete midpoint-world prediction maps inside.
        let (w, b) = train_concrete(&im.midpoint_world(), &y, &cfg());
        let z = w[0] * probe[0] + w[1] * probe[1] + b;
        assert!(raw.contains(z));
        assert!(sig.contains(1.0 / (1.0 + (-z).exp())));
        // Certification agrees with the range.
        match model.certified_class(&probe) {
            Some(true) => assert!(sig.lo >= 0.5),
            Some(false) => assert!(sig.hi < 0.5),
            None => assert!(sig.lo < 0.5 && sig.hi >= 0.5),
        }
    }

    #[test]
    fn uncertain_labels_are_sound_and_widen_bounds() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![(i % 5) as f64 * 0.2]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y_point: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
        let im = IncompleteMatrix::from_exact(&x);
        let exact = train_symbolic(&im, &y_point, &cfg());

        // Make three labels uncertain by ±0.3.
        let y_bounds: Vec<Interval> = y_point
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i < 3 {
                    Interval::new(v - 0.3, v + 0.3)
                } else {
                    Interval::point(v)
                }
            })
            .collect();
        let fuzzy = train_symbolic_uncertain_labels(&im, &y_bounds, &cfg());
        assert!(fuzzy.max_weight_width() > exact.max_weight_width());

        // Soundness: concrete GD on several label completions stays inside.
        for &t in &[0.0f64, 0.5, 1.0] {
            let labels: Vec<f64> = y_bounds.iter().map(|iv| iv.lo + t * iv.width()).collect();
            let (w, b) = train_concrete(&x, &labels, &cfg());
            assert!(
                fuzzy.weights[0].to_interval().contains(w[0]),
                "t={t}: {} outside {}",
                w[0],
                fuzzy.weights[0].to_interval()
            );
            assert!(fuzzy.intercept.to_interval().contains(b));
        }
    }

    #[test]
    fn combined_missing_features_and_uncertain_labels() {
        let (im, y) = incomplete_problem();
        let y_bounds: Vec<Interval> = y.iter().map(|&v| Interval::new(v - 0.1, v + 0.1)).collect();
        let model = train_symbolic_uncertain_labels(&im, &y_bounds, &cfg());
        // Strictly wider than the point-label model.
        let point_model = train_symbolic(&im, &y, &cfg());
        assert!(model.max_weight_width() > point_model.max_weight_width());
        // Sound on the midpoint world with midpoint labels.
        let (w, b) = train_concrete(&im.midpoint_world(), &y, &cfg());
        for (j, &wj) in w.iter().enumerate().take(2) {
            assert!(model.weights[j].to_interval().contains(wj));
        }
        assert!(model.intercept.to_interval().contains(b));
    }

    #[test]
    #[should_panic(expected = "one label per training row expected: 11 labels for 12 rows")]
    fn symbolic_training_rejects_short_labels() {
        let (im, y) = incomplete_problem();
        train_symbolic(&im, &y[..11], &cfg());
    }

    #[test]
    #[should_panic(expected = "one label per training row expected: 13 labels for 12 rows")]
    fn uncertain_label_training_rejects_long_labels() {
        let (im, _) = incomplete_problem();
        let y = vec![Interval::new(0.0, 1.0); 13];
        train_symbolic_uncertain_labels(&im, &y, &cfg());
    }

    #[test]
    #[should_panic(expected = "one label per training row expected: 11 labels for 12 rows")]
    fn concrete_training_rejects_short_labels() {
        let (im, y) = incomplete_problem();
        train_concrete(&im.midpoint_world(), &y[..11], &cfg());
    }

    #[test]
    fn condensation_keeps_training_bounded() {
        let (im, y) = incomplete_problem();
        let tight_cfg = ZorroConfig {
            max_symbols: 4,
            ..cfg()
        };
        let model = train_symbolic(&im, &y, &tight_cfg);
        for wj in &model.weights {
            assert!(wj.n_symbols() <= 5 + im.n_missing());
        }
        // Still sound on the midpoint world.
        let (w, _) = train_concrete(&im.midpoint_world(), &y, &tight_cfg);
        for (j, &wj) in w.iter().enumerate().take(2) {
            assert!(model.weights[j].to_interval().contains(wj));
        }
    }
}
