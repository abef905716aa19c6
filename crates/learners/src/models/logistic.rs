//! Multinomial logistic regression trained by full-batch gradient descent
//! with L2 regularization. Deterministic (no stochastic shuffling), which
//! the valuation methods require.

use crate::dataset::ClassDataset;
use crate::matrix::dot;
use crate::models::knn::argmax;
use crate::traits::{ConstantModel, Learner, Model};
use crate::Result;

/// Logistic-regression learner configuration.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Learning rate for gradient descent.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength (applied to weights, not intercepts).
    pub l2: f64,
}

impl LogisticRegression {
    /// Creates a learner with the given hyperparameters.
    pub fn new(learning_rate: f64, epochs: usize, l2: f64) -> Self {
        LogisticRegression {
            learning_rate,
            epochs,
            l2,
        }
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            learning_rate: 0.5,
            epochs: 200,
            l2: 1e-3,
        }
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut probs = vec![0.0; logits.len()];
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] into a caller-owned buffer of the same length, bit for bit.
pub fn softmax_into(logits: &[f64], probs: &mut [f64]) {
    debug_assert_eq!(logits.len(), probs.len());
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (p, &z) in probs.iter_mut().zip(logits) {
        *p = (z - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

impl Learner for LogisticRegression {
    fn fit(&self, data: &ClassDataset) -> Result<Box<dyn Model>> {
        if data.is_empty() {
            return Ok(Box::new(ConstantModel::new(0, data.n_classes)));
        }
        let counts = data.class_counts();
        if counts.iter().filter(|&&c| c > 0).count() < 2 {
            return Ok(Box::new(ConstantModel::new(
                data.majority_class().expect("non-empty"),
                data.n_classes,
            )));
        }

        let (n, d, c) = (data.len(), data.n_features(), data.n_classes);
        // weights: c x d, bias: c
        let mut w = vec![0.0f64; c * d];
        let mut b = vec![0.0f64; c];
        let inv_n = 1.0 / n as f64;

        let mut grad_w = vec![0.0f64; c * d];
        let mut grad_b = vec![0.0f64; c];
        for _ in 0..self.epochs {
            grad_w.iter_mut().for_each(|g| *g = 0.0);
            grad_b.iter_mut().for_each(|g| *g = 0.0);
            for i in 0..n {
                let xi = data.x.row(i);
                let logits: Vec<f64> = (0..c)
                    .map(|k| dot(&w[k * d..(k + 1) * d], xi) + b[k])
                    .collect();
                let probs = softmax(&logits);
                for k in 0..c {
                    let err = probs[k] - f64::from(u8::from(data.y[i] == k));
                    grad_b[k] += err;
                    let gw = &mut grad_w[k * d..(k + 1) * d];
                    for (g, &x) in gw.iter_mut().zip(xi) {
                        *g += err * x;
                    }
                }
            }
            for k in 0..c {
                b[k] -= self.learning_rate * grad_b[k] * inv_n;
                let gw = &grad_w[k * d..(k + 1) * d];
                let wk = &mut w[k * d..(k + 1) * d];
                for (wj, &gj) in wk.iter_mut().zip(gw) {
                    *wj -= self.learning_rate * (gj * inv_n + self.l2 * *wj);
                }
            }
        }

        Ok(Box::new(FittedLogistic {
            w,
            b,
            d,
            n_classes: c,
        }))
    }

    fn name(&self) -> &'static str {
        "logistic_regression"
    }
}

/// A fitted multinomial logistic model.
#[derive(Debug, Clone)]
pub struct FittedLogistic {
    w: Vec<f64>,
    b: Vec<f64>,
    d: usize,
    n_classes: usize,
}

impl FittedLogistic {
    /// The weight vector of class `k`.
    pub fn weights(&self, k: usize) -> &[f64] {
        &self.w[k * self.d..(k + 1) * self.d]
    }

    /// The intercept of class `k`.
    pub fn intercept(&self, k: usize) -> f64 {
        self.b[k]
    }

    /// Raw (pre-softmax) scores per class.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n_classes)
            .map(|k| dot(self.weights(k), x) + self.b[k])
            .collect()
    }
}

impl Model for FittedLogistic {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.logits(x))
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.logits(x))
    }
}

/// Convenience: accuracy of `model` on `data`.
pub fn accuracy_on(model: &dyn Model, data: &ClassDataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = (0..data.len())
        .filter(|&i| model.predict(data.x.row(i)) == data.y[i])
        .count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn xor_free_dataset() -> ClassDataset {
        // Linearly separable 2-D data.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.3],
            vec![2.0, 2.0],
            vec![2.2, 1.9],
            vec![1.9, 2.1],
        ])
        .unwrap();
        ClassDataset::new(x, vec![0, 0, 0, 1, 1, 1], 2).unwrap()
    }

    #[test]
    fn learns_linearly_separable_data() {
        let model = LogisticRegression::default()
            .fit(&xor_free_dataset())
            .unwrap();
        assert_eq!(accuracy_on(model.as_ref(), &xor_free_dataset()), 1.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = LogisticRegression::default()
            .fit(&xor_free_dataset())
            .unwrap();
        let p = model.predict_proba(&[1.0, 1.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn single_class_subset_falls_back_to_constant() {
        let data = xor_free_dataset().subset(&[0, 1, 2]);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert_eq!(model.predict(&[100.0, 100.0]), 0);
    }

    #[test]
    fn empty_subset_falls_back_to_constant() {
        let data = xor_free_dataset().subset(&[]);
        let model = LogisticRegression::default().fit(&data).unwrap();
        assert_eq!(model.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let a = LogisticRegression::default()
            .fit(&xor_free_dataset())
            .unwrap();
        let b = LogisticRegression::default()
            .fit(&xor_free_dataset())
            .unwrap();
        let p1 = a.predict_proba(&[0.7, 0.7]);
        let p2 = b.predict_proba(&[0.7, 0.7]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn multiclass_softmax() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 0.0], vec![0.0, 5.0]]).unwrap();
        let data = ClassDataset::new(x, vec![0, 1, 2], 3).unwrap();
        let model = LogisticRegression::new(0.5, 500, 0.0).fit(&data).unwrap();
        assert_eq!(model.predict(&[0.0, 0.0]), 0);
        assert_eq!(model.predict(&[5.0, 0.0]), 1);
        assert_eq!(model.predict(&[0.0, 5.0]), 2);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }
}
