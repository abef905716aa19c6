//! Area Under the Margin (Pleiss et al. 2020): rank training examples by
//! the average margin their assigned class enjoys over the strongest other
//! class *during* training. Mislabeled examples fight the gradient signal
//! of their (true) neighbors, so their assigned-class margin stays low or
//! negative — an uncertainty-based detector that needs no validation set.

use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::Matrix;
use nde_learners::models::logistic::softmax_into;

/// Configuration for the AUM training run.
#[derive(Debug, Clone)]
pub struct AumConfig {
    /// Learning rate of the internal softmax-regression fit.
    pub learning_rate: f64,
    /// Epochs; margins are recorded after every epoch.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for AumConfig {
    fn default() -> Self {
        AumConfig {
            learning_rate: 0.5,
            epochs: 60,
            l2: 1e-3,
        }
    }
}

/// AUM scores, one per training example. Directly follows the crate's
/// lower-is-more-suspect convention: mislabeled examples accumulate low or
/// negative margins.
///
/// The weights are fixed within an epoch, so each epoch first computes
/// every row's logits with the row-blocked [`Matrix::dot_rows`] kernel,
/// then walks the rows in order for margins, softmax and gradient, in
/// buffers reused across rows and epochs.
pub fn aum_scores(data: &ClassDataset, cfg: &AumConfig) -> Vec<f64> {
    let (n, d, c) = (data.len(), data.n_features(), data.n_classes);
    if n == 0 {
        return Vec::new();
    }
    let mut w = Matrix::zeros(c, d);
    let mut b = vec![0.0f64; c];
    let inv_n = 1.0 / n as f64;
    let mut margin_sum = vec![0.0f64; n];
    let mut grad_w = vec![0.0f64; c * d];
    let mut grad_b = vec![0.0f64; c];
    let mut all_logits = vec![0.0f64; n * c];
    let mut probs = vec![0.0f64; c];

    for _ in 0..cfg.epochs {
        grad_w.iter_mut().for_each(|g| *g = 0.0);
        grad_b.iter_mut().for_each(|g| *g = 0.0);
        data.x.dot_rows(&w, &mut all_logits);
        for (i, (ms, logits)) in margin_sum
            .iter_mut()
            .zip(all_logits.chunks_exact_mut(c))
            .enumerate()
        {
            let xi = data.x.row(i);
            for (z, &bk) in logits.iter_mut().zip(&b) {
                *z += bk;
            }
            // Margin of the assigned class over the best other class.
            let yi = data.y[i];
            let best_other = logits
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != yi)
                .map(|(_, &z)| z)
                .fold(f64::NEG_INFINITY, f64::max);
            *ms += logits[yi] - best_other;

            softmax_into(logits, &mut probs);
            for k in 0..c {
                let err = probs[k] - f64::from(u8::from(yi == k));
                grad_b[k] += err;
                for (g, &x) in grad_w[k * d..(k + 1) * d].iter_mut().zip(xi) {
                    *g += err * x;
                }
            }
        }
        for k in 0..c {
            b[k] -= cfg.learning_rate * grad_b[k] * inv_n;
            for (wj, &gj) in w.row_mut(k).iter_mut().zip(&grad_w[k * d..(k + 1) * d]) {
                *wj -= cfg.learning_rate * (gj * inv_n + cfg.l2 * *wj);
            }
        }
    }
    margin_sum
        .iter_mut()
        .for_each(|m| *m /= cfg.epochs.max(1) as f64);
    margin_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::rank_ascending;
    use nde_learners::matrix::Matrix;

    fn blobs_with_flips(flips: &[usize]) -> ClassDataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..25 {
            let j = (i % 5) as f64 * 0.1;
            rows.push(vec![-1.0 - j, 0.0]);
            y.push(0);
            rows.push(vec![1.0 + j, 0.0]);
            y.push(1);
        }
        for &i in flips {
            y[i] = 1 - y[i];
        }
        ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
    }

    #[test]
    fn mislabeled_examples_rank_lowest() {
        let flips = [0usize, 11, 22];
        let data = blobs_with_flips(&flips);
        let scores = aum_scores(&data, &AumConfig::default());
        let ranking = rank_ascending(&scores);
        let worst: std::collections::HashSet<usize> = ranking[..3].iter().copied().collect();
        for &f in &flips {
            assert!(worst.contains(&f), "flip {f} not in bottom-3 {ranking:?}");
        }
    }

    #[test]
    fn mislabeled_margins_are_negative() {
        let data = blobs_with_flips(&[4]);
        let scores = aum_scores(&data, &AumConfig::default());
        assert!(scores[4] < 0.0, "score {}", scores[4]);
        // Clean points near the same location have positive margins.
        assert!(scores[2] > 0.0);
    }

    #[test]
    fn empty_dataset() {
        let data = blobs_with_flips(&[]).subset(&[]);
        assert!(aum_scores(&data, &AumConfig::default()).is_empty());
    }

    #[test]
    fn deterministic() {
        let data = blobs_with_flips(&[1]);
        assert_eq!(
            aum_scores(&data, &AumConfig::default()),
            aum_scores(&data, &AumConfig::default())
        );
    }
}
