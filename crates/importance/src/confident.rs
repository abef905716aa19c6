//! Confident Learning (Northcutt, Jiang & Chuang 2021): uncertainty-based
//! label-error detection from out-of-sample predicted probabilities —
//! one of the survey's "uncertainty-based methods".

use nde_learners::dataset::ClassDataset;
use nde_learners::traits::Learner;
use nde_learners::Result;
use nde_parallel::par_map_chunks;

/// Test rows per prediction chunk. Chunk boundaries depend only on the
/// fold's size, so the probabilities are bit-identical for any thread
/// count.
const PREDICT_CHUNK: usize = 32;

/// Output of confident learning.
#[derive(Debug, Clone)]
pub struct ConfidentReport {
    /// Per-example score (this crate's convention: lower = more suspect).
    /// Flagged examples score their self-confidence `p̂(ỹᵢ|xᵢ) ∈ [0,1]`;
    /// unflagged examples score self-confidence + 1, so every flagged
    /// example ranks before every unflagged one.
    pub scores: Vec<f64>,
    /// Indices flagged as likely label errors, most confident error first.
    pub flagged: Vec<usize>,
    /// For each example: the suggested corrected label (`Some` only for
    /// flagged examples — the confidently-predicted latent class).
    pub suggested: Vec<Option<usize>>,
    /// The estimated joint distribution `Q[observed][true]` of observed vs.
    /// latent true labels (rows sum to the observed class priors).
    pub joint: Vec<Vec<f64>>,
}

/// Runs confident learning with `folds`-fold cross-validated probabilities
/// from `learner`.
///
/// Folds run one after another, so only one fold's model is alive at a
/// time; within a fold, the test rows' predictions fan out over
/// `NDE_THREADS` workers in fixed chunks and are written back in order.
/// Each prediction is a pure function of its row, so the report is
/// bit-identical for every worker count.
pub fn confident_learning(
    learner: &dyn Learner,
    data: &ClassDataset,
    folds: usize,
    seed: u64,
) -> Result<ConfidentReport> {
    let n = data.len();
    let c = data.n_classes;
    // Out-of-sample probabilities via k-fold prediction.
    let mut probs = vec![vec![0.0f64; c]; n];
    let folds_data = k_fold_indices(data, folds, seed)?;
    for (train_idx, test_idx) in folds_data {
        let model = learner.fit(&data.subset(&train_idx))?;
        let fold_probs = par_map_chunks(test_idx.len(), PREDICT_CHUNK, |range| {
            test_idx[range]
                .iter()
                .map(|&i| model.predict_proba(data.x.row(i)))
                .collect::<Vec<_>>()
        });
        for (&i, p) in test_idx.iter().zip(fold_probs.into_iter().flatten()) {
            probs[i] = p;
        }
    }

    // Class thresholds: mean self-confidence of examples labeled k.
    let mut thresholds = vec![0.0f64; c];
    let mut counts = vec![0usize; c];
    for (p, &y) in probs.iter().zip(&data.y) {
        thresholds[y] += p[y];
        counts[y] += 1;
    }
    for k in 0..c {
        thresholds[k] = if counts[k] > 0 {
            thresholds[k] / counts[k] as f64
        } else {
            // No examples observed with this label: nothing can cross it.
            f64::INFINITY
        };
    }

    // Confident joint: count example i in C[observed][k*] where k* is the
    // most probable class among those whose probability crosses its
    // threshold.
    let mut joint_counts = vec![vec![0usize; c]; c];
    let mut suspect_of: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let above: Vec<usize> = (0..c).filter(|&k| probs[i][k] >= thresholds[k]).collect();
        let Some(&kstar) = above
            .iter()
            .max_by(|&&a, &&b| probs[i][a].total_cmp(&probs[i][b]).then(b.cmp(&a)))
        else {
            continue;
        };
        joint_counts[data.y[i]][kstar] += 1;
        if kstar != data.y[i] {
            suspect_of[i] = Some(kstar);
        }
    }

    // Calibrate to a joint distribution (normalize to sum 1).
    let total: usize = joint_counts.iter().flatten().sum();
    let joint: Vec<Vec<f64>> = joint_counts
        .iter()
        .map(|row| {
            row.iter()
                .map(|&v| {
                    if total > 0 {
                        v as f64 / total as f64
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    // Number of errors to flag: off-diagonal mass of the confident joint.
    let n_errors: usize = (0..c)
        .flat_map(|a| (0..c).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| joint_counts[a][b])
        .sum();

    // Rank candidate errors by self-confidence, lowest first; keep n_errors.
    let mut candidates: Vec<usize> = (0..n).filter(|&i| suspect_of[i].is_some()).collect();
    candidates.sort_by(|&a, &b| {
        probs[a][data.y[a]]
            .total_cmp(&probs[b][data.y[b]])
            .then(a.cmp(&b))
    });
    candidates.truncate(n_errors);
    let flagged_set: std::collections::HashSet<usize> = candidates.iter().copied().collect();

    let scores: Vec<f64> = (0..n)
        .map(|i| {
            let self_conf = probs[i][data.y[i]];
            if flagged_set.contains(&i) {
                self_conf
            } else {
                self_conf + 1.0
            }
        })
        .collect();
    let suggested: Vec<Option<usize>> = (0..n)
        .map(|i| {
            if flagged_set.contains(&i) {
                suspect_of[i]
            } else {
                None
            }
        })
        .collect();

    Ok(ConfidentReport {
        scores,
        flagged: candidates,
        suggested,
        joint,
    })
}

fn k_fold_indices(
    data: &ClassDataset,
    folds: usize,
    seed: u64,
) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    // Re-derive fold index sets (split::k_fold returns materialized data;
    // we need the indices to place out-of-sample probabilities).
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    if folds < 2 || folds > data.len().max(1) {
        return Err(nde_learners::LearnError::InvalidParameter {
            detail: format!("folds must be in 2..={}, got {folds}", data.len()),
        });
    }
    let mut idx: Vec<usize> = (0..data.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut out = Vec::with_capacity(folds);
    for f in 0..folds {
        let test: Vec<usize> = idx.iter().copied().skip(f).step_by(folds).collect();
        let test_set: std::collections::HashSet<usize> = test.iter().copied().collect();
        let train: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|i| !test_set.contains(i))
            .collect();
        out.push((train, test));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_learners::matrix::Matrix;
    use nde_learners::models::knn::KnnClassifier;

    fn blobs_with_flips(flips: &[usize]) -> ClassDataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let j = (i % 6) as f64 * 0.1;
            rows.push(vec![j]);
            y.push(0);
            rows.push(vec![5.0 + j]);
            y.push(1);
        }
        for &i in flips {
            y[i] = 1 - y[i];
        }
        ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
    }

    #[test]
    fn flags_injected_label_errors() {
        let flips = [2usize, 15, 40];
        let data = blobs_with_flips(&flips);
        let learner = KnnClassifier::new(5);
        let report = confident_learning(&learner, &data, 5, 3).unwrap();
        let flagged: std::collections::HashSet<usize> = report.flagged.iter().copied().collect();
        for &f in &flips {
            assert!(flagged.contains(&f), "missed flip {f}: flagged {flagged:?}");
        }
        // Few false positives.
        assert!(report.flagged.len() <= 6, "{:?}", report.flagged);
    }

    #[test]
    fn scores_rank_flagged_before_unflagged() {
        let data = blobs_with_flips(&[4]);
        let learner = KnnClassifier::new(5);
        let report = confident_learning(&learner, &data, 5, 1).unwrap();
        let ranking = crate::rank::rank_ascending(&report.scores);
        assert_eq!(ranking[0], 4, "{ranking:?}");
    }

    #[test]
    fn clean_data_flags_nothing_much() {
        let data = blobs_with_flips(&[]);
        let learner = KnnClassifier::new(5);
        let report = confident_learning(&learner, &data, 5, 2).unwrap();
        assert!(report.flagged.is_empty(), "{:?}", report.flagged);
    }

    #[test]
    fn suggested_corrections_recover_the_true_labels() {
        let flips = [2usize, 15];
        let data = blobs_with_flips(&flips);
        let learner = KnnClassifier::new(5);
        let report = confident_learning(&learner, &data, 5, 3).unwrap();
        for &f in &flips {
            // The suggestion undoes the flip (true label = 1 − flipped).
            assert_eq!(report.suggested[f], Some(1 - data.y[f]), "row {f}");
        }
        // Unflagged rows carry no suggestion.
        let flagged: std::collections::HashSet<usize> = report.flagged.iter().copied().collect();
        for i in 0..data.len() {
            assert_eq!(report.suggested[i].is_some(), flagged.contains(&i));
        }
    }

    #[test]
    fn joint_is_a_distribution() {
        let data = blobs_with_flips(&[0, 9]);
        let learner = KnnClassifier::new(5);
        let report = confident_learning(&learner, &data, 4, 5).unwrap();
        let total: f64 = report.joint.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_folds_rejected() {
        let data = blobs_with_flips(&[]);
        let learner = KnnClassifier::new(5);
        assert!(confident_learning(&learner, &data, 1, 0).is_err());
        assert!(confident_learning(&learner, &data, 1000, 0).is_err());
    }
}
