//! Thread-count determinism: every parallelized entry point must produce
//! **bit-identical** results for 1, 2, and 8 workers with a fixed seed.
//! The parallel layer guarantees this by fixing chunk boundaries as a
//! function of input length and folding partial results in chunk order —
//! these tests are the contract.
//!
//! Entry points take their worker count from `NDE_THREADS`, so the tests
//! sweep that variable through [`sweep_threads`], which holds a lock for
//! the whole sweep: the environment is process-global and the tests of
//! this file run concurrently.

use nde_core::challenge::{Challenge, ChallengeConfig};
use nde_core::cleaning::{iterative_cleaning_cached, Strategy};
use nde_core::scenario::encode_splits;
use nde_datagen::errors::{flip_labels, inject_missing, inject_shift, Mechanism};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::{build_topk_cache, knn_shapley};
use nde_importance::semivalue::{banzhaf_msr, tmc_shapley, McConfig};
use nde_importance::utility::{ModelUtility, UtilityMetric};
use nde_importance::{aum_scores, confident_learning, AumConfig, ConfidentReport};
use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::sq_dist;
use nde_learners::models::knn::argmax;
use nde_learners::{KnnClassifier, Learner};
use nde_parallel::neighbor_order::k_nearest;
use nde_pipeline::validation::{infer_expectations, validate, Anomaly, ValidationConfig};
use nde_uncertain::cpclean::{certain_fraction, IncompleteDataset};
use nde_uncertain::incomplete::IncompleteMatrix;
use nde_uncertain::interval::Interval;
use std::sync::Mutex;

const THREADS: [usize; 3] = [1, 2, 8];

/// Serializes every `NDE_THREADS` sweep in this file.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `run` under `NDE_THREADS=1` for the reference, then under each of
/// [`THREADS`], handing each result to `check(threads, reference,
/// candidate)`. Returns the reference.
fn sweep_threads<R>(run: impl Fn() -> R, check: impl Fn(usize, &R, &R)) -> R {
    // A failed sweep poisons the lock; the next one may still run, since
    // it sets `NDE_THREADS` itself before reading any result.
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("NDE_THREADS", "1");
    let reference = run();
    for threads in THREADS {
        std::env::set_var("NDE_THREADS", threads.to_string());
        let candidate = run();
        check(threads, &reference, &candidate);
    }
    std::env::remove_var("NDE_THREADS");
    reference
}

fn encoded_splits() -> (ClassDataset, ClassDataset) {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 120,
        n_valid: 40,
        n_test: 0,
        ..Default::default()
    });
    let (dirty, _) = flip_labels(&s.train, "sentiment", 0.2, 5).unwrap();
    let (_, train, valid) = encode_splits(&dirty, &s.valid).unwrap();
    (train, valid)
}

fn assert_bit_identical(name: &str, reference: &[f64], candidate: &[f64], threads: usize) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "{name} length at {threads} threads"
    );
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}[{i}] differs at {threads} threads: {a} vs {b}"
        );
    }
}

#[test]
fn knn_shapley_is_thread_count_invariant() {
    let (train, valid) = encoded_splits();
    sweep_threads(
        || knn_shapley(&train, &valid, 5),
        |threads, reference, scores| {
            assert_bit_identical("knn_shapley", reference, scores, threads)
        },
    );
}

#[test]
fn tmc_shapley_is_thread_count_invariant() {
    let (train, valid) = encoded_splits();
    let learner = KnnClassifier::new(5);
    let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
    let cfg = McConfig::new(24, 9).with_truncation(1e-3);
    sweep_threads(
        || tmc_shapley(&util, &cfg),
        |threads, reference, scores| {
            assert_bit_identical("tmc_shapley", reference, scores, threads)
        },
    );
}

#[test]
fn banzhaf_msr_is_thread_count_invariant() {
    let (train, valid) = encoded_splits();
    let learner = KnnClassifier::new(5);
    let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
    let cfg = McConfig::new(24, 9);
    sweep_threads(
        || banzhaf_msr(&util, &cfg),
        |threads, reference, scores| {
            assert_bit_identical("banzhaf_msr", reference, scores, threads)
        },
    );
}

/// Text embedding fans out over 512-row chunks, each with its own token
/// memo: 1 300 training rows span three chunks, and both encoded splits
/// must be bit-identical for any worker count.
#[test]
fn encode_splits_is_thread_count_invariant() {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 1_300,
        n_valid: 200,
        n_test: 0,
        ..Default::default()
    });
    sweep_threads(
        || {
            let (_, train, valid) = encode_splits(&s.train, &s.valid).unwrap();
            (train, valid)
        },
        |threads, reference, candidate| {
            assert_bit_identical(
                "train features",
                reference.0.x.data(),
                candidate.0.x.data(),
                threads,
            );
            assert_bit_identical(
                "valid features",
                reference.1.x.data(),
                candidate.1.x.data(),
                threads,
            );
            assert_eq!(
                reference.0.y, candidate.0.y,
                "train labels at {threads} threads"
            );
        },
    );
}

/// Data-quality profiling shares the deterministic-parallel contract:
/// the sharded profile of a realistic mixed-type table (floats with
/// injected nulls, strings, ints, bools) must be bit-identical for any
/// worker count at fixed chunk boundaries. Explicit worker counts are
/// passed instead of sweeping `NDE_THREADS`.
#[test]
fn quality_profile_is_thread_count_invariant() {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 300,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    });
    let (table, _) = inject_missing(&s.train, "employer_rating", 0.2, Mechanism::Mcar, 11).unwrap();
    // A small odd chunk length forces many shards (and sketch
    // compactions during the merge fold) even on a 300-row table.
    for chunk_len in [57, nde_tabular::profile::QUALITY_PROFILE_CHUNK_LEN] {
        let reference = table.quality_profile_sharded(1, chunk_len);
        for threads in THREADS {
            let candidate = table.quality_profile_sharded(threads, chunk_len);
            assert_eq!(
                candidate, reference,
                "quality profile differs at {threads} workers (chunk_len {chunk_len})"
            );
            assert_eq!(
                candidate.to_json(),
                reference.to_json(),
                "serialized sketch state differs at {threads} workers"
            );
        }
    }
}

/// An anomaly with every `f64` field spelled as its bit pattern.
fn anomaly_bits(anomaly: &Anomaly) -> String {
    match anomaly {
        Anomaly::NullRate {
            name,
            observed,
            allowed,
        } => format!(
            "NullRate {name} {:x} {:x}",
            observed.to_bits(),
            allowed.to_bits()
        ),
        Anomaly::OutOfRange {
            name,
            count,
            range: (lo, hi),
        } => format!(
            "OutOfRange {name} {count} {:x} {:x}",
            lo.to_bits(),
            hi.to_bits()
        ),
        Anomaly::Drift { name, magnitude } => format!("Drift {name} {:x}", magnitude.to_bits()),
        Anomaly::DistributionShift { name, ks } => {
            format!("DistributionShift {name} {:x}", ks.to_bits())
        }
        other => format!("{other:?}"),
    }
}

/// Data validation reads sharded quality profiles of both the reference
/// and the batch, so its expectations and anomalies must not depend on
/// the worker count. 5 000 rows span three profile chunks; the batch is
/// corrupted so that every `f64`-carrying anomaly kind fires.
#[test]
fn validation_is_thread_count_invariant() {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 5_000,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    });
    let (batch, _) = inject_missing(&s.train, "employer_rating", 0.3, Mechanism::Mnar, 3).unwrap();
    let (batch, _) = inject_shift(&batch, "employer_rating", 3.0, 1.0).unwrap();
    let cfg = ValidationConfig::default();
    let anomalies = sweep_threads(
        || {
            let expectations = infer_expectations(&s.train, &cfg);
            let ranges: Vec<Option<(u64, u64)>> = expectations
                .columns
                .iter()
                .map(|e| e.range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())))
                .collect();
            let anomalies: Vec<String> = validate(&batch, &expectations, &cfg)
                .iter()
                .map(anomaly_bits)
                .collect();
            (ranges, anomalies)
        },
        |threads, reference, candidate| {
            assert_eq!(
                candidate, reference,
                "validation differs at {threads} workers"
            );
        },
    )
    .1;
    for kind in ["NullRate", "OutOfRange", "Drift", "DistributionShift"] {
        assert!(
            anomalies.iter().any(|a| a.starts_with(kind)),
            "{kind} missing from {anomalies:?}"
        );
    }
}

/// The remaining env-driven entry points: [`certain_fraction`], the
/// challenge leaderboard, indexed batch prediction, the kd-tree-fed
/// top-k cache and a warm cleaning session.
#[test]
fn env_driven_entry_points_are_thread_count_invariant() {
    // CPClean certain fraction over MNAR-corrupted ratings.
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 80,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    });
    let (with_missing, _) =
        inject_missing(&s.train, "employer_rating", 0.15, Mechanism::Mnar, 3).unwrap();
    let ratings: Vec<Interval> = (0..with_missing.num_rows())
        .map(|r| match with_missing.get(r, "employer_rating") {
            Ok(v) if !v.is_null() => Interval::point(v.as_float().unwrap_or(0.0)),
            _ => Interval::new(0.0, 10.0),
        })
        .collect();
    let x = IncompleteMatrix::from_intervals(ratings.len(), 1, ratings).unwrap();
    let y: Vec<usize> = (0..x.nrows()).map(|i| i % 2).collect();
    let data = IncompleteDataset { x, y, n_classes: 2 };
    let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 2.0]).collect();

    // Challenge leaderboard over a strategy fan-out.
    let challenge = Challenge::generate(ChallengeConfig {
        scenario: HiringConfig {
            n_train: 100,
            n_valid: 40,
            n_test: 40,
            ..Default::default()
        },
        budget: 20,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    let strategies = [Strategy::Random, Strategy::KnnShapley, Strategy::Aum];

    // Indexed k-NN hot paths: batch prediction and the kd-tree-fed top-k
    // cache both fan out over NDE_THREADS workers.
    let (train, valid) = encoded_splits();
    let indexed = KnnClassifier::new(5).fit(&train).unwrap();

    // A warm cleaning session: parallel builds and repairs of the full
    // validation-side cache and the kd-tree-fed test-side top-k cache.
    let session = HiringScenario::generate(&HiringConfig {
        n_train: 100,
        n_valid: 40,
        n_test: 40,
        ..Default::default()
    });
    let (dirty, _) = flip_labels(&session.train, "sentiment", 0.2, 5).unwrap();

    let run = || {
        let fraction = certain_fraction(&data, &queries, 3);
        let board = challenge.play_all(&strategies).unwrap();
        let standings: Vec<(String, u64, usize)> = board
            .standings()
            .iter()
            .map(|e| (e.name.clone(), e.accuracy.to_bits(), e.true_positives))
            .collect();
        let preds = indexed.predict_batch(&valid.x);
        let topk = build_topk_cache(&train, &valid, 3);
        let topk_flat: Vec<(u64, u32)> = (0..topk.n_valid())
            .flat_map(|v| topk.neighbors(v).iter().map(|&(d, t)| (d.to_bits(), t)))
            .collect();
        let cleaning: Vec<(usize, u64)> = iterative_cleaning_cached(
            &dirty,
            &session.train,
            &session.valid,
            &session.test,
            4,
            20,
            5,
        )
        .unwrap()
        .iter()
        .map(|s| (s.cleaned, s.accuracy.to_bits()))
        .collect();
        (fraction.to_bits(), standings, preds, topk_flat, cleaning)
    };

    let reference = sweep_threads(run, |threads, reference, candidate| {
        assert_eq!(
            candidate, reference,
            "NDE_THREADS={threads} changed results"
        )
    });
    // Brute-force oracle: a full scan, then a uniform vote.
    let brute: Vec<usize> = (0..valid.len())
        .map(|r| {
            let neighbors = k_nearest(train.len(), 5, |i| sq_dist(train.x.row(i), valid.x.row(r)));
            let mut votes = vec![0.0; train.n_classes];
            for &(_, i) in &neighbors {
                votes[train.y[i]] += 1.0 / neighbors.len() as f64;
            }
            argmax(&votes)
        })
        .collect();
    assert_eq!(reference.2, brute, "indexed k-NN diverged from brute force");
}

/// The 1 300 encoded training rows of [`encode_splits_is_thread_count_invariant`]
/// with a fifth of the labels flipped.
fn encoded_train_1300() -> ClassDataset {
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 1_300,
        n_valid: 40,
        n_test: 0,
        ..Default::default()
    });
    let (dirty, _) = flip_labels(&s.train, "sentiment", 0.2, 11).unwrap();
    encode_splits(&dirty, &s.valid).unwrap().1
}

fn report_bits(r: &ConfidentReport) -> (Vec<u64>, Vec<usize>, Vec<Option<usize>>, Vec<u64>) {
    (
        r.scores.iter().map(|v| v.to_bits()).collect(),
        r.flagged.clone(),
        r.suggested.clone(),
        r.joint.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

/// Confident Learning fans each fold's test-row predictions out over fixed
/// chunks, and AUM computes each epoch's logits with a row-blocked kernel.
/// Both must be bit-identical for any worker count, and equal to the
/// serial row-at-a-time reference implementations below.
#[test]
fn confident_learning_and_aum_are_thread_count_invariant() {
    let train = encoded_train_1300();
    let learner = KnnClassifier::new(5);
    let cfg = AumConfig::default();
    let (confident, aum) = sweep_threads(
        || {
            (
                report_bits(&confident_learning(&learner, &train, 5, 17).unwrap()),
                aum_scores(&train, &cfg),
            )
        },
        |threads, reference, candidate| {
            assert_eq!(
                candidate.0, reference.0,
                "confident_learning changed at {threads} threads"
            );
            assert_bit_identical("aum_scores", &reference.1, &candidate.1, threads);
        },
    );
    assert_eq!(
        confident,
        report_bits(&serial_reference::confident_learning(
            &learner, &train, 5, 17
        )),
        "confident_learning diverged from the serial reference"
    );
    assert_bit_identical(
        "aum_scores vs serial reference",
        &serial_reference::aum_scores(&train, &cfg),
        &aum,
        1,
    );
}

/// Serial, row-at-a-time Confident Learning and AUM: the implementations
/// before fold predictions fanned out and AUM's logits were blocked.
mod serial_reference {
    use nde_importance::{AumConfig, ConfidentReport};
    use nde_learners::dataset::ClassDataset;
    use nde_learners::matrix::dot;
    use nde_learners::traits::Learner;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn softmax(logits: &[f64]) -> Vec<f64> {
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    pub fn aum_scores(data: &ClassDataset, cfg: &AumConfig) -> Vec<f64> {
        let (n, d, c) = (data.len(), data.n_features(), data.n_classes);
        let mut w = vec![0.0f64; c * d];
        let mut b = vec![0.0f64; c];
        let inv_n = 1.0 / n as f64;
        let mut margin_sum = vec![0.0f64; n];
        let mut grad_w = vec![0.0f64; c * d];
        let mut grad_b = vec![0.0f64; c];
        for _ in 0..cfg.epochs {
            grad_w.iter_mut().for_each(|g| *g = 0.0);
            grad_b.iter_mut().for_each(|g| *g = 0.0);
            for (i, ms) in margin_sum.iter_mut().enumerate() {
                let xi = data.x.row(i);
                let logits: Vec<f64> = (0..c)
                    .map(|k| dot(&w[k * d..(k + 1) * d], xi) + b[k])
                    .collect();
                let yi = data.y[i];
                let best_other = logits
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != yi)
                    .map(|(_, &z)| z)
                    .fold(f64::NEG_INFINITY, f64::max);
                *ms += logits[yi] - best_other;
                let probs = softmax(&logits);
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
                for (wj, &gj) in w[k * d..(k + 1) * d]
                    .iter_mut()
                    .zip(&grad_w[k * d..(k + 1) * d])
                {
                    *wj -= cfg.learning_rate * (gj * inv_n + cfg.l2 * *wj);
                }
            }
        }
        margin_sum
            .iter_mut()
            .for_each(|m| *m /= cfg.epochs.max(1) as f64);
        margin_sum
    }

    pub fn confident_learning(
        learner: &dyn Learner,
        data: &ClassDataset,
        folds: usize,
        seed: u64,
    ) -> ConfidentReport {
        let n = data.len();
        let c = data.n_classes;
        let mut probs = vec![vec![0.0f64; c]; n];
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        for f in 0..folds {
            let test: Vec<usize> = idx.iter().copied().skip(f).step_by(folds).collect();
            let test_set: HashSet<usize> = test.iter().copied().collect();
            let train: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|i| !test_set.contains(i))
                .collect();
            let model = learner.fit(&data.subset(&train)).unwrap();
            for &i in &test {
                probs[i] = model.predict_proba(data.x.row(i));
            }
        }
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
                f64::INFINITY
            };
        }
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
        let n_errors: usize = (0..c)
            .flat_map(|a| (0..c).map(move |b| (a, b)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| joint_counts[a][b])
            .sum();
        let mut candidates: Vec<usize> = (0..n).filter(|&i| suspect_of[i].is_some()).collect();
        candidates.sort_by(|&a, &b| {
            probs[a][data.y[a]]
                .total_cmp(&probs[b][data.y[b]])
                .then(a.cmp(&b))
        });
        candidates.truncate(n_errors);
        let flagged: HashSet<usize> = candidates.iter().copied().collect();
        ConfidentReport {
            scores: (0..n)
                .map(|i| {
                    let self_conf = probs[i][data.y[i]];
                    if flagged.contains(&i) {
                        self_conf
                    } else {
                        self_conf + 1.0
                    }
                })
                .collect(),
            suggested: (0..n)
                .map(|i| suspect_of[i].filter(|_| flagged.contains(&i)))
                .collect(),
            flagged: candidates,
            joint,
        }
    }
}
