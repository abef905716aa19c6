//! **Perf** — k-d-tree-backed k-NN vs the brute-force oracle on hiring
//! features.
//!
//! Every fitted k-NN model queries a k-d tree. On low-dimensional encoded
//! hiring features (numerics + one-hot blocks — exactly the layout that
//! used to degenerate the cycling-axis tree into one giant leaf) its query
//! path must be ≥2x faster than the brute-force [`brute_knn_predict`]
//! oracle at n ≥ 10k rows, while returning bit-identical predictions.
//! Also compares the full sorted [`NeighborCache`] build against the
//! kd-tree-fed truncated top-k build, and includes a high-dimensional
//! honesty check (64-dim text embeddings) where kd-tree pruning is
//! expected to fade.
//!
//! [`NeighborCache`]: nde_parallel::NeighborCache

use nde_bench::{brute_knn_predict, f4, row, section, timed_traced};
use nde_core::scenario::encode_splits;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::{build_neighbor_cache, build_topk_cache};
use nde_learners::dataset::ClassDataset;
use nde_learners::preprocessing::encoder::{ColumnSpec, TableEncoder};
use nde_learners::{KnnClassifier, Learner};

const K: usize = 5;

/// Times the brute-force oracle vs the fitted model's batch prediction on
/// one encoded split, asserts bit-identity, prints the comparison, and
/// returns the speedup.
fn compare(train: &ClassDataset, valid: &ClassDataset) -> f64 {
    println!(
        "n_train = {}, n_valid = {}, dims = {}, k = {K}, threads = {}",
        train.len(),
        valid.len(),
        train.x.ncols(),
        nde_parallel::num_threads()
    );
    let (indexed, fit_indexed) = timed_traced("phase.fit_indexed", || {
        KnnClassifier::new(K).fit(train).expect("fit")
    });
    let (p_brute, query_brute) = timed_traced("phase.predict_brute", || {
        brute_knn_predict(train, &valid.x, K)
    });
    let (p_indexed, query_indexed) =
        timed_traced("phase.predict_indexed", || indexed.predict_batch(&valid.x));
    assert_eq!(
        p_brute, p_indexed,
        "indexed predictions must be bit-identical to brute force"
    );
    let speedup = query_brute / query_indexed;
    row(&["path", "fit_s", "predict_s", "speedup_vs_brute"]);
    row(&[
        "brute".to_string(),
        "-".to_string(),
        f4(query_brute),
        f4(1.0),
    ]);
    row(&[
        "kdtree".to_string(),
        f4(fit_indexed),
        f4(query_indexed),
        f4(speedup),
    ]);
    speedup
}

fn main() {
    let _trace = nde_bench::trace_root("perf_knn_index");

    section("Low-dimensional hiring features (numerics + one-hot)");
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 10_000,
        n_valid: 1_000,
        n_test: 0,
        ..Default::default()
    });
    let encoder = TableEncoder::new(
        vec![
            ColumnSpec::numeric("employer_rating"),
            ColumnSpec::numeric("age"),
            ColumnSpec::categorical("degree"),
            ColumnSpec::categorical("sex"),
        ],
        "sentiment",
    );
    let fitted = encoder.fit(&s.train).expect("fit encoder");
    let train = fitted.transform(&s.train).expect("encode train");
    let valid = fitted.transform(&s.valid).expect("encode valid");
    let low_dim_speedup = compare(&train, &valid);
    // Each section is an independent measurement: emit and reset the trace
    // state so per-section counters don't accumulate across sections.
    nde_bench::iteration_boundary();

    section("Neighbor-cache builds (full sorted lists vs kd-tree top-k)");
    let (full, full_s) = timed_traced("phase.full_cache", || build_neighbor_cache(&train, &valid));
    let (topk, topk_s) = timed_traced("phase.topk_cache", || build_topk_cache(&train, &valid, K));
    for v in 0..valid.len() {
        assert_eq!(
            topk.neighbors(v),
            &full.neighbors(v)[..topk.neighbors(v).len()],
            "top-k lists must be prefixes of the full lists"
        );
    }
    row(&["cache", "build_s", "speedup_vs_full"]);
    row(&["full".to_string(), f4(full_s), f4(1.0)]);
    row(&["topk".to_string(), f4(topk_s), f4(full_s / topk_s)]);
    nde_bench::iteration_boundary();

    section("High-dimensional honesty check (standard encoder, 64-dim text)");
    let s_hi = HiringScenario::generate(&HiringConfig {
        n_train: 4_000,
        n_valid: 400,
        n_test: 0,
        ..Default::default()
    });
    let (_, train_hi, valid_hi) = encode_splits(&s_hi.train, &s_hi.valid).expect("encode");
    let high_dim_speedup = compare(&train_hi, &valid_hi);

    section("Summary");
    println!(
        "Low-dim (d = {}): kd-tree {}x vs brute. High-dim (d = {}): {}x — \
         pruning weakens as dimension grows (text embeddings keep some \
         structure, so the tree can still win there, just by less).",
        train.x.ncols(),
        f4(low_dim_speedup),
        train_hi.x.ncols(),
        f4(high_dim_speedup)
    );
    assert!(
        low_dim_speedup >= 2.0,
        "expected >= 2x kd-tree speedup on low-dimensional features, got {low_dim_speedup:.2}x"
    );
}
