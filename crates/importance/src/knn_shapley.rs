//! Exact KNN-Shapley (Jia et al., "Efficient task-specific data valuation
//! for nearest neighbor algorithms", 2019) — the tutorial's main tool
//! (`nde.knn_shapley_values` in Figure 2, the engine inside Datascope in
//! Figure 3).
//!
//! For the K-NN utility (the fraction of the K nearest neighbors of a
//! validation point that vote for its true label), Shapley values admit a
//! closed-form recursion over training points sorted by distance, so the
//! *exact* values cost `O(n log n)` per validation point instead of an
//! exponential sum. Every ranking here — direct, cached or top-k — comes
//! from `nde_parallel::neighbor_order`, so the paths agree bit-for-bit.

use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::{sq_dist, sq_dists};
use nde_learners::models::kdtree::KdTree;
use nde_parallel::neighbor_order::rank_all;
use nde_parallel::{par_reduce, NeighborCache};

/// Validation points per work chunk. Chunk boundaries depend only on the
/// validation count, so results are bit-identical for any thread count.
const VALID_CHUNK: usize = 8;

/// Backward recursion of Jia et al. (Theorem 1) for one validation point,
/// given every training row as `(distance, index)` in neighbor order.
/// Adds the per-point (unaveraged) Shapley contributions into `scores`.
fn accumulate_one(
    scores: &mut [f64],
    ranked: &[(f64, u32)],
    train_y: &[usize],
    yv: usize,
    k: usize,
) {
    let n = ranked.len();
    let row = |j: usize| ranked[j].1 as usize;
    let matches = |j: usize| f64::from(u8::from(train_y[row(j)] == yv));
    // The base case uses min(K, N): when the training set is smaller
    // than K, the farthest point still occupies a guaranteed vote slot.
    let mut s_next = matches(n - 1) * k.min(n) as f64 / (k as f64 * n as f64);
    scores[row(n - 1)] += s_next;
    for j in (1..n).rev() {
        // position j (1-indexed) is ranked[j-1]; its successor is ranked[j].
        let s = s_next + (matches(j - 1) - matches(j)) / k as f64 * (k.min(j) as f64 / j as f64);
        scores[row(j - 1)] += s;
        s_next = s;
    }
}

/// Asserts that label vectors match the cache they are scored against.
fn check_labels(n: usize, m: usize, train_y: &[usize], valid_y: &[usize]) {
    assert_eq!(n, train_y.len(), "train_y length must match the cache");
    assert_eq!(m, valid_y.len(), "valid_y length must match the cache");
}

fn elementwise_add(mut acc: Vec<f64>, part: Vec<f64>) -> Vec<f64> {
    for (a, p) in acc.iter_mut().zip(part) {
        *a += p;
    }
    acc
}

/// Exact Shapley values of every training point under the K-NN utility,
/// averaged over all validation points. Lower = more harmful; mislabeled
/// points that sit close to validation points get negative values.
///
/// Validation points are split into fixed-size chunks whose boundaries
/// depend only on the validation count, the chunks fan out over
/// `NDE_THREADS` workers, and chunk partials are summed in chunk order —
/// so the result is bit-identical for every worker count, and equal bit
/// for bit to [`knn_shapley_cached`] on a cache of the same data.
///
/// ```
/// use nde_importance::knn_shapley::knn_shapley;
/// use nde_learners::{ClassDataset, Matrix};
///
/// // Two blobs; the point at x = 0.1 is mislabeled.
/// let train = ClassDataset::new(
///     Matrix::from_rows(&[vec![0.0], vec![0.2], vec![5.0], vec![0.1]]).unwrap(),
///     vec![0, 0, 1, 1],
///     2,
/// ).unwrap();
/// let valid = ClassDataset::new(
///     Matrix::from_rows(&[vec![0.05], vec![0.15]]).unwrap(),
///     vec![0, 0],
///     2,
/// ).unwrap();
/// let phi = knn_shapley(&train, &valid, 1);
/// let worst = (0..4).min_by(|&a, &b| phi[a].total_cmp(&phi[b])).unwrap();
/// assert_eq!(worst, 3); // the mislabeled point
/// assert!(phi[3] < 0.0);
/// ```
pub fn knn_shapley(train: &ClassDataset, valid: &ClassDataset, k: usize) -> Vec<f64> {
    let n = train.len();
    if n == 0 || valid.is_empty() {
        return vec![0.0; n];
    }
    let k = k.max(1);
    let mut span = nde_trace::span("importance.knn_shapley");
    span.field("n_train", n);
    span.field("n_valid", valid.len());
    span.field("k", k);
    let mut total = par_reduce(
        valid.len(),
        VALID_CHUNK,
        vec![0.0f64; n],
        |chunk| {
            let mut scores = vec![0.0f64; n];
            let mut dists = vec![0.0f64; n];
            for v in chunk {
                sq_dists(train.x.data(), valid.x.row(v), &mut dists);
                let ranked = rank_all(n, |t| dists[t]);
                accumulate_one(&mut scores, &ranked, &train.y, valid.y[v], k);
            }
            scores
        },
        elementwise_add,
    );
    total.iter_mut().for_each(|s| *s /= valid.len() as f64);
    total
}

/// Builds a [`NeighborCache`] of the train→valid distance structure — the
/// one-time cost that [`knn_shapley_cached`], [`knn_utility_cached`] and
/// [`knn_loo_cached`] amortize across repeated re-scoring (e.g. every
/// round of a cleaning loop, with [`NeighborCache::update_row`] keeping it
/// current as rows are repaired).
pub fn build_neighbor_cache(train: &ClassDataset, valid: &ClassDataset) -> NeighborCache {
    let _span = nde_trace::span("importance.build_neighbor_cache");
    NeighborCache::build(train.len(), valid.len(), |t, v| {
        sq_dist(train.x.row(t), valid.x.row(v))
    })
}

/// [`knn_shapley`] from a prebuilt full-ranking [`NeighborCache`] (every
/// training row's rank matters, so a top-k cache is refused): skips every
/// distance computation and sort. Labels are passed separately so a
/// cleaning loop can re-score after label repairs without touching the
/// cache. Equals [`knn_shapley`] on the same data bit for bit, for every
/// thread count.
pub fn knn_shapley_cached(
    cache: &NeighborCache,
    train_y: &[usize],
    valid_y: &[usize],
    k: usize,
) -> Vec<f64> {
    let n = cache.n_train();
    let m = cache.n_valid();
    check_labels(n, m, train_y, valid_y);
    assert!(
        cache.depth() >= n,
        "knn_shapley_cached needs a cache that ranks every row (depth {} < n_train {n})",
        cache.depth()
    );
    if n == 0 || m == 0 {
        return vec![0.0; n];
    }
    let k = k.max(1);
    // Every warm re-score from the prebuilt cache is a "hit" against the
    // cold `neighbor_cache.miss` counted at build time.
    nde_trace::counter("neighbor_cache.hit").incr();
    let mut span = nde_trace::span("importance.knn_shapley_cached");
    span.field("n_train", n);
    span.field("n_valid", m);
    span.field("k", k);
    let mut total = par_reduce(
        m,
        VALID_CHUNK,
        vec![0.0f64; n],
        |chunk| {
            let mut scores = vec![0.0f64; n];
            for v in chunk {
                accumulate_one(&mut scores, cache.neighbors(v), train_y, valid_y[v], k);
            }
            scores
        },
        elementwise_add,
    );
    total.iter_mut().for_each(|s| *s /= m as f64);
    total
}

/// Builds a top-k [`NeighborCache`] of the `k + 1` nearest training rows
/// per validation point via k-d-tree queries — the indexed counterpart of
/// [`build_neighbor_cache`] for the paths that never read past rank `k`
/// ([`knn_utility_cached`], [`knn_loo_cached`]; the `+ 1` slot is LOO's
/// vote-slot successor). On low-dimensional data this skips most of the
/// O(n·m·d) distance matrix; the lists are bit-identical to the
/// corresponding prefix of the full cache, and identical for every
/// `NDE_THREADS` value.
pub fn build_topk_cache(train: &ClassDataset, valid: &ClassDataset, k: usize) -> NeighborCache {
    let mut span = nde_trace::span("importance.build_topk_cache");
    span.field("n_train", train.len());
    span.field("n_valid", valid.len());
    span.field("k", k);
    let depth = (k.max(1) + 1).min(train.len());
    let tree = KdTree::build(&train.x);
    NeighborCache::top_k(train.len(), valid.len(), depth, |v| {
        tree.nearest_with_distances(valid.x.row(v), depth)
            .into_iter()
            .map(|(d, t)| (d, t as u32))
            .collect()
    })
}

/// [`knn_utility`] from a prebuilt [`NeighborCache`] of either depth, as
/// long as its lists reach rank `k`. Full and top-k caches of the same data
/// score bit-for-bit alike: both read the identical `k`-prefix.
pub fn knn_utility_cached(
    cache: &NeighborCache,
    train_y: &[usize],
    valid_y: &[usize],
    k: usize,
) -> f64 {
    let n = cache.n_train();
    let m = cache.n_valid();
    check_labels(n, m, train_y, valid_y);
    if n == 0 || m == 0 {
        return 0.0;
    }
    let k = k.max(1);
    let kk = k.min(n);
    assert!(
        cache.depth().min(n) >= kk,
        "cache depth {} is too shallow for k = {k}",
        cache.depth()
    );
    nde_trace::counter("neighbor_cache.hit").incr();
    let _span = nde_trace::span("importance.knn_utility_cached");
    let total = par_reduce(
        m,
        VALID_CHUNK,
        0.0f64,
        |chunk| {
            let mut acc = 0.0;
            for v in chunk {
                let correct = cache.neighbors(v)[..kk]
                    .iter()
                    .filter(|&&(_, t)| train_y[t as usize] == valid_y[v])
                    .count();
                acc += correct as f64 / k as f64;
            }
            acc
        },
        |acc, part| acc + part,
    );
    total / m as f64
}

/// Closed-form leave-one-out values of the K-NN utility from a prebuilt
/// [`NeighborCache`]: `LOO_i = v(D) − v(D∖{i})`. Removing `i` only matters
/// for validation points where `i` is among the K nearest — its vote slot
/// is inherited by the (K+1)-th neighbor — so each point costs O(K)
/// instead of the n·O(utility) evaluations of the generic estimator. A
/// top-k cache must hold `min(k, n) + 1` entries per list (the successor
/// slot), which [`build_topk_cache`] with the same `k` guarantees.
pub fn knn_loo_cached(
    cache: &NeighborCache,
    train_y: &[usize],
    valid_y: &[usize],
    k: usize,
) -> Vec<f64> {
    let n = cache.n_train();
    let m = cache.n_valid();
    check_labels(n, m, train_y, valid_y);
    if n == 0 || m == 0 {
        return vec![0.0; n];
    }
    let k = k.max(1);
    let kk = k.min(n);
    assert!(
        cache.depth().min(n) >= (kk + 1).min(n),
        "cache depth {} is too shallow for LOO at k = {k} (needs k + 1)",
        cache.depth()
    );
    nde_trace::counter("neighbor_cache.hit").incr();
    let mut span = nde_trace::span("importance.knn_loo_cached");
    span.field("n_train", n);
    span.field("n_valid", m);
    span.field("k", k);
    let mut total = par_reduce(
        m,
        VALID_CHUNK,
        vec![0.0f64; n],
        |chunk| {
            let mut deltas = vec![0.0f64; n];
            for v in chunk {
                let yv = valid_y[v];
                let list = cache.neighbors(v);
                let matches = |e: &(f64, u32)| f64::from(u8::from(train_y[e.1 as usize] == yv));
                // The successor that inherits the freed vote slot (none
                // when the training set is no larger than K).
                let succ = if n > kk { matches(&list[kk]) } else { 0.0 };
                for entry in &list[..kk] {
                    deltas[entry.1 as usize] += (matches(entry) - succ) / k as f64;
                }
            }
            deltas
        },
        elementwise_add,
    );
    total.iter_mut().for_each(|s| *s /= m as f64);
    total
}

/// The K-NN utility this Shapley value decomposes: the mean, over
/// validation points, of the fraction of each point's K nearest training
/// neighbors whose label matches (Jia et al.'s probabilistic K-NN accuracy).
pub fn knn_utility(train: &ClassDataset, valid: &ClassDataset, k: usize) -> f64 {
    let n = train.len();
    if n == 0 || valid.is_empty() {
        return 0.0;
    }
    let k = k.max(1);
    let mut total = 0.0;
    let mut order: Vec<usize> = (0..n).collect();
    for v in 0..valid.len() {
        let (xv, yv) = (valid.x.row(v), valid.y[v]);
        order.sort_by(|&a, &b| {
            sq_dist(train.x.row(a), xv)
                .total_cmp(&sq_dist(train.x.row(b), xv))
                .then(a.cmp(&b))
        });
        let kk = k.min(n);
        let correct = order[..kk].iter().filter(|&&i| train.y[i] == yv).count();
        total += correct as f64 / k as f64;
    }
    total / valid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semivalue::exact_shapley;
    use crate::utility::Utility;
    use nde_learners::matrix::Matrix;

    fn dataset(points: &[(f64, usize)]) -> ClassDataset {
        let rows: Vec<Vec<f64>> = points.iter().map(|&(x, _)| vec![x]).collect();
        let y: Vec<usize> = points.iter().map(|&(_, y)| y).collect();
        ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
    }

    /// Brute-force oracle: the K-NN utility as a cooperative game, handed to
    /// the exponential exact-Shapley enumerator.
    struct KnnGame<'a> {
        train: &'a ClassDataset,
        valid: &'a ClassDataset,
        k: usize,
    }

    impl Utility for KnnGame<'_> {
        fn n(&self) -> usize {
            self.train.len()
        }

        fn eval(&self, subset: &[usize]) -> f64 {
            if subset.is_empty() {
                return 0.0;
            }
            let sub = self.train.subset(subset);
            knn_utility(&sub, self.valid, self.k)
        }
    }

    #[test]
    fn closed_form_matches_brute_force_enumeration() {
        let train = dataset(&[(0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0), (0.5, 1)]);
        let valid = dataset(&[(0.2, 0), (3.5, 1)]);
        for k in [1usize, 2, 3] {
            let fast = knn_shapley(&train, &valid, k);
            let game = KnnGame {
                train: &train,
                valid: &valid,
                k,
            };
            let slow = exact_shapley(&game).unwrap();
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-10, "k={k}: {fast:?} vs {slow:?}");
            }
        }
    }

    #[test]
    fn efficiency_sums_to_utility() {
        let train = dataset(&[(0.0, 0), (0.3, 0), (5.0, 1), (5.5, 1), (2.0, 1)]);
        let valid = dataset(&[(0.1, 0), (5.2, 1), (2.5, 0)]);
        for k in [1usize, 3] {
            let phi = knn_shapley(&train, &valid, k);
            let total: f64 = phi.iter().sum();
            let util = knn_utility(&train, &valid, k);
            assert!(
                (total - util).abs() < 1e-10,
                "k={k}: Σφ={total}, v(D)={util}"
            );
        }
    }

    #[test]
    fn mislabeled_neighbor_gets_most_negative_score() {
        // Blob 0 around x=0, blob 1 around x=5; a point at x=0.1 labeled 1
        // is mislabeled and adjacent to validation points of class 0.
        let train = dataset(&[(0.0, 0), (0.2, 0), (5.0, 1), (5.2, 1), (0.1, 1)]);
        let valid = dataset(&[(0.05, 0), (0.15, 0)]);
        let phi = knn_shapley(&train, &valid, 1);
        let worst = phi
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(worst, 4, "phi = {phi:?}");
        assert!(phi[4] < 0.0);
    }

    #[test]
    fn helpful_points_score_positive() {
        let train = dataset(&[(0.0, 0), (5.0, 1)]);
        let valid = dataset(&[(0.1, 0), (4.9, 1)]);
        let phi = knn_shapley(&train, &valid, 1);
        assert!(phi.iter().all(|&p| p > 0.0), "{phi:?}");
    }

    #[test]
    fn degenerate_inputs() {
        let train = dataset(&[(0.0, 0)]);
        let empty = train.subset(&[]);
        assert!(knn_shapley(&empty, &train, 1).is_empty());
        assert_eq!(knn_shapley(&train, &empty, 1), vec![0.0]);
        assert_eq!(knn_utility(&empty, &train, 1), 0.0);
    }

    #[test]
    fn k_larger_than_n_is_well_defined() {
        let train = dataset(&[(0.0, 0), (1.0, 1)]);
        let valid = dataset(&[(0.1, 0)]);
        let phi = knn_shapley(&train, &valid, 10);
        let total: f64 = phi.iter().sum();
        assert!((total - knn_utility(&train, &valid, 10)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_distance_ties() {
        let train = dataset(&[(1.0, 0), (1.0, 1), (1.0, 0)]);
        let valid = dataset(&[(1.0, 0)]);
        let a = knn_shapley(&train, &valid, 2);
        let b = knn_shapley(&train, &valid, 2);
        assert_eq!(a, b);
    }

    fn bigger_pair() -> (ClassDataset, ClassDataset) {
        let train = dataset(&[
            (0.0, 0),
            (0.5, 1),
            (1.0, 0),
            (2.0, 1),
            (3.0, 0),
            (4.0, 1),
            (5.0, 0),
            (0.1, 1),
            (4.9, 0),
        ]);
        let valid = dataset(&[
            (0.2, 0),
            (1.5, 1),
            (2.5, 0),
            (3.5, 1),
            (4.5, 0),
            (0.9, 1),
            (2.2, 0),
            (3.8, 1),
            (1.1, 0),
            (4.2, 1),
        ]);
        (train, valid)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cached_shapley_and_utility_match_direct() {
        let (train, valid) = bigger_pair();
        let cache = build_neighbor_cache(&train, &valid);
        for k in [1usize, 3, 5] {
            let direct = knn_shapley(&train, &valid, k);
            let cached = knn_shapley_cached(&cache, &train.y, &valid.y, k);
            assert_eq!(bits(&direct), bits(&cached), "k={k}");
            // The oracle `knn_utility` sums serially, the cached path in
            // chunk partials, so the two agree only to rounding.
            let u_direct = knn_utility(&train, &valid, k);
            let u_cached = knn_utility_cached(&cache, &train.y, &valid.y, k);
            assert!((u_direct - u_cached).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn cached_loo_matches_generic_estimator() {
        let (train, valid) = bigger_pair();
        let cache = build_neighbor_cache(&train, &valid);
        for k in [1usize, 3] {
            let fast = knn_loo_cached(&cache, &train.y, &valid.y, k);
            let game = KnnGame {
                train: &train,
                valid: &valid,
                k,
            };
            let slow = crate::loo::leave_one_out(&game);
            for (f, s) in fast.iter().zip(&slow) {
                assert!((f - s).abs() < 1e-10, "k={k}: {fast:?} vs {slow:?}");
            }
        }
    }

    #[test]
    fn topk_cache_is_prefix_of_full_cache_and_scores_match() {
        let (train, valid) = bigger_pair();
        let full = build_neighbor_cache(&train, &valid);
        for k in [1usize, 3, 5, 20] {
            let topk = build_topk_cache(&train, &valid, k);
            assert_eq!(topk.depth(), (k + 1).min(train.len()));
            for v in 0..valid.len() {
                let prefix = &full.neighbors(v)[..topk.neighbors(v).len()];
                assert_eq!(topk.neighbors(v), prefix, "k={k}, v={v}");
            }
            let u_full = knn_utility_cached(&full, &train.y, &valid.y, k);
            let u_topk = knn_utility_cached(&topk, &train.y, &valid.y, k);
            assert_eq!(u_full.to_bits(), u_topk.to_bits(), "utility k={k}");
            let loo_full = knn_loo_cached(&full, &train.y, &valid.y, k);
            let loo_topk = knn_loo_cached(&topk, &train.y, &valid.y, k);
            assert_eq!(loo_full, loo_topk, "loo k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn topk_cache_refuses_deeper_reads_than_it_holds() {
        let (train, valid) = bigger_pair();
        let topk = build_topk_cache(&train, &valid, 1);
        let _ = knn_utility_cached(&topk, &train.y, &valid.y, 5);
    }

    #[test]
    #[should_panic(expected = "ranks every row")]
    fn shapley_cached_refuses_a_topk_cache() {
        let (train, valid) = bigger_pair();
        let topk = build_topk_cache(&train, &valid, 3);
        let _ = knn_shapley_cached(&topk, &train.y, &valid.y, 3);
    }

    // A label vector of the wrong length, too long or too short, is
    // rejected by name rather than scored or indexed out of bounds.
    #[test]
    #[should_panic(expected = "train_y length must match the cache")]
    fn utility_cached_rejects_long_train_labels() {
        let (mut train, valid) = bigger_pair();
        let cache = build_neighbor_cache(&train, &valid);
        train.y.push(0);
        let _ = knn_utility_cached(&cache, &train.y, &valid.y, 3);
    }

    #[test]
    #[should_panic(expected = "valid_y length must match the cache")]
    fn loo_cached_rejects_short_valid_labels() {
        let (train, valid) = bigger_pair();
        let cache = build_neighbor_cache(&train, &valid);
        let _ = knn_loo_cached(&cache, &train.y, &valid.y[1..], 3);
    }

    #[test]
    #[should_panic(expected = "train_y length must match the cache")]
    fn utility_topk_rejects_short_train_labels() {
        let (train, valid) = bigger_pair();
        let cache = build_topk_cache(&train, &valid, 3);
        let _ = knn_utility_cached(&cache, &train.y[1..], &valid.y, 3);
    }

    #[test]
    #[should_panic(expected = "valid_y length must match the cache")]
    fn loo_topk_rejects_long_valid_labels() {
        let (train, mut valid) = bigger_pair();
        let cache = build_topk_cache(&train, &valid, 3);
        valid.y.push(0);
        let _ = knn_loo_cached(&cache, &train.y, &valid.y, 3);
    }

    #[test]
    fn cache_update_tracks_label_and_feature_repairs() {
        let (mut train, valid) = bigger_pair();
        let mut cache = build_neighbor_cache(&train, &valid);
        // Feature repair: move the stray point at x=0.1 back toward its
        // labeled blob, then re-rank only that row.
        train.x.row_mut(7)[0] = 4.6;
        cache.update_row(7, |t, v| sq_dist(train.x.row(t), valid.x.row(v)));
        // Label repair needs no cache change at all.
        train.y[8] = 1;
        let rebuilt = build_neighbor_cache(&train, &valid);
        for k in [1usize, 3] {
            let warm = knn_shapley_cached(&cache, &train.y, &valid.y, k);
            let cold = knn_shapley_cached(&rebuilt, &train.y, &valid.y, k);
            assert_eq!(warm, cold, "k={k}");
            let direct = knn_shapley(&train, &valid, k);
            assert_eq!(bits(&warm), bits(&direct), "k={k}");
        }
    }
}
