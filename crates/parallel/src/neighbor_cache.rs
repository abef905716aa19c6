//! Per-validation-point sorted neighbor orderings with incremental
//! invalidation — the data structure behind warm-cache k-NN re-scoring —
//! plus [`TopKCache`], its truncated sibling for paths that only ever
//! read the `k` nearest neighbors.

use crate::neighbor_order::{self, rank_all};
use crate::{par_for_each_mut, par_map_chunks};
use std::cmp::Ordering;

/// For each validation point, the full list of training rows sorted by
/// `(distance, row index)` ascending. Building it costs one full distance
/// matrix + sort (parallelized over validation points); repairing one
/// training row costs a linear scan + binary-search insert per list
/// ([`NeighborCache::update_row`]), which is what makes repeated
/// KNN-Shapley / LOO re-scoring inside a cleaning loop cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborCache {
    n_train: usize,
    /// `lists[v]` is sorted ascending by `(squared distance, train index)`.
    lists: Vec<Vec<(f64, u32)>>,
}

/// Rejects NaN distances: the cached lists feed binary searches and
/// closed-form recursions that assume a meaningful order.
fn checked(distance: f64) -> f64 {
    assert!(!distance.is_nan(), "neighbor distances must not be NaN");
    distance
}

impl NeighborCache {
    /// Chunk width for fan-out over validation points: big enough to
    /// amortize scheduling, small enough to balance skewed lists.
    const CHUNK: usize = 8;

    /// Builds the cache from a distance oracle. `dist(t, v)` must return a
    /// non-NaN distance between training row `t` and validation point `v`
    /// (NaN panics); each list is ranked by [`neighbor_order::rank_all`].
    /// Runs in parallel over validation points, yet the result is
    /// identical for every thread count (each list is a pure function of
    /// its own distances).
    pub fn build<F>(n_train: usize, n_valid: usize, dist: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        assert!(
            n_train <= u32::MAX as usize,
            "training set too large for u32 indices"
        );
        // A cold build is the "miss" side of the warm-path economics the
        // cached importance estimators report as `neighbor_cache.hit`.
        nde_trace::counter("neighbor_cache.miss").incr();
        let mut span = nde_trace::span("neighbor_cache.build");
        span.field("n_train", n_train);
        span.field("n_valid", n_valid);
        let lists: Vec<Vec<(f64, u32)>> = par_map_chunks(n_valid, Self::CHUNK, |range| {
            range
                .map(|v| rank_all(n_train, |t| checked(dist(t, v))))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        NeighborCache { n_train, lists }
    }

    /// Number of training rows each list ranks.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Number of validation points (lists).
    pub fn n_valid(&self) -> usize {
        self.lists.len()
    }

    /// The full sorted neighbor ordering for validation point `v`:
    /// `(squared distance, training row)` ascending by `(distance, index)`.
    pub fn neighbors(&self, v: usize) -> &[(f64, u32)] {
        &self.lists[v]
    }

    /// Re-ranks a single repaired training row. `new_dist(v)` returns the
    /// repaired row's distance to validation point `v`. Each list is
    /// updated by removing the old entry (linear scan) and inserting the
    /// new one at its sorted position (binary search) — O(n) per list
    /// versus O(n log n + n·d) for a rebuild. Updates run in parallel over
    /// lists; the result equals a full rebuild with the new distances.
    pub fn update_row<F>(&mut self, row: usize, new_dist: F)
    where
        F: Fn(usize) -> f64 + Sync,
    {
        assert!(
            row < self.n_train,
            "row {row} out of range (n_train = {})",
            self.n_train
        );
        nde_trace::counter("neighbor_cache.repair").incr();
        let row32 = row as u32;
        par_for_each_mut(&mut self.lists, Self::CHUNK, |v, list| {
            let old = list
                .iter()
                .position(|&(_, t)| t == row32)
                .expect("every training row appears in every list");
            list.remove(old);
            let entry = (checked(new_dist(v)), row32);
            let at = list.partition_point(|e| neighbor_order::cmp(e, &entry) == Ordering::Less);
            list.insert(at, entry);
        });
    }
}

/// A truncated neighbor cache: for each validation point, only the `k`
/// nearest training rows, sorted ascending by `(squared distance, train
/// index)` — the same entry shape and tie-break as [`NeighborCache`], cut
/// off after `k`.
///
/// Exact KNN-Shapley needs the *full* ordering (every training point's
/// rank matters), so it keeps [`NeighborCache`]; prediction, the k-NN
/// utility, and LOO only ever read a `k`-prefix, and a top-k structure fed
/// by sublinear index queries (e.g. a k-d tree) skips the O(n·m·d)
/// distance matrix entirely. Build fan-out runs over validation points
/// with fixed chunk boundaries, so the result is bit-identical for every
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKCache {
    n_train: usize,
    k: usize,
    /// `lists[v]` holds the `min(k, n_train)` nearest training rows of
    /// validation point `v`, sorted ascending by `(distance, index)`.
    lists: Vec<Vec<(f64, u32)>>,
}

impl TopKCache {
    /// Builds the truncated cache from a per-validation-point query
    /// oracle. `query(v)` must return the `min(k, n_train)` nearest
    /// `(squared distance, train index)` pairs for validation point `v`,
    /// sorted ascending with ties broken by train index — exactly what
    /// `KdTree::nearest_with_distances` produces (and identical to a
    /// truncated brute-force scan).
    pub fn build<F>(n_train: usize, n_valid: usize, k: usize, query: F) -> Self
    where
        F: Fn(usize) -> Vec<(f64, u32)> + Sync,
    {
        assert!(
            n_train <= u32::MAX as usize,
            "training set too large for u32 indices"
        );
        nde_trace::counter("neighbor_cache.topk_build").incr();
        let mut span = nde_trace::span("neighbor_cache.build_topk");
        span.field("n_train", n_train);
        span.field("n_valid", n_valid);
        span.field("k", k);
        let expected = k.min(n_train);
        let lists: Vec<Vec<(f64, u32)>> = par_map_chunks(n_valid, Self::CHUNK, |range| {
            range
                .map(|v| {
                    let list = query(v);
                    assert_eq!(
                        list.len(),
                        expected,
                        "query({v}) must return min(k, n_train) neighbors"
                    );
                    debug_assert!(list.is_sorted_by(|a, b| neighbor_order::cmp(a, b).is_le()));
                    list
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        TopKCache { n_train, k, lists }
    }

    /// Chunk width for fan-out over validation points (matches
    /// [`NeighborCache`]).
    const CHUNK: usize = 8;

    /// Number of training rows the cache was built over.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Number of validation points (lists).
    pub fn n_valid(&self) -> usize {
        self.lists.len()
    }

    /// The truncation depth `k` the cache was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `min(k, n_train)` nearest neighbors of validation point `v`:
    /// `(squared distance, training row)` ascending by `(distance, index)`
    /// — a prefix of the corresponding [`NeighborCache::neighbors`] list.
    pub fn neighbors(&self, v: usize) -> &[(f64, u32)] {
        &self.lists[v]
    }

    /// Re-ranks a single repaired training row — the truncated sibling of
    /// [`NeighborCache::update_row`]. `new_dist(v)` returns the repaired
    /// row's distance to validation point `v`; `requery(v)` must return
    /// what [`TopKCache::build`]'s `query(v)` would return now. Each list
    /// compares the repaired entry under [`neighbor_order::cmp`]:
    ///
    /// - row not in the list: the entry enters only if it beats the
    ///   list's worst, which it displaces (exact: no other entry moved);
    /// - row in the list, entry no worse than before: it is re-positioned;
    /// - row in the list, entry farther than before: a row outside the
    ///   list may now belong in it, so the list becomes `requery(v)`.
    ///
    /// Lists are repaired serially (each is a `k`-entry scan). The result
    /// equals a fresh [`TopKCache::build`] with the new distances.
    pub fn update_row<F, Q>(&mut self, row: usize, new_dist: F, requery: Q)
    where
        F: Fn(usize) -> f64,
        Q: Fn(usize) -> Vec<(f64, u32)>,
    {
        assert!(
            row < self.n_train,
            "row {row} out of range (n_train = {})",
            self.n_train
        );
        nde_trace::counter("neighbor_cache.topk_repair").incr();
        let expected = self.k.min(self.n_train);
        let row32 = row as u32;
        for (v, list) in self.lists.iter_mut().enumerate() {
            let entry = (new_dist(v), row32);
            let insert = |list: &mut Vec<(f64, u32)>| {
                let at = list.partition_point(|e| neighbor_order::cmp(e, &entry) == Ordering::Less);
                list.insert(at, entry);
            };
            match list.iter().position(|&(_, t)| t == row32) {
                None => {
                    if list
                        .last()
                        .is_some_and(|worst| neighbor_order::cmp(&entry, worst) == Ordering::Less)
                    {
                        list.pop();
                        insert(list);
                    }
                }
                Some(old) if neighbor_order::cmp(&entry, &list[old]).is_le() => {
                    list.remove(old);
                    insert(list);
                }
                Some(_) => {
                    nde_trace::counter("neighbor_cache.topk_requery").incr();
                    *list = requery(v);
                    assert_eq!(
                        list.len(),
                        expected,
                        "requery({v}) must return min(k, n_train) neighbors"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-data without external crates.
    fn point(i: usize, dims: usize, salt: u64) -> Vec<f64> {
        (0..dims)
            .map(|d| {
                let z = crate::chunk_seed(salt, (i * dims + d) as u64);
                (z % 1000) as f64 / 100.0
            })
            .collect()
    }

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn lists_are_sorted_and_complete() {
        let train: Vec<Vec<f64>> = (0..40).map(|i| point(i, 3, 1)).collect();
        let valid: Vec<Vec<f64>> = (0..9).map(|i| point(i, 3, 2)).collect();
        let cache = NeighborCache::build(40, 9, |t, v| sq_dist(&train[t], &valid[v]));
        assert_eq!(cache.n_valid(), 9);
        assert_eq!(cache.n_train(), 40);
        for v in 0..9 {
            let list = cache.neighbors(v);
            assert_eq!(list.len(), 40);
            assert!(list.is_sorted_by(|a, b| neighbor_order::cmp(a, b).is_le()));
            let mut seen: Vec<u32> = list.iter().map(|&(_, t)| t).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..40).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let mut train: Vec<Vec<f64>> = (0..30).map(|i| point(i, 4, 3)).collect();
        let valid: Vec<Vec<f64>> = (0..7).map(|i| point(i, 4, 4)).collect();
        let mut cache = NeighborCache::build(30, 7, |t, v| sq_dist(&train[t], &valid[v]));

        for (step, &row) in [0usize, 17, 29, 17].iter().enumerate() {
            train[row] = point(100 + step, 4, 5);
            cache.update_row(row, |v| sq_dist(&train[row], &valid[v]));
            let rebuilt = NeighborCache::build(30, 7, |t, v| sq_dist(&train[t], &valid[v]));
            assert_eq!(cache, rebuilt, "divergence after repairing row {row}");
        }
    }

    #[test]
    fn tie_break_is_by_train_index() {
        // All training rows equidistant from the single validation point.
        let cache = NeighborCache::build(12, 1, |_, _| 2.5);
        let order: Vec<u32> = cache.neighbors(0).iter().map(|&(_, t)| t).collect();
        assert_eq!(order, (0..12).collect::<Vec<u32>>());
    }

    /// Brute-force top-k query oracle with the cache's tie-break, written
    /// out independently of `neighbor_order`.
    fn brute_top_k(train: &[Vec<f64>], valid: &[Vec<f64>], v: usize, k: usize) -> Vec<(f64, u32)> {
        let mut list: Vec<(f64, u32)> = train
            .iter()
            .enumerate()
            .map(|(t, row)| (sq_dist(row, &valid[v]), t as u32))
            .collect();
        list.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        list.truncate(k.min(train.len()));
        list
    }

    #[test]
    fn topk_cache_is_a_prefix_of_the_full_cache() {
        let train: Vec<Vec<f64>> = (0..40).map(|i| point(i, 3, 1)).collect();
        let valid: Vec<Vec<f64>> = (0..9).map(|i| point(i, 3, 2)).collect();
        let full = NeighborCache::build(40, 9, |t, v| sq_dist(&train[t], &valid[v]));
        for k in [1usize, 5, 40, 60] {
            let topk = TopKCache::build(40, 9, k, |v| brute_top_k(&train, &valid, v, k));
            assert_eq!(topk.k(), k);
            assert_eq!(topk.n_train(), 40);
            assert_eq!(topk.n_valid(), 9);
            for v in 0..9 {
                assert_eq!(
                    topk.neighbors(v),
                    &full.neighbors(v)[..k.min(40)],
                    "k={k}, v={v}"
                );
            }
        }
    }

    #[test]
    fn topk_update_requeries_only_lists_the_row_left() {
        // Row 3 is the second-nearest of point 0 and the farthest of
        // point 1; moving it to distance 20 pushes it out of point 0's
        // top 2 only.
        let mut dist = vec![
            vec![1.0, 9.0],
            vec![4.0, 8.0],
            vec![5.0, 7.0],
            vec![2.0, 10.0],
        ];
        let query = |dist: &[Vec<f64>], v: usize| -> Vec<(f64, u32)> {
            crate::neighbor_order::k_nearest(dist.len(), 2, |t| dist[t][v])
                .into_iter()
                .map(|(d, t)| (d, t as u32))
                .collect()
        };
        let mut cache = TopKCache::build(4, 2, 2, |v| query(&dist, v));
        dist[3] = vec![20.0, 20.0];
        let requeried = std::cell::RefCell::new(Vec::new());
        cache.update_row(
            3,
            |v| dist[3][v],
            |v| {
                requeried.borrow_mut().push(v);
                query(&dist, v)
            },
        );
        assert_eq!(requeried.into_inner(), vec![0]);
        assert_eq!(cache, TopKCache::build(4, 2, 2, |v| query(&dist, v)));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn build_rejects_nan_distances() {
        let _ = NeighborCache::build(4, 2, |t, v| if t == 2 && v == 1 { f64::NAN } else { 1.0 });
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn update_row_rejects_nan_distances() {
        let mut cache = NeighborCache::build(4, 2, |t, v| (t + v) as f64);
        cache.update_row(3, |v| if v == 1 { f64::NAN } else { 0.5 });
    }

    #[test]
    #[should_panic(expected = "min(k, n_train) neighbors")]
    fn topk_cache_rejects_short_lists() {
        let _ = TopKCache::build(10, 2, 5, |_| vec![(0.0, 0)]);
    }
}
