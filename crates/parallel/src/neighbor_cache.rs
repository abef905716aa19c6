//! Per-validation-point sorted neighbor lists with incremental repair —
//! the data structure behind warm-cache k-NN re-scoring and re-evaluation.

use crate::neighbor_order::{self, k_nearest, rank_all};
use crate::{par_for_each_mut, par_map_chunks};
use std::cmp::Ordering;

/// For each validation point, training rows sorted by `(distance, row
/// index)` ascending: either every row ([`NeighborCache::build`], which
/// exact KNN-Shapley needs) or only the `k` nearest
/// ([`NeighborCache::top_k`], enough for prediction, the k-NN utility and
/// LOO, and fillable by index queries that skip the full distance matrix).
/// Repairing one training row ([`NeighborCache::update_row`]) costs a
/// scan and a binary-search insert per list instead of a rebuild, which is
/// what makes repeated re-scoring inside a cleaning loop cheap. Builds and
/// repairs fan out over validation points, yet the result is identical for
/// every thread count (each list is a pure function of its own distances).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborCache {
    n_train: usize,
    /// `None` when every list ranks all training rows, `Some(k)` when it
    /// holds only the `min(k, n_train)` nearest.
    top_k: Option<usize>,
    /// `lists[v]` is sorted ascending by `(squared distance, train index)`.
    lists: Vec<Vec<(f64, u32)>>,
}

/// Rejects NaN distances in full rankings: they feed closed-form
/// recursions that assume a meaningful order.
fn reject_nan(distance: f64) -> f64 {
    assert!(!distance.is_nan(), "neighbor distances must not be NaN");
    distance
}

/// Validates a top-k query or re-query result for list `v`.
fn checked_list(v: usize, list: Vec<(f64, u32)>, expected: usize) -> Vec<(f64, u32)> {
    assert_eq!(
        list.len(),
        expected,
        "list {v} must hold min(k, n_train) neighbors"
    );
    assert!(
        list.is_sorted_by(|a, b| neighbor_order::cmp(a, b).is_le()),
        "list {v} must be sorted in neighbor order"
    );
    list
}

fn insert_sorted(list: &mut Vec<(f64, u32)>, entry: (f64, u32)) {
    let at = list.partition_point(|e| neighbor_order::cmp(e, &entry) == Ordering::Less);
    list.insert(at, entry);
}

impl NeighborCache {
    /// Chunk width for fan-out over validation points: big enough to
    /// amortize scheduling, small enough to balance skewed lists.
    const CHUNK: usize = 8;

    /// Builds a full-ranking cache from a distance oracle. `dist(t, v)`
    /// must return a non-NaN distance between training row `t` and
    /// validation point `v` (NaN panics); each list is ranked by
    /// [`neighbor_order::rank_all`].
    pub fn build<F>(n_train: usize, n_valid: usize, dist: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        // A cold build is the "miss" side of the warm-path economics the
        // cached importance estimators report as `neighbor_cache.hit`.
        nde_trace::counter("neighbor_cache.miss").incr();
        let mut span = nde_trace::span("neighbor_cache.build");
        span.field("n_train", n_train);
        span.field("n_valid", n_valid);
        Self::collect(n_train, n_valid, None, |v| {
            rank_all(n_train, |t| reject_nan(dist(t, v)))
        })
    }

    /// Builds a top-k cache from a per-validation-point query oracle.
    /// `query(v)` must return the `min(k, n_train)` nearest `(squared
    /// distance, train index)` pairs for validation point `v` in neighbor
    /// order — exactly what `KdTree::nearest_with_distances` produces (and
    /// identical to a truncated brute-force scan). NaN distances are
    /// accepted; they rank as [`neighbor_order::cmp`] says.
    pub fn top_k<F>(n_train: usize, n_valid: usize, k: usize, query: F) -> Self
    where
        F: Fn(usize) -> Vec<(f64, u32)> + Sync,
    {
        nde_trace::counter("neighbor_cache.topk_build").incr();
        let mut span = nde_trace::span("neighbor_cache.build_topk");
        span.field("n_train", n_train);
        span.field("n_valid", n_valid);
        span.field("k", k);
        let expected = k.min(n_train);
        Self::collect(n_train, n_valid, Some(k), |v| {
            checked_list(v, query(v), expected)
        })
    }

    fn collect<L>(n_train: usize, n_valid: usize, top_k: Option<usize>, list: L) -> Self
    where
        L: Fn(usize) -> Vec<(f64, u32)> + Sync,
    {
        assert!(
            n_train <= u32::MAX as usize,
            "training set too large for u32 indices"
        );
        let lists = par_map_chunks(n_valid, Self::CHUNK, |range| {
            range.map(&list).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        NeighborCache {
            n_train,
            top_k,
            lists,
        }
    }

    /// Number of training rows the cache was built over.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Number of validation points (lists).
    pub fn n_valid(&self) -> usize {
        self.lists.len()
    }

    /// How many neighbors a list holds at most: `k` for a top-k cache,
    /// `n_train` for a full ranking.
    pub fn depth(&self) -> usize {
        self.top_k.unwrap_or(self.n_train)
    }

    /// The sorted neighbors of validation point `v`: `(squared distance,
    /// training row)` ascending by `(distance, index)`, `min(depth,
    /// n_train)` of them. A top-k list is a prefix of the full ranking.
    pub fn neighbors(&self, v: usize) -> &[(f64, u32)] {
        &self.lists[v]
    }

    /// Re-ranks a single repaired training row. `dist(t, v)` returns the
    /// current distance between training row `t` and validation point
    /// `v`. Each list compares the row's new entry with its old one under
    /// [`neighbor_order::cmp`]:
    ///
    /// - full ranking: the row is re-positioned (linear scan plus
    ///   binary-search insert — O(n) versus O(n log n + n·d) to rebuild);
    /// - top-k, row in the list and no farther than before: re-positioned;
    /// - top-k, row not in the list: it enters only if it beats the list's
    ///   worst, which it displaces (exact: no other entry moved);
    /// - top-k, row in the list and farther than before: a row outside the
    ///   list may now belong in it, so the list is re-queried by a
    ///   brute-force scan of `dist(·, v)`.
    ///
    /// Only that re-query calls `dist` for rows other than `row`. Lists are
    /// repaired in parallel; the result equals a fresh build with the new
    /// distances.
    pub fn update_row<F>(&mut self, row: usize, dist: F)
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        assert!(
            row < self.n_train,
            "row {row} out of range (n_train = {})",
            self.n_train
        );
        let (n_train, top_k) = (self.n_train, self.top_k);
        nde_trace::counter(match top_k {
            None => "neighbor_cache.repair",
            Some(_) => "neighbor_cache.topk_repair",
        })
        .incr();
        let row32 = row as u32;
        par_for_each_mut(&mut self.lists, Self::CHUNK, |v, list| {
            let entry = (dist(row, v), row32);
            let old = list.iter().position(|&(_, t)| t == row32);
            let Some(k) = top_k else {
                // A full ranking holds every row, so the row only moves.
                reject_nan(entry.0);
                list.remove(old.expect("every training row appears in every full list"));
                insert_sorted(list, entry);
                return;
            };
            match old {
                None => {
                    if list
                        .last()
                        .is_some_and(|worst| neighbor_order::cmp(&entry, worst) == Ordering::Less)
                    {
                        list.pop();
                        insert_sorted(list, entry);
                    }
                }
                Some(old) if neighbor_order::cmp(&entry, &list[old]).is_le() => {
                    list.remove(old);
                    insert_sorted(list, entry);
                }
                Some(_) => {
                    nde_trace::counter("neighbor_cache.topk_requery").incr();
                    let nearest = k_nearest(n_train, k, |t| dist(t, v))
                        .into_iter()
                        .map(|(d, t)| (d, t as u32))
                        .collect();
                    *list = checked_list(v, nearest, k.min(n_train));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Mutex;

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
        assert_eq!(cache.depth(), 40);
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
            cache.update_row(row, |t, v| sq_dist(&train[t], &valid[v]));
            let rebuilt = NeighborCache::build(30, 7, |t, v| sq_dist(&train[t], &valid[v]));
            assert_eq!(cache, rebuilt, "divergence after repairing row {row}");
        }
    }

    /// A full ranking holds every row, so a repair only ever re-positions
    /// the row — even when it moves farther from every point, the case in
    /// which a top-k list would re-query.
    #[test]
    fn full_ranking_repair_never_requeries() {
        let mut train: Vec<Vec<f64>> = (0..30).map(|i| point(i, 3, 6)).collect();
        let valid: Vec<Vec<f64>> = (0..20).map(|i| point(i, 3, 7)).collect();
        let mut cache = NeighborCache::build(30, 20, |t, v| sq_dist(&train[t], &valid[v]));
        let row = 11;
        train[row] = vec![1e3; 3];
        let other_rows = AtomicUsize::new(0);
        cache.update_row(row, |t, v| {
            if t != row {
                other_rows.fetch_add(1, AtomicOrdering::Relaxed);
            }
            sq_dist(&train[t], &valid[v])
        });
        assert_eq!(other_rows.into_inner(), 0);
        let rebuilt = NeighborCache::build(30, 20, |t, v| sq_dist(&train[t], &valid[v]));
        assert_eq!(cache, rebuilt);
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
            let topk = NeighborCache::top_k(40, 9, k, |v| brute_top_k(&train, &valid, v, k));
            assert_eq!(topk.depth(), k);
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
        let mut cache = NeighborCache::top_k(4, 2, 2, |v| query(&dist, v));
        dist[3] = vec![20.0, 20.0];
        // A re-query is the only repair step that reads rows other than 3.
        let requeried = Mutex::new(Vec::new());
        cache.update_row(3, |t, v| {
            if t != 3 {
                requeried.lock().unwrap().push(v);
            }
            dist[t][v]
        });
        let mut requeried = requeried.into_inner().unwrap();
        requeried.sort_unstable();
        requeried.dedup();
        assert_eq!(requeried, vec![0]);
        assert_eq!(cache, NeighborCache::top_k(4, 2, 2, |v| query(&dist, v)));
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
        cache.update_row(3, |_, v| if v == 1 { f64::NAN } else { 0.5 });
    }

    #[test]
    #[should_panic(expected = "min(k, n_train) neighbors")]
    fn topk_cache_rejects_short_lists() {
        let _ = NeighborCache::top_k(10, 2, 5, |_| vec![(0.0, 0)]);
    }
}
