//! Property-based tests for the deterministic parallel layer: the
//! incremental [`NeighborCache`] repairs, of full and of top-k lists, must
//! be indistinguishable from rebuilding the cache from scratch, for any
//! data and repair sequence, and the neighbor-order rankings must equal an
//! independent full sort.

use nde_parallel::neighbor_order::{k_nearest, rank_all, KNearest};
use nde_parallel::NeighborCache;
use proptest::prelude::*;

/// The neighbor order written out independently of `neighbor_order`: a
/// full sort by distance, then index.
fn reference_ranking(dists: &[f64]) -> Vec<(f64, usize)> {
    let mut all: Vec<(f64, usize)> = dists.iter().copied().zip(0..).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    all
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn arb_points(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, d..=d), n..=n)
}

/// A distance that often ties (four small integers) and is NaN of either
/// sign in a third of draws (the finite kinds are listed twice); the
/// neighbor order ranks `-NaN` first and `NaN` last.
fn arb_distance() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0usize..4).prop_map(|d| d as f64),
        0.0f64..50.0,
        (0usize..4).prop_map(|d| d as f64),
        0.0f64..50.0,
        Just(f64::NAN),
        Just(-f64::NAN),
    ]
}

/// A top-k [`NeighborCache`] fed by the brute-force `k_nearest` oracle
/// over a `dists[train][valid]` matrix.
fn topk_from_oracle(dists: &[Vec<f64>], n_valid: usize, k: usize) -> NeighborCache {
    NeighborCache::top_k(dists.len(), n_valid, k, |v| oracle_list(dists, v, k))
}

fn oracle_list(dists: &[Vec<f64>], v: usize, k: usize) -> Vec<(f64, u32)> {
    k_nearest(dists.len(), k, |t| dists[t][v])
        .into_iter()
        .map(|(d, t)| (d, t as u32))
        .collect()
}

/// Every list with its distances as bits, so NaN entries compare equal.
fn topk_bits(cache: &NeighborCache) -> Vec<Vec<(u64, u32)>> {
    (0..cache.n_valid())
        .map(|v| {
            cache
                .neighbors(v)
                .iter()
                .map(|&(d, t)| (d.to_bits(), t))
                .collect()
        })
        .collect()
}

proptest! {
    /// A sequence of single-row repairs applied with `update_row` yields
    /// exactly the cache that `build` would produce from the final state —
    /// same neighbors, same order, same distances, bit for bit. Up to 19
    /// validation points span three 8-list chunks, so repairs run on one
    /// worker or fan out, whichever `NDE_THREADS` allows.
    #[test]
    fn incremental_repair_matches_full_rebuild(
        (train, valid, repairs) in (2usize..12, 1usize..20, 1usize..3).prop_flat_map(
            |(n_train, n_valid, d)| {
                (
                    arb_points(n_train, d),
                    arb_points(n_valid, d),
                    prop::collection::vec(
                        ((0..n_train), prop::collection::vec(-50.0f64..50.0, d..=d)),
                        1..6,
                    ),
                )
            },
        )
    ) {
        let mut train = train;
        let mut cache = NeighborCache::build(train.len(), valid.len(), |t, v| {
            sq_dist(&train[t], &valid[v])
        });
        for (row, new_point) in repairs {
            train[row] = new_point;
            let train_ref = &train;
            let valid_ref = &valid;
            cache.update_row(row, |t, v| sq_dist(&train_ref[t], &valid_ref[v]));
        }
        let rebuilt = NeighborCache::build(train.len(), valid.len(), |t, v| {
            sq_dist(&train[t], &valid[v])
        });
        prop_assert_eq!(&cache, &rebuilt);
    }

    /// A sequence of single-row repairs applied with `update_row` to a
    /// top-k cache yields, after every step, exactly the cache
    /// a fresh oracle-fed `build` produces — for k = 1, 3, n and n + 5.
    /// Each repair redraws some of the row's distances and keeps the rest,
    /// so rows move nearer, move farther, stay put, and enter or leave
    /// lists; ties and NaNs of either sign are common. As above, up to 19
    /// validation points let repairs fan out over workers.
    #[test]
    fn topk_repair_matches_a_fresh_build(
        (dists, n_valid, repairs) in (1usize..14, 1usize..20).prop_flat_map(
            |(n_train, n_valid)| {
                (
                    prop::collection::vec(
                        prop::collection::vec(arb_distance(), n_valid..=n_valid),
                        n_train..=n_train,
                    ),
                    Just(n_valid),
                    prop::collection::vec(
                        (
                            0..n_train,
                            prop::collection::vec(
                                prop::option::of(arb_distance()),
                                n_valid..=n_valid,
                            ),
                        ),
                        1..8,
                    ),
                )
            },
        )
    ) {
        let mut dists = dists;
        let n = dists.len();
        let depths = [1, 3, n, n + 5];
        let mut caches: Vec<NeighborCache> = depths
            .iter()
            .map(|&k| topk_from_oracle(&dists, n_valid, k))
            .collect();
        for (row, redraw) in repairs {
            for (v, new) in redraw.into_iter().enumerate() {
                if let Some(d) = new {
                    dists[row][v] = d;
                }
            }
            for (cache, &k) in caches.iter_mut().zip(&depths) {
                cache.update_row(row, |t, v| dists[t][v]);
                let fresh = topk_from_oracle(&dists, n_valid, k);
                prop_assert_eq!(topk_bits(cache), topk_bits(&fresh), "k = {}, row {}", k, row);
                if k >= n {
                    for v in 0..n_valid {
                        prop_assert_eq!(cache.neighbors(v).len(), n);
                    }
                }
            }
        }
    }

    /// A chunked float sum folded in chunk order is bit-identical to the
    /// single-worker fold for any worker cap.
    #[test]
    fn par_reduce_is_worker_count_invariant(
        values in prop::collection::vec(-1e6f64..1e6, 0..80),
        workers in 1usize..9,
    ) {
        let sum = |w: usize| {
            nde_parallel::par_map_chunks_with(w, values.len(), 5, |r| {
                r.map(|i| values[i]).fold(0.0f64, |a, b| a + b)
            })
            .into_iter()
            .fold(0.0f64, |acc, part| acc + part)
        };
        prop_assert_eq!(sum(workers).to_bits(), sum(1).to_bits());
    }

    /// `rank_all` equals the reference sort, and the k-nearest selector
    /// equals its prefix for k = 0, 1, n and n + 5 — whether fed in index
    /// order (`k_nearest`) or in reverse, as a tree search might. Half the
    /// distances come from four values, so ties are common.
    #[test]
    fn rankings_match_an_independent_full_sort(
        dists in prop::collection::vec(
            prop_oneof![(0usize..4).prop_map(|d| d as f64), -50.0f64..50.0],
            0..40,
        )
    ) {
        let n = dists.len();
        let reference = reference_ranking(&dists);
        let ranked: Vec<(f64, usize)> = rank_all(n, |i| dists[i])
            .into_iter()
            .map(|(d, i)| (d, i as usize))
            .collect();
        prop_assert_eq!(&ranked, &reference);
        for k in [0, 1, n, n + 5] {
            let prefix = &reference[..k.min(n)];
            prop_assert_eq!(&k_nearest(n, k, |i| dists[i]), prefix);
            let mut reversed = KNearest::new(k.min(n));
            for i in (0..n).rev() {
                reversed.offer(dists[i], i);
            }
            prop_assert_eq!(reversed.offered(), n);
            prop_assert_eq!(&reversed.into_sorted(), prefix);
        }
    }
}
