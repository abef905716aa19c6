//! The workspace's one neighbor order, and the two ways to rank under it.
//!
//! Every exact k-NN path — KNN-Shapley, the [`NeighborCache`] lists
//! (full and top-k), k-d-tree search (every fitted k-NN model), the
//! brute-force oracle and retrieval — ranks candidates by ascending
//! `(distance, index)`: distances compare with [`f64::total_cmp`], ties
//! go to the lower index.
//! Because they all rank through this module, the indexed, cached and
//! direct paths agree bit-for-bit.
//!
//! - [`rank_all`] orders every candidate (exact KNN-Shapley needs each
//!   training row's rank), computing each distance exactly once. It sorts
//!   integer keys ([`order_key`]) whose unsigned order is the `total_cmp`
//!   order, then maps them back to the exact distances.
//! - [`KNearest`] keeps only the `k` nearest of a stream of offers, with an
//!   O(1) early reject once full; [`k_nearest`] runs it over a brute-force
//!   scan.
//!
//! [`NeighborCache`]: crate::NeighborCache

use std::cmp::Ordering;

/// The neighbor order: ascending distance under [`f64::total_cmp`], ties
/// broken by ascending index. Total even on NaN, so sorting never panics.
/// Only full-ranking neighbor caches reject NaN (they assert it
/// themselves); top-k caches, k-d-tree search and the brute-force oracle
/// rank it like any other distance.
pub fn cmp<I: Ord>(a: &(f64, I), b: &(f64, I)) -> Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
}

/// An integer key whose unsigned order is [`f64::total_cmp`] order:
/// negative values (sign bit set) flip every bit, so larger magnitudes rank
/// first, and the rest set the sign bit, so they rank after every negative.
/// Distinct bit patterns get distinct keys; [`from_order_key`] inverts it.
pub fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The `f64` whose [`order_key`] is `key`, bit for bit.
pub fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// All candidates `0..n` as `(distance, index)` pairs in neighbor order.
/// `dist(i)` is called exactly once per candidate.
///
/// It sorts `(order_key(distance), index)` pairs packed into one `u128`
/// (key in the high 64 bits), which rank exactly as [`cmp`] ranks
/// `(distance, index)`, and maps each key back to its distance's exact
/// bits.
pub fn rank_all(n: usize, dist: impl Fn(usize) -> f64) -> Vec<(f64, u32)> {
    assert!(
        n <= u32::MAX as usize,
        "too many candidates for u32 indices"
    );
    let mut keyed: Vec<u128> = (0..n)
        .map(|i| u128::from(order_key(dist(i))) << 32 | i as u128)
        .collect();
    // Indices are distinct, so no two keys are equal and the unstable sort
    // is deterministic.
    keyed.sort_unstable();
    keyed
        .into_iter()
        .map(|key| (from_order_key((key >> 32) as u64), key as u32))
        .collect()
}

/// A bounded selector of the `k` nearest `(distance, index)` offers, kept
/// as a vector sorted in neighbor order (k is small in every use here).
/// Once full, an offer no better than the current worst is rejected
/// without touching the vector. It counts every offer, so an index can
/// report how many points a query actually scanned.
#[derive(Debug, Clone)]
pub struct KNearest {
    k: usize,
    items: Vec<(f64, usize)>,
    offered: usize,
}

impl KNearest {
    /// An empty selector that keeps at most `k` candidates.
    pub fn new(k: usize) -> Self {
        KNearest {
            k,
            items: Vec::with_capacity(k),
            offered: 0,
        }
    }

    /// The distance a candidate must beat to enter: the current worst
    /// keeper's once full, `+∞` before.
    pub fn worst_distance(&self) -> f64 {
        match self.items.last() {
            Some(&(d, _)) if self.items.len() == self.k => d,
            _ => f64::INFINITY,
        }
    }

    /// Offers candidate `index` at `distance`.
    pub fn offer(&mut self, distance: f64, index: usize) {
        self.offered += 1;
        let candidate = (distance, index);
        if self.items.len() == self.k {
            // Early reject: a candidate no better than the worst keeper can
            // never enter a full selector, so dense scans pay O(1) per
            // rejected point instead of an O(k) insert-then-pop.
            match self.items.last() {
                Some(worst) if cmp(&candidate, worst) == Ordering::Less => {
                    self.items.pop();
                }
                _ => return,
            }
        }
        let at = self
            .items
            .partition_point(|e| cmp(e, &candidate) == Ordering::Less);
        self.items.insert(at, candidate);
    }

    /// Number of [`KNearest::offer`] calls so far.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// The kept candidates, in neighbor order.
    pub fn into_sorted(self) -> Vec<(f64, usize)> {
        self.items
    }
}

/// The `min(k, n)` nearest of candidates `0..n` in neighbor order, by a
/// brute-force scan that calls `dist(i)` once per candidate. Equals the
/// first `k` entries of [`rank_all`] without sorting all `n`.
pub fn k_nearest(n: usize, k: usize, dist: impl Fn(usize) -> f64) -> Vec<(f64, usize)> {
    let mut best = KNearest::new(k.min(n));
    for i in 0..n {
        best.offer(dist(i), i);
    }
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_distance_then_index() {
        assert_eq!(cmp(&(1.0, 5u32), &(2.0, 0)), Ordering::Less);
        assert_eq!(cmp(&(1.0, 0u32), &(1.0, 5)), Ordering::Less);
        assert_eq!(cmp(&(1.0, 5u32), &(1.0, 5)), Ordering::Equal);
        assert_eq!(
            cmp(&(f64::NAN, 0u32), &(f64::INFINITY, 9)),
            Ordering::Greater
        );
    }

    #[test]
    fn early_reject_keeps_exact_order() {
        let mut best = KNearest::new(3);
        for (d, i) in [(5.0, 0), (1.0, 1), (3.0, 2), (9.0, 3), (1.0, 4), (0.5, 5)] {
            best.offer(d, i);
        }
        assert_eq!(best.items, vec![(0.5, 5), (1.0, 1), (1.0, 4)]);
        assert_eq!(best.offered(), 6);
        assert_eq!(best.worst_distance(), 1.0);
        // Equal-to-worst candidates with a higher index must be rejected.
        best.offer(1.0, 9);
        assert_eq!(best.items, vec![(0.5, 5), (1.0, 1), (1.0, 4)]);
        // …but an equal distance with a *lower* index enters.
        best.offer(1.0, 0);
        assert_eq!(best.items, vec![(0.5, 5), (1.0, 0), (1.0, 1)]);
        assert_eq!(best.offered(), 8);
    }
}
