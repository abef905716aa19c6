//! Space-saving heavy-hitters sketch for categorical columns (Metwally,
//! Agrawal & El Abbadi, ICDT 2005) with deterministic tie-breaking.

use crate::distinct::hash_str;
use std::collections::BTreeMap;

/// Default tracked-key capacity ([`HeavyHitters::new`]).
pub const DEFAULT_HEAVY_CAPACITY: usize = 64;

/// Space-saving frequent-items sketch: at most `capacity` keys are
/// tracked; when a new key arrives at a full sketch it replaces the
/// current minimum-count key, inheriting its count as the new key's
/// overestimation error. All tie-breaks (which minimum to evict, trim
/// order after merges) use lexicographic key order, so the sketch is
/// fully deterministic — same pushes, same bits.
///
/// The keys live in slots: parallel vectors of key buffers, key hashes
/// and `(count, error)` pairs, plus `order`, the slot indices in ascending
/// key order. A lookup scans the hashes and compares a key only on a hash
/// match; an increment touches one count; an eviction reuses the victim's
/// key buffer, so a full sketch observing near-unique keys allocates only
/// when a key outgrows the buffer it lands in. `order` changes only on
/// insert and evict. Equality, [`HeavyHitters::state`] and the JSON form
/// are the logical, key-sorted view, independent of slot positions.
#[derive(Debug, Clone)]
pub struct HeavyHitters {
    capacity: usize,
    /// Slot key buffers.
    keys: Vec<String>,
    /// `hash_str` of each slot's key.
    hashes: Vec<u64>,
    /// Each slot's (count, overestimation error).
    counts: Vec<(u64, u64)>,
    /// Slot indices in ascending key order.
    order: Vec<u32>,
    /// Total non-null values observed.
    total: u64,
}

impl HeavyHitters {
    /// An empty sketch with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_HEAVY_CAPACITY)
    }

    /// An empty sketch tracking at most `capacity` keys (`>= 1`).
    pub fn with_capacity(capacity: usize) -> Self {
        HeavyHitters {
            capacity: capacity.max(1),
            keys: Vec::new(),
            hashes: Vec::new(),
            counts: Vec::new(),
            order: Vec::new(),
            total: 0,
        }
    }

    /// Total non-null values observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Tracked-key capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether eviction has ever occurred (counts are then upper bounds).
    pub fn saturated(&self) -> bool {
        self.counts.iter().any(|&(_, err)| err > 0)
    }

    /// Observes one key.
    pub fn push(&mut self, key: &str) {
        self.push_hashed(key, hash_str(key));
    }

    /// Observes one key whose [`hash_str`] the caller already computed.
    pub(crate) fn push_hashed(&mut self, key: &str, hash: u64) {
        debug_assert_eq!(hash, hash_str(key));
        self.total += 1;
        if let Some(slot) = self.find(key, hash) {
            self.counts[slot].0 += 1;
            return;
        }
        if self.keys.len() < self.capacity {
            let slot = self.keys.len();
            self.keys.push(key.to_owned());
            self.hashes.push(hash);
            self.counts.push((1, 0));
            self.insert_in_order(slot);
            return;
        }
        // Evict the minimum-count key, the smallest key among tied minima:
        // the first slot in key order that holds the minimum count.
        let min = self
            .counts
            .iter()
            .map(|&(count, _)| count)
            .min()
            .expect("non-empty at capacity");
        let pos = self
            .order
            .iter()
            .position(|&s| self.counts[s as usize].0 == min)
            .expect("the minimum is held by some slot");
        let slot = self.order.remove(pos) as usize;
        let buffer = &mut self.keys[slot];
        buffer.clear();
        buffer.push_str(key);
        self.hashes[slot] = hash;
        self.counts[slot] = (min + 1, min);
        self.insert_in_order(slot);
    }

    /// The slot holding `key`, if tracked.
    fn find(&self, key: &str, hash: u64) -> Option<usize> {
        self.hashes
            .iter()
            .enumerate()
            .find(|&(slot, &h)| h == hash && self.keys[slot] == key)
            .map(|(slot, _)| slot)
    }

    /// Files `slot`, whose key is not yet in `order`, at its key position.
    fn insert_in_order(&mut self, slot: usize) {
        let key = self.keys[slot].as_str();
        let pos = self
            .order
            .binary_search_by(|&s| self.keys[s as usize].as_str().cmp(key))
            .expect_err("keys are unique");
        self.order.insert(pos, slot as u32);
    }

    /// Tracked `(key, count, error)` triples in ascending key order.
    fn entries(&self) -> impl Iterator<Item = (&str, u64, u64)> + '_ {
        self.order.iter().map(move |&s| {
            let (count, err) = self.counts[s as usize];
            (self.keys[s as usize].as_str(), count, err)
        })
    }

    /// Folds `other` into `self`: counts and errors add for shared keys,
    /// then the union is trimmed back to capacity keeping the largest
    /// counts (ties broken by key order). Deterministic for a fixed
    /// operand order.
    pub fn merge(&mut self, other: &HeavyHitters) {
        let mut entries = self.state().2;
        for (key, count, err) in other.entries() {
            let entry = entries.entry(key.to_owned()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += err;
        }
        if entries.len() > self.capacity {
            let mut ranked: Vec<(String, (u64, u64))> = entries.into_iter().collect();
            // Largest counts first; lexicographically smaller key wins ties.
            ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(self.capacity);
            // Evicted mass becomes overestimation pressure on survivors:
            // mark the sketch saturated by bumping the smallest survivor's
            // error (count bounds stay valid upper bounds).
            entries = ranked.into_iter().collect();
            if let Some(entry) = entries.values_mut().min_by_key(|e| e.0) {
                entry.1 = entry.1.max(1);
            }
        }
        *self = Self::from_state(self.capacity, self.total + other.total, entries);
    }

    /// Tracked keys with their counts, sorted by count descending then
    /// key ascending (a deterministic leaderboard).
    pub fn top(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .entries()
            .map(|(k, count, _)| (k.to_owned(), count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// `key → share of observed values`, for PSI-style comparisons.
    pub fn shares(&self) -> BTreeMap<String, f64> {
        if self.total == 0 {
            return BTreeMap::new();
        }
        self.entries()
            .map(|(k, count, _)| (k.to_owned(), count as f64 / self.total as f64))
            .collect()
    }

    /// Number of tracked keys.
    pub fn tracked(&self) -> usize {
        self.keys.len()
    }

    /// Tracked keys in ascending order. Until the sketch is
    /// [`saturated`](HeavyHitters::saturated) these are exactly the
    /// distinct values observed.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries().map(|(k, _, _)| k)
    }

    /// Internal state for serialization: `(capacity, total, entries)`,
    /// with `entries` mapping each tracked key to `(count, error)`.
    pub fn state(&self) -> (usize, u64, BTreeMap<String, (u64, u64)>) {
        let entries = self
            .entries()
            .map(|(k, count, err)| (k.to_owned(), (count, err)))
            .collect();
        (self.capacity, self.total, entries)
    }

    /// Rebuilds a sketch from [`HeavyHitters::state`] output.
    pub fn from_state(capacity: usize, total: u64, entries: BTreeMap<String, (u64, u64)>) -> Self {
        let n = entries.len();
        let mut sketch = HeavyHitters {
            capacity: capacity.max(1),
            keys: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
            counts: Vec::with_capacity(n),
            // The map iterates in key order, so slot `i` is the `i`-th key.
            order: (0..n as u32).collect(),
            total,
        };
        for (key, counts) in entries {
            sketch.hashes.push(hash_str(&key));
            sketch.keys.push(key);
            sketch.counts.push(counts);
        }
        sketch
    }
}

impl PartialEq for HeavyHitters {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.total == other.total
            && self.tracked() == other.tracked()
            && self.entries().eq(other.entries())
    }
}

impl Default for HeavyHitters {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut hh = HeavyHitters::with_capacity(8);
        for key in ["a", "b", "a", "c", "a", "b"] {
            hh.push(key);
        }
        assert_eq!(
            hh.top(),
            vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]
        );
        assert!(!hh.saturated());
        assert_eq!(hh.total(), 6);
        let shares = hh.shares();
        assert!((shares["a"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_keeps_heavy_keys() {
        let mut hh = HeavyHitters::with_capacity(2);
        for _ in 0..50 {
            hh.push("heavy");
        }
        for i in 0..10 {
            hh.push(&format!("rare{i}"));
        }
        assert!(hh.saturated());
        let top = hh.top();
        assert_eq!(top[0].0, "heavy");
        assert!(top[0].1 >= 50, "count is an upper bound: {:?}", top);
        assert_eq!(hh.tracked(), 2);
    }

    #[test]
    fn eviction_picks_the_smallest_key_among_tied_minima() {
        let mut hh = HeavyHitters::with_capacity(4);
        for key in ["m", "d", "d", "q", "b"] {
            hh.push(key);
        }
        // "b", "m" and "q" tie at count 1; "b" is evicted, whatever the
        // insertion order, and "d" (count 2) survives.
        hh.push("z");
        assert_eq!(hh.keys().collect::<Vec<_>>(), ["d", "m", "q", "z"]);
        assert_eq!(hh.state().2["z"], (2, 1));
        // The next eviction takes "m", the smallest of the remaining ties.
        hh.push("a");
        assert_eq!(hh.keys().collect::<Vec<_>>(), ["a", "d", "q", "z"]);
        assert_eq!(hh.state().2["a"], (2, 1));
    }

    #[test]
    fn merge_is_deterministic_and_sums_counts() {
        let build = |keys: &[&str]| {
            let mut hh = HeavyHitters::with_capacity(4);
            for k in keys {
                hh.push(k);
            }
            hh
        };
        let mut a = build(&["x", "y", "x"]);
        let b = build(&["y", "z"]);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(
            a.top(),
            vec![("x".into(), 2), ("y".into(), 2), ("z".into(), 1)]
        );
        // Re-merging identical operands gives identical bits.
        let mut a2 = build(&["x", "y", "x"]);
        a2.merge(&build(&["y", "z"]));
        assert_eq!(a, a2);
    }

    #[test]
    fn merge_trims_to_capacity_deterministically() {
        let mut a = HeavyHitters::with_capacity(2);
        a.push("a");
        a.push("a");
        a.push("b");
        let mut b = HeavyHitters::with_capacity(2);
        b.push("c");
        b.push("c");
        b.push("c");
        a.merge(&b);
        assert_eq!(a.tracked(), 2);
        let top = a.top();
        assert_eq!(top[0], ("c".into(), 3));
        assert_eq!(top[1], ("a".into(), 2));
        assert!(a.saturated(), "trim marks the sketch approximate");
    }

    #[test]
    fn state_round_trips() {
        let mut hh = HeavyHitters::with_capacity(3);
        for k in ["p", "q", "p", "r", "s"] {
            hh.push(k);
        }
        let (capacity, total, entries) = hh.state();
        let rebuilt = HeavyHitters::from_state(capacity, total, entries);
        assert_eq!(rebuilt, hh);
    }
}
