//! Space-saving heavy-hitters sketch for categorical columns (Metwally,
//! Agrawal & El Abbadi, ICDT 2005) with deterministic tie-breaking.

use std::collections::BTreeMap;

/// Default tracked-key capacity ([`HeavyHitters::new`]).
pub const DEFAULT_HEAVY_CAPACITY: usize = 64;

/// Space-saving frequent-items sketch: at most `capacity` keys are
/// tracked; when a new key arrives at a full sketch it replaces the
/// current minimum-count key, inheriting its count as the new key's
/// overestimation error. All tie-breaks (which minimum to evict, trim
/// order after merges) use lexicographic key order, so the sketch is
/// fully deterministic — same pushes, same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHitters {
    capacity: usize,
    /// key → (count, overestimation error). `BTreeMap` keeps iteration
    /// (and therefore eviction scans) in deterministic key order.
    entries: BTreeMap<String, (u64, u64)>,
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
            entries: BTreeMap::new(),
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
        self.entries.values().any(|&(_, err)| err > 0)
    }

    /// Observes one key.
    pub fn push(&mut self, key: &str) {
        self.total += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.0 += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key.to_owned(), (1, 0));
            return;
        }
        // Evict the minimum-count key. BTreeMap iterates in key order and
        // `min_by_key` keeps the first minimum, so the lexicographically
        // smallest minimum is the deterministic victim without comparing
        // (or cloning) keys.
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, &(count, _))| count)
            .map(|(k, &(count, _))| (k.clone(), count))
            .expect("non-empty at capacity");
        self.entries.remove(&victim.0);
        self.entries
            .insert(key.to_owned(), (victim.1 + 1, victim.1));
    }

    /// Folds `other` into `self`: counts and errors add for shared keys,
    /// then the union is trimmed back to capacity keeping the largest
    /// counts (ties broken by key order). Deterministic for a fixed
    /// operand order.
    pub fn merge(&mut self, other: &HeavyHitters) {
        self.total += other.total;
        for (key, &(count, err)) in &other.entries {
            let entry = self.entries.entry(key.clone()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += err;
        }
        if self.entries.len() > self.capacity {
            let mut ranked: Vec<(String, (u64, u64))> =
                self.entries.iter().map(|(k, &v)| (k.clone(), v)).collect();
            // Largest counts first; lexicographically smaller key wins ties.
            ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(self.capacity);
            // Evicted mass becomes overestimation pressure on survivors:
            // mark the sketch saturated by bumping the smallest survivor's
            // error (count bounds stay valid upper bounds).
            self.entries = ranked.into_iter().collect();
            if let Some(entry) = self.entries.values_mut().min_by_key(|e| e.0) {
                entry.1 = entry.1.max(1);
            }
        }
    }

    /// Tracked keys with their counts, sorted by count descending then
    /// key ascending (a deterministic leaderboard).
    pub fn top(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .entries
            .iter()
            .map(|(k, &(count, _))| (k.clone(), count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// `key → share of observed values`, for PSI-style comparisons.
    pub fn shares(&self) -> BTreeMap<String, f64> {
        if self.total == 0 {
            return BTreeMap::new();
        }
        self.entries
            .iter()
            .map(|(k, &(count, _))| (k.clone(), count as f64 / self.total as f64))
            .collect()
    }

    /// Number of tracked keys.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Tracked keys in ascending order. Until the sketch is
    /// [`saturated`](HeavyHitters::saturated) these are exactly the
    /// distinct values observed.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Internal state for serialization: `(capacity, total, entries)`.
    pub fn state(&self) -> (usize, u64, &BTreeMap<String, (u64, u64)>) {
        (self.capacity, self.total, &self.entries)
    }

    /// Rebuilds a sketch from [`HeavyHitters::state`] output.
    pub fn from_state(capacity: usize, total: u64, entries: BTreeMap<String, (u64, u64)>) -> Self {
        HeavyHitters {
            capacity: capacity.max(1),
            entries,
            total,
        }
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
        let rebuilt = HeavyHitters::from_state(capacity, total, entries.clone());
        assert_eq!(rebuilt, hh);
    }
}
