//! K-minimum-values distinct estimator over XOR-folded FNV hashes:
//! exact while small, an unbiased estimate past capacity, and fully
//! order-independent under merge.

use std::collections::BTreeSet;

/// Default retained-hash capacity ([`DistinctSketch::new`]).
pub const DEFAULT_DISTINCT_CAPACITY: usize = 256;

/// XOR-fold FNV-1a with a splitmix64 finalizer: a cheap, well-mixed,
/// platform-independent 64-bit hash for sketch keys.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer spreads FNV's weak low bits.
    let mut z = h ^ (h >> 33);
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^= z >> 33;
    z = z.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// Hashes a string cell.
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Hashes a numeric cell by its bit pattern, canonicalizing `-0.0` to
/// `0.0` so equal values hash equally.
pub fn hash_f64(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    hash_bytes(&v.to_bits().to_le_bytes())
}

/// K-minimum-values (KMV) distinct-count sketch: retains the `k` smallest
/// 64-bit hashes seen. Below capacity the estimate is the exact count of
/// distinct hashes; past it, the k-th smallest hash's position in hash
/// space estimates the density of distinct values. Merging is a set
/// union trimmed back to the `k` smallest — commutative, associative,
/// and idempotent, so shard order cannot matter at all.
///
/// The largest retained hash is cached, so at capacity a hash above it,
/// the common case once a column has many more distinct values than `k`,
/// costs one comparison instead of a set lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctSketch {
    k: usize,
    hashes: BTreeSet<u64>,
    /// The largest retained hash (`0` while empty); a function of
    /// `hashes`, so equality stays the logical one.
    largest: u64,
    /// Whether any hash was ever discarded (the estimate is then
    /// approximate rather than an exact distinct count).
    saturated: bool,
}

impl DistinctSketch {
    /// An empty sketch with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_DISTINCT_CAPACITY)
    }

    /// An empty sketch retaining at most `k` hashes (`>= 8`).
    pub fn with_capacity(k: usize) -> Self {
        DistinctSketch {
            k: k.max(8),
            hashes: BTreeSet::new(),
            largest: 0,
            saturated: false,
        }
    }

    /// Observes one pre-hashed value (see [`hash_str`] / [`hash_f64`]).
    pub fn push_hash(&mut self, hash: u64) {
        let full = self.hashes.len() >= self.k;
        if full && hash > self.largest {
            // Discarded; no retained hash can equal it.
            self.saturated = true;
            return;
        }
        if self.hashes.contains(&hash) {
            return;
        }
        if !full {
            self.hashes.insert(hash);
            self.largest = self.largest.max(hash);
            return;
        }
        // At capacity and below the largest: it replaces the largest.
        self.hashes.remove(&self.largest);
        self.hashes.insert(hash);
        self.largest = *self.hashes.last().expect("at capacity");
        self.saturated = true;
    }

    /// Observes one string value.
    pub fn push_str(&mut self, value: &str) {
        self.push_hash(hash_str(value));
    }

    /// Observes one numeric value.
    pub fn push_f64(&mut self, value: f64) {
        self.push_hash(hash_f64(value));
    }

    /// Folds `other` into `self` (set union, trimmed to the `k` smallest).
    pub fn merge(&mut self, other: &DistinctSketch) {
        self.saturated |= other.saturated;
        for &h in &other.hashes {
            self.push_hash(h);
        }
    }

    /// Whether the estimate is exact (no hash was ever discarded).
    pub fn is_exact(&self) -> bool {
        !self.saturated
    }

    /// Estimated number of distinct values: exact below capacity, else
    /// the KMV estimator `(k − 1) · 2⁶⁴ / h₍ₖ₎`.
    pub fn estimate(&self) -> f64 {
        if self.is_exact() || self.hashes.len() < self.k {
            return self.hashes.len() as f64;
        }
        let kth = *self.hashes.iter().next_back().expect("at capacity") as f64;
        if kth <= 0.0 {
            return self.hashes.len() as f64;
        }
        (self.k as f64 - 1.0) * (u64::MAX as f64 / kth)
    }

    /// Internal state for serialization: `(k, saturated, hashes)`.
    pub fn state(&self) -> (usize, bool, &BTreeSet<u64>) {
        (self.k, self.saturated, &self.hashes)
    }

    /// Rebuilds a sketch from [`DistinctSketch::state`] output.
    pub fn from_state(k: usize, saturated: bool, hashes: BTreeSet<u64>) -> Self {
        DistinctSketch {
            k: k.max(8),
            largest: hashes.last().copied().unwrap_or(0),
            hashes,
            saturated,
        }
    }
}

impl Default for DistinctSketch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut sketch = DistinctSketch::with_capacity(64);
        for i in 0..40 {
            sketch.push_str(&format!("v{}", i % 20));
        }
        assert!(sketch.is_exact());
        assert_eq!(sketch.estimate(), 20.0);
    }

    #[test]
    fn estimates_past_capacity() {
        let mut sketch = DistinctSketch::with_capacity(128);
        let n = 10_000;
        for i in 0..n {
            sketch.push_str(&format!("value-{i}"));
        }
        assert!(!sketch.is_exact());
        let est = sketch.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.25, "estimate {est} vs {n} (rel err {rel:.3})");
    }

    #[test]
    fn merge_is_order_independent() {
        let chunk = |lo: usize, hi: usize| {
            let mut s = DistinctSketch::with_capacity(32);
            for i in lo..hi {
                s.push_str(&format!("k{i}"));
            }
            s
        };
        let (a, b, c) = (chunk(0, 50), chunk(30, 90), chunk(80, 120));
        let mut forward = a.clone();
        forward.merge(&b);
        forward.merge(&c);
        let mut backward = c.clone();
        backward.merge(&b);
        backward.merge(&a);
        assert_eq!(forward, backward, "KMV union is commutative");
        // And idempotent.
        let mut again = forward.clone();
        again.merge(&forward);
        assert_eq!(again, forward);
    }

    #[test]
    fn numeric_hashing_canonicalizes_zero() {
        assert_eq!(hash_f64(0.0), hash_f64(-0.0));
        assert_ne!(hash_f64(1.0), hash_f64(2.0));
        let mut sketch = DistinctSketch::new();
        sketch.push_f64(0.0);
        sketch.push_f64(-0.0);
        assert_eq!(sketch.estimate(), 1.0);
    }

    #[test]
    fn state_round_trips() {
        let mut sketch = DistinctSketch::with_capacity(16);
        for i in 0..100 {
            sketch.push_f64(i as f64);
        }
        let (k, saturated, hashes) = sketch.state();
        let rebuilt = DistinctSketch::from_state(k, saturated, hashes.clone());
        assert_eq!(rebuilt, sketch);
    }
}
