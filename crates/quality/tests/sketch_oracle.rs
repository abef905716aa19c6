//! Oracle tests for the slot-based heavy-hitters sketch and the KMV
//! sketch's cached largest hash: both must stay bit-identical to the
//! straightforward `BTreeMap` / `BTreeSet` implementations kept below as
//! references. The logical state is compared after every push and merge,
//! over small capacities, many tied counts, keys with long shared
//! prefixes, and `from_state` round trips.

use nde_quality::{hash_str, ColumnSketch, DistinctSketch, HeavyHitters};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The reference space-saving sketch: key → (count, error) in a
/// `BTreeMap`; the victim is the first minimum count in key order.
#[derive(Debug, Clone)]
struct RefHeavy {
    capacity: usize,
    entries: BTreeMap<String, (u64, u64)>,
    total: u64,
}

impl RefHeavy {
    fn with_capacity(capacity: usize) -> Self {
        RefHeavy {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            total: 0,
        }
    }

    fn push(&mut self, key: &str) {
        self.total += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.0 += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(key.to_owned(), (1, 0));
            return;
        }
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

    fn merge(&mut self, other: &RefHeavy) {
        self.total += other.total;
        for (key, &(count, err)) in &other.entries {
            let entry = self.entries.entry(key.clone()).or_insert((0, 0));
            entry.0 += count;
            entry.1 += err;
        }
        if self.entries.len() > self.capacity {
            let mut ranked: Vec<(String, (u64, u64))> =
                self.entries.iter().map(|(k, &v)| (k.clone(), v)).collect();
            ranked.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(self.capacity);
            self.entries = ranked.into_iter().collect();
            if let Some(entry) = self.entries.values_mut().min_by_key(|e| e.0) {
                entry.1 = entry.1.max(1);
            }
        }
    }

    fn state(&self) -> (usize, u64, BTreeMap<String, (u64, u64)>) {
        (self.capacity, self.total, self.entries.clone())
    }
}

/// The reference KMV sketch: a membership probe, then the largest hash
/// looked up in the set on every push at capacity.
#[derive(Debug, Clone)]
struct RefDistinct {
    k: usize,
    hashes: BTreeSet<u64>,
    saturated: bool,
}

impl RefDistinct {
    fn with_capacity(k: usize) -> Self {
        RefDistinct {
            k: k.max(8),
            hashes: BTreeSet::new(),
            saturated: false,
        }
    }

    fn push_hash(&mut self, hash: u64) {
        if self.hashes.contains(&hash) {
            return;
        }
        if self.hashes.len() < self.k {
            self.hashes.insert(hash);
            return;
        }
        let &largest = self.hashes.iter().next_back().expect("at capacity");
        if hash < largest {
            self.hashes.remove(&largest);
            self.hashes.insert(hash);
        }
        self.saturated = true;
    }

    fn merge(&mut self, other: &RefDistinct) {
        self.saturated |= other.saturated;
        for &h in &other.hashes {
            self.push_hash(h);
        }
    }

    fn state(&self) -> (usize, bool, BTreeSet<u64>) {
        (self.k, self.saturated, self.hashes.clone())
    }
}

fn distinct_state(s: &DistinctSketch) -> (usize, bool, BTreeSet<u64>) {
    let (k, saturated, hashes) = s.state();
    (k, saturated, hashes.clone())
}

/// Keys from a small alphabet (many repeats, so counts tie often), each
/// optionally behind a long shared prefix so key comparisons must read
/// far into the buffers.
fn arb_keys(max_len: usize) -> impl Strategy<Value = Vec<String>> {
    let prefix = "dear hiring manager, I am writing to apply for the position of ";
    prop::collection::vec((0u8..12, any::<bool>(), 0u8..3), 0..max_len).prop_map(move |keys| {
        keys.into_iter()
            .map(|(k, long, pad)| {
                let tail = format!("{}{}", char::from(b'a' + k), "z".repeat(usize::from(pad)));
                if long {
                    format!("{prefix}{tail}")
                } else {
                    tail
                }
            })
            .collect()
    })
}

proptest! {
    /// Every push leaves the slot sketch in the reference's state.
    #[test]
    fn heavy_push_matches_the_reference(capacity in 1usize..=8, keys in arb_keys(80)) {
        let mut sketch = HeavyHitters::with_capacity(capacity);
        let mut reference = RefHeavy::with_capacity(capacity);
        for key in &keys {
            sketch.push(key);
            reference.push(key);
            prop_assert_eq!(sketch.state(), reference.state());
            prop_assert_eq!(sketch.saturated(), reference.entries.values().any(|e| e.1 > 0));
        }
        let keys_now: Vec<&str> = sketch.keys().collect();
        let keys_ref: Vec<&str> = reference.entries.keys().map(String::as_str).collect();
        prop_assert_eq!(keys_now, keys_ref);
    }

    /// In-order merges of pushed shards match the reference, and so does
    /// pushing into a merged sketch afterwards.
    #[test]
    fn heavy_merge_matches_the_reference(
        capacity in 1usize..=8,
        shards in prop::collection::vec(arb_keys(30), 1..5),
        tail in arb_keys(20),
    ) {
        let mut sketch = HeavyHitters::with_capacity(capacity);
        let mut reference = RefHeavy::with_capacity(capacity);
        for shard in &shards {
            let mut s = HeavyHitters::with_capacity(capacity);
            let mut r = RefHeavy::with_capacity(capacity);
            for key in shard {
                s.push(key);
                r.push(key);
            }
            sketch.merge(&s);
            reference.merge(&r);
            prop_assert_eq!(sketch.state(), reference.state());
        }
        for key in &tail {
            sketch.push(key);
            reference.push(key);
            prop_assert_eq!(sketch.state(), reference.state());
        }
    }

    /// `from_state` rebuilds an equal sketch that then evolves exactly
    /// like the reference rebuilt from the same state.
    #[test]
    fn heavy_from_state_round_trips(
        capacity in 1usize..=8,
        before in arb_keys(40),
        after in arb_keys(40),
    ) {
        let mut sketch = HeavyHitters::with_capacity(capacity);
        for key in &before {
            sketch.push(key);
        }
        let (cap, total, entries) = sketch.state();
        let mut rebuilt = HeavyHitters::from_state(cap, total, entries.clone());
        prop_assert_eq!(&rebuilt, &sketch);
        let mut reference = RefHeavy { capacity: cap, entries, total };
        for key in &after {
            sketch.push(key);
            rebuilt.push(key);
            reference.push(key);
            prop_assert_eq!(rebuilt.state(), reference.state());
        }
        prop_assert_eq!(&rebuilt, &sketch);
    }

    /// `ColumnSketch::push_str` hashes once and feeds both sketches; the
    /// result matches the two references fed separately.
    #[test]
    fn column_sketch_single_hash_matches_the_references(
        keys in prop::collection::vec(prop::option::of("[a-d]{0,3}"), 0..300),
    ) {
        let mut sketch = ColumnSketch::categorical("s");
        let mut heavy = RefHeavy::with_capacity(nde_quality::DEFAULT_HEAVY_CAPACITY);
        let mut distinct = RefDistinct::with_capacity(nde_quality::DEFAULT_DISTINCT_CAPACITY);
        for key in &keys {
            sketch.push_str(key.as_deref());
            if let Some(key) = key {
                heavy.push(key);
                distinct.push_hash(hash_str(key));
            }
        }
        prop_assert_eq!(sketch.heavy.state(), heavy.state());
        prop_assert_eq!(distinct_state(&sketch.distinct), distinct.state());
    }

    /// The KMV sketch with a cached largest hash matches the reference
    /// after every push and every merge, including pushes of equal,
    /// larger and smaller hashes at capacity.
    #[test]
    fn distinct_matches_the_reference(
        k in 8usize..=16,
        shards in prop::collection::vec(prop::collection::vec(0u64..64, 0..60), 1..4),
        wide in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let mut sketch = DistinctSketch::with_capacity(k);
        let mut reference = RefDistinct::with_capacity(k);
        for shard in &shards {
            let mut s = DistinctSketch::with_capacity(k);
            let mut r = RefDistinct::with_capacity(k);
            for &h in shard {
                s.push_hash(h);
                r.push_hash(h);
                prop_assert_eq!(distinct_state(&s), r.state());
            }
            sketch.merge(&s);
            reference.merge(&r);
            prop_assert_eq!(distinct_state(&sketch), reference.state());
        }
        for &h in &wide {
            sketch.push_hash(h);
            reference.push_hash(h);
            prop_assert_eq!(distinct_state(&sketch), reference.state());
        }
        let (k, saturated, hashes) = distinct_state(&sketch);
        let mut rebuilt = DistinctSketch::from_state(k, saturated, hashes);
        prop_assert_eq!(&rebuilt, &sketch);
        for h in [0, 63, u64::MAX] {
            rebuilt.push_hash(h);
            reference.push_hash(h);
            prop_assert_eq!(distinct_state(&rebuilt), reference.state());
        }
    }
}

/// The victim among tied minima is the smallest key, also when slots
/// were filled in descending key order.
#[test]
fn tied_minima_evict_the_smallest_key() {
    let mut sketch = HeavyHitters::with_capacity(3);
    let mut reference = RefHeavy::with_capacity(3);
    for key in ["q", "m", "b", "z", "a", "c"] {
        sketch.push(key);
        reference.push(key);
        assert_eq!(sketch.state(), reference.state());
    }
}
