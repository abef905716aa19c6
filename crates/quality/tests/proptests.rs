//! Property tests for the profile sketches: the merge/determinism
//! contract that makes sharded profiling worker-count invariant. The
//! guarantee is *in-order* shard merges over fixed chunk boundaries —
//! these properties pin what each sketch conserves exactly (counts,
//! extrema, distinct hashes, exact-regime quantiles and heavy hitters)
//! and that the merged state is a pure function of the chunking.

use nde_quality::{ColumnSketch, QuantileSketch};
use proptest::prelude::*;

/// Left-fold of per-chunk sketches in chunk order — exactly what the
/// tabular sharded profiler does with `par_map_chunks_with` results.
fn merge_numeric_chunks(values: &[Option<f64>], chunk_len: usize) -> ColumnSketch {
    values
        .chunks(chunk_len.max(1))
        .map(|chunk| {
            let mut shard = ColumnSketch::numeric("x");
            for v in chunk {
                shard.push_num(*v);
            }
            shard
        })
        .reduce(|mut acc, shard| {
            acc.merge(&shard);
            acc
        })
        .unwrap_or_else(|| ColumnSketch::numeric("x"))
}

fn merge_str_chunks(values: &[Option<String>], chunk_len: usize) -> ColumnSketch {
    values
        .chunks(chunk_len.max(1))
        .map(|chunk| {
            let mut shard = ColumnSketch::categorical("s");
            for v in chunk {
                shard.push_str(v.as_deref());
            }
            shard
        })
        .reduce(|mut acc, shard| {
            acc.merge(&shard);
            acc
        })
        .unwrap_or_else(|| ColumnSketch::categorical("s"))
}

/// Exact nearest-rank quantile, mirroring `QuantileSketch::quantile`'s
/// rule on the full dataset.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Independent two-sample Kolmogorov–Smirnov distance: evaluates both
/// empirical CDFs at every pooled sample point by counting, so it shares
/// no code path with the sketch's merged sweep.
fn brute_force_ks(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let cdf = |sample: &[f64], x: f64| sample.iter().filter(|&&v| v <= x).count() as f64;
    let (na, nb) = (a.len() as f64, b.len() as f64);
    a.iter()
        .chain(b)
        .map(|&x| (cdf(a, x) / na - cdf(b, x) / nb).abs())
        .fold(0.0, f64::max)
}

fn sketch_of(values: &[f64], chunk_len: usize) -> QuantileSketch {
    values
        .chunks(chunk_len.max(1))
        .fold(QuantileSketch::new(), |mut acc, chunk| {
            let mut shard = QuantileSketch::new();
            for &v in chunk {
                shard.push(v);
            }
            acc.merge(&shard);
            acc
        })
}

proptest! {
    /// Chunked in-order merges conserve everything that must be *exactly*
    /// grouping-independent: cell/null counts, extrema, and the KMV
    /// distinct state (a trimmed set union, so shard boundaries cannot
    /// matter at all). The mean agrees with the serial Welford pass to
    /// floating-point tolerance.
    #[test]
    fn numeric_shard_merge_conserves_counts_and_extrema(
        values in prop::collection::vec(prop::option::of(-1e4f64..1e4), 0..400),
        chunk_len in 1usize..64,
    ) {
        let mut serial = ColumnSketch::numeric("x");
        for v in &values {
            serial.push_num(*v);
        }
        let merged = merge_numeric_chunks(&values, chunk_len);

        prop_assert_eq!(merged.count, serial.count);
        prop_assert_eq!(merged.nulls, serial.nulls);
        prop_assert_eq!(merged.moments.present(), serial.moments.present());
        prop_assert_eq!(merged.distinct.state(), serial.distinct.state());
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        if let (Some(&lo), Some(&hi)) = (
            present.iter().min_by(|a, b| a.total_cmp(b)),
            present.iter().max_by(|a, b| a.total_cmp(b)),
        ) {
            prop_assert_eq!(merged.moments.min.unwrap().to_bits(), lo.to_bits());
            prop_assert_eq!(merged.moments.max.unwrap().to_bits(), hi.to_bits());
            let (sm, mm) = (serial.moments.mean, merged.moments.mean);
            prop_assert!((sm - mm).abs() <= 1e-9 * (1.0 + sm.abs()), "{sm} vs {mm}");
            // Any reported quantile is a retained sample, so it must lie
            // within the observed range.
            let p50 = merged.quantile(0.5).unwrap();
            prop_assert!((lo..=hi).contains(&p50));
        } else {
            prop_assert!(merged.quantile(0.5).is_none());
        }
    }

    /// The merged sketch is a pure function of the chunk boundaries:
    /// re-running the same left-fold reproduces bit-identical serialized
    /// state (no hidden randomness, iteration-order, or time dependence).
    #[test]
    fn numeric_shard_merge_is_a_pure_function_of_chunking(
        values in prop::collection::vec(prop::option::of(-1e4f64..1e4), 0..600),
        chunk_len in 1usize..48,
    ) {
        let a = merge_numeric_chunks(&values, chunk_len);
        let b = merge_numeric_chunks(&values, chunk_len);
        prop_assert_eq!(&a, &b);
        let render = |s: &ColumnSketch| {
            let mut out = String::new();
            nde_trace::json::write_value(&mut out, &s.to_json_value());
            out
        };
        prop_assert_eq!(render(&a), render(&b));
    }

    /// Below per-level capacity the quantile sketch never compacts, so
    /// merged-or-serial it reports the *exact* nearest-rank quantile.
    #[test]
    fn quantiles_are_exact_below_capacity(
        values in prop::collection::vec(-1e4f64..1e4, 1..150),
        chunk_len in 1usize..64,
    ) {
        let mut serial = QuantileSketch::new();
        let merged = values
            .chunks(chunk_len)
            .fold(QuantileSketch::new(), |mut acc, chunk| {
                let mut shard = QuantileSketch::new();
                for &v in chunk {
                    serial.push(v);
                    shard.push(v);
                }
                acc.merge(&shard);
                acc
            });
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            prop_assert_eq!(serial.quantile(q).unwrap().to_bits(), exact.to_bits());
            prop_assert_eq!(merged.quantile(q).unwrap().to_bits(), exact.to_bits());
        }
    }

    /// Categorical shard merges over a key space within the sketch's
    /// capacity are exact: the merged top-k equals the serial top-k
    /// equals true counts, and shares renormalize over the total.
    #[test]
    fn categorical_shard_merge_is_exact_below_capacity(
        values in prop::collection::vec(prop::option::of("[a-h]{1,1}"), 0..300),
        chunk_len in 1usize..48,
    ) {
        let mut serial = ColumnSketch::categorical("s");
        for v in &values {
            serial.push_str(v.as_deref());
        }
        let merged = merge_str_chunks(&values, chunk_len);

        prop_assert_eq!(merged.count, serial.count);
        prop_assert_eq!(merged.nulls, serial.nulls);
        prop_assert!(!merged.heavy.saturated(), "8 keys fit the capacity");
        prop_assert_eq!(merged.heavy.top(), serial.heavy.top());
        prop_assert_eq!(merged.distinct.state(), serial.distinct.state());

        let mut true_counts = std::collections::BTreeMap::<&str, u64>::new();
        for v in values.iter().flatten() {
            *true_counts.entry(v.as_str()).or_default() += 1;
        }
        for (key, count) in merged.heavy.top() {
            prop_assert_eq!(Some(&count), true_counts.get(key.as_str()));
        }
        let share_sum: f64 = merged.heavy.shares().values().sum();
        if !true_counts.is_empty() {
            prop_assert!((share_sum - 1.0).abs() < 1e-9);
        }
    }

    /// Below per-level capacity (no compaction, serial or merged) the
    /// sketch KS statistic is the exact two-sample KS distance, bit for
    /// bit: 0 for identical samples, 1 for disjoint supports, symmetric,
    /// and 0 when either side is empty. Integer-valued cells force ties
    /// inside and across the two samples.
    #[test]
    fn ks_statistic_is_exact_below_capacity(
        a in prop::collection::vec((-30i32..30).prop_map(f64::from), 0..199),
        b in prop::collection::vec((-30i32..30).prop_map(f64::from), 0..199),
        chunk_len in 1usize..64,
    ) {
        let (sa, sb) = (sketch_of(&a, chunk_len), sketch_of(&b, 1 + chunk_len / 2));
        let ks = sa.ks_statistic(&sb);
        prop_assert_eq!(ks.to_bits(), brute_force_ks(&a, &b).to_bits());
        prop_assert_eq!(ks.to_bits(), sb.ks_statistic(&sa).to_bits());
        prop_assert_eq!(sa.ks_statistic(&sketch_of(&a, 7)), 0.0);
        prop_assert_eq!(sa.ks_statistic(&QuantileSketch::new()), 0.0);
        prop_assert_eq!(QuantileSketch::new().ks_statistic(&sb), 0.0);
        let shifted: Vec<f64> = b.iter().map(|v| v + 100.0).collect();
        let disjoint = sa.ks_statistic(&sketch_of(&shifted, chunk_len));
        prop_assert_eq!(disjoint, if a.is_empty() || b.is_empty() { 0.0 } else { 1.0 });
    }
}
