//! The `Table` → [`TableProfile`] bridge: every column statistic in the
//! workspace (data validation, pipeline inspections, the drift gate) is
//! read from the mergeable `nde-quality` sketches built here.

use crate::column::Column;
use crate::table::Table;
use nde_quality::{ColumnSketch, TableProfile};
use std::ops::Range;

impl Table {
    /// Builds the streaming [`TableProfile`] (mergeable sketches) for this
    /// table, sharding rows across `NDE_THREADS` workers. Chunk boundaries
    /// and the in-order shard merge are functions of the row count only,
    /// so the result is bit-identical for every thread count.
    ///
    /// Each column's sketch is memoised on its buffer: only columns whose
    /// buffer no table has profiled yet are sketched, so profiling costs
    /// scale with new buffers, not with cells. The result is bit-identical
    /// to [`Table::quality_profile_sharded`] at
    /// [`QUALITY_PROFILE_CHUNK_LEN`], because a column's shards merge in
    /// the same order either way.
    pub fn quality_profile(&self) -> TableProfile {
        let fields = self.schema().fields();
        let memos: Vec<_> = self.columns_with_sketch().collect();
        let missing: Vec<usize> = (0..memos.len())
            .filter(|&i| memos[i].1.get().is_none())
            .collect();
        if !missing.is_empty() {
            let columns: Vec<(&str, &Column)> = missing
                .iter()
                .map(|&i| (fields[i].name.as_str(), memos[i].0))
                .collect();
            let fresh = sketch_columns(
                &columns,
                self.num_rows(),
                nde_parallel::num_threads(),
                QUALITY_PROFILE_CHUNK_LEN,
            );
            for (&i, sketch) in missing.iter().zip(fresh.columns) {
                // A concurrent first profile may have won the race; its
                // sketch is bit-identical.
                let _ = memos[i].1.set(sketch);
            }
        }
        let columns = fields
            .iter()
            .zip(&memos)
            .map(|(field, (_, memo))| {
                let mut sketch = memo.get().expect("sketched above").clone();
                // One buffer can sit under several names.
                sketch.name.clone_from(&field.name);
                sketch
            })
            .collect();
        TableProfile {
            rows: self.num_rows() as u64,
            columns,
        }
    }

    /// [`Table::quality_profile`] with an explicit worker cap and chunk
    /// length, sketching every column afresh (no memo is read or written).
    /// The worker cap bounds scheduling only; `chunk_len` fixes the shard
    /// boundaries, so two calls with the same `chunk_len` agree bit-for-bit
    /// regardless of `workers`.
    pub fn quality_profile_sharded(&self, workers: usize, chunk_len: usize) -> TableProfile {
        let columns: Vec<(&str, &Column)> = self
            .schema()
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .zip(self.columns())
            .collect();
        sketch_columns(&columns, self.num_rows(), workers, chunk_len)
    }
}

/// Profiles the named `columns` over `rows` rows: shards of `chunk_len`
/// rows are sketched on up to `workers` workers and merged in order,
/// column by column.
fn sketch_columns(
    columns: &[(&str, &Column)],
    rows: usize,
    workers: usize,
    chunk_len: usize,
) -> TableProfile {
    let sketch_range = |range: Range<usize>| {
        columns
            .iter()
            .map(|&(name, c)| sketch_column_range(name, c, range.clone()))
            .collect()
    };
    let shards = nde_parallel::par_map_chunks_with(workers, rows, chunk_len, |range| {
        let mut shard = TableProfile::with_columns(sketch_range(range.clone()));
        shard.rows = range.len() as u64;
        shard
    });
    shards
        .into_iter()
        .reduce(|mut acc, shard| {
            acc.merge(&shard);
            acc
        })
        // Zero-row tables produce zero chunks; keep the column
        // skeletons so schema-level drift checks still see them.
        .unwrap_or_else(|| TableProfile::with_columns(sketch_range(0..0)))
}

/// Shard length for [`Table::quality_profile`]: big enough that sketch
/// merge costs are amortized, small enough that mid-size tables still
/// fan out.
pub const QUALITY_PROFILE_CHUNK_LEN: usize = 2048;

/// Sketches one row range of a column. Int/Float/Bool cells widen to
/// `f64` (moments + quantiles), strings feed the heavy-hitters sketch.
fn sketch_column_range(name: &str, col: &Column, range: Range<usize>) -> ColumnSketch {
    match col {
        Column::Int(cells) => {
            let mut s = ColumnSketch::numeric(name);
            for cell in &cells[range] {
                s.push_num(cell.map(|v| v as f64));
            }
            s
        }
        Column::Float(cells) => {
            let mut s = ColumnSketch::numeric(name);
            for cell in &cells[range] {
                s.push_num(*cell);
            }
            s
        }
        Column::Bool(cells) => {
            let mut s = ColumnSketch::numeric(name);
            for cell in &cells[range] {
                s.push_num(cell.map(|v| if v { 1.0 } else { 0.0 }));
            }
            s
        }
        Column::Str(cells) => {
            let mut s = ColumnSketch::categorical(name);
            for cell in &cells[range] {
                s.push_str(cell.as_deref());
            }
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .float("x", [Some(1.0), Some(3.0), None, Some(5.0)])
            .str_opt(
                "cat",
                vec![Some("a".into()), Some("b".into()), Some("a".into()), None],
            )
            .int("n", [1, 2, 3, 4])
            .build()
            .unwrap()
    }

    #[test]
    fn quality_profile_covers_all_column_types() {
        let t = demo();
        let profile = t.quality_profile();
        assert_eq!(profile.rows, 4);
        assert_eq!(profile.columns.len(), 3);
        let x = profile.column("x").unwrap();
        assert_eq!(x.count, 4);
        assert_eq!(x.nulls, 1);
        assert!((x.null_rate() - 0.25).abs() < 1e-12);
        assert_eq!(x.moments.mean_opt(), Some(3.0));
        assert!(x.moments.std().unwrap() > 1.0);
        assert_eq!(x.moments.min, Some(1.0));
        assert_eq!(x.moments.max, Some(5.0));
        let cat = profile.column("cat").unwrap();
        assert_eq!(cat.kind, nde_quality::ColumnKind::Categorical);
        assert_eq!(cat.nulls, 1);
        assert_eq!(cat.heavy.top()[0].0, "a");
        assert_eq!(cat.moments.mean_opt(), None);
        assert_eq!(cat.quantile(0.5), None);
        let n = &profile.columns[2];
        assert_eq!(n.name, "n");
        assert_eq!(n.kind, nde_quality::ColumnKind::Numeric);
    }

    #[test]
    fn string_columns_keep_their_exact_domain_until_the_heavy_capacity() {
        let profile = demo().quality_profile();
        let cat = &profile.columns[1];
        assert_eq!(cat.heavy.keys().collect::<Vec<_>>(), ["a", "b"]);
        assert!(!cat.heavy.saturated());

        let cap = nde_quality::DEFAULT_HEAVY_CAPACITY;
        let values: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let t = Table::builder().str("s", values).build().unwrap();
        // Overflow is explicit: the sketch marks itself saturated.
        assert!(t.quality_profile().columns[0].heavy.saturated());
        let below_cap = t.head(cap).quality_profile();
        assert!(!below_cap.columns[0].heavy.saturated());
        assert_eq!(below_cap.columns[0].heavy.tracked(), cap);
        assert!(!demo().quality_profile().columns[0].heavy.saturated());
    }

    #[test]
    fn quality_profile_identical_for_any_worker_count() {
        let values: Vec<Option<f64>> = (0..10_000)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(((i * 2654435761u64 % 997) as f64) / 10.0)
                }
            })
            .collect();
        let labels: Vec<Option<String>> =
            (0..10_000).map(|i| Some(format!("c{}", i % 23))).collect();
        let t = Table::builder()
            .float("v", values)
            .str_opt("label", labels)
            .build()
            .unwrap();
        // Small chunks force many shard merges; the merged bits must not
        // depend on how many workers did the sharding.
        let baseline = t.quality_profile_sharded(1, 257);
        for workers in [2, 3, 8] {
            assert_eq!(t.quality_profile_sharded(workers, 257), baseline);
        }
        assert_eq!(baseline.rows, 10_000);
    }

    #[test]
    fn quality_profile_of_empty_table_keeps_column_skeletons() {
        let t = Table::builder()
            .float("x", Vec::<f64>::new())
            .build()
            .unwrap();
        let profile = t.quality_profile();
        assert_eq!(profile.rows, 0);
        assert_eq!(profile.columns.len(), 1);
        assert_eq!(profile.columns[0].name, "x");
    }

    #[test]
    fn empty_and_all_null_columns() {
        let t = Table::builder()
            .float("x", Vec::<f64>::new())
            .build()
            .unwrap();
        let x = &t.quality_profile().columns[0];
        assert_eq!(x.moments.mean_opt(), None);
        assert_eq!(x.moments.std(), None);
        assert_eq!(x.null_rate(), 0.0);
        let t = Table::builder().float("x", [None::<f64>]).build().unwrap();
        let x = &t.quality_profile().columns[0];
        assert_eq!(x.moments.mean_opt(), None);
        assert_eq!(x.moments.min, None);
        assert_eq!(x.quantile(0.95), None);
        assert_eq!(x.null_rate(), 1.0);
    }
}
