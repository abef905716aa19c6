//! Hash equi-joins.

use crate::column::Column;
use crate::table::Table;
use crate::Result;
use std::hash::{BuildHasher, RandomState};

/// A traced join result: the joined table plus, for every output row, the
/// `(left_row, right_row)` input pair it came from (`None` for the right
/// side of unmatched outer rows).
pub type TracedJoin = (Table, Vec<(usize, Option<usize>)>);

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Keep only matching pairs.
    Inner,
    /// Keep every left row; unmatched right cells become null.
    Left,
}

/// A hashable, exact join and group-by key borrowed from a typed column.
///
/// Numbers compare by exact value across `Int` and `Float` columns. An
/// `Int` cell keys as its `i64`; a `Float` cell keys as the same `i64` when
/// it is finite, integral and in `i64` range, so `1 == 1.0` and
/// `-0.0 == 0`, and by its bits otherwise, so a NaN matches only a NaN with
/// the same bits. Distinct integers never collide, however large. Null
/// keys never match (SQL semantics) and are represented by `None` at the
/// call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key<'a> {
    Int(i64),
    Float(u64),
    Str(&'a str),
    Bool(bool),
}

/// The key of cell `idx` of `col`, or `None` for a null cell.
pub(crate) fn key_at(col: &Column, idx: usize) -> Option<Key<'_>> {
    match col {
        Column::Int(v) => v[idx].map(Key::Int),
        Column::Float(v) => v[idx].map(float_key),
        Column::Str(v) => v[idx].as_deref().map(Key::Str),
        Column::Bool(v) => v[idx].map(Key::Bool),
    }
}

fn float_key(x: f64) -> Key<'static> {
    // -2^63 and 2^63 are exact doubles, and every integral double in
    // between converts to `i64` exactly; `fract` is NaN for NaN and ±inf.
    const I64_RANGE: std::ops::Range<f64> =
        -9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0;
    if x.fract() == 0.0 && I64_RANGE.contains(&x) {
        Key::Int(x as i64)
    } else {
        Key::Float(x.to_bits())
    }
}

/// A join's build side: the rows of one column grouped by [`Key`].
///
/// Groups are numbered in order of first appearance and stored flat:
/// group `g` holds `rows[offsets[g]..offsets[g + 1]]`, in ascending row
/// order. An open-addressed table of group ids maps a key to its group;
/// it stores no keys, because a group's key is the column cell of its
/// first row. Null cells belong to no group. Built once per column buffer
/// and shared through it (see `Table::key_index`).
pub(crate) struct KeyIndex {
    /// Keyed with a random seed, since the keys come from input data.
    hasher: RandomState,
    /// Linear-probing slots, a power of two more than twice the non-null
    /// cells: 0 is empty, otherwise the group id plus one.
    slots: Vec<u32>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl KeyIndex {
    /// Indexes every non-null cell of `col`.
    pub(crate) fn build(col: &Column) -> Self {
        let n = u32::try_from(col.len()).expect("a key index holds at most u32::MAX rows");
        let mut index = KeyIndex {
            hasher: RandomState::new(),
            slots: vec![0; (2 * col.len() + 1).next_power_of_two()],
            offsets: Vec::new(),
            rows: Vec::new(),
        };
        // Pass 1: each row's group, new groups in order of appearance; a
        // group's first row stands in for its key while probing.
        let mut group_of = vec![u32::MAX; col.len()];
        let mut counts: Vec<u32> = Vec::new();
        let mut firsts: Vec<u32> = Vec::new();
        for i in 0..n {
            let Some(key) = key_at(col, i as usize) else {
                continue;
            };
            let group = match index.find(col, key, |g| firsts[g] as usize) {
                Ok(group) => group,
                Err(slot) => {
                    let group = counts.len() as u32;
                    index.slots[slot] = group + 1;
                    counts.push(0);
                    firsts.push(i);
                    group
                }
            };
            counts[group as usize] += 1;
            group_of[i as usize] = group;
        }
        // Pass 2: rows bucketed by group; ascending within each.
        index.offsets.reserve_exact(counts.len() + 1);
        index.offsets.push(0);
        let mut total = 0;
        for count in &mut counts {
            let start = total;
            total += *count;
            index.offsets.push(total);
            *count = start; // now the group's write cursor
        }
        index.rows = vec![0; total as usize];
        for (i, &group) in (0..n).zip(&group_of) {
            if group != u32::MAX {
                let cursor = &mut counts[group as usize];
                index.rows[*cursor as usize] = i;
                *cursor += 1;
            }
        }
        index
    }

    /// The rows of `col` (the indexed column) whose key equals `key`, in
    /// ascending order.
    pub(crate) fn matches(&self, col: &Column, key: Key<'_>) -> &[u32] {
        match self.find(col, key, |g| self.rows[self.offsets[g] as usize] as usize) {
            Ok(group) => {
                let g = group as usize;
                &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Probes for `key`: its group, or the empty slot where it belongs.
    /// `first_row` maps a group to a row holding its key.
    fn find(
        &self,
        col: &Column,
        key: Key<'_>,
        first_row: impl Fn(usize) -> usize,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                id => {
                    let group = id - 1;
                    if key_at(col, first_row(group as usize)) == Some(key) {
                        return Ok(group);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Heap bytes held by the index.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.slots.len() + self.offsets.len() + self.rows.len())
    }
}

impl Table {
    /// Inner hash join on `left_key` / `right_key`.
    ///
    /// Output columns are the left columns followed by the right columns
    /// minus the right key; right column names that collide with left names
    /// get a `_right` suffix (mirroring Pandas' suffix behaviour), then
    /// `_right2`, `_right3`, … while that is taken too.
    pub fn inner_join(&self, right: &Table, left_key: &str, right_key: &str) -> Result<Table> {
        Ok(self
            .join_traced(right, left_key, right_key, JoinType::Inner)?
            .0)
    }

    /// Left outer hash join; see [`Table::inner_join`] for schema rules.
    pub fn left_join(&self, right: &Table, left_key: &str, right_key: &str) -> Result<Table> {
        Ok(self
            .join_traced(right, left_key, right_key, JoinType::Left)?
            .0)
    }

    /// Traced join: also returns, per output row, the input positions
    /// `(left_idx, Some(right_idx))` — or `(left_idx, None)` for an
    /// unmatched left row in a left join.
    pub fn join_traced(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        how: JoinType,
    ) -> Result<TracedJoin> {
        let lcol = self.column(left_key)?;
        // Build side: the right key column's index, built on first use and
        // shared by every table holding the same column buffer.
        let (rcol, index) = right.key_index(right_key)?;

        // Probe phase.
        let mut trace: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..self.num_rows() {
            let rows = key_at(lcol, i).map_or(&[][..], |k| index.matches(rcol, k));
            if !rows.is_empty() {
                trace.extend(rows.iter().map(|&j| (i, Some(j as usize))));
            } else if how == JoinType::Left {
                trace.push((i, None));
            }
        }

        let left_idx: Vec<usize> = trace.iter().map(|&(l, _)| l).collect();
        let mut out = self.take(&left_idx)?;

        for (field, col) in right.schema().fields().iter().zip(right.columns()) {
            if field.name == right_key {
                continue;
            }
            let name = disambiguate(&out, &field.name);
            out.add_column(name, gather_right(col, &trace))?;
        }
        Ok((out, trace))
    }
}

/// A right-column name that does not collide with any column already in
/// `out`: the original name when free, otherwise `{name}_right`,
/// `{name}_right2`, … — the plain `_right` rename can itself collide when
/// the left table already carries both `X` and `X_right`.
pub(crate) fn disambiguate(out: &Table, name: &str) -> String {
    if !out.schema().contains(name) {
        return name.to_string();
    }
    let mut candidate = format!("{name}_right");
    let mut suffix = 2usize;
    while out.schema().contains(&candidate) {
        candidate = format!("{name}_right{suffix}");
        suffix += 1;
    }
    candidate
}

fn gather_right(col: &Column, trace: &[(usize, Option<usize>)]) -> Column {
    match col {
        Column::Int(v) => Column::Int(trace.iter().map(|&(_, r)| r.and_then(|j| v[j])).collect()),
        Column::Float(v) => {
            Column::Float(trace.iter().map(|&(_, r)| r.and_then(|j| v[j])).collect())
        }
        Column::Str(v) => Column::Str(
            trace
                .iter()
                .map(|&(_, r)| r.and_then(|j| v[j].clone()))
                .collect(),
        ),
        Column::Bool(v) => Column::Bool(trace.iter().map(|&(_, r)| r.and_then(|j| v[j])).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn people() -> Table {
        Table::builder()
            .int("person_id", [1, 2, 3, 4])
            .str("name", ["ana", "bo", "cy", "di"])
            .build()
            .unwrap()
    }

    fn jobs() -> Table {
        Table::builder()
            .int("person_id", [Some(1), Some(1), Some(3), None])
            .str("sector", ["healthcare", "finance", "healthcare", "ghost"])
            .build()
            .unwrap()
    }

    #[test]
    fn inner_join_matches_and_duplicates() {
        let j = people()
            .inner_join(&jobs(), "person_id", "person_id")
            .unwrap();
        // person 1 matches twice, person 3 once; 2 and 4 drop out.
        assert_eq!(j.num_rows(), 3);
        assert_eq!(j.schema().names(), vec!["person_id", "name", "sector"]);
        assert_eq!(j.get(0, "sector").unwrap(), Value::from("healthcare"));
        assert_eq!(j.get(1, "sector").unwrap(), Value::from("finance"));
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let j = people()
            .left_join(&jobs(), "person_id", "person_id")
            .unwrap();
        assert_eq!(j.num_rows(), 5);
        let bo = j.filter(|r| r.str("name") == Some("bo")).unwrap();
        assert_eq!(bo.get(0, "sector").unwrap(), Value::Null);
    }

    #[test]
    fn null_keys_never_match() {
        let left = Table::builder().int("k", [None::<i64>]).build().unwrap();
        let right = Table::builder()
            .int("k", [None::<i64>])
            .int("v", [9])
            .build()
            .unwrap();
        let j = left.inner_join(&right, "k", "k").unwrap();
        assert_eq!(j.num_rows(), 0);
    }

    #[test]
    fn int_and_float_keys_match_numerically() {
        let left = Table::builder().int("k", [1, 2]).build().unwrap();
        let right = Table::builder()
            .float("k", [1.0, 3.0])
            .int("v", [10, 30])
            .build()
            .unwrap();
        let j = left.inner_join(&right, "k", "k").unwrap();
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.get(0, "v").unwrap(), Value::Int(10));
    }

    #[test]
    fn traced_join_reports_pairs() {
        let (_, trace) = people()
            .join_traced(&jobs(), "person_id", "person_id", JoinType::Inner)
            .unwrap();
        assert_eq!(trace, vec![(0, Some(0)), (0, Some(1)), (2, Some(2))]);
    }

    #[test]
    fn colliding_right_columns_get_suffix() {
        let left = Table::builder()
            .int("k", [1])
            .str("name", ["l"])
            .build()
            .unwrap();
        let right = Table::builder()
            .int("k", [1])
            .str("name", ["r"])
            .build()
            .unwrap();
        let j = left.inner_join(&right, "k", "k").unwrap();
        assert_eq!(j.schema().names(), vec!["k", "name", "name_right"]);
        assert_eq!(j.get(0, "name_right").unwrap(), Value::from("r"));
    }

    #[test]
    fn colliding_suffixed_right_columns_get_a_fresh_name() {
        let left = Table::builder()
            .int("k", [1])
            .str("name", ["l"])
            .str("name_right", ["lr"])
            .build()
            .unwrap();
        let right = Table::builder()
            .int("k", [1])
            .str("name", ["r"])
            .build()
            .unwrap();
        let j = left.inner_join(&right, "k", "k").unwrap();
        assert_eq!(
            j.schema().names(),
            vec!["k", "name", "name_right", "name_right2"]
        );
        assert_eq!(j.get(0, "name_right").unwrap(), Value::from("lr"));
        assert_eq!(j.get(0, "name_right2").unwrap(), Value::from("r"));
    }

    #[test]
    fn join_on_missing_key_errors() {
        assert!(people().inner_join(&jobs(), "nope", "person_id").is_err());
        assert!(people().inner_join(&jobs(), "person_id", "nope").is_err());
    }

    #[test]
    fn different_key_names() {
        let left = Table::builder().int("lid", [1, 2]).build().unwrap();
        let right = Table::builder()
            .int("rid", [2])
            .str("s", ["x"])
            .build()
            .unwrap();
        let j = left.inner_join(&right, "lid", "rid").unwrap();
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.schema().names(), vec!["lid", "s"]);
    }
}
