//! Hash equi-joins.

use crate::column::Column;
use crate::table::Table;
use crate::Result;
use std::collections::HashMap;

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

/// A hashable, equality-normalized join key borrowed from a typed column.
/// `Int` and `Float` keys compare numerically (`1 == 1.0`); null keys never
/// match (SQL semantics) and are represented by `None` at the call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Key<'a> {
    Num(u64),
    Str(&'a str),
    Bool(bool),
}

/// The key of cell `idx` of `col`, or `None` for a null cell.
pub(crate) fn key_at(col: &Column, idx: usize) -> Option<Key<'_>> {
    match col {
        Column::Int(v) => v[idx].map(|x| Key::Num(norm_bits(x as f64))),
        Column::Float(v) => v[idx].map(|x| Key::Num(norm_bits(x))),
        Column::Str(v) => v[idx].as_deref().map(Key::Str),
        Column::Bool(v) => v[idx].map(Key::Bool),
    }
}

fn norm_bits(v: f64) -> u64 {
    // Normalize -0.0 to 0.0 so the two hash identically.
    if v == 0.0 {
        0f64.to_bits()
    } else {
        v.to_bits()
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
        let rcol = right.column(right_key)?;

        // Build phase: right-side hash table keyed by normalized key.
        let mut build: HashMap<Key<'_>, Vec<usize>> = HashMap::new();
        for i in 0..right.num_rows() {
            if let Some(k) = key_at(rcol, i) {
                build.entry(k).or_default().push(i);
            }
        }

        // Probe phase.
        let mut trace: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..self.num_rows() {
            let matches = key_at(lcol, i).and_then(|k| build.get(&k));
            match matches {
                Some(rows) => trace.extend(rows.iter().map(|&j| (i, Some(j)))),
                None if how == JoinType::Left => trace.push((i, None)),
                None => {}
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
