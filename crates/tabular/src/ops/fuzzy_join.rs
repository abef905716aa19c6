//! Fuzzy (approximate string-match) joins, as used by the paper's hiring
//! pipeline to link dirty side tables whose keys contain typos.

use crate::column::Column;
use crate::ops::join::{disambiguate, TracedJoin};
use crate::table::Table;
use crate::Result;
use std::sync::Arc;

/// Case-insensitive Levenshtein edit distance with an early-exit `bound`:
/// returns `None` as soon as the distance provably exceeds `bound`.
pub fn bounded_edit_distance(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > bound {
        return None;
    }
    // Single-row DP over the shorter string.
    let (short, long) = if n <= m { (&a, &b) } else { (&b, &a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        let mut row_min = curr[0];
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            row_min = row_min.min(curr[j + 1]);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    (prev[short.len()] <= bound).then_some(prev[short.len()])
}

/// The cells of a string key column.
fn str_keys(col: &Column) -> Result<&[Option<Arc<str>>]> {
    col.as_str().ok_or_else(|| crate::TableError::TypeMismatch {
        expected: crate::DataType::Str,
        found: col.dtype().to_string(),
    })
}

impl Table {
    /// Inner join on string keys where keys match if their case-insensitive
    /// edit distance is at most `max_distance`. Each left row is joined with
    /// its *closest* right match (ties broken by right row order), mirroring
    /// record-linkage practice.
    pub fn fuzzy_join(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        max_distance: usize,
    ) -> Result<Table> {
        Ok(self
            .fuzzy_join_traced(right, left_key, right_key, max_distance)?
            .0)
    }

    /// Traced variant of [`Table::fuzzy_join`]; the trace lists
    /// `(left_idx, Some(right_idx))` per output row.
    pub fn fuzzy_join_traced(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        max_distance: usize,
    ) -> Result<TracedJoin> {
        let lvals = str_keys(self.column(left_key)?)?;
        let rvals = str_keys(right.column(right_key)?)?;

        let mut trace: Vec<(usize, Option<usize>)> = Vec::new();
        for (i, lv) in lvals.iter().enumerate() {
            let Some(lv) = lv else { continue };
            let mut best: Option<(usize, usize)> = None; // (distance, right idx)
            for (j, rv) in rvals.iter().enumerate() {
                let Some(rv) = rv else { continue };
                if let Some(d) = bounded_edit_distance(lv, rv, max_distance) {
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, j));
                        if d == 0 {
                            break;
                        }
                    }
                }
            }
            if let Some((_, j)) = best {
                trace.push((i, Some(j)));
            }
        }

        let left_idx: Vec<usize> = trace.iter().map(|&(l, _)| l).collect();
        // One gather vector shared by every right column.
        let indices: Vec<usize> = trace
            .iter()
            .map(|&(_, r)| r.expect("inner fuzzy join"))
            .collect();
        let mut out = self.take(&left_idx)?;
        for (field, col) in right.schema().fields().iter().zip(right.columns()) {
            if field.name == right_key {
                continue;
            }
            let gathered = col.take(&indices);
            let name = disambiguate(&out, &field.name);
            out.add_column(name, gathered)?;
        }
        Ok((out, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(bounded_edit_distance("kitten", "sitting", 3), Some(3));
        assert_eq!(bounded_edit_distance("abc", "abc", 0), Some(0));
        assert_eq!(bounded_edit_distance("abc", "abd", 1), Some(1));
        assert_eq!(bounded_edit_distance("abc", "xyz", 2), None);
        assert_eq!(bounded_edit_distance("", "ab", 2), Some(2));
        assert_eq!(bounded_edit_distance("", "abc", 2), None);
    }

    #[test]
    fn edit_distance_is_case_insensitive() {
        assert_eq!(bounded_edit_distance("Acme Corp", "acme corp", 0), Some(0));
    }

    #[test]
    fn fuzzy_join_links_typo_keys() {
        let left = Table::builder()
            .str("company", ["Acme Corp", "Globex", "Initech"])
            .int("id", [1, 2, 3])
            .build()
            .unwrap();
        let right = Table::builder()
            .str("company", ["acme corp", "Globexx", "Umbrella"])
            .float("rating", [4.0, 3.0, 1.0])
            .build()
            .unwrap();
        let (j, trace) = left
            .fuzzy_join_traced(&right, "company", "company", 1)
            .unwrap();
        assert_eq!(j.num_rows(), 2);
        assert_eq!(trace, vec![(0, Some(0)), (1, Some(1))]);
        assert_eq!(j.get(1, "rating").unwrap().as_float(), Some(3.0));
    }

    #[test]
    fn fuzzy_join_prefers_closest_match() {
        let left = Table::builder().str("k", ["abc"]).build().unwrap();
        let right = Table::builder()
            .str("k", ["abd", "abc"])
            .int("v", [1, 2])
            .build()
            .unwrap();
        let j = left.fuzzy_join(&right, "k", "k", 2).unwrap();
        assert_eq!(j.get(0, "v").unwrap().as_int(), Some(2));
    }

    #[test]
    fn fuzzy_join_uniquifies_colliding_right_names() {
        // Left already owns both `v` and `v_right`; the right `v` column
        // must land under a fresh name instead of failing `add_column`.
        let left = Table::builder()
            .str("k", ["abc"])
            .int("v", [1])
            .int("v_right", [10])
            .build()
            .unwrap();
        let right = Table::builder()
            .str("k", ["abc"])
            .int("v", [2])
            .build()
            .unwrap();
        let j = left.fuzzy_join(&right, "k", "k", 0).unwrap();
        assert_eq!(j.get(0, "v").unwrap().as_int(), Some(1));
        assert_eq!(j.get(0, "v_right").unwrap().as_int(), Some(10));
        assert_eq!(j.get(0, "v_right2").unwrap().as_int(), Some(2));
    }

    #[test]
    fn fuzzy_join_skips_nulls() {
        let left = Table::builder().str_opt("k", vec![None]).build().unwrap();
        let right = Table::builder().str("k", ["x"]).build().unwrap();
        assert_eq!(left.fuzzy_join(&right, "k", "k", 5).unwrap().num_rows(), 0);
    }

    #[test]
    fn fuzzy_join_requires_string_keys() {
        let left = Table::builder().int("k", [1]).build().unwrap();
        let right = Table::builder().str("k", ["x"]).build().unwrap();
        assert!(left.fuzzy_join(&right, "k", "k", 1).is_err());
    }
}
