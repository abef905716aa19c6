//! Group-by aggregation.

use crate::column::Column;
use crate::ops::join::{key_at, Key};
use crate::table::Table;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;

/// An aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Number of rows in the group.
    Count,
    /// Sum of non-null numeric cells.
    Sum,
    /// Mean of non-null numeric cells.
    Mean,
    /// Minimum (by total order).
    Min,
    /// Maximum (by total order).
    Max,
    /// Number of null cells.
    NullCount,
}

/// An aggregation over a column, producing an output column named `alias`.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// Input column (ignored by `Count`).
    pub column: String,
    /// Function to apply.
    pub func: AggFn,
    /// Output column name.
    pub alias: String,
}

impl AggExpr {
    /// Creates an aggregation expression.
    pub fn new(column: impl Into<String>, func: AggFn, alias: impl Into<String>) -> Self {
        AggExpr {
            column: column.into(),
            func,
            alias: alias.into(),
        }
    }
}

impl Table {
    /// Groups rows by the named key columns (nulls form their own group) and
    /// computes the given aggregations per group. Output rows are ordered by
    /// first appearance of each group.
    pub fn group_by(&self, keys: &[&str], aggs: &[AggExpr]) -> Result<Table> {
        // Validate columns early.
        for &k in keys {
            self.column(k)?;
        }
        for agg in aggs {
            self.column(&agg.column)?;
        }

        let key_cols: Vec<&Column> = keys.iter().map(|&k| self.column(k).unwrap()).collect();
        let mut groups: HashMap<Vec<Option<Key<'_>>>, usize> = HashMap::new();
        let mut order: Vec<Vec<usize>> = Vec::new(); // group id -> member rows
        for i in 0..self.num_rows() {
            let gkey: Vec<Option<Key<'_>>> = key_cols.iter().map(|c| key_at(c, i)).collect();
            let next_id = order.len();
            let id = *groups.entry(gkey).or_insert(next_id);
            if id == order.len() {
                order.push(Vec::new());
            }
            order[id].push(i);
        }

        // Key columns: first member's key values.
        let mut pairs: Vec<(String, Column)> = Vec::new();
        for (ki, &k) in keys.iter().enumerate() {
            let firsts: Vec<usize> = order.iter().map(|members| members[0]).collect();
            pairs.push((k.to_owned(), key_cols[ki].take(&firsts)));
        }

        for agg in aggs {
            let col = self.column(&agg.column)?;
            let values: Vec<Value> = order
                .iter()
                .map(|members| aggregate(col, members, agg.func))
                .collect();
            pairs.push((agg.alias.clone(), Column::from_values(&values)?));
        }
        Table::from_columns(pairs)
    }
}

fn aggregate(col: &Column, members: &[usize], func: AggFn) -> Value {
    match func {
        AggFn::Count => Value::Int(members.len() as i64),
        AggFn::NullCount => Value::Int(members.iter().filter(|&&i| col.is_null(i)).count() as i64),
        AggFn::Sum | AggFn::Mean => {
            let (mut sum, mut n) = (0.0, 0usize);
            for &i in members {
                if let Some(v) = col.get(i).as_float() {
                    sum += v;
                    n += 1;
                }
            }
            if n == 0 {
                Value::Null
            } else if func == AggFn::Sum {
                Value::Float(sum)
            } else {
                Value::Float(sum / n as f64)
            }
        }
        AggFn::Min | AggFn::Max => {
            let mut best: Option<Value> = None;
            for &i in members {
                let v = col.get(i);
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match func {
                            AggFn::Min => v.total_cmp(&b).is_lt(),
                            _ => v.total_cmp(&b).is_gt(),
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.unwrap_or(Value::Null)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        Table::builder()
            .str(
                "sector",
                ["health", "health", "finance", "finance", "finance"],
            )
            .float("rating", [Some(4.0), Some(2.0), Some(5.0), None, Some(3.0)])
            .int("id", [1, 2, 3, 4, 5])
            .build()
            .unwrap()
    }

    #[test]
    fn count_and_mean_per_group() {
        let g = demo()
            .group_by(
                &["sector"],
                &[
                    AggExpr::new("id", AggFn::Count, "n"),
                    AggExpr::new("rating", AggFn::Mean, "avg_rating"),
                ],
            )
            .unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.get(0, "sector").unwrap(), Value::from("health"));
        assert_eq!(g.get(0, "n").unwrap(), Value::Int(2));
        assert_eq!(g.get(0, "avg_rating").unwrap(), Value::Float(3.0));
        assert_eq!(g.get(1, "avg_rating").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn min_max_and_null_count() {
        let g = demo()
            .group_by(
                &["sector"],
                &[
                    AggExpr::new("rating", AggFn::Min, "lo"),
                    AggExpr::new("rating", AggFn::Max, "hi"),
                    AggExpr::new("rating", AggFn::NullCount, "missing"),
                ],
            )
            .unwrap();
        assert_eq!(g.get(1, "lo").unwrap(), Value::Float(3.0));
        assert_eq!(g.get(1, "hi").unwrap(), Value::Float(5.0));
        assert_eq!(g.get(1, "missing").unwrap(), Value::Int(1));
    }

    #[test]
    fn sum_of_all_null_group_is_null() {
        let t = Table::builder()
            .str("g", ["a"])
            .float("x", [None::<f64>])
            .build()
            .unwrap();
        let g = t
            .group_by(&["g"], &[AggExpr::new("x", AggFn::Sum, "s")])
            .unwrap();
        assert_eq!(g.get(0, "s").unwrap(), Value::Null);
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let t = Table::builder()
            .str_opt("g", vec![None, Some("a".into()), None])
            .int("x", [1, 2, 3])
            .build()
            .unwrap();
        let g = t
            .group_by(&["g"], &[AggExpr::new("x", AggFn::Count, "n")])
            .unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.get(0, "n").unwrap(), Value::Int(2));
    }

    #[test]
    fn multi_key_grouping() {
        let t = Table::builder()
            .str("a", ["x", "x", "y"])
            .int("b", [1, 1, 1])
            .int("v", [10, 20, 30])
            .build()
            .unwrap();
        let g = t
            .group_by(&["a", "b"], &[AggExpr::new("v", AggFn::Sum, "s")])
            .unwrap();
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.get(0, "s").unwrap(), Value::Float(30.0));
    }

    #[test]
    fn unknown_columns_error() {
        assert!(demo().group_by(&["nope"], &[]).is_err());
        assert!(demo()
            .group_by(&["sector"], &[AggExpr::new("nope", AggFn::Sum, "s")])
            .is_err());
    }
}
