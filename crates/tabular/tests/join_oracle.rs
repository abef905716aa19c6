//! Oracle tests for hash joins. Every join probes a key index that is
//! built once per right-hand column buffer and shared by every table
//! holding that buffer. Here random tables are joined and checked against
//! a nested-loop reference join written from the exact-equality rule
//! alone: numbers compare by exact value across `Int` and `Float`
//! (`1 == 1.0`, `-0.0 == 0`, `2^53 != 2^53 + 1`), a NaN matches only a NaN
//! with the same bits, other types compare by value, cells of different
//! types never match and nulls match nothing. Each right table is joined
//! cold, then warm, and again after writes that must invalidate its index.

use nde_tabular::{AggExpr, AggFn, Column, JoinType, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

const TWO_53: i64 = 1 << 53;

/// Key pools per type; picks past a pool's end are nulls.
const INT_POOL: [i64; 9] = [
    0,
    1,
    -1,
    2,
    TWO_53,
    TWO_53 + 1,
    -TWO_53 - 1,
    i64::MAX,
    i64::MIN,
];

const FLOAT_POOL: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    TWO_53 as f64,
    (TWO_53 + 2) as f64,
    i64::MIN as f64,
    9_223_372_036_854_775_808.0, // 2^63, one past i64::MAX
    1e300,
];

const STR_POOL: [&str; 4] = ["", "a", "b", "ab"];

/// A key column of type `dtype` (0 int, 1 float, 2 str, 3 bool) whose
/// cells pick from that type's pool, or null.
fn key_column(dtype: u8, picks: &[usize]) -> Column {
    fn pick<T: Clone>(pool: &[T], p: usize) -> Option<T> {
        pool.get(p % (pool.len() + 2)).cloned()
    }
    match dtype % 4 {
        0 => Column::Int(picks.iter().map(|&p| pick(&INT_POOL, p)).collect()),
        1 => Column::Float(picks.iter().map(|&p| pick(&FLOAT_POOL, p)).collect()),
        2 => Column::Str(
            picks
                .iter()
                .map(|&p| pick(&STR_POOL, p).map(Arc::from))
                .collect(),
        ),
        _ => Column::Bool(picks.iter().map(|&p| pick(&[false, true], p)).collect()),
    }
}

/// A table `(k, <payload>)` with a row-id payload, so every output cell
/// identifies its input row.
fn table(dtype: u8, picks: &[usize], payload: &str) -> Table {
    let ids = Column::Int((0..picks.len() as i64).map(Some).collect());
    Table::from_columns(vec![
        ("k".into(), key_column(dtype, picks)),
        (payload.into(), ids),
    ])
    .unwrap()
}

/// The exact-equality rule, stated on values.
fn keys_equal(a: &Value, b: &Value) -> bool {
    /// An integral, finite float as an `i128` (exact below 2^127).
    fn integral(x: f64) -> Option<i128> {
        (x.is_finite() && x.fract() == 0.0 && x.abs() < 1e38).then_some(x as i128)
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
            integral(*f) == Some(i128::from(*i))
        }
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x.is_nan() && y.is_nan() && x.to_bits() == y.to_bits())
        }
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// Nested-loop join trace: per left row, every equal right row in
/// ascending order, or `(left, None)` for an unmatched left-join row.
fn reference_trace(left: &Table, right: &Table, how: JoinType) -> Vec<(usize, Option<usize>)> {
    let (lk, rk) = (left.column("k").unwrap(), right.column("k").unwrap());
    let mut trace = Vec::new();
    for i in 0..left.num_rows() {
        let before = trace.len();
        for j in 0..right.num_rows() {
            if keys_equal(&lk.get(i), &rk.get(j)) {
                trace.push((i, Some(j)));
            }
        }
        if trace.len() == before && how == JoinType::Left {
            trace.push((i, None));
        }
    }
    trace
}

/// Cell equality that treats a NaN as equal to itself (bit for bit).
fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Checks one join of `left` and `right` against the reference: the trace
/// exactly, and every output cell against the input cell it came from.
fn check_join(left: &Table, right: &Table, how: JoinType) -> Result<(), String> {
    let (out, trace) = left.join_traced(right, "k", "k", how).unwrap();
    let expected = reference_trace(left, right, how);
    if trace != expected {
        return Err(format!("{how:?} trace {trace:?}, expected {expected:?}"));
    }
    if out.schema().names() != ["k", "l", "r"] || out.num_rows() != trace.len() {
        return Err(format!("{how:?} output shape {:?}", out.schema().names()));
    }
    for (row, &(i, j)) in trace.iter().enumerate() {
        let want = [
            left.get(i, "k").unwrap(),
            left.get(i, "l").unwrap(),
            j.map_or(Value::Null, |j| right.get(j, "r").unwrap()),
        ];
        let got = out.row_values(row).unwrap();
        if !got.iter().zip(&want).all(|(g, w)| same_cell(g, w)) {
            return Err(format!("{how:?} row {row}: {got:?}, expected {want:?}"));
        }
    }
    Ok(())
}

/// Inner and left joins, each cold (first join builds the index) and then
/// warm (the index is reused).
fn check_both(left: &Table, right: &Table) -> Result<(), String> {
    for how in [JoinType::Inner, JoinType::Left] {
        let cold = left.join_traced(right, "k", "k", how).unwrap();
        check_join(left, right, how)?;
        let warm = left.join_traced(right, "k", "k", how).unwrap();
        if warm.1 != cold.1 || format!("{:?}", warm.0) != format!("{:?}", cold.0) {
            return Err(format!("{how:?}: warm join differs from cold"));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn joins_match_the_nested_loop_reference(
        (ltype, rtype) in (0u8..4, 0u8..4),
        lpicks in prop::collection::vec(0usize..16, 0..24),
        rpicks in prop::collection::vec(0usize..16, 0..24),
    ) {
        let left = table(ltype, &lpicks, "l");
        let right = table(rtype, &rpicks, "r");
        check_both(&left, &right).map_err(|e| format!("{e}\nleft {left:?}\nright {right:?}")).unwrap();
    }

    #[test]
    fn writes_to_a_joined_right_table_reach_its_index(
        (ltype, rtype) in (0u8..4, 0u8..4),
        lpicks in prop::collection::vec(0usize..16, 1..24),
        rpicks in prop::collection::vec(0usize..16, 1..24),
        (target, from) in (0usize..64, 0usize..64),
    ) {
        let left = table(ltype, &lpicks, "l");
        let mut right = table(rtype, &rpicks, "r");
        check_both(&left, &right).unwrap();
        // Re-key one right row with a left key, and then append a row
        // with that key (a right key when the types differ, so both
        // writes are valid).
        let key = if ltype == rtype {
            left.get(from % lpicks.len(), "k").unwrap()
        } else {
            right.get(from % rpicks.len(), "k").unwrap()
        };
        right.set(target % rpicks.len(), "k", key.clone()).unwrap();
        check_both(&left, &right).unwrap();
        right.push_row(vec![key, Value::Int(rpicks.len() as i64)]).unwrap();
        check_both(&left, &right).unwrap();
    }
}

#[test]
fn exact_int_keys_do_not_collide() {
    let left = Table::builder().int("k", [TWO_53 + 1]).build().unwrap();
    let right = Table::builder()
        .int("k", [TWO_53])
        .int("r", [0])
        .build()
        .unwrap();
    assert_eq!(left.inner_join(&right, "k", "k").unwrap().num_rows(), 0);
    let floats = Table::builder()
        .float("k", [TWO_53 as f64])
        .int("r", [0])
        .build()
        .unwrap();
    assert_eq!(left.inner_join(&floats, "k", "k").unwrap().num_rows(), 0);
    assert_eq!(right.inner_join(&floats, "k", "k").unwrap().num_rows(), 1);

    let both = Table::builder()
        .int("k", [TWO_53, TWO_53 + 1, TWO_53])
        .build()
        .unwrap();
    let groups = both
        .group_by(&["k"], &[AggExpr::new("k", AggFn::Count, "n")])
        .unwrap();
    assert_eq!(groups.num_rows(), 2);
    assert_eq!(groups.get(0, "n").unwrap(), Value::Int(2));
    assert_eq!(groups.get(1, "k").unwrap(), Value::Int(TWO_53 + 1));
}

#[test]
fn a_set_key_is_seen_by_the_next_join() {
    let left = Table::builder()
        .int("k", [1, 2, 3])
        .int("l", [0, 1, 2])
        .build()
        .unwrap();
    let mut right = Table::builder()
        .int("k", [1, 2, 3])
        .int("r", [0, 1, 2])
        .build()
        .unwrap();
    check_both(&left, &right).unwrap();
    right.set(0, "k", Value::Int(2)).unwrap();
    check_both(&left, &right).unwrap();
    right
        .column_mut("k")
        .unwrap()
        .set(2, Value::Int(2))
        .unwrap();
    check_both(&left, &right).unwrap();
}

#[test]
fn a_pushed_row_is_seen_by_the_next_join() {
    let left = Table::builder()
        .int("k", [1, 2, 3])
        .int("l", [0, 1, 2])
        .build()
        .unwrap();
    let mut right = Table::builder()
        .int("k", [1, 2])
        .int("r", [0, 1])
        .build()
        .unwrap();
    check_both(&left, &right).unwrap();
    right.push_row(vec![Value::Int(3), Value::Int(2)]).unwrap();
    right.push_row(vec![Value::Int(1), Value::Int(3)]).unwrap();
    check_both(&left, &right).unwrap();
}

#[test]
fn concurrent_first_joins_agree() {
    let picks: Vec<usize> = (0..2_000).map(|i| i * 7 % 13).collect();
    let left = table(0, &picks[..300], "l");
    let right = table(1, &picks, "r");
    let expected = reference_trace(&left, &right, JoinType::Left);
    let traces = nde_parallel::par_map_chunks(64, 1, |_| {
        left.join_traced(&right, "k", "k", JoinType::Left)
            .unwrap()
            .1
    });
    assert!(traces.iter().all(|t| *t == expected));
}
