//! String cells are shared `Arc<str>` buffers: every operator that moves
//! rows copies a pointer per cell, never the text. These tests pin that
//! sharing (`Arc::ptr_eq` between input and output cells), that an
//! identity `take` shares whole column buffers, and that the cell-level
//! API (`get`, `set`, CSV) reads and writes plain strings as before.

use nde_tabular::{Column, JoinType, Table, Value};
use std::sync::Arc;

fn letters() -> Table {
    Table::builder()
        .int("id", [1, 2, 3, 4])
        .str_opt(
            "text",
            vec![
                Some("dear hiring manager, I apply".into()),
                None,
                Some("to whom it may concern".into()),
                Some("dear hiring manager, I apply".into()),
            ],
        )
        .str("employer", ["acme", "globex", "acme", "initech"])
        .build()
        .unwrap()
}

fn employers() -> Table {
    Table::builder()
        .str("employer", ["acme", "globexx", "umbrella"])
        .str("industry", ["tools", "energy", "pharma"])
        .build()
        .unwrap()
}

fn cells<'t>(table: &'t Table, name: &str) -> &'t [Option<Arc<str>>] {
    table
        .column(name)
        .unwrap()
        .as_str()
        .expect("a string column")
}

/// Whether output cell `out_row` of `name` is the very buffer of input
/// cell `in_row` (two nulls count as shared).
fn shared(out: &Table, out_row: usize, input: &Table, in_row: usize, name: &str) -> bool {
    match (&cells(out, name)[out_row], &cells(input, name)[in_row]) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (None, None) => true,
        _ => false,
    }
}

#[test]
fn take_shares_cells_in_any_order() {
    let t = letters();
    let taken = t.take(&[3, 0, 0, 1]).unwrap();
    for (out_row, in_row) in [(0, 3), (1, 0), (2, 0), (3, 1)] {
        assert!(shared(&taken, out_row, &t, in_row, "text"));
        assert!(shared(&taken, out_row, &t, in_row, "employer"));
    }
    // Rows 0 and 3 hold equal text in two distinct buffers; take keeps
    // them distinct rather than deduplicating.
    assert!(!Arc::ptr_eq(
        cells(&taken, "text")[0].as_ref().unwrap(),
        cells(&taken, "text")[1].as_ref().unwrap()
    ));
}

/// Whether two tables hold column `name` in the very same buffer.
fn same_buffer(a: &Table, b: &Table, name: &str) -> bool {
    std::ptr::eq(a.column(name).unwrap(), b.column(name).unwrap())
}

#[test]
fn an_identity_take_shares_the_buffers() {
    let t = letters();
    let same = t.take(&[0, 1, 2, 3]).unwrap();
    for name in ["id", "text", "employer"] {
        assert!(same_buffer(&t, &same, name));
    }
    assert!(Arc::ptr_eq(
        cells(&same, "text")[0].as_ref().unwrap(),
        cells(&t, "text")[0].as_ref().unwrap()
    ));
    // Any other selection gathers into buffers of its own.
    for indices in [&[0, 1, 2][..], &[0, 1, 3, 2], &[0, 1, 2, 3, 3]] {
        assert!(!same_buffer(&t, &t.take(indices).unwrap(), "text"));
    }
    // A join in which every left row matches once, in order, passes the
    // left columns through.
    let side = Table::builder()
        .str("employer", ["acme", "globex", "initech"])
        .int("size", [10, 20, 30])
        .build()
        .unwrap();
    for how in [JoinType::Inner, JoinType::Left] {
        let out = t.join_traced(&side, "employer", "employer", how).unwrap().0;
        assert!(same_buffer(&t, &out, "text"));
    }
    let out = t.fuzzy_join(&side, "employer", "employer", 0).unwrap();
    assert!(same_buffer(&t, &out, "text"));
}

#[test]
fn concat_shares_both_sides() {
    let (top, bottom) = (letters(), letters().take(&[2, 1]).unwrap());
    let both = top.concat(&bottom).unwrap();
    for row in 0..top.num_rows() {
        assert!(shared(&both, row, &top, row, "text"));
    }
    for row in 0..bottom.num_rows() {
        assert!(shared(&both, top.num_rows() + row, &bottom, row, "text"));
    }
}

#[test]
fn filter_shares_kept_cells() {
    let t = letters();
    let (out, kept) = t
        .filter_traced(|r| r.str("employer") == Some("acme"))
        .unwrap();
    assert_eq!(kept, [0, 2]);
    for (out_row, &in_row) in kept.iter().enumerate() {
        assert!(shared(&out, out_row, &t, in_row, "text"));
    }
}

#[test]
fn inner_and_left_joins_share_both_sides() {
    let t = letters();
    let side = employers();
    for how in [JoinType::Inner, JoinType::Left] {
        let (out, trace) = t.join_traced(&side, "employer", "employer", how).unwrap();
        for (out_row, &(li, rj)) in trace.iter().enumerate() {
            assert!(shared(&out, out_row, &t, li, "text"));
            match rj {
                Some(rj) => assert!(shared(&out, out_row, &side, rj, "industry")),
                None => assert!(cells(&out, "industry")[out_row].is_none()),
            }
        }
    }
}

#[test]
fn fuzzy_join_shares_both_sides() {
    let t = letters();
    let side = employers();
    let (out, trace) = t
        .fuzzy_join_traced(&side, "employer", "employer", 1)
        .unwrap();
    assert_eq!(trace.len(), 3, "acme, globex~globexx, acme");
    for (out_row, &(li, rj)) in trace.iter().enumerate() {
        assert!(shared(&out, out_row, &t, li, "text"));
        assert!(shared(&out, out_row, &side, rj.unwrap(), "industry"));
    }
}

#[test]
fn with_column_shares_the_input_columns() {
    let t = letters();
    let out = t
        .with_column("long", |r| {
            Value::Bool(r.str("text").is_some_and(|s| s.len() > 24))
        })
        .unwrap();
    for row in 0..t.num_rows() {
        assert!(shared(&out, row, &t, row, "text"));
    }
    // A string-valued derived column holds its own buffers.
    let upper = t
        .with_column("shout", |r| {
            r.str("employer")
                .map_or(Value::Null, |s| Value::Str(s.to_uppercase()))
        })
        .unwrap();
    assert_eq!(upper.get(1, "shout").unwrap(), Value::from("GLOBEX"));
}

#[test]
fn get_and_set_read_and_write_plain_strings() {
    let t = letters();
    assert_eq!(
        t.get(0, "text").unwrap(),
        Value::Str("dear hiring manager, I apply".to_owned())
    );
    assert_eq!(t.get(1, "text").unwrap(), Value::Null);
    let mut c = t.clone();
    c.set(2, "text", Value::from("rewritten")).unwrap();
    c.set(0, "text", Value::Null).unwrap();
    assert_eq!(c.get(2, "text").unwrap(), Value::from("rewritten"));
    assert_eq!(c.get(0, "text").unwrap(), Value::Null);
    // The original keeps its cells; untouched cells stay shared.
    assert_eq!(
        t.get(2, "text").unwrap(),
        Value::from("to whom it may concern")
    );
    assert!(shared(&c, 3, &t, 3, "text"));
    assert!(c.set(0, "text", Value::Int(1)).is_err());
    let mut col = Column::empty(nde_tabular::DataType::Str);
    col.push(Value::from("x")).unwrap();
    col.push(Value::Null).unwrap();
    assert_eq!(col.get(0), Value::from("x"));
    assert_eq!(col.null_count(), 1);
}

#[test]
fn csv_round_trip_is_unchanged() {
    let t = letters();
    let text = t.to_csv_string();
    let back = Table::from_csv_reader(text.as_bytes()).unwrap();
    assert_eq!(back.to_csv_string(), text);
    for row in 0..t.num_rows() {
        assert_eq!(back.row_values(row).unwrap(), t.row_values(row).unwrap());
    }
}
