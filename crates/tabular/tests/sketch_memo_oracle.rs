//! Oracle tests for the sketch memo. Each column buffer keeps the sketch
//! `Table::quality_profile` built over it, shares it with every table that
//! holds the buffer and drops it on every write. Here random tables go
//! through random sequences of operators and writes, and after each step
//! the memoised profile of every table still alive must equal, bit for
//! bit, a fresh `quality_profile_sharded(1, QUALITY_PROFILE_CHUNK_LEN)`,
//! which reads and writes no memo.

use nde_tabular::profile::QUALITY_PROFILE_CHUNK_LEN;
use nde_tabular::{Column, DataType, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64: a cell generator that is cheap for long tables.
struct Cells(u64);

impl Cells {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A cell of the same type as `column`, null one time in seven.
    fn value_like(&mut self, column: &Column) -> Value {
        let r = self.next();
        if r.is_multiple_of(7) {
            return Value::Null;
        }
        let r = r >> 3;
        match column {
            Column::Int(_) => Value::Int((r % 41) as i64 - 20),
            Column::Float(_) => Value::Float((r % 1000) as f64 / 8.0 - 60.0),
            Column::Str(_) => Value::from(["a", "bb", "ccc", "", "dd dd"][(r % 5) as usize]),
            Column::Bool(_) => Value::Bool(r.is_multiple_of(2)),
        }
    }
}

/// A table of `rows` rows with one column of each type, all nullable.
fn table(cells: &mut Cells, rows: usize) -> Table {
    let mut column = |dtype: DataType| {
        let mut col = Column::empty(dtype);
        for _ in 0..rows {
            let value = cells.value_like(&col);
            col.push(value).unwrap();
        }
        col
    };
    let pairs = vec![
        ("i".to_owned(), column(DataType::Int)),
        ("f".to_owned(), column(DataType::Float)),
        ("s".to_owned(), column(DataType::Str)),
        ("b".to_owned(), column(DataType::Bool)),
    ];
    Table::from_columns(pairs).unwrap()
}

/// The memoised profile equals a fresh one, bit for bit.
fn check(t: &Table, step: &str) {
    let fresh = t.quality_profile_sharded(1, QUALITY_PROFILE_CHUNK_LEN);
    assert_eq!(t.quality_profile(), fresh, "after {step}: {:?}", t.schema());
}

/// A copy of `t` in buffers of its own, already profiled: a write to it
/// changes the buffers in place, so their memos must be dropped.
fn owned(t: &Table) -> Table {
    let out = t.concat(&t.take(&[]).unwrap()).unwrap();
    check(&out, "copy");
    out
}

fn pick_name(t: &Table, cells: &mut Cells) -> String {
    let names = t.schema().names();
    names[cells.below(names.len())].to_owned()
}

/// Applies one operator or write, chosen by `code`, to `t`; returns the
/// resulting table and what was done.
fn step(t: &Table, code: u64, cells: &mut Cells, fresh: &mut usize) -> (Table, &'static str) {
    *fresh += 1;
    let n = t.num_rows();
    let ncols = t.num_columns();
    let new_name = format!("c{fresh}");
    match code % 15 {
        0 => (t.clone(), "clone"),
        1 => {
            let names = t.schema().names();
            let mut picked: Vec<&str> = names
                .iter()
                .filter(|_| !cells.next().is_multiple_of(3))
                .copied()
                .collect();
            if picked.is_empty() {
                picked.push(names[0]);
            }
            picked.reverse();
            (t.select(&picked).unwrap(), "select")
        }
        2 => {
            let mut out = t.clone();
            out.rename_column(&pick_name(t, cells), new_name).unwrap();
            (out, "rename_column")
        }
        3 => {
            let mut out = t.clone();
            let copy = t.column(&pick_name(t, cells)).unwrap().clone();
            out.add_column(new_name, copy).unwrap();
            (out, "add_column")
        }
        4 => {
            let name = pick_name(t, cells);
            let out = t
                .with_column(&new_name, |r| Value::Bool(!r.is_null(&name)))
                .unwrap();
            (out, "with_column")
        }
        5 if n > 0 => {
            let mut out = owned(t);
            let name = pick_name(t, cells);
            let value = cells.value_like(t.column(&name).unwrap());
            out.set(cells.below(n), &name, value).unwrap();
            (out, "set")
        }
        6 if n > 0 => {
            let mut out = owned(t);
            let name = pick_name(t, cells);
            let value = cells.value_like(t.column(&name).unwrap());
            let row = cells.below(n);
            out.column_mut(&name).unwrap().set(row, value).unwrap();
            (out, "column_mut")
        }
        7 => {
            let mut out = owned(t);
            let row: Vec<Value> = t.columns().map(|c| cells.value_like(c)).collect();
            out.push_row(row).unwrap();
            (out, "push_row")
        }
        8 if ncols > 1 => {
            let mut out = t.clone();
            out.drop_column(&pick_name(t, cells)).unwrap();
            (out, "drop_column")
        }
        9 => {
            let identity: Vec<usize> = (0..n).collect();
            (t.take(&identity).unwrap(), "identity take")
        }
        10 if n > 0 => {
            let len = cells.below(n + 3);
            let indices: Vec<usize> = (0..len).map(|_| cells.below(n)).collect();
            (t.take(&indices).unwrap(), "take")
        }
        11 => (
            t.concat(&t.take(&[]).unwrap()).unwrap().concat(t).unwrap(),
            "concat",
        ),
        12 => {
            // A self-join on a fresh unique key: the left side is an
            // identity gather sharing the input's buffers, the right side
            // comes back suffixed `_right`.
            let keyed = t
                .with_column(&new_name, |r| Value::Int(r.index() as i64))
                .unwrap();
            (
                keyed.inner_join(&keyed, &new_name, &new_name).unwrap(),
                "self-join",
            )
        }
        13 => {
            // One buffer under two names in one table.
            let name = pick_name(t, cells);
            let mut alias = t.select(&[&name]).unwrap();
            alias
                .rename_column(&name, format!("{name}_right{fresh}"))
                .unwrap();
            (t.hstack(&alias).unwrap(), "hstack of an alias")
        }
        _ => (t.take(&[]).unwrap(), "zero rows"),
    }
}

/// Runs `codes` from a table of `rows` rows, profiling every table before
/// and after each step, and every earlier table again at the end.
fn run(seed: u64, rows: usize, codes: &[u64]) {
    let mut cells = Cells(seed);
    let mut fresh = 0;
    let mut tables = vec![table(&mut cells, rows)];
    check(&tables[0], "build");
    for &code in codes {
        let (out, what) = step(tables.last().unwrap(), code, &mut cells, &mut fresh);
        check(&out, what);
        tables.push(out);
    }
    for t in &tables {
        check(t, "the whole sequence");
    }
}

proptest! {
    #[test]
    fn memoised_profiles_equal_fresh_ones_after_every_step(
        seed in any::<u64>(),
        rows in prop_oneof![0usize..30, 0usize..30, 0usize..30, 2030usize..2070],
        codes in prop::collection::vec(any::<u64>(), 1..14),
    ) {
        run(seed, rows, &codes);
    }
}

#[test]
fn every_operator_on_a_table_of_several_shards() {
    let codes: Vec<u64> = (0..14).chain(0..14).chain([14]).collect();
    run(7, 2 * QUALITY_PROFILE_CHUNK_LEN + 17, &codes);
}

#[test]
fn a_renamed_buffer_is_profiled_under_its_new_name() {
    let t = Table::builder().int("k", [1, 2, 3]).build().unwrap();
    t.quality_profile();
    let mut renamed = t.clone();
    renamed.rename_column("k", "key").unwrap();
    let profile = renamed.quality_profile();
    assert_eq!(profile.columns[0].name, "key");
    assert_eq!(t.quality_profile().columns[0].name, "k");
}

#[test]
fn a_self_join_shares_the_left_buffers_and_suffixes_the_right() {
    let t = Table::builder()
        .int("k", [1, 2, 3])
        .str("s", ["x", "y", "x"])
        .build()
        .unwrap();
    t.quality_profile();
    let joined = t.inner_join(&t, "k", "k").unwrap();
    assert!(std::ptr::eq(
        t.column("s").unwrap(),
        joined.column("s").unwrap()
    ));
    let profile = joined.quality_profile();
    assert_eq!(profile.columns[2].name, "s_right");
    assert_eq!(
        profile,
        joined.quality_profile_sharded(1, QUALITY_PROFILE_CHUNK_LEN)
    );
}

#[test]
fn concurrent_first_profiles_agree() {
    let mut cells = Cells(3);
    let t = table(&mut cells, 3 * QUALITY_PROFILE_CHUNK_LEN);
    let fresh = t.quality_profile_sharded(1, QUALITY_PROFILE_CHUNK_LEN);
    let t = Arc::new(t);
    let profiles: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                scope.spawn(move || t.quality_profile())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for profile in profiles {
        assert_eq!(profile, fresh);
    }
}
