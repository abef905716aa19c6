//! Property-based tests for the traced executor: for randomly composed
//! plans over random tables, the provenance annotations must exactly
//! characterize the output — the invariant all the debugging tools above
//! them rely on.

use nde_pipeline::exec::sources;
use nde_pipeline::whatif::{
    delete_source_rows, insert_source_rows, rerun_with_repairs, rerun_without_rows,
};
use nde_pipeline::{Plan, ProvToken};
use nde_tabular::{Table, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    FilterAbove(i64),
    FilterBelow(i64),
    WithDouble,
    ProjectKv,
    DropNulls,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (-50i64..50).prop_map(Op::FilterAbove),
            (-50i64..50).prop_map(Op::FilterBelow),
            Just(Op::WithDouble),
            Just(Op::ProjectKv),
            Just(Op::DropNulls),
        ],
        0..4,
    )
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..10, prop::option::of(-100i64..100)), 1..30).prop_map(|rows| {
        Table::builder()
            .int("k", rows.iter().map(|&(k, _)| k).collect::<Vec<_>>())
            .int("v", rows.iter().map(|&(_, v)| v).collect::<Vec<_>>())
            .build()
            .unwrap()
    })
}

fn build_plan(ops: &[Op], with_join: bool) -> Plan {
    let mut plan = Plan::source("t");
    if with_join {
        plan = plan.join(Plan::source("side"), "k", "k");
    }
    for op in ops {
        plan = match op {
            Op::FilterAbove(t) => {
                let t = *t;
                plan.filter(format!("v > {t}"), move |r| {
                    r.int("v").is_some_and(|v| v > t)
                })
            }
            Op::FilterBelow(t) => {
                let t = *t;
                plan.filter(format!("v < {t}"), move |r| {
                    r.int("v").is_some_and(|v| v < t)
                })
            }
            Op::WithDouble => plan.with_column("v2", "v * 2", |r| {
                r.int("v").map_or(Value::Null, |v| Value::Int(v * 2))
            }),
            Op::ProjectKv => plan.project(&["k", "v"]),
            Op::DropNulls => plan.drop_nulls(&["v"]),
        };
    }
    plan
}

fn side_table() -> Table {
    Table::builder()
        .int("k", (0..10i64).collect::<Vec<_>>())
        .int("w", (0..10i64).map(|i| i * 100).collect::<Vec<_>>())
        .build()
        .unwrap()
}

/// Cell-wise table equivalence that ignores the *dtype* of all-null
/// columns: a UDF column whose surviving outputs are all null gets its
/// type re-inferred on re-execution (the default for an all-null column is
/// `Str`), while incremental deletion preserves the original inference —
/// the same dtype-instability-under-data-change artifact Pandas exhibits.
/// The *values* must still match exactly.
fn tables_equivalent(a: &Table, b: &Table) -> bool {
    if a.num_rows() != b.num_rows() || a.schema().names() != b.schema().names() {
        return false;
    }
    for i in 0..a.num_rows() {
        let (ra, rb) = (a.row_values(i).unwrap(), b.row_values(i).unwrap());
        if ra != rb {
            return false;
        }
    }
    true
}

proptest! {
    /// Traced and plain execution agree, and every output row carries a
    /// non-empty monomial over the right sources.
    #[test]
    fn traced_equals_plain(table in arb_table(), ops in arb_ops(), with_join in any::<bool>()) {
        let plan = build_plan(&ops, with_join);
        let srcs = sources(vec![("t", table), ("side", side_table())]);
        let plain = plan.run(&srcs).unwrap();
        let traced = plan.run_traced(&srcs).unwrap();
        prop_assert_eq!(&plain, &traced.table);
        prop_assert_eq!(traced.lineage.len(), plain.num_rows());
        for m in &traced.lineage {
            prop_assert!(!m.tokens().is_empty());
            let expected_tokens = if with_join { 2 } else { 1 };
            prop_assert_eq!(m.tokens().len(), expected_tokens);
        }
    }

    /// Deleting random source rows via provenance equals re-running the
    /// plan on the shrunken source — for every random monotone plan.
    #[test]
    fn deletion_via_provenance_equals_rerun(
        table in arb_table(),
        ops in arb_ops(),
        with_join in any::<bool>(),
        delete_mask in prop::collection::vec(any::<bool>(), 30),
    ) {
        let plan = build_plan(&ops, with_join);
        let n = table.num_rows();
        let srcs = sources(vec![("t", table), ("side", side_table())]);
        let traced = plan.run_traced(&srcs).unwrap();
        let deletions: Vec<usize> =
            (0..n).filter(|&i| delete_mask.get(i).copied().unwrap_or(false)).collect();
        let incremental = delete_source_rows(&traced, "t", &deletions).unwrap();
        let rerun = rerun_without_rows(&plan, &srcs, "t", &deletions).unwrap();
        prop_assert!(
            tables_equivalent(&incremental.table, &rerun),
            "{:?} vs {:?}",
            incremental.table,
            rerun
        );
    }

    /// dependents() is the exact inverse of the lineage relation.
    #[test]
    fn dependents_inverts_lineage(table in arb_table(), ops in arb_ops()) {
        let plan = build_plan(&ops, false);
        let n = table.num_rows();
        let srcs = sources(vec![("t", table), ("side", side_table())]);
        let traced = plan.run_traced(&srcs).unwrap();
        let src = traced.source_index("t");
        for row in 0..n {
            let deps = traced.dependents("t", row);
            for &out in &deps {
                let Some(src) = src else { break };
                prop_assert!(traced.lineage[out].rows_of_source(src).any(|r| r == row));
            }
        }
    }

    /// Each what-if re-run must equal a plain run over a cloned map with
    /// the source replaced, and leave the caller's map untouched.
    #[test]
    fn whatif_reruns_equal_cloned_map(
        table in arb_table(),
        ops in arb_ops(),
        with_join in any::<bool>(),
        patch_side in any::<bool>(),
        delete_mask in prop::collection::vec(any::<bool>(), 30),
        repair_row in 0usize..30,
        repair_key in 0i64..10,
        new_rows in arb_table(),
    ) {
        let plan = build_plan(&ops, with_join);
        let srcs = sources(vec![("t", table), ("side", side_table())]);
        let snapshot = srcs.clone();
        let replaced = |name: &str, with: Table| {
            let mut cloned = srcs.clone();
            cloned.insert(name.to_owned(), with);
            cloned
        };
        let name = if patch_side { "side" } else { "t" };
        let n = srcs[name].num_rows();

        let deletions: Vec<usize> =
            (0..n).filter(|&i| delete_mask.get(i).copied().unwrap_or(false)).collect();
        let keep: Vec<usize> = (0..n).filter(|i| !deletions.contains(i)).collect();
        let expected = plan.run(&replaced(name, srcs[name].take(&keep).unwrap())).unwrap();
        let got = rerun_without_rows(&plan, &srcs, name, &deletions).unwrap();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(&srcs, &snapshot);

        let repairs = vec![(repair_row % n, "k".to_owned(), Value::Int(repair_key))];
        let mut fixed = srcs[name].clone();
        fixed.set(repair_row % n, "k", Value::Int(repair_key)).unwrap();
        let expected = plan.run(&replaced(name, fixed)).unwrap();
        let got = rerun_with_repairs(&plan, &srcs, name, &repairs).unwrap();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(&srcs, &snapshot);

        // `t` appears exactly once in every generated plan.
        let offset = srcs["t"].num_rows();
        let expected = plan.run_traced(&replaced("t", new_rows.clone())).unwrap();
        let got = insert_source_rows(&plan, &srcs, "t", &new_rows).unwrap();
        prop_assert_eq!(&got.table, &expected.table);
        prop_assert_eq!(&got.source_names, &expected.source_names);
        prop_assert_eq!(got.lineage.len(), expected.lineage.len());
        let t_idx = expected.source_index("t").unwrap();
        for (g, e) in got.lineage.iter().zip(&expected.lineage) {
            let mut rebased: Vec<ProvToken> = e
                .tokens()
                .iter()
                .map(|tok| {
                    let shift = if tok.source == t_idx { offset } else { 0 };
                    ProvToken::new(tok.source, tok.row + shift)
                })
                .collect();
            rebased.sort_unstable();
            prop_assert_eq!(g.tokens(), &rebased[..]);
        }
        prop_assert_eq!(&srcs, &snapshot);
    }
}
