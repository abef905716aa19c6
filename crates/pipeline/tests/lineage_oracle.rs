//! Oracle tests for traced execution and provenance deletion. The
//! executor keeps a source's lineage implicit and builds monomials only
//! where an operator needs them; `delete_source_rows` scans only the
//! deleted source's tokens against a bitmap. Here random plans are
//! evaluated a second time by a reference walk that materialises one
//! monomial per row at every operator, straight from the `nde-tabular`
//! traced kernels, and deletions are checked against a `HashSet` probe of
//! that reference lineage and against `rerun_without_rows`. Inserts that
//! an append-only delta cannot answer (the right side of a left join or
//! of a fuzzy join) must be refused with a typed error; inserts into the
//! right side of an inner join must equal a re-run as a bag.

use nde_pipeline::exec::sources;
use nde_pipeline::whatif::{delete_source_rows, insert_source_rows, rerun_without_rows};
use nde_pipeline::{Monomial, PipelineError, Plan, ProvToken, Sources};
use nde_tabular::{JoinType, Table, Value};
use proptest::prelude::*;
use std::collections::HashSet;

const NAMES: [&str; 3] = ["a", "b", "c"];

/// A plan over sources of schema `(k, v)` whose every operator outputs
/// that schema again (joins are followed by a projection), so any two
/// subplans can be concatenated.
#[derive(Debug, Clone)]
enum Spec {
    Source(&'static str),
    Filter(Box<Spec>, i64),
    DropNulls(Box<Spec>),
    Join(Box<Spec>, Box<Spec>, JoinType),
    Concat(Box<Spec>, Box<Spec>),
}

impl Spec {
    /// Decodes a plan from a byte stream; `depth` bounds the tree.
    fn decode(bytes: &mut impl Iterator<Item = u8>, depth: usize) -> Spec {
        let b = bytes.next().unwrap_or(0);
        let source = Spec::Source(NAMES[usize::from(b / 8) % NAMES.len()]);
        if depth == 0 {
            return source;
        }
        let sub = |bytes: &mut _| Box::new(Spec::decode(bytes, depth - 1));
        match b % 8 {
            0 | 1 => source,
            2 => Spec::Filter(sub(bytes), i64::from(b / 8 % 9) - 4),
            3 => Spec::DropNulls(sub(bytes)),
            4 => Spec::Join(sub(bytes), sub(bytes), JoinType::Inner),
            5 => Spec::Join(sub(bytes), sub(bytes), JoinType::Left),
            _ => Spec::Concat(sub(bytes), sub(bytes)),
        }
    }

    fn has_left_join(&self) -> bool {
        match self {
            Spec::Source(_) => false,
            Spec::Join(_, _, JoinType::Left) => true,
            Spec::Filter(s, _) | Spec::DropNulls(s) => s.has_left_join(),
            Spec::Join(l, r, _) | Spec::Concat(l, r) => l.has_left_join() || r.has_left_join(),
        }
    }

    fn plan(&self) -> Plan {
        match self {
            Spec::Source(name) => Plan::source(*name),
            Spec::Filter(s, t) => {
                let t = *t;
                s.plan().filter(format!("v > {t}"), move |r| {
                    r.int("v").is_some_and(|v| v > t)
                })
            }
            Spec::DropNulls(s) => s.plan().drop_nulls(&["v"]),
            Spec::Join(l, r, JoinType::Inner) => {
                l.plan().join(r.plan(), "k", "k").project(&["k", "v"])
            }
            Spec::Join(l, r, JoinType::Left) => {
                l.plan().left_join(r.plan(), "k", "k").project(&["k", "v"])
            }
            Spec::Concat(t, b) => t.plan().concat(b.plan()),
        }
    }

    /// The reference walk: one materialised monomial per row at every
    /// operator, sources interned in evaluation order.
    fn reference(&self, srcs: &Sources, names: &mut Vec<String>) -> (Table, Vec<Monomial>) {
        match self {
            Spec::Source(name) => {
                let src = names.iter().position(|n| n == name).unwrap_or_else(|| {
                    names.push((*name).to_owned());
                    names.len() - 1
                });
                let table = srcs[*name].clone();
                let lineage = (0..table.num_rows())
                    .map(|i| Monomial::of(ProvToken::new(src, i)))
                    .collect();
                (table, lineage)
            }
            Spec::Filter(s, t) => {
                let (table, lineage) = s.reference(srcs, names);
                let (out, kept) = table
                    .filter_traced(|r| r.int("v").is_some_and(|v| v > *t))
                    .unwrap();
                (out, kept.iter().map(|&i| lineage[i].clone()).collect())
            }
            Spec::DropNulls(s) => {
                let (table, lineage) = s.reference(srcs, names);
                let (out, kept) = table.drop_nulls_traced(&["v"]).unwrap();
                (out, kept.iter().map(|&i| lineage[i].clone()).collect())
            }
            Spec::Join(l, r, how) => {
                let (lt, ll) = l.reference(srcs, names);
                let (rt, rl) = r.reference(srcs, names);
                let (out, trace) = lt.join_traced(&rt, "k", "k", *how).unwrap();
                let lineage = trace
                    .iter()
                    .map(|&(li, rj)| match rj {
                        Some(rj) => ll[li].times(&rl[rj]),
                        None => ll[li].clone(),
                    })
                    .collect();
                (out.select(&["k", "v"]).unwrap(), lineage)
            }
            Spec::Concat(t, b) => {
                let (tt, mut tl) = t.reference(srcs, names);
                let (bt, bl) = b.reference(srcs, names);
                tl.extend(bl);
                (tt.concat(&bt).unwrap(), tl)
            }
        }
    }
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..4, prop::option::of(-5i64..5)), 0..10).prop_map(|rows| {
        Table::builder()
            .int("k", rows.iter().map(|&(k, _)| k).collect::<Vec<_>>())
            .int("v", rows.iter().map(|&(_, v)| v).collect::<Vec<_>>())
            .build()
            .unwrap()
    })
}

/// Row lists a caller may pass: empty, duplicated, out of range (up to
/// `usize::MAX`) and random with repeats.
fn row_lists(n: usize, random: &[usize]) -> Vec<Vec<usize>> {
    vec![
        vec![],
        vec![0, 0, 0],
        vec![n, n + 5, usize::MAX],
        vec![usize::MAX, 0, n.saturating_sub(1), usize::MAX],
        random.iter().map(|&r| r % (n + 3)).collect(),
        (0..n).collect(),
    ]
}

/// Checks one plan: traced lineage equals the reference walk; every
/// deletion keeps exactly the rows the reference lineage keeps; and, for
/// plans without left joins (where a deletion can turn a matched row
/// into an unmatched one), equals a re-run.
fn check(spec: &Spec, srcs: &Sources, random: &[usize]) {
    let plan = spec.plan();
    let traced = plan.run_traced(srcs).unwrap();
    let mut names = Vec::new();
    let (table, lineage) = spec.reference(srcs, &mut names);
    assert_eq!(traced.table, table, "{spec:?}");
    assert_eq!(traced.lineage, lineage, "{spec:?}");
    assert_eq!(traced.source_names, names, "{spec:?}");

    for (src, name) in names.iter().enumerate() {
        for rows in row_lists(srcs[name].num_rows(), random) {
            let effect = delete_source_rows(&traced, name, &rows).unwrap();
            let deleted: HashSet<ProvToken> =
                rows.iter().map(|&r| ProvToken::new(src, r)).collect();
            let kept: Vec<usize> = (0..lineage.len())
                .filter(|&i| lineage[i].tokens().iter().all(|t| !deleted.contains(t)))
                .collect();
            assert_eq!(effect.kept, kept, "{spec:?} deleting {rows:?} of {name}");
            assert_eq!(effect.table, traced.table.take(&kept).unwrap());
            if !spec.has_left_join() {
                let rerun = rerun_without_rows(&plan, srcs, name, &rows).unwrap();
                assert_eq!(effect.table, rerun, "{spec:?} deleting {rows:?} of {name}");
            }
        }
    }
}

proptest! {
    /// Random plans with sources at every position, inner and left joins
    /// (with unmatched rows), concatenations, and filters and null drops
    /// directly on sources.
    #[test]
    fn traced_lineage_and_deletions_match_the_reference(
        a in arb_table(),
        b in arb_table(),
        c in arb_table(),
        code in prop::collection::vec(any::<u8>(), 1..24),
        random in prop::collection::vec(0usize..64, 0..6),
    ) {
        let spec = Spec::decode(&mut code.into_iter(), 4);
        let srcs = sources(vec![("a", a), ("b", b), ("c", c)]);
        check(&spec, &srcs, &random);
    }
}

fn demo_sources() -> Sources {
    let table = |rows: &[(i64, Option<i64>)]| {
        Table::builder()
            .int("k", rows.iter().map(|&(k, _)| k).collect::<Vec<_>>())
            .int("v", rows.iter().map(|&(_, v)| v).collect::<Vec<_>>())
            .build()
            .unwrap()
    };
    sources(vec![
        (
            "a",
            table(&[(0, Some(1)), (1, None), (2, Some(3)), (0, Some(-2))]),
        ),
        ("b", table(&[(0, Some(5)), (0, Some(6)), (3, Some(7))])),
        ("c", table(&[])),
    ])
}

#[test]
fn fixed_plans_match_the_reference() {
    use Spec::*;
    let src = |n| Box::new(Source(n));
    let specs = [
        // A source-only plan.
        Source("a"),
        // A filter and a null drop directly on a source.
        Filter(src("a"), 0),
        DropNulls(src("b")),
        // Left joins with unmatched rows on both sides, and a self-join.
        Join(src("a"), src("b"), JoinType::Left),
        Join(src("b"), src("a"), JoinType::Left),
        Join(src("a"), src("a"), JoinType::Inner),
        // An empty source on either side.
        Join(src("c"), src("a"), JoinType::Left),
        Join(src("a"), src("c"), JoinType::Left),
        // Concatenations of sources and of operator outputs.
        Concat(src("a"), src("a")),
        Concat(
            Box::new(Join(src("a"), src("b"), JoinType::Inner)),
            Box::new(Filter(src("b"), 5)),
        ),
    ];
    for spec in &specs {
        check(spec, &demo_sources(), &[1, 1, 2, 40]);
    }
}

/// The Figure-3 shape: letters joined with a job side table and a social
/// side table, filtered on a side-table column, plus a derived column.
/// Deleting rows of the side table `jobdetail_df` removes every letter
/// that joined them, exactly as a re-run does.
#[test]
fn side_table_deletions_equal_a_rerun() {
    let n = 120;
    let train = Table::builder()
        .int("person_id", (0..n).collect::<Vec<_>>())
        .int("job_id", (0..n).map(|i| i * 7 % 13).collect::<Vec<_>>())
        .str(
            "letter",
            (0..n).map(|i| format!("letter {i}")).collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let jobs = Table::builder()
        .int("job_id", (0..13).collect::<Vec<_>>())
        .str(
            "sector",
            (0..13)
                .map(|j| if j % 3 == 0 { "finance" } else { "healthcare" })
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let social = Table::builder()
        .int(
            "person_id",
            (0..n).filter(|i| i % 5 != 0).collect::<Vec<_>>(),
        )
        .str_opt(
            "twitter",
            (0..n)
                .filter(|i| i % 5 != 0)
                .map(|i| (i % 2 == 0).then(|| format!("@{i}")))
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap();
    let srcs = sources(vec![
        ("train_df", train),
        ("jobdetail_df", jobs),
        ("social_df", social),
    ]);
    let plan = Plan::source("train_df")
        .join(Plan::source("jobdetail_df"), "job_id", "job_id")
        .join(Plan::source("social_df"), "person_id", "person_id")
        .filter("sector == healthcare", |r| {
            r.str("sector") == Some("healthcare")
        })
        .with_column("has_twitter", "twitter IS NOT NULL", |r| {
            Value::Bool(!r.is_null("twitter"))
        });
    let traced = plan.run_traced(&srcs).unwrap();
    for name in ["jobdetail_df", "train_df", "social_df"] {
        for rows in row_lists(srcs[name].num_rows(), &[3, 3, 8, 11, 90]) {
            let via_provenance = delete_source_rows(&traced, name, &rows).unwrap().table;
            let rerun = rerun_without_rows(&plan, &srcs, name, &rows).unwrap();
            if rerun.is_empty() {
                // The documented caveat of `delete_source_rows`: a re-run
                // re-infers the dtype of a derived column with no cells.
                assert!(via_provenance.is_empty());
                assert_eq!(via_provenance.schema().names(), rerun.schema().names());
            } else {
                assert_eq!(via_provenance, rerun, "deleting {rows:?} of {name}");
            }
        }
    }
    // Deleting a healthcare job removes exactly the letters that joined it.
    let effect = delete_source_rows(&traced, "jobdetail_df", &[1]).unwrap();
    let gone = traced.dependents("jobdetail_df", 1);
    assert!(!gone.is_empty());
    assert_eq!(effect.kept.len() + gone.len(), traced.table.num_rows());
}

/// Grows `source` by `new_rows` and returns the re-run over the grown
/// sources, after checking that `insert_source_rows` refuses the insert
/// with a typed error rather than answer with a delta that, appended to
/// the output, differs from that re-run.
fn assert_insert_refused(plan: &Plan, srcs: &Sources, source: &str, new_rows: &Table) -> Table {
    let mut grown = srcs.clone();
    grown.insert(source.to_owned(), srcs[source].concat(new_rows).unwrap());
    let rerun = plan.run(&grown).unwrap();
    match insert_source_rows(plan, srcs, source, new_rows) {
        Err(PipelineError::Invalid { .. }) => {}
        Ok(delta) => {
            let incremental = plan.run(srcs).unwrap().concat(&delta.table).unwrap();
            assert_eq!(incremental, rerun, "a wrong delta for {source:?}");
            panic!("insert into {source:?} answered instead of refused");
        }
        Err(e) => panic!("unexpected error {e}"),
    }
    rerun
}

/// `l(k=[1,2]) ⟕ r(k=[1])` plus a right row `k=2`: appending the delta
/// would keep the null-extended row of `k=2` next to its new match.
#[test]
fn inserts_into_the_right_side_of_a_left_join_are_refused() {
    let table = |keys: &[i64]| {
        Table::builder()
            .int("k", keys.to_vec())
            .int("v", keys.iter().map(|k| k * 10).collect::<Vec<_>>())
            .build()
            .unwrap()
    };
    let srcs = sources(vec![("l", table(&[1, 2])), ("r", table(&[1]))]);
    let plan = Plan::source("l").left_join(Plan::source("r"), "k", "k");
    let rerun = assert_insert_refused(&plan, &srcs, "r", &table(&[2]));
    assert_eq!(rerun.num_rows(), 2);
    // The left side still distributes over union.
    let delta = insert_source_rows(&plan, &srcs, "l", &table(&[1, 3])).unwrap();
    assert_eq!(delta.table.num_rows(), 2);
}

/// A fuzzy join whose right side gains a key closer than the current
/// match: appending the delta would keep the displaced match too.
#[test]
fn inserts_into_the_right_side_of_a_fuzzy_join_are_refused() {
    let table = |keys: &[&str], key: &str, payload: &str, first: i64| {
        Table::builder()
            .str(key, keys.to_vec())
            .int(
                payload,
                (first..first + keys.len() as i64).collect::<Vec<_>>(),
            )
            .build()
            .unwrap()
    };
    let srcs = sources(vec![
        ("l", table(&["abc", "xyz"], "name", "v", 0)),
        ("r", table(&["abd", "xyz"], "key", "w", 10)),
    ]);
    let closer = table(&["abc"], "key", "w", 12);
    let plan = Plan::source("l").fuzzy_join(Plan::source("r"), "name", "key", 1);
    let rerun = assert_insert_refused(&plan, &srcs, "r", &closer);
    assert_eq!(rerun.num_rows(), 2);
    assert_eq!(rerun.get(0, "w").unwrap(), Value::Int(12));
    // Refused wherever the source sits below the right input.
    let nested =
        Plan::source("l").fuzzy_join(Plan::source("r").filter("any", |_| true), "name", "key", 1);
    assert!(matches!(
        insert_source_rows(&nested, &srcs, "r", &closer),
        Err(PipelineError::Invalid { .. })
    ));
}

/// The rows of `t`, each rendered as one string, sorted: `t` as a bag.
fn bag(t: &Table) -> Vec<String> {
    let names = t.schema().names();
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|i| {
            format!(
                "{:?}",
                names
                    .iter()
                    .map(|n| t.get(i, n).unwrap())
                    .collect::<Vec<_>>()
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Inserts into the right side of an inner join are answered: the grown
/// output equals a re-run as a bag, but lists the new matches last.
#[test]
fn inserts_into_the_right_side_of_an_inner_join_equal_a_rerun_as_a_bag() {
    let table = |keys: &[i64], first: i64| {
        Table::builder()
            .int("k", keys.to_vec())
            .int("v", (first..first + keys.len() as i64).collect::<Vec<_>>())
            .build()
            .unwrap()
    };
    let srcs = sources(vec![("l", table(&[1, 2, 1], 0)), ("r", table(&[1], 10))]);
    let new_rows = table(&[2, 1], 11);
    let plan = Plan::source("l").join(Plan::source("r"), "k", "k");
    let mut grown = srcs.clone();
    grown.insert("r".to_owned(), srcs["r"].concat(&new_rows).unwrap());
    let rerun = plan.run(&grown).unwrap();
    let delta = insert_source_rows(&plan, &srcs, "r", &new_rows).unwrap();
    let incremental = plan.run(&srcs).unwrap().concat(&delta.table).unwrap();
    assert_eq!(bag(&incremental), bag(&rerun));
    assert_ne!(incremental, rerun);
}
