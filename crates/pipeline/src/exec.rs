//! Plan execution: one operator walk over the source tables. A plain run
//! and a traced run do the same operator work; the traced run also
//! carries one provenance [`Monomial`] per row and opens a span per
//! operator. Tables share their column buffers, so reading a source,
//! projecting it or adding a column copies no cells.
//!
//! A source's lineage, "row `i` of source `s`", is implicit: joins build
//! monomials only for their output rows, filters and null drops gather
//! only the kept rows, and only `Concat` and the final [`TracedTable`]
//! write one monomial per source row.

use crate::plan::{Node, Plan, PlanJoin};
use crate::provenance::{Monomial, ProvToken};
use crate::{PipelineError, Result};
use nde_tabular::{JoinType, Table};
use std::collections::HashMap;

/// Named source tables a plan executes over.
pub type Sources = HashMap<String, Table>;

/// Builds a [`Sources`] map from `(name, table)` pairs.
pub fn sources(pairs: Vec<(&str, Table)>) -> Sources {
    pairs.into_iter().map(|(n, t)| (n.to_owned(), t)).collect()
}

/// A pipeline output with row-level provenance: `lineage[i]` is the
/// monomial of source rows that produced output row `i`.
#[derive(Debug, Clone)]
pub struct TracedTable {
    /// The output table.
    pub table: Table,
    /// Per-output-row provenance monomials (same length as the table).
    pub lineage: Vec<Monomial>,
    /// Source-table names; `ProvToken::source` indexes into this.
    pub source_names: Vec<String>,
}

impl TracedTable {
    /// The token-source index of a named source table.
    pub fn source_index(&self, name: &str) -> Option<usize> {
        self.source_names.iter().position(|n| n == name)
    }

    /// The output rows that depend on row `row` of source `name`.
    pub fn dependents(&self, name: &str, row: usize) -> Vec<usize> {
        let Some(source) = self.source_index(name) else {
            return Vec::new();
        };
        let token = ProvToken::new(source, row);
        self.lineage
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains(token))
            .map(|(i, _)| i)
            .collect()
    }
}

/// An execution observer: called with every operator's label and output.
pub(crate) type Observer<'o> = &'o mut dyn FnMut(&Node, &Table);

/// Looks up a named source table.
pub(crate) fn lookup_source<'a>(sources: &'a Sources, name: &str) -> Result<&'a Table> {
    sources
        .get(name)
        .ok_or_else(|| PipelineError::UnknownSource {
            name: name.to_owned(),
        })
}

impl Plan {
    /// Executes the plan over `sources` without provenance bookkeeping.
    pub fn run(&self, sources: &Sources) -> Result<Table> {
        Ok(self.execute(sources, false, &mut |_, _| {})?.table)
    }

    /// Executes the plan, annotating every output row with its provenance.
    pub fn run_traced(&self, sources: &Sources) -> Result<TracedTable> {
        self.execute(sources, true, &mut |_, _| {})
    }

    /// The one execution path. `traced` adds lineage and per-operator
    /// spans; the operators themselves run identically either way. The
    /// `lineage` of an untraced result is empty.
    pub(crate) fn execute(
        &self,
        sources: &Sources,
        traced: bool,
        observer: Observer<'_>,
    ) -> Result<TracedTable> {
        let mut span = nde_trace::span(if traced {
            "pipeline.run_traced"
        } else {
            "pipeline.run"
        });
        let mut walk = Walk {
            sources,
            traced,
            source_names: Vec::new(),
            observer,
        };
        let (table, lineage) = walk.eval(&self.node)?;
        span.field("rows_out", table.num_rows());
        if traced {
            span.field("sources", walk.source_names.len());
        }
        record_final_profile(&self.node, &table);
        Ok(TracedTable {
            table,
            lineage: lineage.map(Lineage::into_monomials).unwrap_or_default(),
            source_names: walk.source_names,
        })
    }
}

/// The span name for a plan operator (static dotted path; the dynamic
/// operator description goes in the span's `op` field).
fn op_span_name(node: &Node) -> &'static str {
    match node {
        Node::Source { .. } => "pipeline.source",
        Node::Join { .. } => "pipeline.join",
        Node::FuzzyJoin { .. } => "pipeline.fuzzy_join",
        Node::Filter { .. } => "pipeline.filter",
        Node::WithColumn { .. } => "pipeline.with_column",
        Node::Project { .. } => "pipeline.project",
        Node::DropNulls { .. } => "pipeline.drop_nulls",
        Node::Concat { .. } => "pipeline.concat",
    }
}

/// Under `NDE_QUALITY=final`, profiles a plan's final output (keyed
/// `final:<root label>`). `full` mode already profiles the root operator
/// via [`record_op_profile`], so only `final` records here.
fn record_final_profile(root: &Node, table: &Table) {
    if nde_quality::quality_mode() == nde_quality::QualityMode::Final {
        let label = format!("final:{}", root.label());
        nde_quality::record_profile(&label, table.quality_profile());
    }
}

/// Under `NDE_QUALITY=full` (`on`), profiles one operator's output table
/// at the boundary where it is produced. Strictly observational: the
/// profile reads the table, records sketches, and changes nothing about
/// execution. The off path is the one relaxed atomic load inside
/// [`nde_quality::quality_mode`].
fn record_op_profile(node: &Node, table: &Table) {
    if nde_quality::quality_mode() == nde_quality::QualityMode::Full {
        let mut span = nde_trace::span("quality.profile");
        if span.is_active() {
            span.field("op", node.label());
            span.field("rows", table.num_rows());
        }
        nde_quality::record_profile(&node.label(), table.quality_profile());
        drop(span);
    }
}

/// The lineage of one operator's output rows on a traced run.
enum Lineage {
    /// Row `i` is row `i` of source `source`, whose table has `rows` rows;
    /// its monomial `{(source, i)}` is not materialised.
    Source { source: usize, rows: usize },
    /// One monomial per row.
    Rows(Vec<Monomial>),
}

impl Lineage {
    /// Calls `f` with the sorted tokens of row `i`.
    fn with_tokens<R>(&self, i: usize, f: impl FnOnce(&[ProvToken]) -> R) -> R {
        match self {
            Lineage::Source { source, .. } => f(&[ProvToken::new(*source, i)]),
            Lineage::Rows(rows) => f(rows[i].tokens()),
        }
    }

    /// The monomial of row `i`.
    fn monomial(&self, i: usize) -> Monomial {
        match self {
            Lineage::Source { source, .. } => Monomial::of(ProvToken::new(*source, i)),
            Lineage::Rows(rows) => rows[i].clone(),
        }
    }

    /// The lineage of a join's output: per `(left, right)` row pair, the
    /// product of both rows' monomials, or the left row's alone when the
    /// right side is unmatched.
    fn join(left: &Lineage, right: &Lineage, trace: &[(usize, Option<usize>)]) -> Lineage {
        Lineage::Rows(
            trace
                .iter()
                .map(|&(li, rj)| match rj {
                    Some(rj) => {
                        left.with_tokens(li, |a| right.with_tokens(rj, |b| Monomial::product(a, b)))
                    }
                    None => left.monomial(li),
                })
                .collect(),
        )
    }

    /// The lineage of the kept rows. Materialised monomials are *moved*
    /// out, not cloned; each kept index is taken once.
    fn gather(self, kept: &[usize]) -> Lineage {
        Lineage::Rows(match self {
            Lineage::Source { source, .. } => kept
                .iter()
                .map(|&i| Monomial::of(ProvToken::new(source, i)))
                .collect(),
            Lineage::Rows(mut rows) => kept.iter().map(|&i| std::mem::take(&mut rows[i])).collect(),
        })
    }

    /// One monomial per row.
    fn into_monomials(self) -> Vec<Monomial> {
        match self {
            Lineage::Source { source, rows } => (0..rows)
                .map(|i| Monomial::of(ProvToken::new(source, i)))
                .collect(),
            Lineage::Rows(rows) => rows,
        }
    }

    /// Total tokens over all rows.
    fn token_count(&self) -> usize {
        match self {
            Lineage::Source { rows, .. } => *rows,
            Lineage::Rows(rows) => rows.iter().map(|m| m.tokens().len()).sum(),
        }
    }
}

/// The state of one plan walk.
struct Walk<'a, 'o> {
    sources: &'a Sources,
    traced: bool,
    source_names: Vec<String>,
    observer: Observer<'o>,
}

impl Walk<'_, '_> {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(i) = self.source_names.iter().position(|n| n == name) {
            i
        } else {
            self.source_names.push(name.to_owned());
            self.source_names.len() - 1
        }
    }

    /// Evaluates `node` in post-order: children first, then the operator,
    /// its quality profile and the observer.
    fn eval(&mut self, node: &Node) -> Result<(Table, Option<Lineage>)> {
        // Opened before child evaluation, so operator spans nest into the
        // plan tree. All field computation is gated on the span being live.
        let mut span = self.traced.then(|| nde_trace::span(op_span_name(node)));
        if let Some(span) = span.as_mut().filter(|s| s.is_active()) {
            span.field("op", node.label());
        }
        let (table, lineage) = match node {
            Node::Source { name } => {
                let table = lookup_source(self.sources, name)?.clone();
                let source = self.intern(name);
                let lineage = self.traced.then(|| Lineage::Source {
                    source,
                    rows: table.num_rows(),
                });
                (table, lineage)
            }
            Node::Join {
                left,
                right,
                left_key,
                right_key,
                how,
            } => {
                let (lt, ll) = self.eval(left)?;
                let (rt, rl) = self.eval(right)?;
                let jt = if *how == PlanJoin::Inner {
                    JoinType::Inner
                } else {
                    JoinType::Left
                };
                let (out, trace) = lt.join_traced(&rt, left_key, right_key, jt)?;
                let lineage = ll.zip(rl).map(|(ll, rl)| Lineage::join(&ll, &rl, &trace));
                (out, lineage)
            }
            Node::FuzzyJoin {
                left,
                right,
                left_key,
                right_key,
                max_distance,
            } => {
                let (lt, ll) = self.eval(left)?;
                let (rt, rl) = self.eval(right)?;
                let (out, trace) = lt.fuzzy_join_traced(&rt, left_key, right_key, *max_distance)?;
                let lineage = ll.zip(rl).map(|(ll, rl)| Lineage::join(&ll, &rl, &trace));
                (out, lineage)
            }
            Node::Filter { input, pred, .. } => {
                let (t, l) = self.eval(input)?;
                let (out, kept) = t.filter_traced(|r| pred(r))?;
                (out, l.map(|l| l.gather(&kept)))
            }
            Node::WithColumn {
                input, name, udf, ..
            } => {
                let (t, l) = self.eval(input)?;
                (t.with_column(name, |r| udf(r))?, l)
            }
            Node::Project { input, columns } => {
                let (t, l) = self.eval(input)?;
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                (t.select(&names)?, l)
            }
            Node::DropNulls { input, columns } => {
                let (t, l) = self.eval(input)?;
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                let (out, kept) = t.drop_nulls_traced(&names)?;
                (out, l.map(|l| l.gather(&kept)))
            }
            Node::Concat { top, bottom } => {
                let (tt, tl) = self.eval(top)?;
                let (bt, bl) = self.eval(bottom)?;
                let lineage = tl.zip(bl).map(|(tl, bl)| {
                    let mut rows = tl.into_monomials();
                    rows.extend(bl.into_monomials());
                    Lineage::Rows(rows)
                });
                (tt.concat(&bt)?, lineage)
            }
        };
        if let Some(span) = span.as_mut().filter(|s| s.is_active()) {
            span.field("rows_out", table.num_rows());
            let lineage_tokens = lineage.as_ref().map_or(0, Lineage::token_count);
            span.field("lineage_tokens", lineage_tokens);
        }
        record_op_profile(node, &table);
        (self.observer)(node, &table);
        Ok((table, lineage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nde_tabular::Value;

    fn demo_sources() -> Sources {
        let train = Table::builder()
            .int("person_id", [0, 1, 2, 3])
            .int("job_id", [10, 11, 10, 12])
            .str("name", ["ana", "bo", "cy", "di"])
            .build()
            .unwrap();
        let jobs = Table::builder()
            .int("job_id", [10, 11, 12])
            .str("sector", ["healthcare", "finance", "healthcare"])
            .build()
            .unwrap();
        let social = Table::builder()
            .int("person_id", [0, 1, 2, 3])
            .str_opt(
                "twitter",
                vec![Some("@a".into()), None, Some("@c".into()), None],
            )
            .build()
            .unwrap();
        sources(vec![
            ("train_df", train),
            ("jobdetail_df", jobs),
            ("social_df", social),
        ])
    }

    fn figure3_plan() -> Plan {
        Plan::source("train_df")
            .join(Plan::source("jobdetail_df"), "job_id", "job_id")
            .join(Plan::source("social_df"), "person_id", "person_id")
            .filter("sector == healthcare", |r| {
                r.str("sector") == Some("healthcare")
            })
            .with_column("has_twitter", "twitter not null", |r| {
                Value::Bool(!r.is_null("twitter"))
            })
    }

    #[test]
    fn plain_execution_produces_expected_rows() {
        let out = figure3_plan().run(&demo_sources()).unwrap();
        // Healthcare jobs: 10 and 12 → persons 0, 2, 3.
        assert_eq!(out.num_rows(), 3);
        assert!(out.schema().contains("has_twitter"));
        assert_eq!(out.get(0, "has_twitter").unwrap(), Value::Bool(true));
        assert_eq!(out.get(2, "has_twitter").unwrap(), Value::Bool(false));
    }

    #[test]
    fn lineage_tracks_all_three_sources() {
        let traced = figure3_plan().run_traced(&demo_sources()).unwrap();
        assert_eq!(traced.lineage.len(), 3);
        assert_eq!(
            traced.source_names,
            vec!["train_df", "jobdetail_df", "social_df"]
        );
        // Output row 0 = person 0 ⋈ job 10 ⋈ social 0.
        let m = &traced.lineage[0];
        assert!(m.contains(ProvToken::new(0, 0)));
        assert!(m.contains(ProvToken::new(1, 0)));
        assert!(m.contains(ProvToken::new(2, 0)));
        assert_eq!(m.tokens().len(), 3);
    }

    #[test]
    fn dependents_inverts_lineage() {
        let traced = figure3_plan().run_traced(&demo_sources()).unwrap();
        // Job 10 (jobdetail row 0) feeds persons 0 and 2 → output rows 0, 1.
        assert_eq!(traced.dependents("jobdetail_df", 0), vec![0, 1]);
        // The finance job feeds nothing after the filter.
        assert!(traced.dependents("jobdetail_df", 1).is_empty());
        assert!(traced.dependents("nope", 0).is_empty());
    }

    #[test]
    fn left_join_keeps_left_lineage_for_unmatched() {
        let left = Table::builder().int("k", [1, 2]).build().unwrap();
        let right = Table::builder()
            .int("k", [1])
            .str("v", ["x"])
            .build()
            .unwrap();
        let plan = Plan::source("l").left_join(Plan::source("r"), "k", "k");
        let traced = plan
            .run_traced(&sources(vec![("l", left), ("r", right)]))
            .unwrap();
        assert_eq!(traced.lineage[0].tokens().len(), 2);
        assert_eq!(traced.lineage[1].tokens().len(), 1);
    }

    #[test]
    fn unknown_source_is_reported() {
        let plan = Plan::source("missing");
        let err = plan.run(&demo_sources()).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownSource { .. }));
    }

    #[test]
    fn concat_appends_lineage() {
        let a = Table::builder().int("x", [1]).build().unwrap();
        let b = Table::builder().int("x", [2, 3]).build().unwrap();
        let plan = Plan::source("a").concat(Plan::source("b"));
        let traced = plan.run_traced(&sources(vec![("a", a), ("b", b)])).unwrap();
        assert_eq!(traced.lineage.len(), 3);
        assert_eq!(traced.lineage[2].tokens()[0], ProvToken::new(1, 1));
    }

    #[test]
    fn project_and_drop_nulls() {
        let t = Table::builder()
            .int("a", [Some(1), None])
            .str("b", ["x", "y"])
            .build()
            .unwrap();
        let plan = Plan::source("t").drop_nulls(&["a"]).project(&["b"]);
        let traced = plan.run_traced(&sources(vec![("t", t)])).unwrap();
        assert_eq!(traced.table.num_rows(), 1);
        assert_eq!(traced.table.schema().names(), vec!["b"]);
        assert_eq!(traced.lineage[0].tokens()[0], ProvToken::new(0, 0));
    }

    #[test]
    fn fuzzy_join_lineage() {
        let l = Table::builder().str("k", ["acme", "zzz"]).build().unwrap();
        let r = Table::builder()
            .str("k", ["acmee"])
            .int("v", [7])
            .build()
            .unwrap();
        let plan = Plan::source("l").fuzzy_join(Plan::source("r"), "k", "k", 1);
        let traced = plan.run_traced(&sources(vec![("l", l), ("r", r)])).unwrap();
        assert_eq!(traced.table.num_rows(), 1);
        assert!(traced.lineage[0].contains(ProvToken::new(0, 0)));
        assert!(traced.lineage[0].contains(ProvToken::new(1, 0)));
    }

    #[test]
    fn self_concat_shares_source_tokens() {
        let t = Table::builder().int("x", [5]).build().unwrap();
        let plan = Plan::source("t").concat(Plan::source("t"));
        let traced = plan.run_traced(&sources(vec![("t", t)])).unwrap();
        // Both output rows trace to the same source row.
        assert_eq!(traced.lineage[0], traced.lineage[1]);
        assert_eq!(traced.source_names.len(), 1);
    }

    #[test]
    fn bare_source_shares_the_source_columns() {
        let srcs = demo_sources();
        let out = Plan::source("jobdetail_df").run(&srcs).unwrap();
        assert_eq!(out, srcs["jobdetail_df"]);
        for name in ["job_id", "sector"] {
            let source_col = srcs["jobdetail_df"].column(name).unwrap();
            assert!(std::ptr::eq(out.column(name).unwrap(), source_col));
        }
    }

    #[test]
    fn bare_source_returns_an_owned_copy() {
        let srcs = demo_sources();
        let plan = Plan::source("train_df");
        let mut out = plan.run(&srcs).unwrap();
        assert_eq!(out, srcs["train_df"]);
        // Writing to the result leaves the source untouched.
        out.set(0, "name", Value::from("zed")).unwrap();
        assert_eq!(srcs["train_df"].get(0, "name").unwrap(), Value::from("ana"));
        let traced = plan.run_traced(&srcs).unwrap();
        assert_eq!(traced.table, srcs["train_df"]);
        assert_eq!(traced.lineage.len(), 4);
        assert_eq!(traced.lineage[3].tokens(), &[ProvToken::new(0, 3)]);
    }
}
