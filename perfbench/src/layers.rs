//! Per-layer metrics of a traced run, aggregated with `nde_trace::analyze`.
//!
//! A traced run records one set-up per dataset (root span `bench.setup`),
//! several passes (root span `bench.pass`) and, after each pass, the
//! workload's reference calls (root span `bench.reference`). Time metrics
//! are seconds per workload pass: the mean set-up's time plus the mean
//! over the passes, so a layer that runs in the set-up on one workload and
//! in the passes on another reads on the same scale. Layer times leave the
//! reference calls out; only the metrics of those calls read them. A layer
//! the workload never calls reads 0.

use nde_trace::analyze::{aggregate_spans, build_span_trees, NameAggregate, SpanNode, TraceData};
use std::collections::BTreeMap;

/// Span aggregates of one traced run, split into set-up, passes and
/// reference calls.
pub struct Layers<'a> {
    data: &'a TraceData,
    setup: BTreeMap<String, NameAggregate>,
    passes: BTreeMap<String, NameAggregate>,
    reference: BTreeMap<String, NameAggregate>,
    n_setups: f64,
    n_passes: f64,
}

/// The `(start, end)` of every root span `name`, in microseconds.
fn windows(roots: &[SpanNode], name: &str) -> Vec<(u64, u64)> {
    roots
        .iter()
        .filter(|r| r.record.name == name)
        .map(|r| (r.record.start_us, r.record.start_us + r.record.dur_us))
        .collect()
}

impl<'a> Layers<'a> {
    pub fn new(data: &'a TraceData) -> Self {
        let roots = build_span_trees(&data.spans);
        let setup_windows = windows(&roots, "bench.setup");
        let reference_windows = windows(&roots, "bench.reference");
        // Spans opened on worker threads are roots of their own; they
        // belong to the set-up or the reference calls when they started
        // inside one of their windows.
        let inside = |r: &SpanNode, windows: &[(u64, u64)]| {
            windows
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&r.record.start_us))
        };
        let (setup, rest): (Vec<_>, Vec<_>) =
            roots.into_iter().partition(|r| inside(r, &setup_windows));
        let (reference, passes): (Vec<_>, Vec<_>) = rest
            .into_iter()
            .partition(|r| inside(r, &reference_windows));
        let count = |roots: &[SpanNode], name: &str| {
            roots
                .iter()
                .filter(|r| r.record.name == name)
                .count()
                .max(1) as f64
        };
        let (n_setups, n_passes) = (count(&setup, "bench.setup"), count(&passes, "bench.pass"));
        Layers {
            data,
            setup: aggregate_spans(&setup),
            passes: aggregate_spans(&passes),
            reference: aggregate_spans(&reference),
            n_setups,
            n_passes,
        }
    }

    /// Seconds per pass inside reference-call spans `name`.
    fn reference_secs(&self, name: &str) -> f64 {
        self.reference.get(name).map_or(0, |a| a.total_us) as f64 / self.n_passes / 1e6
    }

    fn per_pass(&self, name: &str, field: impl Fn(&NameAggregate) -> u64) -> f64 {
        let setup = self.setup.get(name).map_or(0, &field) as f64;
        let passes = self.passes.get(name).map_or(0, &field) as f64;
        (setup / self.n_setups + passes / self.n_passes) / 1e6
    }

    /// Seconds per pass inside spans `name`, children included.
    fn secs(&self, name: &str) -> f64 {
        self.per_pass(name, |a| a.total_us)
    }

    /// Seconds per pass inside spans `name`, children excluded.
    fn self_secs(&self, name: &str) -> f64 {
        self.per_pass(name, |a| a.self_us)
    }

    /// One span `name`'s duration over the passes, in milliseconds, as
    /// `pick` chooses it (median or 95th percentile).
    fn ms(&self, name: &str, pick: impl Fn(&NameAggregate) -> u64) -> f64 {
        self.passes.get(name).map_or(0.0, |a| pick(a) as f64 / 1e3)
    }

    /// Microseconds inside spans `name` over the whole run.
    fn total_us(&self, name: &str) -> f64 {
        [&self.setup, &self.passes]
            .iter()
            .filter_map(|m| m.get(name))
            .map(|a| a.total_us as f64)
            .sum()
    }

    fn counter(&self, name: &str) -> f64 {
        self.data.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Every per-layer metric as `(name, value, unit)`; `imbalance` is the
    /// median `parallel.imbalance` over the traced passes (NaN when no pass
    /// fanned out) and `figures` are the result figures of the last traced
    /// pass.
    pub fn metrics(
        &self,
        overhead_pct: f64,
        imbalance: f64,
        figures: &[(&'static str, f64)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let figure = |name: &str| {
            figures
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let (hits, misses) = (
            self.counter("neighbor_cache.hit"),
            self.counter("neighbor_cache.miss"),
        );
        let run_s = self.reference_secs("bench.pipeline.run");
        let run_traced_s = self.reference_secs("bench.pipeline.run_traced");
        let p50 = |a: &NameAggregate| a.p50_us;
        let p95 = |a: &NameAggregate| a.p95_us;
        vec![
            (
                "datagen.generate_s",
                self.secs("bench.datagen.generate"),
                "s",
            ),
            ("datagen.inject_s", self.secs("bench.datagen.inject"), "s"),
            (
                "learners.encoder_fit_s",
                self.secs("learners.encoder_fit"),
                "s",
            ),
            (
                "learners.encoder_transform_s",
                self.secs("learners.encoder_transform"),
                "s",
            ),
            (
                "learners.knn_predict_batch_s",
                self.secs("learners.knn_predict_batch"),
                "s",
            ),
            ("kdtree.build_s", self.secs("kdtree.build"), "s"),
            (
                "kdtree.points_per_query",
                ratio(
                    self.counter("kdtree.points_scanned"),
                    self.counter("kdtree.query"),
                ),
                "count/query",
            ),
            (
                "importance.knn_shapley_s",
                self.secs("importance.knn_shapley"),
                "s",
            ),
            (
                "importance.confident_s",
                self.secs("bench.importance.confident_learning"),
                "s",
            ),
            (
                "importance.aum_s",
                self.secs("bench.importance.aum_scores"),
                "s",
            ),
            (
                "importance.knn_shapley_cached_s",
                self.secs("importance.knn_shapley_cached"),
                "s",
            ),
            (
                "importance.detect_precision",
                figure("importance.detect_precision"),
                "ratio",
            ),
            (
                "neighbor_cache.build_s",
                self.secs("neighbor_cache.build"),
                "s",
            ),
            (
                "neighbor_cache.repairs_per_row",
                figure("neighbor_cache.repairs_per_row"),
                "count/row",
            ),
            (
                "neighbor_cache.hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            (
                "parallel.imbalance",
                if imbalance.is_nan() { 0.0 } else { imbalance },
                "ratio",
            ),
            (
                "parallel.worker_busy_p95_us",
                self.data
                    .histograms
                    .get("parallel.worker_busy_us")
                    .map_or(0.0, |h| h.p95 as f64),
                "us",
            ),
            (
                "tabular.quality_profile_s",
                self.secs("quality.profile"),
                "s",
            ),
            ("pipeline.join_self_s", self.self_secs("pipeline.join"), "s"),
            (
                "pipeline.fuzzy_join_self_s",
                self.self_secs("pipeline.fuzzy_join"),
                "s",
            ),
            (
                "pipeline.filter_self_s",
                self.self_secs("pipeline.filter"),
                "s",
            ),
            (
                "pipeline.with_column_self_s",
                self.self_secs("pipeline.with_column"),
                "s",
            ),
            ("pipeline.run_traced_s", run_traced_s, "s"),
            ("pipeline.run_s", run_s, "s"),
            (
                "pipeline.provenance_overhead",
                ratio(run_traced_s, run_s),
                "ratio",
            ),
            (
                "pipeline.datascope_s",
                self.secs("bench.pipeline.datascope"),
                "s",
            ),
            (
                "pipeline.datascope_precision",
                figure("pipeline.datascope_precision"),
                "ratio",
            ),
            (
                "pipeline.delete_ms_p50",
                self.ms("bench.whatif.delete", p50),
                "ms",
            ),
            (
                "pipeline.delete_ms_p95",
                self.ms("bench.whatif.delete", p95),
                "ms",
            ),
            (
                "pipeline.insert_ms_p50",
                self.ms("bench.whatif.insert", p50),
                "ms",
            ),
            (
                "pipeline.insert_ms_p95",
                self.ms("bench.whatif.insert", p95),
                "ms",
            ),
            (
                "quality.profile_self_s",
                self.self_secs("quality.profile"),
                "s",
            ),
            (
                "quality.us_per_cell",
                ratio(
                    self.total_us("quality.profile"),
                    self.counter("quality.cells_profiled"),
                ),
                "us",
            ),
            (
                "quality.diff_profiles_s",
                self.secs("bench.quality.diff_profiles"),
                "s",
            ),
            (
                "uncertain.train_symbolic_s",
                self.secs("bench.uncertain.train_symbolic"),
                "s",
            ),
            (
                "uncertain.certain_prediction_ms",
                self.ms("bench.uncertain.certain_prediction", p50),
                "ms",
            ),
            (
                "uncertain.min_cleaning_greedy_ms",
                self.ms("uncertain.min_cleaning_greedy", p50),
                "ms",
            ),
            (
                "uncertain.worst_case_mse",
                figure("uncertain.worst_case_mse"),
                "mse",
            ),
            (
                "uncertain.certain_fraction",
                figure("uncertain.certain_fraction"),
                "ratio",
            ),
            (
                "cleaning.round_ms_p50",
                self.ms("cleaning.round", p50),
                "ms",
            ),
            (
                "cleaning.round_ms_p95",
                self.ms("cleaning.round", p95),
                "ms",
            ),
            (
                "cleaning.accuracy_gain",
                figure("cleaning.accuracy_gain"),
                "ratio",
            ),
            ("trace.overhead_pct", overhead_pct, "%"),
        ]
    }
}
