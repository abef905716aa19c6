//! `debug`: pipeline debugging with provenance, the paper's second pillar.
//!
//! Tens of thousands of letters with flipped labels go through the fuzzy
//! Figure-3 plan (two joins, a fuzzy join, a filter, a UDF column). A pass
//! runs it with provenance under full data-quality profiling, diffs every
//! operator's profile against a clean-run baseline, encodes the output and
//! scores the source rows with Datascope against a small validation split.
//! Then one caller sends what-if requests in a closed loop: most delete a
//! random batch of source rows through provenance, every fifth appends a
//! fresh batch of letters, which later requests see.

use crate::{in_span, BoxError, Checks, PassOut, Workload};
use nde_core::pipeline_scenario::{figure3_plan_fuzzy, pipeline_encoder, pipeline_sources};
use nde_datagen::errors::{flip_labels, InjectionReport};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::rank_ascending;
use nde_pipeline::whatif::{delete_source_rows, insert_source_rows, rerun_without_rows};
use nde_pipeline::{datascope_importance, Plan, Sources, TracedTable};
use nde_quality::{diff_profiles, DriftThresholds, OpProfile, QualityMode};
use nde_tabular::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

const N_SOURCE: usize = 20_000;
const N_VALID: usize = 100;
const FLIP_RATE: f64 = 0.2;
const K: usize = 5;
/// Enough that a pass's 95th latency percentile has ten requests beyond it.
const REQUESTS: usize = 200;
const BATCH: usize = 50;
/// Every `INSERT_EVERY`-th request is an insertion, the rest deletions.
const INSERT_EVERY: usize = 5;
/// Fresh letter batches for insertions: exactly what a pass uses.
const POOL_BATCHES: usize = REQUESTS / INSERT_EVERY;
const SOURCE: &str = "train_df";
/// A pass takes seconds, long enough for the host's speed to change, so
/// the loop times the reference kernel between every `REFERENCE_EVERY`
/// requests (outside their latencies).
const REFERENCE_EVERY: usize = 40;

pub struct Debug {
    plan: Plan,
    sources: Sources,
    valid_sources: Sources,
    pool: Vec<Table>,
    baseline: Vec<OpProfile>,
    report: InjectionReport,
    seed: u64,
    precision: f64,
}

/// Serves one insertion: propagates the batch through the plan
/// incrementally, then appends it to the source and its output rows to the
/// traced output, so later requests see both.
fn insert_rows(
    plan: &Plan,
    sources: &mut Sources,
    traced: &mut TracedTable,
    batch: &Table,
) -> Result<(), BoxError> {
    let delta = insert_source_rows(plan, sources, SOURCE, batch)?;
    let grown = sources[SOURCE].concat(batch)?;
    sources.insert(SOURCE.to_owned(), grown);
    if delta.table.num_rows() > 0 {
        traced.table = traced.table.concat(&delta.table)?;
        traced.lineage.extend(delta.lineage);
    }
    Ok(())
}

impl Debug {
    /// Datascope's precision over the flipped rows that survive the plan:
    /// the share of them among the lowest-scored `|survivors|` source rows.
    fn datascope_precision(&self, traced: &TracedTable, scores: &[f64]) -> f64 {
        let Some(src) = traced.source_index(SOURCE) else {
            return 0.0;
        };
        let mut feeds = vec![false; N_SOURCE];
        for monomial in &traced.lineage {
            for row in monomial.rows_of_source(src) {
                if let Some(f) = feeds.get_mut(row) {
                    *f = true;
                }
            }
        }
        let survivors: HashSet<usize> = self
            .report
            .affected
            .iter()
            .copied()
            .filter(|&row| feeds[row])
            .collect();
        let k = survivors.len();
        if k == 0 {
            return 0.0;
        }
        let hits = rank_ascending(scores)[..k]
            .iter()
            .filter(|row| survivors.contains(row))
            .count();
        hits as f64 / k as f64
    }

    /// The closed loop of what-if requests over one traced output.
    fn what_if(&self, mut traced: TracedTable, index: u64, out: &mut PassOut) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut sources = self.sources.clone();
        let mut pool = self.pool.iter();
        for request in 1..=REQUESTS {
            let insert = if request % INSERT_EVERY == 0 {
                pool.next()
            } else {
                None
            };
            let n = sources[SOURCE].num_rows();
            let rows: Vec<usize> = (0..BATCH).map(|_| rng.random_range(0..n)).collect();
            let start = Instant::now();
            let result = match insert {
                Some(batch) => in_span("bench.whatif.insert", || {
                    insert_rows(&self.plan, &mut sources, &mut traced, batch)
                }),
                None => in_span("bench.whatif.delete", || {
                    delete_source_rows(&traced, SOURCE, &rows)
                        .map(|effect| drop(std::hint::black_box(effect)))
                        .map_err(BoxError::from)
                }),
            };
            out.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if request % REFERENCE_EVERY == 0 {
                out.reference_s.push(crate::reference::kernel_s());
            }
            out.calls += 1;
            if let Err(e) = result {
                out.errors += 1;
                eprintln!("perfbench: what-if request failed: {e}");
            }
        }
    }
}

impl Workload for Debug {
    fn setup(seed: u64) -> Result<Self, BoxError> {
        let n_pool = POOL_BATCHES * BATCH;
        let scenario = in_span("bench.datagen.generate", || {
            HiringScenario::generate(&HiringConfig {
                n_train: N_SOURCE + n_pool,
                n_valid: N_VALID,
                n_test: 0,
                seed,
                ..Default::default()
            })
        });
        let letters = scenario.train.take(&(0..N_SOURCE).collect::<Vec<_>>())?;
        let pool = (0..POOL_BATCHES)
            .map(|b| {
                let start = N_SOURCE + b * BATCH;
                scenario
                    .train
                    .take(&(start..start + BATCH).collect::<Vec<_>>())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (dirty, report) = in_span("bench.datagen.inject", || {
            flip_labels(&letters, "sentiment", FLIP_RATE, seed)
        })?;
        let plan = figure3_plan_fuzzy();
        // The drift baseline: the clean letters, profiled at every operator.
        nde_quality::configure_quality(QualityMode::Full);
        let clean_run = plan.run(&pipeline_sources(&scenario, letters));
        nde_quality::configure_quality(QualityMode::Off);
        let baseline = nde_quality::take_profiles();
        clean_run?;
        Ok(Debug {
            sources: pipeline_sources(&scenario, dirty),
            valid_sources: pipeline_sources(&scenario, scenario.valid.clone()),
            plan,
            pool,
            baseline,
            report,
            seed,
            precision: 0.0,
        })
    }

    fn pass(&mut self, index: u64, out: &mut PassOut) -> Result<(), BoxError> {
        let start = Instant::now();
        nde_quality::configure_quality(QualityMode::Full);
        let traced = self.plan.run_traced(&self.sources);
        nde_quality::configure_quality(QualityMode::Off);
        let profiles = nde_quality::take_profiles();
        let traced = traced?;
        let drift = in_span("bench.quality.diff_profiles", || {
            self.baseline
                .iter()
                .zip(&profiles)
                .map(|(base, now)| {
                    diff_profiles(&base.profile, &now.profile).severity(&DriftThresholds::default())
                })
                .max()
        });
        std::hint::black_box(drift);
        let encoder = pipeline_encoder().fit(&traced.table)?;
        let train = encoder.transform(&traced.table)?;
        let valid = encoder.transform(&self.plan.run(&self.valid_sources)?)?;
        let scores = in_span("bench.pipeline.datascope", || {
            datascope_importance(&traced, &train, &valid, K, SOURCE, N_SOURCE)
        })?;
        out.work_s = start.elapsed().as_secs_f64();
        out.rows = N_SOURCE as f64;
        self.precision = self.datascope_precision(&traced, &scores);
        out.quality = self.precision;
        out.figures
            .push(("pipeline.datascope_precision", self.precision));

        self.what_if(traced, index, out);
        Ok(())
    }

    fn reference(&mut self) -> Result<(), BoxError> {
        in_span("bench.pipeline.run", || self.plan.run(&self.sources))?;
        in_span("bench.pipeline.run_traced", || {
            self.plan.run_traced(&self.sources)
        })?;
        Ok(())
    }

    fn check(&self, checks: &mut Checks) -> Result<(), BoxError> {
        let traced = self.plan.run_traced(&self.sources)?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FF_EE00);
        for i in 0..3 {
            let rows: Vec<usize> = (0..BATCH).map(|_| rng.random_range(0..N_SOURCE)).collect();
            let via_provenance = delete_source_rows(&traced, SOURCE, &rows)?.table;
            let rerun = rerun_without_rows(&self.plan, &self.sources, SOURCE, &rows)?;
            checks.expect(
                &format!("debug: sampled deletion {i} equals rerun_without_rows"),
                via_provenance == rerun,
            );
        }
        let mut sources = self.sources.clone();
        let mut grown = traced;
        insert_rows(&self.plan, &mut sources, &mut grown, &self.pool[0])?;
        checks.expect(
            "debug: an incremental insertion equals a re-run over the grown source",
            grown.table == self.plan.run(&sources)?,
        );
        checks.expect(
            &format!(
                "debug: Datascope precision {:.3} beats the flip rate",
                self.precision
            ),
            self.precision > FLIP_RATE,
        );
        Ok(())
    }
}
