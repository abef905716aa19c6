//! `learn`: learning under uncertainty, the paper's third pillar and the
//! only workload on `nde-uncertain`.
//!
//! MNAR missing values go into `employer_rating`. A pass trains a linear
//! model symbolically with Zorro (zonotope domain) over every possible
//! world, then one caller sends one request per test query in a closed
//! loop: a CPClean certain prediction plus the greedy minimal cleaning that
//! would certify it.

use crate::{in_span, BoxError, Checks, PassOut, Workload};
use nde_core::zorro_scenario::{encode_symbolic, encode_test, SymbolicProblem};
use nde_datagen::errors::{inject_missing, Mechanism};
use nde_datagen::{HiringConfig, HiringScenario};
use nde_learners::{ClassDataset, KnnClassifier, Learner, Matrix, RegDataset};
use nde_tabular::Table;
use nde_uncertain::cpclean::{certain_prediction, min_cleaning_greedy, IncompleteDataset};
use nde_uncertain::incomplete::IncompleteMatrix;
use nde_uncertain::interval::Interval;
use nde_uncertain::zorro::{train_concrete, train_symbolic, SymbolicLinear, ZorroConfig};
use std::time::Instant;

const FEATURES: &[&str] = &["employer_rating", "age"];
const UNCERTAIN: &str = "employer_rating";
const N_TRAIN: usize = 800;
const N_TEST: usize = 1_000;
/// A low missing rate and a wide vote keep the certain fraction near 3/4,
/// where it varies little from seed to seed.
const MISSING: f64 = 0.05;
const K: usize = 7;
/// Short training keeps a pass near a second, so a run has many of them.
const EPOCHS: usize = 10;

pub struct Learn {
    problem: SymbolicProblem,
    test: RegDataset,
    data: IncompleteDataset,
    truth: Matrix,
    queries: Vec<Vec<f64>>,
    cfg: ZorroConfig,
    model: Option<SymbolicLinear>,
    certain: Vec<Option<usize>>,
}

/// The CPClean view of the dirty table: features scaled to `[0, 1]` by the
/// clean table's range, a missing cell spanning all of it, plus the clean
/// values (the cleaning oracle) and the scaled test queries.
fn cpclean_view(
    dirty: &Table,
    clean: &Table,
    test: &Table,
) -> Result<(IncompleteDataset, Matrix, Vec<Vec<f64>>), BoxError> {
    let (n, d) = (dirty.num_rows(), FEATURES.len());
    let mut cells = vec![Interval::point(0.0); n * d];
    let mut truth = vec![0.0; n * d];
    let mut queries = vec![vec![0.0; d]; test.num_rows()];
    for (j, &feature) in FEATURES.iter().enumerate() {
        let observed = dirty.column(feature)?.to_f64()?;
        let exact: Vec<f64> = clean
            .column(feature)?
            .to_f64()?
            .into_iter()
            .flatten()
            .collect();
        let lo = exact.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = exact.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo).max(1e-9);
        for i in 0..n {
            truth[i * d + j] = (exact[i] - lo) / scale;
            cells[i * d + j] = match observed[i] {
                Some(v) => Interval::point((v - lo) / scale),
                None => Interval::new(0.0, 1.0),
            };
        }
        for (query, v) in queries.iter_mut().zip(test.column(feature)?.to_f64()?) {
            query[j] = (v.ok_or("test features are complete")? - lo) / scale;
        }
    }
    let y = dirty
        .column("sentiment")?
        .iter()
        .map(|v| usize::from(v.as_str() == Some("positive")))
        .collect();
    let data = IncompleteDataset {
        x: IncompleteMatrix::from_intervals(n, d, cells)?,
        y,
        n_classes: 2,
    };
    Ok((data, Matrix::new(n, d, truth)?, queries))
}

impl Workload for Learn {
    /// Where the missing cells fall sets the query latencies and the
    /// certain fraction of one dataset apart from the next by 0.1 of their
    /// median.
    const DATASETS: u64 = 4;

    fn setup(seed: u64) -> Result<Self, BoxError> {
        let scenario = in_span("bench.datagen.generate", || {
            HiringScenario::generate(&HiringConfig {
                n_train: N_TRAIN,
                n_valid: 0,
                n_test: N_TEST,
                seed,
                ..Default::default()
            })
        });
        let (dirty, _) = in_span("bench.datagen.inject", || {
            inject_missing(&scenario.train, UNCERTAIN, MISSING, Mechanism::Mnar, seed)
        })?;
        // Zorro's view; `encode_symbolic` injects with the same seed, so the
        // same cells are missing in both views.
        let problem = encode_symbolic(
            &scenario.train,
            FEATURES,
            UNCERTAIN,
            MISSING,
            Mechanism::Mnar,
            seed,
        )?;
        let test = encode_test(&scenario.test, FEATURES)?;
        let (data, truth, queries) = cpclean_view(&dirty, &scenario.train, &scenario.test)?;
        Ok(Learn {
            problem,
            test,
            data,
            truth,
            queries,
            cfg: ZorroConfig {
                epochs: EPOCHS,
                ..ZorroConfig::default()
            },
            model: None,
            certain: Vec::new(),
        })
    }

    fn pass(&mut self, _index: u64, out: &mut PassOut) -> Result<(), BoxError> {
        let start = Instant::now();
        let model = in_span("bench.uncertain.train_symbolic", || {
            train_symbolic(&self.problem.x, &self.problem.y, &self.cfg)
        });
        out.work_s = start.elapsed().as_secs_f64();
        out.rows = (self.problem.y.len() * self.cfg.epochs) as f64;
        out.figures
            .push(("uncertain.worst_case_mse", model.worst_case_mse(&self.test)));

        let mut certain = Vec::with_capacity(self.queries.len());
        for query in &self.queries {
            let start = Instant::now();
            let answer = in_span("bench.uncertain.certain_prediction", || {
                certain_prediction(&self.data, query, K)
            });
            let cleanings = min_cleaning_greedy(&self.data, &self.truth, query, K);
            out.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.calls += 1;
            std::hint::black_box(cleanings);
            certain.push(answer);
        }
        let fraction =
            certain.iter().filter(|c| c.is_some()).count() as f64 / certain.len().max(1) as f64;
        out.quality = fraction;
        out.figures.push(("uncertain.certain_fraction", fraction));
        self.model = Some(model);
        self.certain = certain;
        Ok(())
    }

    fn check(&self, checks: &mut Checks) -> Result<(), BoxError> {
        let model = self.model.as_ref().ok_or("no pass completed")?;
        // The midpoint world is one possible world: its concrete model's
        // predictions must lie inside Zorro's ranges.
        let (w, b) = train_concrete(&self.problem.x.midpoint_world(), &self.problem.y, &self.cfg);
        let inside = (0..self.test.len()).all(|i| {
            let x = self.test.x.row(i);
            let p = w.iter().zip(x).map(|(wj, xj)| wj * xj).sum::<f64>() + b;
            let range = model.prediction_range(x);
            let tol = 1e-9 * (1.0 + p.abs());
            range.lo - tol <= p && p <= range.hi + tol
        });
        checks.expect(
            "learn: midpoint-world predictions lie inside Zorro's ranges",
            inside,
        );

        // A certain CPClean answer holds in every world, the midpoint one too.
        let world = ClassDataset::new(self.data.x.midpoint_world(), self.data.y.clone(), 2)?;
        let knn = KnnClassifier::new(K).fit(&world)?;
        let agree = self
            .queries
            .iter()
            .zip(&self.certain)
            .all(|(q, c)| c.is_none_or(|c| knn.predict(q) == c));
        checks.expect(
            "learn: certain CPClean answers agree with concrete k-NN",
            agree,
        );
        Ok(())
    }
}
