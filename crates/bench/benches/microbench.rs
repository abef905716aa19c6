//! Criterion microbenches for the performance-critical kernels:
//! exact KNN-Shapley, TMC sampling, relational operators, provenance-traced
//! execution, table encoding (memoised text embedding), symbolic (Zorro)
//! training steps, the `identify` detectors (neighbor ranking, Confident
//! Learning, AUM), what-if requests and the join key index behind them,
//! and CPClean certainty checks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nde_core::pipeline_scenario::{figure3_plan_fuzzy, pipeline_sources};
use nde_core::scenario::standard_encoder;
use nde_datagen::{HiringConfig, HiringScenario};
use nde_importance::knn_shapley::knn_shapley;
use nde_importance::semivalue::{tmc_shapley, McConfig};
use nde_importance::utility::{ModelUtility, UtilityMetric};
use nde_learners::dataset::ClassDataset;
use nde_learners::KnnClassifier;
use nde_learners::Matrix;
use nde_pipeline::exec::sources;
use nde_pipeline::whatif::{delete_source_rows, insert_source_rows};
use nde_pipeline::{Plan, Sources, TracedTable};
use nde_quality::QualityMode;
use nde_tabular::Table;
use nde_uncertain::cpclean::{certain_prediction, IncompleteDataset};
use nde_uncertain::incomplete::IncompleteMatrix;
use nde_uncertain::interval::Interval;
use nde_uncertain::zorro::{train_symbolic, ZorroConfig};

fn synth_dataset(n: usize, d: usize) -> ClassDataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 31 + j * 17) % 101) as f64 / 101.0 + (i % 2) as f64)
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
    ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 2).unwrap()
}

fn bench_knn_shapley(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_shapley");
    group.sample_size(10);
    let valid = synth_dataset(50, 8);
    for &n in &[200usize, 800] {
        let train = synth_dataset(n, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| knn_shapley(&train, &valid, 5))
        });
    }
    group.finish();
}

fn bench_knn_shapley_cache(c: &mut Criterion) {
    use nde_importance::knn_shapley::{build_neighbor_cache, build_topk_cache, knn_shapley_cached};
    use nde_learners::matrix::sq_dist;
    use nde_learners::metrics::accuracy;
    use nde_learners::models::knn::{argmax, vote};
    let mut group = c.benchmark_group("knn_shapley_cache");
    group.sample_size(10);
    let train = synth_dataset(800, 8);
    let valid = synth_dataset(50, 8);
    // Cold: every re-score recomputes and re-sorts all m·n distances.
    group.bench_function("cold_rescore_800", |b| {
        b.iter(|| knn_shapley(&train, &valid, 5))
    });
    // Warm: the neighbor cache is built once; a re-score only walks it.
    let cache = build_neighbor_cache(&train, &valid);
    group.bench_function("warm_rescore_800", |b| {
        b.iter(|| knn_shapley_cached(&cache, &train.y, &valid.y, 5))
    });
    // Repair + incremental invalidation + re-score — the cleaning-loop
    // round — still avoids the full rebuild.
    group.bench_function("warm_repair_rescore_800", |b| {
        let mut cache = cache.clone();
        b.iter(|| {
            cache.update_row(7, |t, v| sq_dist(train.x.row(t), valid.x.row(v)));
            knn_shapley_cached(&cache, &train.y, &valid.y, 5)
        })
    });
    // Repair + test-side top-k repair + re-evaluation — the cleaning
    // loop's measure side, which refits no model. The repaired row
    // alternates between two positions, so lists both re-query (it moved
    // away) and re-position (it came back).
    group.bench_function("warm_repair_reevaluate_800", |b| {
        let mut train = train.clone();
        let moved: Vec<f64> = train.x.row(7).iter().map(|v| v + 0.5).collect();
        let mut positions = [train.x.row(7).to_vec(), moved];
        let mut topk = build_topk_cache(&train, &valid, 5);
        b.iter(|| {
            positions.swap(0, 1);
            train.x.row_mut(7).copy_from_slice(&positions[0]);
            let x = &train.x;
            topk.update_row(7, |t, v| sq_dist(x.row(t), valid.x.row(v)));
            let preds: Vec<usize> = (0..topk.n_valid())
                .map(|v| {
                    let nearest = topk.neighbors(v)[..5].iter().map(|&(_, t)| t as usize);
                    argmax(&vote(nearest, &train.y, train.n_classes))
                })
                .collect();
            accuracy(&valid.y, &preds)
        })
    });
    group.bench_function("cache_build_800", |b| {
        b.iter(|| build_neighbor_cache(&train, &valid))
    });
    group.finish();
}

/// `knn_shapley` at 1/2/4/8 `NDE_THREADS` workers; the variable is
/// restored afterwards.
fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_shapley_threads");
    group.sample_size(10);
    let train = synth_dataset(2_000, 8);
    let valid = synth_dataset(200, 8);
    let saved = std::env::var("NDE_THREADS").ok();
    for &threads in &[1usize, 2, 4, 8] {
        std::env::set_var("NDE_THREADS", threads.to_string());
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| knn_shapley(&train, &valid, 5))
        });
    }
    match saved {
        Some(v) => std::env::set_var("NDE_THREADS", v),
        None => std::env::remove_var("NDE_THREADS"),
    }
    group.finish();
}

fn bench_tmc_shapley(c: &mut Criterion) {
    let mut group = c.benchmark_group("tmc_shapley_10perms");
    group.sample_size(10);
    let train = synth_dataset(40, 4);
    let valid = synth_dataset(20, 4);
    let learner = KnnClassifier::new(3);
    let util = ModelUtility::new(&learner, &train, &valid, UtilityMetric::Accuracy);
    group.bench_function("n40", |b| {
        b.iter(|| tmc_shapley(&util, &McConfig::new(10, 1).with_truncation(1e-3)))
    });
    group.finish();
}

fn demo_tables(n: usize) -> (Table, Table) {
    let left = Table::builder()
        .int("k", (0..n as i64).map(|i| i % 50).collect::<Vec<_>>())
        .float("x", (0..n).map(|i| i as f64).collect::<Vec<_>>())
        .build()
        .unwrap();
    let right = Table::builder()
        .int("k", (0..50i64).collect::<Vec<_>>())
        .str("s", (0..50).map(|i| format!("v{i}")).collect::<Vec<_>>())
        .build()
        .unwrap();
    (left, right)
}

fn bench_relational_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("relational_ops");
    group.sample_size(10);
    let (left, right) = demo_tables(10_000);
    group.bench_function("hash_join_10k", |b| {
        b.iter(|| left.inner_join(&right, "k", "k").unwrap())
    });
    group.bench_function("filter_10k", |b| {
        b.iter(|| left.filter(|r| r.float("x").unwrap() < 5000.0).unwrap())
    });
    group.bench_function("group_by_10k", |b| {
        use nde_tabular::{AggExpr, AggFn};
        b.iter(|| {
            left.group_by(&["k"], &[AggExpr::new("x", AggFn::Mean, "avg")])
                .unwrap()
        })
    });
    group.finish();
}

fn bench_provenance_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_exec");
    group.sample_size(10);
    let (left, right) = demo_tables(5_000);
    let srcs = sources(vec![("l", left), ("r", right)]);
    let plan = Plan::source("l")
        .join(Plan::source("r"), "k", "k")
        .filter("x < 2500", |r| r.float("x").unwrap() < 2500.0);
    group.bench_function("plain", |b| b.iter(|| plan.run(&srcs).unwrap()));
    group.bench_function("traced", |b| b.iter(|| plan.run_traced(&srcs).unwrap()));
    group.finish();
}

fn bench_zorro(c: &mut Criterion) {
    let mut group = c.benchmark_group("zorro_train");
    group.sample_size(10);
    let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64 / 10.0]).collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = rows.iter().map(|r| r[0]).collect();
    let mut im = IncompleteMatrix::from_exact(&x);
    for i in 0..10 {
        im.set_missing(i, 0, Interval::new(0.0, 1.0));
    }
    let cfg = ZorroConfig {
        epochs: 10,
        ..Default::default()
    };
    group.bench_function("n100_10missing_10epochs", |b| {
        b.iter(|| train_symbolic(&im, &y, &cfg))
    });

    // The `learn` workload's shape: 800 rows, two features, 5 % of the
    // first one missing over its whole [0, 1] range.
    let rows: Vec<Vec<f64>> = (0..800)
        .map(|i| {
            vec![
                ((i * 37) % 101) as f64 / 100.0,
                ((i * 13) % 47) as f64 / 46.0,
            ]
        })
        .collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = rows.iter().map(|r| 0.8 * r[0] - 0.3 * r[1] + 0.1).collect();
    let mut im = IncompleteMatrix::from_exact(&x);
    for i in (0..800).step_by(20) {
        im.set_missing(i, 0, Interval::new(0.0, 1.0));
    }
    group.bench_function("n800_d2_5pct_10epochs", |b| {
        b.iter(|| train_symbolic(&im, &y, &cfg))
    });
    group.finish();
}

fn bench_kdtree(c: &mut Criterion) {
    use nde_learners::matrix::sq_dist;
    use nde_learners::models::kdtree::KdTree;
    use nde_learners::traits::Learner;
    use nde_parallel::neighbor_order::k_nearest;
    let mut group = c.benchmark_group("knn_query");
    group.sample_size(10);
    let train = synth_dataset(5_000, 3);
    let indexed = KnnClassifier::new(5).fit(&train).unwrap();
    let query = [0.5, 0.5, 0.5];
    group.bench_function("brute_5k", |b| {
        b.iter(|| k_nearest(train.len(), 5, |i| sq_dist(train.x.row(i), &query)))
    });
    group.bench_function("kdtree_5k", |b| b.iter(|| indexed.predict(&query)));
    group.bench_function("kdtree_build_5k", |b| b.iter(|| KdTree::build(&train.x)));
    group.finish();
}

/// The `identify` workload's detectors on its own inputs: 2 000 encoded
/// letters (69 features) with a fifth of the labels flipped, and one
/// validation row's 2 000 distances for the ranking kernel.
fn bench_identify(c: &mut Criterion) {
    use nde_core::scenario::encode_splits;
    use nde_datagen::errors::flip_labels;
    use nde_importance::{aum_scores, confident_learning, AumConfig};
    use nde_learners::matrix::sq_dists;
    use nde_parallel::neighbor_order::rank_all;
    let s = HiringScenario::generate(&HiringConfig {
        n_train: 2_000,
        n_valid: 1,
        n_test: 0,
        ..Default::default()
    });
    let (dirty, _) = flip_labels(&s.train, "sentiment", 0.2, 1).unwrap();
    let (_, train, valid) = encode_splits(&dirty, &s.valid).unwrap();
    let mut dists = vec![0.0; train.len()];
    sq_dists(train.x.data(), valid.x.row(0), &mut dists);
    let mut group = c.benchmark_group("identify");
    group.sample_size(10);
    group.bench_function("rank_all_2000", |b| {
        b.iter(|| rank_all(dists.len(), |t| dists[t]))
    });
    group.bench_function("confident_learning_2000x69", |b| {
        b.iter(|| confident_learning(&KnnClassifier::new(5), &train, 5, 1).unwrap())
    });
    group.bench_function("aum_2000x69", |b| {
        b.iter(|| aum_scores(&train, &AumConfig::default()))
    });
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let letters = HiringScenario::generate(&HiringConfig {
        n_train: 8_000,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    })
    .train;
    let fitted = standard_encoder().fit(&letters).unwrap();
    let mut group = c.benchmark_group("encode");
    group.sample_size(10);
    group.bench_function("transform_8k_letters", |b| {
        b.iter(|| fitted.transform(&letters).unwrap())
    });
    group.finish();
}

/// The `debug` inputs: 20 000 letters (plus one 50-letter batch to insert)
/// and the fuzzy Figure-3 plan's traced output over them (~8 000 rows).
fn whatif_inputs() -> (Plan, Sources, Table, TracedTable) {
    let n = 20_000;
    let scenario = HiringScenario::generate(&HiringConfig {
        n_train: n + 50,
        n_valid: 0,
        n_test: 0,
        ..Default::default()
    });
    let letters = scenario.train.take(&(0..n).collect::<Vec<_>>()).unwrap();
    let batch = scenario
        .train
        .take(&(n..n + 50).collect::<Vec<_>>())
        .unwrap();
    let plan = figure3_plan_fuzzy();
    let srcs = pipeline_sources(&scenario, letters);
    let traced = plan.run_traced(&srcs).unwrap();
    (plan, srcs, batch, traced)
}

fn bench_whatif(c: &mut Criterion) {
    let (plan, srcs, batch, traced) = whatif_inputs();
    let rows: Vec<usize> = (0..50).map(|i| i * 397 % 20_000).collect();
    let mut group = c.benchmark_group("whatif");
    group.sample_size(10);
    group.bench_function("delete_8k", |b| {
        b.iter(|| delete_source_rows(&traced, "train_df", &rows).unwrap())
    });
    group.bench_function("insert_50", |b| {
        b.iter(|| insert_source_rows(&plan, &srcs, "train_df", &batch).unwrap())
    });
    group.finish();
}

/// A join against `social_df` of the `debug` inputs (~22 000 unique
/// `person_id`s): `build_22k_cold` joins one row against a freshly copied
/// key column, so every iteration pays the key-index build (and a 22k-cell
/// copy); `probe_50_into_22k_warm` joins 50 letters against the shared,
/// already indexed source, as a what-if insertion does.
fn bench_join(c: &mut Criterion) {
    let (_, srcs, batch, _) = whatif_inputs();
    let social = &srcs["social_df"];
    let keys = social.column("person_id").unwrap().clone();
    let one = batch.select(&["person_id"]).unwrap().head(1);
    let mut group = c.benchmark_group("join");
    group.sample_size(10);
    group.bench_function("build_22k_cold", |b| {
        b.iter(|| {
            let fresh = Table::from_columns(vec![("person_id".into(), keys.clone())]).unwrap();
            one.inner_join(&fresh, "person_id", "person_id").unwrap()
        })
    });
    group.bench_function("probe_50_into_22k_warm", |b| {
        b.iter(|| batch.inner_join(social, "person_id", "person_id").unwrap())
    });
    group.finish();
}

/// Profiling the 20 000 `debug` letters. `profile_letters_20k` profiles
/// fresh copies of the columns, so no sketch memo serves it (each
/// iteration also pays the copy, a pointer per string cell);
/// `profile_letters_20k_warm` profiles the shared source, whose buffers
/// carry their sketches after the first call; `run_traced_full_quality`
/// is one `debug` pass's traced plan run under full profiling, where the
/// sources are warm and only the buffers the plan creates are sketched.
fn bench_quality_profile(c: &mut Criterion) {
    let (plan, srcs, _, _) = whatif_inputs();
    let letters = &srcs["train_df"];
    let mut group = c.benchmark_group("quality");
    group.sample_size(10);
    group.bench_function("profile_letters_20k", |b| {
        b.iter(|| {
            let columns = letters
                .schema()
                .names()
                .into_iter()
                .zip(letters.columns())
                .map(|(name, column)| (name.to_owned(), column.clone()))
                .collect();
            Table::from_columns(columns).unwrap().quality_profile()
        })
    });
    group.bench_function("profile_letters_20k_warm", |b| {
        b.iter(|| letters.quality_profile())
    });
    group.finish();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("run_traced_full_quality", |b| {
        b.iter(|| {
            nde_quality::configure_quality(QualityMode::Full);
            let traced = plan.run_traced(&srcs);
            nde_quality::configure_quality(QualityMode::Off);
            (traced.unwrap(), nde_quality::take_profiles())
        })
    });
    group.finish();
}

fn bench_cpclean(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpclean_certainty");
    group.sample_size(10);
    let n = 500;
    let cells: Vec<Interval> = (0..n)
        .map(|i| {
            if i % 10 == 0 {
                Interval::new(0.0, 5.0)
            } else {
                Interval::point((i % 7) as f64)
            }
        })
        .collect();
    let x = IncompleteMatrix::from_intervals(n, 1, cells).unwrap();
    let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let data = IncompleteDataset { x, y, n_classes: 2 };
    group.bench_function("n500_k5", |b| {
        b.iter(|| certain_prediction(&data, &[2.5], 5))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_knn_shapley,
    bench_knn_shapley_cache,
    bench_parallel_scaling,
    bench_tmc_shapley,
    bench_relational_ops,
    bench_provenance_overhead,
    bench_encode,
    bench_zorro,
    bench_kdtree,
    bench_identify,
    bench_whatif,
    bench_join,
    bench_quality_profile,
    bench_cpclean
);
criterion_main!(benches);
