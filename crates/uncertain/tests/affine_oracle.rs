//! Bit-identity oracle for the flat affine forms.
//!
//! `RefForm` keeps its terms in a `BTreeMap<usize, f64>` and computes every
//! operation, and Zorro's training loop, the way the map-based affine forms
//! did. The library must agree with it bit for bit: same center bits, same
//! symbol ids in the same order, same coefficient bits, and the same number
//! of fresh symbols drawn from the pool.

use nde_uncertain::affine::{AffineForm, SymbolPool};
use nde_uncertain::incomplete::IncompleteMatrix;
use nde_uncertain::interval::Interval;
use nde_uncertain::zorro::{
    train_symbolic, train_symbolic_uncertain_labels, Domain, SymbolicLinear, ZorroConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct RefForm {
    center: f64,
    terms: BTreeMap<usize, f64>,
}

impl RefForm {
    fn constant(c: f64) -> Self {
        RefForm {
            center: c,
            terms: BTreeMap::new(),
        }
    }

    fn from_interval(iv: Interval, pool: &SymbolPool) -> Self {
        let mut terms = BTreeMap::new();
        if iv.radius() > 0.0 {
            terms.insert(pool.fresh(), iv.radius());
        }
        RefForm {
            center: iv.mid(),
            terms,
        }
    }

    fn radius(&self) -> f64 {
        self.terms.values().map(|a| a.abs()).sum()
    }

    fn to_interval(&self) -> Interval {
        let r = self.radius();
        Interval {
            lo: self.center - r,
            hi: self.center + r,
        }
    }

    fn add(&self, other: &RefForm) -> RefForm {
        let mut terms = self.terms.clone();
        for (&s, &a) in &other.terms {
            let entry = terms.entry(s).or_insert(0.0);
            *entry += a;
            if entry.abs() < 1e-300 {
                terms.remove(&s);
            }
        }
        RefForm {
            center: self.center + other.center,
            terms,
        }
    }

    fn sub(&self, other: &RefForm) -> RefForm {
        self.add(&other.scale(-1.0))
    }

    fn scale(&self, s: f64) -> RefForm {
        if s == 0.0 {
            return RefForm::constant(0.0);
        }
        RefForm {
            center: self.center * s,
            terms: self.terms.iter().map(|(&k, &a)| (k, a * s)).collect(),
        }
    }

    fn add_const(&self, c: f64) -> RefForm {
        RefForm {
            center: self.center + c,
            terms: self.terms.clone(),
        }
    }

    fn mul(&self, other: &RefForm, pool: &SymbolPool) -> RefForm {
        let mut out = RefForm::constant(self.center * other.center);
        for (&s, &b) in &other.terms {
            *out.terms.entry(s).or_insert(0.0) += self.center * b;
        }
        for (&s, &a) in &self.terms {
            *out.terms.entry(s).or_insert(0.0) += other.center * a;
        }
        out.terms.retain(|_, a| a.abs() > 1e-300);
        let remainder = self.radius() * other.radius();
        if remainder > 0.0 {
            out.terms.insert(pool.fresh(), remainder);
        }
        out
    }

    fn condense(&self, keep: usize, pool: &SymbolPool) -> RefForm {
        if self.terms.len() <= keep {
            return self.clone();
        }
        let mut entries: Vec<(usize, f64)> = self.terms.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let mut terms: BTreeMap<usize, f64> = entries[..keep].iter().copied().collect();
        let folded: f64 = entries[keep..].iter().map(|(_, a)| a.abs()).sum();
        if folded > 0.0 {
            terms.insert(pool.fresh(), folded + self.radius() * 8.0 * f64::EPSILON);
        }
        RefForm {
            center: self.center,
            terms,
        }
    }
}

struct RefModel {
    weights: Vec<RefForm>,
    intercept: RefForm,
}

impl RefModel {
    fn prediction_range(&self, x: &[f64]) -> Interval {
        let mut acc = self.intercept.clone();
        for (w, &xi) in self.weights.iter().zip(x) {
            acc = acc.add(&w.scale(xi));
        }
        acc.to_interval()
    }
}

fn ref_mul_domain(a: &RefForm, b: &RefForm, pool: &SymbolPool, domain: Domain) -> RefForm {
    match domain {
        Domain::Zonotope => a.mul(b, pool),
        Domain::Interval => RefForm::from_interval(a.to_interval() * b.to_interval(), pool),
    }
}

/// Zorro's symbolic gradient descent as the map-based forms ran it.
fn ref_train(x: &IncompleteMatrix, y: &[Interval], cfg: &ZorroConfig) -> RefModel {
    let pool = SymbolPool::new();
    let (n, d) = (x.nrows(), x.ncols());
    let lift = |iv: Interval| {
        if iv.width() > 0.0 {
            RefForm::from_interval(iv, &pool)
        } else {
            RefForm::constant(iv.mid())
        }
    };
    let cells: Vec<RefForm> = (0..n)
        .flat_map(|i| (0..d).map(move |j| (i, j)))
        .map(|(i, j)| lift(x.get(i, j)))
        .collect();
    let cell = |i: usize, j: usize| &cells[i * d + j];
    let y_forms: Vec<RefForm> = y.iter().map(|&iv| lift(iv)).collect();

    let mut w: Vec<RefForm> = vec![RefForm::constant(0.0); d];
    let mut b = RefForm::constant(0.0);
    let inv_n = 1.0 / n.max(1) as f64;
    let lr = cfg.learning_rate;
    for _ in 0..cfg.epochs {
        let mut grad_w: Vec<RefForm> = vec![RefForm::constant(0.0); d];
        let mut grad_b = RefForm::constant(0.0);
        for (i, yi) in y_forms.iter().enumerate().take(n) {
            let mut err = b.clone();
            for (j, wj) in w.iter().enumerate() {
                err = err.add(&ref_mul_domain(wj, cell(i, j), &pool, cfg.domain));
            }
            err = err.sub(yi);
            for (j, gj) in grad_w.iter_mut().enumerate() {
                *gj = gj.add(&ref_mul_domain(&err, cell(i, j), &pool, cfg.domain));
            }
            grad_b = grad_b.add(&err);
        }
        for j in 0..d {
            w[j] = w[j]
                .scale(1.0 - lr * cfg.l2)
                .sub(&grad_w[j].scale(lr * inv_n))
                .condense(cfg.max_symbols, &pool);
        }
        b = b
            .sub(&grad_b.scale(lr * inv_n))
            .condense(cfg.max_symbols, &pool);
    }
    RefModel {
        weights: w,
        intercept: b,
    }
}

/// The bits of `v`, with every NaN mapped to one value: Rust leaves the
/// sign and payload of a NaN result unspecified (the optimiser may turn
/// `x * -1.0` into a negation), so only NaN-ness is part of the result.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn assert_same(lib: &AffineForm, oracle: &RefForm, what: &str) {
    assert_eq!(
        bits(lib.center),
        bits(oracle.center),
        "{what}: center {} vs {}",
        lib.center,
        oracle.center
    );
    let lib_terms: Vec<(usize, u64)> = lib.terms().iter().map(|&(s, a)| (s, bits(a))).collect();
    let ref_terms: Vec<(usize, u64)> = oracle.terms.iter().map(|(&s, &a)| (s, bits(a))).collect();
    assert_eq!(lib_terms, ref_terms, "{what}: terms");
}

fn assert_same_interval(lib: Interval, oracle: Interval, what: &str) {
    assert_eq!(
        (bits(lib.lo), bits(lib.hi)),
        (bits(oracle.lo), bits(oracle.hi)),
        "{what}: {lib} vs {oracle}"
    );
}

/// Fresh symbols show up in the weights by id, so equal forms also mean
/// the pool was drawn in the same order.
fn assert_same_model(lib: &SymbolicLinear, oracle: &RefModel, probes: &[Vec<f64>]) {
    assert_eq!(lib.weights.len(), oracle.weights.len());
    for (j, (w, r)) in lib.weights.iter().zip(&oracle.weights).enumerate() {
        assert_same(w, r, &format!("weight {j}"));
    }
    assert_same(&lib.intercept, &oracle.intercept, "intercept");
    for (p, x) in probes.iter().enumerate() {
        assert_same_interval(
            lib.prediction_range(x),
            oracle.prediction_range(x),
            &format!("prediction range at probe {p}"),
        );
    }
}

/// Coefficient-like values: ordinary magnitudes, values that cancel
/// exactly, and magnitudes at both drop thresholds.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -3.0f64..3.0,
        Just(1.0),
        Just(-1.0),
        Just(0.0),
        Just(-0.0),
        Just(1e-300),
        Just(-1e-300),
        (0.25f64..4.0).prop_map(|m| m * 1e-300),
        (0.25f64..4.0).prop_map(|m| -m * 1e-150),
        Just(f64::INFINITY),
        Just(f64::NAN),
    ]
}

/// A radius for a fresh symbol: finite and non-negative, sometimes tiny.
fn arb_radius() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..3.0,
        Just(0.0),
        Just(1e-300),
        (0.25f64..4.0).prop_map(|m| m * 1e-300),
        (0.25f64..4.0).prop_map(|m| m * 1e-150),
    ]
}

/// One step of an affine program: an op code, two operand registers, a
/// scalar, a radius and a `keep` count.
fn arb_step() -> impl Strategy<Value = (u8, usize, usize, f64, f64, usize)> {
    (
        0u8..9,
        0usize..64,
        0usize..64,
        arb_value(),
        arb_radius(),
        0usize..4,
    )
}

/// A random incomplete matrix with `d ∈ 1..=4`, some cells missing, and
/// labels of which some are intervals.
fn arb_problem() -> impl Strategy<Value = (IncompleteMatrix, Vec<Interval>)> {
    (2usize..14, 1usize..5).prop_flat_map(|(n, d)| {
        let cells = prop::collection::vec((-2.0f64..2.0, 0u8..5, 0.05f64..1.5), n * d);
        let labels = prop::collection::vec((-3.0f64..3.0, 0u8..4, 0.05f64..1.0), n);
        // `(value, draw, half-width)`: uncertain when the draw is 0.
        let bounds = |(v, m, w): (f64, u8, f64)| {
            if m == 0 {
                Interval::new(v - w, v + w)
            } else {
                Interval::point(v)
            }
        };
        (cells, labels).prop_map(move |(cells, labels)| {
            let cells = cells.into_iter().map(bounds).collect();
            let x = IncompleteMatrix::from_intervals(n, d, cells).expect("n·d cells");
            (x, labels.into_iter().map(bounds).collect())
        })
    })
}

fn arb_config() -> impl Strategy<Value = ZorroConfig> {
    (
        1usize..6,
        0.01f64..0.3,
        0.0f64..0.1,
        1usize..8,
        any::<bool>(),
    )
        .prop_map(
            |(epochs, learning_rate, l2, max_symbols, zonotope)| ZorroConfig {
                learning_rate,
                epochs,
                l2,
                max_symbols,
                domain: if zonotope {
                    Domain::Zonotope
                } else {
                    Domain::Interval
                },
            },
        )
}

/// Probe feature vectors, one of them all zeros (the `scale(0.0)` case).
fn probes(d: usize) -> Vec<Vec<f64>> {
    vec![
        vec![0.0; d],
        (0..d).map(|j| 0.5 - 0.3 * j as f64).collect(),
        (0..d).map(|j| if j % 2 == 0 { 0.0 } else { 1.5 }).collect(),
    ]
}

proptest! {
    /// Random programs over the affine operations: every register the
    /// library produces equals the reference's, bit for bit, and both draw
    /// the same number of fresh symbols.
    #[test]
    fn affine_ops_match_btreemap_reference(
        steps in prop::collection::vec(arb_step(), 1..40),
        seeds in prop::collection::vec(arb_radius(), 1..5),
    ) {
        let (pool, ref_pool) = (SymbolPool::new(), SymbolPool::new());
        let mut lib: Vec<AffineForm> = Vec::new();
        let mut oracle: Vec<RefForm> = Vec::new();
        for &r in &seeds {
            lib.push(AffineForm::from_interval(Interval::new(-r, r), &pool));
            oracle.push(RefForm::from_interval(Interval::new(-r, r), &ref_pool));
        }
        for (k, &(op, i, j, v, r, keep)) in steps.iter().enumerate() {
            let (i, j) = (i % lib.len(), j % lib.len());
            let (a, b) = (&lib[i], &lib[j]);
            let (ra, rb) = (&oracle[i], &oracle[j]);
            let (next, ref_next) = match op {
                0 => (
                    AffineForm::from_interval(Interval::new(-r, r), &pool).add_const(v),
                    RefForm::from_interval(Interval::new(-r, r), &ref_pool).add_const(v),
                ),
                1 => (a.add(b), ra.add(rb)),
                2 => (a.sub(b), ra.sub(rb)),
                3 => (a.scale(v), ra.scale(v)),
                4 => (AffineForm::constant(v), RefForm::constant(v)),
                5 => (a.mul(b, &pool), ra.mul(rb, &ref_pool)),
                6 => (a.condense(keep, &pool), ra.condense(keep, &ref_pool)),
                7 => {
                    // `mul_into` over a buffer that still holds another form.
                    let mut out = lib[(i + j) % lib.len()].clone();
                    AffineForm::mul_into(a, b, &pool, &mut out);
                    (out, ra.mul(rb, &ref_pool))
                }
                _ => {
                    let mut acc = a.clone();
                    acc -= b;
                    acc += a;
                    acc *= v;
                    (acc, ra.sub(rb).add(ra).scale(v))
                }
            };
            assert_same(&next, &ref_next, &format!("step {k} (op {op})"));
            prop_assert_eq!(bits(next.radius()), bits(ref_next.radius()));
            lib.push(next);
            oracle.push(ref_next);
        }
        prop_assert_eq!(pool.fresh(), ref_pool.fresh());
    }

    /// Zorro training over random incomplete matrices (`d ∈ 1..=4`), with
    /// uncertain labels, in both domains, with `max_symbols` small enough
    /// that `condense` folds every epoch: weights, intercept, and
    /// prediction ranges equal the reference bit for bit.
    #[test]
    fn training_matches_btreemap_reference(
        (x, labels) in arb_problem(),
        cfg in arb_config(),
    ) {
        let oracle = ref_train(&x, &labels, &cfg);
        let model = train_symbolic_uncertain_labels(&x, &labels, &cfg);
        assert_same_model(&model, &oracle, &probes(x.ncols()));

        // Point labels through `train_symbolic`.
        let points: Vec<f64> = labels.iter().map(Interval::mid).collect();
        let exact: Vec<Interval> = points.iter().map(|&v| Interval::point(v)).collect();
        let oracle = ref_train(&x, &exact, &cfg);
        let model = train_symbolic(&x, &points, &cfg);
        assert_same_model(&model, &oracle, &probes(x.ncols()));
    }
}

/// The `learn` workload's shape at a smaller size: 2 features, 5 % of one
/// feature missing, default `max_symbols`, in both domains.
#[test]
fn learn_shaped_training_matches_btreemap_reference() {
    let n = 200;
    let rows: Vec<Interval> = (0..n)
        .flat_map(|i| {
            let rating = ((i * 37) % 101) as f64 / 100.0;
            let age = ((i * 13) % 47) as f64 / 46.0;
            let rating = if i % 20 == 3 {
                Interval::new(0.0, 1.0)
            } else {
                Interval::point(rating)
            };
            [rating, Interval::point(age)]
        })
        .collect();
    let x = IncompleteMatrix::from_intervals(n, 2, rows).expect("n·2 cells");
    let y: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 / 10.0).collect();
    let labels: Vec<Interval> = y.iter().map(|&v| Interval::point(v)).collect();
    for domain in [Domain::Zonotope, Domain::Interval] {
        let cfg = ZorroConfig {
            epochs: 10,
            domain,
            ..ZorroConfig::default()
        };
        let oracle = ref_train(&x, &labels, &cfg);
        let model = train_symbolic(&x, &y, &cfg);
        assert_same_model(&model, &oracle, &probes(2));
    }
}
