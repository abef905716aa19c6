//! Property-based tests for the uncertainty machinery — above all the
//! *soundness* invariants: abstract domains must contain every concrete
//! execution, certain predictions must hold in sampled worlds, and
//! multiplicity ranges must bracket retraining.

use nde_learners::Matrix;
use nde_uncertain::affine::{AffineForm, SymbolPool};
use nde_uncertain::cpclean::{certain_prediction, IncompleteDataset};
use nde_uncertain::incomplete::IncompleteMatrix;
use nde_uncertain::interval::Interval;
use nde_uncertain::zorro::{train_concrete, train_symbolic, ZorroConfig};
use proptest::prelude::*;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-10.0f64..10.0, 0.0f64..5.0).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

proptest! {
    /// Interval arithmetic soundness: for sampled member points, every
    /// composite operation's concrete result lies in the abstract result.
    #[test]
    fn interval_ops_sound(a in arb_interval(), b in arb_interval(), ta in 0.0f64..1.0, tb in 0.0f64..1.0) {
        let xa = a.lo + ta * a.width();
        let xb = b.lo + tb * b.width();
        prop_assert!((a + b).contains(xa + xb));
        prop_assert!((a - b).contains(xa - xb));
        prop_assert!((a * b).contains(xa * xb), "{a} * {b} ∌ {}", xa * xb);
        prop_assert!(a.square().contains(xa * xa));
        prop_assert!((-a).contains(-xa));
        prop_assert!(a.hull(&b).contains(xa));
        prop_assert!(a.scale(-2.5).contains(xa * -2.5));
    }

    /// Affine-form soundness under shared-symbol composition: build an
    /// expression DAG reusing the same uncertain inputs and check a
    /// sampled valuation stays inside the concretization.
    #[test]
    fn affine_composition_sound(
        iv1 in arb_interval(),
        iv2 in arb_interval(),
        e1 in -1.0f64..1.0,
        e2 in -1.0f64..1.0,
        c in -3.0f64..3.0,
    ) {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(iv1, &pool);
        let y = AffineForm::from_interval(iv2, &pool);
        // expr = (x + y)·x − c·y + x  (reuses x and y across terms)
        let expr = x.add(&y).mul(&x, &pool).sub(&y.scale(c)).add(&x);
        // Concrete evaluation with the same symbol valuation everywhere.
        let symbol_of_x = x.terms().first().map(|&(s, _)| s);
        let symbol_of_y = y.terms().first().map(|&(s, _)| s);
        let eps = |s: usize| -> f64 {
            if Some(s) == symbol_of_x {
                e1
            } else if Some(s) == symbol_of_y {
                e2
            } else {
                0.0 // fresh remainder symbols: any value in [-1,1] is valid
            }
        };
        let xv = x.eval(&eps);
        let yv = y.eval(&eps);
        let concrete = (xv + yv) * xv - c * yv + xv;
        prop_assert!(
            expr.to_interval().contains(concrete),
            "{concrete} outside {}", expr.to_interval()
        );
    }

    /// Condensation never shrinks the concretization (soundness of the
    /// symbol-folding used by Zorro between epochs).
    #[test]
    fn condensation_sound(radii in prop::collection::vec(0.0f64..2.0, 1..15), keep in 0usize..6) {
        let pool = SymbolPool::new();
        let mut acc = AffineForm::constant(1.0);
        for &r in &radii {
            acc = acc.add(&AffineForm::from_interval(Interval::new(-r, r), &pool));
        }
        let before = acc.to_interval();
        let after = acc.condense(keep, &pool).to_interval();
        prop_assert!(after.contains_interval(&before));
    }

    /// Zorro soundness on random regression problems: the symbolic weights
    /// contain the concrete GD weights of sampled possible worlds.
    #[test]
    fn zorro_contains_sampled_worlds(
        xs in prop::collection::vec(-2.0f64..2.0, 5..12),
        missing_pos in 0usize..5,
        width in 0.1f64..1.5,
        pick in 0.0f64..1.0,
    ) {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 1.5 * x - 0.3).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut im = IncompleteMatrix::from_exact(&x);
        let target = missing_pos % xs.len();
        let base = xs[target];
        im.set_missing(target, 0, Interval::new(base - width, base + width));

        let cfg = ZorroConfig { epochs: 15, learning_rate: 0.05, ..Default::default() };
        let model = train_symbolic(&im, &y, &cfg);

        let ncols = im.ncols();
        let world = im.world(&|i, j| if i * ncols + j == target { pick } else { 0.5 });
        let (w, b) = train_concrete(&world, &y, &cfg);
        prop_assert!(
            model.weights[0].to_interval().contains(w[0]),
            "w {} outside {}", w[0], model.weights[0].to_interval()
        );
        prop_assert!(model.intercept.to_interval().contains(b));
    }

    /// CPClean soundness: when a prediction is reported certain, every
    /// sampled world's concrete k-NN agrees with it.
    #[test]
    fn certain_predictions_hold_in_worlds(
        points in prop::collection::vec((-5.0f64..5.0, 0usize..2), 3..10),
        missing_idx in 0usize..10,
        width in 0.0f64..4.0,
        query in -5.0f64..5.0,
        picks in prop::collection::vec(0.0f64..1.0, 5),
    ) {
        let n = points.len();
        let target = missing_idx % n;
        let cells: Vec<Interval> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, _))| {
                if i == target {
                    Interval::new(x - width, x + width)
                } else {
                    Interval::point(x)
                }
            })
            .collect();
        let x = IncompleteMatrix::from_intervals(n, 1, cells).unwrap();
        let y: Vec<usize> = points.iter().map(|&(_, l)| l).collect();
        let data = IncompleteDataset { x: x.clone(), y: y.clone(), n_classes: 2 };
        let k = 3;
        if let Some(certain) = certain_prediction(&data, &[query], k) {
            for &p in &picks {
                let world = x.world(&|i, _| if i == target { p } else { 0.5 });
                // Concrete k-NN vote in this world.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    (world.get(a, 0) - query).abs()
                        .total_cmp(&(world.get(b, 0) - query).abs())
                        .then(a.cmp(&b))
                });
                let votes1 = order.iter().take(k.min(n)).filter(|&&i| y[i] == 1).count();
                let kk = k.min(n);
                // Only strict majorities are comparable (ties are resolved
                // by convention and excluded by the certainty definition).
                if 2 * votes1 != kk {
                    let concrete = usize::from(2 * votes1 > kk);
                    prop_assert_eq!(
                        concrete, certain,
                        "world pick {} disagrees with certain label", p
                    );
                }
            }
        }
    }

    /// Incomplete-matrix worlds always stay inside bounds and the midpoint
    /// world is a member.
    #[test]
    fn worlds_respect_bounds(
        los in prop::collection::vec(-5.0f64..5.0, 1..10),
        widths in prop::collection::vec(0.0f64..3.0, 1..10),
        pick in 0.0f64..1.0,
    ) {
        let n = los.len().min(widths.len());
        let cells: Vec<Interval> = (0..n)
            .map(|i| Interval::new(los[i], los[i] + widths[i]))
            .collect();
        let im = IncompleteMatrix::from_intervals(n, 1, cells).unwrap();
        let w = im.world(&|_, _| pick);
        prop_assert!(im.contains_world(&w, 1e-12));
        prop_assert!(im.contains_world(&im.midpoint_world(), 1e-12));
    }
}
