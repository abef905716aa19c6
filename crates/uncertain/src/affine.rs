//! Affine arithmetic (zonotopes): the relational abstract domain Zorro
//! uses. An affine form `x̂ = c + Σᵢ aᵢ·εᵢ` tracks *which* noise symbol each
//! uncertainty came from, so `x̂ − x̂ = 0` exactly — the property that makes
//! symbolic gradient descent over shared missing values dramatically
//! tighter than interval arithmetic.
//!
//! # Representation
//!
//! A form stores its terms as one `Vec<(symbol, coefficient)>` sorted by
//! symbol, each symbol at most once. Sums and products are linear merges
//! of two such vectors. The hot operations work in place: `+=`, `-=`,
//! `*=` (by a scalar) and [`AffineForm::mul_into`] reuse the destination's
//! buffer, and the by-value `add`, `sub`, `scale` and `mul` are thin
//! wrappers over them.
//! Fresh symbols come from a monotone [`SymbolPool`], so the remainder
//! symbol of a product or a condensation lands at the end of the vector.
//!
//! # Dropping negligible terms
//!
//! Two rules, kept exactly as written because trained weights must not
//! depend on how the forms are stored:
//!
//! - a **sum** computes `a + b` per shared symbol and `0.0 + b` for a symbol
//!   new to the left operand, and drops the result when `|v| < 1e-300`
//!   (so a NaN coefficient stays);
//! - a **product** computes `(0.0 + c₁·b) + c₂·a` per symbol and keeps the
//!   result only when `|v| > 1e-300` (so a NaN coefficient goes).

use crate::interval::Interval;
use std::ops::{AddAssign, MulAssign, SubAssign};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocates globally fresh noise-symbol ids (`εᵢ`).
#[derive(Debug, Default)]
pub struct SymbolPool {
    next: AtomicUsize,
}

impl SymbolPool {
    /// A new pool starting at symbol 0.
    pub fn new() -> Self {
        SymbolPool::default()
    }

    /// A fresh symbol id.
    pub fn fresh(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// An affine form `c + Σᵢ aᵢ εᵢ` with `εᵢ ∈ [−1, 1]`.
#[derive(Debug, PartialEq, Default)]
pub struct AffineForm {
    /// Center value `c`.
    pub center: f64,
    /// Partial deviations `(symbol, aᵢ)`, sorted by symbol, no repeats.
    terms: Vec<(usize, f64)>,
}

impl Clone for AffineForm {
    fn clone(&self) -> Self {
        AffineForm {
            center: self.center,
            terms: self.terms.clone(),
        }
    }

    /// Reuses `self`'s term buffer, so a per-row accumulator costs no
    /// allocation once it has grown.
    fn clone_from(&mut self, source: &Self) {
        self.center = source.center;
        self.terms.clone_from(&source.terms);
    }
}

impl AffineForm {
    /// The constant form `c`.
    pub fn constant(c: f64) -> Self {
        AffineForm {
            center: c,
            terms: Vec::new(),
        }
    }

    /// A fresh uncertain value ranging over `[lo, hi]`, introducing one new
    /// noise symbol from `pool`.
    pub fn from_interval(iv: Interval, pool: &SymbolPool) -> Self {
        let mut terms = Vec::new();
        if iv.radius() > 0.0 {
            terms.push((pool.fresh(), iv.radius()));
        }
        AffineForm {
            center: iv.mid(),
            terms,
        }
    }

    /// The partial deviations `(symbol, aᵢ)`, sorted by symbol.
    pub fn terms(&self) -> &[(usize, f64)] {
        &self.terms
    }

    /// Total deviation `Σ|aᵢ|`, summed in symbol order.
    pub fn radius(&self) -> f64 {
        self.terms.iter().map(|(_, a)| a.abs()).sum()
    }

    /// The concretization `[c − r, c + r]`.
    pub fn to_interval(&self) -> Interval {
        let r = self.radius();
        Interval {
            lo: self.center - r,
            hi: self.center + r,
        }
    }

    /// Number of active noise symbols.
    pub fn n_symbols(&self) -> usize {
        self.terms.len()
    }

    /// Sum.
    pub fn add(&self, other: &AffineForm) -> AffineForm {
        let mut out = self.clone();
        out += other;
        out
    }

    /// Difference. `x.sub(&x)` is exactly zero — the relational payoff.
    pub fn sub(&self, other: &AffineForm) -> AffineForm {
        let mut out = self.clone();
        out -= other;
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> AffineForm {
        let mut out = self.clone();
        out *= s;
        out
    }

    /// Adds a constant.
    pub fn add_const(&self, c: f64) -> AffineForm {
        AffineForm {
            center: self.center + c,
            terms: self.terms.clone(),
        }
    }

    /// `self += form · k` in place: the same result, bit for bit, as
    /// `*self += &form.scale(k)`, without building the scaled form.
    pub(crate) fn add_scaled(&mut self, form: &AffineForm, k: f64) {
        if k == 0.0 {
            // `scale(0.0)` is the constant +0.0 whatever `form` holds, and
            // adding it still turns a −0.0 center into +0.0.
            self.center += 0.0;
        } else {
            self.center += form.center * k;
            self.merge_add(&form.terms, |b| b * k);
        }
    }

    /// Product of two affine forms. The linear part is exact; the quadratic
    /// remainder `(Σaᵢεᵢ)(Σbⱼεⱼ)` is bounded by `rad(x)·rad(y)` and folded
    /// into a fresh noise symbol — the standard sound affine multiplication.
    pub fn mul(&self, other: &AffineForm, pool: &SymbolPool) -> AffineForm {
        let mut out = AffineForm::default();
        AffineForm::mul_into(self, other, pool, &mut out);
        out
    }

    /// Writes the product `a · b` (see [`AffineForm::mul`]) into `out`,
    /// reusing its buffer. `out`'s previous value is discarded.
    pub fn mul_into(a: &AffineForm, b: &AffineForm, pool: &SymbolPool, out: &mut AffineForm) {
        out.center = a.center * b.center;
        out.terms.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            // a₀·bₛ first, then b₀·aₛ, each summed onto 0.0.
            let (s, v) = match (a.terms.get(i), b.terms.get(j)) {
                (Some(&(sa, ca)), Some(&(sb, cb))) if sa == sb => {
                    i += 1;
                    j += 1;
                    (sa, (0.0 + a.center * cb) + b.center * ca)
                }
                (Some(&(sa, ca)), Some(&(sb, _))) if sa < sb => {
                    i += 1;
                    (sa, 0.0 + b.center * ca)
                }
                (_, Some(&(sb, cb))) => {
                    j += 1;
                    (sb, 0.0 + a.center * cb)
                }
                (Some(&(sa, ca)), None) => {
                    i += 1;
                    (sa, 0.0 + b.center * ca)
                }
                (None, None) => break,
            };
            if v.abs() > 1e-300 {
                out.terms.push((s, v));
            }
        }
        // A factor without terms has radius zero, so there is no remainder
        // (and no fresh symbol) to compute.
        if !a.terms.is_empty() && !b.terms.is_empty() {
            let remainder = a.radius() * b.radius();
            if remainder > 0.0 {
                out.insert(pool.fresh(), remainder);
            }
        }
    }

    /// Sound compaction: keeps the `keep` largest-magnitude terms and folds
    /// the rest into one fresh symbol. Controls symbol growth in long
    /// symbolic computations at a (bounded) precision cost.
    pub fn condense(&self, keep: usize, pool: &SymbolPool) -> AffineForm {
        if self.terms.len() <= keep {
            return self.clone();
        }
        let mut entries = self.terms.clone();
        entries.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let folded: f64 = entries[keep..].iter().map(|(_, a)| a.abs()).sum();
        entries.truncate(keep);
        entries.sort_unstable_by_key(|&(s, _)| s);
        let mut out = AffineForm {
            center: self.center,
            terms: entries,
        };
        if folded > 0.0 {
            // Inflate by a few ulps of the *total* radius so the fold is an
            // over-approximation even under floating-point summation-order
            // differences between the old and new term sets.
            out.insert(pool.fresh(), folded + self.radius() * 8.0 * f64::EPSILON);
        }
        out
    }

    /// Evaluates the form at a concrete assignment of noise symbols
    /// (symbols absent from `eps` read as 0; values are clamped to [−1, 1]).
    pub fn eval(&self, eps: &dyn Fn(usize) -> f64) -> f64 {
        self.center
            + self
                .terms
                .iter()
                .map(|&(s, a)| a * eps(s).clamp(-1.0, 1.0))
                .sum::<f64>()
    }

    /// Sets symbol `s` to `a`. A fresh symbol is the largest yet, so this
    /// is a push unless `s` came from another pool.
    fn insert(&mut self, s: usize, a: f64) {
        match self.terms.binary_search_by_key(&s, |&(t, _)| t) {
            Ok(i) => self.terms[i].1 = a,
            Err(i) => self.terms.insert(i, (s, a)),
        }
    }

    /// Adds `map(b)` for every term `(s, b)` of `other` under the sum's
    /// drop rule. Merges in place: own terms move to the tail of the
    /// buffer, and the merged result is written from the front, where the
    /// write cursor never overtakes the unread own terms.
    fn merge_add(&mut self, other: &[(usize, f64)], map: impl Fn(f64) -> f64) {
        let (m, n) = (self.terms.len(), other.len());
        if n == 0 {
            return;
        }
        let terms = &mut self.terms;
        terms.resize(m + n, (0, 0.0));
        terms.copy_within(0..m, n);
        let (mut write, mut own) = (0, n);
        for &(s, b) in other {
            while own < m + n && terms[own].0 < s {
                terms[write] = terms[own];
                write += 1;
                own += 1;
            }
            let v = if own < m + n && terms[own].0 == s {
                own += 1;
                terms[own - 1].1 + map(b)
            } else {
                0.0 + map(b)
            };
            if v.abs() < 1e-300 {
                continue;
            }
            terms[write] = (s, v);
            write += 1;
        }
        terms.copy_within(own.., write);
        terms.truncate(write + (m + n - own));
    }
}

impl AddAssign<&AffineForm> for AffineForm {
    fn add_assign(&mut self, other: &AffineForm) {
        self.center += other.center;
        self.merge_add(&other.terms, |b| b);
    }
}

impl SubAssign<&AffineForm> for AffineForm {
    /// `self += other · (−1)`, the same as adding `other.scale(-1.0)`.
    fn sub_assign(&mut self, other: &AffineForm) {
        self.add_scaled(other, -1.0);
    }
}

impl MulAssign<f64> for AffineForm {
    /// Scales in place; a zero factor leaves the exact constant zero.
    fn mul_assign(&mut self, s: f64) {
        if s == 0.0 {
            self.center = 0.0;
            self.terms.clear();
            return;
        }
        self.center *= s;
        for (_, a) in &mut self.terms {
            *a *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_subtraction_is_exact_zero() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(1.0, 3.0), &pool);
        let z = x.sub(&x);
        assert_eq!(z.center, 0.0);
        assert_eq!(z.radius(), 0.0);
        // Interval arithmetic would give [-2, 2] here.
        let via_interval = x.to_interval() - x.to_interval();
        assert_eq!(via_interval.width(), 4.0);
    }

    #[test]
    fn concretization_matches_source_interval() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(-1.0, 5.0), &pool);
        assert_eq!(x.to_interval(), Interval::new(-1.0, 5.0));
        assert_eq!(x.n_symbols(), 1);
        let c = AffineForm::constant(2.5);
        assert_eq!(c.to_interval(), Interval::point(2.5));
    }

    #[test]
    fn addition_correlates_shared_symbols() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(0.0, 2.0), &pool);
        let sum = x.add(&x); // = 2x, range [0, 4]
        assert_eq!(sum.to_interval(), Interval::new(0.0, 4.0));
        assert_eq!(sum.n_symbols(), 1);
    }

    #[test]
    fn multiplication_is_sound() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(1.0, 2.0), &pool);
        let y = AffineForm::from_interval(Interval::new(-1.0, 1.0), &pool);
        let prod = x.mul(&y, &pool);
        let true_range = Interval::new(1.0, 2.0) * Interval::new(-1.0, 1.0);
        assert!(prod.to_interval().contains_interval(&true_range));
    }

    #[test]
    fn squaring_via_mul_contains_true_square() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(-1.0, 3.0), &pool);
        let sq = x.mul(&x, &pool);
        let true_sq = Interval::new(-1.0, 3.0).square();
        assert!(sq.to_interval().contains_interval(&true_sq));
    }

    #[test]
    fn eval_is_inside_concretization() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(0.0, 10.0), &pool);
        let y = x.scale(2.0).add_const(1.0);
        for &e in &[-1.0, -0.3, 0.0, 0.7, 1.0] {
            let v = y.eval(&|_| e);
            assert!(y.to_interval().contains(v), "{v} at ε={e}");
        }
    }

    #[test]
    fn condense_preserves_soundness() {
        let pool = SymbolPool::new();
        let mut acc = AffineForm::constant(0.0);
        for i in 0..20 {
            let x = AffineForm::from_interval(Interval::new(0.0, 0.1 * (i + 1) as f64), &pool);
            acc = acc.add(&x);
        }
        let full_range = acc.to_interval();
        let small = acc.condense(5, &pool);
        assert_eq!(small.n_symbols(), 6); // 5 kept + 1 folded
        assert!(small.to_interval().contains_interval(&full_range));
        // Same radius in this all-positive case (condensation is exact for
        // the interval view).
        assert!((small.radius() - acc.radius()).abs() < 1e-9);
    }

    #[test]
    fn a_remainder_from_another_pool_keeps_terms_sorted() {
        let pool = SymbolPool::new();
        for _ in 0..10 {
            pool.fresh();
        }
        let x = AffineForm::from_interval(Interval::new(1.0, 2.0), &pool);
        let y = AffineForm::from_interval(Interval::new(0.0, 2.0), &pool);
        // A fresh pool hands out symbol 0, below both operands' symbols.
        let prod = x.mul(&y, &SymbolPool::new());
        let symbols: Vec<usize> = prod.terms().iter().map(|&(s, _)| s).collect();
        assert_eq!(symbols, vec![0, 10, 11]);
        assert_eq!(prod.terms()[0].1, x.radius() * y.radius());
    }

    #[test]
    fn scale_by_zero_is_constant_zero() {
        let pool = SymbolPool::new();
        let x = AffineForm::from_interval(Interval::new(1.0, 2.0), &pool);
        let z = x.scale(0.0);
        assert_eq!(z, AffineForm::constant(0.0));
    }
}
