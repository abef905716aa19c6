//! The unified semivalue framework of §2.1: exact Shapley/Banzhaf values by
//! enumeration (small `n`), Truncated Monte Carlo permutation sampling
//! (Ghorbani & Zou 2019), Beta Shapley (Kwon & Zou 2021), and the
//! maximum-sample-reuse Data Banzhaf estimator (Wang & Jia 2023).

use crate::utility::Utility;
use nde_parallel::{chunk_seed, par_reduce};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Samples per RNG chunk for the Monte Carlo estimators. Chunk boundaries
/// (and hence per-chunk seeds) depend only on the sample count, so the
/// estimates are bit-identical for any `NDE_THREADS` value.
const SAMPLE_CHUNK: usize = 8;

/// Errors from the valuation algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportanceError {
    /// Exact enumeration was requested for a game too large to enumerate.
    TooManyPlayers {
        /// Number of players requested.
        n: usize,
        /// Enumeration limit.
        max: usize,
    },
}

impl fmt::Display for ImportanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportanceError::TooManyPlayers { n, max } => {
                write!(
                    f,
                    "exact enumeration over {n} players exceeds the limit of {max}"
                )
            }
        }
    }
}

impl std::error::Error for ImportanceError {}

/// Monte Carlo configuration shared by the sampling estimators.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of sampled permutations (or subsets, for Banzhaf-MSR).
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// TMC truncation: once the running value is within this tolerance of
    /// the full-set value, the rest of the permutation's marginals are
    /// treated as zero. `None` disables truncation.
    pub truncation: Option<f64>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            samples: 200,
            seed: 42,
            truncation: Some(1e-4),
        }
    }
}

impl McConfig {
    /// Config with the given sample count and seed, no truncation.
    pub fn new(samples: usize, seed: u64) -> Self {
        McConfig {
            samples,
            seed,
            truncation: None,
        }
    }

    /// Enables TMC truncation with tolerance `tol`.
    pub fn with_truncation(mut self, tol: f64) -> Self {
        self.truncation = Some(tol);
        self
    }
}

const EXACT_LIMIT: usize = 20;

/// Exact Shapley values by subset enumeration (`n ≤ 20`).
///
/// Satisfies the efficiency axiom: `Σᵢ φᵢ = v(D) − v(∅)`.
pub fn exact_shapley(util: &dyn Utility) -> Result<Vec<f64>, ImportanceError> {
    exact_semivalue(util, |n, s| {
        // |S|! (n-|S|-1)! / n!  computed multiplicatively for stability.
        1.0 / (n as f64 * binomial(n - 1, s))
    })
}

/// Exact Banzhaf values by subset enumeration (`n ≤ 20`):
/// `φᵢ = 2^{-(n-1)} Σ_{S ⊆ D∖{i}} [v(S∪{i}) − v(S)]`.
pub fn exact_banzhaf(util: &dyn Utility) -> Result<Vec<f64>, ImportanceError> {
    let n = util.n();
    let denom = 2f64.powi(n as i32 - 1);
    exact_semivalue(util, move |_, _| 1.0 / denom)
}

/// Shared enumeration core: `weight(n, |S|)` multiplies each marginal
/// contribution `v(S∪{i}) − v(S)` over subsets `S` not containing `i`.
fn exact_semivalue(
    util: &dyn Utility,
    weight: impl Fn(usize, usize) -> f64,
) -> Result<Vec<f64>, ImportanceError> {
    let n = util.n();
    if n > EXACT_LIMIT {
        return Err(ImportanceError::TooManyPlayers {
            n,
            max: EXACT_LIMIT,
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    // Cache every subset value once: 2^n evaluations.
    let mut values = vec![0.0f64; 1usize << n];
    let mut members = Vec::with_capacity(n);
    for (mask, slot) in values.iter_mut().enumerate() {
        members.clear();
        members.extend((0..n).filter(|&i| mask & (1 << i) != 0));
        *slot = util.eval(&members);
    }
    let mut phi = vec![0.0f64; n];
    for (i, p) in phi.iter_mut().enumerate() {
        let bit = 1usize << i;
        for mask in 0..(1usize << n) {
            if mask & bit != 0 {
                continue;
            }
            let s = (mask as u32).count_ones() as usize;
            *p += weight(n, s) * (values[mask | bit] - values[mask]);
        }
    }
    Ok(phi)
}

fn binomial(n: usize, k: usize) -> f64 {
    // Multiplicative formula, exact enough for n ≤ 20.
    debug_assert!(k <= n);
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for j in 0..k {
        acc = acc * (n - j) as f64 / (j + 1) as f64;
    }
    acc
}

/// Truncated-Monte-Carlo Shapley: permutation sampling with early
/// truncation once the running coalition value reaches the full-set value.
pub fn tmc_shapley(util: &dyn Utility, cfg: &McConfig) -> Vec<f64> {
    let mut span = nde_trace::span("importance.tmc_shapley");
    span.field("n", util.n());
    span.field("samples", cfg.samples);
    permutation_semivalue(util, cfg, |_n, _size| 1.0)
}

/// Beta(α, β) Shapley via weighted permutation sampling. `alpha = beta = 1`
/// recovers Data Shapley; `alpha > beta` (e.g. Beta(16, 1)) concentrates
/// weight on small coalitions, which denoises valuation (Kwon & Zou 2021).
pub fn beta_shapley(util: &dyn Utility, alpha: f64, beta: f64, cfg: &McConfig) -> Vec<f64> {
    let n = util.n();
    let mut span = nde_trace::span("importance.beta_shapley");
    span.field("n", n);
    span.field("samples", cfg.samples);
    let weights = beta_weights(n, alpha, beta);
    permutation_semivalue(util, cfg, move |_n, size| weights[size])
}

/// The normalized Beta-Shapley position weights `w̃_{s+1}`, indexed by
/// prefix size `s ∈ 0..n`: `E_perm[w̃(s_i+1)·Δ_i] = φ^{(α,β)}_i`.
///
/// `w_{n,j} = n·C(n-1,j-1)·B(j+β-1, n-j+α)/B(α,β)` (Kwon & Zou 2021), with
/// `j = s+1`, computed in log space.
pub fn beta_weights(n: usize, alpha: f64, beta: f64) -> Vec<f64> {
    (0..n)
        .map(|s| {
            let j = (s + 1) as f64;
            let nf = n as f64;
            let log_w = (nf).ln() + ln_choose(n - 1, s) + ln_beta(j + beta - 1.0, nf - j + alpha)
                - ln_beta(alpha, beta);
            log_w.exp()
        })
        .collect()
}

/// Permutation-sampling engine shared by TMC Shapley and Beta Shapley:
/// estimates `φᵢ = E_perm[w(prefix size)·(v(S∪{i}) − v(S))]`.
fn permutation_semivalue(
    util: &dyn Utility,
    cfg: &McConfig,
    weight: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<f64> {
    let n = util.n();
    if n == 0 || cfg.samples == 0 {
        return vec![0.0; n];
    }
    let full_value = cfg.truncation.map(|tol| {
        let all: Vec<usize> = (0..n).collect();
        (util.eval(&all), tol)
    });

    // Fixed-size sample chunks, each with its own seed derived from the
    // chunk index; partials fold in chunk order. The thread count only
    // schedules chunks, so the estimate is identical for any worker count.
    let mut sums = par_reduce(
        cfg.samples,
        SAMPLE_CHUNK,
        vec![0.0f64; n],
        |chunk| {
            let chunk_idx = (chunk.start / SAMPLE_CHUNK) as u64;
            let mut rng = StdRng::seed_from_u64(chunk_seed(cfg.seed, chunk_idx));
            let mut local = vec![0.0f64; n];
            let mut perm: Vec<usize> = (0..n).collect();
            let mut prefix: Vec<usize> = Vec::with_capacity(n);
            for _ in chunk {
                perm.shuffle(&mut rng);
                prefix.clear();
                let mut prev = util.eval(&prefix);
                let mut truncated = false;
                for (pos, &i) in perm.iter().enumerate() {
                    if truncated {
                        // Marginals treated as exactly zero.
                        continue;
                    }
                    if let Some((full, tol)) = full_value {
                        if (full - prev).abs() < tol && pos > 0 {
                            truncated = true;
                            continue;
                        }
                    }
                    prefix.push(i);
                    let curr = util.eval(&prefix);
                    local[i] += weight(n, pos) * (curr - prev);
                    prev = curr;
                }
            }
            local
        },
        |mut acc, local| {
            for (a, v) in acc.iter_mut().zip(local) {
                *a += v;
            }
            acc
        },
    );
    sums.iter_mut().for_each(|s| *s /= cfg.samples as f64);
    sums
}

/// Data Banzhaf with the maximum-sample-reuse (MSR) estimator: sample
/// subsets by independent fair coin flips; `φᵢ` is the difference between
/// the mean value of subsets containing `i` and the mean value of subsets
/// not containing `i`. Every sampled subset updates every player.
pub fn banzhaf_msr(util: &dyn Utility, cfg: &McConfig) -> Vec<f64> {
    let n = util.n();
    if n == 0 || cfg.samples == 0 {
        return vec![0.0; n];
    }
    let mut span = nde_trace::span("importance.banzhaf_msr");
    span.field("n", n);
    span.field("samples", cfg.samples);
    // Same fixed-chunk scheme as the permutation engine: per-chunk seeds
    // and in-order folding make the estimate thread-count independent.
    struct MsrPartial {
        sum_in: Vec<f64>,
        cnt_in: Vec<usize>,
        sum_out: Vec<f64>,
        cnt_out: Vec<usize>,
    }
    let (sum_in, cnt_in, sum_out, cnt_out) = {
        let folded = par_reduce(
            cfg.samples,
            SAMPLE_CHUNK,
            MsrPartial {
                sum_in: vec![0.0; n],
                cnt_in: vec![0; n],
                sum_out: vec![0.0; n],
                cnt_out: vec![0; n],
            },
            |chunk| {
                let chunk_idx = (chunk.start / SAMPLE_CHUNK) as u64;
                let mut rng = StdRng::seed_from_u64(chunk_seed(cfg.seed, chunk_idx));
                let mut local = MsrPartial {
                    sum_in: vec![0.0; n],
                    cnt_in: vec![0; n],
                    sum_out: vec![0.0; n],
                    cnt_out: vec![0; n],
                };
                let mut subset = Vec::with_capacity(n);
                let mut member = vec![false; n];
                for _ in chunk {
                    subset.clear();
                    for (i, m) in member.iter_mut().enumerate() {
                        *m = rng.random_bool(0.5);
                        if *m {
                            subset.push(i);
                        }
                    }
                    let v = util.eval(&subset);
                    for (i, &m) in member.iter().enumerate() {
                        if m {
                            local.sum_in[i] += v;
                            local.cnt_in[i] += 1;
                        } else {
                            local.sum_out[i] += v;
                            local.cnt_out[i] += 1;
                        }
                    }
                }
                local
            },
            |mut acc, local| {
                for i in 0..n {
                    acc.sum_in[i] += local.sum_in[i];
                    acc.cnt_in[i] += local.cnt_in[i];
                    acc.sum_out[i] += local.sum_out[i];
                    acc.cnt_out[i] += local.cnt_out[i];
                }
                acc
            },
        );
        (folded.sum_in, folded.cnt_in, folded.sum_out, folded.cnt_out)
    };
    (0..n)
        .map(|i| {
            let mean_in = if cnt_in[i] > 0 {
                sum_in[i] / cnt_in[i] as f64
            } else {
                0.0
            };
            let mean_out = if cnt_out[i] > 0 {
                sum_out[i] / cnt_out[i] as f64
            } else {
                0.0
            };
            mean_in - mean_out
        })
        .collect()
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

fn ln_choose(n: usize, k: usize) -> f64 {
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::test_util::{AdditiveUtility, MajorityUtility};

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn exact_shapley_of_additive_game_is_weights() {
        let util = AdditiveUtility {
            weights: vec![1.0, -2.0, 0.5, 3.0],
        };
        let phi = exact_shapley(&util).unwrap();
        assert!(close(&phi, &util.weights, 1e-12), "{phi:?}");
    }

    #[test]
    fn exact_banzhaf_of_additive_game_is_weights() {
        let util = AdditiveUtility {
            weights: vec![1.0, -2.0, 0.5],
        };
        let phi = exact_banzhaf(&util).unwrap();
        assert!(close(&phi, &util.weights, 1e-12), "{phi:?}");
    }

    #[test]
    fn efficiency_axiom_holds_for_majority_game() {
        let util = MajorityUtility { n: 7 };
        let phi = exact_shapley(&util).unwrap();
        let total: f64 = phi.iter().sum();
        // v(D) - v(∅) = 1 - 0.
        assert!((total - 1.0).abs() < 1e-10, "total = {total}");
        // Symmetry: all players identical.
        for &p in &phi {
            assert!((p - 1.0 / 7.0).abs() < 1e-10);
        }
    }

    #[test]
    fn exact_rejects_large_games() {
        let util = AdditiveUtility {
            weights: vec![0.0; 30],
        };
        assert!(matches!(
            exact_shapley(&util),
            Err(ImportanceError::TooManyPlayers { n: 30, .. })
        ));
    }

    #[test]
    fn tmc_matches_exact_on_small_game() {
        let util = AdditiveUtility {
            weights: vec![2.0, -1.0, 0.0, 1.0, 0.5],
        };
        let exact = exact_shapley(&util).unwrap();
        let mc = tmc_shapley(&util, &McConfig::new(3000, 1));
        assert!(close(&mc, &exact, 0.1), "{mc:?} vs {exact:?}");
    }

    #[test]
    fn tmc_truncation_preserves_estimates_for_flat_tails() {
        // Additive game has no flat tail, but truncation with a tiny
        // tolerance must not corrupt the estimate.
        let util = AdditiveUtility {
            weights: vec![1.0, 1.0, 1.0],
        };
        let mc = tmc_shapley(&util, &McConfig::new(500, 2).with_truncation(1e-9));
        assert!(close(&mc, &[1.0, 1.0, 1.0], 1e-9), "{mc:?}");
    }

    #[test]
    fn beta_1_1_equals_shapley() {
        let n = 6;
        let w = beta_weights(n, 1.0, 1.0);
        for &wi in &w {
            assert!((wi - 1.0).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn beta_weights_normalize_to_n() {
        for &(a, b) in &[(1.0, 4.0), (4.0, 1.0), (0.5, 0.5), (2.0, 2.0)] {
            let n = 9;
            let w = beta_weights(n, a, b);
            let total: f64 = w.iter().sum();
            assert!((total - n as f64).abs() < 1e-6, "α={a} β={b}: {total}");
        }
    }

    #[test]
    fn beta_16_1_weights_small_coalitions() {
        let w = beta_weights(10, 16.0, 1.0);
        assert!(w[0] > w[5], "{w:?}");
        assert!(w[5] > w[9], "{w:?}");
        // And the mirrored parameters weight large coalitions.
        let w = beta_weights(10, 1.0, 16.0);
        assert!(w[9] > w[0], "{w:?}");
    }

    #[test]
    fn beta_shapley_recovers_additive_weights() {
        let util = AdditiveUtility {
            weights: vec![1.0, 0.0, -1.0],
        };
        let phi = beta_shapley(&util, 1.0, 4.0, &McConfig::new(4000, 5));
        // Additive games: every semivalue equals the weights.
        assert!(close(&phi, &util.weights, 0.12), "{phi:?}");
    }

    #[test]
    fn banzhaf_msr_matches_exact() {
        let util = AdditiveUtility {
            weights: vec![1.5, -0.5, 0.0, 2.0],
        };
        let exact = exact_banzhaf(&util).unwrap();
        let msr = banzhaf_msr(&util, &McConfig::new(6000, 7));
        assert!(close(&msr, &exact, 0.15), "{msr:?} vs {exact:?}");
    }

    #[test]
    fn empty_game_and_zero_samples() {
        let util = AdditiveUtility { weights: vec![] };
        assert!(tmc_shapley(&util, &McConfig::new(10, 0)).is_empty());
        let util = AdditiveUtility { weights: vec![1.0] };
        assert_eq!(tmc_shapley(&util, &McConfig::new(0, 0)), vec![0.0]);
        assert_eq!(banzhaf_msr(&util, &McConfig::new(0, 0)), vec![0.0]);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((i + 1) as f64);
            assert!((lg - f64::ln(f)).abs() < 1e-9, "Γ({})", i + 1);
        }
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-9);
    }

    #[test]
    fn mc_estimators_are_seed_deterministic() {
        let util = AdditiveUtility {
            weights: vec![1.0, 2.0, 3.0],
        };
        let a = tmc_shapley(&util, &McConfig::new(50, 11));
        let b = tmc_shapley(&util, &McConfig::new(50, 11));
        assert_eq!(a, b);
        let c = banzhaf_msr(&util, &McConfig::new(50, 11));
        let d = banzhaf_msr(&util, &McConfig::new(50, 11));
        assert_eq!(c, d);
    }
}
