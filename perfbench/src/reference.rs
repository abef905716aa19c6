//! The reference kernel that end-to-end times are scaled by.
//!
//! On a shared host the speed of cache- and allocation-bound code drifts
//! by up to about 1.5x over phases of seconds to minutes, while the
//! program's code stays the same. This kernel belongs to the benchmark and
//! never changes with the program. It clones small `BTreeMap<usize, f64>`
//! and merges entries into them, the kind of work Zorro's affine forms do,
//! so it slows and speeds up with the host much as the workloads do. An
//! end-to-end run scales each cycle's times by `NOMINAL_S / kernel time`,
//! with the kernel timed right before and right after the cycle (and, for
//! a long pass, inside it). A change
//! to the program moves the scaled times as much as the raw ones; a change
//! in the host's speed moves them far less.

use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's typical time on a 2-vCPU Xeon VM at 2.0 GHz, so that
/// scaled times read close to wall times there.
pub const NOMINAL_S: f64 = 0.05;

const FORMS: usize = 64;
const TERMS: usize = 40;
const ROUNDS: usize = 40;

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut forms: Vec<BTreeMap<usize, f64>> = (0..FORMS)
        .map(|i| {
            (0..TERMS)
                .map(|j| (j * 7 + i, (i * j) as f64 * 0.5))
                .collect()
        })
        .collect();
    for round in 0..ROUNDS {
        for i in 0..FORMS {
            let mut next = forms[i].clone();
            for (&symbol, &coeff) in &forms[(i + round) % FORMS] {
                *next.entry(symbol + round % 3).or_insert(0.0) += coeff * 0.25;
            }
            forms[i] = next;
        }
    }
    std::hint::black_box(&forms);
    start.elapsed().as_secs_f64()
}
