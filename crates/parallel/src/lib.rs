#![deny(missing_docs)]
//! Deterministic parallel execution layer (std-only).
//!
//! Three pieces, shared by the Identify/Debug/Learn hot paths:
//!
//! 1. **Fixed-chunk fan-out** ([`par_map_chunks`], [`par_reduce`],
//!    [`par_for_each_mut`]): work is split into chunks whose boundaries
//!    depend only on the input length — never on the worker count — and
//!    reductions fold chunk results in chunk order. Randomized chunks seed
//!    from [`chunk_seed`]. Together these make every result bit-identical
//!    for 1, 2, or N threads, so parallelism can be turned up without
//!    perturbing any seed-pinned experiment.
//! 2. **[`NeighborCache`]**: per-validation-point sorted neighbor lists
//!    for k-NN utilities and votes — full rankings, or only the `k`
//!    nearest when an index (k-d tree queries) fills them without the full
//!    distance matrix. Repairing a single training row is list surgery
//!    ([`NeighborCache::update_row`]) instead of a rebuild, so the cleaning
//!    loop's re-score drops from O(m·n·(d + log n)) to O(m·n).
//! 3. **[`neighbor_order`]**: the one `(distance, index)` order every
//!    exact k-NN path ranks by, with [`neighbor_order::rank_all`] for full
//!    orderings and the bounded [`neighbor_order::KNearest`] selector for
//!    k-prefixes (k-d-tree search, the brute-force oracle).
//!
//! Worker count comes from [`num_threads`]: the `NDE_THREADS` environment
//! variable when set, else `std::thread::available_parallelism()`.
//!
//! # Observability
//!
//! When tracing is on (`NDE_TRACE=human|json`, see the `nde-trace` crate
//! and `docs/OBSERVABILITY.md`), every multi-worker fan-out records its
//! per-worker busy time into the `parallel.worker_busy_us` histogram, the
//! max/mean busy ratio of the most recent fan-out into the
//! `parallel.imbalance` gauge, and bumps the `parallel.fan_outs` counter.
//! [`NeighborCache`] counts full-ranking builds (`neighbor_cache.miss`,
//! under the `neighbor_cache.build` span) and repairs
//! (`neighbor_cache.repair`), and top-k builds
//! (`neighbor_cache.topk_build`, under `neighbor_cache.build_topk`),
//! repairs (`neighbor_cache.topk_repair`) and the lists a repair had to
//! re-query (`neighbor_cache.topk_requery`).
//! All instrumentation is observational: results are bit-identical with
//! tracing on or off.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

mod neighbor_cache;
pub mod neighbor_order;

pub use neighbor_cache::NeighborCache;

/// Worker count for all fan-out primitives: `NDE_THREADS` when set to a
/// positive integer, otherwise `std::thread::available_parallelism()`
/// (falling back to 1 if that is unavailable). Read on every call so tests
/// can vary it; it bounds *scheduling* only — results never depend on it.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("NDE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Mixes a base seed with a chunk index (splitmix64 finalizer) so each
/// chunk gets an independent, reproducible RNG stream. Chunk indices are a
/// function of input length only, so the derived seeds — and hence any
/// randomized computation — are identical for every thread count.
pub fn chunk_seed(base: u64, chunk: u64) -> u64 {
    let mut z = base ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chunk_range(chunk: usize, chunk_len: usize, len: usize) -> Range<usize> {
    let start = chunk * chunk_len;
    start..((start + chunk_len).min(len))
}

/// Applies `f` to fixed-size index chunks of `0..len` and returns the
/// results **in chunk order**. Chunk boundaries are
/// `[0, chunk_len, 2·chunk_len, …]` regardless of worker count, and the
/// returned `Vec` is ordered by chunk index, so the output is a pure
/// function of `(len, chunk_len, f)`. Workers claim chunks through an
/// atomic counter (work stealing), so uneven chunks still balance.
pub fn par_map_chunks<R, F>(len: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    par_map_chunks_with(num_threads(), len, chunk_len, f)
}

/// [`par_map_chunks`] with an explicit worker cap instead of
/// [`num_threads`]. The cap bounds *scheduling* only — the chunk
/// decomposition and output are identical for every `workers` value.
pub fn par_map_chunks_with<R, F>(workers: usize, len: usize, chunk_len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = len.div_ceil(chunk_len);
    if n_chunks == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n_chunks);
    if workers <= 1 {
        // Same chunk decomposition as the parallel path: f sees identical
        // ranges, so per-chunk state (RNG streams, partial sums) matches.
        return (0..n_chunks)
            .map(|c| f(chunk_range(c, chunk_len, len)))
            .collect();
    }

    // Per-worker busy time is only measured when tracing is on; the off
    // path takes no clock readings at all.
    let trace_on = nde_trace::enabled();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    let mut busy: Vec<Duration> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    let mut worker_busy = Duration::ZERO;
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        if trace_on {
                            let t0 = Instant::now();
                            produced.push((c, f(chunk_range(c, chunk_len, len))));
                            worker_busy += t0.elapsed();
                        } else {
                            produced.push((c, f(chunk_range(c, chunk_len, len))));
                        }
                    }
                    (produced, worker_busy)
                })
            })
            .collect();
        for handle in handles {
            let (produced, worker_busy) = handle.join().expect("parallel worker panicked");
            for (c, r) in produced {
                slots[c] = Some(r);
            }
            busy.push(worker_busy);
        }
    });
    if trace_on {
        record_fan_out(&busy, n_chunks);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk is claimed exactly once"))
        .collect()
}

/// Folds one fan-out's per-worker busy times into the trace layer:
/// `parallel.worker_busy_us` (histogram), `parallel.imbalance` (gauge,
/// max/mean busy ratio — 1.0 is a perfectly balanced fan-out), and the
/// `parallel.fan_outs` counter. Only called when tracing is enabled.
fn record_fan_out(busy: &[Duration], n_chunks: usize) {
    let histogram = nde_trace::histogram("parallel.worker_busy_us");
    let mut max_us = 0u64;
    let mut sum_us = 0u64;
    for b in busy {
        let us = b.as_micros() as u64;
        histogram.record(us);
        max_us = max_us.max(us);
        sum_us += us;
    }
    if !busy.is_empty() && sum_us > 0 {
        let mean = sum_us as f64 / busy.len() as f64;
        nde_trace::gauge("parallel.imbalance").set(max_us as f64 / mean);
    }
    nde_trace::counter("parallel.fan_outs").incr();
    nde_trace::counter("parallel.chunks").add(n_chunks as u64);
}

/// Fused map + ordered fold: chunk results from [`par_map_chunks`] are
/// folded **in chunk index order**, so non-associative accumulations
/// (floating-point sums included) come out bit-identical for any thread
/// count.
pub fn par_reduce<A, R, F, G>(len: usize, chunk_len: usize, init: A, map: F, fold: G) -> A
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    par_map_chunks(len, chunk_len, map)
        .into_iter()
        .fold(init, fold)
}

/// Applies `f(index, &mut item)` to every element of `items` in parallel.
/// Elements are updated independently (each worker owns disjoint chunk
/// slices), so the final state never depends on scheduling.
pub fn par_for_each_mut<T, F>(items: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = items.len();
    let n_chunks = len.div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }

    // Static round-robin assignment of chunk slices to workers. Each item
    // is touched by exactly one worker, so this is deterministic no matter
    // how the threads interleave.
    let trace_on = nde_trace::enabled();
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (c, slice) in items.chunks_mut(chunk_len).enumerate() {
        per_worker[c % workers].push((c * chunk_len, slice));
    }
    let mut busy: Vec<Duration> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|assignment| {
                let f = &f;
                scope.spawn(move || {
                    let start = trace_on.then(Instant::now);
                    for (base, slice) in assignment {
                        for (offset, item) in slice.iter_mut().enumerate() {
                            f(base + offset, item);
                        }
                    }
                    start.map_or(Duration::ZERO, |t0| t0.elapsed())
                })
            })
            .collect();
        for handle in handles {
            busy.push(handle.join().expect("parallel worker panicked"));
        }
    });
    if trace_on {
        record_fan_out(&busy, n_chunks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `body` with `NDE_THREADS = n`, then restores the caller's
    /// value. Unit tests run concurrently, so the lock keeps one test's
    /// setting from leaking into another's body.
    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        static ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
        let before = std::env::var("NDE_THREADS");
        std::env::set_var("NDE_THREADS", n.to_string());
        let out = body();
        match before {
            Ok(v) => std::env::set_var("NDE_THREADS", v),
            Err(_) => std::env::remove_var("NDE_THREADS"),
        }
        out
    }

    #[test]
    fn num_threads_honors_env() {
        assert_eq!(with_threads(3, num_threads), 3);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn map_chunks_is_ordered_and_complete() {
        for &threads in &[1usize, 2, 5, 16] {
            let out = with_threads(threads, || {
                par_map_chunks(103, 10, |r| r.collect::<Vec<usize>>())
            });
            assert_eq!(out.len(), 11);
            let flat: Vec<usize> = out.into_iter().flatten().collect();
            assert_eq!(flat, (0..103).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reduce_is_bit_identical_across_thread_counts() {
        // A deliberately ill-conditioned float sum: any reassociation
        // changes the low bits, so bit equality proves ordered folding.
        let values: Vec<f64> = (0..1000)
            .map(|i| {
                ((i * 2654435761u64 as usize) as f64).sqrt() * if i % 3 == 0 { 1e-9 } else { 1e6 }
            })
            .collect();
        let sum_with = |threads: usize| {
            with_threads(threads, || {
                par_reduce(
                    values.len(),
                    7,
                    0.0f64,
                    |r| r.map(|i| values[i]).fold(0.0f64, |a, b| a + b),
                    |acc, part| acc + part,
                )
            })
        };
        let reference = sum_with(1);
        for &threads in &[2usize, 3, 8] {
            assert_eq!(sum_with(threads).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn chunk_seeds_are_stable_and_distinct() {
        assert_eq!(chunk_seed(42, 7), chunk_seed(42, 7));
        let seeds: std::collections::HashSet<u64> = (0..100).map(|c| chunk_seed(42, c)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(chunk_seed(1, 0), chunk_seed(2, 0));
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        for &threads in &[1usize, 4] {
            let mut items: Vec<usize> = vec![0; 97];
            with_threads(threads, || {
                par_for_each_mut(&mut items, 8, |i, item| *item += i + 1);
            });
            assert!(items.iter().enumerate().all(|(i, &v)| v == i + 1));
        }
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(par_map_chunks(0, 4, |r| r.len()).is_empty());
        let mut empty: [u8; 0] = [];
        par_for_each_mut(&mut empty, 4, |_, _| {});
    }
}
