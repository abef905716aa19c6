#![deny(missing_docs)]
//! # nde-bench
//!
//! The experiment harness: one binary per figure of the paper (E1–E8 in
//! DESIGN.md) plus the ablation studies (A1–A6) and Criterion microbenches.
//! Binaries print tab-separated series suitable for plotting, preceded by a
//! human-readable narrative that mirrors the outputs shown in the paper's
//! figures.
//!
//! Every binary opens a root span with [`trace_root`], whose guard emits
//! the summary as `main` returns — so running any of them under
//! `NDE_TRACE=human` prints the span tree
//! and a metrics summary to stderr, and `NDE_TRACE=json` appends
//! machine-readable JSON-lines perf trajectories to `NDE_TRACE_FILE`
//! (default `nde_trace.jsonl`) — the reproducible source for the numbers
//! quoted in EXPERIMENTS.md. With `NDE_TRACE` unset the stdout output is
//! byte-identical to the untraced harness. See docs/OBSERVABILITY.md.

use nde_learners::dataset::ClassDataset;
use nde_learners::matrix::{sq_dist, Matrix};
use nde_learners::models::knn::{argmax, vote};
use nde_parallel::neighbor_order::k_nearest;
use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

pub mod perf;
pub mod quality;

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints one TSV row.
pub fn row<D: Display>(cells: &[D]) {
    let rendered: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
    println!("{}", rendered.join("\t"));
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// [`timed`], additionally recorded as an `nde-trace` span named `name`,
/// so the measured phase shows up in `NDE_TRACE` output alongside the
/// printed seconds.
pub fn timed_traced<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = nde_trace::span(name);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

/// Opens the root span every bench binary wraps its `main` in:
/// `let _trace = nde_bench::trace_root("fig2_iterative_cleaning");`.
/// When the returned guard drops (end of `main`), it closes the root span
/// and emits the `nde-trace` summary — span aggregates, counters, gauges,
/// histograms — to the active sink. Everything is a no-op with
/// `NDE_TRACE` unset or `off`.
pub fn trace_root(name: &'static str) -> TraceGuard {
    TraceGuard {
        root: Some(nde_trace::span(name)),
    }
}

/// RAII guard returned by [`trace_root`]; see there.
pub struct TraceGuard {
    root: Option<nde_trace::Span>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        self.root.take(); // close the root span before reporting
        nde_trace::report();
    }
}

/// Formats a float with 4 decimals (the harness's standard precision).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Marks the boundary between independent iterations (or sections) of a
/// bench binary: emits the accumulated `nde-trace` summary for the
/// section just finished, flushes it to the sink, then resets all
/// process-global trace state so the next section starts from zero.
/// Without this, counters and span aggregates bleed across sections and
/// per-section numbers in the trajectory are cumulative instead of
/// independent.
pub fn iteration_boundary() {
    nde_trace::report();
    nde_trace::flush();
    nde_trace::reset();
}

/// Minimal `--flag value` argument map for the report binaries (no
/// external parser available). Every flag must be one the binary knows,
/// so a typo or `--help` never falls through to a mode that writes files.
#[derive(Debug)]
pub struct Args(Vec<String>);

/// Why [`Args::parse`] rejected a command line.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h` was given.
    Help,
    /// A flag the binary does not know.
    Unknown(String),
}

impl Args {
    /// Parses `args` (the arguments after the program name). A token
    /// starting with `-` is a flag unless it is a number or a lone `-`;
    /// every flag must be in `known`. Other tokens are values and are not
    /// checked here.
    pub fn parse(args: Vec<String>, known: &[&str]) -> Result<Self, ArgsError> {
        let is_flag = |a: &str| a.len() > 1 && a.starts_with('-') && a.parse::<f64>().is_err();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ArgsError::Help);
        }
        match args
            .iter()
            .find(|a| is_flag(a) && !known.contains(&a.as_str()))
        {
            Some(flag) => Err(ArgsError::Unknown(flag.clone())),
            None => Ok(Args(args)),
        }
    }

    /// The process arguments, parsed against `known`. On `--help` or `-h`
    /// prints `usage` to stdout and returns exit code 0; on an unknown flag
    /// prints it with `usage` to stderr and returns exit code 2. The
    /// caller returns that code without doing anything else.
    pub fn from_env(usage: &str, known: &[&str]) -> Result<Self, ExitCode> {
        match Args::parse(std::env::args().skip(1).collect(), known) {
            Ok(args) => Ok(args),
            Err(ArgsError::Help) => {
                print!("{usage}");
                Err(ExitCode::SUCCESS)
            }
            Err(ArgsError::Unknown(flag)) => {
                eprint!("unknown flag {flag}\n{usage}");
                Err(ExitCode::from(2))
            }
        }
    }

    /// The value following `flag`, if any.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.nth_after(flag, 1)
    }

    /// The two values following `flag` (as in `--diff A B`), if present.
    pub fn two(&self, flag: &str) -> Option<(&str, &str)> {
        Some((self.nth_after(flag, 1)?, self.nth_after(flag, 2)?))
    }

    /// Whether `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn nth_after(&self, flag: &str, n: usize) -> Option<&str> {
        let pos = self.0.iter().position(|a| a == flag)?;
        self.0.get(pos + n).map(String::as_str)
    }
}

/// Reads the snapshot file at `path` and parses it with `parse`; errors
/// name the path.
pub fn load_snapshot<T>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&contents).map_err(|e| format!("{path}: {e}"))
}

/// Brute-force k-NN predictions for the rows of `x`: each row's `k`
/// nearest training rows by a full [`k_nearest`] scan, then the model's
/// uniform [`vote`]. This is the oracle the k-d-tree-backed
/// `KnnClassifier` must match bit for bit, and the baseline its query
/// speedup is measured against, so it fans out over `NDE_THREADS` like
/// `predict_batch` does.
pub fn brute_knn_predict(train: &ClassDataset, x: &Matrix, k: usize) -> Vec<usize> {
    nde_parallel::par_map_chunks(x.nrows(), 8, |range| {
        range
            .map(|r| {
                let neighbors = k_nearest(train.len(), k, |i| sq_dist(train.x.row(i), x.row(r)));
                argmax(&vote(
                    neighbors.into_iter().map(|(_, i)| i),
                    &train.y,
                    train.n_classes,
                ))
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_and_formatting() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(f4(0.123456), "0.1235");
    }

    fn parse(args: &[&str]) -> Result<Args, ArgsError> {
        let args = args.iter().map(|a| a.to_string()).collect();
        Args::parse(args, &["--check", "--out", "--time-tol"])
    }

    #[test]
    fn args_accept_known_flags_and_their_values() {
        let args = parse(&["--check", "B.json", "--time-tol", "-1.5"]).unwrap();
        assert_eq!(args.get("--check"), Some("B.json"));
        assert_eq!(args.get("--time-tol"), Some("-1.5"));
        assert!(!args.has("--out"));
        assert!(parse(&[]).is_ok());
        assert!(parse(&["--out", "-"]).is_ok());
    }

    #[test]
    fn args_reject_help_and_unknown_flags() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgsError::Help);
        assert_eq!(parse(&["--check", "B", "-h"]).unwrap_err(), ArgsError::Help);
        assert_eq!(
            parse(&["--check", "B", "--bogus"]).unwrap_err(),
            ArgsError::Unknown("--bogus".into())
        );
        assert_eq!(parse(&["-x"]).unwrap_err(), ArgsError::Unknown("-x".into()));
        // A help request wins over an unknown flag.
        assert_eq!(parse(&["--bogus", "--help"]).unwrap_err(), ArgsError::Help);
    }

    #[test]
    fn brute_knn_predict_matches_the_fitted_model() {
        use nde_learners::{KnnClassifier, Learner};
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![((i * 7) % 31) as f64, ((i * 13) % 17) as f64])
            .collect();
        let y: Vec<usize> = (0..60).map(|i| (i / 3) % 3).collect();
        let train = ClassDataset::new(Matrix::from_rows(&rows).unwrap(), y, 3).unwrap();
        let queries = Matrix::from_rows(
            &(0..40)
                .map(|q| vec![q as f64 * 0.7, (q * 3 % 15) as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for k in [1, 4, 60] {
            let model = KnnClassifier::new(k).fit(&train).unwrap();
            assert_eq!(
                brute_knn_predict(&train, &queries, k),
                model.predict_batch(&queries)
            );
        }
    }
}
