#![deny(missing_docs)]
//! A dependency-free stand-in for the subset of `criterion` used by this
//! workspace, so `cargo bench` (and `cargo test`, which compiles and runs
//! `harness = false` bench targets with `--test`) works in fully offline
//! builds.
//!
//! Each benchmark runs a short warm-up, then a bounded measurement window
//! (~0.3 s by default), and reports the median iteration time. There are
//! no statistical comparisons, plots, or HTML reports. When invoked with
//! `--test` (what `cargo test` passes to bench binaries) every closure runs
//! exactly once, keeping the tier-1 suite fast.

use std::time::{Duration, Instant};

/// Re-exported for API compatibility; inlined to `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", function_name.into()),
        }
    }

    /// Parameter-only form (the group name provides the function part).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Passed to benchmark closures; `iter` runs and times the payload.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    test_mode: bool,
    measure_for: Duration,
}

impl Bencher<'_> {
    /// Times `routine`, collecting per-iteration samples until the
    /// measurement window closes (or exactly once in `--test` mode).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warm-up: one untimed call (pays one-time costs like lazy init).
        black_box(routine());
        let window = Instant::now();
        loop {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if window.elapsed() >= self.measure_for && !self.samples.is_empty() {
                break;
            }
        }
    }
}

/// Top-level driver handed to each `criterion_group!` function.
pub struct Criterion {
    test_mode: bool,
    /// Positional filters; a benchmark runs when its full name contains
    /// any of them (every benchmark runs when there are none).
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let (test_mode, filters) = parse_args(std::env::args().skip(1));
        Criterion { test_mode, filters }
    }
}

/// Splits bench-binary arguments into the `--test` flag and the
/// positional filters; other flags are ignored.
fn parse_args(args: impl IntoIterator<Item = String>) -> (bool, Vec<String>) {
    let mut test_mode = false;
    let mut filters = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--test" => test_mode = true,
            a if a.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    (test_mode, filters)
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs a standalone benchmark (its own single-entry group).
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(&mut self, name: &str, f: F) -> &mut Self {
        let group = self.benchmark_group(name);
        group.run(name.into(), f);
        group.finish();
        self
    }

    fn run_one(&self, full_name: &str, mut f: impl FnMut(&mut Bencher<'_>)) {
        if !self.filters.is_empty() && !self.filters.iter().any(|f| full_name.contains(f.as_str()))
        {
            return;
        }
        let mut samples = Vec::new();
        let mut bencher = Bencher {
            samples: &mut samples,
            test_mode: self.test_mode,
            measure_for: Duration::from_millis(300),
        };
        f(&mut bencher);
        if self.test_mode {
            println!("{full_name}: ok (test mode)");
            return;
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        println!(
            "{full_name}: median {median:?} over {} iterations",
            samples.len()
        );
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the offline shim bounds runs by wall
    /// clock rather than sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; the measurement window stays bounded.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.run(id.into(), f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        self.run(id.into(), |b| f(b, input));
        self
    }

    /// Ends the group (a no-op here; present for API compatibility).
    pub fn finish(self) {}

    fn run(&self, id: BenchmarkId, f: impl FnMut(&mut Bencher<'_>)) {
        let full_name = format!("{}/{}", self.name, id.label);
        self.criterion.run_one(&full_name, f);
    }
}

/// Binds benchmark functions into a runnable group, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the given groups, as in criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::from_parameter(200).label, "200");
        assert_eq!(BenchmarkId::new("f", 8).label, "f/8");
        assert_eq!(BenchmarkId::from("x").label, "x");
    }

    #[test]
    fn every_positional_filter_is_kept() {
        let args = |list: &[&str]| parse_args(list.iter().map(|a| a.to_string()));
        assert_eq!(
            args(&["--bench", "whatif/", "join/"]),
            (false, vec!["whatif/".to_owned(), "join/".to_owned()])
        );
        assert_eq!(args(&["--test"]), (true, vec![]));
        assert_eq!(
            args(&["--bench", "--nocapture", "quality/"]).1,
            ["quality/"]
        );
    }

    #[test]
    fn a_benchmark_runs_when_any_filter_matches() {
        let ran = |filters: &[&str], name: &str| {
            let criterion = Criterion {
                test_mode: true,
                filters: filters.iter().map(|f| f.to_string()).collect(),
            };
            let mut ran = false;
            criterion.run_one(name, |b| b.iter(|| ran = true));
            ran
        };
        assert!(ran(&[], "join/cold"));
        assert!(ran(&["whatif/", "join/"], "whatif/insert"));
        assert!(ran(&["whatif/", "join/"], "join/cold"));
        assert!(!ran(&["whatif/", "join/"], "quality/profile"));
    }

    #[test]
    fn bencher_runs_payload() {
        let mut count = 0u32;
        let mut samples = Vec::new();
        let mut b = Bencher {
            samples: &mut samples,
            test_mode: true,
            measure_for: Duration::from_millis(1),
        };
        b.iter(|| count += 1);
        assert_eq!(count, 1);
        assert!(samples.is_empty());
    }

    #[test]
    fn measured_mode_collects_samples() {
        let mut samples = Vec::new();
        let mut b = Bencher {
            samples: &mut samples,
            test_mode: false,
            measure_for: Duration::from_millis(5),
        };
        b.iter(|| std::hint::black_box(3 * 7));
        assert!(!samples.is_empty());
    }
}
