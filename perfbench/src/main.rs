//! perfbench: the end-to-end benchmark of the navigating-data-errors
//! workspace.
//!
//! ```text
//! perfbench --workload <identify|debug|clean|learn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds one workload's inputs from the seed, measures it for the
//! given number of seconds, checks its outputs, and prints one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` tracing is off and the metrics are the end-to-end ones. With
//! `--trace 1` untraced and traced passes alternate and the metrics are the
//! per-layer ones, aggregated from the trace. README.md describes the
//! workloads and every metric.

mod clean;
mod debug;
mod identify;
mod layers;
mod learn;
mod reference;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// An end-to-end run spreads its set-ups over the whole run, so that they
/// meet the host in the same load as the passes: before each pass it sets
/// up again until `SETUP_SLICE_S` seconds are spent (at least once), and it
/// goes on past the run time until it has set up `SETUP_MIN_REPEATS` times.
/// `setup_s` is the median. Short set-ups thus get many samples and long
/// ones a few.
const SETUP_SLICE_S: f64 = 0.15;
const SETUP_MIN_REPEATS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <identify|debug|clean|learn> --seed <n> --seconds <s> --trace <0|1>";

/// The error of a failed call inside a workload.
pub type BoxError = Box<dyn std::error::Error>;

/// One seeded workload of the benchmark.
pub trait Workload: Sized {
    /// Datasets per run, set up from sub-seeds of the run's seed; pass `i`
    /// runs on dataset `i mod DATASETS`, so a run's figures average over
    /// several draws of the inputs.
    const DATASETS: u64 = 1;

    /// Generates, injects and encodes the inputs: what `setup_s` times.
    fn setup(seed: u64) -> Result<Self, BoxError>;

    /// One measured pass. `index` seeds the pass's request stream, so the
    /// untraced and the traced pass of a pair do the same work.
    fn pass(&mut self, index: u64, out: &mut PassOut) -> Result<(), BoxError>;

    /// Calls that only the per-layer metrics read. A traced run makes them
    /// after each traced pass, in a root span of their own, so they add
    /// nothing to the pass's layer times.
    fn reference(&mut self) -> Result<(), BoxError> {
        Ok(())
    }

    /// Correctness checks, run after the timed phase.
    fn check(&self, checks: &mut Checks) -> Result<(), BoxError>;
}

/// What one pass measured.
#[derive(Default)]
pub struct PassOut {
    /// Rows of work done, as `rows_per_s` defines them for the workload.
    pub rows: f64,
    /// Seconds those rows took.
    pub work_s: f64,
    /// Latency of every request the pass served, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The workload's `result_quality`.
    pub quality: f64,
    /// Requests sent.
    pub calls: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Reference-kernel times taken inside the pass, by a workload whose
    /// pass is long enough for the host's speed to change within it.
    pub reference_s: Vec<f64>,
    /// Result figures reported with the per-layer metrics.
    pub figures: Vec<(&'static str, f64)>,
}

/// Tally of correctness checks.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failed one is named on stderr.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Runs `f` inside the trace span `name`: the benchmark's own boundary
/// around a call into one layer (inert while tracing is off).
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = nde_trace::span(name);
    f()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// A finished run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Calls and errors summed over the passes of a run.
#[derive(Default)]
struct Tally {
    calls: u64,
    errors: u64,
}

impl Tally {
    /// Counts one pass (itself a call) plus the requests it sent; returns
    /// whether the pass succeeded.
    fn add(&mut self, result: Result<(), BoxError>, out: &PassOut) -> bool {
        self.calls += 1 + out.calls;
        self.errors += out.errors;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.errors += 1;
                eprintln!("perfbench: pass failed: {e}");
                false
            }
        }
    }
}

/// The seed of dataset `index mod W::DATASETS` of a run with `seed`.
/// Runs with different seeds draw disjoint datasets.
fn dataset_seed<W: Workload>(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(W::DATASETS)
        .wrapping_add(index % W::DATASETS)
}

/// One set-up slice and the pass that follows it.
struct Cycle {
    setup_s: Vec<f64>,
    pass: Option<PassOut>,
}

/// End-to-end run, tracing off throughout. The run times the reference
/// kernel before every cycle and once after the last, and scales each
/// cycle's times by the mean of the kernel times on either side of it and
/// inside its pass.
fn run_untraced<W: Workload>(args: &Args) -> Result<Outcome, BoxError> {
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut reference_s = Vec::new();
    let mut n_setups = 0;
    let mut workload = None;
    let mut tally = Tally::default();
    let start = Instant::now();
    for index in 0.. {
        if index > 0 && start.elapsed() >= args.seconds && n_setups >= SETUP_MIN_REPEATS {
            break;
        }
        reference_s.push(reference::kernel_s());
        let mut setup_s = Vec::new();
        let slice = Instant::now();
        let workload = loop {
            drop(workload.take()); // free the last inputs before building the next
            let began = Instant::now();
            let built = workload.insert(W::setup(dataset_seed::<W>(args.seed, index))?);
            setup_s.push(began.elapsed().as_secs_f64());
            if slice.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break built;
            }
        };
        n_setups += setup_s.len();
        let mut out = PassOut::default();
        let result = workload.pass(index, &mut out);
        let pass = tally.add(result, &out).then_some(out);
        cycles.push(Cycle { setup_s, pass });
    }
    reference_s.push(reference::kernel_s());
    // Before the checks, which allocate what the timed passes never do.
    let peak_rss_mib = stats::peak_rss_mib()?;
    let mut checks = Checks::default();
    workload
        .expect("the loop sets up before every pass")
        .check(&mut checks)?;

    let (mut setup_s, mut throughput, mut latencies, mut quality) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (cycle, around) in cycles.iter().zip(reference_s.windows(2)) {
        let inside = cycle.pass.as_ref().map_or(&[][..], |p| &p.reference_s[..]);
        let kernel_s = (around.iter().sum::<f64>() + inside.iter().sum::<f64>())
            / (around.len() + inside.len()) as f64;
        let scale = reference::NOMINAL_S / kernel_s;
        setup_s.extend(cycle.setup_s.iter().map(|s| s * scale));
        if let Some(pass) = &cycle.pass {
            throughput.push(pass.rows / (pass.work_s * scale));
            latencies.extend(pass.latencies_ms.iter().map(|l| l * scale));
            quality.push(pass.quality);
        }
    }
    eprintln!(
        "perfbench: {} passes, {} requests, set-ups {setup_s:?} s, reference kernel {reference_s:?} s",
        throughput.len(),
        latencies.len()
    );
    Ok(Outcome {
        attempted: checks.attempted + tally.calls,
        failed: checks.failed + tally.errors,
        metrics: vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("rows_per_s", stats::median(&throughput), "rows/s"),
            ("query_p50_ms", stats::percentile(&latencies, 0.50), "ms"),
            ("query_p95_ms", stats::percentile(&latencies, 0.95), "ms"),
            ("result_quality", stats::median(&quality), "ratio"),
            ("peak_rss_mb", peak_rss_mib, "MiB"),
        ],
    })
}

/// Where a traced run writes its trace: inside the build directory.
fn trace_path(workload: &str) -> Result<PathBuf, BoxError> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    );
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("perfbench-trace-{workload}.jsonl"));
    if path.exists() {
        std::fs::remove_file(&path)?;
    }
    Ok(path)
}

/// Per-layer run: an untraced and a traced pass alternate until the time
/// is up, each traced pass followed by the workload's reference calls. The
/// trace gives the per-layer metrics; the two passes' time difference is
/// the tracing overhead. The program's `parallel.imbalance` gauge holds only
/// the last fan-out's max/mean worker busy ratio, so it is read after each
/// traced pass and reported as the median over the passes with a fan-out.
/// Every dataset is set up once, up front, and the checks read the one the
/// last pass ran on.
fn run_traced<W: Workload>(args: &Args) -> Result<Outcome, BoxError> {
    let path = trace_path(&args.workload)?;
    let tracing = |on: bool| {
        if on {
            nde_trace::configure(nde_trace::Sink::Json, Some(&path));
        } else {
            nde_trace::configure(nde_trace::Sink::Off, None);
        }
    };
    nde_trace::reset();
    tracing(true);
    let setup = (0..W::DATASETS)
        .map(|index| {
            in_span("bench.setup", || {
                W::setup(dataset_seed::<W>(args.seed, index))
            })
        })
        .collect::<Result<Vec<W>, _>>();
    tracing(false);
    let mut workloads = setup?;
    let mut last = 0;

    let mut tally = Tally::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut figures = Vec::new();
    let mut imbalance = Vec::new();
    let gauge = nde_trace::gauge("parallel.imbalance");
    let start = Instant::now();
    for index in 0.. {
        if index > 0 && start.elapsed() >= args.seconds {
            break;
        }
        last = (index % W::DATASETS) as usize;
        let workload = &mut workloads[last];
        let mut out = PassOut::default();
        let began = Instant::now();
        let result = workload.pass(index, &mut out);
        untraced_s += began.elapsed().as_secs_f64();
        tally.add(result, &out);

        let mut out = PassOut::default();
        tracing(true);
        gauge.set(0.0);
        let began = Instant::now();
        let result = in_span("bench.pass", || workload.pass(index, &mut out));
        traced_s += began.elapsed().as_secs_f64();
        if gauge.value() > 0.0 {
            imbalance.push(gauge.value());
        }
        let reference = in_span("bench.reference", || workload.reference());
        tracing(false);
        if tally.add(result, &out) {
            figures = out.figures;
        }
        tally.add(reference, &PassOut::default());
    }
    let mut checks = Checks::default();
    workloads[last].check(&mut checks)?;

    tracing(true);
    nde_trace::report();
    tracing(false);
    let data = nde_trace::analyze::parse_jsonl_file(&path)?;
    let overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;
    Ok(Outcome {
        attempted: checks.attempted + tally.calls,
        failed: checks.failed + tally.errors,
        metrics: layers::Layers::new(&data).metrics(
            overhead_pct,
            stats::median(&imbalance),
            &figures,
        ),
    })
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, BoxError> {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark switches tracing and profiling itself; the environment
    // must not turn them on behind its back.
    nde_trace::configure(nde_trace::Sink::Off, None);
    nde_quality::configure_quality(nde_quality::QualityMode::Off);
    let outcome = match args.workload.as_str() {
        "identify" => run::<identify::Identify>(&args),
        "debug" => run::<debug::Debug>(&args),
        "clean" => run::<clean::Clean>(&args),
        "learn" => run::<learn::Learn>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value, _) in &mut outcome.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a finite number");
            *value = 0.0;
            outcome.attempted += 1;
            outcome.failed += 1;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload={} seed={} trace={} NDE_THREADS={} nproc={cores}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nde_parallel::num_threads()
    );
    println!("{}", outcome.to_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
