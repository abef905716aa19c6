//! Order statistics over measured samples, and the process's memory
//! high-water mark.

use crate::BoxError;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile for `q` in `(0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()?;
    Ok(kib / 1024.0)
}
