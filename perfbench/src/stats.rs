//! Order statistics and process measurements.

use std::time::Duration;

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: usize) -> Option<usize> {
    (n > 0).then(|| (p * n).div_ceil(100).clamp(1, n))
}

/// Nearest-rank percentile of an ascending sample: the `ceil(p/100 · N)`-th
/// smallest value. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: usize) -> Option<f64> {
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// Samples above the nearest-rank position of the `p`-th percentile among
/// `n`; a tail percentile is reported only with [`MIN_BEYOND`] of them.
pub fn beyond(n: usize, p: usize) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// Windows [`windowed`] splits `n` samples into for the `p`-th
/// percentile: as many as leave [`MIN_BEYOND`] samples beyond `p` in each,
/// at least one and at most nine.
pub fn windows(n: usize, p: usize) -> usize {
    let per_window = (MIN_BEYOND * 100).div_ceil(100 - p.min(99));
    (n / per_window).clamp(1, 9)
}

/// The `p`-th percentile of a time-ordered sample, taken in each of
/// [`windows`] consecutive windows, and the median of those. A host stall
/// that hits one window moves only that window's value, while load the
/// run puts on itself throughout, such as a concurrent writer, shows in
/// every window and so in the result. `None` for an empty sample.
pub fn windowed(xs: &[f64], p: usize) -> Option<f64> {
    let (n, w) = (xs.len(), windows(xs.len(), p));
    let per: Vec<f64> = (0..w)
        .filter_map(|i| percentile(&sorted(&xs[i * n / w..(i + 1) * n / w]), p))
        .collect();
    median(&per)
}

/// Nearest-rank median of an unordered sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(&sorted(xs), 50)
}

/// An ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), when the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
