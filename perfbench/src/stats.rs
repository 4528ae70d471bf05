//! Percentiles that refuse thin tails, and the backlog test of a
//! capacity-ladder rung.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`.
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the
/// percentile, so a p99 needs at least 1000 samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile out of range: {p}");
    let n = samples.len();
    let beyond = (n as f64 * (1.0 - p)).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it, {n} samples give {beyond}",
            p * 100.0,
            MIN_BEYOND
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// Percentile `p` of each of the largest number of equal consecutive
/// windows of `samples` (in time order) that still gives every window
/// ten samples beyond `p`, and the median over the windows. A stall of
/// the shared host lands in one window, so it moves this less than a
/// percentile over the whole phase. Returns the value and the window
/// count.
pub fn windowed_percentile(samples: &[f64], p: f64) -> Result<(f64, usize), String> {
    let per_window = (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize;
    let windows = (samples.len() / per_window).max(1);
    let size = samples.len() / windows;
    let values = samples
        .chunks(size)
        .take(windows)
        .map(|w| percentile(w, p))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok((median(&values), windows))
}

/// Median of a non-empty slice (mean of the middle two for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// True when a rung's latencies climb over the rung: the median latency
/// of requests due in its last fifth exceeds twice that of its first
/// fifth plus `slack_ms`. Below capacity the two agree; past it the
/// queue, and with it each request's wait, grows for as long as the
/// rung lasts.
///
/// `trace` holds `(due_s, latency_ms)` per answered request.
pub fn backlog_grows(trace: &[(f64, f64)], slack_ms: f64) -> bool {
    if trace.len() < 10 {
        return true;
    }
    let mut by_due = trace.to_vec();
    by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
    let fifth = by_due.len() / 5;
    let first: Vec<f64> = by_due[..fifth].iter().map(|s| s.1).collect();
    let last: Vec<f64> = by_due[by_due.len() - fifth..].iter().map(|s| s.1).collect();
    median(&last) > 2.0 * median(&first) + slack_ms
}
