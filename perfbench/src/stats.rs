//! Order statistics for run-level timings.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile (the p90 of fewer than 100 cells is refused).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, refused
/// unless at least [`MIN_TAIL_SAMPLES`] samples lie strictly beyond
/// the reported rank.
///
/// # Errors
/// Too few samples for the requested tail.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it; need {MIN_TAIL_SAMPLES}",
            p * 100.0
        ));
    }
    Ok(v[rank - 1])
}
