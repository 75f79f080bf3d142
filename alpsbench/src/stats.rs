//! Order statistics over samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Estimated probability that a quantum is missed, by Laplace's rule of
/// succession: `(missed + 1) / (due + 2)`. Unlike the raw ratio it is
/// never 0, so a run that missed nothing still gives a finite base for
/// the relative bound, and it converges to `missed / due` as `due` grows.
pub fn miss_rate(missed: u64, due: u64) -> f64 {
    (missed + 1) as f64 / (due + 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(miss_rate(0, 98), 0.01);
        assert_eq!(miss_rate(9, 998), 0.01);
    }
}
