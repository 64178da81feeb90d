//! Order statistics on small samples.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) by the nearest-rank method; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median:
/// the round-to-round spread `compare` holds a wall-clock bound against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// Mean of the smallest quarter of `values` (at least one value).
///
/// For host times: interference from the sandbox's host only ever makes a
/// round slower, so the fast quarter estimates the undisturbed machine.
/// During a noisy spell the median round time of `rollback_mix` moved 39 %
/// between 20 s windows of one process, this figure 13 %; on a quiet machine
/// the two agree within their spread.
pub fn fast_quarter_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let k = (v.len() / 4).max(1).min(v.len());
    ratio(v[..k].iter().sum(), k as f64)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0, 4.0]), (3.0 - 1.0) / 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(fast_quarter_mean(&v), 1.0);
        assert_eq!(
            fast_quarter_mean(&[9.0, 1.0, 3.0, 8.0, 7.0, 6.0, 5.0, 4.0]),
            2.0
        );
        assert_eq!(fast_quarter_mean(&[]), 0.0);
    }
}
