//! Order statistics over timing samples.

/// Percentiles offered as a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank style linear-interpolated quantile of sorted samples
/// (`q` in `0..=1`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its value; `None` below twenty samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len() as f64;
    let pct = TAIL_LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)?;
    Some((pct, quantile_sorted(&sorted(samples), pct / 100.0)))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let (pct, value) = tail(&samples).unwrap();
        assert_eq!(pct, 95.0);
        assert!(value > 189.0 && value < 191.0);
        assert!(tail(&samples[..19]).is_none());
        assert_eq!(tail(&samples[..20]).unwrap().0, 50.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
