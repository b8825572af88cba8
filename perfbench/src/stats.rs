//! Order statistics for the reported figures.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that it would describe a handful of samples, not a
//! tail, and [`percentile`] refuses it.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The median of `values`, NaN when there are none (the run's metric-set
/// check then fails it).
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie above the rank, or
/// when `q` is outside `(0, 1)`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// The geometric mean of positive samples.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_tail_it_cannot_support() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples leaves 9 beyond it: refused.
        assert!(percentile(&v, 0.9).is_err());
        // p50 of 99 samples leaves 49 beyond it.
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.9), Ok(90.0));
        // A median needs 20 samples.
        assert!(percentile(&w[..19], 0.5).is_err());
        assert!(percentile(&w[..20], 0.5).is_ok());
        assert!(percentile(&w, 1.0).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn geomean_weighs_small_and_large_alike() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
