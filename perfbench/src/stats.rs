//! Order statistics over measured samples.

/// The `q` quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated
/// between the two closest ranks, so a value keeps all its digits
/// instead of snapping to one sample. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    if sorted.len() == 1 || q <= 0.0 {
        return Some(first);
    }
    if q >= 1.0 {
        return Some(last);
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = (lo + 1).min(sorted.len() - 1);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts `values` in place and returns their median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        // rank 0.99 * 3 = 2.97 -> 30 + 0.97 * 10
        let p99 = percentile(&v, 0.99).unwrap();
        assert!((p99 - 39.7).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.5], 0.99), Some(7.5));
        assert_eq!(percentile(&[1.0, 3.0], 0.5), Some(2.0));
    }

    #[test]
    fn median_sorts_first() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&mut v), Some(3.0));
        assert_eq!(v, vec![1.0, 3.0, 5.0]);
        let mut even = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(median(&mut even), Some(2.5));
    }
}
