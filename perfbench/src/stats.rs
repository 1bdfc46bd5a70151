//! Order statistics with the benchmark's reporting rule.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile: the value, the percentile actually reported
/// (lower than asked for when too few samples lie beyond the asked one),
/// and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub q: f64,
    pub samples: usize,
}

/// The nearest-rank `q` percentile of `sorted`, if at least
/// [`MIN_BEYOND`] samples lie beyond it; otherwise the highest
/// percentile that has that many beyond it. `None` without enough
/// samples for any.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Nearest rank (1-based), capped so that MIN_BEYOND samples follow.
    let asked = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = asked.min(n - MIN_BEYOND);
    Some(Percentile {
        value: sorted[rank - 1],
        q: if rank == asked {
            q
        } else {
            rank as f64 / n as f64
        },
        samples: n,
    })
}

/// Sorts `values` (all finite) in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of finite values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_with_enough_samples_beyond() {
        let v = ramp(1000);
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.samples, 1000);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 500.0);
    }

    #[test]
    fn percentile_falls_back_to_the_highest_supported() {
        // 200 samples: p99 would leave 2 beyond, so rank 190 is reported.
        let v = ramp(200);
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 190.0);
        assert!((p.q - 0.95).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > p.value).count(), MIN_BEYOND);
    }

    #[test]
    fn percentile_needs_more_than_ten_samples() {
        assert_eq!(percentile(&ramp(10), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        let p = percentile(&ramp(11), 0.99).unwrap();
        assert_eq!(p.value, 1.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
