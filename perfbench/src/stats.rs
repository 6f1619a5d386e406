//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (unsorted): the smallest sample
/// that at least `p` percent of all samples are less than or equal to.
/// `p` is clamped to `(0, 100]`; an empty slice gives NaN.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples a tail percentile needs above it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie above it, otherwise the highest percentile that has ten above it
/// (the median for fewer than 20 samples). Returns (percentile, value).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let p = if n >= 2 * TAIL_SUPPORT {
        (100.0 * (n - TAIL_SUPPORT) as f64 / n as f64)
            .floor()
            .min(99.0)
    } else {
        50.0
    };
    (p, percentile(samples, p))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        // The textbook nearest-rank example.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Order of the input does not matter.
        let shuffled = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(percentile(&shuffled, 40.0), 20.0);
        // p99 of 1..=100 is 99, of 1..=1000 is 990.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), 990.0);
        assert_eq!(median(&[3.0, 1.0, 4.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let v: Vec<f64> = (1..=26).map(f64::from).collect();
        // 100 * 16 / 26 = 61.5: p61 is rank 16, with 10 samples above.
        assert_eq!(tail(&v), (61.0, 16.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many), (99.0, 4950.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
        for n in 20..1200 {
            let v: Vec<f64> = (1..=n).map(|k| k as f64).collect();
            let (_, x) = tail(&v);
            assert!(n - x as usize >= TAIL_SUPPORT, "n = {n}");
        }
    }
}
