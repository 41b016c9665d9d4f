//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, highest first, in per mille
/// (integers, so the rank below is exact).
const TAIL_LADDER_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest ladder percentile that still has at least ten samples beyond
/// it, so the reported tail is never set by a handful of outliers; falls
/// back to the median when even p75 is not supported.
pub fn supported_tail(samples: usize) -> f64 {
    for p in TAIL_LADDER_PER_MILLE {
        let rank = (p * samples).div_ceil(1000);
        if samples.saturating_sub(rank) >= 10 {
            return p as f64 / 10.0;
        }
    }
    50.0
}

/// Sort a sample vector ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The value a run reports for a quantity it measured once per round: the
/// lower quartile of the rounds' values.  Rounds are identical work, and on
/// a shared host interference only ever adds time — measured here, whole
/// blocks of rounds run at 1.0x or at 1.7x — so the median of a run flips
/// between the two with the mix it happened to see, while the lower quartile
/// stays with the undisturbed rounds as long as a quarter of them were.
pub fn quiet_rounds(per_round: &[f64]) -> f64 {
    percentile(&sorted(per_round.to_vec()), 25.0)
}

/// Supported tail percentile and its value, and the sample count.
pub struct Summary {
    pub tail_pct: f64,
    pub tail: f64,
    pub samples: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples.to_vec());
    let tail_pct = supported_tail(s.len());
    Summary {
        tail_pct,
        tail: percentile(&s, tail_pct),
        samples: s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(10_000), 99.9);
        // 100 samples: p90 leaves 10 beyond.
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(99), 75.0);
        assert_eq!(supported_tail(40), 75.0);
        assert_eq!(supported_tail(39), 50.0);
        assert_eq!(supported_tail(0), 50.0);
    }

    #[test]
    fn quiet_rounds_ignore_the_disturbed_majority() {
        // Five of eight rounds ran beside a noisy neighbour.
        let rounds = [1.80, 1.08, 1.81, 1.79, 1.07, 1.82, 1.09, 1.80];
        assert_eq!(quiet_rounds(&rounds), 1.08);
        assert_eq!(median(&rounds), 1.79);
        assert_eq!(quiet_rounds(&[]), 0.0);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.samples, 200);
    }
}
