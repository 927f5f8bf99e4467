//! Sampling helpers: the seeded arrival schedule and the percentile rule
//! every reported timing goes through.

use std::time::Duration;

/// A small deterministic generator (splitmix64). The benchmark derives
/// every input from the workload seed through it, so one seed always
/// yields the same schedule and the same messages.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5EB7_BE4C_4D15_0A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Send offsets of `count` Poisson arrivals at `rate` per second. The
/// unit-rate gaps depend only on `seed`, so schedules at different rates
/// are the same arrival pattern stretched in time: a rate search compares
/// rates, not draws.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// A percentile as reported: the value, the percentile actually used and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The value at quantile `q` (nearest rank) of `samples`, or — when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond that rank — at the highest
/// rank that still has that many beyond it. `None` when no rank does
/// (`TAIL_SAMPLES` samples or fewer).
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(n - 1 - TAIL_SAMPLES);
    Some(Pct { value: sorted[index], q: (index + 1) as f64 / n as f64, n })
}

/// [`percentile`], falling back to the plain nearest-rank value for
/// small samples (the row then records the low count), and to zero for an
/// empty one.
pub fn percentile_or_rank(samples: &[f64], q: f64) -> Pct {
    if let Some(p) = percentile(samples, q) {
        return p;
    }
    let n = samples.len();
    if n == 0 {
        return Pct { value: 0.0, q, n: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    Pct { value: sorted[index], q: (index + 1) as f64 / n as f64, n }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile_or_rank(samples, 0.5).value
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let a = poisson_schedule(7, 50.0, 200);
        assert_eq!(a, poisson_schedule(7, 50.0, 200));
        assert_ne!(a, poisson_schedule(8, 50.0, 200));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets never go back in time");
        // The mean gap approaches 1/rate.
        let mean_gap = a.last().unwrap().as_secs_f64() / a.len() as f64;
        assert!((mean_gap - 0.02).abs() < 0.004, "mean gap {mean_gap}");
        // A different rate stretches the same pattern.
        let b = poisson_schedule(7, 25.0, 200);
        for (x, y) in a.iter().zip(&b) {
            assert!((y.as_secs_f64() - 2.0 * x.as_secs_f64()).abs() < 1e-6);
        }
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_reported_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples support p99: ranks 991..=1000 lie beyond it.
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.n), (990.0, 1000));
        assert!((p99.q - 0.99).abs() < 1e-12);
        // 100 samples do not: the highest supported rank is 90.
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        let capped = percentile(&small, 0.99).unwrap();
        assert_eq!((capped.value, capped.n), (90.0, 100));
        assert!((capped.q - 0.90).abs() < 1e-12);
        // The median of 100 samples is untouched by the cap.
        assert_eq!(percentile(&small, 0.5).unwrap().value, 50.0);
        // Eleven samples support only the lowest rank; ten support none.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&eleven, 0.99).unwrap().value, 1.0);
        assert_eq!(percentile(&eleven[..10], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = small.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), Some(capped));
    }

    #[test]
    fn small_samples_fall_back_to_the_plain_rank() {
        assert_eq!(percentile_or_rank(&[3.0, 1.0, 2.0], 0.5).value, 2.0);
        assert_eq!(percentile_or_rank(&[3.0, 1.0, 2.0], 0.99).value, 3.0);
        assert_eq!(percentile_or_rank(&[], 0.99).n, 0);
    }
}
