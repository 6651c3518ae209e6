//! Order statistics and the seeded generators behind every workload.
//!
//! Everything random in the benchmark comes from [`Rng`], seeded from
//! `--seed`: value sets, right-hand sides, Zipf draws and the open-loop
//! arrival schedule. The same seed gives the same inputs.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding a draw in one
    /// place never shifts the inputs of another.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A right-hand side with entries uniform in `[-1, 1)`.
    pub fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }
}

/// Zipf(`s`) over ranks `0..n` (rank 0 most popular), sampled by inverse
/// CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Arrival offsets in seconds for a Poisson process of `rate_per_s` over
/// `duration_s`: exponential gaps, strictly increasing, all `< duration_s`.
pub fn exponential_schedule(rng: &mut Rng, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - unit() is in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// The `p`-th percentile (0..=100) of `sorted`, by linear interpolation
/// between closest ranks — the definition Python's `statistics.quantiles`
/// with `method="inclusive"` and numpy's default use.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            q1: percentile_sorted(&s, 25.0),
            median: percentile_sorted(&s, 50.0),
            q3: percentile_sorted(&s, 75.0),
            p95: percentile_sorted(&s, 95.0),
            max: s[s.len() - 1],
        }
    }
}

/// Median of `samples` (0 for an empty slice: a layer that did no work).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 50.0), 3.0);
        assert_eq!(percentile_sorted(&s, 100.0), 5.0);
        assert_eq!(percentile_sorted(&s, 25.0), 2.0);
        assert!((percentile_sorted(&s, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn summary_orders_unsorted_input() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seed_stable_and_forks_differ() {
        let draw = || {
            let mut r = Rng::fork(1, 0);
            (0..4).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        let (a, b) = (draw(), draw());
        assert_eq!(a, b);
        // Pinned: a changed generator would silently change every input.
        assert_eq!(a[0], 0xbeeb_8da1_658e_ec67);
        assert_ne!(Rng::fork(1, 1).next_u64(), Rng::fork(1, 2).next_u64());
        assert_ne!(Rng::fork(1, 1).next_u64(), Rng::fork(2, 1).next_u64());
    }

    #[test]
    fn zipf_is_seed_stable_and_skewed() {
        let z = Zipf::new(8, 1.1);
        let draw = |seed| {
            let mut r = Rng::fork(0, seed);
            (0..2000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let d = draw(5);
        let count = |k| d.iter().filter(|&&x| x == k).count();
        assert!(count(0) > count(1) && count(1) > count(7));
        assert!(d.iter().all(|&x| x < 8));
    }

    #[test]
    fn exponential_schedule_is_seed_stable_with_the_stated_rate() {
        let a = exponential_schedule(&mut Rng::fork(0, 9), 24.0, 50.0);
        let b = exponential_schedule(&mut Rng::fork(0, 9), 24.0, 50.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 50.0);
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 24.0).abs() < 2.4, "rate {rate}");
    }
}
