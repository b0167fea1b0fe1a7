//! Order statistics, the benchmark's own seeded randomness, and the
//! open-loop arrival schedule.
//!
//! The benchmark draws its inputs (query picks, arrival times, world
//! seeds) from [`SplitMix64`] rather than the program's `Rng`, so a change
//! to the program's generator never changes what the benchmark sends.

/// Value at quantile `q` in `[0, 1]` of an ascending slice, by the
/// nearest-rank rule (index `ceil(q * n) - 1`). `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; the mean of the two middle values when the
/// count is even, as Python's `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Tail percentiles, highest first, that the benchmark reports.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The tail the benchmark reports: the highest of p99, p95, p90 and p75
/// that has at least ten samples beyond it (nearest rank), or the maximum
/// when none has. A conventional percentile with room above it varies far
/// less from run to run than the single most extreme value a sample allows.
pub fn tail(values: &[f64]) -> f64 {
    let s = sorted(values);
    TAIL_LADDER
        .iter()
        .map(|&q| (q * s.len() as f64).ceil() as usize)
        .find(|&rank| rank >= 1 && s.len() - rank >= 10)
        .map_or_else(|| s.last().copied().unwrap_or(f64::NAN), |rank| s[rank - 1])
}

/// Quartiles `(q1, median, q3)` the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so `compare` agrees with an outside check of the same runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        _ => {
            let at = |j: usize| -> f64 {
                // m = n + 1; position j*m/4 in 1-based ranks, clamped.
                let m = (n + 1) as f64;
                let pos = j as f64 * m / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - lo as f64;
                s[lo - 1] + (s[lo] - s[lo - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

/// SplitMix64: tiny, seedable, and owned by the benchmark.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`; distinct `stream` tags give independent streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives a small positive seed (below 2^24) for the program's dataset
/// generator, which multiplies its seed and must not overflow.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed, stream).next_u64() >> 40
}

/// Due times, in seconds from the start of the open loop, of `n` requests
/// arriving as a Poisson process of `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed, 0x5c4e_d01e);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - u lies in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        for (n, q) in [
            (1000, 0.99),
            (1500, 0.99),
            (999, 0.95),
            (600, 0.95),
            (200, 0.95),
            (199, 0.90),
            (100, 0.90),
            (99, 0.75),
            (40, 0.75),
        ] {
            let v = ramp(n);
            let t = tail(&v);
            assert_eq!(t, quantile(&v, q), "n = {n}");
            assert!(v.iter().filter(|&&x| x > t).count() >= 10, "n = {n}");
        }
        assert_eq!(tail(&ramp(39)), 39.0, "no ladder percentile fits: the maximum");
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 3.0);
        assert!(tail(&[]).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn poisson_schedule_is_determined_by_its_seed() {
        let a = poisson_schedule(2022, 100.0, 2000);
        assert_eq!(a, poisson_schedule(2022, 100.0, 2000));
        assert_ne!(a, poisson_schedule(7, 100.0, 2000));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times strictly increase");
        // 2000 arrivals at 100/s span ~20 s.
        let span = a[a.len() - 1];
        assert!((span - 20.0).abs() < 2.0, "span {span}");
    }

    #[test]
    fn derived_seeds_are_small_and_distinct() {
        let s: Vec<u64> = (0..4).map(|w| derive_seed(2022, w)).collect();
        assert!(s.iter().all(|&x| x < 1 << 24));
        assert!(s.windows(2).all(|w| w[0] != w[1]));
    }
}
