//! Sample statistics, error counting and the seeded request-stream RNG.

/// The `p`-th percentile (0–100) of `samples` by nearest rank: the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank(p, sorted.len()).max(1);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100)
}

/// The tail percentile reported for a workload whose run makes `n`
/// requests: the highest percentile that still has at least ten samples
/// beyond its nearest rank, capped at 99. Runs too short for any such
/// percentile above the median report the median.
pub fn tail_percentile(n: usize) -> u32 {
    (51..=99)
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(50)
}

/// Bucket growth of [`Histogram`]: 0.1% relative resolution.
const GROWTH: f64 = 1.001;
/// Buckets of [`Histogram`]: 1 ns to `GROWTH^BUCKETS` ns ≈ 196 s.
const BUCKETS: usize = 26_000;

/// A latency histogram of fixed size, so that the benchmark's own memory
/// does not grow with the number of requests a run reaches (it would show
/// in `peak_rss_mb`). Percentiles are nearest-rank over bucket midpoints.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Count one sample (milliseconds).
    pub fn record(&mut self, ms: f64) {
        let ns = (ms * 1e6).max(1.0);
        let bucket = ((ns.ln() / GROWTH.ln()) as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Add another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `p`-th percentile by nearest rank, in milliseconds.
    pub fn percentile(&self, p: u32) -> Option<f64> {
        let rank = rank(p, self.total as usize).max(1) as u64;
        let mut seen = 0u64;
        let bucket = self.counts.iter().position(|&c| {
            seen += c as u64;
            seen >= rank
        })?;
        Some(GROWTH.powf(bucket as f64 + 0.5) / 1e6)
    }
}

/// Requests attempted, and how each one that did not succeed failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that returned an error (including admission rejections).
    pub errors: usize,
    /// Requests that returned an answer the reference disagrees with.
    pub wrong: usize,
}

impl Tally {
    /// Count one request: `Ok(true)` is a correct answer, `Ok(false)` a
    /// wrong one, `Err` a failed or rejected request.
    pub fn record<E>(&mut self, verdict: &Result<bool, E>) {
        self.attempted += 1;
        match verdict {
            Ok(true) => {}
            Ok(false) => self.wrong += 1,
            Err(_) => self.errors += 1,
        }
    }

    /// Fold another caller's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }

    /// Requests that failed, were rejected, or answered wrongly.
    pub fn failed(&self) -> usize {
        self.errors + self.wrong
    }

    /// Requests that answered correctly.
    pub fn succeeded(&self) -> usize {
        self.attempted - self.failed()
    }

    /// Failed requests over attempted ones (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// SplitMix64 (Steele, Lea & Flood): the request streams' generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The generator of request `index` in the stream of `seed`. Each
    /// request draws from its own generator, so any subset of a stream —
    /// the requests one caller sent, say — can be regenerated exactly.
    pub fn for_request(seed: u64, index: u64) -> Self {
        let mut root = SplitMix(seed ^ 0x6a09_e667_f3bc_c908);
        let base = root.next_u64();
        SplitMix(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// FNV-1a over bytes: answers are compared between the untraced and the
/// traced run by this digest instead of being kept whole.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p_percent() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50), Some(5.0));
        assert_eq!(nearest_rank(&samples, 90), Some(9.0));
        assert_eq!(nearest_rank(&samples, 91), Some(10.0));
        assert_eq!(nearest_rank(&samples, 99), Some(10.0));
        assert_eq!(nearest_rank(&samples, 0), Some(1.0));
        assert_eq!(nearest_rank(&[3.5], 99), Some(3.5));
        assert_eq!(nearest_rank(&[], 50), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 80 requests: p87 has rank 70 (10 beyond), p88 rank 71 (9 beyond).
        assert_eq!(tail_percentile(80), 87);
        // 1000 requests: p99 has rank 990, exactly 10 beyond; capped there.
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(1_000_000), 99);
        // 999 requests: p99 has rank 990, 9 beyond; p98 has rank 980.
        assert_eq!(tail_percentile(999), 98);
        // Too few requests for a tail: the median.
        assert_eq!(tail_percentile(15), 50);
        assert_eq!(tail_percentile(0), 50);
        for n in [20, 45, 80, 133, 500, 2000] {
            let p = tail_percentile(n);
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(p + 1, n) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tally_counts_errors_and_wrong_answers_as_failures() {
        let mut tally = Tally::default();
        tally.record::<()>(&Ok(true));
        tally.record::<()>(&Ok(true));
        tally.record::<()>(&Ok(false));
        tally.record(&Err("overloaded"));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.succeeded(), 2);
        assert_eq!(tally.error_rate(), 0.5);
        let mut other = Tally::default();
        other.record::<()>(&Ok(true));
        tally.merge(other);
        assert_eq!((tally.attempted, tally.failed()), (5, 2));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn histogram_percentiles_match_nearest_rank_within_resolution() {
        let samples: Vec<f64> = (1..=2000)
            .map(|i| 0.05 + (i as f64).powf(1.3) * 1e-3)
            .collect();
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, &s) in samples.iter().enumerate() {
            if i % 3 == 0 {
                left.record(s)
            } else {
                right.record(s)
            }
        }
        left.merge(&right);
        for p in [1, 50, 87, 99, 100] {
            let exact = nearest_rank(&samples, p).unwrap();
            let binned = left.percentile(p).unwrap();
            assert!(
                (binned / exact - 1.0).abs() < 1e-3,
                "p{p}: {binned} vs {exact}"
            );
        }
        assert_eq!(Histogram::default().percentile(50), None);
    }

    #[test]
    fn request_generators_are_pure_functions_of_seed_and_index() {
        let draw = |seed, index| {
            let mut rng = SplitMix::for_request(seed, index);
            (0..4).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(7, 4));
        assert_ne!(draw(7, 3), draw(8, 3));
        let mut rng = SplitMix::for_request(1, 0);
        assert!((0..1000).all(|_| rng.below(5) < 5));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
