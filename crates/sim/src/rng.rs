//! Deterministic random number generation and distribution sampling.
//!
//! The simulator needs reproducible randomness: the same seed must produce
//! the same event trace on every run and platform. We implement
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64, plus the
//! distribution samplers the workload generators need: uniform, exponential
//! (Poisson inter-arrivals), Poisson counts, Zipf, normal, and log-normal.

/// A deterministic pseudo-random number generator (xoshiro256**).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Seeds are expanded with
    /// SplitMix64 so that similar seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// Derive an independent child generator; used to give each simulated
    /// component its own stream so adding components does not perturb others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection method for unbiased bounded ints.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given rate (mean `1/rate`).
    /// This is the inter-arrival time of a Poisson process.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        // Avoid ln(0) by flipping to (0, 1].
        let u = 1.0 - self.next_f64();
        -u.ln() / rate
    }

    /// Standard-normal variate via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.gen_range(xs.len() as u64) as usize]
    }
}

/// Zipf-distributed sampler over `{0, 1, ..., n-1}` with exponent `s`.
///
/// Rank 0 is the hottest item. Uses the rejection-inversion method of
/// Hörmann & Derflinger, which is O(1) per sample and exact.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    dd: f64,
}

impl Zipf {
    /// Create a sampler over `n` items with skew exponent `s >= 0`.
    /// `s = 0` degenerates to uniform; typical skewed workloads use ~1.0.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one item");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let h = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let dd = 1.0 - (h(1.5) - (2.0f64).powf(-s) - h_x1);
        Zipf {
            n,
            s,
            h_x1,
            h_n,
            dd: dd.max(0.0),
        }
    }

    fn h_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s)) - 1.0
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().max(1.0).min(self.n as f64);
            let h_k = {
                let s = self.s;
                if (s - 1.0).abs() < 1e-12 {
                    (k + 0.5).ln()
                } else {
                    ((k + 0.5).powf(1.0 - s) - 1.0) / (1.0 - s)
                }
            };
            if k - x <= self.dd || u >= h_k - k.powf(-self.s) {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = SimRng::new(4);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all values in range should occur");
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut rng = SimRng::new(5);
        let rate = 2_000.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean={mean} expected={expected}"
        );
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(8);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05);
        assert!((var.sqrt() - 3.0).abs() < 0.05);
    }

    #[test]
    fn zipf_rank_zero_hottest() {
        let mut rng = SimRng::new(10);
        let z = Zipf::new(1_000, 1.0);
        let mut counts = vec![0u64; 1_000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
        // Zipf(1): count(0)/count(9) ≈ 10.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio={ratio}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = SimRng::new(11);
        let z = Zipf::new(100, 0.0);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "uniform-ish spread expected, min={min} max={max}"
        );
    }

    #[test]
    fn zipf_single_item() {
        let mut rng = SimRng::new(12);
        let z = Zipf::new(1, 1.2);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = SimRng::new(14);
        let xs = [1, 2, 3];
        for _ in 0..100 {
            assert!(xs.contains(rng.choose(&xs)));
        }
    }
}
