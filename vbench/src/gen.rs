//! Seeded input generation: every input a workload feeds the program is
//! drawn from a `vclock::rng` stream derived from the run's `--seed`.

use vclock::rng::Rng;

/// An independent stream for `(seed, purpose, index)`: the same triple
/// always yields the same stream, and different purposes or indices do
/// not share draws.
pub fn stream(seed: u64, purpose: u64, index: u64) -> Rng {
    let mut mix = Rng::seeded(seed ^ purpose.rotate_left(17));
    let a = mix.next_u64();
    Rng::seeded(a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Open-loop Poisson arrivals: `n` arrival instants (virtual seconds)
/// at mean `rate_per_s`, starting after `start_s`. Inter-arrival gaps
/// are exponential, so latency percentiles see real queueing spread.
pub fn poisson_arrivals(rng: &mut Rng, n: usize, rate_per_s: f64, start_s: f64) -> Vec<f64> {
    let mut t = start_s;
    (0..n)
        .map(|_| {
            // 1 - u lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.f64()).ln() / rate_per_s;
            t
        })
        .collect()
}

/// FNV-1a over 64-bit words: the fingerprint that shows two runs of one
/// seed produced bit-identical virtual results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_reproduce_and_differ() {
        let draw = |s: u64, p: u64, i: u64| -> Vec<u64> {
            let mut r = stream(s, p, i);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(7, 1, 0), draw(7, 1, 0));
        assert_ne!(draw(7, 1, 0), draw(8, 1, 0));
        assert_ne!(draw(7, 1, 0), draw(7, 2, 0));
        assert_ne!(draw(7, 1, 0), draw(7, 1, 1));
    }

    #[test]
    fn poisson_arrivals_reproduce_and_have_the_right_rate() {
        let a = poisson_arrivals(&mut stream(3, 9, 0), 20_000, 1000.0, 0.0);
        let b = poisson_arrivals(&mut stream(3, 9, 0), 20_000, 1000.0, 0.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
        // Exponential gaps: the coefficient of variation is about 1, so
        // arrivals are not a fixed cadence.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / m;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn fingerprint_separates_bit_patterns() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b);
    }
}
