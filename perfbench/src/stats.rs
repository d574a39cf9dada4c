//! Small, dependency-free helpers: the seeded input generator, quantiles
//! under the tail-percentile rule, failure accounting, digests and the
//! process's peak resident set.

use std::time::Duration;

/// SplitMix64: the benchmark's own input generator, so that generated
/// inputs depend on `--seed` alone and not on the program's RNG code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// `n` tokens drawn from `[1, vocab)`.
    pub fn tokens(&mut self, n: usize, vocab: u64) -> Vec<u32> {
        (0..n).map(|_| self.range(1, vocab) as u32).collect()
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`): the `ceil(q·n)`-th smallest
/// value. `None` on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    Some(v[rank - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The tail rule: a percentile is reported only when at least ten samples
/// lie beyond it. Returns the highest whole percentile the sample
/// supports, or `None` when fewer than eleven samples exist.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..100u32).rev().find(|&p| samples_beyond(n, p) >= 10)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn samples_beyond(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100).max(1);
    n.saturating_sub(rank)
}

/// The `p`-th percentile, refused (with the reason) when the sample is
/// too small for ten samples to lie beyond it.
pub fn tail_percentile(values: &[f64], p: u32) -> Result<f64, String> {
    if values.is_empty() || samples_beyond(values.len(), p) < 10 {
        return Err(format!(
            "p{p} needs at least ten samples beyond it; {} samples support at most {}",
            values.len(),
            highest_supported_percentile(values.len())
                .map_or("no percentile".to_string(), |q| format!("p{q}"))
        ));
    }
    Ok(quantile(values, p as f64 / 100.0).expect("sample is non-empty"))
}

/// Operations sent and how they ended. An operation that errors, is
/// refused, is cancelled or returns wrong output counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn record(&mut self, success: bool) {
        if success {
            self.ok()
        } else {
            self.fail()
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// FNV-1a over a stream of words: the printed output digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn tokens(&mut self, rows: &[Vec<u32>]) {
        for row in rows {
            self.word(row.len() as u64);
            for &t in row {
                self.word(t as u64);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(11), Some(9));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90), Ok(90.0));
        assert!(tail_percentile(&hundred[..99], 90).is_err());
        assert!(tail_percentile(&[], 50).is_err());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.fail();
        t.ok();
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.succeeded(), 2);
    }

    #[test]
    fn generated_inputs_are_seed_deterministic() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (r.tokens(16, 50_272), r.exp_gap_s(2.0), r.range(4, 12))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (1..50_272).contains(&r.tokens(1, 50_272)[0])));
        let mean = (0..20_000).map(|_| r.exp_gap_s(4.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.01, "mean gap {mean}");
    }

    #[test]
    fn digest_separates_row_boundaries() {
        let mut a = Digest::new();
        a.tokens(&[vec![1, 2], vec![3]]);
        let mut b = Digest::new();
        b.tokens(&[vec![1], vec![2, 3]]);
        assert_ne!(a.hex(), b.hex());
    }
}
