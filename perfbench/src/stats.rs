//! Small numeric helpers: a seeded generator, order statistics, the
//! process's peak RSS, and a JSON number/string writer.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every drawn input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6865_6170_6472_6167)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, capped at `want` (e.g. 0.9 needs 100 samples).
pub fn tail_quantile(n: usize, want: f64) -> f64 {
    if n <= 10 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// The fastest `share` of `v` (at least one value), in ascending order.
pub fn fastest_share(v: &[f64], share: f64) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let keep = ((s.len() as f64 * share).ceil() as usize).clamp(1.min(s.len()), s.len());
    s.truncate(keep);
    s
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(tail_quantile(100, 0.9), 0.9);
        assert!((tail_quantile(50, 0.9) - 0.8).abs() < 1e-12);
        assert_eq!(fastest_share(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.2), vec![1.0]);
        assert_eq!(fastest_share(&[3.0, 1.0, 2.0], 0.5), vec![1.0, 2.0]);
        assert!(fastest_share(&[], 0.2).is_empty());
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
    }
}
