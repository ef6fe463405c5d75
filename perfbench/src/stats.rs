//! Order statistics and the fingerprint hash.

/// The `q`-quantile of `values` by nearest rank (`q` in `[0, 1]`).
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `values`, averaging the middle pair of an even count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A timer summary: median and 99th percentile of per-call times, and
/// how many timed samples they rest on.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        Timing {
            p50: median(samples),
            p99: quantile(samples, 0.99),
            samples: samples.len(),
        }
    }
}

/// FNV-1a over a stream of `u64` words: the outcome fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.0), 0.0);
    }

    #[test]
    fn fingerprint_sees_every_word() {
        let mut a = Fnv::new();
        a.words(&[1, 2]);
        let mut b = Fnv::new();
        b.words(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }
}
