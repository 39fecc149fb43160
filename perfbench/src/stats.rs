//! Order statistics, memory readings and the seed mixer shared by the
//! workloads.

/// Linear-interpolation percentile (`p` in `0..=100`) of `values`.
/// Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The smallest of `values`; infinite for none.
pub fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The highest percentile that leaves at least ten of `n` samples above
/// it, or 100 (the maximum) when there are too few samples for one.
pub fn tail_percentile(n: usize) -> f64 {
    if n <= 10 {
        100.0
    } else {
        100.0 * (1.0 - 10.0 / n as f64)
    }
}

/// Peak resident set size in MiB of process `pid` (`"self"` for this
/// one), from the kernel's `VmHWM` line; 0 where it cannot be read.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a fixed, platform-independent generator, so the same seed
/// yields byte-identical inputs everywhere.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent sub-seed for `stream` from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(min(v), 1.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 100.0);
    }
}
