//! Shared helpers: the seeded generator, order statistics, frame
//! hashing, memory and provenance readings.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so every workload script is a
/// pure function of `--seed` without pulling a crate into the timed
/// process.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed; streams of
    /// the same seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
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

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The clock every timing in the benchmark reads (the repository routes
/// its own wall-clock reads through the same function).
pub fn now() -> Instant {
    rnnhm_core::clock::now()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail percentiles a timing may be reported at, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// strictly beyond it (nearest rank), as `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (0.0, v.last().copied().unwrap_or(0.0));
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            best = (p, v[rank - 1]);
        }
    }
    best
}

/// A 64-bit hash of the bit patterns of a raster's values, in four
/// independent FNV-style lanes (so a 32 MiB frame hashes in about a
/// millisecond): two frames hash equal iff they are, up to a 2^-64
/// collision, bitwise identical.
pub fn hash_values(values: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64, 0x8422_2325_cbf2_9ce4, 0x9e37_79b9, 0x7f4a_7c15];
    let mut chunks = values.chunks_exact(4);
    for c in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(PRIME);
        }
    }
    for (lane, v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ v.to_bits()).wrapping_mul(PRIME);
    }
    lanes.iter().fold(values.len() as u64, |h, &l| (h ^ l).wrapping_mul(PRIME).rotate_left(29))
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns memory freed by an earlier set-up repetition to the system,
/// so every repetition starts from the same resident footprint, as it
/// would in a fresh process. Without it, the allocator's per-thread
/// arenas keep whatever earlier servers and engines freed, and the
/// peak resident set depends on which arena each later thread lands in.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the kernel; it takes no pointers and is safe to call from any
        // thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Where and with what the numbers were produced: worker cores, the
/// compiler that built the benchmark and the source revision.
pub fn provenance() -> String {
    format!(
        "{{\"cores\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        rnnhm_core::parallel::effective_parallelism(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
