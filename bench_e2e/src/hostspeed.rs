//! Host-speed calibration.
//!
//! The benchmark shares its cores with whatever else the host runs, and
//! the same code runs 30–50% slower for minutes at a time when the host
//! is busy. A fixed reference kernel — sorting 64 Ki pseudo-random keys,
//! code of this file only — is timed in short samples interleaved with
//! the workload, at moments when the program under test is idle, on as
//! many threads at once as the workload keeps busy. Its median against
//! [`REF_MS`] is the run's slowdown, and every time the benchmark reports
//! is divided by it: times read as at the reference speed, so a run that
//! landed on a busy minute no longer reads as a slower program. A change
//! to the program cannot move the kernel, which never runs while the
//! program works.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Keys the reference kernel sorts: 512 KiB, cache-resident like the
/// receive chain's working set.
const KEYS: usize = 1 << 16;

/// The reference kernel's time at reference speed (an idle 2-vCPU x86-64
/// host).
pub const REF_MS: f64 = 1.30;

/// Timed samples of the reference kernel.
pub struct HostSpeed {
    /// One key buffer per thread that samples at once.
    lanes: Vec<Vec<u64>>,
    samples_ms: Vec<f64>,
    /// Wall time spent sampling, for phases to leave out.
    pub wall_s: f64,
    /// CPU time spent sampling, all lanes.
    pub cpu_s: f64,
}

impl HostSpeed {
    /// A calibrator sampling on `lanes` threads at once; with no lanes it
    /// never samples. Allocates the key buffers once, so no sample times
    /// page faults, and runs the kernel once untimed on each to warm it.
    pub fn new(lanes: usize) -> Self {
        let mut lanes = vec![vec![0; KEYS]; lanes];
        for keys in &mut lanes {
            kernel(keys);
        }
        Self {
            lanes,
            samples_ms: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    /// Times `n` runs of the kernel on every lane, the lanes side by
    /// side.
    pub fn sample(&mut self, n: usize) {
        let t = Instant::now();
        let timed: Vec<Vec<f64>> = if self.lanes.len() <= 1 {
            self.lanes
                .iter_mut()
                .map(|keys| time_kernel(keys, n))
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .map(|keys| s.spawn(move || time_kernel(keys, n)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("host-speed lane panicked"))
                    .collect()
            })
        };
        self.wall_s += t.elapsed().as_secs_f64();
        for ms in timed.into_iter().flatten() {
            self.cpu_s += ms / 1e3;
            self.samples_ms.push(ms);
        }
    }

    /// Samples taken so far, all lanes.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median kernel time over [`REF_MS`]: above 1 on a host running
    /// slower than the reference; 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_since(0)
    }

    /// [`HostSpeed::slowdown`] over the samples from the `first`-th on.
    pub fn slowdown_since(&self, first: usize) -> f64 {
        let recent = self.samples_ms.get(first..).unwrap_or_default();
        median(recent).map_or(1.0, |ms| ms / REF_MS)
    }
}

/// Fills the keys from a fixed xorshift stream and sorts them: the same
/// work on every call.
fn kernel(keys: &mut [u64]) {
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    for k in keys.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *k = s;
    }
    keys.sort_unstable();
    black_box(keys);
}

/// Times `n` kernel runs on `keys`, in ms.
fn time_kernel(keys: &mut [u64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            kernel(keys);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_sorts_the_same_keys_every_time() {
        let mut h = HostSpeed::new(2);
        let first = h.lanes[0].clone();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(h.lanes[1], first);
        h.sample(3);
        assert_eq!(h.lanes[0], first);
        assert_eq!(h.samples(), 6);
        assert!(h.wall_s > 0.0 && h.cpu_s > 0.0);
    }

    #[test]
    fn no_lanes_never_sample() {
        let mut h = HostSpeed::new(0);
        h.sample(4);
        assert_eq!((h.samples(), h.slowdown(), h.cpu_s), (0, 1.0, 0.0));
    }

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut h = HostSpeed::new(1);
        assert_eq!(h.slowdown(), 1.0);
        h.samples_ms = vec![REF_MS * 3.0, REF_MS * 1.5, REF_MS];
        assert!((h.slowdown() - 1.5).abs() < 1e-12);
        assert!((h.slowdown_since(2) - 1.0).abs() < 1e-12);
        assert_eq!(h.slowdown_since(3), 1.0);
        assert_eq!(h.slowdown_since(9), 1.0);
    }
}
