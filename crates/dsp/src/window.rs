//! Window functions for spectral analysis and interpolation.

use std::f64::consts::PI;

/// Hann window coefficient at index `i` of an `n`-point window.
pub fn hann_at(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    0.5 * (1.0 - (2.0 * PI * i as f64 / (n - 1) as f64).cos())
}

/// Full Hann window of length `n`.
pub fn hann(n: usize) -> Vec<f64> {
    (0..n).map(|i| hann_at(i, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_symmetric() {
        for n in [2usize, 5, 16, 65] {
            let w = hann(n);
            for i in 0..n {
                assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn window_peaks_at_center() {
        let n = 33;
        let w = hann(n);
        let center = w[n / 2];
        assert!((center - 1.0).abs() < 1e-12);
        for &v in &w {
            assert!(v <= center + 1e-12);
        }
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let w = hann(16);
        assert!(w[0].abs() < 1e-12);
        assert!(w[15].abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(hann(0).len(), 0);
        assert_eq!(hann(1), vec![1.0]);
    }
}
