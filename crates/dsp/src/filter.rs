//! Convolution and the sinc kernel.
//!
//! The transmit chain needs no pulse shaping (OFDM's cyclic prefix does
//! the work). The channel simulator applies its tapped-delay-line fading
//! with [`convolve`], and the fractional resampler in [`crate::resample`]
//! interpolates with a Hann-windowed [`sinc`].

use crate::complex::Complex64;

/// Full linear convolution of two sequences (output length `a + b - 1`).
/// Used by the channel simulator to apply multipath impulse responses to
/// whole frames.
pub fn convolve(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![Complex64::ZERO; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Normalized sinc, `sin(pi x) / (pi x)` with `sinc(0) = 1`.
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::C64;

    #[test]
    fn convolve_lengths_and_values() {
        let a = [C64::from_re(1.0), C64::from_re(2.0)];
        let b = [C64::from_re(3.0), C64::from_re(4.0), C64::from_re(5.0)];
        let c = convolve(&a, &b);
        assert_eq!(c.len(), 4);
        // [1,2] * [3,4,5] = [3, 10, 13, 10]
        let want = [3.0, 10.0, 13.0, 10.0];
        for (x, w) in c.iter().zip(want) {
            assert!((x.re - w).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
        assert!(convolve(&[], &b).is_empty());
    }

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-12);
        assert!(sinc(2.0).abs() < 1e-12);
        assert!((sinc(0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
    }
}
