//! Fixed-width SIMD lanes for the hot-path kernels.
//!
//! [`F64x4`] is a plain `[f64; 4]` wrapper whose element-wise operations
//! are written so LLVM autovectorizes them into packed instructions on
//! any target (SSE2 pairs, AVX quads, NEON pairs) — no `std::simd`
//! nightly feature, no external crate, no target-feature detection.
//! The FEC search (`mimonet_fec::viterbi`) does detect CPU features: on
//! x86-64 it runs an intrinsics form, AVX-512F+DQ where the CPU has it, else
//! AVX2, picked once per decode, whose survivors and metrics are
//! bit-identical to its portable loop's.
//!
//! **The bit-identity rule.** Every vectorized kernel in this workspace
//! assigns one *independent output* per lane (a correlation lag, a
//! demapped symbol, a detected observation, a Viterbi next state) and
//! keeps each lane's operation sequence exactly equal to the scalar
//! kernel's. Lanes are never reduced against each other — no horizontal
//! sums, no reassociated accumulators — so the SIMD path is
//! bit-identical to the scalar path by construction, not by tolerance.
//! The same holds across vector widths: copies of a kernel for SSE2 and
//! AVX2 run the same IEEE operations per lane (Rust never fuses a
//! multiply and add into FMA without `mul_add`).
//! `tests/simd_equivalence.rs` enforces this with proptests against the
//! scalar twins, which stay as test oracles.

/// Four `f64` lanes, element-wise semantics throughout.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

/// Number of lanes in [`F64x4`].
pub const LANES: usize = 4;

impl F64x4 {
    /// All lanes zero.
    pub const ZERO: Self = Self([0.0; 4]);

    /// Broadcasts one value into every lane.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Loads four consecutive values from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < at + 4`.
    #[inline(always)]
    pub fn load(xs: &[f64], at: usize) -> Self {
        Self([xs[at], xs[at + 1], xs[at + 2], xs[at + 3]])
    }

    /// Stores the lanes into four consecutive slots of a slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < at + 4`.
    #[inline(always)]
    pub fn store(self, xs: &mut [f64], at: usize) {
        xs[at..at + 4].copy_from_slice(&self.0);
    }

    /// Lane `i`.
    #[inline(always)]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Element-wise minimum. Matches `f64::min` per lane (NaN-discarding),
    /// so a lane-per-output min scan is bit-identical to the scalar scan.
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        Self([
            self.0[0].min(rhs.0[0]),
            self.0[1].min(rhs.0[1]),
            self.0[2].min(rhs.0[2]),
            self.0[3].min(rhs.0[3]),
        ])
    }

    /// Element-wise maximum (`f64::max` per lane).
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        Self([
            self.0[0].max(rhs.0[0]),
            self.0[1].max(rhs.0[1]),
            self.0[2].max(rhs.0[2]),
            self.0[3].max(rhs.0[3]),
        ])
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                Self([
                    self.0[0] $op rhs.0[0],
                    self.0[1] $op rhs.0[1],
                    self.0[2] $op rhs.0[2],
                    self.0[3] $op rhs.0[3],
                ])
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

impl std::ops::AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for F64x4 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl std::ops::Neg for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_match_scalar() {
        let a = F64x4([1.0, -2.5, 3.25, 0.0]);
        let b = F64x4([0.5, 4.0, -1.0, 7.0]);
        for i in 0..LANES {
            assert_eq!((a + b).lane(i), a.lane(i) + b.lane(i));
            assert_eq!((a - b).lane(i), a.lane(i) - b.lane(i));
            assert_eq!((a * b).lane(i), a.lane(i) * b.lane(i));
            assert_eq!((-a).lane(i), -a.lane(i));
            assert_eq!(a.min(b).lane(i), a.lane(i).min(b.lane(i)));
            assert_eq!(a.max(b).lane(i), a.lane(i).max(b.lane(i)));
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let xs = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::load(&xs, 1);
        assert_eq!(v, F64x4([1.0, 2.0, 3.0, 4.0]));
        let mut out = [0.0; 6];
        v.store(&mut out, 2);
        assert_eq!(out, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(F64x4::splat(7.0), F64x4([7.0; 4]));
    }

    #[test]
    fn min_is_nan_discarding_like_f64_min() {
        let a = F64x4([f64::NAN, 1.0, f64::NAN, 2.0]);
        let b = F64x4([3.0, f64::NAN, f64::NAN, 1.0]);
        let m = a.min(b);
        assert_eq!(m.lane(0), 3.0);
        assert_eq!(m.lane(1), 1.0);
        assert!(m.lane(2).is_nan());
        assert_eq!(m.lane(3), 1.0);
    }
}
