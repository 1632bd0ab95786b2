//! Streaming statistics and dB conversions used throughout the evaluation
//! harness.

/// Converts a linear power ratio to decibels. Zero or negative input maps to
/// negative infinity.
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * lin.log10()
    }
}

/// Converts decibels to a linear power ratio.
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Statistics that can be combined across shards.
///
/// `merge` must be associative enough that folding per-shard values in a
/// fixed order reproduces the single-threaded result — which is exactly
/// how the sweep engine (`mimonet::sweep`) calls it. Every stats type
/// implements it in its own crate; this crate sits below all of them.
pub trait Merge: Default + Send {
    /// Folds `other` (a later shard, in shard order) into `self`.
    fn merge(&mut self, other: &Self);
}

/// Plain counters merge by summation.
impl Merge for u64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl Merge for f64 {
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
}

impl<T: Merge, U: Merge> Merge for (T, U) {
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }
}

impl<T: Merge, U: Merge, V: Merge> Merge for (T, U, V) {
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
        self.2.merge(&other.2);
    }
}

impl<T: Merge, const N: usize> Merge for [T; N]
where
    [T; N]: Default,
{
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }
}

/// Element-wise merge; an empty side adopts the other wholesale (so the
/// `Default` identity works for any length).
impl<T: Merge + Clone> Merge for Vec<T> {
    fn merge(&mut self, other: &Self) {
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.len(),
            other.len(),
            "merging Vec stats of different lengths"
        );
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }
}

/// Welford online mean/variance accumulator.
///
/// Numerically stable for the long Monte-Carlo runs the benches perform,
/// where naive sum-of-squares would lose precision.
#[derive(Clone, Copy, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than one observation).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Root-mean-square of the observations: `sqrt(mean^2 + var)`.
    pub fn rms(&self) -> f64 {
        (self.mean() * self.mean() + self.variance()).sqrt()
    }

    /// Smallest observation (`inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Parallel Welford: the moments of the two batches combined.
impl Merge for Running {
    fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// JSON shape: derived moments rather than the raw Welford state, since
/// reports consume mean/std/min/max directly. Non-finite min/max (empty
/// accumulator) render as null.
impl serde::Serialize for Running {
    fn serialize(&self) -> serde::Value {
        serde::Value::object([
            ("count", self.count().serialize()),
            ("mean", self.mean().serialize()),
            ("std_dev", self.std_dev().serialize()),
            ("rms", self.rms().serialize()),
            ("min", self.min().serialize()),
            ("max", self.max().serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_conversions_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 27.5] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-12);
        }
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
        assert!((db_to_lin(3.0) - 1.9952623149688795).abs() < 1e-12);
        assert!((db_to_lin(10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn running_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn empty_accumulator() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.sample_variance(), 0.0);
    }

    #[test]
    fn rms_of_zero_mean() {
        let mut r = Running::new();
        for &x in &[-1.0, 1.0, -1.0, 1.0] {
            r.push(x);
        }
        assert!((r.rms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.77).sin() * 3.0 + 1.0)
            .collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Running::new();
        a.push(5.0);
        let b = Running::new();
        let mut a2 = a;
        a2.merge(&b);
        assert!((a2.mean() - 5.0).abs() < 1e-12);
        let mut c = Running::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn sample_variance_bessel_correction() {
        let mut r = Running::new();
        r.push(1.0);
        r.push(3.0);
        assert!((r.variance() - 1.0).abs() < 1e-12);
        assert!((r.sample_variance() - 2.0).abs() < 1e-12);
    }
}
