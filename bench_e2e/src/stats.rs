//! Order statistics and the failure tally.

/// Fewest samples that must lie beyond a reported percentile. A tail
/// figure resting on fewer is one or two outliers, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a few samples (the mean of the middle two for an even
/// count); `None` for none. For repeated set-up timings, where no tail
/// is asked for.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Every failure a run can meet, counted against the frames it
/// attempted. On the benchmark's clean presets every count stays 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorTally {
    /// Frames requested (engine sessions) or captured (replays).
    pub frames_attempted: u64,
    /// Sessions that ended in an error report or a broken connection.
    pub sessions_failed: u64,
    /// Frames of completed sessions that never arrived.
    pub frames_lost: u64,
    /// Frames that arrived with bytes other than the seed's PSDU.
    pub frames_corrupted: u64,
    /// Frames the engine shed (`EngineStats::shed_total`).
    pub frames_shed: u64,
    /// Connections the engine ended for wire or protocol faults.
    pub protocol_errors: u64,
}

impl ErrorTally {
    /// A completed session: `delivered` of `expected` frames arrived,
    /// `corrupted` of them with wrong bytes.
    pub fn session(&mut self, expected: u64, delivered: u64, corrupted: u64) {
        self.frames_attempted += expected;
        self.frames_lost += expected.saturating_sub(delivered);
        self.frames_corrupted += corrupted;
    }

    /// A session that failed; its frames still count as attempted.
    pub fn failed_session(&mut self, expected: u64) {
        self.frames_attempted += expected;
        self.sessions_failed += 1;
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &ErrorTally) {
        self.frames_attempted += other.frames_attempted;
        self.sessions_failed += other.sessions_failed;
        self.frames_lost += other.frames_lost;
        self.frames_corrupted += other.frames_corrupted;
        self.frames_shed += other.frames_shed;
        self.protocol_errors += other.protocol_errors;
    }

    /// Failed sessions + lost, corrupted and shed frames + protocol
    /// errors.
    pub fn failures(&self) -> u64 {
        self.sessions_failed
            + self.frames_lost
            + self.frames_corrupted
            + self.frames_shed
            + self.protocol_errors
    }

    /// `failures / frames_attempted`. A run that attempted nothing has
    /// failed outright (1).
    pub fn error_rate(&self) -> f64 {
        if self.frames_attempted == 0 {
            1.0
        } else {
            self.failures() as f64 / self.frames_attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(2000);
        v.reverse();
        assert_eq!(percentile(&v, 99.0), Some(1980.0));
        assert_eq!(percentile(&v, 50.0), Some(1000.0));
    }

    #[test]
    fn percentile_refuses_bad_input() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 101.0), None);
        assert_eq!(percentile(&ramp(100), f64::NAN), None);
    }

    #[test]
    fn median_and_mean_of_a_few() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn error_rate_counts_every_failure_against_frames_attempted() {
        let mut t = ErrorTally::default();
        t.session(16, 16, 0);
        assert_eq!((t.failures(), t.error_rate()), (0, 0.0));
        t.session(16, 15, 1); // one frame lost, one corrupted
        t.failed_session(16);
        t.frames_shed += 2;
        t.protocol_errors += 1;
        assert_eq!(t.frames_attempted, 48);
        assert_eq!(t.failures(), 1 + 1 + 1 + 2 + 1);
        assert_eq!(t.error_rate(), 6.0 / 48.0);

        let mut sum = ErrorTally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.frames_attempted, sum.failures()), (96, 12));
        assert_eq!(sum.error_rate(), t.error_rate());
    }

    #[test]
    fn nothing_attempted_is_a_failed_run() {
        assert_eq!(ErrorTally::default().error_rate(), 1.0);
    }
}
