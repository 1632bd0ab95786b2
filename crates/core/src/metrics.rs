//! BER / PER / throughput instrumentation — the measurement layer the
//! paper uses to "validate performance of the software implementation".

use mimonet_dsp::stats::Merge;

/// Accumulates bit-error statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BerCounter {
    bits: u64,
    errors: u64,
}

impl BerCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compares two equal-length bit slices (0/1 values) and accumulates.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch — comparing misaligned streams would
    /// produce garbage statistics silently. The message carries both
    /// lengths so a panic surfaced through the threaded scheduler's
    /// supervisor (`GraphError::BlockPanicked`) is diagnosable.
    pub fn compare_bits(&mut self, sent: &[u8], received: &[u8]) {
        assert_eq!(
            sent.len(),
            received.len(),
            "bit stream length mismatch: sent {} bits, received {} bits",
            sent.len(),
            received.len()
        );
        self.bits += sent.len() as u64;
        self.errors += sent.iter().zip(received).filter(|(a, b)| a != b).count() as u64;
    }

    /// Compares two equal-length byte slices bitwise.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch, with both lengths in the message (see
    /// [`Self::compare_bits`]).
    pub fn compare_bytes(&mut self, sent: &[u8], received: &[u8]) {
        assert_eq!(
            sent.len(),
            received.len(),
            "byte stream length mismatch: sent {} bytes, received {} bytes",
            sent.len(),
            received.len()
        );
        self.bits += sent.len() as u64 * 8;
        self.errors += sent
            .iter()
            .zip(received)
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum::<u64>();
    }

    /// Total bits compared.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total bit errors.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Bit error rate; 0 when nothing compared.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }
}

impl Merge for BerCounter {
    fn merge(&mut self, other: &Self) {
        self.bits += other.bits;
        self.errors += other.errors;
    }
}

impl serde::Serialize for BerCounter {
    fn serialize(&self) -> serde::Value {
        serde::Value::object([
            ("bits", self.bits.serialize()),
            ("errors", self.errors.serialize()),
            ("ber", self.ber().serialize()),
        ])
    }
}

/// Accumulates packet-error statistics with per-failure-class attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerCounter {
    sent: u64,
    ok: u64,
    /// Frame never detected / sync failed.
    sync_failures: u64,
    /// SIGNAL field (L-SIG/HT-SIG) decode failures.
    header_failures: u64,
    /// Decoded but FCS mismatch.
    fcs_failures: u64,
}

impl PerCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivered frame.
    pub fn record_ok(&mut self) {
        self.sent += 1;
        self.ok += 1;
    }

    /// Records a detection/synchronization loss.
    pub fn record_sync_failure(&mut self) {
        self.sent += 1;
        self.sync_failures += 1;
    }

    /// Records a SIGNAL-field failure.
    pub fn record_header_failure(&mut self) {
        self.sent += 1;
        self.header_failures += 1;
    }

    /// Records a payload (FCS) failure.
    pub fn record_fcs_failure(&mut self) {
        self.sent += 1;
        self.fcs_failures += 1;
    }

    /// Frames transmitted.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames delivered intact.
    pub fn ok(&self) -> u64 {
        self.ok
    }

    /// Sync-class failures.
    pub fn sync_failures(&self) -> u64 {
        self.sync_failures
    }

    /// Header-class failures.
    pub fn header_failures(&self) -> u64 {
        self.header_failures
    }

    /// FCS-class failures.
    pub fn fcs_failures(&self) -> u64 {
        self.fcs_failures
    }

    /// Packet error rate; 0 when nothing sent.
    pub fn per(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.sent - self.ok) as f64 / self.sent as f64
        }
    }

    /// Goodput in Mb/s given the payload size and PHY rate: successful
    /// payload bits over the airtime of all transmitted frames.
    pub fn goodput_mbps(&self, payload_octets: usize, frame_airtime_us: f64) -> f64 {
        if self.sent == 0 || frame_airtime_us <= 0.0 {
            return 0.0;
        }
        (self.ok as f64 * payload_octets as f64 * 8.0) / (self.sent as f64 * frame_airtime_us)
    }
}

impl Merge for PerCounter {
    fn merge(&mut self, other: &Self) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.sync_failures += other.sync_failures;
        self.header_failures += other.header_failures;
        self.fcs_failures += other.fcs_failures;
    }
}

impl serde::Serialize for PerCounter {
    fn serialize(&self) -> serde::Value {
        serde::Value::object([
            ("sent", self.sent.serialize()),
            ("ok", self.ok.serialize()),
            ("sync_failures", self.sync_failures.serialize()),
            ("header_failures", self.header_failures.serialize()),
            ("fcs_failures", self.fcs_failures.serialize()),
            ("per", self.per().serialize()),
        ])
    }
}

/// Fault-and-recovery instrumentation for chaos experiments: how much
/// damage a fault schedule did and, separately, how the link performed on
/// frames inside versus after the fault window. The headline number is
/// [`Self::post_fault_recovery`] — the fraction of post-window frames
/// delivered intact, the "link comes back when the interference stops"
/// metric the chaos suite asserts on.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryCounter {
    fault_events: u64,
    rescans: u64,
    faulted_sent: u64,
    faulted_ok: u64,
    post_fault_sent: u64,
    post_fault_ok: u64,
}

impl RecoveryCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` injected fault events.
    pub fn record_events(&mut self, n: u64) {
        self.fault_events += n;
    }

    /// Records `n` error-driven receiver re-scans.
    pub fn record_rescans(&mut self, n: u64) {
        self.rescans += n;
    }

    /// Records a frame whose samples overlapped the fault window.
    pub fn record_faulted(&mut self, ok: bool) {
        self.faulted_sent += 1;
        self.faulted_ok += u64::from(ok);
    }

    /// Records a frame transmitted entirely after the fault window.
    pub fn record_post_fault(&mut self, ok: bool) {
        self.post_fault_sent += 1;
        self.post_fault_ok += u64::from(ok);
    }

    /// Injected fault events.
    pub fn fault_events(&self) -> u64 {
        self.fault_events
    }

    /// Receiver re-scans.
    pub fn rescans(&self) -> u64 {
        self.rescans
    }

    /// Frames overlapping the fault window: (sent, delivered).
    pub fn faulted(&self) -> (u64, u64) {
        (self.faulted_sent, self.faulted_ok)
    }

    /// Frames after the fault window: (sent, delivered).
    pub fn post_fault(&self) -> (u64, u64) {
        (self.post_fault_sent, self.post_fault_ok)
    }

    /// Delivered fraction of post-window frames; 1.0 when none were sent
    /// (no post-window traffic means nothing failed to recover).
    pub fn post_fault_recovery(&self) -> f64 {
        if self.post_fault_sent == 0 {
            1.0
        } else {
            self.post_fault_ok as f64 / self.post_fault_sent as f64
        }
    }
}

impl Merge for RecoveryCounter {
    fn merge(&mut self, other: &Self) {
        self.fault_events += other.fault_events;
        self.rescans += other.rescans;
        self.faulted_sent += other.faulted_sent;
        self.faulted_ok += other.faulted_ok;
        self.post_fault_sent += other.post_fault_sent;
        self.post_fault_ok += other.post_fault_ok;
    }
}

impl serde::Serialize for RecoveryCounter {
    fn serialize(&self) -> serde::Value {
        serde::Value::object([
            ("fault_events", self.fault_events.serialize()),
            ("rescans", self.rescans.serialize()),
            ("faulted_sent", self.faulted_sent.serialize()),
            ("faulted_ok", self.faulted_ok.serialize()),
            ("post_fault_sent", self.post_fault_sent.serialize()),
            ("post_fault_ok", self.post_fault_ok.serialize()),
            (
                "post_fault_recovery",
                self.post_fault_recovery().serialize(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_counting() {
        let mut c = BerCounter::new();
        c.compare_bits(&[0, 1, 1, 0], &[0, 1, 0, 0]);
        assert_eq!(c.bits(), 4);
        assert_eq!(c.errors(), 1);
        assert!((c.ber() - 0.25).abs() < 1e-12);
        c.compare_bytes(&[0xFF], &[0x0F]);
        assert_eq!(c.bits(), 12);
        assert_eq!(c.errors(), 5);
    }

    #[test]
    fn ber_empty_and_erased() {
        let c = BerCounter::new();
        assert_eq!(c.ber(), 0.0);
    }

    #[test]
    fn ber_merge() {
        let mut a = BerCounter::new();
        a.compare_bits(&[0, 0], &[1, 0]);
        let mut b = BerCounter::new();
        b.compare_bits(&[1, 1], &[1, 1]);
        a.merge(&b);
        assert_eq!(a.bits(), 4);
        assert_eq!(a.errors(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ber_rejects_misaligned() {
        BerCounter::new().compare_bits(&[0], &[0, 1]);
    }

    #[test]
    fn per_attribution() {
        let mut p = PerCounter::new();
        p.record_ok();
        p.record_ok();
        p.record_sync_failure();
        p.record_header_failure();
        p.record_fcs_failure();
        assert_eq!(p.sent(), 5);
        assert_eq!(p.ok(), 2);
        assert!((p.per() - 0.6).abs() < 1e-12);
        assert_eq!(p.sync_failures(), 1);
        assert_eq!(p.header_failures(), 1);
        assert_eq!(p.fcs_failures(), 1);
    }

    #[test]
    fn goodput() {
        let mut p = PerCounter::new();
        for _ in 0..8 {
            p.record_ok();
        }
        for _ in 0..2 {
            p.record_fcs_failure();
        }
        // 8 of 10 frames × 1500 B over 100 µs airtime each:
        // 8*12000 bits / 1000 µs = 96 Mb/s.
        let g = p.goodput_mbps(1500, 100.0);
        assert!((g - 96.0).abs() < 1e-9);
        assert_eq!(PerCounter::new().goodput_mbps(100, 100.0), 0.0);
    }

    #[test]
    fn recovery_counting_and_merge() {
        let mut r = RecoveryCounter::new();
        assert_eq!(r.post_fault_recovery(), 1.0, "vacuous recovery is 1.0");
        r.record_events(3);
        r.record_rescans(2);
        r.record_faulted(false);
        r.record_faulted(true);
        r.record_post_fault(true);
        r.record_post_fault(true);
        r.record_post_fault(false);
        assert_eq!(r.fault_events(), 3);
        assert_eq!(r.rescans(), 2);
        assert_eq!(r.faulted(), (2, 1));
        assert_eq!(r.post_fault(), (3, 2));
        assert!((r.post_fault_recovery() - 2.0 / 3.0).abs() < 1e-12);
        let mut other = RecoveryCounter::new();
        other.record_post_fault(true);
        r.merge(&other);
        assert_eq!(r.post_fault(), (4, 3));
    }

    #[test]
    fn per_merge() {
        let mut a = PerCounter::new();
        a.record_ok();
        let mut b = PerCounter::new();
        b.record_sync_failure();
        a.merge(&b);
        assert_eq!(a.sent(), 2);
        assert!((a.per() - 0.5).abs() < 1e-12);
    }
}
