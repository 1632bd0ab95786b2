//! Receiver robustness: `scan` must never panic on
//! arbitrary garbage captures — noise, DC, tones, zero-length and
//! single-sample inputs, unequal antenna lengths — and must return in
//! time proportional to the capture size (no header-driven blow-ups, no
//! infinite re-scan loops).

use mimonet::{Receiver, RxConfig};
use mimonet_dsp::complex::Complex64;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Garbage antenna stream: seeded uniform noise with occasional bursts of
/// constant amplitude (plateaus that tease the packet detector's
/// autocorrelation the way a real STF would).
fn garbage(len: usize, seed: u64, scale: f64) -> Vec<Complex64> {
    let mut s = seed | 1;
    (0..len)
        .map(|i| {
            let plateau = splitmix64(&mut s).is_multiple_of(7);
            let unit = |s: &mut u64| (splitmix64(s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if plateau {
                // Repeating value over a short run — periodic-ish energy.
                let v = 0.7 * scale * ((i / 16) % 3) as f64;
                Complex64::new(v, -v)
            } else {
                Complex64::new(scale * unit(&mut s), scale * unit(&mut s))
            }
        })
        .collect()
}

/// Wall-clock ceiling proportional to the capture size: a generous fixed
/// floor plus 1 ms per 100 samples. Garbage this small must come back
/// fast; the bound exists to catch re-scan loops that stop advancing.
fn time_bound(total_samples: usize) -> Duration {
    Duration::from_millis(2_000 + (total_samples as u64) / 100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn receive_all_survives_arbitrary_garbage(
        lens in prop::collection::vec(0usize..6_000, 1..4),
        seed in any::<u64>(),
        scale_milli in 0u32..40_000,
    ) {
        let scale = f64::from(scale_milli) / 1_000.0;
        let rx: Vec<Vec<Complex64>> = lens
            .iter()
            .enumerate()
            .map(|(a, &len)| garbage(len, seed ^ (a as u64) << 32, scale))
            .collect();
        let total: usize = lens.iter().sum();
        // Receiver sized to the actual antenna count, so the scan engages
        // instead of bailing on AntennaMismatch.
        let receiver = Receiver::new(RxConfig::new(rx.len()));
        let start = Instant::now();
        let frames = receiver.scan(&rx).0;
        let elapsed = start.elapsed();
        prop_assert!(
            elapsed < time_bound(total),
            "scan of {} samples took {:?}", total, elapsed
        );
        // Random noise must not decode into frames.
        prop_assert_eq!(frames.len(), 0);
    }

    #[test]
    fn scan_stats_survive_mismatched_antenna_counts(
        n_ant in 1usize..5,
        len in 0usize..2_000,
        seed in any::<u64>(),
    ) {
        // Receiver configured for 2 RX antennas, capture has n_ant: every
        // combination must return cleanly (mismatch ends the scan with a
        // typed error internally, never a panic).
        let rx: Vec<Vec<Complex64>> =
            (0..n_ant).map(|a| garbage(len, seed ^ a as u64, 1.0)).collect();
        let receiver = Receiver::new(RxConfig::new(2));
        let (frames, stats) = receiver.scan(&rx);
        prop_assert_eq!(frames.len(), 0);
        prop_assert_eq!(stats.frames, 0);
    }
}

#[test]
fn degenerate_captures_do_not_panic() {
    let receiver = Receiver::new(RxConfig::new(1));
    // Zero antennas, zero-length, single-sample, two-sample.
    let cases: Vec<Vec<Vec<Complex64>>> = vec![
        vec![],
        vec![vec![]],
        vec![vec![Complex64::new(1.0, -1.0)]],
        vec![vec![Complex64::ZERO; 2]],
        vec![vec![Complex64::new(f64::MAX / 4.0, 0.0); 64]],
        vec![vec![Complex64::new(f64::NAN, f64::NAN); 64]],
    ];
    for rx in &cases {
        let frames = receiver.scan(rx).0;
        assert!(frames.is_empty());
    }
    // Unequal antenna lengths with a 2-antenna receiver.
    let receiver2 = Receiver::new(RxConfig::new(2));
    let rx = vec![garbage(1_000, 9, 1.0), garbage(3, 10, 1.0)];
    assert!(receiver2.scan(&rx).0.is_empty());
}

#[test]
fn all_zero_capture_scans_in_bounded_time() {
    // A long silent capture: detection never fires; the scan must walk
    // the window and stop, not spin.
    let receiver = Receiver::new(RxConfig::new(2));
    let rx = vec![vec![Complex64::ZERO; 200_000]; 2];
    let start = Instant::now();
    let (frames, stats) = receiver.scan(&rx);
    assert!(frames.is_empty());
    assert_eq!(stats.frames, 0);
    assert!(
        start.elapsed() < time_bound(400_000),
        "silent scan took {:?}",
        start.elapsed()
    );
}
