//! System-level integration: spectral occupancy of the transmit waveform,
//! closed-loop rate adaptation, and the streaming multi-frame receiver.

use mimonet::adapt::{RateController, SnrThresholdTable};
use mimonet::link::{LinkConfig, LinkSim};
use mimonet::{Receiver, RxConfig, Transmitter, TxConfig};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::spectrum::{power_in_band, welch_psd};

#[test]
fn tx_waveform_respects_spectral_occupancy() {
    // The 20 MHz HT waveform occupies ±28/64 of the sampling bandwidth;
    // everything outside is OFDM sidelobe leakage only.
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let streams = tx.transmit(&vec![0xC3u8; 800]).unwrap();
    for (a, s) in streams.iter().enumerate() {
        // 256-bin segments put each subcarrier on bin 4k, leaving clear
        // guard bins around DC for the null check.
        let psd = welch_psd(s, 256);
        // Occupied band: 28/64 + transition ≈ 0.47 captures ≥ 97%.
        let inband = power_in_band(&psd, 0.47);
        assert!(inband > 0.97, "antenna {a}: in-band fraction {inband}");
        // DC null: the DC bin is well below the average occupied bin
        // (carriers sit at bins 4, 8, ..., 112 and mirrors).
        let avg_occupied: f64 = (1..=28).map(|k| psd[4 * k] + psd[256 - 4 * k]).sum::<f64>() / 56.0;
        assert!(
            psd[0] < avg_occupied * 0.2,
            "antenna {a}: DC bin {} vs avg occupied {avg_occupied}",
            psd[0]
        );
    }
}

#[test]
fn tx_guard_band_is_quiet() {
    let tx = Transmitter::new(TxConfig::new(15).unwrap());
    let streams = tx.transmit(&vec![0x11u8; 1000]).unwrap();
    let psd = welch_psd(&streams[0], 256);
    // Guard bins (beyond carrier ±28, i.e. bins 120..136 around Nyquist)
    // carry far less than an equal count of occupied bins.
    let guard: f64 = (120..=136).map(|k| psd[k]).sum();
    let occupied: f64 = (1..=17).map(|k| psd[4 * k]).sum();
    assert!(
        guard < occupied * 0.05,
        "guard power {guard} vs occupied sample {occupied}"
    );
}

#[test]
fn closed_loop_rate_adaptation_converges() {
    // Drive the controller with real link outcomes at a fixed channel SNR;
    // it must settle on an MCS that actually delivers while outrunning the
    // most robust rate.
    let snr = 20.0;
    let mut rc = RateController::new(SnrThresholdTable::default_two_stream());
    let mut delivered_payloads = 0usize;
    let mut history = Vec::new();
    for round in 0..20u64 {
        let mcs = rc.current_mcs();
        let cfg = LinkConfig::new(mcs, 500, ChannelConfig::awgn(2, 2, snr));
        let stats = LinkSim::new(cfg, 5_000 + round).run(3);
        let ok = stats.per.ok() == 3;
        if ok {
            delivered_payloads += 3;
        }
        let snr_feedback = if stats.snr_est_db.count() > 0 {
            Some(stats.snr_est_db.mean())
        } else {
            None
        };
        rc.update(ok, snr_feedback);
        history.push(mcs);
    }
    let final_mcs = *history.last().unwrap();
    // At ~17 dB effective per-antenna SNR, MCS11 (16-QAM 1/2, threshold
    // 17 dB on the estimate) is the expected operating point ±1 row.
    assert!(
        (9..=13).contains(&final_mcs),
        "settled at MCS{final_mcs}, history {history:?}"
    );
    assert!(
        final_mcs > 8,
        "must climb above the most robust rate: {history:?}"
    );
    assert!(
        delivered_payloads >= 45,
        "delivered {delivered_payloads}/60"
    );
}

#[test]
fn rate_adaptation_tracks_snr_steps() {
    // SNR drops mid-run: the controller must come back down.
    let mut rc = RateController::new(SnrThresholdTable::default_two_stream());
    for round in 0..10u64 {
        let mcs = rc.current_mcs();
        let cfg = LinkConfig::new(mcs, 300, ChannelConfig::awgn(2, 2, 32.0));
        let stats = LinkSim::new(cfg, 6_100 + round).run(2);
        rc.update(stats.per.ok() == 2, Some(stats.snr_est_db.mean()));
    }
    let high = rc.current_mcs();
    assert!(high >= 13, "high-SNR phase reached MCS{high}");
    for round in 0..6u64 {
        let mcs = rc.current_mcs();
        let cfg = LinkConfig::new(mcs, 300, ChannelConfig::awgn(2, 2, 10.0));
        let stats = LinkSim::new(cfg, 6_200 + round).run(2);
        let fb = if stats.snr_est_db.count() > 0 {
            Some(stats.snr_est_db.mean())
        } else {
            None
        };
        rc.update(stats.per.ok() == 2, fb);
    }
    let low = rc.current_mcs();
    assert!(low <= 9, "after the SNR drop: MCS{low} (was MCS{high})");
}

#[test]
fn streaming_receiver_handles_mixed_quality_capture() {
    // Three frames; the middle one is buried in a deep fade (simulated by
    // zeroing it out) — the scan must still deliver the other two.
    let tx = Transmitter::new(TxConfig::new(8).unwrap());
    let rx = Receiver::new(RxConfig::new(2));
    let psdus: Vec<Vec<u8>> = (1..=3u8).map(|k| vec![k * 17; 80]).collect();
    let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 200]; 2];
    for (i, psdu) in psdus.iter().enumerate() {
        let streams = tx.transmit(psdu).unwrap();
        for (c, s) in capture.iter_mut().zip(&streams) {
            if i == 1 {
                // Deep fade: the frame vanishes.
                c.extend(vec![Complex64::ZERO; s.len()]);
            } else {
                c.extend_from_slice(s);
            }
            c.extend(vec![Complex64::ZERO; 300]);
        }
    }
    let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 28.0), 33);
    let (noisy, _) = sim.apply(&capture);
    let frames = rx.scan(&noisy).0;
    let payloads: Vec<&Vec<u8>> = frames.iter().map(|(_, f)| &f.psdu).collect();
    assert_eq!(payloads.len(), 2, "got {} frames", payloads.len());
    assert_eq!(payloads[0], &psdus[0]);
    assert_eq!(payloads[1], &psdus[2]);
}
