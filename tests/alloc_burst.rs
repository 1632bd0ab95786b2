//! Allocation pin for burst generation.
//!
//! A counting global allocator (tests/support/counting_alloc.rs) wraps
//! `System`. After one warm-up burst, generating a second
//! `bulk_mimo`-shaped burst (MCS 15, 1500 B PSDU, identity AWGN at
//! 34 dB) must perform **zero** heap allocations, both through the two
//! halves (`Transmitter::transmit_into` + `ChannelSim::apply_into`) and
//! through `burst::generate`, which every link simulation composes them
//! with.

use mimonet::blocks::{LEAD_IN, LEAD_OUT};
use mimonet::burst::{self, BurstScratch};
use mimonet::config::TxConfig;
use mimonet::tx::Transmitter;
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::counted;

#[test]
fn warmed_burst_generation_allocates_nothing() {
    let psdu: Vec<u8> = (0..1500u32).map(|i| (i * 7 + 3) as u8).collect();
    let tx = Transmitter::new(TxConfig::new(15).unwrap());
    let awgn = ChannelConfig::awgn(2, 2, 34.0);
    let burst_len = LEAD_IN + tx.frame_len(psdu.len()) + LEAD_OUT;

    // The two halves, into buffers the caller keeps.
    let mut chan = ChannelSim::new(awgn.clone(), 7);
    let mut tx_bufs: Vec<Vec<Complex64>> = vec![Vec::new(); 2];
    let mut rx_bufs: Vec<Vec<Complex64>> = vec![Vec::new(); 2];
    let mut halves = || {
        for b in &mut tx_bufs {
            b.clear();
            b.resize(LEAD_IN, Complex64::ZERO);
        }
        tx.transmit_into(&psdu, LEAD_OUT, &mut tx_bufs).unwrap();
        let truth = chan.apply_into(&tx_bufs, &mut rx_bufs);
        assert!(truth.noise_power > 0.0);
    };
    halves(); // warm-up: buffers grow, process-wide tables are built
    let counts = counted(&mut halves);
    assert_eq!(rx_bufs[0].len(), burst_len);
    assert_eq!(
        counts,
        (0, 0),
        "warmed transmit_into + apply_into must not touch the heap \
         ({} allocations, {} reallocations)",
        counts.0,
        counts.1
    );

    // The composed helper, with its scratch.
    let mut chan = ChannelSim::new(awgn, 8);
    let mut scratch = BurstScratch::default();
    let mut rx = vec![Vec::new(); 2];
    let mut generate = || {
        burst::generate(
            &tx,
            &mut chan,
            std::slice::from_ref(&psdu),
            LEAD_IN,
            LEAD_OUT,
            &mut scratch,
            &mut rx,
        )
        .unwrap();
    };
    generate();
    let counts = counted(&mut generate);
    assert_eq!(rx[0].len(), burst_len);
    assert_eq!(
        counts,
        (0, 0),
        "warmed burst::generate must not touch the heap \
         ({} allocations, {} reallocations)",
        counts.0,
        counts.1
    );
}
