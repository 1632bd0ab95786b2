//! Criterion benchmarks of the whole transceiver: TX chain, RX chain and
//! a full link round trip — the "can this run a 20 MHz stream" question
//! (experiment T3's headline row).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mimonet::{Receiver, RxConfig, RxFrame, RxWorkspace, Transmitter, TxConfig};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;

fn padded_frame(tx: &Transmitter, psdu: &[u8]) -> Vec<Vec<Complex64>> {
    let mut streams = tx.transmit(psdu).expect("valid PSDU");
    for s in &mut streams {
        let mut p = vec![Complex64::ZERO; 160];
        p.extend_from_slice(s);
        p.extend(vec![Complex64::ZERO; 80]);
        *s = p;
    }
    streams
}

fn bench_tx(c: &mut Criterion) {
    let mut g = c.benchmark_group("tx_chain");
    for &mcs in &[0u8, 9, 15] {
        let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
        let psdu = vec![0xA5u8; 1000];
        let samples = tx.frame_len(psdu.len()) as u64;
        g.throughput(Throughput::Elements(samples));
        g.bench_with_input(BenchmarkId::new("mcs", mcs), &mcs, |b, _| {
            b.iter(|| tx.transmit(&psdu).unwrap());
        });
    }
    g.finish();
}

fn bench_rx(c: &mut Criterion) {
    let mut g = c.benchmark_group("rx_chain");
    for &mcs in &[9u8, 15] {
        let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
        let psdu = vec![0xA5u8; 1000];
        let streams = padded_frame(&tx, &psdu);
        let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 1);
        let (rx_streams, _) = chan.apply(&streams);
        let rx = Receiver::new(RxConfig::new(2));
        let samples = rx_streams[0].len() as u64;
        g.throughput(Throughput::Elements(samples));
        g.bench_with_input(BenchmarkId::new("mcs", mcs), &mcs, |b, _| {
            b.iter(|| rx.receive(&rx_streams).expect("decodes"));
        });
    }
    g.finish();
}

/// The warmed workspace receiver on a single-frame capture with a
/// realistic idle tail: `receive_into` stops at the end of the frame.
fn bench_rx_workspace(c: &mut Criterion) {
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let psdu = vec![0xA5u8; 500];
    let mut streams = padded_frame(&tx, &psdu);
    for s in &mut streams {
        s.extend(vec![Complex64::ZERO; 16_000]);
    }
    let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 1);
    let (rx_streams, _) = chan.apply(&streams);
    let samples = rx_streams[0].len() as u64;

    let mut g = c.benchmark_group("rx_chain_mcs9_500B");
    g.throughput(Throughput::Elements(samples));
    g.bench_function("workspace", |b| {
        let rx = Receiver::new(RxConfig::new(2));
        let views: Vec<&[Complex64]> = rx_streams.iter().map(|a| a.as_slice()).collect();
        let mut ws = RxWorkspace::new();
        let mut frame = RxFrame::default();
        b.iter(|| {
            rx.receive_into(&views, &mut ws, &mut frame)
                .expect("decodes");
            frame.psdu.len()
        });
    });
    g.finish();
}

/// A multi-frame scan: the window over the rest of the capture is a
/// borrowed view, so no decode attempt copies it.
fn bench_scan(c: &mut Criterion) {
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 200]; 2];
    for k in 0..4usize {
        let psdu: Vec<u8> = (0..220).map(|i| (i + 13 * k) as u8).collect();
        let streams = tx.transmit(&psdu).unwrap();
        for (cap, s) in capture.iter_mut().zip(&streams) {
            cap.extend_from_slice(s);
            cap.extend(vec![Complex64::ZERO; 12_000]);
        }
    }
    let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), 3);
    let (noisy, _) = chan.apply(&capture);
    let samples = noisy[0].len() as u64;

    let mut g = c.benchmark_group("scan_4_frames");
    g.sample_size(20);
    g.throughput(Throughput::Elements(samples));
    g.bench_function("views", |b| {
        let rx = Receiver::new(RxConfig::new(2));
        b.iter(|| {
            let (frames, _) = rx.scan(&noisy);
            assert_eq!(frames.len(), 4);
            frames.len()
        });
    });
    g.finish();
}

fn bench_full_link(c: &mut Criterion) {
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let rx = Receiver::new(RxConfig::new(2));
    let psdu = vec![0x3Cu8; 500];
    c.bench_function("full_link_mcs9_500B", |b| {
        let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 25.0), 2);
        b.iter(|| {
            let streams = padded_frame(&tx, &psdu);
            let (rx_streams, _) = chan.apply(&streams);
            rx.receive(&rx_streams).expect("decodes")
        });
    });
}

criterion_group!(
    benches,
    bench_tx,
    bench_rx,
    bench_rx_workspace,
    bench_scan,
    bench_full_link
);
criterion_main!(benches);
