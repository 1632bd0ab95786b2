//! Replay determinism — the capture acceptance criterion: a recorded 2x2
//! link replayed through `Receiver::scan` yields bit-identical PSDUs and
//! identical `LinkStats` whether the capture travels through a file or a
//! TCP loopback socket, and matches the direct in-memory scan.

use mimonet::config::RxConfig;
use mimonet::rx::Receiver;
use mimonet_dsp::complex::Complex64;
use mimonet_io::capture::{replay_scan, write_capture, CaptureReader, CaptureWriter};
use mimonet_io::session::{build_link_capture, score_scan};
use mimonet_io::wire::{CaptureMeta, SessionConfig};
use serde::Serialize;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

fn session() -> SessionConfig {
    SessionConfig {
        mcs: 9, // QPSK 1/2, 2 streams
        payload_len: 100,
        n_frames: 4,
        snr_db: 28.0,
        seed: 42,
        ..SessionConfig::default()
    }
}

fn meta(cfg: &SessionConfig, n_ant: usize) -> CaptureMeta {
    CaptureMeta {
        n_ant: n_ant as u16,
        sample_rate_hz: mimonet_io::capture::CAPTURE_SAMPLE_RATE_HZ,
        seed: cfg.seed,
        description: "replay determinism test".into(),
    }
}

/// A pid-suffixed capture file in the temp dir, removed on drop, so a
/// failed assertion leaves nothing behind either.
struct TempCapture(PathBuf);

impl TempCapture {
    fn new(name: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "mimonet_io_replay_{}_{name}.iqcap",
            std::process::id()
        )))
    }
}

impl Drop for TempCapture {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn stats_json(stats: &mimonet::link::LinkStats) -> String {
    serde::json::to_string(&stats.serialize())
}

fn assert_bit_identical(a: &[Vec<Complex64>], b: &[Vec<Complex64>]) {
    assert_eq!(a.len(), b.len(), "antenna count");
    for (sa, sb) in a.iter().zip(b) {
        assert_eq!(sa.len(), sb.len(), "stream length");
        for (x, y) in sa.iter().zip(sb) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}

#[test]
fn file_replay_is_bit_identical_to_direct_scan() {
    let cfg = session();
    let (streams, psdus) = build_link_capture(&cfg).unwrap();
    let n_ant = streams.len();
    assert_eq!(n_ant, 2, "MCS 9 is a 2-stream rate");

    // Reference: direct in-memory scan.
    let rx = Receiver::new(RxConfig::new(n_ant));
    let (ref_frames, ref_scan) = rx.scan(&streams);
    assert!(!ref_frames.is_empty(), "clean capture must decode");
    let ref_stats = score_scan(&psdus, &ref_frames, &ref_scan);
    assert_eq!(ref_stats.per.ok(), cfg.n_frames as u64);

    // Through a capture file.
    let file = TempCapture::new("link_2x2");
    write_capture(&file.0, &meta(&cfg, n_ant), &streams).unwrap();
    let (m, frames, scan) = replay_scan(&file.0, RxConfig::new(n_ant)).unwrap();

    assert_eq!(m.seed, cfg.seed);
    assert_eq!(frames.len(), ref_frames.len());
    for ((off_a, fa), (off_b, fb)) in ref_frames.iter().zip(&frames) {
        assert_eq!(off_a, off_b, "detection offset must replay exactly");
        assert_eq!(fa.psdu, fb.psdu, "PSDU must be bit-identical");
    }
    let stats = score_scan(&psdus, &frames, &scan);
    assert_eq!(
        stats_json(&ref_stats),
        stats_json(&stats),
        "LinkStats must be identical through the file"
    );
}

#[test]
fn tcp_replay_is_bit_identical_to_direct_scan() {
    let cfg = session();
    let (streams, psdus) = build_link_capture(&cfg).unwrap();
    let n_ant = streams.len();
    let rx = Receiver::new(RxConfig::new(n_ant));
    let (ref_frames, ref_scan) = rx.scan(&streams);
    let ref_stats = score_scan(&psdus, &ref_frames, &ref_scan);

    // The same capture stream, but over a TCP loopback socket: the wire
    // format is transport-agnostic by construction.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let m = meta(&cfg, n_ant);
    let send_streams = streams.clone();
    let sender = std::thread::spawn(move || {
        let sock = TcpStream::connect(addr).unwrap();
        let mut w = CaptureWriter::new(sock, &m).unwrap();
        w.write_streams(&send_streams, 1000).unwrap();
        w.finish().unwrap();
    });
    let (sock, _) = listener.accept().unwrap();
    let mut r = CaptureReader::new(sock).unwrap();
    let received = r.read_streams().unwrap();
    sender.join().unwrap();

    assert_bit_identical(&streams, &received);
    let (frames, scan) = rx.scan(&received);
    assert_eq!(frames.len(), ref_frames.len());
    for ((off_a, fa), (off_b, fb)) in ref_frames.iter().zip(&frames) {
        assert_eq!(off_a, off_b);
        assert_eq!(fa.psdu, fb.psdu, "PSDU must be bit-identical over TCP");
    }
    let stats = score_scan(&psdus, &frames, &scan);
    assert_eq!(
        stats_json(&ref_stats),
        stats_json(&stats),
        "LinkStats must be identical through the socket"
    );
}

#[test]
fn truncated_capture_file_is_a_typed_error() {
    let cfg = session();
    let (streams, _psdus) = build_link_capture(&cfg).unwrap();
    let file = TempCapture::new("torn");
    write_capture(&file.0, &meta(&cfg, streams.len()), &streams).unwrap();

    // Tear off the tail (the Bye terminator and then some).
    let bytes = std::fs::read(&file.0).unwrap();
    let kept = bytes.len() - 37;
    std::fs::write(&file.0, &bytes[..kept]).unwrap();

    let err = replay_scan(&file.0, RxConfig::new(streams.len())).unwrap_err();
    match err {
        mimonet_io::wire::WireError::TruncatedCapture { bytes_read } => {
            assert_eq!(
                bytes_read, kept as u64,
                "the typed error must report how much of the capture was readable"
            );
        }
        other => panic!("torn capture must be TruncatedCapture, got {other}"),
    }
}
