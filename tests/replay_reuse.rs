//! Replay buffer reuse: `replay_scan` reads into per-thread buffers that
//! persist across calls.
//!
//! A counting global allocator (tests/support/counting_alloc.rs) wraps
//! `System` and charges only the thread that counts, so the tests here
//! may run side by side. Once warmed, replaying the same streams costs
//! the same allocations whether they were written as 4,096-sample or
//! 256-sample chunks: nothing is allocated per chunk. Replays of
//! captures that differ in length and antenna count, one after another
//! on one thread, each return exactly what `read_capture` +
//! `Receiver::scan` do, so no stale sample survives in the reused
//! buffers.

use mimonet::config::RxConfig;
use mimonet::rx::Receiver;
use mimonet_io::capture::{read_capture, replay_scan, CaptureWriter, CAPTURE_SAMPLE_RATE_HZ};
use mimonet_io::session::build_link_capture;
use mimonet_io::wire::{CaptureMeta, SessionConfig};
use std::path::{Path, PathBuf};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::counted;

fn session(mcs: u8, n_frames: u32, seed: u64) -> SessionConfig {
    SessionConfig {
        mcs,
        payload_len: 100,
        n_frames,
        snr_db: 28.0,
        seed,
        ..SessionConfig::default()
    }
}

/// Writes `cfg`'s link capture to `name` in `chunk_len`-sample chunks.
fn write_link(cfg: &SessionConfig, name: &str, chunk_len: usize) -> PathBuf {
    let (streams, _) = build_link_capture(cfg).unwrap();
    let path = std::env::temp_dir().join(format!(
        "mimonet_replay_reuse_{}_{name}.iqcap",
        std::process::id()
    ));
    let meta = CaptureMeta {
        n_ant: streams.len() as u16,
        sample_rate_hz: CAPTURE_SAMPLE_RATE_HZ,
        seed: cfg.seed,
        description: "replay reuse".into(),
    };
    let mut w = CaptureWriter::create(&path, &meta).unwrap();
    w.write_streams(&streams, chunk_len).unwrap();
    w.finish().unwrap();
    path
}

#[test]
fn warmed_replay_allocates_nothing_per_chunk() {
    let cfg = session(9, 6, 42);
    let coarse = write_link(&cfg, "coarse", 4096);
    let fine = write_link(&cfg, "fine", 256);
    let (_, streams) = read_capture(&fine).unwrap();
    assert!(
        streams[0].len() > 16 * 256,
        "the fine capture must hold many chunks"
    );
    let replay = |path: &Path| {
        let (_, frames, _) = replay_scan(path, RxConfig::new(2)).unwrap();
        assert_eq!(frames.len(), 6);
    };
    // Warm-up: the per-thread buffers grow to the larger file.
    replay(&coarse);
    replay(&fine);
    let per_coarse = counted(|| replay(&coarse));
    let per_fine = counted(|| replay(&fine));
    std::fs::remove_file(&coarse).ok();
    std::fs::remove_file(&fine).ok();
    assert_eq!(
        per_coarse, per_fine,
        "a warmed replay of the same streams must cost the same \
         (allocations, reallocations) in 4096-sample chunks ({per_coarse:?}) \
         as in 256-sample chunks ({per_fine:?})"
    );
}

#[test]
fn reused_buffers_keep_no_stale_samples() {
    let captures = [
        ("long_2x2", session(9, 8, 7)),
        ("short_2x2", session(9, 2, 8)),
        ("siso", session(3, 3, 9)),
        ("short_2x2_again", session(12, 1, 10)),
    ];
    for (name, cfg) in &captures {
        let path = write_link(cfg, name, 1000);
        let (meta, streams) = read_capture(&path).unwrap();
        let rx_cfg = RxConfig::new(streams.len());
        let (want_frames, want_stats) = Receiver::new(rx_cfg.clone()).scan(&streams);
        let (got_meta, got_frames, got_stats) = replay_scan(&path, rx_cfg).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!want_frames.is_empty(), "{name}: the capture must decode");
        assert_eq!(got_meta, meta, "{name}: metadata");
        assert_eq!(
            format!("{got_frames:?}"),
            format!("{want_frames:?}"),
            "{name}: frames"
        );
        assert_eq!(got_stats, want_stats, "{name}: scan stats");
    }
}
