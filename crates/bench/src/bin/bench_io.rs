//! T4 — the I/O subsystem end to end:
//!
//! 1. **codec** — wire-format encode/decode throughput for IQ chunks
//!    (chunks/sec and samples/sec), with a bit-exact round-trip check.
//! 2. **loopback** — a full `mimonet-linkd` session over a TCP loopback
//!    socket: end-to-end frame goodput (payload bits delivered per
//!    wall-clock second) versus the same session run in-process.
//! 3. **queue policy** — drop rate versus bounded-queue depth under a
//!    seeded burst arrival process, for both `DropOldest` and
//!    `DropNewest`; a pure function of the seed, so these curves are the
//!    deterministic golden the CI job diffs.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin bench_io [--quick]
//! ```
//!
//! Writes `results/BENCH_io.json`. With `MIMONET_DETERMINISTIC=1` every
//! wall-clock-derived field (`*_ns`, `*_per_sec`, `goodput_mbps`,
//! `wall_s`, `threads`) is omitted and the report is a pure function of
//! `seeds::IO`.

use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_dsp::complex::Complex64;
use mimonet_io::client::LinkClient;
use mimonet_io::engine::EngineServer;
use mimonet_io::queue::{BoundedQueue, OverflowPolicy};
use mimonet_io::session::{run_session, Scheduler};
use mimonet_io::wire::{decode, encode, IqChunk, SessionConfig, WireMsg};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` mean per-call nanoseconds over `iters` calls.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Section 1: wire-codec throughput on a 2-antenna 4096-sample chunk.
fn bench_codec(det: bool, opts: &BenchOpts) -> Value {
    let chunk_len = 4096usize;
    let n_ant = 2usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seeds::IO);
    let chunk = IqChunk {
        seq: 7,
        samples: (0..n_ant)
            .map(|_| {
                (0..chunk_len)
                    .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                    .collect()
            })
            .collect(),
    };
    let frame = encode(&WireMsg::IqChunk(chunk.clone()));
    let (back, consumed) = decode(&frame).expect("codec round-trip");
    let round_trip_ok =
        consumed == frame.len() && matches!(&back, WireMsg::IqChunk(c) if *c == chunk);

    let mut fields = vec![
        ("chunk_len", chunk_len.serialize()),
        ("n_ant", n_ant.serialize()),
        ("frame_bytes", frame.len().serialize()),
        ("round_trip_ok", round_trip_ok.serialize()),
    ];
    if !det {
        let iters = opts.count(200, 20);
        let msg = WireMsg::IqChunk(chunk);
        let enc_ns = time_ns(3, iters, || {
            black_box(encode(&msg));
        });
        let dec_ns = time_ns(3, iters, || {
            black_box(decode(&frame).unwrap());
        });
        let samples = (chunk_len * n_ant) as f64;
        fields.push(("encode_ns", enc_ns.serialize()));
        fields.push(("decode_ns", dec_ns.serialize()));
        fields.push(("encode_chunks_per_sec", (1e9 / enc_ns).serialize()));
        fields.push(("decode_chunks_per_sec", (1e9 / dec_ns).serialize()));
        fields.push((
            "encode_msamples_per_sec",
            (samples * 1e3 / enc_ns).serialize(),
        ));
        fields.push((
            "decode_msamples_per_sec",
            (samples * 1e3 / dec_ns).serialize(),
        ));
    }
    Value::object(fields)
}

/// Section 2: a served loopback session versus the in-process reference.
fn bench_loopback(det: bool, opts: &BenchOpts) -> Value {
    let cfg = SessionConfig {
        mcs: 9,
        payload_len: 500,
        n_frames: opts.count(16, 2) as u32,
        snr_db: 30.0,
        seed: seeds::IO,
        ..SessionConfig::default()
    };
    let local = run_session(&cfg, Scheduler::Threaded).expect("local session");

    let server = EngineServer::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = LinkClient::connect(server.local_addr()).expect("connect");
    let t0 = Instant::now();
    let served = client.run_session(&cfg).expect("served session");
    let wall = t0.elapsed();
    client.close().ok();
    server.shutdown();

    let matches_local = served.frames == local.decoded;
    let frames_ok = local.stats.per.ok();
    let payload_bits = frames_ok * u64::from(cfg.payload_len) * 8;
    let mut fields = vec![
        ("mcs", cfg.mcs.serialize()),
        ("payload_len", cfg.payload_len.serialize()),
        ("frames_sent", cfg.n_frames.serialize()),
        ("frames_ok", frames_ok.serialize()),
        ("per", local.stats.per.per().serialize()),
        ("matches_local", matches_local.serialize()),
    ];
    if !det {
        let secs = wall.as_secs_f64().max(1e-9);
        fields.push(("wall_s", secs.serialize()));
        fields.push((
            "goodput_mbps",
            (payload_bits as f64 / secs / 1e6).serialize(),
        ));
    }
    Value::object(fields)
}

/// Section 3: drop rate vs queue depth under a seeded bursty producer.
///
/// Each step delivers one chunk; the consumer then drains 0..=2 chunks
/// (seeded). The producer runs hot (mean drain rate ~= arrival rate), so
/// shallow queues shed load and deeper queues absorb the bursts — the
/// depth/drop trade the transport blocks expose. Pure function of the
/// seed: no threads, no clocks.
fn queue_drop_curve(policy: OverflowPolicy, n_chunks: usize) -> (Vec<f64>, Vec<f64>) {
    let depths = [1usize, 2, 4, 8, 16, 32];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &depth in &depths {
        let q = BoundedQueue::new(depth, policy);
        let mut rng = ChaCha8Rng::seed_from_u64(seeds::IO ^ depth as u64);
        for seq in 0..n_chunks as u64 {
            q.push(seq);
            for _ in 0..rng.gen_range(0..3u32) {
                q.try_pop();
            }
        }
        xs.push(depth as f64);
        ys.push(q.stats().dropped() as f64 / n_chunks as f64);
    }
    (xs, ys)
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut report = FigureReport::new(
        "BENCH_io",
        "I/O subsystem: wire codec throughput, linkd loopback goodput, queue drop rate vs depth",
        "queue depth (chunks)",
        seeds::IO,
        &opts,
    );
    let det = report.is_deterministic();

    println!("# T4: I/O subsystem bench");
    let codec = bench_codec(det, &opts);
    println!("codec: {}", serde::json::to_string(&codec));
    let loopback = bench_loopback(det, &opts);
    println!("loopback: {}", serde::json::to_string(&loopback));

    // The deterministic curves: drop rate vs depth per policy.
    let n_chunks = 10_000;
    let (x_old, y_old) = queue_drop_curve(OverflowPolicy::DropOldest, n_chunks);
    let (x_new, y_new) = queue_drop_curve(OverflowPolicy::DropNewest, n_chunks);
    println!("drop_rate_vs_depth (DropOldest): {y_old:?}");
    println!("drop_rate_vs_depth (DropNewest): {y_new:?}");
    assert!(
        y_old.windows(2).all(|w| w[1] <= w[0]),
        "drop rate must not rise with queue depth"
    );

    report.series("drop_rate_drop_oldest", &x_old, &y_old);
    report.series("drop_rate_drop_newest", &x_new, &y_new);
    report.meta("codec", codec);
    report.meta("loopback", loopback);
    report.meta("queue_chunks", n_chunks.serialize());
    report.finish();
}
