//! S1 — `loadgen`: scenario-driven load generator for the async session
//! engine.
//!
//! Drives K simulated clients against an in-process [`EngineServer`] and
//! measures how the engine scales:
//!
//! 1. **PHY oracle** — for every distinct link class in the fleet,
//!    record the class's over-the-air `.iqcap` capture once
//!    ([`build_link_capture`] → [`write_capture`]) and replay it through
//!    `Receiver::scan` ([`replay_scan`]): the client side proves the
//!    waveform the daemon will serve decodes end to end before any
//!    socket is opened.
//! 2. **Scale sweep** — for each fleet size N in the sweep, spawn N
//!    concurrent clients (each with its own seedtree-derived session)
//!    and score every delivered PSDU against the seed's expected bytes
//!    ([`corrupted_frames`]): goodput and p99 session latency versus
//!    session count, with a hard zero-corruption assertion.
//! 3. **Overload point** — rerun the largest fleet against an engine
//!    whose per-session token budget is deliberately too small: each
//!    reply streams its first `budget` frames and sheds the rest, exactly
//!    `sum_k(frames_k - budget)` frames, a closed-form drop count the
//!    report asserts and the golden pins.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin loadgen -- \
//!     [--clients K] [--scenario FILE] [--chaos CLASS] [--quick]
//! ```
//!
//! Without `--scenario`, a built-in two-class fleet is used; with one,
//! client k adopts scenario link `k mod links` via
//! [`sessions_for_load`]. Every client's payload stream derives from
//! `seedtree::trial_seed(seed, CLIENT_TAG, k)`, so the fleet is a pure
//! function of the run seed. `--chaos CLASS` routes every client through
//! a deterministic [`ChaosProxy`] (class names as in the soak suite) and
//! switches clients to the resilient retry/resume path.
//!
//! Writes `results/BENCH_linkd_scale.json`. With `MIMONET_DETERMINISTIC=1`
//! all wall-clock fields (goodput, latency percentiles) are omitted and
//! the report is a pure function of `seeds::LINKD_SCALE` (or the
//! scenario seed) — the golden CI diffs.

use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_dsp::seedtree::{trial_seed, CLIENT_TAG};
use mimonet_io::capture::CAPTURE_SAMPLE_RATE_HZ;
use mimonet_io::client::{LinkClient, ResilientClient};
use mimonet_io::engine::{EngineConfig, EngineServer};
use mimonet_io::netchaos::{ChaosProxy, FaultClass};
use mimonet_io::resilience::RetryPolicy;
use mimonet_io::session::{
    build_link_capture, corrupted_frames, score_scan, sessions_for_load, validate_config,
};
use mimonet_io::wire::SessionConfig;
use mimonet_io::{replay_scan, write_capture, CaptureMeta};
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// Chaos intensity used when `--chaos` is given (matches the soak
/// suite's nominal point).
const CHAOS_INTENSITY: f64 = 0.3;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--clients K] [--scenario FILE] [--chaos CLASS] [--budget FRAMES]\n\
         \x20              [--quick|--thorough] [--threads N]\n\
         CLASS: clean|latency|bandwidth|corrupt|reorder|drop|partition|reset"
    );
    std::process::exit(2);
}

fn parse_chaos(name: &str) -> FaultClass {
    match name {
        "clean" => FaultClass::Clean,
        "latency" => FaultClass::Latency,
        "bandwidth" => FaultClass::Bandwidth,
        "corrupt" => FaultClass::Corrupt,
        "reorder" => FaultClass::Reorder,
        "drop" => FaultClass::Drop,
        "partition" => FaultClass::Partition,
        "reset" => FaultClass::Reset,
        other => {
            eprintln!("unknown chaos class: {other}");
            usage();
        }
    }
}

/// The built-in fleet when no scenario file is given: two link classes
/// (2x2 SM bulk data, single-stream short control frames), client k in
/// class `k mod 2`, seeded from its own seedtree branch.
fn builtin_fleet(n_clients: usize) -> Vec<SessionConfig> {
    (0..n_clients)
        .map(|k| {
            let (mcs, payload_len) = if k % 2 == 0 { (8, 192) } else { (2, 64) };
            SessionConfig {
                mcs,
                payload_len,
                n_frames: 6,
                snr_db: 30.0,
                seed: trial_seed(seeds::LINKD_SCALE, CLIENT_TAG, k),
                ..SessionConfig::default()
            }
        })
        .collect()
}

/// The link class a preset belongs to — everything but the per-client
/// seed. One capture oracle runs per distinct class.
fn class_key(cfg: &SessionConfig) -> (u8, u32, u32, u64) {
    (cfg.mcs, cfg.payload_len, cfg.n_frames, cfg.snr_db.to_bits())
}

/// Records each distinct link class to a `.iqcap` under `target/` and
/// replays it through `Receiver::scan`, asserting every frame decodes.
fn capture_oracle(presets: &[SessionConfig]) -> Value {
    let dir = std::path::PathBuf::from("target/loadgen_captures");
    std::fs::create_dir_all(&dir).expect("create capture dir");
    let mut seen: Vec<(u8, u32, u32, u64)> = Vec::new();
    let mut entries = Vec::new();
    for cfg in presets {
        let key = class_key(cfg);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let tx_cfg = validate_config(cfg).expect("fleet preset validates");
        let n_streams = tx_cfg.mcs.n_streams;
        let (streams, psdus) = build_link_capture(cfg).expect("build capture");
        let path = dir.join(format!("class_mcs{}_len{}.iqcap", cfg.mcs, cfg.payload_len));
        let meta = CaptureMeta {
            n_ant: n_streams as u16,
            sample_rate_hz: CAPTURE_SAMPLE_RATE_HZ,
            seed: cfg.seed,
            description: format!("loadgen class mcs={} payload={}", cfg.mcs, cfg.payload_len),
        };
        write_capture(&path, &meta, &streams).expect("write capture");
        let (_, frames, scan) =
            replay_scan(&path, mimonet::config::RxConfig::new(n_streams)).expect("replay capture");
        let stats = score_scan(&psdus, &frames, &scan);
        let ok = stats.per.ok();
        assert_eq!(
            ok,
            u64::from(cfg.n_frames),
            "capture oracle: class mcs={} payload={} lost frames",
            cfg.mcs,
            cfg.payload_len
        );
        println!(
            "oracle: mcs={:2} payload={:3} n_streams={} -> {}/{} frames decoded from replay",
            cfg.mcs, cfg.payload_len, n_streams, ok, cfg.n_frames
        );
        entries.push(Value::object(vec![
            ("mcs", cfg.mcs.serialize()),
            ("payload_len", cfg.payload_len.serialize()),
            ("n_frames", cfg.n_frames.serialize()),
            ("n_streams", n_streams.serialize()),
            ("frames_ok", ok.serialize()),
        ]));
    }
    Value::Array(entries)
}

/// One fleet run's aggregate outcome.
struct FleetOutcome {
    delivered: u64,
    corrupted: u64,
    payload_bits: u64,
    sessions_ok: u64,
    shed_total: u64,
    latencies: Vec<f64>,
    wall: Duration,
    resumes: u64,
}

/// Runs `presets[..n]` concurrently against a fresh engine (optionally
/// through a chaos proxy) and scores every delivered frame.
fn run_fleet(
    presets: &[SessionConfig],
    n: usize,
    engine_cfg: EngineConfig,
    chaos: Option<FaultClass>,
    chaos_seed: u64,
) -> FleetOutcome {
    let server = EngineServer::bind_with("127.0.0.1:0", engine_cfg).expect("bind engine");
    let proxy = chaos.map(|class| {
        ChaosProxy::spawn(server.local_addr(), class.spec(chaos_seed, CHAOS_INTENSITY))
            .expect("spawn chaos proxy")
    });
    let addr = proxy
        .as_ref()
        .map_or_else(|| server.local_addr(), |p| p.local_addr());

    let t0 = Instant::now();
    let handles: Vec<_> = presets[..n]
        .iter()
        .cloned()
        .enumerate()
        .map(|(k, cfg)| {
            std::thread::spawn(move || {
                let t = Instant::now();
                let (frames, resumes) = if chaos.is_some() {
                    let mut c = ResilientClient::new(
                        addr,
                        RetryPolicy {
                            max_attempts: 10,
                            base: Duration::from_millis(5),
                            max_delay: Duration::from_millis(80),
                            sleep_budget: Duration::from_secs(20),
                            jitter_salt: trial_seed(chaos_seed, CLIENT_TAG, k),
                        },
                    );
                    c.read_timeout = Duration::from_millis(500);
                    let out = c.run(&cfg).expect("resilient session");
                    (out.result.frames, u64::from(out.resumes))
                } else {
                    let mut c = LinkClient::connect(addr).expect("connect");
                    let r = c.run_session(&cfg).expect("session");
                    c.close().ok();
                    (r.frames, 0)
                };
                let corrupted = corrupted_frames(&cfg, &frames);
                let bits = frames.len() as u64 * u64::from(cfg.payload_len) * 8;
                (
                    frames.len() as u64,
                    corrupted,
                    bits,
                    t.elapsed().as_secs_f64() * 1e3,
                    resumes,
                )
            })
        })
        .collect();

    let mut out = FleetOutcome {
        delivered: 0,
        corrupted: 0,
        payload_bits: 0,
        sessions_ok: 0,
        shed_total: 0,
        latencies: Vec::with_capacity(n),
        wall: Duration::ZERO,
        resumes: 0,
    };
    for h in handles {
        let (delivered, corrupted, bits, ms, resumes) = h.join().expect("client thread");
        out.delivered += delivered;
        out.corrupted += corrupted;
        out.payload_bits += bits;
        out.latencies.push(ms);
        out.resumes += resumes;
    }
    out.wall = t0.elapsed();
    drop(proxy);
    let stats = server.shutdown();
    out.sessions_ok = stats.sessions_ok();
    out.shed_total = stats.shed_total();
    out
}

/// The p-th percentile (0..=100) of `v` by nearest-rank.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn main() {
    let opts = BenchOpts::from_args();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut clients: Option<usize> = None;
    let mut scenario: Option<String> = None;
    let mut chaos: Option<FaultClass> = None;
    let mut budget: u32 = 2;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => {
                clients = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--scenario" => scenario = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--chaos" => chaos = Some(parse_chaos(it.next().unwrap_or_else(|| usage()))),
            "--budget" => {
                budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--quick" | "--thorough" | "--telemetry" => {}
            "--threads" => {
                it.next();
            }
            other if other.starts_with("--threads=") => {}
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let max_clients = clients.unwrap_or_else(|| opts.count(256, 64));
    let presets = match &scenario {
        Some(path) => sessions_for_load(std::path::Path::new(path), max_clients)
            .expect("scenario fleet derivation"),
        None => builtin_fleet(max_clients),
    };
    let run_seed = presets.first().map_or(seeds::LINKD_SCALE, |c| c.seed);

    let mut report = FigureReport::new(
        "BENCH_linkd_scale",
        "Async session engine under load: goodput, p99 latency and shed frames vs fleet size",
        "concurrent sessions",
        seeds::LINKD_SCALE,
        &opts,
    );
    let det = report.is_deterministic();

    println!("# S1: linkd scale bench ({max_clients} clients max)");
    let oracle = capture_oracle(&presets);

    let engine_cfg = EngineConfig {
        shards: 4,
        compute_workers: if opts.threads > 0 { opts.threads } else { 4 },
        ..EngineConfig::default()
    };

    // Scale sweep: powers of four up to the fleet size.
    let mut sweep: Vec<usize> = [4usize, 16, 64, 256]
        .into_iter()
        .filter(|&s| s < max_clients)
        .collect();
    sweep.push(max_clients);

    let mut xs = Vec::new();
    let mut delivered_y = Vec::new();
    let mut corrupted_y = Vec::new();
    let mut ok_y = Vec::new();
    let mut goodput_y = Vec::new();
    let mut p99_y = Vec::new();
    let mut points = Vec::new();
    for &n in &sweep {
        let mut out = run_fleet(&presets, n, engine_cfg.clone(), chaos, run_seed);
        assert_eq!(
            out.corrupted, 0,
            "fleet of {n}: corrupted PSDUs delivered (seed {run_seed:#x})"
        );
        if chaos.is_none() {
            let expect: u64 = presets[..n].iter().map(|c| u64::from(c.n_frames)).sum();
            assert_eq!(
                out.delivered, expect,
                "fleet of {n}: frames lost without chaos"
            );
            assert_eq!(out.shed_total, 0, "fleet of {n}: unexpected shedding");
        }
        xs.push(n as f64);
        delivered_y.push(out.delivered as f64);
        corrupted_y.push(out.corrupted as f64);
        ok_y.push(out.sessions_ok as f64);
        let mut fields = vec![
            ("sessions", n.serialize()),
            ("frames_delivered", out.delivered.serialize()),
            ("corrupted", out.corrupted.serialize()),
            ("sessions_ok", out.sessions_ok.serialize()),
            ("shed_total", out.shed_total.serialize()),
            ("resumes", out.resumes.serialize()),
        ];
        if det {
            println!(
                "fleet {n:4}: {} frames delivered, {} ok sessions, 0 corrupted",
                out.delivered, out.sessions_ok
            );
        } else {
            let secs = out.wall.as_secs_f64().max(1e-9);
            let goodput = out.payload_bits as f64 / secs / 1e6;
            let p99 = percentile(&mut out.latencies, 99.0);
            goodput_y.push(goodput);
            p99_y.push(p99);
            fields.push(("goodput_mbps", goodput.serialize()));
            fields.push(("p99_ms", p99.serialize()));
            fields.push(("wall_s", secs.serialize()));
            println!(
                "fleet {n:4}: {} frames, {goodput:8.2} Mb/s goodput, p99 {p99:7.1} ms",
                out.delivered
            );
        }
        points.push(Value::object(fields));
    }

    // Overload point: the largest fleet against a starved token budget.
    // Each reply sheds every frame past its budget, so the shed count is
    // closed-form.
    let n_over = *sweep.last().expect("nonempty sweep");
    let over_cfg = EngineConfig {
        session_token_budget: budget,
        ..engine_cfg
    };
    let over = run_fleet(&presets, n_over, over_cfg, None, run_seed);
    let expect_shed: u64 = presets[..n_over]
        .iter()
        .map(|c| u64::from(c.n_frames.saturating_sub(budget)))
        .sum();
    assert_eq!(
        over.shed_total, expect_shed,
        "overload shed count must be closed-form: K x (frames - budget)"
    );
    assert_eq!(over.corrupted, 0, "overload: shed must never corrupt");
    println!(
        "overload: {n_over} clients, budget {budget} -> {} frames shed (expected {expect_shed}), \
         {} delivered, 0 corrupted",
        over.shed_total, over.delivered
    );

    report.series("frames_delivered", &xs, &delivered_y);
    report.series("corrupted_frames", &xs, &corrupted_y);
    report.series("sessions_ok", &xs, &ok_y);
    if !det {
        report.series("goodput_mbps", &xs, &goodput_y);
        report.series("p99_latency_ms", &xs, &p99_y);
    }
    report.meta("points", Value::Array(points));
    report.meta("oracle", oracle);
    report.meta(
        "overload",
        Value::object(vec![
            ("sessions", n_over.serialize()),
            ("budget", budget.serialize()),
            ("expected_shed", expect_shed.serialize()),
            ("shed_total", over.shed_total.serialize()),
            ("frames_delivered", over.delivered.serialize()),
            ("sessions_ok", over.sessions_ok.serialize()),
        ]),
    );
    report.meta(
        "fleet",
        Value::object(vec![
            ("clients", max_clients.serialize()),
            (
                "scenario",
                scenario.as_deref().map_or(Value::Null, |s| s.serialize()),
            ),
            ("chaos", chaos.map_or(Value::Null, |c| c.name().serialize())),
            ("run_seed", run_seed.serialize()),
            ("shards", engine_cfg.shards.serialize()),
        ]),
    );
    report.finish();
}
