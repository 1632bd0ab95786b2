//! `mimonet-linkd` — MIMO-OFDM link service daemon and test client.
//!
//! ```text
//! mimonet-linkd serve  [--addr HOST:PORT] [engine knobs]   run the daemon
//! mimonet-linkd client [--addr HOST:PORT] [session knobs] [--assert-local]
//! mimonet-linkd metrics [--addr HOST:PORT] [--format prom|json] [--lint]
//! mimonet-linkd selftest [engine knobs]   loopback smoke: serve + 4 clients
//! ```
//!
//! Session knobs: `--mcs N --frames N --payload BYTES --snr DB --seed N`,
//! or `--scenario FILE --link NAME` to load one link of a scenario file
//! as the session preset (explicit knobs given after it still override).
//! `--assert-local` reruns the same session in-process and exits nonzero
//! unless the served PSDUs and `LinkStats` JSON match byte-for-byte —
//! the CI smoke test's check.
//!
//! The daemon is the event-driven session engine
//! ([`mimonet_io::engine`]): poll-based I/O shards plus a shared compute
//! plane, thousands of concurrent links on a fixed thread set. Engine
//! knobs: `--shards`, `--workers`, `--budget`, `--max-sessions`, and
//! `--shed-threshold`. `selftest` binds it on an ephemeral port, runs 4
//! concurrent sessions, and checks each against the in-process run.
//!
//! `metrics` probes a running daemon over the wire (`MetricsProbe`) and
//! prints the Prometheus text (or JSON) snapshot; `--lint` additionally
//! runs the exposition-format lint and exits nonzero on violations —
//! the CI scrape-compatibility check.

use mimonet_io::client::LinkClient;
use mimonet_io::engine::{EngineConfig, EngineServer};
use mimonet_io::session::{run_session, session_from_scenario, Scheduler};
use mimonet_io::wire::{SessionConfig, METRICS_JSON, METRICS_PROMETHEUS};
use serde::Serialize;

fn usage() -> ! {
    eprintln!(
        "usage: mimonet-linkd serve [--addr HOST:PORT]\n\
         \x20                          [--shards N] [--workers N] [--budget FRAMES]\n\
         \x20                          [--max-sessions N] [--shed-threshold N]\n\
         \x20      mimonet-linkd client [--addr HOST:PORT] [--mcs N] [--frames N]\n\
         \x20                           [--payload BYTES] [--snr DB] [--seed N]\n\
         \x20                           [--scenario FILE --link NAME] [--assert-local]\n\
         \x20      mimonet-linkd metrics [--addr HOST:PORT] [--format prom|json] [--lint]\n\
         \x20      mimonet-linkd selftest [--shards N] [--workers N] [--budget FRAMES]\n\
         \x20                             [--max-sessions N] [--shed-threshold N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    let v = args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {v}");
        usage()
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().map(String::as_str).unwrap_or("");
    let mut addr = "127.0.0.1:7700".to_string();
    let mut cfg = SessionConfig::default();
    let mut assert_local = false;
    let mut format = METRICS_PROMETHEUS;
    let mut lint = false;
    let mut engine_cfg = EngineConfig::default();

    let rest: Vec<String> = argv.iter().skip(1).cloned().collect();

    // Scenario preset first, so explicit knobs can override its fields.
    let mut scenario: Option<String> = None;
    let mut link: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => scenario = Some(parse(&mut it, "--scenario")),
            "--link" => link = Some(parse(&mut it, "--link")),
            _ => {}
        }
    }
    match (&scenario, &link) {
        (Some(path), Some(name)) => {
            cfg = session_from_scenario(std::path::Path::new(path), name).unwrap_or_else(|e| {
                eprintln!("mimonet-linkd: {e}");
                std::process::exit(1);
            });
            println!("scenario preset {path} link {name}: {cfg:?}");
        }
        (None, None) => {}
        _ => {
            eprintln!("--scenario and --link must be given together");
            usage();
        }
    }

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" | "--link" => {
                it.next();
            }
            "--addr" => addr = parse(&mut it, "--addr"),
            "--mcs" => cfg.mcs = parse(&mut it, "--mcs"),
            "--frames" => cfg.n_frames = parse(&mut it, "--frames"),
            "--payload" => cfg.payload_len = parse(&mut it, "--payload"),
            "--snr" => cfg.snr_db = parse(&mut it, "--snr"),
            "--seed" => cfg.seed = parse(&mut it, "--seed"),
            "--assert-local" => assert_local = true,
            "--shards" => engine_cfg.shards = parse(&mut it, "--shards"),
            "--workers" => engine_cfg.compute_workers = parse(&mut it, "--workers"),
            "--budget" => engine_cfg.session_token_budget = parse(&mut it, "--budget"),
            "--max-sessions" => engine_cfg.max_sessions = parse(&mut it, "--max-sessions"),
            "--shed-threshold" => engine_cfg.shed_threshold = parse(&mut it, "--shed-threshold"),
            "--format" => {
                format = match parse::<String>(&mut it, "--format").as_str() {
                    "prom" | "prometheus" => METRICS_PROMETHEUS,
                    "json" => METRICS_JSON,
                    other => {
                        eprintln!("bad value for --format: {other} (want prom|json)");
                        usage();
                    }
                }
            }
            "--lint" => lint = true,
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    match mode {
        "serve" => serve(&addr, engine_cfg),
        "client" => client(&addr, &cfg, assert_local),
        "metrics" => metrics(&addr, format, lint),
        "selftest" => selftest(&cfg, engine_cfg),
        _ => usage(),
    }
}

fn serve(addr: &str, engine_cfg: EngineConfig) {
    // The engine stops when the process dies; bind, report, and park.
    // No signal handling by design (CI backgrounds the daemon and kills
    // it). The bound server must stay in scope: dropping it would join
    // its threads and stop serving.
    let server = EngineServer::bind_with(addr, engine_cfg).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: bind {addr} failed: {e}");
        std::process::exit(1);
    });
    let running = server.config();
    println!(
        "mimonet-linkd: {} shards, {} compute workers, viterbi kernel {}",
        running.shards,
        running.compute_workers,
        mimonet_fec::viterbi::kernel()
    );
    println!("mimonet-linkd: serving on {}", server.local_addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn client(addr: &str, cfg: &SessionConfig, assert_local: bool) {
    let mut c = LinkClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: connect {addr} failed: {e}");
        std::process::exit(1);
    });
    let served = c.run_session(cfg).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: session failed: {e}");
        std::process::exit(1);
    });
    c.close().ok();
    println!(
        "served session: {} frames decoded, stats {}",
        served.frames.len(),
        served.stats_json
    );
    if assert_local {
        let local = run_session(cfg, Scheduler::Threaded).unwrap_or_else(|e| {
            eprintln!("mimonet-linkd: local reference run failed: {e}");
            std::process::exit(1);
        });
        let local_stats = serde::json::to_string(&local.stats.serialize());
        if served.frames != local.decoded || served.stats_json != local_stats {
            eprintln!("mimonet-linkd: served session DIVERGES from local run");
            eprintln!("  served frames: {}", served.frames.len());
            eprintln!("  local  frames: {}", local.decoded.len());
            eprintln!("  served stats: {}", served.stats_json);
            eprintln!("  local  stats: {local_stats}");
            std::process::exit(1);
        }
        println!("assert-local: served == local (frames + LinkStats byte-identical)");
    }
}

fn metrics(addr: &str, format: u8, lint: bool) {
    let mut c = LinkClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: connect {addr} failed: {e}");
        std::process::exit(1);
    });
    let (got_format, body) = c.metrics(format).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: metrics probe failed: {e}");
        std::process::exit(1);
    });
    c.close().ok();
    if got_format != format {
        eprintln!("mimonet-linkd: daemon answered format {got_format}, asked for {format}");
        std::process::exit(1);
    }
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    if lint {
        if format != METRICS_PROMETHEUS {
            eprintln!("mimonet-linkd: --lint applies to --format prom only");
            std::process::exit(2);
        }
        let violations = mimonet::lint_prometheus(&body);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("lint: {v}");
            }
            std::process::exit(1);
        }
        eprintln!("lint: ok ({} lines)", body.lines().count());
    }
}

fn selftest(cfg: &SessionConfig, engine_cfg: EngineConfig) {
    // Bind the engine on an ephemeral port; the reference is the
    // in-process threaded-scheduler run of the same session.
    let server = EngineServer::bind_with("127.0.0.1:0", engine_cfg).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: selftest bind failed: {e}");
        std::process::exit(1);
    });
    let addr = server.local_addr();
    let reference = run_session(cfg, Scheduler::Threaded).unwrap_or_else(|e| {
        eprintln!("mimonet-linkd: selftest local run failed: {e}");
        std::process::exit(1);
    });
    let ref_stats = serde::json::to_string(&reference.stats.serialize());

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let cfg = cfg.clone();
            std::thread::spawn(move || -> Result<_, String> {
                let mut c = LinkClient::connect(addr).map_err(|e| format!("client {i}: {e}"))?;
                let r = c
                    .run_session(&cfg)
                    .map_err(|e| format!("client {i}: {e}"))?;
                c.close().ok();
                Ok(r)
            })
        })
        .collect();
    let mut failures = 0;
    for h in handles {
        match h.join().expect("client thread") {
            Ok(r) => {
                if r.frames != reference.decoded || r.stats_json != ref_stats {
                    eprintln!("selftest: concurrent session diverged from reference");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("selftest: {e}");
                failures += 1;
            }
        }
    }
    let stats = server.shutdown();
    let (ok, failed) = (stats.sessions_ok(), stats.sessions_failed());
    println!(
        "selftest: 4 concurrent sessions, {ok} ok / {failed} failed on the daemon, \
         {failures} divergent"
    );
    if failures > 0 || ok != 4 {
        std::process::exit(1);
    }
}
