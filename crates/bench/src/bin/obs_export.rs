//! `obs_export` — render mimonet trace events as Chrome trace-event
//! JSON (the format Perfetto and `chrome://tracing` load directly).
//!
//! ```text
//! obs_export [--out PATH] [--frames N] [--payload BYTES] [--mcs N]
//!            [--snr DB] [--seed N]                in-process traced session
//! obs_export --live [--chaos [CLASS]]            linkd session over TCP
//! obs_export --capture FILE                      offline .iqcap replay
//! ```
//!
//! Three sources, one output:
//!
//! * **default** — runs one traced link session in-process and exports
//!   its frame-lifecycle events as a single `link` lane (pid 1).
//! * **`--live`** — self-contained client/server run: binds a real
//!   `EngineServer`, optionally routes the connection through a seeded
//!   [`ChaosProxy`] (`--chaos`, default class `drop`), and drives a
//!   [`ResilientClient`] with a client-side collector. The export
//!   carries two lanes — `client` (pid 1) and `linkd` (pid 2) — whose
//!   spans correlate by the trace ids both ends mint independently from
//!   `SessionConfig::trace`; the tool prints how many trace ids appear
//!   on both sides and fails if none do.
//! * **`--capture FILE`** — replays a recorded `.iqcap` through the
//!   offline scan path. A capture carries samples, not timing, so the
//!   timeline always comes from the deterministic virtual-latency
//!   clock.
//!
//! With `MIMONET_DETERMINISTIC=1` every mode uses virtual time and the
//! JSON is byte-stable run to run.

use mimonet::config::RxConfig;
use mimonet::obs::{TraceCollector, TraceProcess, VirtualLatency};
use mimonet::{chrome_trace, frame_trace_id, LinkTracer, TraceEventKind};
use mimonet_bench::seeds;
use mimonet_io::capture::replay_scan;
use mimonet_io::client::ResilientClient;
use mimonet_io::engine::EngineServer;
use mimonet_io::netchaos::{ChaosProxy, FaultClass};
use mimonet_io::resilience::RetryPolicy;
use mimonet_io::session::{run_session_observed, Scheduler, SessionObserver};
use mimonet_io::wire::SessionConfig;
use std::collections::HashSet;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Ring capacity: comfortably above any session this tool runs.
const RING: usize = 64 * 1024;

fn usage() -> ! {
    eprintln!(
        "usage: obs_export [--out PATH] [--frames N] [--payload BYTES] [--mcs N]\n\
         \x20                 [--snr DB] [--seed N] [--live [--chaos [CLASS]]]\n\
         \x20                 [--capture FILE]\n\
         \x20  CLASS: one of latency|bandwidth|corrupt|reorder|drop|partition|reset"
    );
    std::process::exit(2);
}

fn collector(seed: u64) -> Arc<TraceCollector> {
    Arc::new(TraceCollector::from_env(RING, seed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("results/obs_trace.json");
    let mut cfg = SessionConfig {
        mcs: 8,
        payload_len: 64,
        n_frames: 16,
        snr_db: 30.0,
        seed: seeds::OBS,
        trace: seeds::OBS,
        telemetry_every: 0,
    };
    let mut live = false;
    let mut chaos: Option<FaultClass> = None;
    let mut capture: Option<String> = None;

    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--out" => out = val("--out"),
            "--frames" => cfg.n_frames = val("--frames").parse().unwrap_or_else(|_| usage()),
            "--payload" => cfg.payload_len = val("--payload").parse().unwrap_or_else(|_| usage()),
            "--mcs" => cfg.mcs = val("--mcs").parse().unwrap_or_else(|_| usage()),
            "--snr" => cfg.snr_db = val("--snr").parse().unwrap_or_else(|_| usage()),
            "--seed" => {
                let s: u64 = val("--seed").parse().unwrap_or_else(|_| usage());
                cfg.seed = s;
                cfg.trace = s;
            }
            "--live" => live = true,
            "--chaos" => {
                // Optional class operand; bare --chaos means drop.
                let class = match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().unwrap();
                        match FaultClass::ALL.iter().find(|c| c.name() == v.as_str()) {
                            Some(c) => *c,
                            None => {
                                eprintln!("unknown chaos class: {v}");
                                usage();
                            }
                        }
                    }
                    _ => FaultClass::Drop,
                };
                chaos = Some(class);
            }
            "--capture" => capture = Some(val("--capture")),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if capture.is_some() && live {
        eprintln!("--capture and --live are mutually exclusive");
        usage();
    }

    let trace = match (&capture, live) {
        (Some(path), _) => export_capture(path, &cfg),
        (None, true) => export_live(&cfg, chaos),
        (None, false) => export_local(&cfg),
    };

    let json = serde::json::to_string_pretty(&trace);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut f = std::fs::File::create(&out).unwrap_or_else(|e| {
        eprintln!("obs_export: cannot write {out}: {e}");
        std::process::exit(1);
    });
    f.write_all(json.as_bytes())
        .and_then(|()| f.write_all(b"\n"))
        .unwrap_or_else(|e| {
            eprintln!("obs_export: write failed: {e}");
            std::process::exit(1);
        });
    println!("wrote {out} — load it in Perfetto (ui.perfetto.dev) or chrome://tracing");
}

/// Default mode: one traced in-process session, one lane.
fn export_local(cfg: &SessionConfig) -> serde::Value {
    let c = collector(cfg.trace);
    run_session_observed(
        cfg,
        Scheduler::SingleThread,
        SessionObserver {
            tracer: Some(LinkTracer {
                collector: c.clone(),
                root: cfg.trace,
            }),
            on_update: None,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("obs_export: session failed: {e}");
        std::process::exit(1);
    });
    let events = c.events();
    println!(
        "local session: {} events ({} overwritten)",
        events.len(),
        c.dropped()
    );
    chrome_trace(&[TraceProcess {
        pid: 1,
        name: "link",
        events: &events,
    }])
}

/// `--live`: real linkd over TCP (optionally chaos-proxied), two
/// correlated lanes.
fn export_live(cfg: &SessionConfig, chaos: Option<FaultClass>) -> serde::Value {
    let server = EngineServer::bind("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("obs_export: bind failed: {e}");
        std::process::exit(1);
    });
    let proxy = chaos.map(|class| {
        ChaosProxy::spawn(server.local_addr(), class.spec(cfg.seed, 0.5)).unwrap_or_else(|e| {
            eprintln!("obs_export: chaos proxy failed: {e}");
            std::process::exit(1);
        })
    });
    let addr = proxy
        .as_ref()
        .map(|p| p.local_addr())
        .unwrap_or_else(|| server.local_addr());

    let policy = RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        sleep_budget: Duration::from_secs(10),
        jitter_salt: cfg.seed,
    };
    let mut client = ResilientClient::new(addr, policy);
    client.read_timeout = Duration::from_millis(800);
    let c = collector(cfg.trace);
    client.collector = Some(c.clone());
    let outcome = client.run(cfg).unwrap_or_else(|e| {
        eprintln!("obs_export: live session gave up: {e}");
        std::process::exit(1);
    });
    drop(proxy);
    server.shutdown();

    let client_events = c.events();
    let server_events = outcome.result.trace;
    let client_ids: HashSet<u64> = client_events.iter().map(|e| e.trace_id).collect();
    let server_ids: HashSet<u64> = server_events.iter().map(|e| e.trace_id).collect();
    let shared = client_ids.intersection(&server_ids).count();
    println!(
        "live session{}: {} attempts, {} resumes; {} client events, {} server events",
        chaos
            .map(|c| format!(" (chaos: {})", c.name()))
            .unwrap_or_default(),
        outcome.attempts,
        outcome.resumes,
        client_events.len(),
        server_events.len(),
    );
    println!(
        "correlated {shared} trace ids across client and server (of {} frames)",
        cfg.n_frames
    );
    if shared == 0 {
        eprintln!("obs_export: no client<->server correlation — trace propagation broken");
        std::process::exit(1);
    }
    chrome_trace(&[
        TraceProcess {
            pid: 1,
            name: "client",
            events: &client_events,
        },
        TraceProcess {
            pid: 2,
            name: "linkd",
            events: &server_events,
        },
    ])
}

/// `--capture`: offline scan of a recorded capture. No wall clock exists
/// for the original run, so the virtual-latency model supplies the
/// timeline unconditionally.
fn export_capture(path: &str, _cfg: &SessionConfig) -> serde::Value {
    let (meta, frames, stats) = replay_scan(path, RxConfig::new(2)).unwrap_or_else(|e| {
        eprintln!("obs_export: cannot replay capture {path}: {e}");
        std::process::exit(1);
    });
    let c = TraceCollector::deterministic(RING, VirtualLatency::baseline(meta.seed));
    for (i, (offset, _frame)) in frames.iter().enumerate() {
        let t = frame_trace_id(meta.seed, i as u32);
        c.record(t, TraceEventKind::Detect, i as u32, 0, *offset as u64);
        c.record(t, TraceEventKind::FrameOk, i as u32, 0, 0);
    }
    println!(
        "capture {path}: {} antennas, {} frames decoded, {} rescans",
        meta.n_ant,
        frames.len(),
        stats.rescans,
    );
    let events = c.events();
    chrome_trace(&[TraceProcess {
        pid: 1,
        name: "capture-replay",
        events: &events,
    }])
}
