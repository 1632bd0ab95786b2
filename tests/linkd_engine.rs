//! Session engine: per-session output is byte-identical to an
//! in-process run (FrameDecoded stream + LinkStats JSON) no matter how
//! many sessions interleave inside the engine, admission control and
//! token-budget shedding behave deterministically, resumption survives
//! mid-stream resets, and garbage bytes and idle connections past their
//! deadline degrade to typed errors while the engine keeps serving.
//! `tests/linkd_loopback.rs` covers the daemon's default configuration.

use mimonet::{frame_trace_id, lint_prometheus};
use mimonet_io::client::{ClientError, LinkClient, ResilientClient};
use mimonet_io::engine::{EngineConfig, EngineServer};
use mimonet_io::netchaos::{ChaosProxy, FaultClass};
use mimonet_io::resilience::RetryPolicy;
use mimonet_io::session::{corrupted_frames, run_session, Scheduler};
use mimonet_io::wire::{
    read_msg, write_msg, SessionConfig, WireMsg, METRICS_JSON, METRICS_PROMETHEUS, WIRE_VERSION,
};
use proptest::prelude::*;
use serde::Serialize;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        mcs: 8,
        payload_len: 64,
        n_frames: 3,
        snr_db: 30.0,
        seed,
        ..SessionConfig::default()
    }
}

/// Served output of one session against a freshly bound engine.
fn engine_session(c: &SessionConfig) -> mimonet_io::client::SessionResult {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let out = client.run_session(c).unwrap();
    client.close().unwrap();
    drop(server);
    out
}

/// Handshakes a raw socket by hand, leaving it ready for a request.
fn handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut sock = TcpStream::connect(addr).unwrap();
    write_msg(
        &mut sock,
        &WireMsg::Hello {
            version: WIRE_VERSION,
        },
    )
    .unwrap();
    match read_msg(&mut sock).unwrap() {
        WireMsg::Hello { version } => assert_eq!(version, WIRE_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    sock
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The engine's core identity: across MCS presets, payload sizes, SNR
    /// regimes (including lossy ones), and seeds, the engine streams the
    /// same frames and the same LinkStats JSON as the in-process
    /// flowgraph run on the threaded scheduler.
    #[test]
    fn engine_matches_in_process_runs_across_config_space(
        mcs in prop_oneof![Just(0u8), Just(4u8), Just(8u8), Just(12u8)],
        payload_exp in 4u32..10,
        snr_db in prop_oneof![Just(2.0f64), Just(10.0), Just(30.0)],
        seed in 0u64..1_000_000,
    ) {
        let c = SessionConfig {
            mcs,
            payload_len: 1u32 << payload_exp,
            n_frames: 4,
            snr_db,
            seed,
            ..SessionConfig::default()
        };

        let local = run_session(&c, Scheduler::Threaded).unwrap();
        let engine = engine_session(&c);

        prop_assert_eq!(
            &engine.frames, &local.decoded,
            "engine frames must be bit-identical to the in-process run"
        );
        prop_assert_eq!(
            engine.stats_json, serde::json::to_string(&local.stats.serialize()),
            "engine LinkStats JSON must be byte-identical to the in-process run"
        );
    }
}

#[test]
fn concurrent_engine_sessions_are_isolated_and_uncorrupted() {
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            shards: 4,
            compute_workers: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // 32 concurrent clients with distinct seeds: cross-session slot or
    // batch mixups would hand one client another session's PSDUs.
    let n_clients = 32u64;
    let handles: Vec<_> = (0..n_clients)
        .map(|i| {
            std::thread::spawn(move || {
                let c = SessionConfig {
                    n_frames: 8,
                    ..cfg(9000 + i)
                };
                let mut client = LinkClient::connect(addr).unwrap();
                let served = client.run_session(&c).unwrap();
                client.close().unwrap();
                (c, served)
            })
        })
        .collect();

    for h in handles {
        let (c, served) = h.join().unwrap();
        let local = run_session(&c, Scheduler::Threaded).unwrap();
        assert_eq!(
            served.frames, local.decoded,
            "served frames must match the local run (seed {})",
            c.seed
        );
        assert_eq!(
            served.stats_json,
            serde::json::to_string(&local.stats.serialize()),
            "served stats must match the local run (seed {})",
            c.seed
        );
        assert_eq!(
            corrupted_frames(&c, &served.frames),
            0,
            "no PSDU corruption tolerated (seed {})",
            c.seed
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections(), n_clients);
    assert_eq!(stats.sessions_ok(), n_clients);
    assert_eq!(stats.sessions_failed(), 0);
    assert!(
        stats.decode_batches() > 0,
        "the decode plane must run through receive_batch"
    );
    assert!(
        stats.mean_batch_frames() > 1.0,
        "concurrent sessions must actually share decode batches \
         (mean batch size {:.2})",
        stats.mean_batch_frames()
    );
}

#[test]
fn one_engine_connection_runs_sessions_back_to_back() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let a = client.run_session(&cfg(7)).unwrap();
    let b = client.run_session(&cfg(8)).unwrap();
    let c = client.run_session(&cfg(7)).unwrap();
    client.close().unwrap();
    assert_eq!(a.frames, c.frames, "same seed, same session");
    assert_ne!(a.frames, b.frames, "different seed, different PSDUs");
    let local = run_session(&cfg(7), Scheduler::Threaded).unwrap();
    assert_eq!(
        a.stats_json,
        serde::json::to_string(&local.stats.serialize())
    );
    assert_eq!(server.shutdown().sessions_ok(), 3);
}

#[test]
fn traced_and_streaming_sessions_take_the_observed_path() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();

    // Traced session: frames carry the ids both ends mint independently.
    let traced = SessionConfig {
        trace: 0x0B5E_u64,
        ..cfg(41)
    };
    let out = client.run_session(&traced).unwrap();
    assert_eq!(out.frames.len(), 3);
    for f in &out.frames {
        assert_eq!(f.trace, frame_trace_id(traced.trace, f.index));
    }
    #[cfg(not(feature = "telemetry-off"))]
    {
        assert!(!out.trace.is_empty(), "traced session must return events");
    }

    // telemetry_every: floor(9 / 3) = 3 in-order rounds.
    let streaming = SessionConfig {
        n_frames: 9,
        telemetry_every: 3,
        ..cfg(51)
    };
    let out = client.run_session(&streaming).unwrap();
    assert_eq!(
        out.updates.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    for (_, json) in &out.updates {
        assert!(json.starts_with('{'), "round payload is JSON: {json}");
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn bad_config_is_refused_and_the_engine_connection_survives() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let bad = SessionConfig { mcs: 99, ..cfg(1) };
    match client.run_session(&bad) {
        Err(ClientError::Server { kind, give_up, .. }) => {
            assert_eq!(kind, "bad-config");
            assert_eq!(give_up, "give-up-fatal");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let ok = client.run_session(&cfg(1)).unwrap();
    assert_eq!(ok.frames.len(), 3);
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.sessions_failed(), 1);
    assert_eq!(stats.sessions_ok(), 1);
}

#[test]
fn admission_cap_refuses_with_typed_overload() {
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            max_sessions: 0,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    match client.run_session(&cfg(3)) {
        Err(ClientError::Server { kind, give_up, .. }) => {
            assert_eq!(kind, "give-up-overload");
            assert_eq!(give_up, "give-up-overload");
        }
        other => panic!("expected an overload refusal, got {other:?}"),
    }
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.sessions_failed(), 1);
    assert_eq!(stats.active_sessions(), 0, "refusal must release the slot");
}

#[test]
fn shed_threshold_withholds_data_but_streams_control() {
    // shed_threshold = 0: every session sheds its data frames — a
    // deterministic stand-in for "overloaded".
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            shed_threshold: 0,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let c = cfg(61);
    let out = client.run_session(&c).unwrap();
    assert!(
        out.frames.is_empty(),
        "data frames must be withheld under shed"
    );
    assert!(
        !out.stats_json.is_empty(),
        "control (SessionStats) must still flow"
    );
    assert_ne!(out.token, 0, "shed sessions still hand out a resume token");

    // The shed frames stay retrievable: resume streams them all.
    let resumed = client.resume_session(out.token, 0).unwrap();
    let local = run_session(&c, Scheduler::Threaded).unwrap();
    assert_eq!(
        resumed.frames, local.decoded,
        "resume after shed must deliver the full byte-identical stream"
    );
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.shed_frames(), 3);
    assert_eq!(stats.shed_total(), 3);
}

#[test]
fn token_budget_meters_data_frames_and_resume_drains_the_rest() {
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            session_token_budget: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let c = SessionConfig {
        n_frames: 6,
        ..cfg(71)
    };
    let local = run_session(&c, Scheduler::Threaded).unwrap();
    assert_eq!(
        local.decoded.len(),
        6,
        "high-SNR session decodes all frames"
    );

    // Budget 2: the first reply streams exactly 2 frames, sheds 4.
    let first = client.run_session(&c).unwrap();
    assert_eq!(first.frames.len(), 2);
    assert_eq!(&first.frames[..], &local.decoded[..2]);
    assert_eq!(server.stats().shed_total(), 4);
    assert_eq!(
        server.stats().session_tokens(),
        0,
        "both tokens of the budget were spent"
    );

    // Each resume spends a fresh budget until the stream is drained —
    // replay is metered exactly like the original stream. (Raw wire
    // reads: `LinkClient::collect_reply` indexes frames from zero, so a
    // metered mid-stream tail needs the low-level loop.)
    let mut collected = first.frames.clone();
    while collected.len() < 6 {
        let before = collected.len();
        write_msg(
            client.stream_mut(),
            &WireMsg::SessionResume {
                token: first.token,
                next_frame: before as u32,
            },
        )
        .unwrap();
        loop {
            match read_msg(client.stream_mut()).unwrap() {
                WireMsg::SessionAccept { resumed_from, .. } => {
                    assert_eq!(resumed_from, before as u32)
                }
                WireMsg::FrameDecoded(f) => collected.push(f),
                WireMsg::SessionStats { .. } => {}
                WireMsg::Telemetry { .. } => break,
                other => panic!("unexpected resume reply: {other:?}"),
            }
        }
        let got = collected.len() - before;
        assert!(
            (1..=2).contains(&got),
            "every resume delivers 1..=budget frames, got {got}"
        );
    }
    assert_eq!(
        collected, local.decoded,
        "metered replay must reassemble losslessly"
    );
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn resume_dedupes_after_a_mid_stream_chaos_reset() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    // Route the client through a chaos proxy that hard-resets the
    // connection at a deterministic stream offset: the resilient client
    // reconnects and resumes, deduping by frame index. Whether a flow
    // draws a reset, and where, is a pure function of the chaos seed and
    // the flow index. Seed 2 resets a flow after the resume token went
    // out, so the client must resume at least once; under seed 0xC0FFEE,
    // for one, the first flow draws no reset and the session completes
    // without ever resuming.
    let proxy = ChaosProxy::spawn(server.local_addr(), FaultClass::Reset.spec(2, 1.0)).unwrap();
    let c = SessionConfig {
        n_frames: 24,
        payload_len: 256,
        ..cfg(81)
    };
    let policy = RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        sleep_budget: Duration::from_secs(10),
        jitter_salt: 81,
    };
    let mut client = ResilientClient::new(proxy.local_addr(), policy);
    // A reset closes the socket, so healing never waits on this timeout.
    // It must outlast the whole session's compute: `SessionAccept` (and
    // with it the resume token) goes out only once the session is done,
    // which an unoptimized build under parallel tests can take over half
    // a second for; a first attempt that times out restarts fresh.
    client.read_timeout = Duration::from_secs(5);
    let out = client.run(&c).expect("resilient run must complete");
    let local = run_session(&c, Scheduler::Threaded).unwrap();
    assert_eq!(
        out.result.frames, local.decoded,
        "frames deduped across resumes must be byte-identical"
    );
    assert_eq!(
        corrupted_frames(&c, &out.result.frames),
        0,
        "chaos-path frames must still be uncorrupted"
    );
    drop(proxy);
    let stats = server.shutdown();
    assert!(
        out.resumes >= 1,
        "the client never resumed ({} attempts)",
        out.attempts
    );
    assert!(stats.sessions_resumed() >= 1, "the engine served no resume");
}

#[test]
fn engine_metrics_are_lint_clean_and_expose_the_token_plane() {
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            session_token_budget: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    client
        .run_session(&SessionConfig {
            n_frames: 5,
            ..cfg(91)
        })
        .unwrap();

    let (fmt, prom) = client.metrics(METRICS_PROMETHEUS).unwrap();
    assert_eq!(fmt, METRICS_PROMETHEUS);
    assert_eq!(
        lint_prometheus(&prom),
        Vec::<String>::new(),
        "engine exposition must pass its own lint"
    );
    assert!(prom.contains("mimonet_sessions_ok_total 1"));
    assert!(prom.contains("# TYPE linkd_session_tokens gauge"));
    assert!(prom.contains("linkd_session_tokens 0"));
    assert!(prom.contains("# TYPE linkd_shed_total counter"));
    assert!(prom.contains("linkd_shed_total 3"));
    assert!(prom.contains("linkd_decode_batches_total"));

    let (fmt, json) = client.metrics(METRICS_JSON).unwrap();
    assert_eq!(fmt, METRICS_JSON);
    let v = serde::json::from_str(&json).expect("metrics JSON parses");
    match &v {
        serde::Value::Object(fields) => {
            let get = |name: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(get("linkd_shed_total"), Some(serde::Value::U64(3)));
            assert_eq!(get("mimonet_sessions_ok_total"), Some(serde::Value::U64(1)));
        }
        other => panic!("metrics JSON must be an object, got {other:?}"),
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn zero_shards_and_workers_serve_and_report_one_of_each() {
    // The engine always runs at least one shard and one compute worker;
    // its metrics must report those threads, not the zero it was given.
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            shards: 0,
            compute_workers: 0,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.run_session(&cfg(93)).unwrap().frames.len(), 3);

    let (_, json) = client.metrics(METRICS_JSON).unwrap();
    let v = serde::json::from_str(&json).expect("metrics JSON parses");
    let serde::Value::Object(fields) = &v else {
        panic!("metrics JSON must be an object, got {v:?}");
    };
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    assert_eq!(get("linkd_engine_shards"), Some(&serde::Value::U64(1)));
    assert_eq!(
        get("linkd_engine_compute_workers"),
        Some(&serde::Value::U64(1))
    );
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn garbage_bytes_are_a_typed_desync_and_the_engine_survives() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // 12 bytes of garbage = a full (bogus) header: bad magic.
    let mut sock = handshake(addr);
    sock.write_all(b"GARBAGEBYTES").unwrap();
    sock.flush().unwrap();
    match read_msg(&mut sock) {
        Ok(WireMsg::ErrorReport { kind, .. }) => assert_eq!(kind, "transport-desync"),
        other => panic!("expected a typed ErrorReport, got {other:?}"),
    }
    drop(sock);

    let mut client = LinkClient::connect(addr).unwrap();
    assert_eq!(client.run_session(&cfg(5)).unwrap().frames.len(), 3);
    client.close().unwrap();
    let stats = server.shutdown();
    assert!(stats.protocol_errors() >= 1);
    assert_eq!(stats.sessions_ok(), 1);
}

#[test]
fn connection_deadline_is_a_typed_give_up_and_the_engine_survives() {
    let server = EngineServer::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            connection_deadline: Some(Duration::from_millis(150)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Handshake, then stay idle past the budget: the engine closes the
    // connection with a typed give-up instead of waiting forever.
    let mut sock = handshake(addr);
    match read_msg(&mut sock) {
        Ok(WireMsg::ErrorReport { kind, give_up, .. }) => {
            assert_eq!(kind, "give-up-deadline");
            assert_eq!(give_up, "give-up-deadline");
        }
        other => panic!("expected a typed deadline report, got {other:?}"),
    }
    drop(sock);

    // A fresh connection gets a fresh budget and is served.
    let mut client = LinkClient::connect(addr).unwrap();
    assert_eq!(client.health().unwrap().sessions_failed, 0);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.connections(), 2);
    assert_eq!(stats.protocol_errors(), 0);
}
