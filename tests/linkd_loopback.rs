//! `mimonet-linkd` loopback against the daemon as `serve` starts it (an
//! `EngineServer` at its default config): concurrent served sessions
//! agree byte-for-byte with local runs, per-session telemetry flows back,
//! and transport faults (truncated requests, mid-session disconnects)
//! degrade to typed errors while the daemon keeps serving.

use mimonet::{frame_trace_id, lint_prometheus};
use mimonet_io::client::{ClientError, LinkClient};
use mimonet_io::engine::EngineServer;
use mimonet_io::session::{run_session, Scheduler};
use mimonet_io::wire::{
    encode, read_msg, write_msg, SessionConfig, WireMsg, METRICS_JSON, METRICS_PROMETHEUS,
    WIRE_VERSION,
};
use serde::Serialize;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn local_stats_json(c: &SessionConfig) -> String {
    let out = run_session(c, Scheduler::Threaded).unwrap();
    serde::json::to_string(&out.stats.serialize())
}

#[test]
fn concurrent_sessions_match_local_runs() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // 5 concurrent clients, each with a *different* seed: cross-session
    // corruption would make some client see another session's PSDUs.
    let n_clients = 5u64;
    let handles: Vec<_> = (0..n_clients)
        .map(|i| {
            std::thread::spawn(move || {
                let c = cfg(1000 + i);
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
            "served frames must be bit-identical to the local run (seed {})",
            c.seed
        );
        assert_eq!(
            served.stats_json,
            serde::json::to_string(&local.stats.serialize()),
            "served LinkStats must match the local run (seed {})",
            c.seed
        );
        // Per-session telemetry: untraced sessions run on the engine's
        // direct executor, which reports this session's execution shape
        // (it has no flowgraph blocks to snapshot).
        assert!(served.telemetry_json.contains("\"engine-direct\""));
        assert!(served.telemetry_json.contains("\"frames\":3"));
        assert!(served.telemetry_json.contains("\"blocks\""));
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections(), n_clients);
    assert_eq!(stats.sessions_ok(), n_clients);
    assert_eq!(stats.sessions_failed(), 0);
}

#[test]
fn one_connection_can_run_sessions_back_to_back() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let a = client.run_session(&cfg(7)).unwrap();
    let b = client.run_session(&cfg(8)).unwrap();
    let c = client.run_session(&cfg(7)).unwrap();
    client.close().unwrap();
    assert_eq!(a.frames, c.frames, "same seed, same session");
    assert_ne!(a.frames, b.frames, "different seed, different PSDUs");
    assert_eq!(a.stats_json, local_stats_json(&cfg(7)));
    assert_eq!(server.shutdown().sessions_ok(), 3);
}

#[test]
fn bad_config_is_refused_and_the_connection_survives() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let bad = SessionConfig { mcs: 99, ..cfg(1) };
    match client.run_session(&bad) {
        Err(ClientError::Server { kind, give_up, .. }) => {
            assert_eq!(kind, "bad-config");
            assert_eq!(
                give_up, "give-up-fatal",
                "a refused config is a give-up the client must not retry"
            );
        }
        other => panic!("expected a typed server refusal, got {other:?}"),
    }
    // Same connection still serves good sessions.
    let ok = client.run_session(&cfg(1)).unwrap();
    assert_eq!(ok.frames.len(), 3);
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.sessions_failed(), 1);
    assert_eq!(stats.sessions_ok(), 1);
}

#[test]
fn truncated_request_is_a_typed_error_and_the_daemon_survives() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Handshake by hand, then send half a message and cut the stream.
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
    let frame = encode(&WireMsg::SessionRequest(cfg(3)));
    sock.write_all(&frame[..frame.len() / 2]).unwrap();
    sock.flush().unwrap();
    // Half-close: the engine sees EOF mid-message = truncation.
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    match read_msg(&mut sock) {
        Ok(WireMsg::ErrorReport { kind, .. }) => assert_eq!(kind, "transport-truncation"),
        other => panic!("expected a typed ErrorReport, got {other:?}"),
    }
    drop(sock);

    // The daemon shrugged it off and keeps serving.
    let mut client = LinkClient::connect(addr).unwrap();
    assert_eq!(client.run_session(&cfg(3)).unwrap().frames.len(), 3);
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors(), 1);
    assert_eq!(stats.sessions_ok(), 1);
}

#[test]
fn garbage_bytes_are_a_typed_desync_and_the_daemon_survives() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut sock = TcpStream::connect(addr).unwrap();
    write_msg(
        &mut sock,
        &WireMsg::Hello {
            version: WIRE_VERSION,
        },
    )
    .unwrap();
    read_msg(&mut sock).unwrap();
    // 12 bytes of garbage = a full (bogus) header: bad magic.
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
}

#[test]
fn mid_session_disconnect_never_kills_the_daemon() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Request a long session (32 frames streamed back), then vanish
    // before the reply: the completion lands on a dead connection.
    {
        let mut sock = TcpStream::connect(addr).unwrap();
        write_msg(
            &mut sock,
            &WireMsg::Hello {
                version: WIRE_VERSION,
            },
        )
        .unwrap();
        read_msg(&mut sock).unwrap();
        let long = SessionConfig {
            n_frames: 32,
            payload_len: 256,
            ..cfg(9)
        };
        write_msg(&mut sock, &WireMsg::SessionRequest(long)).unwrap();
        sock.flush().unwrap();
        // Drop without reading anything back.
    }

    // The session runs and then fails (or, at worst, drains into socket
    // buffers); either way the daemon must still serve new clients.
    let stats = server.stats();
    let deadline = Instant::now() + Duration::from_secs(30);
    while stats.sessions_ok() + stats.sessions_failed() < 1 {
        assert!(
            Instant::now() < deadline,
            "abandoned session never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut client = LinkClient::connect(addr).unwrap();
    assert_eq!(client.run_session(&cfg(9)).unwrap().frames.len(), 3);
    client.close().unwrap();
    let final_stats = server.shutdown();
    assert_eq!(final_stats.connections(), 2);
    assert_eq!(final_stats.sessions_started(), 2);
    assert_eq!(final_stats.active_sessions(), 0);
}

#[test]
fn metrics_probe_serves_lintable_prometheus_and_json() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    client.run_session(&cfg(21)).unwrap();

    let (fmt, prom) = client.metrics(METRICS_PROMETHEUS).unwrap();
    assert_eq!(fmt, METRICS_PROMETHEUS);
    assert_eq!(
        lint_prometheus(&prom),
        Vec::<String>::new(),
        "exposition must pass its own lint"
    );
    assert!(prom.contains("mimonet_sessions_ok_total 1"));
    assert!(prom.contains("# TYPE mimonet_active_sessions gauge"));

    let (fmt, json) = client.metrics(METRICS_JSON).unwrap();
    assert_eq!(fmt, METRICS_JSON);
    let v = serde::json::from_str(&json).expect("metrics JSON parses");
    let get = |name: &str| match &v {
        serde::Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone()),
        _ => None,
    };
    // Both renderings come from one sample set: values must agree.
    assert_eq!(get("mimonet_sessions_ok_total"), Some(serde::Value::U64(1)));
    assert_eq!(get("mimonet_connections_total"), Some(serde::Value::U64(1)));

    // The same connection still serves sessions after a probe.
    assert_eq!(client.run_session(&cfg(21)).unwrap().frames.len(), 3);
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn queue_highwater_resets_per_session() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();

    // A big session fills the reply queue deeper than a small one ever
    // could; without the per-session reset the small session would
    // inherit the big session's mark.
    let big = SessionConfig {
        n_frames: 24,
        ..cfg(31)
    };
    client.run_session(&big).unwrap();
    let big_mark = server.stats().session_queue_highwater();
    assert!(
        big_mark >= 24,
        "24 streamed frames must register in the reply-queue mark, got {big_mark}"
    );

    client.run_session(&cfg(32)).unwrap();
    let small_mark = server.stats().session_queue_highwater();
    assert!(
        small_mark <= 3,
        "the high-water mark must reset per session: got {small_mark} after a 3-frame session \
         (previous session marked {big_mark})"
    );
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn traced_sessions_correlate_client_and_server_by_trace_id() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let traced = SessionConfig {
        trace: 0x0B5E_u64,
        ..cfg(41)
    };
    let out = client.run_session(&traced).unwrap();
    client.close().unwrap();
    server.shutdown();

    // Every decoded frame carries the trace id both ends mint
    // independently from the session's trace root.
    assert_eq!(out.frames.len(), 3);
    for f in &out.frames {
        assert_eq!(f.trace, frame_trace_id(traced.trace, f.index));
    }
    // The server shipped its trace batch, and its events use the same
    // ids (so a client-side export correlates without any id exchange).
    #[cfg(not(feature = "telemetry-off"))]
    {
        assert!(!out.trace.is_empty(), "traced session must return events");
        for f in &out.frames {
            assert!(
                out.trace.iter().any(|e| e.trace_id == f.trace),
                "no server event for frame {} (trace {:#x})",
                f.index,
                f.trace
            );
        }
    }
}

#[test]
fn telemetry_every_streams_one_round_per_threshold() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();
    let streaming = SessionConfig {
        n_frames: 9,
        telemetry_every: 3,
        ..cfg(51)
    };
    let out = client.run_session(&streaming).unwrap();
    client.close().unwrap();
    server.shutdown();

    // floor(9 decoded / every-3) = exactly 3 rounds, in order.
    assert_eq!(
        out.updates.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    for (_, json) in &out.updates {
        assert!(json.starts_with('{'), "round payload is JSON: {json}");
        assert!(json.contains("\"blocks\""));
    }
}

#[test]
fn error_reports_carry_the_session_and_give_up_taxonomy() {
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let mut client = LinkClient::connect(server.local_addr()).unwrap();

    // A resume for a token the server never issued: the typed refusal
    // must name the session it is about, with no give-up (the client is
    // expected to fall back to a fresh request, not abandon the run).
    let bogus = 0xDEAD_BEEF_u64;
    match client.resume_session(bogus, 0) {
        Err(ClientError::Server {
            kind,
            session,
            give_up,
            ..
        }) => {
            assert_eq!(kind, "resume-unknown-token");
            assert_eq!(session, bogus, "the report must name the session");
            assert!(give_up.is_empty(), "unknown token is recoverable");
        }
        other => panic!("expected a typed resume refusal, got {other:?}"),
    }

    // The same connection still serves sessions, and a real session's
    // token resumes cleanly with the session id echoed back.
    let first = client.run_session(&cfg(11)).unwrap();
    assert_ne!(first.token, 0, "served sessions carry a resume token");
    let resumed = client.resume_session(first.token, 0).unwrap();
    assert_eq!(resumed.token, first.token);
    assert_eq!(resumed.frames, first.frames, "idempotent replay");
    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.sessions_ok(), 1);
    assert_eq!(stats.sessions_resumed(), 1);
}
