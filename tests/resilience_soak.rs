//! Resilience soak: every injectable fault class, driven through the
//! deterministic chaos proxy in front of a real `mimonet-linkd`, must
//! end with the client holding the exact PSDUs the session seed says it
//! should — completed directly or healed through token resumption, but
//! never silently corrupted.
//!
//! The per-run outcome report (class, seed, completed, frames,
//! corrupted) is a pure function of the seeds; set
//! `MIMONET_SOAK_REPORT=<path>` to write it out, and CI diffs the file
//! across `RUST_TEST_THREADS=1` and `=8` runs to pin that claim.

use mimonet_io::client::ResilientClient;
use mimonet_io::engine::EngineServer;
use mimonet_io::netchaos::{ChaosProxy, FaultClass};
use mimonet_io::resilience::RetryPolicy;
use mimonet_io::session::corrupted_frames;
use mimonet_io::wire::SessionConfig;
use std::fmt::Write as _;
use std::time::Duration;

const SEEDS: u64 = 8;
const INTENSITY: f64 = 1.0;

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

/// One (class, seed) cell of the soak matrix.
struct RunReport {
    class: &'static str,
    seed: u64,
    completed: bool,
    frames: u64,
    corrupted: u64,
    resumes: u32,
}

fn soak_one(class: FaultClass, seed: u64) -> RunReport {
    // Fresh server and proxy per run: the proxy's flow counter restarts
    // at zero, so the fault schedule this run sees depends only on the
    // chaos seed — not on which runs came before it.
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let proxy = ChaosProxy::spawn(server.local_addr(), class.spec(seed, INTENSITY)).unwrap();

    let policy = RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        sleep_budget: Duration::from_secs(10),
        jitter_salt: seed,
    };
    let mut client = ResilientClient::new(proxy.local_addr(), policy);
    // Half-open partitions freeze the reply stream without closing the
    // socket; the per-read deadline is what turns that into a retry.
    client.read_timeout = Duration::from_millis(250);

    let session = cfg(seed);
    let report = match client.run(&session) {
        Ok(out) => RunReport {
            class: class.name(),
            seed,
            completed: true,
            frames: out.result.frames.len() as u64,
            corrupted: corrupted_frames(&session, &out.result.frames),
            resumes: out.resumes,
        },
        Err(_) => RunReport {
            class: class.name(),
            seed,
            completed: false,
            frames: 0,
            corrupted: 0,
            resumes: 0,
        },
    };
    drop(proxy);
    server.shutdown();
    report
}

#[test]
fn every_fault_class_soaks_clean() {
    let mut reports = Vec::new();
    for class in FaultClass::ALL {
        for seed in 0..SEEDS {
            reports.push(soak_one(class, seed));
        }
    }
    reports.sort_by(|a, b| (a.class, a.seed).cmp(&(b.class, b.seed)));

    let mut text = String::new();
    for r in &reports {
        writeln!(
            text,
            "class={} seed={} completed={} frames={} corrupted={}",
            r.class, r.seed, r.completed, r.frames, r.corrupted
        )
        .unwrap();
    }
    if let Ok(path) = std::env::var("MIMONET_SOAK_REPORT") {
        std::fs::write(&path, &text).unwrap();
    }

    let total = reports.len() as u64;
    let completed = reports.iter().filter(|r| r.completed).count() as u64;
    let corrupted: u64 = reports.iter().map(|r| r.corrupted).sum();
    let resumes: u32 = reports.iter().map(|r| r.resumes).sum();

    // Zero tolerance for silent corruption: every delivered frame must
    // byte-match the PSDU its session seed generated for that index.
    assert_eq!(corrupted, 0, "corrupted PSDUs slipped through:\n{text}");
    for r in reports.iter().filter(|r| r.completed) {
        assert_eq!(
            r.frames, 3,
            "class={} seed={} completed with missing frames",
            r.class, r.seed
        );
    }
    // >= 95% of runs complete despite the faults (resume does the
    // heavy lifting for partitions and resets).
    assert!(
        completed * 100 >= total * 95,
        "only {completed}/{total} runs completed:\n{text}"
    );
    // The healing path must actually exercise: partitions and resets at
    // intensity 1.0 cut flows on most seeds, so at least one run must
    // have finished by resuming a cut session.
    assert!(
        resumes > 0,
        "no run resumed a cut session — the chaos never bit:\n{text}"
    );
}

#[test]
fn clean_chaos_spec_is_transparent_end_to_end() {
    // The control arm: a zero-fault proxy in the path changes nothing.
    let server = EngineServer::bind("127.0.0.1:0").unwrap();
    let proxy = ChaosProxy::spawn(
        server.local_addr(),
        FaultClass::Clean.spec(0xC1EA0, INTENSITY),
    )
    .unwrap();
    let mut client = ResilientClient::new(proxy.local_addr(), RetryPolicy::default());
    let session = cfg(17);
    let out = client.run(&session).unwrap();
    assert_eq!(out.attempts, 1, "clean path needs exactly one attempt");
    assert_eq!(out.resumes, 0);
    assert_eq!(out.result.frames.len(), 3);
    assert_eq!(corrupted_frames(&session, &out.result.frames), 0);
    drop(proxy);
    let stats = server.shutdown();
    assert_eq!(stats.sessions_ok(), 1);
}
