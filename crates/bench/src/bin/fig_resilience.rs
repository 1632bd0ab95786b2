//! R2 — transport resilience under the deterministic chaos proxy.
//!
//! For every injectable fault class, sweeps the chaos intensity and
//! drives real linkd sessions through a seeded [`ChaosProxy`] with a
//! [`ResilientClient`] (retry policy + circuit breaker + session
//! resumption). The headline: delivered-session completion stays at 1.0
//! across the whole intensity grid while the healing machinery (resumes,
//! extra attempts) absorbs the injected faults — and not one delivered
//! PSDU differs from what the session seed generated.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin fig_resilience [--quick]
//! ```
//!
//! With `MIMONET_DETERMINISTIC=1` the JSON report omits `wall_s` and
//! `threads`; every fault decision is a pure function of
//! (seed, flow, direction, byte window), so the report is then
//! byte-identical across runs and machines.

use mimonet::obs::{SloCounts, SloSpec};
use mimonet_bench::report::FigureReport;
use mimonet_bench::{header, row, seeds, BenchOpts};
use mimonet_io::client::ResilientClient;
use mimonet_io::engine::EngineServer;
use mimonet_io::netchaos::{ChaosProxy, FaultClass};
use mimonet_io::resilience::RetryPolicy;
use mimonet_io::session::corrupted_frames;
use mimonet_io::wire::SessionConfig;
use serde::Value;
use std::time::Duration;

/// Per-(class, intensity) sweep cell.
#[derive(Default)]
struct Cell {
    runs: u64,
    completed: u64,
    corrupted: u64,
    attempts: u64,
    resumes: u64,
}

fn session(seed: u64) -> SessionConfig {
    SessionConfig {
        mcs: 8,
        payload_len: 64,
        n_frames: 3,
        snr_db: 30.0,
        seed,
        ..SessionConfig::default()
    }
}

fn run_cell(class: FaultClass, intensity: f64, n_seeds: u64, master: u64) -> Cell {
    let mut cell = Cell::default();
    for i in 0..n_seeds {
        let seed = mimonet_dsp::seedtree::mix(master ^ mimonet_dsp::seedtree::mix(i));
        let server = EngineServer::bind("127.0.0.1:0").expect("bind linkd");
        let proxy =
            ChaosProxy::spawn(server.local_addr(), class.spec(seed, intensity)).expect("proxy");
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
            sleep_budget: Duration::from_secs(10),
            jitter_salt: seed,
        };
        let mut client = ResilientClient::new(proxy.local_addr(), policy);
        // Generous per-read deadline: long enough that pacing never
        // trips it (keeping attempt counts deterministic), short enough
        // that half-open partitions retry promptly.
        client.read_timeout = Duration::from_millis(800);
        let cfg = session(seed);
        cell.runs += 1;
        if let Ok(out) = client.run(&cfg) {
            cell.completed += 1;
            cell.corrupted += corrupted_frames(&cfg, &out.result.frames);
            cell.attempts += out.attempts as u64;
            cell.resumes += out.resumes as u64;
        }
        drop(proxy);
        server.shutdown();
    }
    cell
}

fn main() {
    let opts = BenchOpts::from_args();
    let n_seeds = opts.count(8, 4) as u64;
    let intensities = [0.25, 0.5, 0.75, 1.0];

    let mut report = FigureReport::new(
        "fig_resilience",
        "session completion vs chaos intensity per fault class",
        "chaos intensity",
        seeds::RESILIENCE,
        &opts,
    );

    println!("# R2: resilient linkd sessions through the chaos proxy, {n_seeds} seeds/point");
    header(&["intensity", "completion", "resumes", "attempts"]);

    let mut corrupted_total = 0u64;
    let mut slo_counts = SloCounts::default();
    for class in FaultClass::ALL {
        println!("# class: {}", class.name());
        let mut completion = Vec::new();
        let mut resumes_total = 0u64;
        let mut attempts_total = 0u64;
        for &intensity in &intensities {
            let cell = run_cell(class, intensity, n_seeds, seeds::RESILIENCE);
            let rate = cell.completed as f64 / cell.runs as f64;
            row(
                intensity,
                &[
                    rate,
                    cell.resumes as f64 / cell.runs as f64,
                    cell.attempts as f64 / cell.runs as f64,
                ],
            );
            completion.push(rate);
            corrupted_total += cell.corrupted;
            resumes_total += cell.resumes;
            attempts_total += cell.attempts;
            let per_run = u64::from(session(0).n_frames);
            slo_counts.frames_expected += cell.runs * per_run;
            slo_counts.frames_delivered += cell.completed * per_run;
            slo_counts.drops += (cell.runs - cell.completed) * per_run;
            slo_counts.resumes += cell.resumes;
            slo_counts.attempts += cell.attempts;
        }
        report.series(
            format!("{} completion", class.name()),
            &intensities,
            &completion,
        );
        report.meta(
            format!("{}_resumes", class.name()),
            Value::U64(resumes_total),
        );
        report.meta(
            format!("{}_attempts", class.name()),
            Value::U64(attempts_total),
        );
    }
    report.meta("corrupted_frames", Value::U64(corrupted_total));

    // SLO verdict over the whole sweep. Resumes are the healing
    // mechanism under injected chaos, not a defect, so the resume-rate
    // objective is deliberately unbounded here; delivery is what the
    // layer promises.
    let slo = SloSpec {
        name: "resilience-sweep".into(),
        p99_stage_ns: vec![],
        max_drop_rate: Some(0.05),
        max_resume_rate: None,
        min_completion: Some(0.95),
    };
    let verdict = slo.evaluate(&[], &slo_counts);
    println!(
        "# SLO {}: {}",
        verdict.name,
        if verdict.passed() { "PASS" } else { "FAIL" }
    );
    report.meta("slo", verdict.to_value());

    println!("# expected shape: completion pinned at (or within one failed seed of)");
    println!("# 1.0 for every class and intensity — retries heal transient faults,");
    println!("# resume tokens heal partitions and resets — with corrupted_frames 0");
    report.finish();
}
