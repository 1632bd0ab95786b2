//! O1 — the observability plane observing itself: deterministic traces
//! and the SLO monitor's regression sensitivity.
//!
//! Runs the same traced link session twice under the virtual-latency
//! clock — once with the clean [`VirtualLatency::baseline`] model, once
//! with the [`VirtualLatency::regression`] fault preset (~2% of traces
//! pay a 10 ms tail in the FEC stage) — and grades both event streams
//! against [`SloSpec::link_default`]. The headline: the baseline passes
//! every objective while the injected tail breaches exactly the
//! `p99_fec_ns` objective and nothing else. The binary exits nonzero if
//! either verdict is wrong, so the CI golden diff doubles as a monitor
//! self-test.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin fig_obs [--quick]
//! ```
//!
//! Everything here runs on the virtual clock (the collector is
//! explicitly deterministic), so with `MIMONET_DETERMINISTIC=1` the
//! report is byte-identical across runs, machines, and
//! `RUST_TEST_THREADS` settings — the property `results/golden/fig_obs.json`
//! pins.

use mimonet::obs::{SloCounts, SloSpec, TraceCollector, TraceEvent, VirtualLatency};
use mimonet::{LinkTracer, RxStage, TraceEventKind};
use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_io::session::{run_session_observed, Scheduler, SessionObserver};
use mimonet_io::wire::SessionConfig;
use serde::{Serialize, Value};
use std::sync::Arc;

fn session(n_frames: u32) -> SessionConfig {
    SessionConfig {
        mcs: 8,
        payload_len: 64,
        n_frames,
        snr_db: 30.0,
        seed: seeds::OBS,
        trace: seeds::OBS,
        telemetry_every: 0,
    }
}

/// Runs one traced session under `model` and returns its event stream
/// plus delivery counts.
fn run_arm(n_frames: u32, model: VirtualLatency) -> (Vec<TraceEvent>, SloCounts) {
    let cfg = session(n_frames);
    let collector = Arc::new(TraceCollector::deterministic(n_frames as usize * 16, model));
    let out = run_session_observed(
        &cfg,
        Scheduler::SingleThread,
        SessionObserver {
            tracer: Some(LinkTracer {
                collector: collector.clone(),
                root: cfg.trace,
            }),
            on_update: None,
        },
    )
    .expect("observed session");
    let delivered = out.decoded.len() as u64;
    let counts = SloCounts {
        frames_expected: u64::from(cfg.n_frames),
        frames_delivered: delivered,
        drops: u64::from(cfg.n_frames) - delivered,
        resumes: 0,
        attempts: 1,
    };
    (collector.events(), counts)
}

fn p99_ns(events: &[TraceEvent], kind: TraceEventKind) -> f64 {
    let mut durs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns)
        .collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.sort_unstable();
    durs[(durs.len() - 1) * 99 / 100] as f64
}

fn main() {
    let opts = BenchOpts::from_args();
    let n_frames = opts.count(256, 64) as u32;
    let mut report = FigureReport::new(
        "fig_obs",
        "SLO monitor: per-stage p99 under baseline vs injected-tail virtual latency",
        "RX stage (trace-event code)",
        seeds::OBS,
        &opts,
    );

    println!("# O1: traced sessions on the virtual clock, {n_frames} frames/arm");
    let spec = SloSpec::link_default();

    let (base_events, base_counts) = run_arm(n_frames, VirtualLatency::baseline(seeds::OBS));
    let base_slo = spec.evaluate(&base_events, &base_counts);

    // 10 ms tail: past any sane p99 bound. The regression salt is chosen
    // so the preset's 1-in-50 selection lands more than 1% of traces in
    // both the --quick (64-frame) and full (256-frame) arms — i.e. the
    // tail actually reaches the p99 order statistic instead of hiding
    // above it.
    let inflate_ns = 10_000_000;
    let (reg_events, reg_counts) = run_arm(
        n_frames,
        VirtualLatency::regression(seeds::OBS ^ 13, TraceEventKind::Fec, inflate_ns),
    );
    let reg_slo = spec.evaluate(&reg_events, &reg_counts);

    // The RX stages the SLO monitor bounds, lifecycle order.
    let stages = RxStage::ALL.map(TraceEventKind::of_stage);
    let x: Vec<f64> = stages.iter().map(|k| k.code() as f64).collect();
    let base_p99: Vec<f64> = stages.iter().map(|&k| p99_ns(&base_events, k)).collect();
    let reg_p99: Vec<f64> = stages.iter().map(|&k| p99_ns(&reg_events, k)).collect();
    for (i, k) in stages.iter().enumerate() {
        println!(
            "{:<10} p99 baseline {:>12.0} ns   regression {:>12.0} ns",
            k.name(),
            base_p99[i],
            reg_p99[i]
        );
    }
    println!(
        "baseline SLO: {}   regression SLO: {}",
        if base_slo.passed() { "PASS" } else { "FAIL" },
        if reg_slo.passed() {
            "pass (BUG)"
        } else {
            "FLAGGED"
        },
    );

    report.series("baseline p99 ns", &x, &base_p99);
    report.series("regression p99 ns", &x, &reg_p99);
    report.meta("slo_baseline", base_slo.to_value());
    report.meta("slo_regression", reg_slo.to_value());
    report.meta("events_baseline", (base_events.len() as u64).serialize());
    report.meta("events_regression", (reg_events.len() as u64).serialize());
    report.meta("inflate_ns", inflate_ns.serialize());
    report.meta(
        "breached_objectives",
        Value::Array(
            reg_slo
                .breaches()
                .iter()
                .map(|o| Value::Str(o.objective.clone()))
                .collect(),
        ),
    );
    report.finish();

    // The monitor self-test: wrong verdict on either arm is a hard
    // failure, not a quiet data point.
    assert!(
        base_slo.passed(),
        "baseline must satisfy the default link SLO: {:?}",
        base_slo.breaches()
    );
    assert!(
        !reg_slo.passed(),
        "the injected FEC tail must breach the p99 objective"
    );
    assert!(
        reg_slo
            .breaches()
            .iter()
            .all(|o| o.objective == "p99_fec_ns"),
        "only the injected stage may breach: {:?}",
        reg_slo.breaches()
    );
}
