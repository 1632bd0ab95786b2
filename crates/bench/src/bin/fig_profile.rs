//! P1 — flowgraph profiler: per-block runtime counters, RX-stage timing,
//! and the chaos frame-outcome taxonomy, in one report.
//!
//! Three profiles of the same 2×2 spatial-multiplexing link:
//!
//! 1. **Flowgraph** — the full src→tx→chan→rx→sink graph instrumented
//!    with [`mimonet_runtime::GraphTelemetry`]: per-block work calls,
//!    items in/out, time-in-work, blocked time and buffer high-water
//!    marks, rendered as the per-block table.
//! 2. **RX stages** — per-frame stage timing spans (detect → sync →
//!    SNR est → header → chanest → equalize → FEC) from
//!    [`mimonet::StageProfile`].
//! 3. **Outcome taxonomy** — chaos captures under the harsh fault
//!    schedule with every transmitted frame attributed to exactly one
//!    outcome bucket; the binary asserts 100% attribution.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --bin fig_profile [--quick] [--threads N]
//! ```
//!
//! With `MIMONET_DETERMINISTIC=1` the graph runs on the single-threaded
//! scheduler and every wall-clock field (work/blocked ns, stage ns,
//! `wall_s`, `threads`) is stripped from stdout and the JSON report:
//! what remains — counts, items, high-water marks, outcome taxonomy —
//! is a pure function of the seed, which is what the CI telemetry job
//! diffs against `results/golden/fig_profile.json`.

use mimonet::chaos::{run_chaos_capture_profiled, ChaosConfig};
use mimonet::seedtree::mix;
use mimonet::sweep::Merge;
use mimonet::{
    build_link_flowgraph, LinkConfig, LinkSim, LinkStats, RxCaptureProfile, RxConfig, RxStage,
    StageProfile, TxConfig,
};
use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_channel::{presets, ChannelConfig};
use mimonet_runtime::MessageHub;
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    let mut report = FigureReport::new(
        "fig_profile",
        "2x2 MCS10 link: flowgraph profile, RX-stage timing, outcome taxonomy",
        "outcome index",
        seeds::PROFILE,
        &opts,
    );
    let det = report.is_deterministic();

    // --- 1. Flowgraph profile: the full link inside the runtime ---
    let psdu_len = 90;
    let n_frames = opts.count(60, 6);
    let psdus: Vec<u8> = (0..n_frames * psdu_len).map(|i| (i % 251) as u8).collect();
    let (mut fg, handle, _) = build_link_flowgraph(
        TxConfig::new(10).expect("valid MCS"),
        ChannelConfig::awgn(2, 2, 32.0),
        RxConfig::new(2),
        &psdus,
        psdu_len,
        seeds::PROFILE,
    );
    let tel = fg.instrument();
    println!("# P1: flowgraph profile, {n_frames} frames through src->tx->chan->rx->sink");
    let t0 = Instant::now();
    if det {
        // Deterministic counts for the golden diff: single-threaded
        // scheduler, no cross-thread interleaving in the counters.
        fg.run(&MessageHub::new()).expect("flowgraph run");
    } else {
        fg.run_threaded(Arc::new(MessageHub::new()))
            .expect("flowgraph run");
    }
    let wall = t0.elapsed();
    assert_eq!(handle.bytes(), psdus, "link must deliver every frame");
    let snap = tel.snapshot();
    print!("{}", snap.render_table((!det).then_some(wall)));
    println!();

    // --- 2. RX-stage timing spans ---
    let stage_frames = opts.count(200, 20);
    let mut stages = StageProfile::default();
    let mut stage_stats = LinkStats::default();
    let mut sim = LinkSim::new(
        LinkConfig::new(10, 120, ChannelConfig::awgn(2, 2, 30.0)),
        seeds::PROFILE ^ 0x51A6,
    );
    for _ in 0..stage_frames {
        sim.run_frame_profiled(&mut stage_stats, &mut stages);
    }
    println!("# RX-stage timing over {stage_frames} clean-channel frames at 30 dB");
    if det {
        // Stage call counts are seed-deterministic; the ns column is not.
        for (stage, calls) in RxStage::ALL.iter().zip(stages.calls.iter()) {
            println!("{:<10} {calls:>9}", stage.name());
        }
    } else {
        print!("{}", stages.render_table());
    }
    println!();

    // --- 3. Chaos outcome taxonomy: 100% frame attribution ---
    let captures = opts.count(40, 6);
    let cfg = ChaosConfig::new(
        8,
        6,
        ChannelConfig::awgn(2, 2, 26.0),
        presets::fault_lookup("harsh_mid_capture").expect("registered fault preset"),
    );
    let mut chaos_stats = LinkStats::default();
    let mut cap = RxCaptureProfile::default();
    for t in 0..captures {
        let capture_seed = mix(seeds::PROFILE ^ mix(0x0070_726F_6669 ^ t as u64));
        run_chaos_capture_profiled(&cfg, capture_seed, &mut chaos_stats, &mut cap);
    }
    stages.merge(&cap.stages);
    let sent = chaos_stats.per.sent();
    assert_eq!(
        chaos_stats.outcomes.total(),
        sent,
        "outcome taxonomy must account for every transmitted frame"
    );
    println!("# chaos outcome taxonomy, {captures} faulted captures x 6 frames");
    print!("{}", chaos_stats.outcomes.render_table());
    println!("# attribution: {sent}/{sent} frames (100%)");

    let rows = chaos_stats.outcomes.rows();
    let x: Vec<f64> = (0..rows.len()).map(|i| i as f64).collect();
    let y: Vec<f64> = rows.iter().map(|(_, c)| *c as f64).collect();
    report.series_with_points("frame outcomes", &x, &y, vec![chaos_stats.serialize()]);
    report.meta("outcome_labels", Value::array(rows.iter().map(|(n, _)| *n)));

    report.telemetry(Value::object([
        ("graph", snap.to_value(!det)),
        ("rx_stages", stages.to_value(!det)),
        ("outcomes", chaos_stats.outcomes.serialize()),
    ]));
    report.finish();
}
