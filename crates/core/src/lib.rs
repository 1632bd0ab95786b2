//! # mimonet
//!
//! The MIMONet MIMO-OFDM spatial-multiplexing transceiver — a Rust
//! reproduction of "MIMO-OFDM spatial multiplexing technique
//! implementation for GNU radio" (Martelli, Kocian, Santi, Gardellin,
//! SRIF '14).
//!
//! * [`tx`] / [`rx`] — the full 802.11n-mixed-format transmit and receive
//!   chains over 1 or 2 spatial streams,
//! * [`config`] — MCS, detector, and receiver-feature knobs,
//! * `link` — the Monte-Carlo link simulator with BER/PER/SNR
//!   instrumentation,
//! * `blocks` — flowgraph block wrappers for the GNU-Radio-like
//!   `mimonet-runtime`,
//! * [`adapt`] — SNR-threshold link adaptation with hysteresis and loss
//!   fallback,
//! * [`sweep`] — the deterministic parallel Monte-Carlo sweep engine
//!   every figure binary runs on,
//! * [`chaos`] — multi-frame captures under seeded fault schedules, with
//!   recovery accounting (the robustness test harness),
//! * [`obs`] — the structured trace plane: typed frame-lifecycle events
//!   in a bounded ring collector, seedtree-minted trace/span ids, SLO
//!   monitors, Prometheus rendering, Chrome-trace export,
//! * [`telemetry`] — RX-stage timing spans and the frame-outcome taxonomy
//!   (every lost frame attributed to a named pipeline stage); pairs with
//!   `mimonet_runtime::telemetry` for per-block scheduler counters,
//! * [`scenario`] — the network-scale scenario engine: K concurrent links
//!   with per-link channel presets, mobility, faults, rate adaptation and
//!   cross-link interference, executed deterministically on [`sweep`],
//! * [`seedtree`] — the canonical seed-derivation tree shared by every
//!   seeded subsystem (re-exported from `mimonet_dsp`).

pub mod adapt;
pub mod blocks;
pub mod chaos;
pub mod config;
pub mod link;
pub mod metrics;
pub mod netfault;
pub mod obs;
pub mod rx;
pub mod scenario;
pub mod sweep;
pub mod telemetry;
pub mod tx;

/// Canonical seed derivations — one tree for sweep points, chaos trials,
/// fault schedules and scenario links. Lives in `mimonet_dsp` so the
/// channel crate can share it; re-exported here as the public face.
pub use mimonet_dsp::seedtree;

pub use adapt::{RateController, SnrThresholdTable};
pub use blocks::{
    build_link_flowgraph, build_link_flowgraph_traced, ChannelBlock, LinkTracer, RxBlock, TxBlock,
};
pub use chaos::{chaos_shard, run_chaos, run_chaos_capture, ChaosConfig};
pub use config::{RxConfig, TxConfig};
pub use link::{LinkConfig, LinkSim, LinkStats};
pub use metrics::{BerCounter, PerCounter, RecoveryCounter};
pub use obs::{
    chrome_trace, frame_trace_id, lint_prometheus, render_prometheus, span_id, MetricKind,
    MetricSample, SloCounts, SloReport, SloSpec, TraceCollector, TraceEvent, TraceEventKind,
    TraceProcess, VirtualLatency,
};
pub use rx::{Receiver, RxBatch, RxError, RxFrame, RxWorkspace, ScanStats, MAX_FRAME_SPAN};
pub use sweep::{run_link, run_link_until_errors, Merge, ShardCtx, SweepResult, SweepSpec};
pub use telemetry::{
    FrameOutcomes, RxCaptureProfile, RxStage, StageClock, StageProfile, STAGE_COUNT,
};
pub use tx::{Transmitter, TxError};
