//! Master RNG seeds for every figure and table, in one place.
//!
//! Each experiment binary owns one (occasionally two) master seeds; the
//! sweep engine derives every per-point, per-shard stream from them (see
//! `mimonet::seedtree::shard_seed`). Paired comparisons — e.g. a detector
//! ablation where every arm must see the same channel realizations —
//! share a master seed across arms, so equal point indices draw equal
//! channels. Changing a value here changes that figure's noise
//! realizations and nothing else.

/// F1 — Van de Beek metric traces.
pub const SYNC_METRIC: u64 = 50;
/// F2 — timing lock probability.
pub const SYNC_TIMING: u64 = 1000;
/// F3 — CFO estimation RMSE.
pub const SYNC_CFO: u64 = 77;
/// F4 — channel-estimation MSE.
pub const CHANEST: u64 = 31337;
/// F5 — SNR-estimator accuracy.
pub const SNR_EST: u64 = 4242;
/// F6 — SISO BER waterfalls.
pub const BER_SISO: u64 = 9090;
/// F7 — 2×2 spatial-multiplexing BER (shared by the ZF/MMSE/ML arms).
pub const BER_MIMO: u64 = 555;
/// F7 — the SISO baseline curve.
pub const BER_MIMO_SISO: u64 = 777;
/// F8a — PER vs payload size.
pub const PER_PAYLOAD: u64 = 808;
/// F8b — PER vs MCS.
pub const PER_MCS: u64 = 909;
/// F8c — failure attribution.
pub const PER_ATTRIBUTION: u64 = 1010;
/// F9 — goodput envelope.
pub const THROUGHPUT: u64 = 2020;
/// F10 — STBC vs spatial multiplexing.
pub const STBC_VS_SM: u64 = 314;
/// T1 — MCS table TX throughput measurement.
pub const TABLE_MCS: u64 = 112;
/// T2 — FEC coding gain crossings.
pub const FEC_GAIN: u64 = 3030;
/// A1 — pilot-tracking ablation, CFO sweep (shared by on/off arms).
pub const ABLATION_PILOTS_CFO: u64 = 6060;
/// A1 — pilot-tracking ablation, payload-length sweep.
pub const ABLATION_PILOTS_LEN: u64 = 6161;
/// A2a — fine-timing ablation, clean channel.
pub const ABLATION_FINETIMING_CLEAN: u64 = 7070;
/// A2b — fine-timing ablation, TGn-D.
pub const ABLATION_FINETIMING_TGN: u64 = 7171;
/// A3 — soft-vs-hard Viterbi ablation.
pub const ABLATION_SOFT: u64 = 8080;
/// A5 — Doppler / channel-aging sweep.
pub const DOPPLER: u64 = 2718;
/// R1 — chaos/fault-injection recovery figure.
pub const CHAOS: u64 = 0xFA_0175;
/// P1 — flowgraph profiler / RX-stage timing / outcome taxonomy.
pub const PROFILE: u64 = 0x9821;
/// T4 — I/O subsystem: wire codec, loopback link service, queue policy.
pub const IO: u64 = 0x10C4;
/// N1 — network-scale scenario capacity figure (multi-link goodput).
pub const CAPACITY: u64 = 0xCA9A;
/// R2 — transport resilience under the deterministic chaos proxy.
pub const RESILIENCE: u64 = 0x2E51;
/// O1 — observability: trace plane, SLO monitor, virtual-latency arms.
pub const OBS: u64 = 0x0B5E;
/// S1 — linkd scale bench: the async session engine under `loadgen`
/// (per-client streams derive via `seedtree::trial_seed(seed,
/// CLIENT_TAG, k)`).
pub const LINKD_SCALE: u64 = 0x005C_A1E0;
