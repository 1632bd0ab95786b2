//! `bench_e2e` — the session-level benchmark of the `mimonet-linkd`
//! engine, split by layer.
//!
//! One run drives one workload for a fixed number of seconds, checks
//! every decoded byte against the PSDUs the session seed generates, and
//! prints every metric by name with its unit; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). The engine workloads start an in-process
//! [`mimonet_io::engine::EngineServer`] at its default configuration and
//! reach it only through the wire protocol and
//! [`mimonet_io::engine::EngineStats`].
//!
//! * [`workload`] — the four workloads, their set-up and client loops;
//! * [`layers`] — the metric catalogue and the per-layer probes;
//! * [`wireconn`] — a client connection speaking the wire codec;
//! * [`spans`] — in-memory spans, written out when a traced run ends;
//! * [`stats`] — nearest-rank percentiles, medians and the failure tally;
//! * [`meter`] — process CPU time and peak resident memory;
//! * [`hostspeed`] — the reference kernel that times the host's speed.

pub mod hostspeed;
pub mod layers;
pub mod meter;
pub mod spans;
pub mod stats;
pub mod wireconn;
pub mod workload;
