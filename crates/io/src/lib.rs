//! # mimonet-io
//!
//! Streaming sample transport and link services for MIMONet-rs — the
//! boundary where the in-process flowgraph meets files, sockets, and
//! other processes:
//!
//! * [`wire`] — versioned, length-prefixed, CRC-checked wire codec for
//!   IQ chunks, decoded frames, and link-service control messages; every
//!   malformation decodes to a typed [`wire::WireError`], never a panic.
//! * [`capture`] — SigMF-style `.iqcap` capture files on top of the wire
//!   codec: record a multi-antenna receive once, replay it bit-exactly
//!   through `Receiver::scan` forever.
//! * [`queue`] — bounded MPMC queue with explicit overflow policy and
//!   always-on drop accounting, the backpressure primitive under the
//!   network sources.
//! * [`net`] — TCP/UDP source and sink blocks for `mimonet-runtime`
//!   flowgraphs, with reconnect-with-backoff on the TCP client side and
//!   transport faults mapped onto the PR-2 fault taxonomy
//!   (`transport-truncation` / `transport-crc` / `transport-desync` /
//!   `transport-disconnect`).
//! * [`session`] — seeded, scoreable link sessions: the shared substrate
//!   that makes in-process runs, daemon-served runs, and capture replays
//!   comparable field-for-field.
//! * [`engine`] / [`client`] — the `mimonet-linkd` session engine
//!   (poll-driven I/O shards plus a compute plane that batches FEC
//!   across sessions; concurrent clients fully isolated, crash-cut
//!   sessions resumable by token) and its client library, including the
//!   policy-driven [`client::ResilientClient`].
//! * [`resilience`] — the unified give-up taxonomy: [`resilience::Deadline`],
//!   jittered [`resilience::RetryPolicy`] with a hard sleep budget, and a
//!   [`resilience::CircuitBreaker`] with half-open probing.
//! * [`netchaos`] — deterministic in-process network chaos proxy: a
//!   TCP/UDP man-in-the-middle whose latency, bandwidth caps, corruption,
//!   reordering, drops, partitions, and resets are pure functions of
//!   (seed, flow, direction, byte-offset window) — the soak suite's
//!   fault injector.

pub mod capture;
pub mod client;
pub mod engine;
pub mod net;
pub mod netchaos;
pub mod queue;
pub mod resilience;
pub mod session;
pub mod store;
pub mod wire;

pub use capture::{
    read_capture, replay_scan, write_capture, CaptureReader, CaptureWriter, ReplayOutcome,
    DEFAULT_CHUNK_LEN,
};
pub use client::{ClientError, LinkClient, ResilientClient, ResilientOutcome, SessionResult};
pub use engine::{EngineConfig, EngineServer, EngineStats};
pub use net::{
    transport_error, ChunkSource, TcpChunkSink, TcpChunkSource, TransportConfig, TransportStats,
    UdpChunkSink, UdpChunkSource,
};
pub use netchaos::{ChaosProxy, ChaosSpec, ChaosStats, FaultClass, UdpChaosProxy};
pub use queue::{BoundedQueue, OverflowPolicy, PushOutcome, QueueStats, QueueTimeout};
pub use resilience::{CircuitBreaker, Deadline, GiveUp, RetryPolicy};
pub use store::{SessionStore, StoredSession};

pub use session::{
    build_link_capture, corrupted_frames, run_session, score_decoded, score_scan, session_psdus,
    sessions_for_load, validate_config, LinkCapture, Scheduler, SessionError, SessionOutcome,
};
pub use wire::{
    decode, encode, read_msg, read_msg_opt, write_msg, CaptureMeta, DecodedFrame, HealthReport,
    IqChunk, SessionConfig, WireError, WireMsg, WIRE_VERSION,
};
