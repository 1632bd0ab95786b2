//! `mimonet-io::engine` — the event-driven link-session engine behind
//! `mimonet-linkd`.
//!
//! One TCP connection is one client; each `SessionRequest` on it runs
//! one TX→channel→RX link session and streams back
//! `SessionAccept` → `FrameDecoded`* → `SessionStats` → [`Trace`] →
//! `Telemetry` (the terminator), or a single typed `ErrorReport`. Wire
//! faults end the connection with a typed report where the socket still
//! allows one, and the engine keeps serving everyone else. The engine
//! multiplexes thousands of link sessions over a fixed thread set:
//!
//! ```text
//!             ┌───────────┐   round-robin    ┌─────────────────────┐
//!  clients ──▶│ acceptor   │────────────────▶│ shard 0..N           │
//!             │ (poll)     │   inject+wake   │ poll-driven conns    │
//!             └───────────┘                  │ codec state machines │
//!                                            └──────────┬───────────┘
//!                                      admit │ SessionRun│  ▲ completions
//!                                            ▼           │  │ (waker)
//!                                    ┌───────────────────┴──┴──┐
//!                                    │ compute workers 0..M     │
//!                                    │ gen queue ─▶ decode queue│
//!                                    │ cross-session decodes    │
//!                                    └──────────────────────────┘
//! ```
//!
//! * **Reactor** ([`reactor`]): `poll(2)` readiness over non-blocking
//!   sockets, a UDP-pair waker, no event-loop dependency.
//! * **Shards** ([`shard`]): each owns a slice of connections and runs
//!   their protocol state machines ([`conn`]): handshake, probes,
//!   admission, and resumption from a shared
//!   [`crate::store::SessionStore`] keyed by the token each
//!   `SessionAccept` carries.
//! * **Compute plane** ([`compute`]): admitted sessions round-robin
//!   through a generation queue; their bursts interleave in a decode
//!   queue drained in cross-session batches through
//!   `Receiver::receive_batch`, which decodes each frame on its own, so
//!   a decode turn serves whichever sessions have bursts waiting.
//! * **Admission + shedding**: a hard session cap answers
//!   `give-up-overload`; above the shed threshold data frames are
//!   withheld (control always flows); per-session token budgets meter
//!   data frames through a [`crate::queue::BoundedQueue`] with
//!   [`crate::queue::OverflowPolicy::DropNewest`], every drop counted in
//!   `linkd_shed_total` and resumable later.
//!
//! Per-session output (`FrameDecoded` stream + `LinkStats` JSON) is
//! byte-identical to an in-process [`crate::session::run_session`] of the
//! same config — `tests/linkd_engine.rs` pins it with a property test
//! across MCS/SNR/payload space.
//!
//! [`Trace`]: crate::wire::WireMsg::Trace

pub mod compute;
pub mod conn;
pub mod reactor;
pub mod shard;

use crate::store::SessionStore;
use crate::wire::{HealthReport, WIRE_VERSION};
use compute::ComputePlane;
use mimonet::obs::{render_prometheus, MetricKind, MetricSample};
use mimonet_dsp::seedtree;
use reactor::{poll_ready, Interest, PollSource, Readiness};
use serde::Value;
use shard::{shard_loop, ShardHandle};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ring capacity of a traced session's event collector: ~16 lifecycle
/// events per frame, sized for a full-length session before the ring
/// starts overwriting (drops are counted, never silent).
pub(crate) const TRACE_RING_CAPACITY: usize = 64 * 1024;

/// Engine service policy. [`Default`] disables every limit that could
/// perturb a session (no shedding, no admission cap, no token budget,
/// no deadline; the resume store is on) and runs two I/O shards and two
/// compute workers.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Hard admission cap: session requests beyond this many concurrent
    /// sessions are refused with a `give-up-overload` report.
    pub max_sessions: u32,
    /// Soft cap: above this many concurrent sessions the engine sheds
    /// `FrameDecoded` streaming (data) but keeps control frames flowing.
    pub shed_threshold: u32,
    /// Per-session token budget: data frames streamed per session (or
    /// resume). 0 = unlimited. Frames beyond the budget are shed via the
    /// reply queue's `DropNewest` policy and stay retrievable by resume.
    pub session_token_budget: u32,
    /// Completed session outcomes retained for resumption (LRU evicted).
    pub resume_capacity: usize,
    /// Wall-clock budget per connection; `None` = unbounded.
    pub connection_deadline: Option<Duration>,
    /// I/O shards (each one thread multiplexing its connections); 0 runs
    /// as 1.
    pub shards: usize,
    /// Compute workers draining the session/decode queues; 0 runs as 1.
    pub compute_workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_sessions: u32::MAX,
            shed_threshold: u32::MAX,
            session_token_budget: 0,
            resume_capacity: 64,
            connection_deadline: None,
            shards: 2,
            compute_workers: 2,
        }
    }
}

/// Engine-wide counters, shared with monitors via `Arc`: connections,
/// session outcomes, shedding, the token-budget and batching planes, and
/// SLO grading.
#[derive(Debug, Default)]
pub struct EngineStats {
    pub(crate) connections: AtomicU64,
    pub(crate) sessions_started: AtomicU64,
    pub(crate) sessions_ok: AtomicU64,
    pub(crate) sessions_failed: AtomicU64,
    pub(crate) sessions_resumed: AtomicU64,
    /// Data frames withheld by overload shedding (threshold-driven).
    pub(crate) shed_frames: AtomicU64,
    /// Every shed data frame: overload shed + token-budget drops.
    pub(crate) shed_total: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) active_sessions: AtomicU64,
    /// Token budget remaining after the most recently streamed session.
    pub(crate) session_tokens: AtomicU64,
    pub(crate) session_queue_highwater: AtomicU64,
    /// Cross-session `receive_batch` calls issued by the decode plane.
    pub(crate) decode_batches: AtomicU64,
    /// Frames decoded through those batch calls.
    pub(crate) decode_batched_frames: AtomicU64,
    pub(crate) slo_evaluations: AtomicU64,
    pub(crate) slo_breaches: AtomicU64,
}

macro_rules! getters {
    ($( $(#[$doc:meta])* $name:ident ),* $(,)?) => {
        $( $(#[$doc])* pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) } )*
    };
}

impl EngineStats {
    getters! {
        /// Connections accepted.
        connections,
        /// Session requests received.
        sessions_started,
        /// Sessions that ran and streamed results.
        sessions_ok,
        /// Sessions refused (bad config, overload) or failed.
        sessions_failed,
        /// Sessions resumed from a stored token.
        sessions_resumed,
        /// Data frames withheld by overload shedding.
        shed_frames,
        /// Every shed data frame (overload shed + token-budget drops).
        shed_total,
        /// Connections ended by wire faults or protocol violations.
        protocol_errors,
        /// Sessions in the compute plane right now.
        active_sessions,
        /// Token budget remaining after the latest streamed session.
        session_tokens,
        /// Reply-queue high-water mark of the latest session.
        session_queue_highwater,
        /// Cross-session FEC batch calls.
        decode_batches,
        /// Frames decoded through cross-session batches.
        decode_batched_frames,
        /// Traced sessions graded against the default link SLO.
        slo_evaluations,
        /// SLO objectives breached across graded sessions.
        slo_breaches,
    }

    /// Mean frames per cross-session decode batch (0 when none ran yet).
    pub fn mean_batch_frames(&self) -> f64 {
        let batches = self.decode_batches();
        if batches == 0 {
            return 0.0;
        }
        self.decode_batched_frames() as f64 / batches as f64
    }
}

/// Everything shards and compute workers need from the engine.
pub(crate) struct EngineShared {
    pub config: EngineConfig,
    pub stats: Arc<EngineStats>,
    pub store: Mutex<SessionStore>,
    token_counter: AtomicU64,
}

impl EngineShared {
    pub(crate) fn next_token(&self) -> u64 {
        let n = self.token_counter.fetch_add(1, Ordering::Relaxed) + 1;
        seedtree::mix(n)
    }

    pub(crate) fn health(&self) -> HealthReport {
        HealthReport {
            active_sessions: self.stats.active_sessions() as u32,
            sessions_ok: self.stats.sessions_ok(),
            sessions_failed: self.stats.sessions_failed(),
            sessions_resumed: self.stats.sessions_resumed(),
            shed_frames: self.stats.shed_frames(),
            resumable: self.store.lock().unwrap().len() as u32,
        }
    }

    /// The engine's full metrics surface, one typed sample per series —
    /// the single source both wire formats render from, so Prometheus
    /// and JSON snapshots can never disagree on a value.
    pub(crate) fn metric_samples(&self) -> Vec<MetricSample> {
        let s = &self.stats;
        vec![
            MetricSample {
                name: "mimonet_connections_total",
                kind: MetricKind::Counter,
                help: "TCP connections accepted",
                value: s.connections(),
            },
            MetricSample {
                name: "mimonet_sessions_started_total",
                kind: MetricKind::Counter,
                help: "Session requests received",
                value: s.sessions_started(),
            },
            MetricSample {
                name: "mimonet_sessions_ok_total",
                kind: MetricKind::Counter,
                help: "Sessions that ran and streamed results",
                value: s.sessions_ok(),
            },
            MetricSample {
                name: "mimonet_sessions_failed_total",
                kind: MetricKind::Counter,
                help: "Sessions refused or failed",
                value: s.sessions_failed(),
            },
            MetricSample {
                name: "mimonet_sessions_resumed_total",
                kind: MetricKind::Counter,
                help: "Sessions resumed from a stored token",
                value: s.sessions_resumed(),
            },
            MetricSample {
                name: "mimonet_shed_frames_total",
                kind: MetricKind::Counter,
                help: "Decoded frames withheld under overload shedding",
                value: s.shed_frames(),
            },
            MetricSample {
                name: "mimonet_protocol_errors_total",
                kind: MetricKind::Counter,
                help: "Connections ended by wire faults or protocol violations",
                value: s.protocol_errors(),
            },
            MetricSample {
                name: "mimonet_active_sessions",
                kind: MetricKind::Gauge,
                help: "Sessions executing right now",
                value: s.active_sessions(),
            },
            MetricSample {
                name: "mimonet_resumable_sessions",
                kind: MetricKind::Gauge,
                help: "Completed sessions parked for resumption",
                value: self.store.lock().unwrap().len() as u64,
            },
            MetricSample {
                name: "mimonet_session_queue_highwater",
                kind: MetricKind::Gauge,
                help: "Reply-queue high-water mark of the latest session",
                value: s.session_queue_highwater(),
            },
            MetricSample {
                name: "mimonet_slo_evaluations_total",
                kind: MetricKind::Counter,
                help: "Traced sessions graded against the default link SLO",
                value: s.slo_evaluations(),
            },
            MetricSample {
                name: "mimonet_slo_breaches_total",
                kind: MetricKind::Counter,
                help: "SLO objectives breached across graded sessions",
                value: s.slo_breaches(),
            },
            MetricSample {
                name: "mimonet_wire_version",
                kind: MetricKind::Gauge,
                help: "Wire protocol version this daemon speaks",
                value: WIRE_VERSION as u64,
            },
            // Token-budget, shedding, and batching planes.
            MetricSample {
                name: "linkd_session_tokens",
                kind: MetricKind::Gauge,
                help: "Token budget remaining after the latest streamed session",
                value: s.session_tokens(),
            },
            MetricSample {
                name: "linkd_shed_total",
                kind: MetricKind::Counter,
                help: "Data frames shed (overload shedding + token-budget drops)",
                value: s.shed_total(),
            },
            MetricSample {
                name: "linkd_engine_shards",
                kind: MetricKind::Gauge,
                help: "I/O shards multiplexing connections",
                value: self.config.shards as u64,
            },
            MetricSample {
                name: "linkd_engine_compute_workers",
                kind: MetricKind::Gauge,
                help: "Compute workers draining the session/decode queues",
                value: self.config.compute_workers as u64,
            },
            MetricSample {
                name: "linkd_decode_batches_total",
                kind: MetricKind::Counter,
                help: "Cross-session receive_batch calls issued by the decode plane",
                value: s.decode_batches(),
            },
            MetricSample {
                name: "linkd_decode_batched_frames_total",
                kind: MetricKind::Counter,
                help: "Frames decoded through cross-session batches",
                value: s.decode_batched_frames(),
            },
        ]
    }

    pub(crate) fn prometheus_text(&self) -> String {
        render_prometheus(&self.metric_samples())
    }

    pub(crate) fn metrics_json(&self) -> String {
        let samples = self.metric_samples();
        serde::json::to_string(&Value::Object(
            samples
                .iter()
                .map(|m| (m.name.to_string(), Value::U64(m.value)))
                .collect(),
        ))
    }
}

/// A running engine: acceptor + N shard threads + M compute workers —
/// thread count constant no matter how many clients connect. Bind with
/// port 0 for tests; [`EngineServer::shutdown`] (or drop) stops
/// everything and joins every thread.
pub struct EngineServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<EngineShared>,
    shard_handles: Vec<ShardHandle>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    shards: Vec<std::thread::JoinHandle<()>>,
    compute: Option<Arc<ComputePlane>>,
}

impl EngineServer {
    /// Binds `addr` with default policy and starts serving.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Self::bind_with(addr, EngineConfig::default())
    }

    /// Binds `addr` under `config` and starts the engine's thread set.
    /// At least one shard and one compute worker always run: zero counts
    /// are raised to 1 before the config is stored, so the metrics report
    /// the threads that actually serve.
    pub fn bind_with(addr: &str, mut config: EngineConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        config.shards = config.shards.max(1);
        config.compute_workers = config.compute_workers.max(1);
        let (n_shards, n_workers) = (config.shards, config.compute_workers);
        let shared = Arc::new(EngineShared {
            config,
            stats: Arc::new(EngineStats::default()),
            store: Mutex::new(SessionStore::default()),
            token_counter: AtomicU64::new(0),
        });
        let shard_handles: Vec<ShardHandle> = (0..n_shards)
            .map(|_| ShardHandle::new())
            .collect::<std::io::Result<_>>()?;
        let compute = Arc::new(ComputePlane::spawn(
            n_workers,
            shared.clone(),
            shard_handles.clone(),
        ));
        let shards = shard_handles
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let h = h.clone();
                let shared = shared.clone();
                let compute = compute.clone();
                let stop = stop.clone();
                std::thread::spawn(move || shard_loop(i, h, shared, compute, stop))
            })
            .collect();
        let acceptor = {
            let stop = stop.clone();
            let shared = shared.clone();
            let handles = shard_handles.clone();
            std::thread::spawn(move || accept_loop(listener, &stop, &shared, &handles))
        };
        Ok(Self {
            local,
            stop,
            shared,
            shard_handles,
            acceptor: Some(acceptor),
            shards,
            compute: Some(compute),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Engine-wide counters (live; safe to poll while serving).
    pub fn stats(&self) -> Arc<EngineStats> {
        self.shared.stats.clone()
    }

    /// Live health snapshot (same payload the wire `HealthProbe` serves).
    pub fn health(&self) -> HealthReport {
        self.shared.health()
    }

    /// Prometheus text exposition of the engine's metrics.
    pub fn metrics_prometheus(&self) -> String {
        self.shared.prometheus_text()
    }

    /// JSON snapshot of the engine's metrics.
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// Stops accepting, winds down every thread, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> Arc<EngineStats> {
        self.stop_now();
        self.shared.stats.clone()
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in &self.shard_handles {
            h.waker.wake();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
        if let Some(compute) = self.compute.take() {
            if let Ok(plane) = Arc::try_unwrap(compute) {
                plane.shutdown();
            }
        }
    }
}

impl Drop for EngineServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    let mut next = 0usize;
    let mut ready = [Readiness::default()];
    while !stop.load(Ordering::Relaxed) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    let shard = &shards[next % shards.len()];
                    next += 1;
                    shard.injections.lock().unwrap().push_back(stream);
                    shard.waker.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let sources = [(PollSource::Listener(&listener), Interest::READ)];
        poll_ready(&sources, &mut ready, Duration::from_millis(50));
    }
}
