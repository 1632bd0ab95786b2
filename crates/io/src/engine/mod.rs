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
//! * **Compute plane** ([`compute`]): admitted sessions, traced or not,
//!   round-robin through a generation queue; their bursts interleave in
//!   a decode queue drained in cross-session batches through
//!   `Receiver::receive_batch`, which decodes each frame on its own, so
//!   a decode turn serves whichever sessions have bursts waiting.
//! * **Admission + shedding**: a hard session cap answers
//!   `give-up-overload`; above the shed threshold data frames are
//!   withheld (control always flows); a per-session token budget caps
//!   the data frames each reply or resume streams, and every frame past
//!   it is counted in `linkd_shed_total` and resumable later.
//!
//! Per-session output (`FrameDecoded` stream + `LinkStats` JSON) is
//! byte-identical to an in-process [`crate::session::run_session`] of the
//! same config, and a traced session's frames and events match an
//! in-process traced run — `tests/linkd_engine.rs` pins both, the first
//! with a property test across MCS/SNR/payload/trace space.
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
use reactor::{poll_wait, Interest, PollSource, Readiness, Waker};
use serde::Value;
use shard::{shard_loop, ShardHandle};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// resume). 0 = unlimited. Frames beyond the budget are shed and stay
    /// retrievable by resume.
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

/// Declares the engine's counters once: each row is a field of
/// [`EngineStats`], a getter of the same name documented by its help
/// text, and one exported series (kind, name, help).
macro_rules! engine_metrics {
    ($( $field:ident: $kind:ident $name:literal $help:literal, )*) => {
        /// Engine-wide counters, shared with monitors via `Arc`:
        /// connections, session outcomes, shedding, the token-budget and
        /// batching planes, and SLO grading.
        #[derive(Debug, Default)]
        pub struct EngineStats {
            $( pub(crate) $field: AtomicU64, )*
        }

        impl EngineStats {
            $(
                #[doc = $help]
                pub fn $field(&self) -> u64 {
                    self.$field.load(Ordering::Relaxed)
                }
            )*

            /// One typed sample per counter, in table order.
            fn samples(&self) -> impl Iterator<Item = MetricSample> + '_ {
                [$((MetricKind::$kind, $name, $help, self.$field())),*]
                    .into_iter()
                    .map(|(kind, name, help, value)| MetricSample { name, kind, help, value })
            }
        }
    };
}

engine_metrics! {
    connections: Counter "mimonet_connections_total" "TCP connections accepted",
    sessions_started: Counter "mimonet_sessions_started_total" "Session requests received",
    sessions_ok: Counter "mimonet_sessions_ok_total" "Sessions that ran and streamed results",
    sessions_failed: Counter "mimonet_sessions_failed_total" "Sessions refused or failed",
    sessions_resumed: Counter "mimonet_sessions_resumed_total"
        "Sessions resumed from a stored token",
    shed_frames: Counter "mimonet_shed_frames_total"
        "Decoded frames withheld under overload shedding",
    protocol_errors: Counter "mimonet_protocol_errors_total"
        "Connections ended by wire faults or protocol violations",
    active_sessions: Gauge "mimonet_active_sessions" "Sessions executing right now",
    session_queue_highwater: Gauge "mimonet_session_queue_highwater"
        "Reply-queue high-water mark of the latest session",
    slo_evaluations: Counter "mimonet_slo_evaluations_total"
        "Traced sessions graded against the default link SLO",
    slo_breaches: Counter "mimonet_slo_breaches_total"
        "SLO objectives breached across graded sessions",
    session_tokens: Gauge "linkd_session_tokens"
        "Token budget remaining after the latest streamed session",
    shed_total: Counter "linkd_shed_total"
        "Data frames shed (overload shedding + token-budget drops)",
    decode_batches: Counter "linkd_decode_batches_total"
        "Cross-session receive_batch calls issued by the decode plane",
    decode_batched_frames: Counter "linkd_decode_batched_frames_total"
        "Frames decoded through cross-session batches",
}

impl EngineStats {
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

    /// The engine's full metrics surface, one typed sample per series:
    /// the counter table, then the four gauges read from elsewhere. Both
    /// wire formats render from it, so Prometheus and JSON snapshots can
    /// never disagree on a value.
    pub(crate) fn metric_samples(&self) -> Vec<MetricSample> {
        let gauge = |name, help, value| MetricSample {
            name,
            kind: MetricKind::Gauge,
            help,
            value,
        };
        let resumable = self
            .store
            .lock()
            .expect("no thread panics holding the resume store")
            .len() as u64;
        let (shards, workers) = (self.config.shards, self.config.compute_workers);
        #[rustfmt::skip]
        let gauges = [
            gauge("mimonet_resumable_sessions", "Completed sessions parked for resumption", resumable),
            gauge("mimonet_wire_version", "Wire protocol version this daemon speaks", WIRE_VERSION.into()),
            gauge("linkd_engine_shards", "I/O shards multiplexing connections", shards as u64),
            gauge("linkd_engine_compute_workers", "Compute workers draining the session/decode queues", workers as u64),
        ];
        self.stats.samples().chain(gauges).collect()
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
/// thread count constant no matter how many clients connect. The threads
/// are named `linkd-accept`, `linkd-shard-N` and `linkd-compute-N`, and
/// an idle engine's threads all sleep until woken. Bind with port 0 for
/// tests; [`EngineServer::shutdown`] (or drop) stops everything and joins
/// every thread.
pub struct EngineServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<EngineShared>,
    shard_handles: Vec<ShardHandle>,
    acceptor_waker: Arc<Waker>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    compute: Option<Arc<ComputePlane>>,
}

/// Starts a thread named `name` running `f`.
pub(crate) fn spawn_named(
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(f)
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
        )?);
        let shards = shard_handles
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let h = h.clone();
                let shared = shared.clone();
                let compute = compute.clone();
                let stop = stop.clone();
                spawn_named(format!("linkd-shard-{i}"), move || {
                    shard_loop(i, h, shared, compute, stop)
                })
            })
            .collect::<std::io::Result<_>>()?;
        let acceptor_waker = Arc::new(Waker::new()?);
        let acceptor = {
            let stop = stop.clone();
            let shared = shared.clone();
            let handles = shard_handles.clone();
            let waker = acceptor_waker.clone();
            spawn_named("linkd-accept".into(), move || {
                accept_loop(listener, &waker, &stop, &shared, &handles)
            })?
        };
        Ok(Self {
            local,
            stop,
            shared,
            shard_handles,
            acceptor_waker,
            acceptor: Some(acceptor),
            shards,
            compute: Some(compute),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The configuration the engine runs: as bound, with 0 shards or
    /// compute workers run as 1.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
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
        self.acceptor_waker.wake();
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

/// Accepts connections and deals them round-robin to the shards until
/// `stop`. Between bursts it sleeps in `poll` on the listener and
/// `waker`, which shutdown rings.
fn accept_loop(
    listener: TcpListener,
    waker: &Waker,
    stop: &AtomicBool,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    let mut next = 0usize;
    let mut ready = [Readiness::default(); 2];
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
        let sources = [
            (PollSource::Listener(&listener), Interest::READ),
            (PollSource::Udp(waker.poll_half()), Interest::READ),
        ];
        poll_wait(&sources, &mut ready, None);
        waker.drain();
    }
}
