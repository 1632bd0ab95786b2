//! TCP/UDP source and sink blocks for `mimonet-runtime` flowgraphs.
//!
//! Sinks accumulate per-antenna streams into [`IqChunk`]s and write them
//! as wire frames; sources decode wire frames back into per-antenna
//! streams through a [`BoundedQueue`] fed by a reader thread. Queue
//! capacity is the backpressure knob; overflow drops are counted in the
//! queue's always-on stats and mirrored into
//! `BlockTelemetry::queue_drops` when the flowgraph is instrumented, so
//! its telemetry shows shed load next to backpressure stalls.
//!
//! The TCP sink dials with exponential backoff and re-dials once on a
//! mid-stream write failure; when the transport is truly gone it returns
//! a typed [`BlockError`] whose kind echoes the PR-2 fault taxonomy
//! (`transport-disconnect`, `transport-truncation`, `transport-crc`,
//! `transport-desync`) — transport faults degrade to typed errors, never
//! panics.
//!
//! Network **sources** never return [`WorkStatus::Blocked`]: the
//! threaded scheduler treats a blocked source as exhausted. They idle in
//! short timed pops and report `Progress`, so run them under
//! `Flowgraph::run_threaded` (the stall watchdog still catches a feed
//! that dies without closing the socket).

use crate::queue::{BoundedQueue, OverflowPolicy};
use crate::resilience::{GiveUp, RetryPolicy};
use crate::wire::{decode, encode, read_msg_opt, IqChunk, WireError, WireMsg};
use mimonet_dsp::complex::Complex64;
use mimonet_runtime::{
    convert, Block, BlockCtx, BlockError, BlockTelemetry, InputBuffer, OutputBuffer, WorkStatus,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Transport tuning shared by the stream blocks.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Samples per antenna per [`IqChunk`].
    pub chunk_len: usize,
    /// Source-side bounded queue depth, chunks.
    pub queue_depth: usize,
    /// What a full source queue does to fresh chunks.
    pub policy: OverflowPolicy,
    /// The TCP sink's connect-retry policy: jittered backoff under a hard
    /// attempt and sleep budget; exhaustion surfaces as a typed
    /// `give-up-retry-budget` [`BlockError`]. Give concurrent clients
    /// distinct `jitter_salt`s (e.g. `seedtree::fnv1a` of their identity)
    /// so their reconnect storms de-synchronize.
    pub retry: RetryPolicy,
    /// Socket read timeout — the cadence at which reader threads notice
    /// a stop request.
    pub read_timeout: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            chunk_len: 4096,
            queue_depth: 32,
            policy: OverflowPolicy::DropOldest,
            retry: RetryPolicy {
                max_attempts: 6,
                base: Duration::from_millis(50),
                max_delay: Duration::from_secs(1),
                sleep_budget: Duration::from_secs(10),
                jitter_salt: 0,
            },
            read_timeout: Duration::from_millis(100),
        }
    }
}

/// Cumulative transport counters, shared with tests/monitors via `Arc`.
#[derive(Debug, Default)]
pub struct TransportStats {
    chunks_sent: AtomicU64,
    chunks_recv: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
    seq_gaps: AtomicU64,
    send_drops: AtomicU64,
}

impl TransportStats {
    /// Chunks written to the wire.
    pub fn chunks_sent(&self) -> u64 {
        self.chunks_sent.load(Ordering::Relaxed)
    }
    /// Chunks received and enqueued (pre-overflow).
    pub fn chunks_recv(&self) -> u64 {
        self.chunks_recv.load(Ordering::Relaxed)
    }
    /// Successful re-dials after a failed connect or a dead stream.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
    /// Datagrams/frames that failed to decode (UDP keeps going).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }
    /// Chunks missing from the sequence (lost datagrams, reordering).
    pub fn seq_gaps(&self) -> u64 {
        self.seq_gaps.load(Ordering::Relaxed)
    }
    /// Chunks a lossy sink failed to transmit (UDP send errors).
    pub fn send_drops(&self) -> u64 {
        self.send_drops.load(Ordering::Relaxed)
    }
}

/// Maps a wire failure onto the transport fault taxonomy.
pub fn transport_error(e: &WireError) -> BlockError {
    let kind = match e {
        WireError::Truncated { .. } | WireError::TruncatedCapture { .. } => "transport-truncation",
        WireError::BadCrc { .. } => "transport-crc",
        WireError::Io(_) => "transport-disconnect",
        _ => "transport-desync",
    };
    BlockError::new(kind, e.to_string())
}

/// `Read` adapter that turns socket read timeouts into retries and a
/// stop request into a clean EOF, so `read_msg_opt` only ever sees real
/// bytes, real errors, or the end of the stream.
struct CancellableStream<'a> {
    inner: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for CancellableStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return Ok(0);
            }
            match (&mut self.inner).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                r => return r,
            }
        }
    }
}

// ---------------------------------------------------------------------
// TCP sink
// ---------------------------------------------------------------------

/// Streams per-antenna samples to a TCP peer as [`IqChunk`]s, dialing
/// (and re-dialing) with exponential backoff. Sends [`WireMsg::Bye`] and
/// finishes when every input is exhausted.
pub struct TcpChunkSink {
    addr: String,
    n_ant: usize,
    cfg: TransportConfig,
    conn: Option<TcpStream>,
    ever_connected: bool,
    seq: u64,
    stats: Arc<TransportStats>,
    /// Reconnect attempts since the last successful connect.
    attempt: u32,
    /// Cumulative backoff owed/slept since the last successful connect.
    slept: Duration,
    /// When the next connect attempt is allowed ([`Self::poll_reconnect`]
    /// returns `false` without trying before this instant).
    backoff_until: Option<Instant>,
}

impl TcpChunkSink {
    /// Creates a sink for `n_ant` antenna streams; connects lazily on
    /// first use so the flowgraph can be built before the peer is up.
    pub fn new(addr: impl Into<String>, n_ant: usize, cfg: TransportConfig) -> Self {
        assert!(n_ant >= 1);
        assert!(cfg.chunk_len > 0);
        Self {
            addr: addr.into(),
            n_ant,
            cfg,
            conn: None,
            ever_connected: false,
            seq: 0,
            stats: Arc::new(TransportStats::default()),
            attempt: 0,
            slept: Duration::ZERO,
            backoff_until: None,
        }
    }

    /// Shared transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        self.stats.clone()
    }

    /// One **non-blocking** reconnect step: `Ok(true)` when connected,
    /// `Ok(false)` when the sink is between backoff attempts (call again
    /// later — [`Self::next_reconnect_at`] says when), and a typed
    /// `give-up-retry-budget` error when the jittered-backoff budget is
    /// exhausted.
    ///
    /// Unlike the blocking `ensure_connected` this never
    /// sleeps: the backoff schedule is kept as a deadline instead of a
    /// `thread::sleep`, so an event-driven caller (one engine shard
    /// multiplexing many links) can poll a dead peer's sink without
    /// stalling every other link it services.
    pub fn poll_reconnect(&mut self) -> Result<bool, BlockError> {
        if self.conn.is_some() {
            return Ok(true);
        }
        if let Some(at) = self.backoff_until {
            if Instant::now() < at {
                return Ok(false);
            }
        }
        // Jittered exponential backoff under a hard attempt + sleep
        // budget; exhaustion is the typed give-up, not a bare
        // disconnect, so callers can tell "peer refused" from "we
        // stopped trying".
        match TcpStream::connect(&self.addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                if self.ever_connected || self.attempt > 0 {
                    self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.ever_connected = true;
                self.conn = Some(s);
                self.attempt = 0;
                self.slept = Duration::ZERO;
                self.backoff_until = None;
                Ok(true)
            }
            Err(e) => {
                let Some(delay) = self.cfg.retry.backoff(self.attempt, self.slept) else {
                    let give_up = GiveUp::RetryBudgetExhausted {
                        attempts: self.attempt + 1,
                        last_error: format!("connect to {} failed: {e}", self.addr),
                    };
                    return Err(BlockError::new(give_up.kind(), give_up.to_string()));
                };
                self.attempt += 1;
                self.backoff_until = Some(Instant::now() + delay);
                self.slept += delay;
                Ok(false)
            }
        }
    }

    /// When the next [`Self::poll_reconnect`] attempt is due (`None` =
    /// immediately, or already connected).
    pub fn next_reconnect_at(&self) -> Option<Instant> {
        self.backoff_until.filter(|_| self.conn.is_none())
    }

    /// Blocking connect: drives [`Self::poll_reconnect`] to completion,
    /// sleeping out each backoff window — the path a blocking `send`
    /// takes.
    fn ensure_connected(&mut self) -> Result<(), BlockError> {
        loop {
            if self.poll_reconnect()? {
                return Ok(());
            }
            if let Some(at) = self.next_reconnect_at() {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
            }
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), BlockError> {
        self.ensure_connected()?;
        let frame = encode(msg);
        let write = |conn: &mut TcpStream| conn.write_all(&frame);
        if let Err(first) = write(self.conn.as_mut().expect("connected")) {
            // The stream died mid-session: re-dial once with backoff and
            // retry the same frame before giving up. A fresh disconnect
            // gets a fresh retry budget.
            self.conn = None;
            self.attempt = 0;
            self.slept = Duration::ZERO;
            self.backoff_until = None;
            self.ensure_connected().map_err(|e| {
                BlockError::new(
                    "transport-disconnect",
                    format!("write failed ({first}); reconnect failed: {}", e.detail),
                )
            })?;
            write(self.conn.as_mut().expect("connected")).map_err(|e| {
                BlockError::new(
                    "transport-disconnect",
                    format!("write failed twice: {first}; then {e}"),
                )
            })?;
        }
        Ok(())
    }

    fn send_chunk(&mut self, samples: Vec<Vec<Complex64>>) -> Result<(), BlockError> {
        let chunk = IqChunk {
            seq: self.seq,
            samples,
        };
        self.send(&WireMsg::IqChunk(chunk))?;
        self.seq += 1;
        self.stats.chunks_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Block for TcpChunkSink {
    fn name(&self) -> &str {
        "tcp_chunk_sink"
    }
    fn num_inputs(&self) -> usize {
        self.n_ant
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        _outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut progressed = false;
        loop {
            let ready = inputs.iter().map(|i| i.available()).min().unwrap_or(0);
            if ready >= self.cfg.chunk_len {
                let take = self.cfg.chunk_len;
                let samples: Vec<Vec<Complex64>> = inputs
                    .iter_mut()
                    .map(|i| convert::to_complex(&i.take(take)))
                    .collect();
                if let Err(e) = self.send_chunk(samples) {
                    return WorkStatus::Error(e);
                }
                progressed = true;
                continue;
            }
            if inputs.iter().all(|i| i.is_finished()) {
                if ready > 0 {
                    // Flush the equal-length remainder.
                    let samples: Vec<Vec<Complex64>> = inputs
                        .iter_mut()
                        .map(|i| convert::to_complex(&i.take(ready)))
                        .collect();
                    if let Err(e) = self.send_chunk(samples) {
                        return WorkStatus::Error(e);
                    }
                }
                if let Err(e) = self.send(&WireMsg::Bye) {
                    return WorkStatus::Error(e);
                }
                if let Some(conn) = self.conn.as_mut() {
                    conn.flush().ok();
                }
                return WorkStatus::Done;
            }
            break;
        }
        if progressed {
            WorkStatus::Progress
        } else {
            WorkStatus::Blocked
        }
    }
}

// ---------------------------------------------------------------------
// Chunk source (TCP and UDP)
// ---------------------------------------------------------------------

/// Shared reader-side state between a source block and its thread.
struct SourceShared {
    queue: BoundedQueue<IqChunk>,
    error: Mutex<Option<BlockError>>,
    stats: TransportStats,
    stop: AtomicBool,
}

impl SourceShared {
    fn fail(&self, e: BlockError) {
        let mut g = self.error.lock().unwrap();
        if g.is_none() {
            *g = Some(e);
        }
    }

    fn accept_chunk(&self, chunk: IqChunk, n_ant: usize, next_seq: &mut u64) -> bool {
        if chunk.samples.len() != n_ant {
            self.fail(BlockError::new(
                "transport-desync",
                format!(
                    "chunk carries {} antennas, expected {n_ant}",
                    chunk.samples.len()
                ),
            ));
            return false;
        }
        if chunk.seq >= *next_seq {
            let gap = chunk.seq - *next_seq;
            if gap > 0 {
                self.stats.seq_gaps.fetch_add(gap, Ordering::Relaxed);
            }
            *next_seq = chunk.seq + 1;
            self.stats.chunks_recv.fetch_add(1, Ordering::Relaxed);
            self.queue.push(chunk);
        } else {
            // Stale reordered chunk: emitting it would scramble the
            // sample stream; count and discard.
            self.stats.seq_gaps.fetch_add(1, Ordering::Relaxed);
        }
        true
    }
}

fn tcp_reader_loop(stream: TcpStream, read_timeout: Duration, shared: &SourceShared, n_ant: usize) {
    stream.set_read_timeout(Some(read_timeout)).ok();
    let mut r = CancellableStream {
        inner: &stream,
        stop: &shared.stop,
    };
    let mut next_seq = 0u64;
    loop {
        match read_msg_opt(&mut r) {
            Ok(None) | Ok(Some(WireMsg::Bye)) => break,
            Ok(Some(WireMsg::CaptureHeader(m))) => {
                if m.n_ant as usize != n_ant {
                    shared.fail(BlockError::new(
                        "transport-desync",
                        format!("capture has {} antennas, source wired for {n_ant}", m.n_ant),
                    ));
                    break;
                }
            }
            Ok(Some(WireMsg::IqChunk(chunk))) => {
                if !shared.accept_chunk(chunk, n_ant, &mut next_seq) {
                    break;
                }
            }
            Ok(Some(_)) => {} // other control traffic: ignore
            Err(e) => {
                if !shared.stop.load(Ordering::Relaxed) {
                    shared.fail(transport_error(&e));
                }
                break;
            }
        }
    }
}

fn udp_reader_loop(socket: UdpSocket, shared: &SourceShared, n_ant: usize) {
    let mut buf = vec![0u8; 65_536];
    let mut next_seq = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        let n = match socket.recv_from(&mut buf) {
            Ok((n, _)) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => {
                shared.fail(BlockError::new(
                    "transport-disconnect",
                    format!("udp recv failed: {e}"),
                ));
                break;
            }
        };
        match decode(&buf[..n]) {
            Ok((WireMsg::IqChunk(chunk), _)) => {
                if !shared.accept_chunk(chunk, n_ant, &mut next_seq) {
                    break;
                }
            }
            Ok((WireMsg::Bye, _)) => break,
            Ok(_) => {} // other control datagrams: ignore
            Err(_) => {
                // A mangled datagram is a lossy-transport event, not a
                // stream failure.
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Receives [`IqChunk`]s and replays them as per-antenna sample streams.
/// A reader thread feeds the bounded queue; the block drains it.
///
/// Over TCP ([`connect`](Self::connect), [`listen`](Self::listen)) the
/// source finishes on `Bye`/EOF, and wire faults surface as typed
/// errors. Over UDP ([`bind`](Self::bind)) lost or reordered datagrams
/// are counted as sequence gaps and the stream keeps going — UDP faults
/// are data-quality events, not errors — and a `Bye` datagram finishes
/// it.
pub struct ChunkSource {
    name: &'static str,
    n_ant: usize,
    shared: Arc<SourceShared>,
    reader: Option<std::thread::JoinHandle<()>>,
    tel: Option<Arc<BlockTelemetry>>,
    reported_drops: u64,
}

/// The TCP chunk source: a [`ChunkSource`] made by
/// [`connect`](ChunkSource::connect) or [`listen`](ChunkSource::listen).
pub type TcpChunkSource = ChunkSource;

/// The UDP chunk source: a [`ChunkSource`] made by
/// [`bind`](ChunkSource::bind).
pub type UdpChunkSource = ChunkSource;

impl ChunkSource {
    /// Starts the reader thread on `read`; the queue closes when it
    /// returns.
    fn spawn(
        name: &'static str,
        n_ant: usize,
        cfg: &TransportConfig,
        read: impl FnOnce(&SourceShared) + Send + 'static,
    ) -> Self {
        let shared = Arc::new(SourceShared {
            queue: BoundedQueue::new(cfg.queue_depth, cfg.policy),
            error: Mutex::new(None),
            stats: TransportStats::default(),
            stop: AtomicBool::new(false),
        });
        let reader = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                read(&shared);
                shared.queue.close();
            })
        };
        Self {
            name,
            n_ant,
            shared,
            reader: Some(reader),
            tel: None,
            reported_drops: 0,
        }
    }

    /// Connects to a remote TCP sink.
    pub fn connect(
        addr: impl ToSocketAddrs,
        n_ant: usize,
        cfg: TransportConfig,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self::spawn(
            "tcp_chunk_source",
            n_ant,
            &cfg,
            move |shared| tcp_reader_loop(stream, cfg.read_timeout, shared, n_ant),
        ))
    }

    /// Binds a TCP listener and accepts exactly one peer in the
    /// background; returns the source and the bound address (use port 0
    /// to let the OS pick).
    pub fn listen(
        addr: impl ToSocketAddrs,
        n_ant: usize,
        cfg: TransportConfig,
    ) -> std::io::Result<(Self, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let source = Self::spawn("tcp_chunk_source", n_ant, &cfg, move |shared| {
            let stream = loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((s, _)) => break s,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => {
                        shared.fail(BlockError::new(
                            "transport-disconnect",
                            format!("accept failed: {e}"),
                        ));
                        return;
                    }
                }
            };
            stream.set_nonblocking(false).ok();
            tcp_reader_loop(stream, cfg.read_timeout, shared, n_ant);
        });
        Ok((source, local))
    }

    /// Binds a UDP socket (port 0 picks a free port) and returns the
    /// source plus the bound address to point a [`UdpChunkSink`] at.
    pub fn bind(
        addr: impl ToSocketAddrs,
        n_ant: usize,
        cfg: TransportConfig,
    ) -> std::io::Result<(Self, SocketAddr)> {
        let socket = UdpSocket::bind(addr)?;
        let local = socket.local_addr()?;
        socket.set_read_timeout(Some(cfg.read_timeout))?;
        let source = Self::spawn("udp_chunk_source", n_ant, &cfg, move |shared| {
            udp_reader_loop(socket, shared, n_ant)
        });
        Ok((source, local))
    }

    /// Read-only view over the reader-side counters and the queue's drop
    /// stats.
    pub fn stats(&self) -> Arc<SourceStatsView> {
        Arc::new(SourceStatsView {
            shared: self.shared.clone(),
        })
    }

    fn mirror_drops(&mut self) {
        if let Some(t) = &self.tel {
            let dropped = self.shared.queue.stats().dropped();
            if dropped > self.reported_drops {
                t.queue_drops.add(dropped - self.reported_drops);
                self.reported_drops = dropped;
            }
        }
    }
}

/// Read-only view over a source's reader-side counters.
pub struct SourceStatsView {
    shared: Arc<SourceShared>,
}

impl SourceStatsView {
    /// Chunks received and enqueued.
    pub fn chunks_recv(&self) -> u64 {
        self.shared.stats.chunks_recv()
    }
    /// Sequence gaps observed.
    pub fn seq_gaps(&self) -> u64 {
        self.shared.stats.seq_gaps()
    }
    /// Datagrams/frames that failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.shared.stats.decode_errors()
    }
    /// Chunks lost to queue overflow.
    pub fn queue_dropped(&self) -> u64 {
        self.shared.queue.stats().dropped()
    }
}

impl Drop for ChunkSource {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Block for ChunkSource {
    fn name(&self) -> &str {
        self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        self.n_ant
    }
    fn attach_telemetry(&mut self, tel: &Arc<BlockTelemetry>) {
        self.tel = Some(tel.clone());
    }
    fn work(
        &mut self,
        _inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let emit = |chunk: &IqChunk, outputs: &mut [OutputBuffer]| {
            for (out, ant) in outputs.iter_mut().zip(&chunk.samples) {
                out.push_slice(&convert::from_complex(ant));
            }
        };
        self.mirror_drops();
        let mut produced = false;
        while let Some(chunk) = self.shared.queue.try_pop() {
            emit(&chunk, outputs);
            produced = true;
        }
        if produced {
            return WorkStatus::Progress;
        }
        if self.shared.queue.is_terminated() {
            self.mirror_drops();
            if let Some(e) = self.shared.error.lock().unwrap().take() {
                return WorkStatus::Error(e);
            }
            return WorkStatus::Done;
        }
        // Idle-wait briefly; a source must not report Blocked (the
        // threaded scheduler would retire it).
        if let Some(chunk) = self.shared.queue.pop_timeout(Duration::from_millis(1)) {
            emit(&chunk, outputs);
        }
        WorkStatus::Progress
    }
}

// ---------------------------------------------------------------------
// UDP sink
// ---------------------------------------------------------------------

/// Largest datagram payload the UDP blocks will emit.
pub const MAX_DATAGRAM: usize = 60_000;

/// Streams [`IqChunk`]s as UDP datagrams — fire-and-forget transport for
/// live sample feeds. Send failures count as drops (UDP is lossy by
/// contract); a final [`WireMsg::Bye`] datagram marks end of stream.
pub struct UdpChunkSink {
    socket: UdpSocket,
    dest: String,
    n_ant: usize,
    cfg: TransportConfig,
    seq: u64,
    stats: Arc<TransportStats>,
    tel: Option<Arc<BlockTelemetry>>,
}

impl UdpChunkSink {
    /// Creates a sink sending to `dest`. The chunk size must fit one
    /// datagram: `chunk_len * n_ant * 16` bytes plus framing under
    /// [`MAX_DATAGRAM`].
    pub fn new(
        dest: impl Into<String>,
        n_ant: usize,
        cfg: TransportConfig,
    ) -> std::io::Result<Self> {
        assert!(n_ant >= 1);
        assert!(
            cfg.chunk_len * n_ant * 16 + 128 <= MAX_DATAGRAM,
            "chunk of {} samples x {n_ant} antennas exceeds one datagram",
            cfg.chunk_len
        );
        let socket = UdpSocket::bind("0.0.0.0:0")?;
        Ok(Self {
            socket,
            dest: dest.into(),
            n_ant,
            cfg,
            seq: 0,
            stats: Arc::new(TransportStats::default()),
            tel: None,
        })
    }

    /// Shared transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        self.stats.clone()
    }

    fn send_datagram(&mut self, msg: &WireMsg) {
        let frame = encode(msg);
        match self.socket.send_to(&frame, &self.dest) {
            Ok(_) => {
                if matches!(msg, WireMsg::IqChunk(_)) {
                    self.stats.chunks_sent.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.stats.send_drops.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &self.tel {
                    t.queue_drops.incr();
                }
            }
        }
    }
}

impl Block for UdpChunkSink {
    fn name(&self) -> &str {
        "udp_chunk_sink"
    }
    fn num_inputs(&self) -> usize {
        self.n_ant
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn attach_telemetry(&mut self, tel: &Arc<BlockTelemetry>) {
        self.tel = Some(tel.clone());
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        _outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut progressed = false;
        loop {
            let ready = inputs.iter().map(|i| i.available()).min().unwrap_or(0);
            let take = if ready >= self.cfg.chunk_len {
                self.cfg.chunk_len
            } else if inputs.iter().all(|i| i.is_finished()) && ready > 0 {
                ready
            } else if inputs.iter().all(|i| i.is_finished()) {
                self.send_datagram(&WireMsg::Bye);
                return WorkStatus::Done;
            } else {
                break;
            };
            let samples: Vec<Vec<Complex64>> = inputs
                .iter_mut()
                .map(|i| convert::to_complex(&i.take(take)))
                .collect();
            let chunk = IqChunk {
                seq: self.seq,
                samples,
            };
            self.seq += 1;
            self.send_datagram(&WireMsg::IqChunk(chunk));
            progressed = true;
        }
        if progressed {
            WorkStatus::Progress
        } else {
            WorkStatus::Blocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_msg;

    #[test]
    fn wire_faults_map_onto_the_taxonomy() {
        let cases = [
            (
                WireError::Truncated { context: "x" },
                "transport-truncation",
            ),
            (
                WireError::BadCrc {
                    expected: 1,
                    got: 2,
                },
                "transport-crc",
            ),
            (WireError::Io("reset".into()), "transport-disconnect"),
            (WireError::BadMagic([0; 4]), "transport-desync"),
            (WireError::UnknownType(3), "transport-desync"),
        ];
        for (e, kind) in cases {
            assert_eq!(transport_error(&e).kind, kind, "{e}");
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let retry = TransportConfig::default().retry;
        for (attempt, nominal_ms) in [(0u32, 50u64), (1, 100), (2, 200), (10, 1000)] {
            let d = retry.delay(attempt);
            let nominal = Duration::from_millis(nominal_ms);
            // Full jitter lands in [nominal/2, nominal] and is a pure
            // function of (salt, attempt).
            assert!(d >= nominal / 2 && d <= nominal, "attempt {attempt}: {d:?}");
            assert_eq!(d, retry.delay(attempt));
        }
        // Distinct salts de-synchronize reconnect storms.
        let other = RetryPolicy {
            jitter_salt: 99,
            ..retry.clone()
        };
        assert!((0..6).any(|a| retry.delay(a) != other.delay(a)));
    }

    #[test]
    fn poll_reconnect_never_sleeps_and_keeps_the_typed_give_up() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut cfg = TransportConfig::default();
        cfg.retry.max_attempts = 4;
        cfg.retry.base = Duration::from_millis(30);
        let mut sink = TcpChunkSink::new(dead.to_string(), 1, cfg);

        // First step: fails fast (loopback refuses), schedules backoff.
        let t0 = Instant::now();
        assert!(!sink.poll_reconnect().unwrap());
        assert!(
            t0.elapsed() < Duration::from_millis(25),
            "a poll step must not sleep out the backoff"
        );
        let due = sink.next_reconnect_at().expect("backoff scheduled");
        assert!(due > t0, "backoff deadline is in the future");

        // Inside the backoff window the step is a pure no-op.
        assert!(!sink.poll_reconnect().unwrap());

        // Drive it to exhaustion: same typed give-up as the blocking
        // path, never a bare disconnect.
        let err = loop {
            if let Some(at) = sink.next_reconnect_at() {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
            }
            match sink.poll_reconnect() {
                Ok(true) => panic!("nothing listens on {dead}"),
                Ok(false) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind, "give-up-retry-budget");
    }

    #[test]
    fn poll_reconnect_connects_once_the_peer_appears() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpChunkSink::new(addr.to_string(), 1, TransportConfig::default());
        assert!(sink.poll_reconnect().unwrap());
        assert!(sink.next_reconnect_at().is_none());
        // Idempotent while connected.
        assert!(sink.poll_reconnect().unwrap());
    }

    #[test]
    fn tcp_sink_gives_typed_error_when_peer_never_appears() {
        // Reserve a port, then close it so nothing listens there.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut cfg = TransportConfig::default();
        cfg.retry.max_attempts = 2;
        cfg.retry.base = Duration::from_millis(5);
        let mut sink = TcpChunkSink::new(dead.to_string(), 1, cfg);
        let err = sink.ensure_connected().unwrap_err();
        assert_eq!(err.kind, "give-up-retry-budget");
        assert!(err.detail.contains("connect to"));
    }

    #[test]
    fn tcp_sink_retry_sleep_budget_is_a_hard_cap() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = TransportConfig {
            retry: RetryPolicy {
                max_attempts: 1001,
                base: Duration::from_millis(20),
                max_delay: Duration::from_millis(20),
                sleep_budget: Duration::from_millis(50),
                jitter_salt: 0,
            },
            ..TransportConfig::default()
        };
        let mut sink = TcpChunkSink::new(dead.to_string(), 1, cfg);
        let start = std::time::Instant::now();
        let err = sink.ensure_connected().unwrap_err();
        assert_eq!(err.kind, "give-up-retry-budget");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "budget must stop the loop long before 1000 attempts"
        );
    }

    #[test]
    fn tcp_sink_dials_with_backoff_until_the_peer_arrives() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let server = std::thread::spawn(move || {
            // Let the first connect attempts fail, then start listening.
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut s, _) = listener.accept().unwrap();
            let msg = read_msg(&mut s).unwrap();
            matches!(msg, WireMsg::IqChunk(_))
        });
        let mut cfg = TransportConfig {
            chunk_len: 4,
            ..TransportConfig::default()
        };
        cfg.retry.max_attempts = 11;
        cfg.retry.base = Duration::from_millis(20);
        let mut sink = TcpChunkSink::new(addr.to_string(), 1, cfg);
        sink.send_chunk(vec![vec![Complex64::new(1.0, 2.0); 4]])
            .unwrap();
        assert!(server.join().unwrap());
        assert_eq!(sink.stats().chunks_sent(), 1);
    }
}
