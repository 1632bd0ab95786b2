//! Deterministic in-process network chaos proxy.
//!
//! A [`ChaosProxy`] sits between a client and an upstream TCP peer (or,
//! as [`UdpChaosProxy`], between UDP endpoints) and injects transport
//! faults: added latency and jitter, bandwidth caps, byte corruption,
//! window reordering, silent drops, half-open partitions, and hard
//! connection resets — the seven fault classes of [`FaultClass`].
//!
//! # Determinism
//!
//! Every fault decision is a **pure function of `(seed, flow, direction,
//! window index)`** via the PR-6 seed tree (`mimonet::netfault`), where a
//! *window* is a fixed byte span of the forwarded stream. Decisions are
//! keyed to byte offsets, never to socket read boundaries, so however
//! the kernel coalesces segments — and however many worker threads a
//! soak uses — the same bytes are corrupted, dropped, held, or cut at
//! the same offsets. That is what makes the chaos soak matrix
//! byte-reproducible: timing may differ between runs, but *what
//! happened to the bytes* cannot.
//!
//! Latency, jitter, and bandwidth throttling shape timing only and never
//! change forwarded bytes, so they are exempt from (and cannot break)
//! the byte-reproducibility guarantee.

use mimonet::netfault::{window_byte, window_lottery};
use mimonet_dsp::seedtree;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Domain salts separating the per-fault lottery streams.
const CORRUPT_SALT: u64 = 0x636F_7272_7570_7400; // "corrupt"
const DROP_SALT: u64 = 0x0064_726F_7070_6564; // "dropped"
const REORDER_SALT: u64 = 0x7265_6F72_6465_7200; // "reorder"
const PARTITION_SALT: u64 = 0x7061_7274_6974_696F; // "partitio"
const RESET_SALT: u64 = 0x0000_7265_7365_7400; // "reset"
const JITTER_SALT: u64 = 0x006A_6974_7465_7200; // "jitter"

/// The seven injectable fault classes (plus a clean baseline), each
/// mapping to a [`ChaosSpec`] preset via [`FaultClass::spec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// No faults — the control arm.
    Clean,
    /// Added per-window latency with deterministic jitter.
    Latency,
    /// Throughput capped to a byte rate.
    Bandwidth,
    /// Single-byte corruption inside a window (CRC territory).
    Corrupt,
    /// Adjacent forwarded windows swapped (stream scramble).
    Reorder,
    /// Windows silently swallowed (mid-stream truncation).
    Drop,
    /// Half-open partition: one direction freezes, the socket stays up.
    Partition,
    /// Hard connection reset at a deterministic stream offset.
    Reset,
}

impl FaultClass {
    /// The seven injectable classes, in canonical order.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Latency,
        FaultClass::Bandwidth,
        FaultClass::Corrupt,
        FaultClass::Reorder,
        FaultClass::Drop,
        FaultClass::Partition,
        FaultClass::Reset,
    ];

    /// Stable name (report keys, CLI).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Clean => "clean",
            FaultClass::Latency => "latency",
            FaultClass::Bandwidth => "bandwidth",
            FaultClass::Corrupt => "corrupt",
            FaultClass::Reorder => "reorder",
            FaultClass::Drop => "drop",
            FaultClass::Partition => "partition",
            FaultClass::Reset => "reset",
        }
    }

    /// A preset [`ChaosSpec`] for this class at `intensity` in `[0, 1]`.
    pub fn spec(self, seed: u64, intensity: f64) -> ChaosSpec {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut s = ChaosSpec::clean(seed);
        match self {
            FaultClass::Clean => {}
            FaultClass::Latency => {
                s.latency = Duration::from_micros((2000.0 * intensity) as u64);
                s.jitter = Duration::from_micros((2000.0 * intensity) as u64);
            }
            FaultClass::Bandwidth => {
                // 8 MB/s down to ~800 kB/s at full intensity.
                s.bytes_per_sec = Some((8_000_000.0 / (1.0 + 9.0 * intensity)) as u64);
            }
            FaultClass::Corrupt => s.corrupt_rate = 0.02 * intensity,
            FaultClass::Reorder => s.reorder_rate = 0.05 * intensity,
            FaultClass::Drop => s.drop_rate = 0.01 * intensity,
            FaultClass::Partition => s.partition_rate = 0.6 * intensity,
            FaultClass::Reset => s.reset_rate = 0.6 * intensity,
        }
        s
    }
}

/// Full fault configuration for one proxy. Rates are per *window*
/// (`corrupt_rate`, `drop_rate`, `reorder_rate`) or per *flow*
/// (`partition_rate`, `reset_rate` — a flow either gets the fault, at a
/// deterministic offset, or not).
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Master seed for every lottery in this proxy.
    pub seed: u64,
    /// Decision window, bytes. Every `window` bytes of each direction is
    /// one independent fault decision.
    pub window: usize,
    /// Base added latency per window.
    pub latency: Duration,
    /// Deterministic jitter ceiling added on top of `latency`.
    pub jitter: Duration,
    /// Bandwidth cap, bytes/second (None = unthrottled).
    pub bytes_per_sec: Option<u64>,
    /// Per-window probability of flipping one byte.
    pub corrupt_rate: f64,
    /// Per-window probability of silently swallowing the window.
    pub drop_rate: f64,
    /// Per-window probability of holding the window behind its successor.
    pub reorder_rate: f64,
    /// Per-flow probability of a half-open partition (server→client
    /// direction freezes at a deterministic offset; sockets stay open).
    pub partition_rate: f64,
    /// Per-flow probability of a hard connection reset at a
    /// deterministic server→client offset.
    pub reset_rate: f64,
}

impl ChaosSpec {
    /// A fault-free spec (latency/bandwidth pass-through).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            window: 256,
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bytes_per_sec: None,
            corrupt_rate: 0.0,
            drop_rate: 0.0,
            reorder_rate: 0.0,
            partition_rate: 0.0,
            reset_rate: 0.0,
        }
    }
}

/// Cumulative proxy counters, shared via `Arc`. Byte/window counters are
/// deterministic for a deterministic client; timing is not counted here.
#[derive(Debug, Default)]
pub struct ChaosStats {
    flows: AtomicU64,
    bytes_in: AtomicU64,
    bytes_forwarded: AtomicU64,
    corrupted_windows: AtomicU64,
    dropped_windows: AtomicU64,
    reordered_windows: AtomicU64,
    partitions: AtomicU64,
    resets: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        $( $(#[$doc])* pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) } )*
    };
}

impl ChaosStats {
    stat_getters! {
        /// Connections (flows) proxied.
        flows,
        /// Bytes read from either side.
        bytes_in,
        /// Bytes actually forwarded (post-drop/partition).
        bytes_forwarded,
        /// Windows with a flipped byte.
        corrupted_windows,
        /// Windows silently swallowed.
        dropped_windows,
        /// Windows held behind their successor.
        reordered_windows,
        /// Flows that hit a half-open partition.
        partitions,
        /// Flows hard-reset mid-stream.
        resets,
    }
}

/// What one direction of one flow does to its byte stream.
///
/// Bytes stream through *incrementally* — a fault decision needs only
/// the absolute byte-offset window an incoming span falls in, never the
/// whole window buffered, so interactive request/reply exchanges (whose
/// messages are far smaller than a window) are forwarded immediately.
/// The one exception is a window held for reordering, which buffers
/// until the following window completes (or an idle tick / EOF flushes
/// it un-swapped).
struct DirectionEngine {
    spec: ChaosSpec,
    /// Seed mixing in flow and direction identity.
    stream_seed: u64,
    /// Absolute byte offset consumed so far.
    offset: u64,
    /// A window held for reordering: (window index, bytes so far,
    /// absolute release offset — the end of the following window).
    held: Option<(u64, Vec<u8>, u64)>,
    /// Last window counted into `dropped_windows` (stat dedupe when a
    /// dropped window arrives as several spans).
    last_dropped: u64,
    /// Freeze offset for a half-open partition, if this flow drew one.
    partition_at: Option<u64>,
    /// Hard-reset offset, if this flow drew one.
    reset_at: Option<u64>,
    partitioned: bool,
    stats: Arc<ChaosStats>,
}

/// Engine verdict for the forwarder loop.
enum Verdict {
    /// Keep forwarding.
    Continue,
    /// Hard-reset the flow now (close both sockets).
    Reset,
}

impl DirectionEngine {
    fn new(spec: &ChaosSpec, flow: u64, dir: u64, stats: Arc<ChaosStats>) -> Self {
        let stream_seed = seedtree::mix(spec.seed ^ seedtree::mix(flow) ^ dir.rotate_left(17));
        // Per-flow faults apply to the server→client direction (dir 1),
        // where session replies stream — the direction resumption heals.
        let (partition_at, reset_at) = if dir == 1 {
            let span = (spec.window as u64).max(64);
            let partition_at = (spec.partition_rate > 0.0
                && window_lottery(stream_seed ^ PARTITION_SALT, 0) < spec.partition_rate)
                .then(|| {
                    span * (1 + (window_lottery(stream_seed ^ PARTITION_SALT, 1) * 6.0) as u64)
                });
            let reset_at = (spec.reset_rate > 0.0
                && window_lottery(stream_seed ^ RESET_SALT, 0) < spec.reset_rate)
                .then(|| span * (1 + (window_lottery(stream_seed ^ RESET_SALT, 1) * 6.0) as u64));
            (partition_at, reset_at)
        } else {
            (None, None)
        };
        Self {
            spec: spec.clone(),
            stream_seed,
            offset: 0,
            held: None,
            last_dropped: u64::MAX,
            partition_at,
            reset_at,
            partitioned: false,
            stats,
        }
    }

    /// Shapes timing for `len` forwarded bytes (latency, jitter,
    /// bandwidth). Timing-only: never touches content.
    fn pace(&self, len: usize) {
        let index = self.offset / self.spec.window.max(1) as u64;
        let mut delay = self.spec.latency;
        if !self.spec.jitter.is_zero() {
            delay += self
                .spec
                .jitter
                .mul_f64(window_lottery(self.stream_seed ^ JITTER_SALT, index));
        }
        if let Some(bps) = self.spec.bytes_per_sec {
            if bps > 0 {
                delay += Duration::from_secs_f64(len as f64 / bps as f64);
            }
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Feeds freshly read bytes; appends the bytes to forward now onto
    /// `out`. Spans are split at window boundaries so every fault
    /// decision is keyed to an absolute byte-offset window, independent
    /// of how the socket segmented the stream.
    fn ingest(&mut self, buf: &[u8], out: &mut Vec<u8>) -> Verdict {
        self.stats
            .bytes_in
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let w = self.spec.window.max(1) as u64;
        let mut i = 0usize;
        while i < buf.len() {
            let k = self.offset / w;
            let win_end = (k + 1) * w;
            let take = ((win_end - self.offset) as usize).min(buf.len() - i);
            if let Verdict::Reset = self.piece(k, &buf[i..i + take], out) {
                return Verdict::Reset;
            }
            self.offset += take as u64;
            i += take;
            if self.offset == win_end {
                self.release_due(out);
            }
        }
        Verdict::Continue
    }

    /// One span of bytes lying entirely inside window `k`, starting at
    /// absolute offset `self.offset`.
    fn piece(&mut self, k: u64, bytes: &[u8], out: &mut Vec<u8>) -> Verdict {
        let start = self.offset;
        // Hard reset: forward the bytes before the cut, then kill the
        // flow.
        if let Some(at) = self.reset_at {
            if start + bytes.len() as u64 > at {
                let keep = (at.saturating_sub(start) as usize).min(bytes.len());
                self.forward_span(k, start, &bytes[..keep], out);
                self.stats.resets.fetch_add(1, Ordering::Relaxed);
                return Verdict::Reset;
            }
        }
        // Half-open partition: forward up to the freeze offset, then
        // swallow silently forever while the socket stays open.
        if let Some(at) = self.partition_at {
            if start + bytes.len() as u64 > at {
                if !self.partitioned {
                    let keep = (at.saturating_sub(start) as usize).min(bytes.len());
                    self.forward_span(k, start, &bytes[..keep], out);
                    self.partitioned = true;
                    self.stats.partitions.fetch_add(1, Ordering::Relaxed);
                }
                return Verdict::Continue;
            }
        }
        if self.spec.drop_rate > 0.0
            && window_lottery(self.stream_seed ^ DROP_SALT, k) < self.spec.drop_rate
        {
            if self.last_dropped != k {
                self.last_dropped = k;
                self.stats.dropped_windows.fetch_add(1, Ordering::Relaxed);
            }
            return Verdict::Continue;
        }
        self.forward_span(k, start, bytes, out);
        Verdict::Continue
    }

    /// Applies byte corruption and the reorder hold to a surviving
    /// span, then emits it (or parks it on the hold).
    fn forward_span(&mut self, k: u64, start: u64, bytes: &[u8], out: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let mut owned = bytes.to_vec();
        let w = self.spec.window.max(1);
        if self.spec.corrupt_rate > 0.0
            && window_lottery(self.stream_seed ^ CORRUPT_SALT, k) < self.spec.corrupt_rate
        {
            // The corrupted byte sits at a seeded position inside the
            // window span; if the stream ends before that offset the
            // corruption simply never materializes.
            let pos = k * w as u64 + window_byte(self.stream_seed ^ CORRUPT_SALT, k, w) as u64;
            if pos >= start && pos < start + owned.len() as u64 {
                owned[(pos - start) as usize] ^= 0x20;
                self.stats.corrupted_windows.fetch_add(1, Ordering::Relaxed);
            }
        }
        match &mut self.held {
            // Later pieces of the held window keep accumulating on it;
            // anything newer overtakes it on the wire.
            Some((hk, hbuf, _)) if *hk == k => hbuf.extend_from_slice(&owned),
            Some(_) => out.extend_from_slice(&owned),
            None => {
                if self.spec.reorder_rate > 0.0
                    && window_lottery(self.stream_seed ^ REORDER_SALT, k) < self.spec.reorder_rate
                {
                    self.stats.reordered_windows.fetch_add(1, Ordering::Relaxed);
                    // Hold window k until the end of window k+1: two
                    // adjacent spans swapped on the wire.
                    self.held = Some((k, owned, (k + 2) * w as u64));
                } else {
                    out.extend_from_slice(&owned);
                }
            }
        }
    }

    /// Releases the held window once its successor has fully passed.
    fn release_due(&mut self, out: &mut Vec<u8>) {
        if let Some((_, _, release_at)) = &self.held {
            if self.offset >= *release_at {
                let (_, h, _) = self.held.take().expect("held checked above");
                out.extend_from_slice(&h);
            }
        }
    }

    /// Idle tick (socket read timeout): a held window must not stall an
    /// interactive exchange forever, so it flushes un-swapped. A
    /// partitioned direction swallows it instead — nothing crosses a
    /// partition.
    fn idle(&mut self, out: &mut Vec<u8>) {
        if self.partitioned {
            self.held = None;
            return;
        }
        if let Some((_, h, _)) = self.held.take() {
            out.extend_from_slice(&h);
        }
    }

    /// End of stream: flush any held window.
    fn finish(&mut self, out: &mut Vec<u8>) {
        self.idle(out);
    }
}

/// A deterministic TCP man-in-the-middle: accepts on a local port,
/// dials `upstream` per connection, and forwards both directions
/// through a fault engine each (`DirectionEngine`). Flow indices are assigned in
/// accept order, so a sequential client sees a reproducible fault
/// schedule across its connection attempts.
pub struct ChaosProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds 127.0.0.1:0 and proxies every connection to `upstream`
    /// under `spec`.
    pub fn spawn(upstream: SocketAddr, spec: ChaosSpec) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let accept = {
            let stop = stop.clone();
            let stats = stats.clone();
            std::thread::spawn(move || accept_loop(listener, upstream, spec, &stop, stats))
        };
        Ok(Self {
            local,
            stop,
            stats,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        self.stats.clone()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    spec: ChaosSpec,
    stop: &Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
) {
    let mut flow = 0u64;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((client, _)) => {
                let up = match TcpStream::connect(upstream) {
                    Ok(s) => s,
                    Err(_) => continue, // upstream down: drop the client
                };
                stats.flows.fetch_add(1, Ordering::Relaxed);
                client.set_nodelay(true).ok();
                up.set_nodelay(true).ok();
                let (c2, u2) = match (client.try_clone(), up.try_clone()) {
                    (Ok(c), Ok(u)) => (c, u),
                    _ => continue,
                };
                let e_c2s = DirectionEngine::new(&spec, flow, 0, stats.clone());
                let e_s2c = DirectionEngine::new(&spec, flow, 1, stats.clone());
                let stop_a = stop.clone();
                let stop_b = stop.clone();
                workers.push(std::thread::spawn(move || {
                    forward(client, up, e_c2s, &stop_a);
                }));
                workers.push(std::thread::spawn(move || {
                    forward(u2, c2, e_s2c, &stop_b);
                }));
                flow += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Pumps `from` → `to` through `engine` until EOF, error, reset, or
/// proxy stop.
fn forward(from: TcpStream, to: TcpStream, mut engine: DirectionEngine, stop: &AtomicBool) {
    from.set_read_timeout(Some(Duration::from_millis(50))).ok();
    let mut src = &from;
    let mut dst = &to;
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                out.clear();
                engine.finish(&mut out);
                flush(&mut dst, &engine, &out);
                // Half-close so the peer sees EOF while the other
                // direction may still be live.
                to.shutdown(Shutdown::Write).ok();
                return;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle: release any reorder-held bytes so a quiet
                // interactive exchange isn't stalled by the hold.
                out.clear();
                engine.idle(&mut out);
                if !flush(&mut dst, &engine, &out) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        out.clear();
        let verdict = engine.ingest(&buf[..n], &mut out);
        if !flush(&mut dst, &engine, &out) {
            break;
        }
        if let Verdict::Reset = verdict {
            from.shutdown(Shutdown::Both).ok();
            to.shutdown(Shutdown::Both).ok();
            return;
        }
    }
    from.shutdown(Shutdown::Both).ok();
    to.shutdown(Shutdown::Both).ok();
}

/// Writes `out` to the peer with pacing; `false` on a dead socket.
fn flush(dst: &mut &TcpStream, engine: &DirectionEngine, out: &[u8]) -> bool {
    if out.is_empty() {
        return true;
    }
    engine.pace(out.len());
    if dst.write_all(out).is_err() {
        return false;
    }
    engine
        .stats
        .bytes_forwarded
        .fetch_add(out.len() as u64, Ordering::Relaxed);
    true
}

/// A deterministic UDP man-in-the-middle: datagrams from the first peer
/// are relayed to `upstream` and vice versa, with per-datagram drop /
/// corrupt / reorder lotteries indexed by arrival order per direction.
pub struct UdpChaosProxy {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl UdpChaosProxy {
    /// Binds 127.0.0.1:0; datagrams sent here are relayed to `upstream`.
    pub fn spawn(upstream: SocketAddr, spec: ChaosSpec) -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        let local = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let pump = {
            let stop = stop.clone();
            let stats = stats.clone();
            std::thread::spawn(move || udp_pump(socket, upstream, spec, &stop, stats))
        };
        Ok(Self {
            local,
            stop,
            stats,
            pump: Some(pump),
        })
    }

    /// The proxy's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        self.stats.clone()
    }
}

impl Drop for UdpChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.pump.take() {
            let _ = h.join();
        }
    }
}

fn udp_pump(
    socket: UdpSocket,
    upstream: SocketAddr,
    spec: ChaosSpec,
    stop: &AtomicBool,
    stats: Arc<ChaosStats>,
) {
    let seed = seedtree::mix(spec.seed ^ 0x0075_6470);
    let mut buf = vec![0u8; 65_536];
    let mut index = 0u64;
    let mut held: Option<(Vec<u8>, SocketAddr)> = None;
    let mut downstream: Option<SocketAddr> = None;
    while !stop.load(Ordering::Relaxed) {
        let (n, from) = match socket.recv_from(&mut buf) {
            Ok(v) => v,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        let dest = if from == upstream {
            match downstream {
                Some(d) => d,
                None => continue, // reply before any client datagram
            }
        } else {
            downstream = Some(from);
            upstream
        };
        let i = index;
        index += 1;
        let mut gram = buf[..n].to_vec();
        if spec.drop_rate > 0.0 && window_lottery(seed ^ DROP_SALT, i) < spec.drop_rate {
            stats.dropped_windows.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if spec.corrupt_rate > 0.0
            && !gram.is_empty()
            && window_lottery(seed ^ CORRUPT_SALT, i) < spec.corrupt_rate
        {
            let at = window_byte(seed ^ CORRUPT_SALT, i, gram.len());
            gram[at] ^= 0x20;
            stats.corrupted_windows.fetch_add(1, Ordering::Relaxed);
        }
        if let Some((h, haddr)) = held.take() {
            // Emit the newer datagram first, then the held one.
            send_gram(&socket, &gram, dest, &stats);
            send_gram(&socket, &h, haddr, &stats);
        } else if spec.reorder_rate > 0.0
            && window_lottery(seed ^ REORDER_SALT, i) < spec.reorder_rate
        {
            stats.reordered_windows.fetch_add(1, Ordering::Relaxed);
            held = Some((gram, dest));
        } else {
            send_gram(&socket, &gram, dest, &stats);
        }
    }
    if let Some((h, haddr)) = held.take() {
        send_gram(&socket, &h, haddr, &stats);
    }
}

fn send_gram(socket: &UdpSocket, gram: &[u8], dest: SocketAddr, stats: &ChaosStats) {
    if socket.send_to(gram, dest).is_ok() {
        stats
            .bytes_forwarded
            .fetch_add(gram.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo upstream: accepts exactly one connection and echoes bytes
    /// back until EOF (every pump_through drives a single flow).
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let mut buf = [0u8; 4096];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    fn pump_through(spec: ChaosSpec, payload: &[u8]) -> (Vec<u8>, Arc<ChaosStats>) {
        let (up, server) = echo_server();
        let proxy = ChaosProxy::spawn(up, spec).unwrap();
        let stats = proxy.stats();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(payload).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).ok();
        drop(c);
        drop(proxy);
        server.join().ok();
        (back, stats)
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let (back, stats) = pump_through(ChaosSpec::clean(1), &payload);
        assert_eq!(back, payload);
        assert_eq!(stats.corrupted_windows(), 0);
        assert_eq!(stats.dropped_windows(), 0);
        assert_eq!(stats.flows(), 1);
    }

    #[test]
    fn corruption_is_deterministic_and_byte_level() {
        let payload: Vec<u8> = vec![0u8; 8192];
        let spec = FaultClass::Corrupt.spec(42, 1.0);
        let (a, stats_a) = pump_through(spec.clone(), &payload);
        let (b, stats_b) = pump_through(spec, &payload);
        assert_eq!(a.len(), payload.len(), "corruption never changes length");
        assert_ne!(a, payload, "2% per-window corruption over 32 windows");
        assert_eq!(a, b, "same seed, same corrupted bytes");
        assert_eq!(stats_a.corrupted_windows(), stats_b.corrupted_windows());
        assert!(stats_a.corrupted_windows() > 0);
    }

    #[test]
    fn drops_shorten_the_stream_deterministically() {
        let payload: Vec<u8> = (0..16384u32).map(|i| i as u8).collect();
        let mut spec = ChaosSpec::clean(7);
        spec.drop_rate = 0.25;
        let (a, stats) = pump_through(spec.clone(), &payload);
        let (b, _) = pump_through(spec, &payload);
        assert!(a.len() < payload.len(), "25% window drop must shed bytes");
        assert_eq!(a, b, "same seed, same swallowed windows");
        assert!(stats.dropped_windows() > 0);
    }

    #[test]
    fn reorder_swaps_windows_without_losing_bytes() {
        // Period 251 is coprime to the 256-byte window, so adjacent
        // windows differ and a swap is visible in the byte stream.
        let payload: Vec<u8> = (0..16384u32).map(|i| (i % 251) as u8).collect();
        let mut spec = ChaosSpec::clean(3);
        spec.reorder_rate = 0.3;
        let (a, stats) = pump_through(spec.clone(), &payload);
        let (b, _) = pump_through(spec, &payload);
        assert_eq!(a.len(), payload.len(), "reorder preserves every byte");
        assert_ne!(a, payload, "windows must actually swap");
        assert_eq!(a, b);
        assert!(stats.reordered_windows() > 0);
        let mut sorted_a = a.clone();
        let mut sorted_p = payload.clone();
        sorted_a.sort_unstable();
        sorted_p.sort_unstable();
        assert_eq!(sorted_a, sorted_p, "multiset of bytes is preserved");
    }

    #[test]
    fn reset_cuts_the_flow_at_a_deterministic_offset() {
        let payload: Vec<u8> = vec![0xAB; 65536];
        let spec = FaultClass::Reset.spec(11, 1.0);
        let (a, stats_a) = pump_through(spec.clone(), &payload);
        let (b, _) = pump_through(spec, &payload);
        assert!(a.len() < payload.len(), "reset must cut the stream");
        assert_eq!(a.len(), b.len(), "same seed, same cut offset");
        assert!(stats_a.resets() > 0);
    }

    #[test]
    fn latency_shaping_never_changes_bytes() {
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 199) as u8).collect();
        let (back, _) = pump_through(FaultClass::Latency.spec(5, 0.2), &payload);
        assert_eq!(back, payload);
        let (back, _) = pump_through(FaultClass::Bandwidth.spec(5, 0.5), &payload);
        assert_eq!(back, payload);
    }

    #[test]
    fn udp_proxy_drops_and_corrupts_datagrams_deterministically() {
        let run = |spec: ChaosSpec| {
            let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
            upstream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let up_addr = upstream.local_addr().unwrap();
            let proxy = UdpChaosProxy::spawn(up_addr, spec).unwrap();
            let client = UdpSocket::bind("127.0.0.1:0").unwrap();
            for i in 0..40u8 {
                client.send_to(&[i; 64], proxy.local_addr()).unwrap();
                // Pace sends so arrival order (= decision index) is stable.
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut got = Vec::new();
            let mut buf = [0u8; 128];
            while let Ok((n, _)) = upstream.recv_from(&mut buf) {
                got.push(buf[..n].to_vec());
            }
            let stats = proxy.stats();
            (got, stats.dropped_windows(), stats.corrupted_windows())
        };
        let mut spec = ChaosSpec::clean(9);
        spec.drop_rate = 0.25;
        spec.corrupt_rate = 0.25;
        let (a, dropped_a, corrupted_a) = run(spec.clone());
        let (b, dropped_b, corrupted_b) = run(spec);
        assert!(a.len() < 40, "drops must shed datagrams");
        assert_eq!(a, b, "same seed, same datagram fates");
        assert_eq!(dropped_a, dropped_b);
        assert_eq!(corrupted_a, corrupted_b);
        assert!(dropped_a > 0 && corrupted_a > 0);
    }
}
