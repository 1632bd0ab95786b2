//! Per-connection protocol state machine for the engine.
//!
//! One `Conn` owns one non-blocking socket and speaks the link wire
//! protocol — a versioned `Hello` handshake (client first), then any
//! number of requests, each answered by its reply sequence or a typed
//! `ErrorReport` — without ever blocking: reads accumulate into a
//! buffer that the frame codec ([`crate::wire::decode`]) drains
//! message-by-message, and writes drain an outbound buffer that replies
//! are encoded into lazily (bounded, so a slow reader cannot balloon
//! memory). A wire fault (bad CRC, desync, EOF inside a frame) is
//! answered with the typed report from [`crate::net::transport_error`],
//! counted as a protocol error, and closes the connection after the
//! flush.
//!
//! A `SessionRequest` marks the connection **busy** and hands the
//! session to the compute plane; further client messages queue in the
//! read buffer until the completion comes back, so each connection runs
//! one session at a time without parking a thread. Each reply streams
//! at most the token budget's worth of data frames: frames beyond it
//! are shed (counted, resumable later), control frames never are.

use super::compute::{Completion, ComputePlane, SessionRun};
use super::EngineShared;
use crate::resilience::Deadline;
use crate::session::MAX_SESSION_FRAMES;
use crate::store::StoredSession;
use crate::wire::{
    decode, encode, WireError, WireMsg, METRICS_JSON, METRICS_PROMETHEUS, WIRE_VERSION,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Outbound buffer high-water mark: replies are encoded from the
/// `pending` message queue only while the byte buffer is below this, so
/// a huge session reply streams incrementally instead of materializing
/// at once.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// A connection-level `ErrorReport`: untraced, scoped to `session`
/// (0 = none), with the `GiveUp` kind `give_up` (empty when it is not
/// a give-up).
fn error_report(kind: impl Into<String>, detail: String, session: u64, give_up: &str) -> WireMsg {
    WireMsg::ErrorReport {
        kind: kind.into(),
        detail,
        session,
        give_up: give_up.into(),
        span: 0,
    }
}

/// What a connection needs from its surroundings to service events.
pub(crate) struct Ctx<'a> {
    pub shared: &'a EngineShared,
    pub compute: &'a ComputePlane,
    pub shard: usize,
    pub conn_id: u64,
}

/// One client connection's full state.
pub(crate) struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// Replies awaiting encode into `wbuf`.
    pending: VecDeque<WireMsg>,
    hello_done: bool,
    /// A session is in the compute plane; hold off dispatching more
    /// client messages until its completion arrives.
    busy: bool,
    /// Flush what is queued, then close.
    closing: bool,
    /// Peer sent EOF; no more reads.
    read_eof: bool,
    dead: bool,
    deadline: Option<Deadline>,
}

impl Conn {
    /// Wraps an accepted stream (made non-blocking here).
    pub(crate) fn new(stream: TcpStream, deadline: Option<Deadline>) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            hello_done: false,
            busy: false,
            closing: false,
            read_eof: false,
            dead: false,
            deadline,
        })
    }

    /// The underlying socket, for poll registration.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Whether the connection still has output to flush.
    pub(crate) fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len() || !self.pending.is_empty()
    }

    /// Whether the connection is finished and can be dropped.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead || (self.closing && !self.wants_write()) || (self.read_eof && !self.wants_write())
    }

    /// Time left before this connection's deadline fires; `None` without
    /// a deadline, or once the connection is closing and it has fired.
    pub(crate) fn deadline_left(&self) -> Option<Duration> {
        if self.closing || self.dead {
            return None;
        }
        self.deadline.as_ref().map(Deadline::remaining)
    }

    /// Connection-deadline check: past its budget a connection is
    /// answered with a typed `give-up-deadline` report (so the client
    /// knows to re-dial rather than wait) and closed after the flush.
    pub(crate) fn check_deadline(&mut self, ctx: &Ctx<'_>) {
        if self.closing || self.dead {
            return;
        }
        if self.deadline.as_ref().is_some_and(Deadline::expired) {
            let budget = ctx.shared.config.connection_deadline.unwrap_or_default();
            self.pending.push_back(error_report(
                "give-up-deadline",
                format!("connection exceeded its {budget:?} service budget"),
                0,
                "give-up-deadline",
            ));
            self.closing = true;
            self.flush(ctx);
        }
    }

    /// Drains the socket into the read buffer and dispatches complete
    /// messages; then flushes any produced replies.
    pub(crate) fn on_readable(&mut self, ctx: &Ctx<'_>) {
        if self.dead || self.read_eof {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.dispatch(ctx);
        self.flush(ctx);
    }

    /// Parses and handles every complete message in the read buffer.
    fn dispatch(&mut self, ctx: &Ctx<'_>) {
        let mut consumed = 0usize;
        while !self.busy && !self.closing && !self.dead {
            match decode(&self.rbuf[consumed..]) {
                Ok((msg, n)) => {
                    consumed += n;
                    self.handle(msg, ctx);
                }
                // Wait for the rest of the frame — unless the peer is
                // gone. A clean EOF (empty buffer) closes silently.
                Err(WireError::Truncated { .. })
                    if !self.read_eof || consumed == self.rbuf.len() =>
                {
                    break
                }
                Err(e) => {
                    // Bad CRC, desync, oversized frame, EOF mid-frame:
                    // typed close.
                    ctx.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let report = crate::net::transport_error(&e);
                    self.pending
                        .push_back(error_report(report.kind, report.detail, 0, ""));
                    self.closing = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
    }

    /// One protocol message: the handshake until `Hello` is done, then
    /// probes, resumes, and session requests.
    fn handle(&mut self, msg: WireMsg, ctx: &Ctx<'_>) {
        let shared = ctx.shared;
        if !self.hello_done {
            match msg {
                WireMsg::Hello { version } if version == WIRE_VERSION => {
                    self.hello_done = true;
                    self.pending.push_back(WireMsg::Hello {
                        version: WIRE_VERSION,
                    });
                }
                WireMsg::Hello { version } => {
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.pending.push_back(error_report(
                        "transport-desync",
                        format!("wire version {version}, server speaks {WIRE_VERSION}"),
                        0,
                        "",
                    ));
                    self.closing = true;
                }
                _ => {
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.closing = true;
                }
            }
            return;
        }
        match msg {
            WireMsg::Bye => {
                self.pending.push_back(WireMsg::Bye);
                self.closing = true;
            }
            WireMsg::HealthProbe => {
                self.pending.push_back(WireMsg::Health(shared.health()));
            }
            WireMsg::MetricsProbe { format } => {
                let body = match format {
                    METRICS_JSON => shared.metrics_json(),
                    _ => shared.prometheus_text(),
                };
                let format = if format == METRICS_JSON {
                    METRICS_JSON
                } else {
                    METRICS_PROMETHEUS
                };
                self.pending.push_back(WireMsg::Metrics { format, body });
            }
            WireMsg::SessionResume { token, next_frame } => {
                let session = {
                    let mut store = shared.store.lock().unwrap();
                    let hit = store.get(token).cloned();
                    if hit.is_some() {
                        store.touch(token);
                    }
                    hit
                };
                match session {
                    Some(s) => {
                        shared
                            .stats
                            .sessions_resumed
                            .fetch_add(1, Ordering::Relaxed);
                        let from = next_frame.min(s.frames.len() as u32);
                        self.stream_stored(token, from, &s, false, shared);
                    }
                    None => {
                        self.pending.push_back(error_report(
                            "resume-unknown-token",
                            format!("no stored session for token {token:#x}"),
                            token,
                            "",
                        ));
                    }
                }
            }
            WireMsg::SessionRequest(cfg) => {
                shared
                    .stats
                    .sessions_started
                    .fetch_add(1, Ordering::Relaxed);
                let active = shared.stats.active_sessions.fetch_add(1, Ordering::Relaxed) + 1;
                if active > u64::from(shared.config.max_sessions) {
                    shared.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
                    shared.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                    self.pending.push_back(error_report(
                        "give-up-overload",
                        format!(
                            "{active} active sessions exceed the cap of {}",
                            shared.config.max_sessions
                        ),
                        0,
                        "give-up-overload",
                    ));
                    return;
                }
                let shed = active > u64::from(shared.config.shed_threshold);
                let token = shared.next_token();
                match SessionRun::new(ctx.conn_id, ctx.shard, cfg, token, shed) {
                    Ok(run) => {
                        ctx.compute.submit(Arc::new(run));
                        self.busy = true;
                    }
                    Err(e) => {
                        shared.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
                        shared.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                        self.pending.push_back(error_report(
                            "bad-config",
                            e.to_string(),
                            0,
                            "give-up-fatal",
                        ));
                    }
                }
            }
            other => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.pending.push_back(error_report(
                    "transport-desync",
                    format!("unexpected message: {other:?}"),
                    0,
                    "",
                ));
                self.closing = true;
            }
        }
    }

    /// Lands a compute-plane completion: stream the telemetry rounds and
    /// the reply, then resume dispatching whatever the client queued.
    pub(crate) fn on_completion(&mut self, completion: Completion, ctx: &Ctx<'_>) {
        let shared = ctx.shared;
        shared.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
        self.busy = false;
        for (round, telemetry_json) in completion.updates {
            self.pending.push_back(WireMsg::TelemetryUpdate {
                round,
                telemetry_json,
            });
        }
        self.stream_stored(
            completion.token,
            0,
            &completion.session,
            completion.shed,
            shared,
        );
        shared.stats.sessions_ok.fetch_add(1, Ordering::Relaxed);
        self.dispatch(ctx);
        self.flush(ctx);
    }

    /// Queues a stored/fresh session reply from `frames[from..]` onward:
    /// `SessionAccept` → `FrameDecoded`* → `SessionStats` → [`Trace`] →
    /// `Telemetry`, with data frames metered through the per-session
    /// token budget and overload shed (control frames always flow).
    fn stream_stored(
        &mut self,
        token: u64,
        from: u32,
        session: &StoredSession,
        shed: bool,
        shared: &EngineShared,
    ) {
        self.pending.push_back(WireMsg::SessionAccept {
            token,
            resumed_from: from,
        });
        let frames = &session.frames[from as usize..];
        let remaining = frames.len() as u64;
        let stats = &shared.stats;
        if shed {
            // Overload: withhold the bulky data frames, keep control
            // flowing; the client re-fetches via resume later.
            stats.shed_frames.fetch_add(remaining, Ordering::Relaxed);
            stats.shed_total.fetch_add(remaining, Ordering::Relaxed);
        } else {
            // Token budget: one token per data frame. The first `sent`
            // frames stream and the rest are shed, so the reply holds at
            // most `sent` data frames queued.
            let budget = match shared.config.session_token_budget {
                0 => u64::from(MAX_SESSION_FRAMES),
                b => u64::from(b),
            };
            let sent = remaining.min(budget);
            let streamed = frames[..sent as usize].iter().cloned();
            self.pending.extend(streamed.map(WireMsg::FrameDecoded));
            stats
                .shed_total
                .fetch_add(remaining - sent, Ordering::Relaxed);
            stats.session_tokens.store(budget - sent, Ordering::Relaxed);
            stats.session_queue_highwater.store(sent, Ordering::Relaxed);
        }
        self.pending.push_back(WireMsg::SessionStats {
            stats_json: session.stats_json.clone(),
        });
        if !session.trace.is_empty() {
            self.pending.push_back(WireMsg::Trace {
                events: session.trace.clone(),
            });
        }
        self.pending.push_back(WireMsg::Telemetry {
            telemetry_json: session.telemetry_json.clone(),
        });
    }

    /// Encodes pending replies (up to the high-water mark) and writes as
    /// much as the socket accepts.
    pub(crate) fn flush(&mut self, _ctx: &Ctx<'_>) {
        if self.dead {
            return;
        }
        loop {
            // Refill the byte buffer from the message queue.
            while self.wbuf.len() - self.wpos < WRITE_HIGH_WATER {
                match self.pending.pop_front() {
                    Some(msg) => self.wbuf.extend_from_slice(&encode(&msg)),
                    None => break,
                }
            }
            if self.wpos >= self.wbuf.len() {
                break;
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wpos += n;
                    if self.wpos == self.wbuf.len() {
                        self.wbuf.clear();
                        self.wpos = 0;
                        if self.pending.is_empty() {
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        // Reclaim written prefix so the buffer doesn't grow unbounded.
        if self.wpos > 0 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}
