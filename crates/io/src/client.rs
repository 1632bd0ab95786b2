//! Client library for `mimonet-linkd`.
//!
//! Speaks the wire protocol from the client side: `Hello` handshake,
//! then any number of [`LinkClient::run_session`] calls, each of which
//! collects the daemon's `SessionAccept` → `FrameDecoded`* →
//! `SessionStats` → `Telemetry` reply into a [`SessionResult`].
//! Server-side refusals arrive as [`ClientError::Server`] with the
//! daemon's typed kind; wire faults as [`ClientError::Wire`]. Used by
//! the loopback integration tests, the `--client`/`--selftest` modes of
//! the `mimonet-linkd` binary, and `bench_io`.
//!
//! [`ResilientClient`] layers the `resilience` policies on top: jittered
//! retries under a [`RetryPolicy`], a [`CircuitBreaker`] across
//! attempts, per-attempt socket deadlines, and session resumption — on
//! a mid-stream cut it re-dials and issues [`WireMsg::SessionResume`]
//! with the token from the interrupted attempt, deduplicating replayed
//! frames by index so the assembled stream is byte-identical to an
//! uninterrupted run. When every avenue is exhausted it returns a typed
//! [`GiveUp`], never a stringly error.

use crate::resilience::{CircuitBreaker, GiveUp, RetryPolicy};
use crate::wire::{
    read_msg, write_msg, DecodedFrame, HealthReport, SessionConfig, TraceEvent, WireError, WireMsg,
    WIRE_VERSION,
};
use mimonet::obs::{TraceCollector, TraceEventKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A failed client operation, typed.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The wire itself failed (truncation, CRC, disconnect, ...).
    Wire(WireError),
    /// The server refused or aborted the request with a typed report.
    Server {
        /// Machine-matchable kind (`"bad-config"`, `"transport-*"`,
        /// `"give-up-*"`, `"resume-unknown-token"`).
        kind: String,
        /// Human-readable detail.
        detail: String,
        /// Session token the report is scoped to (0 = none).
        session: u64,
        /// The server's `GiveUp::kind()` when the report is a give-up,
        /// empty otherwise.
        give_up: String,
        /// Trace span the error occurred under (0 = untraced).
        span: u64,
    },
    /// The server broke the reply sequence.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                kind,
                detail,
                session,
                give_up,
                ..
            } => {
                write!(f, "server error [{kind}]")?;
                if *session != 0 {
                    write!(f, " (session {session:#x})")?;
                }
                if !give_up.is_empty() {
                    write!(f, " ({give_up})")?;
                }
                write!(f, ": {detail}")
            }
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One served session's complete reply.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionResult {
    /// Decoded frames, in the order the daemon's receiver produced them.
    pub frames: Vec<DecodedFrame>,
    /// The session's `LinkStats`, JSON-rendered by the server.
    pub stats_json: String,
    /// The session flowgraph's `GraphSnapshot`, JSON-rendered.
    pub telemetry_json: String,
    /// Resume token the daemon issued for this session.
    pub token: u64,
    /// Frame index the (final) stream started from: 0 for an
    /// uninterrupted session, the resume point otherwise.
    pub resumed_from: u32,
    /// Mid-run telemetry rounds (`(round, telemetry_json)`) the daemon
    /// streamed when `SessionConfig::telemetry_every > 0`.
    pub updates: Vec<(u32, String)>,
    /// Server-side frame-lifecycle trace events when the session ran
    /// traced (`SessionConfig::trace != 0`).
    pub trace: Vec<TraceEvent>,
}

/// The error for a reply other than the one expected: the server's
/// typed report when it sent one, else a protocol error reading
/// `{context}{msg:?}`.
fn unexpected(msg: WireMsg, context: &str) -> ClientError {
    match msg {
        WireMsg::ErrorReport {
            kind,
            detail,
            session,
            give_up,
            span,
        } => ClientError::Server {
            kind,
            detail,
            session,
            give_up,
            span,
        },
        other => ClientError::Protocol(format!("{context}{other:?}")),
    }
}

/// In-flight reply state that must survive a connection cut: the resume
/// token and every frame delivered so far.
#[derive(Clone, Debug, Default)]
struct ReplyState {
    token: u64,
    resumed_from: u32,
    frames: Vec<DecodedFrame>,
    stats_json: Option<String>,
    updates: Vec<(u32, String)>,
    trace: Vec<TraceEvent>,
}

/// A connected `mimonet-linkd` client.
pub struct LinkClient {
    stream: TcpStream,
}

impl LinkClient {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_deadline(addr, None)
    }

    /// Connects with a per-read socket deadline: a server (or path) that
    /// stalls longer than `read_timeout` surfaces as a retryable
    /// [`ClientError::Wire`] instead of hanging forever. `None` waits
    /// indefinitely.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        read_timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let mut stream = TcpStream::connect(addr).map_err(WireError::from)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(read_timeout).ok();
        write_msg(
            &mut stream,
            &WireMsg::Hello {
                version: WIRE_VERSION,
            },
        )?;
        match read_msg(&mut stream)? {
            WireMsg::Hello { version } if version == WIRE_VERSION => Ok(Self { stream }),
            WireMsg::Hello { version } => Err(ClientError::Protocol(format!(
                "server speaks wire version {version}, client speaks {WIRE_VERSION}"
            ))),
            other => Err(unexpected(other, "expected Hello, got ")),
        }
    }

    /// Runs one link session on the daemon and collects the full reply.
    pub fn run_session(&mut self, cfg: &SessionConfig) -> Result<SessionResult, ClientError> {
        let mut state = ReplyState::default();
        write_msg(&mut self.stream, &WireMsg::SessionRequest(cfg.clone()))?;
        self.collect_reply(&mut state)
    }

    /// Resumes a stored session from `state.frames.len()` on. Exposed
    /// via [`ResilientClient`]; also callable directly with a token from
    /// a prior [`SessionResult`] (empty state = re-fetch everything).
    pub fn resume_session(
        &mut self,
        token: u64,
        next_frame: u32,
    ) -> Result<SessionResult, ClientError> {
        let mut state = ReplyState {
            token,
            ..ReplyState::default()
        };
        write_msg(
            &mut self.stream,
            &WireMsg::SessionResume { token, next_frame },
        )?;
        self.collect_reply(&mut state)
    }

    /// Asks the daemon for its health snapshot.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        write_msg(&mut self.stream, &WireMsg::HealthProbe)?;
        match read_msg(&mut self.stream)? {
            WireMsg::Health(h) => Ok(h),
            other => Err(unexpected(other, "expected Health, got ")),
        }
    }

    /// Asks the daemon for its metrics surface in `format`
    /// ([`crate::wire::METRICS_PROMETHEUS`] or
    /// [`crate::wire::METRICS_JSON`]); returns the format the server
    /// actually rendered plus the body.
    pub fn metrics(&mut self, format: u8) -> Result<(u8, String), ClientError> {
        write_msg(&mut self.stream, &WireMsg::MetricsProbe { format })?;
        match read_msg(&mut self.stream)? {
            WireMsg::Metrics { format, body } => Ok((format, body)),
            other => Err(unexpected(other, "expected Metrics, got ")),
        }
    }

    /// Collects one session reply into `state`; on success converts it
    /// to a [`SessionResult`]. On error, `state` keeps the token and the
    /// frames that made it across — the resume ingredients.
    fn collect_reply(&mut self, state: &mut ReplyState) -> Result<SessionResult, ClientError> {
        loop {
            match read_msg(&mut self.stream)? {
                WireMsg::SessionAccept {
                    token,
                    resumed_from,
                } => {
                    state.token = token;
                    state.resumed_from = resumed_from;
                }
                WireMsg::FrameDecoded(f) => {
                    // Idempotent replay: accept only the next expected
                    // index, so resumed overlap cannot duplicate frames.
                    if f.index as usize == state.frames.len() {
                        state.frames.push(f);
                    }
                }
                WireMsg::SessionStats { stats_json: s } => {
                    if state.stats_json.replace(s).is_some() {
                        return Err(ClientError::Protocol("duplicate SessionStats".into()));
                    }
                }
                // Telemetry terminates the session reply.
                WireMsg::Telemetry { telemetry_json } => {
                    let stats_json = state.stats_json.take().ok_or_else(|| {
                        ClientError::Protocol("Telemetry before SessionStats".into())
                    })?;
                    return Ok(SessionResult {
                        frames: std::mem::take(&mut state.frames),
                        stats_json,
                        telemetry_json,
                        token: state.token,
                        resumed_from: state.resumed_from,
                        updates: std::mem::take(&mut state.updates),
                        trace: std::mem::take(&mut state.trace),
                    });
                }
                WireMsg::TelemetryUpdate {
                    round,
                    telemetry_json,
                } => state.updates.push((round, telemetry_json)),
                WireMsg::Trace { events } => state.trace.extend(events),
                other => return Err(unexpected(other, "unexpected reply: ")),
            }
        }
    }

    /// Says goodbye and closes the connection.
    pub fn close(mut self) -> Result<(), ClientError> {
        write_msg(&mut self.stream, &WireMsg::Bye)?;
        // The server answers Bye best-effort; EOF is just as final.
        match crate::wire::read_msg_opt(&mut self.stream) {
            Ok(_) | Err(_) => Ok(()),
        }
    }

    /// The underlying stream — the fault-injection tests use this to
    /// write raw bytes and cut the connection mid-message.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// How a [`ResilientClient`] completed a session.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilientOutcome {
    /// The assembled session reply (byte-identical to an uninterrupted
    /// run — frames deduped by index across resumes).
    pub result: SessionResult,
    /// Connection attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Attempts that resumed a cut session rather than starting fresh.
    pub resumes: u32,
}

/// A self-healing linkd client: dial → run → on transport cut, re-dial
/// and resume, under a [`RetryPolicy`] and [`CircuitBreaker`], with a
/// per-read socket deadline so half-open partitions cannot hang it.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    breaker: CircuitBreaker,
    /// Per-read socket deadline for every attempt.
    pub read_timeout: Duration,
    /// Client-side trace collector: when set and the session config
    /// carries a trace root, retry/resume decisions and per-frame
    /// transport dequeues are recorded here under the same trace ids the
    /// server derives — the client half of an end-to-end trace.
    pub collector: Option<Arc<TraceCollector>>,
}

impl ResilientClient {
    /// A client for `addr` under `policy`, with a breaker sized for the
    /// policy (opens after the full retry budget fails twice in a row).
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        let breaker = CircuitBreaker::new(
            (policy.max_attempts.saturating_mul(2)).max(4),
            policy.max_delay,
        );
        Self {
            addr,
            policy,
            breaker,
            read_timeout: Duration::from_millis(500),
            collector: None,
        }
    }

    /// Runs `cfg` to completion across as many connections as the retry
    /// policy allows, resuming the session wherever a cut left it.
    pub fn run(&mut self, cfg: &SessionConfig) -> Result<ResilientOutcome, GiveUp> {
        let mut state = ReplyState::default();
        let mut resumes = 0u32;
        let mut slept = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            self.breaker.allow()?;
            let resuming = state.token != 0;
            if resuming {
                resumes += 1;
            }
            if let Some(c) = self.collector.as_ref().filter(|_| cfg.trace != 0) {
                // Session-scoped events carry the trace root itself and
                // the attempt number, so an export shows the retry/resume
                // timeline alongside the per-frame lifecycles.
                if resuming {
                    c.record(
                        cfg.trace,
                        TraceEventKind::Resume,
                        attempt,
                        0,
                        state.frames.len() as u64,
                    );
                } else if attempt > 0 {
                    c.record(cfg.trace, TraceEventKind::Retry, attempt, 0, 0);
                }
            }
            match self.attempt(cfg, &mut state) {
                Ok(result) => {
                    self.breaker.record_ok();
                    if let Some(c) = self.collector.as_ref().filter(|_| cfg.trace != 0) {
                        for f in &result.frames {
                            c.record(
                                f.trace,
                                TraceEventKind::TransportDequeue,
                                f.index,
                                0,
                                f.psdu.len() as u64,
                            );
                        }
                    }
                    return Ok(ResilientOutcome {
                        result,
                        attempts: attempt + 1,
                        resumes,
                    });
                }
                Err(e) => {
                    self.breaker.record_err();
                    match classify(&e) {
                        Classified::Fatal { kind, detail } => {
                            return Err(GiveUp::Fatal { kind, detail })
                        }
                        Classified::Overloaded(detail) => {
                            return Err(GiveUp::Overloaded { detail })
                        }
                        Classified::DropToken => state.token = 0,
                        Classified::Retry => {}
                    }
                    let Some(delay) = self.policy.backoff(attempt, slept) else {
                        return Err(GiveUp::RetryBudgetExhausted {
                            attempts: attempt + 1,
                            last_error: e.to_string(),
                        });
                    };
                    std::thread::sleep(delay);
                    slept += delay;
                    attempt += 1;
                }
            }
        }
    }

    /// One connection's worth of progress: dial, request or resume,
    /// collect. `state` accumulates across calls.
    fn attempt(
        &self,
        cfg: &SessionConfig,
        state: &mut ReplyState,
    ) -> Result<SessionResult, ClientError> {
        // A reply cut between SessionStats and Telemetry leaves stale
        // stats in `state`; the retried reply re-sends them, so the
        // duplicate guard must only see what this attempt delivered.
        state.stats_json = None;
        let mut client = LinkClient::connect_with_deadline(self.addr, Some(self.read_timeout))?;
        let r = if state.token != 0 {
            write_msg(
                &mut client.stream,
                &WireMsg::SessionResume {
                    token: state.token,
                    next_frame: state.frames.len() as u32,
                },
            )?;
            client.collect_reply(state)
        } else {
            write_msg(&mut client.stream, &WireMsg::SessionRequest(cfg.clone()))?;
            client.collect_reply(state)
        };
        if r.is_ok() {
            let _ = client.close();
        }
        r
    }
}

/// Retry-loop classification of a failed attempt.
enum Classified {
    /// Permanent refusal — retrying cannot help.
    Fatal { kind: String, detail: String },
    /// The server shed us; the caller decides whether to back off more.
    Overloaded(String),
    /// The resume token is gone (evicted/unknown): restart fresh.
    DropToken,
    /// Transient — retry.
    Retry,
}

fn classify(e: &ClientError) -> Classified {
    match e {
        ClientError::Server { kind, detail, .. } => match kind.as_str() {
            "bad-config" => Classified::Fatal {
                kind: kind.clone(),
                detail: detail.clone(),
            },
            "give-up-overload" => Classified::Overloaded(detail.clone()),
            "resume-unknown-token" => Classified::DropToken,
            _ => Classified::Retry,
        },
        ClientError::Wire(_) | ClientError::Protocol(_) => Classified::Retry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn a_refused_last_attempt_gives_up_without_a_further_backoff() {
        // Reserve a port, then close it so every dial is refused at once.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(200),
            max_delay: Duration::from_secs(1),
            sleep_budget: Duration::from_secs(10),
            jitter_salt: 5,
        };
        let (d0, d1) = (policy.delay(0), policy.delay(1));
        let mut client = ResilientClient::new(dead, policy);
        let start = Instant::now();
        let err = client.run(&SessionConfig::default()).unwrap_err();
        let elapsed = start.elapsed();
        assert_eq!(err.kind(), "give-up-retry-budget", "{err}");
        // One backoff between the two attempts, none after the last.
        assert!(
            elapsed >= d0,
            "{elapsed:?} is shorter than the backoff {d0:?}"
        );
        assert!(
            elapsed < d0 + d1 / 2,
            "{elapsed:?}: the client slept a backoff ({d1:?}) after its last attempt"
        );
    }
}
