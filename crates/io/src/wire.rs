//! The MIMONet wire format: versioned, length-prefixed, CRC-checked
//! message frames carrying IQ chunks, decoded frames, and link-service
//! control traffic.
//!
//! Every message is one frame on the wire:
//!
//! ```text
//! [magic "MIOW" 4B][version u16][type u16][payload_len u32][payload][crc32 u32]
//! ```
//!
//! All integers are little-endian; complex samples travel as IEEE-754
//! bit patterns (`f64::to_bits`), so a capture round-trips **bit-exactly**
//! — the foundation of the replay-determinism guarantee. The CRC-32 (same
//! polynomial as the frame FCS, reused from `mimonet-fec`) covers
//! version, type, length, and payload, so a flipped header bit is as
//! detectable as a flipped sample.
//!
//! Decoding failures are typed [`WireError`]s, never panics: a truncated
//! stream, a bad magic, an unknown type, or a CRC mismatch each get their
//! own variant, which the transport blocks map onto the fault taxonomy
//! (`transport-truncation`, `transport-desync`, `transport-crc`, ...).

use mimonet::obs::TraceEventKind;
// Re-exported: `Trace` batches carry this type, so it is part of the
// wire API surface.
pub use mimonet::obs::TraceEvent;
use mimonet_dsp::complex::Complex64;
use mimonet_fec::crc::{crc32, Crc32};
use std::io::{ErrorKind, Read, Write};

/// Frame magic: "MIOW" (MImonet On Wire).
pub const MAGIC: [u8; 4] = *b"MIOW";
/// Current wire protocol version. v2 added session resumption
/// (`SessionResume` / `SessionAccept`), health probing, and the
/// session-scoped `ErrorReport` give-up taxonomy. v3 added the
/// observability plane: trace-context propagation (trace roots in
/// `SessionRequest`, per-frame trace ids in `FrameDecoded`, span ids in
/// `ErrorReport`), the `MetricsProbe`/`Metrics` pull surface,
/// mid-session `TelemetryUpdate` streaming, and binary `Trace` event
/// batches.
pub const WIRE_VERSION: u16 = 3;
/// Fixed header length: magic + version + type + payload length.
pub const HEADER_LEN: usize = 12;
/// Trailing CRC-32 length.
pub const TRAILER_LEN: usize = 4;
/// Upper bound on a single payload (64 MiB) — a length field beyond this
/// is treated as stream desynchronisation, not an allocation request.
pub const MAX_PAYLOAD: usize = 1 << 26;
/// Most bytes [`read_msg_opt`] sets aside for a payload before any of it
/// arrives; past this, its buffer grows only with the bytes received.
const READ_RESERVE: usize = 64 << 10;

/// Typed wire-level failure. Everything a hostile or truncated byte
/// stream can do surfaces as one of these.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The stream ended inside a frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The frame did not start with [`MAGIC`] — stream desync.
    BadMagic([u8; 4]),
    /// Protocol version this implementation does not speak.
    UnsupportedVersion(u16),
    /// Unknown message type code.
    UnknownType(u16),
    /// `payload_len` exceeded [`MAX_PAYLOAD`].
    TooLarge(usize),
    /// CRC-32 mismatch: corruption in flight.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried by the frame.
        got: u32,
    },
    /// The payload did not parse as its declared type.
    BadPayload(&'static str),
    /// A capture stream ended without its `Bye` terminator — the file
    /// was cut short (crashed recorder, torn copy). Distinct from
    /// [`WireError::Truncated`] so replay tooling can report *how much*
    /// of the capture was readable.
    TruncatedCapture {
        /// Bytes successfully consumed before the cut.
        bytes_read: u64,
    },
    /// Underlying I/O failure (connection reset, ...).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "stream truncated inside {context}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::TooLarge(n) => write!(f, "payload length {n} exceeds limit"),
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#010x}, frame carried {got:#010x}"
                )
            }
            WireError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            WireError::TruncatedCapture { bytes_read } => {
                write!(f, "capture truncated before Bye after {bytes_read} bytes")
            }
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "frame" }
        } else {
            WireError::Io(e.to_string())
        }
    }
}

/// Parameters of one link-service session (what a client asks
/// `mimonet-linkd` to run).
#[derive(Clone, Debug, PartialEq)]
pub struct SessionConfig {
    /// MCS index for every frame (stream count follows from it).
    pub mcs: u8,
    /// PSDU length per frame, octets.
    pub payload_len: u32,
    /// Number of frames in the session.
    pub n_frames: u32,
    /// AWGN channel SNR, dB.
    pub snr_db: f64,
    /// Master seed: payloads and channel realizations derive from it.
    pub seed: u64,
    /// Trace root for the session, 0 = tracing off. When non-zero both
    /// ends independently derive the same per-frame trace ids via
    /// `frame_trace_id(trace, index)`, so client and server spans
    /// correlate without any id exchange beyond this root.
    pub trace: u64,
    /// Stream a [`WireMsg::TelemetryUpdate`] every this many decoded
    /// frames while the session runs; 0 = only the terminal
    /// [`WireMsg::Telemetry`] snapshot.
    pub telemetry_every: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            mcs: 8,
            payload_len: 80,
            n_frames: 8,
            snr_db: 30.0,
            seed: 1,
            trace: 0,
            telemetry_every: 0,
        }
    }
}

/// Metadata at the head of a capture (`.iqcap`) — the SigMF-style
/// global segment, binary rather than JSON so captures stay
/// self-contained on one stream.
#[derive(Clone, Debug, PartialEq)]
pub struct CaptureMeta {
    /// Antenna (stream) count; every chunk must carry this many.
    pub n_ant: u16,
    /// Nominal sample rate, Hz (20 MHz for the 802.11n chains).
    pub sample_rate_hz: f64,
    /// Seed that generated the capture (0 when unknown/live).
    pub seed: u64,
    /// Free-form description.
    pub description: String,
}

/// One multi-antenna slab of IQ samples. All antennas carry the same
/// number of samples; `seq` increments per chunk so a receiver can
/// detect datagram loss or stream desync.
#[derive(Clone, Debug, PartialEq)]
pub struct IqChunk {
    /// Chunk sequence number, from 0.
    pub seq: u64,
    /// Per-antenna samples, outer index = antenna.
    pub samples: Vec<Vec<Complex64>>,
}

impl IqChunk {
    /// Samples per antenna.
    pub fn len(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// `true` when the chunk carries no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One decoded frame streamed back from a session.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedFrame {
    /// Frame index within the session, from 0.
    pub index: u32,
    /// Preamble SNR estimate, dB.
    pub snr_db: f64,
    /// Decoded PSDU bytes.
    pub psdu: Vec<u8>,
    /// Frame trace id (`frame_trace_id(session_trace_root, index)`),
    /// 0 when the session runs untraced.
    pub trace: u64,
}

/// A daemon's health snapshot, served in reply to [`WireMsg::HealthProbe`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct HealthReport {
    /// Sessions currently executing.
    pub active_sessions: u32,
    /// Sessions completed successfully since start.
    pub sessions_ok: u64,
    /// Sessions that ended in an error report.
    pub sessions_failed: u64,
    /// Sessions resumed from a stored token.
    pub sessions_resumed: u64,
    /// Decoded frames withheld under overload shedding.
    pub shed_frames: u64,
    /// Session outcomes currently held for resumption.
    pub resumable: u32,
}

/// Every message the protocol speaks.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Handshake, both directions; carries the speaker's version.
    Hello {
        /// Speaker's wire version.
        version: u16,
    },
    /// Client → server: run one link session.
    SessionRequest(SessionConfig),
    /// Head of a capture stream.
    CaptureHeader(CaptureMeta),
    /// IQ sample slab.
    IqChunk(IqChunk),
    /// Server → client: one decoded frame.
    FrameDecoded(DecodedFrame),
    /// Server → client: the session's `LinkStats`, JSON-rendered.
    SessionStats {
        /// `LinkStats` as a JSON string.
        stats_json: String,
    },
    /// Server → client: the session flowgraph's per-block telemetry,
    /// JSON-rendered `GraphSnapshot`.
    Telemetry {
        /// `GraphSnapshot::to_value` as a JSON string.
        telemetry_json: String,
    },
    /// Typed error report (either direction); mirrors `BlockError` and
    /// the resilience give-up taxonomy.
    ErrorReport {
        /// Machine-matchable failure class, e.g. `"transport-crc"` or
        /// `"give-up-deadline"`.
        kind: String,
        /// Human-readable detail.
        detail: String,
        /// Session token the error belongs to (0 = no session context).
        session: u64,
        /// Resilience give-up class (`GiveUp::kind()`), empty when the
        /// error is not a give-up.
        give_up: String,
        /// Trace span the error occurred under (0 = untraced), so a
        /// failure correlates back to the frame-lifecycle stage that
        /// raised it on either end of the link.
        span: u64,
    },
    /// Orderly end of stream.
    Bye,
    /// Client → server: resume the session behind `token`, replaying
    /// decoded frames from `next_frame` on. Idempotent: replays of
    /// already-delivered frames are deduplicated client-side.
    SessionResume {
        /// Token issued by a prior [`WireMsg::SessionAccept`].
        token: u64,
        /// First frame index the client still needs.
        next_frame: u32,
    },
    /// Server → client: the session is admitted (fresh or resumed);
    /// sent before any `FrameDecoded`, so a mid-stream disconnect
    /// leaves the client holding a resume token.
    SessionAccept {
        /// Resume token for this session.
        token: u64,
        /// Frame index streaming starts from (0 for a fresh session).
        resumed_from: u32,
    },
    /// Client → server: ask for a [`WireMsg::Health`] snapshot.
    HealthProbe,
    /// Server → client: health snapshot.
    Health(HealthReport),
    /// Client → server: ask for a [`WireMsg::Metrics`] snapshot in the
    /// given format.
    MetricsProbe {
        /// Requested rendering ([`METRICS_PROMETHEUS`] or
        /// [`METRICS_JSON`]).
        format: u8,
    },
    /// Server → client: the daemon's metrics surface.
    Metrics {
        /// Format of `body`, echoing the probe.
        format: u8,
        /// Prometheus text exposition or a JSON object.
        body: String,
    },
    /// Server → client: a mid-session per-round telemetry snapshot
    /// (non-terminating, unlike [`WireMsg::Telemetry`]), streamed every
    /// `SessionConfig::telemetry_every` decoded frames.
    TelemetryUpdate {
        /// Update round, from 0.
        round: u32,
        /// `GraphSnapshot::to_value` as a JSON string.
        telemetry_json: String,
    },
    /// A batch of frame-lifecycle trace events (either direction),
    /// fixed-width binary so batches stay cheap to encode.
    Trace {
        /// Events in collector (oldest-first) order.
        events: Vec<TraceEvent>,
    },
}

/// `MetricsProbe`/`Metrics` format code: Prometheus text exposition.
pub const METRICS_PROMETHEUS: u8 = 0;
/// `MetricsProbe`/`Metrics` format code: JSON object.
pub const METRICS_JSON: u8 = 1;

/// Type code of [`WireMsg::IqChunk`]; readers that keep the samples as
/// streams convert its rows without building the message.
pub(crate) const IQ_CHUNK: u16 = 4;

impl WireMsg {
    fn type_code(&self) -> u16 {
        match self {
            WireMsg::Hello { .. } => 1,
            WireMsg::SessionRequest(_) => 2,
            WireMsg::CaptureHeader(_) => 3,
            WireMsg::IqChunk(_) => IQ_CHUNK,
            WireMsg::FrameDecoded(_) => 5,
            WireMsg::SessionStats { .. } => 6,
            WireMsg::Telemetry { .. } => 7,
            WireMsg::ErrorReport { .. } => 8,
            WireMsg::Bye => 9,
            WireMsg::SessionResume { .. } => 10,
            WireMsg::SessionAccept { .. } => 11,
            WireMsg::HealthProbe => 12,
            WireMsg::Health(_) => 13,
            WireMsg::MetricsProbe { .. } => 14,
            WireMsg::Metrics { .. } => 15,
            WireMsg::TelemetryUpdate { .. } => 16,
            WireMsg::Trace { .. } => 17,
        }
    }
}

// --- little-endian payload scribes ---

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked little-endian reader over a payload slice.
struct Scanner<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::BadPayload(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.u32(what)? as usize;
        Ok(self.take(n, what)?.to_vec())
    }
    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?).map_err(|_| WireError::BadPayload(what))
    }
    fn finish(&self, what: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload(what))
        }
    }
}

/// Appends `msg`'s payload to `p`.
fn encode_payload(msg: &WireMsg, p: &mut Vec<u8>) {
    match msg {
        WireMsg::Hello { version } => put_u16(p, *version),
        WireMsg::SessionRequest(c) => {
            p.push(c.mcs);
            put_u32(p, c.payload_len);
            put_u32(p, c.n_frames);
            put_f64(p, c.snr_db);
            put_u64(p, c.seed);
            put_u64(p, c.trace);
            put_u32(p, c.telemetry_every);
        }
        WireMsg::CaptureHeader(m) => {
            put_u16(p, m.n_ant);
            put_f64(p, m.sample_rate_hz);
            put_u64(p, m.seed);
            put_bytes(p, m.description.as_bytes());
        }
        WireMsg::IqChunk(c) => {
            put_u64(p, c.seq);
            put_u16(p, c.samples.len() as u16);
            put_u32(p, c.len() as u32);
            for ant in &c.samples {
                debug_assert_eq!(ant.len(), c.len(), "ragged IQ chunk");
                // One row in one pass: size it, then write each sample's
                // bits in place.
                let at = p.len();
                p.resize(at + 16 * ant.len(), 0);
                for (out, s) in p[at..].chunks_exact_mut(16).zip(ant) {
                    out[..8].copy_from_slice(&s.re.to_le_bytes());
                    out[8..].copy_from_slice(&s.im.to_le_bytes());
                }
            }
        }
        WireMsg::FrameDecoded(d) => {
            put_u32(p, d.index);
            put_f64(p, d.snr_db);
            put_bytes(p, &d.psdu);
            put_u64(p, d.trace);
        }
        WireMsg::SessionStats { stats_json } => put_bytes(p, stats_json.as_bytes()),
        WireMsg::Telemetry { telemetry_json } => put_bytes(p, telemetry_json.as_bytes()),
        WireMsg::ErrorReport {
            kind,
            detail,
            session,
            give_up,
            span,
        } => {
            put_bytes(p, kind.as_bytes());
            put_bytes(p, detail.as_bytes());
            put_u64(p, *session);
            put_bytes(p, give_up.as_bytes());
            put_u64(p, *span);
        }
        WireMsg::Bye => {}
        WireMsg::SessionResume { token, next_frame } => {
            put_u64(p, *token);
            put_u32(p, *next_frame);
        }
        WireMsg::SessionAccept {
            token,
            resumed_from,
        } => {
            put_u64(p, *token);
            put_u32(p, *resumed_from);
        }
        WireMsg::HealthProbe => {}
        WireMsg::Health(h) => {
            put_u32(p, h.active_sessions);
            put_u64(p, h.sessions_ok);
            put_u64(p, h.sessions_failed);
            put_u64(p, h.sessions_resumed);
            put_u64(p, h.shed_frames);
            put_u32(p, h.resumable);
        }
        WireMsg::MetricsProbe { format } => p.push(*format),
        WireMsg::Metrics { format, body } => {
            p.push(*format);
            put_bytes(p, body.as_bytes());
        }
        WireMsg::TelemetryUpdate {
            round,
            telemetry_json,
        } => {
            put_u32(p, *round);
            put_bytes(p, telemetry_json.as_bytes());
        }
        WireMsg::Trace { events } => {
            put_u32(p, events.len() as u32);
            for e in events {
                put_u64(p, e.trace_id);
                put_u64(p, e.span_id);
                p.push(e.kind.code());
                put_u32(p, e.frame);
                put_u64(p, e.t_ns);
                put_u64(p, e.dur_ns);
                put_u64(p, e.arg);
            }
        }
    }
}

/// Payload bytes to reserve for `msg`: exact for the messages that carry
/// bulk data, a guess for the small ones, whose buffer outgrows it at
/// most a few times.
fn payload_hint(msg: &WireMsg) -> usize {
    match msg {
        WireMsg::IqChunk(c) => {
            CHUNK_HEADER_LEN + 16 * c.samples.iter().map(Vec::len).sum::<usize>()
        }
        WireMsg::FrameDecoded(d) => 24 + d.psdu.len(),
        WireMsg::Trace { events } => 4 + TRACE_EVENT_LEN * events.len(),
        _ => 64,
    }
}

/// Bytes before an `IqChunk`'s rows: seq, antenna count, samples per
/// antenna.
const CHUNK_HEADER_LEN: usize = 8 + 2 + 4;

/// An `IqChunk` payload whose length has been checked against its
/// header, with the samples still on the wire: one row of `16 · len`
/// little-endian bytes per antenna.
pub(crate) struct ChunkRows<'a> {
    /// Chunk sequence number.
    pub(crate) seq: u64,
    n_ant: usize,
    /// Samples per antenna.
    len: usize,
    rows: &'a [u8],
}

impl<'a> ChunkRows<'a> {
    /// Reads the chunk header and checks, once, that its rows fill the
    /// rest of the payload exactly.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut s = Scanner::new(payload);
        let seq = s.u64("chunk seq")?;
        let n_ant = s.u16("chunk n_ant")? as usize;
        let len = s.u32("chunk samples")? as usize;
        let rows = &payload[s.pos..];
        // Checked arithmetic: a hostile count must not wrap into a match.
        if n_ant.checked_mul(len).and_then(|t| t.checked_mul(16)) != Some(rows.len()) {
            return Err(WireError::BadPayload("chunk sample count"));
        }
        Ok(Self {
            seq,
            n_ant,
            len,
            rows,
        })
    }

    /// Antenna count.
    pub(crate) fn n_ant(&self) -> usize {
        self.n_ant
    }

    /// Appends antenna `ant`'s samples to `out`, converting the row in
    /// one pass.
    pub(crate) fn append_row(&self, ant: usize, out: &mut Vec<Complex64>) {
        let width = 16 * self.len;
        let row = &self.rows[ant * width..(ant + 1) * width];
        out.extend(row.chunks_exact(16).map(|s| {
            let (re, im) = s.split_at(8);
            Complex64::new(
                f64::from_le_bytes(re.try_into().expect("8 bytes")),
                f64::from_le_bytes(im.try_into().expect("8 bytes")),
            )
        }));
    }

    /// The chunk as a message body.
    pub(crate) fn to_chunk(&self) -> IqChunk {
        let samples = (0..self.n_ant)
            .map(|ant| {
                let mut row = Vec::new();
                self.append_row(ant, &mut row);
                row
            })
            .collect();
        IqChunk {
            seq: self.seq,
            samples,
        }
    }
}

/// Fixed on-wire size of one [`TraceEvent`] inside a `Trace` batch.
const TRACE_EVENT_LEN: usize = 8 + 8 + 1 + 4 + 8 + 8 + 8;

pub(crate) fn decode_payload(type_code: u16, payload: &[u8]) -> Result<WireMsg, WireError> {
    let mut s = Scanner::new(payload);
    let msg = match type_code {
        1 => WireMsg::Hello {
            version: s.u16("hello")?,
        },
        2 => WireMsg::SessionRequest(SessionConfig {
            mcs: s.u8("session mcs")?,
            payload_len: s.u32("session payload_len")?,
            n_frames: s.u32("session n_frames")?,
            snr_db: s.f64("session snr")?,
            seed: s.u64("session seed")?,
            trace: s.u64("session trace")?,
            telemetry_every: s.u32("session telemetry_every")?,
        }),
        3 => WireMsg::CaptureHeader(CaptureMeta {
            n_ant: s.u16("capture n_ant")?,
            sample_rate_hz: s.f64("capture rate")?,
            seed: s.u64("capture seed")?,
            description: s.string("capture description")?,
        }),
        // The rows fill the payload exactly, so no bytes can trail.
        IQ_CHUNK => return ChunkRows::parse(payload).map(|c| WireMsg::IqChunk(c.to_chunk())),
        5 => WireMsg::FrameDecoded(DecodedFrame {
            index: s.u32("frame index")?,
            snr_db: s.f64("frame snr")?,
            psdu: s.bytes("frame psdu")?,
            trace: s.u64("frame trace")?,
        }),
        6 => WireMsg::SessionStats {
            stats_json: s.string("session stats")?,
        },
        7 => WireMsg::Telemetry {
            telemetry_json: s.string("telemetry")?,
        },
        8 => WireMsg::ErrorReport {
            kind: s.string("error kind")?,
            detail: s.string("error detail")?,
            session: s.u64("error session")?,
            give_up: s.string("error give_up")?,
            span: s.u64("error span")?,
        },
        9 => WireMsg::Bye,
        10 => WireMsg::SessionResume {
            token: s.u64("resume token")?,
            next_frame: s.u32("resume next_frame")?,
        },
        11 => WireMsg::SessionAccept {
            token: s.u64("accept token")?,
            resumed_from: s.u32("accept resumed_from")?,
        },
        12 => WireMsg::HealthProbe,
        13 => WireMsg::Health(HealthReport {
            active_sessions: s.u32("health active")?,
            sessions_ok: s.u64("health ok")?,
            sessions_failed: s.u64("health failed")?,
            sessions_resumed: s.u64("health resumed")?,
            shed_frames: s.u64("health shed")?,
            resumable: s.u32("health resumable")?,
        }),
        14 => WireMsg::MetricsProbe {
            format: s.u8("metrics format")?,
        },
        15 => WireMsg::Metrics {
            format: s.u8("metrics format")?,
            body: s.string("metrics body")?,
        },
        16 => WireMsg::TelemetryUpdate {
            round: s.u32("telemetry round")?,
            telemetry_json: s.string("telemetry update")?,
        },
        17 => {
            let n = s.u32("trace count")? as usize;
            // Guard before allocating: the fixed-width events must fit
            // in the remaining payload exactly.
            if n.checked_mul(TRACE_EVENT_LEN) != Some(payload.len() - s.pos) {
                return Err(WireError::BadPayload("trace count"));
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let trace_id = s.u64("trace id")?;
                let span_id = s.u64("trace span")?;
                let kind = TraceEventKind::from_code(s.u8("trace kind")?)
                    .ok_or(WireError::BadPayload("trace kind"))?;
                events.push(TraceEvent {
                    trace_id,
                    span_id,
                    kind,
                    frame: s.u32("trace frame")?,
                    t_ns: s.u64("trace t_ns")?,
                    dur_ns: s.u64("trace dur_ns")?,
                    arg: s.u64("trace arg")?,
                });
            }
            WireMsg::Trace { events }
        }
        other => return Err(WireError::UnknownType(other)),
    };
    s.finish("trailing bytes")?;
    Ok(msg)
}

/// Encodes a message into one complete wire frame, written in one
/// buffer: header, payload, then the CRC.
pub fn encode(msg: &WireMsg) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_hint(msg) + TRAILER_LEN);
    frame.extend_from_slice(&MAGIC);
    put_u16(&mut frame, WIRE_VERSION);
    put_u16(&mut frame, msg.type_code());
    put_u32(&mut frame, 0); // the payload length, set below
    encode_payload(msg, &mut frame);
    let len = frame.len() - HEADER_LEN;
    assert!(len <= MAX_PAYLOAD, "payload exceeds wire limit");
    frame[8..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&frame[4..]);
    put_u32(&mut frame, crc);
    frame
}

/// Checks a frame header's magic, version and payload length, in that
/// order; returns its type code and payload length.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u16, usize), WireError> {
    let [m0, m1, m2, m3, v0, v1, t0, t1, l0, l1, l2, l3] = *header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(WireError::BadMagic([m0, m1, m2, m3]));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    Ok((u16::from_le_bytes([t0, t1]), len))
}

/// Decodes one frame from the front of `buf`, returning the message and
/// the number of bytes consumed. `buf` must hold the complete frame.
pub fn decode(buf: &[u8]) -> Result<(WireMsg, usize), WireError> {
    let header = buf
        .first_chunk()
        .ok_or(WireError::Truncated { context: "header" })?;
    let (type_code, len) = parse_header(header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated { context: "payload" });
    }
    let expected = crc32(&buf[4..HEADER_LEN + len]);
    let got = u32::from_le_bytes(buf[HEADER_LEN + len..total].try_into().unwrap());
    if expected != got {
        return Err(WireError::BadCrc { expected, got });
    }
    let msg = decode_payload(type_code, &buf[HEADER_LEN..HEADER_LEN + len])?;
    Ok((msg, total))
}

/// Writes one framed message to a byte sink.
pub fn write_msg<W: Write>(w: &mut W, msg: &WireMsg) -> Result<(), WireError> {
    w.write_all(&encode(msg))?;
    Ok(())
}

/// Reads one framed message; `Ok(None)` on a clean end-of-stream *at a
/// frame boundary* (EOF mid-frame is `WireError::Truncated`). The payload
/// buffer starts at no more than 64 KiB and then grows with the bytes
/// that arrive, not with the length the header claims.
pub fn read_msg_opt<R: Read>(r: &mut R) -> Result<Option<WireMsg>, WireError> {
    let mut payload = Vec::new();
    match read_frame(r, &mut payload)? {
        Some(type_code) => decode_payload(type_code, &payload).map(Some),
        None => Ok(None),
    }
}

/// Reads one frame into `payload`, replacing what it held, and checks
/// its magic, version, length and CRC. Returns the frame's type code with
/// `payload` holding exactly its payload, or `None` on a clean
/// end-of-stream at a frame boundary (EOF mid-frame is
/// `WireError::Truncated`). The caller keeps `payload` from frame to
/// frame. Before any payload byte arrives it is reserved to at most
/// 64 KiB, so a header that claims `MAX_PAYLOAD` and is followed by
/// silence commits no more than that; past this it grows with the bytes
/// received.
pub(crate) fn read_frame<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<u16>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated { context: "header" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (type_code, len) = parse_header(&header)?;
    let want = len + TRAILER_LEN;
    payload.clear();
    payload.reserve(want.min(READ_RESERVE));
    r.take(want as u64).read_to_end(payload).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "payload" }
        } else {
            WireError::from(e)
        }
    })?;
    if payload.len() < want {
        return Err(WireError::Truncated { context: "payload" });
    }
    let mut crc = Crc32::new();
    crc.update(&header[4..]);
    crc.update(&payload[..len]);
    let expected = crc.finalize();
    let got = u32::from_le_bytes(payload[len..].try_into().expect("a 4-byte trailer"));
    if expected != got {
        return Err(WireError::BadCrc { expected, got });
    }
    payload.truncate(len);
    Ok(Some(type_code))
}

/// Reads one framed message; end-of-stream is an error (use
/// [`read_msg_opt`] where EOF is an expected terminator).
pub fn read_msg<R: Read>(r: &mut R) -> Result<WireMsg, WireError> {
    read_msg_opt(r)?.ok_or(WireError::Truncated { context: "stream" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_chunk() -> IqChunk {
        IqChunk {
            seq: 7,
            samples: vec![
                vec![
                    Complex64::new(1.25, -0.5),
                    Complex64::new(f64::MIN_POSITIVE, -0.0),
                ],
                vec![Complex64::new(0.0, 3.5e-300), Complex64::new(-1.0, 2.0)],
            ],
        }
    }

    fn all_messages() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello {
                version: WIRE_VERSION,
            },
            WireMsg::SessionRequest(SessionConfig::default()),
            WireMsg::CaptureHeader(CaptureMeta {
                n_ant: 2,
                sample_rate_hz: 20e6,
                seed: 42,
                description: "unit test".into(),
            }),
            WireMsg::IqChunk(sample_chunk()),
            WireMsg::FrameDecoded(DecodedFrame {
                index: 3,
                snr_db: 27.5,
                psdu: vec![1, 2, 3, 255],
                trace: 0xABCD_EF01_2345_6789,
            }),
            WireMsg::SessionStats {
                stats_json: "{\"per\":{}}".into(),
            },
            WireMsg::Telemetry {
                telemetry_json: "[]".into(),
            },
            WireMsg::ErrorReport {
                kind: "transport-crc".into(),
                detail: "boom".into(),
                session: 0xDEAD_BEEF,
                give_up: "give-up-retry-budget".into(),
                span: 0x0102_0304_0506_0708,
            },
            WireMsg::Bye,
            WireMsg::SessionResume {
                token: 0x1234_5678_9ABC_DEF0,
                next_frame: 5,
            },
            WireMsg::SessionAccept {
                token: 0x1234_5678_9ABC_DEF0,
                resumed_from: 5,
            },
            WireMsg::HealthProbe,
            WireMsg::Health(HealthReport {
                active_sessions: 2,
                sessions_ok: 100,
                sessions_failed: 3,
                sessions_resumed: 7,
                shed_frames: 41,
                resumable: 9,
            }),
            WireMsg::MetricsProbe {
                format: METRICS_PROMETHEUS,
            },
            WireMsg::Metrics {
                format: METRICS_JSON,
                body: "{\"mimonet_connections_total\":4}".into(),
            },
            WireMsg::TelemetryUpdate {
                round: 2,
                telemetry_json: "{\"blocks\":[]}".into(),
            },
            WireMsg::Trace {
                events: sample_trace(),
            },
        ]
    }

    fn sample_trace() -> Vec<TraceEvent> {
        let trace_id = mimonet::frame_trace_id(7, 0);
        TraceEventKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| TraceEvent {
                trace_id,
                span_id: mimonet::span_id(trace_id, kind),
                kind,
                frame: 0,
                t_ns: 1_000 * i as u64,
                dur_ns: kind.base_virtual_ns(),
                arg: i as u64,
            })
            .collect()
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let frame = encode(&msg);
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stream_io_round_trips_in_order() {
        let msgs = all_messages();
        let mut buf = Vec::new();
        for m in &msgs {
            write_msg(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            assert_eq!(&read_msg(&mut r).unwrap(), m);
        }
        assert_eq!(read_msg_opt(&mut r).unwrap(), None);
    }

    #[test]
    fn samples_survive_bit_exactly() {
        let chunk = sample_chunk();
        let frame = encode(&WireMsg::IqChunk(chunk.clone()));
        let (back, _) = decode(&frame).unwrap();
        let WireMsg::IqChunk(back) = back else {
            panic!("wrong type");
        };
        for (a, b) in chunk.samples.iter().zip(&back.samples) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn iq_chunks_travel_antenna_major_as_le_bits_in_one_buffer() {
        let chunk = sample_chunk();
        let frame = encode(&WireMsg::IqChunk(chunk.clone()));
        let mut want = Vec::new();
        want.extend_from_slice(&chunk.seq.to_le_bytes());
        want.extend_from_slice(&2u16.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        for s in chunk.samples.iter().flatten() {
            want.extend_from_slice(&s.re.to_bits().to_le_bytes());
            want.extend_from_slice(&s.im.to_bits().to_le_bytes());
        }
        assert_eq!(&frame[HEADER_LEN..frame.len() - TRAILER_LEN], &want[..]);
        assert_eq!(frame.capacity(), frame.len(), "reserved once, exactly");
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let mut frame = encode(&WireMsg::FrameDecoded(DecodedFrame {
            index: 0,
            snr_db: 1.0,
            psdu: vec![0xAA; 64],
            trace: 0,
        }));
        let mid = frame.len() / 2;
        frame[mid] ^= 0x04;
        assert!(matches!(decode(&frame), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn truncation_is_typed() {
        let frame = encode(&WireMsg::Bye);
        for cut in [0, 3, HEADER_LEN - 1, frame.len() - 1] {
            let err = decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut={cut}: {err}"
            );
        }
        // Stream form: EOF at a boundary is None, mid-frame is Truncated.
        let mut r = &frame[..frame.len() - 2];
        assert!(matches!(
            read_msg_opt(&mut r),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_and_unknown_type_are_typed() {
        let mut frame = encode(&WireMsg::Bye);
        frame[0] = b'X';
        assert!(matches!(decode(&frame), Err(WireError::BadMagic(_))));

        // Patch the type code to an unknown value and re-seal the CRC.
        let mut frame = encode(&WireMsg::Bye);
        frame[6] = 0xEE;
        frame[7] = 0xEE;
        let frame = reseal(frame);
        assert!(matches!(
            decode(&frame),
            Err(WireError::UnknownType(0xEEEE))
        ));
    }

    #[test]
    fn malformed_trace_batches_are_typed() {
        // Unknown event-kind code: patch the first event's kind byte to
        // 0xFF and re-seal the CRC.
        let mut frame = encode(&WireMsg::Trace {
            events: sample_trace(),
        });
        let kind_at = HEADER_LEN + 4 + 16; // count + trace_id + span_id
        frame[kind_at] = 0xFF;
        let frame = reseal(frame);
        assert_eq!(
            decode(&frame).unwrap_err(),
            WireError::BadPayload("trace kind")
        );

        // Count that does not match the remaining payload: rejected
        // before any allocation happens.
        let mut frame = encode(&WireMsg::Trace {
            events: sample_trace(),
        });
        frame[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frame = reseal(frame);
        assert_eq!(
            decode(&frame).unwrap_err(),
            WireError::BadPayload("trace count")
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode(&WireMsg::Bye);
        frame[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::TooLarge(_))));
    }

    /// Serves `data`, records the largest buffer it is handed, then
    /// reports EOF.
    struct RecordingReader<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_header_alone_does_not_commit_its_claimed_payload() {
        let mut frame = encode(&WireMsg::Bye);
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
        let mut r = RecordingReader {
            data: &frame[..HEADER_LEN],
            largest: 0,
        };
        assert_eq!(
            read_msg(&mut r),
            Err(WireError::Truncated { context: "payload" })
        );
        assert!(
            r.largest <= READ_RESERVE,
            "a bare header had the reader fill a {}-byte buffer",
            r.largest
        );
    }

    /// `frame` with its length field and CRC rewritten to match its
    /// payload, so decoding reaches `decode_payload`.
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len() - TRAILER_LEN);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Runs `bytes` through `decode` and `read_msg`. Either may fail, with
    /// a typed error, but neither may panic, and both must agree.
    fn decode_both_ways(bytes: &[u8]) -> Result<(), TestCaseError> {
        let decoded = decode(bytes);
        if let Ok((_, used)) = &decoded {
            prop_assert!(*used <= bytes.len());
        }
        let read = read_msg(&mut &bytes[..]);
        // Debug strings, so NaN fields compare equal to themselves.
        prop_assert_eq!(
            format!("{read:?}"),
            format!("{:?}", decoded.map(|(m, _)| m))
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_decode_or_fail_typed(
            bytes in prop::collection::vec(any::<u8>(), 1..300),
            keep_magic in any::<bool>(),
        ) {
            let mut bytes = bytes;
            if keep_magic && bytes.len() >= 6 {
                bytes[..4].copy_from_slice(&MAGIC);
                bytes[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
            }
            decode_both_ways(&bytes)?;
        }

        #[test]
        fn sealed_arbitrary_payloads_decode_or_fail_typed(
            type_code in 0u16..20,
            payload in prop::collection::vec(any::<u8>(), 0..400),
        ) {
            let mut frame = MAGIC.to_vec();
            frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
            frame.extend_from_slice(&type_code.to_le_bytes());
            frame.extend_from_slice(&[0; 4]);
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&[0; TRAILER_LEN]);
            decode_both_ways(&reseal(frame))?;
        }

        #[test]
        fn mutated_valid_frames_decode_or_fail_typed(
            which in 0usize..64,
            edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..5),
            cut in any::<u16>(),
            extra in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let msgs = all_messages();
            let mut frame = encode(&msgs[which % msgs.len()]);
            let body = frame.len() - HEADER_LEN - TRAILER_LEN;
            // Overwrite payload bytes, then cut or extend the payload.
            for &(at, byte) in &edits {
                if body > 0 {
                    frame[HEADER_LEN + at as usize % body] = byte;
                }
            }
            match cut % 3 {
                0 => {
                    frame.truncate(HEADER_LEN + cut as usize % (body + 1));
                    frame.extend_from_slice(&[0; TRAILER_LEN]);
                }
                1 => {
                    let at = frame.len() - TRAILER_LEN;
                    frame.splice(at..at, extra.iter().copied());
                }
                _ => {}
            }
            let frame = reseal(frame);
            decode_both_ways(&frame)?;
            // Every prefix is a typed truncation, never a panic.
            let short = &frame[..cut as usize % frame.len()];
            prop_assert!(matches!(decode(short), Err(WireError::Truncated { .. })));
        }
    }
}
