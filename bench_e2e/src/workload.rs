//! The four workloads: presets, set-up, and the client loops that
//! measure them.
//!
//! | workload         | loop                            | connections | preset per client                          |
//! |------------------|---------------------------------|-------------|--------------------------------------------|
//! | `bulk_mimo`      | closed                          | 2           | MCS 15, 16 × 1500 B, AWGN 34 dB            |
//! | `control_siso`   | open, [`CONTROL_RATE`] per s    | 2, pipelined | MCS 0, 1 × 40 B, 20 dB                    |
//! | `capture_replay` | closed, in process, no engine   | —           | [`CAPTURES`] `.iqcap`s of MCS 9, 16 × 500 B, 20 dB |
//! | `traced_session` | closed                          | 1           | MCS 9, 16 × 500 B, 20 dB, traced, telemetry every 4 |
//!
//! `bulk_mimo` loads the DSP (equalize, FEC, channel) and the compute
//! plane's cross-session batches; `control_siso` makes per-session fixed
//! costs (codec, JSON, store, queue hops, reactor wake-ups) dominate;
//! `capture_replay` takes the scan path and the `IqChunk` codec and
//! bypasses the engine; `traced_session` sends the engine down its
//! observability fallback (flowgraph runtime, trace plane, telemetry
//! rounds).
//!
//! Client (or capture) `k`'s preset is seeded `seedtree::trial_seed(seed,
//! CLIENT_TAG, k)`; the engine receives nothing but those configs. A
//! closed-loop session is timed from its send, an open-loop one from when
//! it was due, both to the last message of its reply (`Telemetry`).
//!
//! Phases run in [`SLICE`]s. Between two engine slices, with no session
//! out, the [`HostSpeed`] kernel takes a few samples; a replay loop
//! samples it before every replay. Each slice's times are divided by the
//! host's slowdown over that slice, and set-up times by the slowdown over
//! the set-ups; the notes print the raw figures beside them.

use crate::hostspeed::HostSpeed;
use crate::layers::{self, metric_def, MetricDef, END_TO_END, LAYERS};
use crate::meter::{self, cpu_seconds};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile, ErrorTally, MIN_BEYOND};
use crate::wireconn::{WireConn, STALL};
use mimonet::config::RxConfig;
use mimonet::RxStage;
use mimonet_dsp::seedtree::{trial_seed, CLIENT_TAG, TRACE_TAG};
use mimonet_io::capture::{replay_scan, write_capture, CAPTURE_SAMPLE_RATE_HZ};
use mimonet_io::engine::reactor::{poll_ready, Interest, PollSource, Readiness};
use mimonet_io::engine::{EngineConfig, EngineServer, EngineStats};
use mimonet_io::session::{build_link_capture, corrupted_frames, score_scan, validate_config};
use mimonet_io::wire::{encode, CaptureMeta, DecodedFrame, SessionConfig, WireMsg};
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Open-loop session rate of `control_siso` over both connections, in
/// sessions per second: about half the closed-loop capacity of its
/// preset (1850–1950 sessions/s over two connections on a 2-core x86-64
/// host).
pub const CONTROL_RATE: f64 = 950.0;

/// The latency tail `latency_p90_ms` reports. The slowest workload
/// (`traced_session`, one connection) completes about 10 sessions a
/// second, so a 25-second run ranks p90 with ~25 samples beyond it; p99
/// would need 1000 sessions and is refused.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 9;

/// Length of one slice of a phase: the stretch over which the host's
/// slowdown is measured and applied.
pub const SLICE: Duration = Duration::from_secs(2);

/// Host-speed samples taken after each set-up and between slices.
const PAUSE_SAMPLES: usize = 8;

/// Captures `capture_replay` writes and replays in turn.
pub const CAPTURES: usize = 8;

/// Time each per-layer probe of a traced run repeats its calls for.
const PROBE_BUDGET: Duration = Duration::from_millis(750);

/// Where a run keeps its capture file and trace dump, relative to the
/// working directory.
pub const OUT_DIR: &str = ".bench_e2e";

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkMimo,
    ControlSiso,
    CaptureReplay,
    TracedSession,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::BulkMimo,
        Workload::ControlSiso,
        Workload::CaptureReplay,
        Workload::TracedSession,
    ];

    /// The workloads `BENCHMARK.json` lists and a run is judged by, in
    /// its order. `control_siso` runs by name only: on a shared 2-vCPU
    /// host its open-loop latency moved 30–45% with the host's load
    /// between runs of the same code, past any bound the benchmark may
    /// set, and the reference kernel does not follow that cost.
    pub const GRADED: [Workload; 3] = [
        Workload::BulkMimo,
        Workload::CaptureReplay,
        Workload::TracedSession,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkMimo => "bulk_mimo",
            Workload::ControlSiso => "control_siso",
            Workload::CaptureReplay => "capture_replay",
            Workload::TracedSession => "traced_session",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections to the engine (`capture_replay` opens none).
    pub fn connections(self) -> usize {
        match self {
            Workload::BulkMimo | Workload::ControlSiso => 2,
            Workload::TracedSession => 1,
            Workload::CaptureReplay => 0,
        }
    }

    /// Session presets a run uses: one per connection, or one per
    /// capture the replay loop takes in turn. A capture's scan cost
    /// depends on where its seed put the frames, so several average that
    /// out.
    pub fn presets(self) -> usize {
        match self {
            Workload::CaptureReplay => CAPTURES,
            _ => self.connections(),
        }
    }

    /// Threads the workload keeps busy: one compute worker per
    /// connection (each has one session out at a time), or the one replay
    /// thread. The host-speed kernel samples on as many.
    pub fn busy_threads(self) -> usize {
        self.connections().max(1)
    }

    /// Whether the workload's times are scaled to reference speed. Not
    /// `control_siso`'s: its open loop fixes the frame rate, and its cost
    /// lies in wake-ups and system calls, which the reference kernel does
    /// not follow.
    pub fn host_scaled(self) -> bool {
        self != Workload::ControlSiso
    }

    /// Client `k`'s session preset.
    pub fn session(self, seed: u64, k: usize) -> SessionConfig {
        let (mcs, payload_len, n_frames, snr_db) = match self {
            Workload::BulkMimo => (15, 1500, 16, 34.0),
            Workload::ControlSiso => (0, 40, 1, 20.0),
            Workload::CaptureReplay | Workload::TracedSession => (9, 500, 16, 20.0),
        };
        let traced = self == Workload::TracedSession;
        SessionConfig {
            mcs,
            payload_len,
            n_frames,
            snr_db,
            seed: trial_seed(seed, CLIENT_TAG, k),
            // Any non-zero root turns tracing on; `| 1` keeps it non-zero.
            trace: if traced {
                trial_seed(seed, TRACE_TAG, k) | 1
            } else {
                0
            },
            telemetry_every: if traced { 4 } else { 0 },
        }
    }
}

/// A finished run: the correctness verdict and the metrics it measured.
pub struct Outcome {
    pub correct: bool,
    /// Frames attempted.
    pub attempted: u64,
    /// Failures counted against them ([`ErrorTally::failures`]).
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result object, printed as the last line of standard output.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    Value::object(vec![
                        ("value", Value::F64(*value)),
                        ("unit", Value::Str(def.unit.into())),
                    ]),
                )
            })
            .collect();
        serde::json::to_string(&Value::object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// Runs `w` for `seconds` on inputs made from `seed`. Untraced runs
/// report the end-to-end metrics; traced runs measure half the time
/// untraced and half traced (the difference is the tracing overhead),
/// then probe each layer and report the per-layer metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let epoch = Instant::now();
    let cfgs: Vec<SessionConfig> = (0..w.presets()).map(|k| w.session(seed, k)).collect();
    let mut notes = vec![format!(
        "bench_e2e workload={} seed={seed} seconds={seconds} trace={}",
        w.name(),
        u8::from(trace)
    )];
    notes.extend(cfgs.iter().enumerate().map(|(k, c)| {
        format!(
            "client {k}: mcs {} {} B x {} frames at {} dB, seed {:#018x}, trace {:#x}, \
             telemetry_every {}",
            c.mcs, c.payload_len, c.n_frames, c.snr_db, c.seed, c.trace, c.telemetry_every
        )
    }));

    // Set-up and the measured phases each scale by their own samples; a
    // calibrator of no lanes never samples and reads a slowdown of 1.
    let lanes = if w.host_scaled() { w.busy_threads() } else { 0 };
    let mut setup_host = HostSpeed::new(lanes);
    let mut host = HostSpeed::new(lanes);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut target: Option<Target> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = target.take() {
            previous.close();
        }
        let t = Instant::now();
        target = Some(Target::setup(w, &cfgs, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_host.sample(PAUSE_SAMPLES);
    }
    let setup_s = median(&setup_s).expect("SETUP_REPS is at least 1");
    let mut target = target.expect("SETUP_REPS is at least 1");

    let (tally, errors, metrics) = if trace {
        let plain = target.phase(w, &cfgs, seconds / 2.0, false, &mut host);
        let mut traced = target.phase(w, &cfgs, seconds / 2.0, true, &mut host);
        notes.extend(generator_note(w, &plain));
        notes.extend(generator_note(w, &traced));
        notes.push(format!(
            "host slowdown {:.4} over {} reference-kernel samples (per-layer figures are raw)",
            host.slowdown(),
            host.samples()
        ));
        let mut spans = std::mem::take(&mut traced.log.spans);
        // Read before the probes, which allocate on their own account.
        let peak = meter::peak_rss_mb();
        let values = layer_values(w, &cfgs[0], &target, &plain, &traced, peak, &mut spans)?;
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{seed}.json", w.name()));
        write_trace(&path, epoch, w, seed, &spans, &values)?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        let mut tally = plain.log.tally;
        tally.merge(&traced.log.tally);
        let errors = [plain.log.errors, traced.log.errors].concat();
        (tally, errors, values)
    } else {
        let phase = target.phase(w, &cfgs, seconds, false, &mut host);
        notes.extend(generator_note(w, &phase));
        notes.push(format!(
            "{} sessions, {} frames in {:.3} s; latency percentiles over {} samples",
            phase.log.sessions,
            phase.log.frames_ok,
            phase.clock.elapsed_s,
            phase.log.latency_ms.len()
        ));
        notes.extend(
            meter::peak_rss_mb().map(|mb| format!("peak resident memory (VmHWM): {mb:.3} MiB")),
        );
        let raw = end_to_end(&phase, setup_s, None)?;
        notes.push(format!(
            "host slowdown {:.4} in set-up, {:.4} in the phase ({} and {} reference-kernel \
             samples); raw figures:",
            setup_host.slowdown(),
            host.slowdown(),
            setup_host.samples(),
            host.samples()
        ));
        notes.extend(
            raw.iter()
                .map(|(def, v)| format!("  raw {:<34} {v:>16.6} {}", def.name, def.unit)),
        );
        let metrics = end_to_end(&phase, setup_s, Some(setup_host.slowdown()))?;
        (phase.log.tally, phase.log.errors, metrics)
    };
    target.close();

    let correct = tally.failures() == 0 && tally.frames_attempted > 0;
    if !correct {
        notes.push(format!("CORRECTNESS FAILURE: {tally:?}"));
        notes.extend(errors.into_iter().take(8));
    }
    Ok(Outcome {
        correct,
        attempted: tally.frames_attempted,
        failed: tally.failures(),
        metrics,
        notes,
    })
}

/// What the engine (or the capture file) looks like to a run.
enum Target {
    Engine {
        server: EngineServer,
        conns: Vec<WireConn>,
    },
    Capture {
        captures: Vec<Capture>,
        n_streams: usize,
    },
}

/// A capture file and the PSDUs its frames carry.
struct Capture {
    path: PathBuf,
    psdus: Vec<Vec<u8>>,
}

impl Target {
    /// The set-up `setup_s` times: engine bind, `Hello` and one warm-up
    /// session per connection; or building and writing the captures.
    fn setup(w: Workload, cfgs: &[SessionConfig], seed: u64) -> Result<Self, String> {
        if w == Workload::CaptureReplay {
            let n_streams = validate_config(&cfgs[0])
                .map_err(|e| e.to_string())?
                .mcs
                .n_streams;
            let mut captures = Vec::with_capacity(cfgs.len());
            for (k, cfg) in cfgs.iter().enumerate() {
                let (streams, psdus) = build_link_capture(cfg).map_err(|e| e.to_string())?;
                let path = Path::new(OUT_DIR).join(format!("capture-{seed}-{k}.iqcap"));
                let meta = CaptureMeta {
                    n_ant: n_streams as u16,
                    sample_rate_hz: CAPTURE_SAMPLE_RATE_HZ,
                    seed: cfg.seed,
                    description: "bench_e2e capture_replay".into(),
                };
                write_capture(&path, &meta, &streams)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                captures.push(Capture { path, psdus });
            }
            return Ok(Target::Capture {
                captures,
                n_streams,
            });
        }
        let server = EngineServer::bind_with("127.0.0.1:0", EngineConfig::default())
            .map_err(|e| format!("engine bind: {e}"))?;
        let mut conns = Vec::with_capacity(cfgs.len());
        for (k, cfg) in cfgs.iter().enumerate() {
            let mut conn = WireConn::connect(server.local_addr())?;
            let (reply, _) = one_session(&mut conn, cfg, false)?;
            let delivered = reply.frames.len() as u32;
            if delivered != cfg.n_frames || corrupted_frames(cfg, &reply.frames) != 0 {
                return Err(format!(
                    "warm-up session of client {k}: {delivered}/{} frames, or corrupt bytes",
                    cfg.n_frames
                ));
            }
            conns.push(conn);
        }
        Ok(Target::Engine { server, conns })
    }

    /// Measures `seconds` of the workload, sampling `host` while the
    /// program is idle.
    fn phase(
        &mut self,
        w: Workload,
        cfgs: &[SessionConfig],
        seconds: f64,
        traced: bool,
        host: &mut HostSpeed,
    ) -> Phase {
        match self {
            Target::Engine { server, conns } => {
                engine_phase(server, conns, w, cfgs, seconds, traced, host)
            }
            Target::Capture {
                captures,
                n_streams,
            } => capture_phase(captures, *n_streams, seconds, traced, host),
        }
    }

    fn close(self) {
        if let Target::Engine { server, conns } = self {
            for conn in conns {
                conn.close();
            }
            server.shutdown();
        }
    }
}

/// Engine-wide counters the benchmark reads through [`EngineStats`].
#[derive(Clone, Copy, Debug, Default)]
struct EngineCounters {
    sessions_failed: u64,
    protocol_errors: u64,
    shed_total: u64,
    decode_batches: u64,
    decode_batched_frames: u64,
}

impl EngineCounters {
    fn read(s: &EngineStats) -> Self {
        Self {
            sessions_failed: s.sessions_failed(),
            protocol_errors: s.protocol_errors(),
            shed_total: s.shed_total(),
            decode_batches: s.decode_batches(),
            decode_batched_frames: s.decode_batched_frames(),
        }
    }

    /// `self - before`, counter by counter.
    fn since(self, before: Self) -> Self {
        Self {
            sessions_failed: self.sessions_failed.saturating_sub(before.sessions_failed),
            protocol_errors: self.protocol_errors.saturating_sub(before.protocol_errors),
            shed_total: self.shed_total.saturating_sub(before.shed_total),
            decode_batches: self.decode_batches.saturating_sub(before.decode_batches),
            decode_batched_frames: self
                .decode_batched_frames
                .saturating_sub(before.decode_batched_frames),
        }
    }

    fn plus(self, other: Self) -> Self {
        Self {
            sessions_failed: self.sessions_failed + other.sessions_failed,
            protocol_errors: self.protocol_errors + other.protocol_errors,
            shed_total: self.shed_total + other.shed_total,
            decode_batches: self.decode_batches + other.decode_batches,
            decode_batched_frames: self.decode_batched_frames + other.decode_batched_frames,
        }
    }
}

/// When a session started and ended, as the client saw it.
#[derive(Clone, Copy)]
struct Timing {
    /// Send time (closed loop) or due time (open loop): latency starts
    /// here.
    origin: Instant,
    /// When the engine could start it: its send, or the previous reply's
    /// end on a pipelined connection.
    ready: Instant,
    /// The reply's last message.
    done: Instant,
}

/// A session reply as its messages land.
struct Reply {
    accepted: Option<Instant>,
    frames: Vec<DecodedFrame>,
    updates: u64,
    trace_events: u64,
    /// The request and every reply message, when this session supplies
    /// the workload's wire mix.
    kept: Option<Vec<WireMsg>>,
}

enum Landed {
    Pending,
    Done(Instant),
    Failed(String),
}

impl Reply {
    fn new(keep: bool, cfg: &SessionConfig) -> Self {
        Self {
            accepted: None,
            frames: Vec::new(),
            updates: 0,
            trace_events: 0,
            kept: keep.then(|| vec![WireMsg::SessionRequest(cfg.clone())]),
        }
    }

    fn absorb(&mut self, msg: WireMsg, now: Instant) -> Landed {
        if let Some(kept) = &mut self.kept {
            kept.push(msg.clone());
        }
        match msg {
            WireMsg::SessionAccept { .. } => self.accepted = Some(now),
            WireMsg::FrameDecoded(f) => self.frames.push(f),
            WireMsg::SessionStats { .. } => {}
            WireMsg::TelemetryUpdate { .. } => self.updates += 1,
            WireMsg::Trace { events } => self.trace_events += events.len() as u64,
            WireMsg::Telemetry { .. } => return Landed::Done(now),
            WireMsg::ErrorReport { kind, detail, .. } => {
                return Landed::Failed(format!("engine error [{kind}]: {detail}"))
            }
            _ => return Landed::Failed("unexpected message in a session reply".into()),
        }
        Landed::Pending
    }
}

/// What one client connection (or the replay loop) saw in a phase.
#[derive(Default)]
struct ConnLog {
    tally: ErrorTally,
    sessions: u64,
    frames_ok: u64,
    latency_ms: Vec<f64>,
    first_reply_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    /// Session time from `ready` to `done`: the engine's share.
    service_ms: Vec<f64>,
    /// Open loop: how late each request left against its schedule.
    late_ms: Vec<f64>,
    backlog_max: u64,
    /// Request bytes the open loop's sender wrote past [`WireConn`].
    bytes_sent: u64,
    updates: u64,
    trace_events: u64,
    mix: Vec<WireMsg>,
    errors: Vec<String>,
    spans: SpanLog,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl ConnLog {
    /// Scores a completed reply against the seed's PSDUs and records its
    /// timings.
    fn complete(&mut self, cfg: &SessionConfig, reply: Reply, t: Timing, id: u64, traced: bool) {
        let delivered = reply.frames.len() as u64;
        let corrupted = corrupted_frames(cfg, &reply.frames);
        self.tally
            .session(u64::from(cfg.n_frames), delivered, corrupted);
        self.frames_ok += delivered.saturating_sub(corrupted);
        self.sessions += 1;
        self.updates += reply.updates;
        self.trace_events += reply.trace_events;
        let accepted = reply.accepted.unwrap_or(t.done);
        self.latency_ms.push(ms(t.done - t.origin));
        self.first_reply_ms
            .push(ms(accepted.saturating_duration_since(t.ready)));
        self.stream_ms
            .push(ms(t.done.saturating_duration_since(accepted)));
        self.service_ms.push(ms(t.done - t.ready));
        if traced {
            self.spans.push("client.session", id, t.ready, t.done);
            self.spans.push("client.first_reply", id, t.ready, accepted);
            self.spans.push("client.stream", id, accepted, t.done);
        }
        if let (Some(kept), true) = (reply.kept, self.mix.is_empty()) {
            self.mix = kept;
        }
    }

    fn fail(&mut self, expected_frames: u32, why: String) {
        self.tally.failed_session(u64::from(expected_frames));
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn merge(&mut self, other: ConnLog) {
        self.tally.merge(&other.tally);
        self.sessions += other.sessions;
        self.frames_ok += other.frames_ok;
        self.latency_ms.extend(other.latency_ms);
        self.first_reply_ms.extend(other.first_reply_ms);
        self.stream_ms.extend(other.stream_ms);
        self.service_ms.extend(other.service_ms);
        self.late_ms.extend(other.late_ms);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.bytes_sent += other.bytes_sent;
        self.updates += other.updates;
        self.trace_events += other.trace_events;
        if self.mix.is_empty() {
            self.mix = other.mix;
        }
        self.errors.extend(other.errors);
        self.spans.append(other.spans);
    }
}

/// Spans of one session share this id: its slice, its connection and its
/// number on that connection within the slice.
fn session_id(slice: usize, conn: usize, n: u64) -> u64 {
    ((slice as u64) << 40) | ((conn as u64) << 32) | n
}

/// Sends one request and waits for its whole reply.
fn one_session(
    conn: &mut WireConn,
    cfg: &SessionConfig,
    keep: bool,
) -> Result<(Reply, Timing), String> {
    let sent = Instant::now();
    conn.send(&WireMsg::SessionRequest(cfg.clone()))?;
    let mut reply = Reply::new(keep, cfg);
    loop {
        let (msg, _) = conn.recv()?;
        match reply.absorb(msg, Instant::now()) {
            Landed::Pending => {}
            Landed::Done(done) => {
                let t = Timing {
                    origin: sent,
                    ready: sent,
                    done,
                };
                return Ok((reply, t));
            }
            Landed::Failed(e) => return Err(e),
        }
    }
}

/// Closed loop: the next request leaves when the previous reply ended.
fn closed_loop(
    conn: &mut WireConn,
    cfg: &SessionConfig,
    (slice, conn_id): (usize, usize),
    until: Instant,
    traced: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut n = 0u64;
    while Instant::now() < until {
        match one_session(conn, cfg, traced && log.mix.is_empty()) {
            Ok((reply, t)) => log.complete(cfg, reply, t, session_id(slice, conn_id, n), traced),
            Err(e) => {
                log.fail(cfg.n_frames, e);
                break;
            }
        }
        n += 1;
    }
    log
}

/// Requests sent on one connection whose replies have not ended:
/// `(due, sent)` in send order.
type Inflight = Mutex<VecDeque<(Instant, Instant)>>;

/// Open loop: request `i` is due at `t0 + i / CONTROL_RATE` on
/// connection `i mod n`. A sender thread writes each request when it is
/// due, however far behind the engine is; this thread reads the replies
/// of every connection as they land.
fn open_loop(
    conns: &mut [WireConn],
    cfgs: &[SessionConfig],
    slice: usize,
    t0: Instant,
    until: Instant,
    traced: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let writers = match conns
        .iter()
        .map(WireConn::writer)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(w) => w,
        Err(e) => {
            log.errors.push(e);
            return log;
        }
    };
    let n = conns.len();
    let period = Duration::from_secs_f64(1.0 / CONTROL_RATE);
    let inflight: Vec<Inflight> = (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    let outstanding = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let sent = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = ConnLog::default();
            let mut writers = writers;
            for i in 0u32.. {
                let due = t0 + period * i;
                if due >= until {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let c = i as usize % n;
                let frame = encode(&WireMsg::SessionRequest(cfgs[c].clone()));
                let now = Instant::now();
                inflight[c]
                    .lock()
                    .expect("inflight queue poisoned")
                    .push_back((due, now));
                let backlog = outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                if let Err(e) = writers[c].write_all(&frame) {
                    sent.errors.push(format!("send: {e}"));
                    break;
                }
                sent.late_ms.push(ms(now - due));
                sent.backlog_max = sent.backlog_max.max(backlog);
                sent.bytes_sent += frame.len() as u64;
            }
            sender_done.store(true, Ordering::SeqCst);
            sent
        });
        receive_replies(
            conns,
            cfgs,
            &inflight,
            &outstanding,
            &sender_done,
            (slice, t0),
            traced,
            &mut log,
        );
        sender.join().expect("open-loop sender panicked")
    });
    log.merge(sent);
    // Whatever is still out when the phase ended never completed.
    for (q, cfg) in inflight.iter().zip(cfgs) {
        for _ in q.lock().expect("inflight queue poisoned").drain(..) {
            log.fail(cfg.n_frames, "session never completed".into());
        }
    }
    log
}

/// The open loop's reply side: polls every connection, assembles each
/// reply and matches it to the oldest request out on its connection.
#[allow(clippy::too_many_arguments)]
fn receive_replies(
    conns: &mut [WireConn],
    cfgs: &[SessionConfig],
    inflight: &[Inflight],
    outstanding: &AtomicU64,
    sender_done: &AtomicBool,
    (slice, t0): (usize, Instant),
    traced: bool,
    log: &mut ConnLog,
) {
    let n = conns.len();
    let mut replies: Vec<Reply> = cfgs
        .iter()
        .enumerate()
        .map(|(c, cfg)| Reply::new(traced && c == 0, cfg))
        .collect();
    let mut last_done = vec![t0; n];
    let mut completed = vec![0u64; n];
    let mut ready = vec![Readiness::default(); n];
    let mut last_progress = Instant::now();
    loop {
        if sender_done.load(Ordering::SeqCst) && outstanding.load(Ordering::SeqCst) == 0 {
            return;
        }
        {
            let sources: Vec<(PollSource<'_>, Interest)> = conns
                .iter()
                .map(|c| (PollSource::Tcp(c.stream()), Interest::READ))
                .collect();
            poll_ready(&sources, &mut ready, Duration::from_millis(20));
        }
        if !ready.iter().any(Readiness::any) {
            if outstanding.load(Ordering::SeqCst) > 0 && last_progress.elapsed() > STALL {
                log.errors
                    .push(format!("the engine was silent for {STALL:?}"));
                return;
            }
            continue;
        }
        for c in (0..n).filter(|&c| ready[c].readable) {
            let conn = &mut conns[c];
            if let Err(e) = conn.fill() {
                log.errors.push(e);
                return;
            }
            loop {
                let msg = match conn.try_decode() {
                    Ok(Some((msg, _))) => msg,
                    Ok(None) => break,
                    Err(e) => {
                        log.errors.push(e);
                        return;
                    }
                };
                last_progress = Instant::now();
                match replies[c].absorb(msg, last_progress) {
                    Landed::Pending => {}
                    Landed::Done(done) => {
                        let head = inflight[c]
                            .lock()
                            .expect("inflight queue poisoned")
                            .pop_front();
                        let Some((due, sent)) = head else {
                            log.errors
                                .push("a reply arrived with no request out".into());
                            return;
                        };
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                        let reply = std::mem::replace(&mut replies[c], Reply::new(false, &cfgs[c]));
                        let t = Timing {
                            origin: due,
                            ready: sent.max(last_done[c]),
                            done,
                        };
                        let id = session_id(slice, c, completed[c]);
                        log.complete(&cfgs[c], reply, t, id, traced);
                        completed[c] += 1;
                        last_done[c] = done;
                    }
                    Landed::Failed(e) => {
                        log.errors.push(e);
                        return;
                    }
                }
            }
        }
    }
}

/// A phase's time, as measured and at reference speed: each slice's
/// figures divided by the host's slowdown over that slice.
#[derive(Default)]
struct Clock {
    elapsed_s: f64,
    /// `None` when the host has no CPU meter.
    cpu_s: Option<f64>,
    ref_elapsed_s: f64,
    ref_cpu_s: Option<f64>,
    ref_latency_ms: Vec<f64>,
}

impl Clock {
    fn new() -> Self {
        let cpu = cpu_seconds().map(|_| 0.0);
        Self {
            cpu_s: cpu,
            ref_cpu_s: cpu,
            ..Self::default()
        }
    }

    /// Adds a slice that took `elapsed_s` and `cpu_s` and whose sessions
    /// took `latency_ms`, on a host `slowdown` times slower than the
    /// reference.
    fn add(&mut self, elapsed_s: f64, cpu_s: Option<f64>, latency_ms: &[f64], slowdown: f64) {
        self.elapsed_s += elapsed_s;
        self.ref_elapsed_s += elapsed_s / slowdown;
        self.cpu_s = self.cpu_s.zip(cpu_s).map(|(sum, s)| sum + s);
        self.ref_cpu_s = self.ref_cpu_s.zip(cpu_s).map(|(sum, s)| sum + s / slowdown);
        self.ref_latency_ms
            .extend(latency_ms.iter().map(|ms| ms / slowdown));
    }
}

/// One measured phase, every connection's log merged.
struct Phase {
    clock: Clock,
    log: ConnLog,
    wire_bytes: u64,
    engine: EngineCounters,
}

impl Phase {
    fn frames_per_s(&self) -> f64 {
        self.log.frames_ok as f64 / self.clock.elapsed_s
    }
}

/// `after - before` of the CPU meter, less `host_s` spent sampling.
fn cpu_delta(before: Option<f64>, host_s: f64) -> Option<f64> {
    cpu_seconds()
        .zip(before)
        .map(|(after, before)| after - before - host_s)
}

/// Runs the engine workload in slices, sampling the host between them;
/// slice `i` is scaled by the samples taken just before and just after
/// it.
fn engine_phase(
    server: &EngineServer,
    conns: &mut [WireConn],
    w: Workload,
    cfgs: &[SessionConfig],
    seconds: f64,
    traced: bool,
    host: &mut HostSpeed,
) -> Phase {
    let stats = server.stats();
    let before = EngineCounters::read(&stats);
    let bytes = |conns: &[WireConn]| conns.iter().map(|c| c.bytes_in + c.bytes_out).sum::<u64>();
    let bytes_before = bytes(conns);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    // An unscaled phase runs as one slice.
    let slice_len = if w.host_scaled() {
        SLICE
    } else {
        Duration::from_secs_f64(seconds)
    };
    let mut log = ConnLog::default();
    let mut clock = Clock::new();
    let mut mark = host.samples();
    host.sample(PAUSE_SAMPLES);
    for slice in 0.. {
        let t0 = Instant::now();
        if t0 >= end || !log.errors.is_empty() {
            break;
        }
        let until = (t0 + slice_len).min(end);
        let cpu_before = cpu_seconds();
        let slice_log = if w == Workload::ControlSiso {
            open_loop(conns, cfgs, slice, t0, until, traced)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(cfgs)
                    .enumerate()
                    .map(|(c, (conn, cfg))| {
                        s.spawn(move || closed_loop(conn, cfg, (slice, c), until, traced))
                    })
                    .collect();
                let mut merged = ConnLog::default();
                for h in handles {
                    merged.merge(h.join().expect("client thread panicked"));
                }
                merged
            })
        };
        let elapsed_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_delta(cpu_before, 0.0);
        let next_mark = host.samples();
        host.sample(PAUSE_SAMPLES);
        let slowdown = host.slowdown_since(mark);
        mark = next_mark;
        clock.add(elapsed_s, cpu_s, &slice_log.latency_ms, slowdown);
        log.merge(slice_log);
    }
    let engine = EngineCounters::read(&stats).since(before);
    log.tally.frames_shed += engine.shed_total;
    log.tally.protocol_errors += engine.protocol_errors;
    log.tally.sessions_failed = log.tally.sessions_failed.max(engine.sessions_failed);
    Phase {
        clock,
        wire_bytes: bytes(conns) - bytes_before + log.bytes_sent,
        log,
        engine,
    }
}

/// Replays the captures in turn, one host-speed sample before each, in
/// slices; a slice is scaled by the samples taken within it.
fn capture_phase(
    captures: &[Capture],
    n_streams: usize,
    seconds: f64,
    traced: bool,
    host: &mut HostSpeed,
) -> Phase {
    let mut log = ConnLog::default();
    let mut clock = Clock::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut turn = captures.iter().cycle();
    'slices: loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let until = (t0 + SLICE).min(end);
        let cpu_before = cpu_seconds();
        let (mark, wall_before, host_cpu_before) = (host.samples(), host.wall_s, host.cpu_s);
        let first = log.latency_ms.len();
        while Instant::now() < until {
            let Capture { path, psdus } = turn.next().expect("captures cycle");
            let expected = psdus.len() as u64;
            host.sample(1);
            let start = Instant::now();
            match replay_scan(path, RxConfig::new(n_streams)) {
                Ok((_, frames, scan)) => {
                    let done = Instant::now();
                    let found = frames.len() as u64;
                    let ok = score_scan(psdus, &frames, &scan).per.ok();
                    log.tally.session(expected, found, found.saturating_sub(ok));
                    log.frames_ok += ok;
                    log.latency_ms.push(ms(done - start));
                    log.service_ms.push(ms(done - start));
                    if traced {
                        log.spans.push("capture.replay", log.sessions, start, done);
                    }
                    log.sessions += 1;
                }
                Err(e) => {
                    log.fail(expected as u32, format!("replay: {e}"));
                    break 'slices;
                }
            }
        }
        let elapsed_s = t0.elapsed().as_secs_f64() - (host.wall_s - wall_before);
        let cpu_s = cpu_delta(cpu_before, host.cpu_s - host_cpu_before);
        let slowdown = host.slowdown_since(mark);
        clock.add(elapsed_s, cpu_s, &log.latency_ms[first..], slowdown);
    }
    Phase {
        clock,
        log,
        wire_bytes: 0,
        engine: EngineCounters::default(),
    }
}

/// The end-to-end metrics of an untraced phase, in catalogue order:
/// throughput, CPU per frame, median and tail session latency, and the
/// median set-up. With `setup_slowdown` every time is at reference
/// speed (the phase's per slice, set-up divided by it); without, every
/// time is as measured. A meter the host lacks is left out, never
/// reported as 0.
fn end_to_end(
    phase: &Phase,
    setup_s: f64,
    setup_slowdown: Option<f64>,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let c = &phase.clock;
    let (elapsed_s, cpu_s, lat, setup_s) = match setup_slowdown {
        Some(k) => (c.ref_elapsed_s, c.ref_cpu_s, &c.ref_latency_ms, setup_s / k),
        None => (c.elapsed_s, c.cpu_s, &phase.log.latency_ms, setup_s),
    };
    let refused = |p: u32| {
        format!(
            "latency p{p} refused: {} sessions leave fewer than {MIN_BEYOND} beyond it",
            lat.len()
        )
    };
    let frames = phase.log.frames_ok as f64;
    let values = [
        Some(frames / elapsed_s),
        cpu_s.map(|s| s * 1e3 / frames.max(1.0)),
        Some(percentile(lat, 50.0).ok_or_else(|| refused(50))?),
        Some(percentile(lat, TAIL_PERCENTILE).ok_or_else(|| refused(TAIL_PERCENTILE as u32))?),
        Some(setup_s),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(def, v)| v.map(|v| (def, v)))
        .collect())
}

/// Send lateness at p99, or the largest when too few requests left to
/// rank a p99.
fn late_p99(late_ms: &[f64]) -> f64 {
    percentile(late_ms, 99.0).unwrap_or_else(|| late_ms.iter().copied().fold(0.0, f64::max))
}

/// The open-loop generator's own health; a phase whose generator fell
/// behind its schedule says so.
fn generator_note(w: Workload, phase: &Phase) -> Option<String> {
    if w != Workload::ControlSiso {
        return None;
    }
    let period_ms = 1e3 / CONTROL_RATE;
    let late = late_p99(&phase.log.late_ms);
    let backlog = phase.log.backlog_max;
    Some(if late > period_ms {
        format!(
            "WARNING: the open-loop generator fell behind: send lateness p99 {late:.3} ms \
             exceeds its {period_ms:.3} ms period (largest backlog {backlog})"
        )
    } else {
        format!(
            "open-loop generator on schedule: send lateness p99 {late:.3} ms, \
             largest backlog {backlog}"
        )
    })
}

/// Per-layer values keyed by catalogue name.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        let def = metric_def(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        self.0.insert(def.name, value);
    }

    /// Every per-layer metric in catalogue order; layers the workload
    /// does not exercise read 0.
    fn into_list(self) -> Vec<(&'static MetricDef, f64)> {
        LAYERS
            .iter()
            .map(|l| (&l.metric, self.0.get(l.metric.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run: client spans and engine
/// counters from the traced phase, in-process probes on the workload's
/// preset, and the tracing overhead against the untraced phase.
fn layer_values(
    w: Workload,
    cfg: &SessionConfig,
    target: &Target,
    plain: &Phase,
    traced: &Phase,
    peak_rss_mb: Option<f64>,
    spans: &mut SpanLog,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    let budget = PROBE_BUDGET;
    let mut v = Values::default();

    // The engine's direct session path on this preset.
    let link = layers::probe_link(cfg, budget, spans)?;
    let frames = link.frames as f64;
    let sessions = link.sessions as f64;
    let batch_per_frame = ratio(link.batch_ns, link.batch_frames);
    v.set("tx.ns_per_frame", link.tx_ns as f64 / frames);
    v.set("channel.ns_per_frame", link.channel_ns as f64 / frames);
    v.set("rx.batch.ns_per_frame", batch_per_frame);
    v.set("session.prep_ns", link.prep_ns as f64 / sessions);
    v.set("session.score_ns", link.score_ns as f64 / sessions);
    let direct_session_ns = (link.prep_ns + link.tx_ns + link.channel_ns + link.score_ns) as f64
        / sessions
        + batch_per_frame * f64::from(cfg.n_frames);
    let mut stages = (link.rx, frames);

    let service_ms = mean(&traced.log.service_ms);
    let (mix, in_process_ns, codec_in_process) = match target {
        Target::Capture {
            captures,
            n_streams,
        } => {
            // The probes take the first capture, made from `cfg`.
            let Capture { path, psdus } = &captures[0];
            let cap = layers::probe_capture(path, psdus, *n_streams, budget, spans)?;
            let captures = cap.captures as f64;
            let attempts = cap.stages.calls[RxStage::Detect as usize];
            v.set("rx.scan.ns_per_capture", cap.scan_ns as f64 / captures);
            v.set("rx.scan.rescans", cap.rescans as f64 / captures);
            v.set("rx.scan.found_ratio", ratio(cap.found, attempts));
            v.set("capture.read.ns_per_capture", cap.read_ns as f64 / captures);
            let size = std::fs::metadata(path)
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len();
            v.set("wire.bytes_per_frame", size as f64 / psdus.len() as f64);
            let read_and_scan = (cap.read_ns + cap.scan_ns) as f64 / captures;
            stages = (cap.stages, cap.found as f64);
            // `read_capture` already decodes the chunks.
            (layers::capture_mix(path)?, read_and_scan, true)
        }
        Target::Engine { .. } => {
            let engine = plain.engine.plus(traced.engine);
            let delivered = traced.log.frames_ok.max(1) as f64;
            v.set("wire.bytes_per_frame", traced.wire_bytes as f64 / delivered);
            v.set("client.first_reply_ms", mean(&traced.log.first_reply_ms));
            v.set("client.stream_ms", mean(&traced.log.stream_ms));
            v.set(
                "engine.batch_occupancy",
                ratio(engine.decode_batched_frames, engine.decode_batches),
            );
            v.set("engine.sessions_failed", engine.sessions_failed as f64);
            v.set("engine.protocol_errors", engine.protocol_errors as f64);
            v.set("engine.shed_total", engine.shed_total as f64);
            v.set(
                "obs.trace_events_per_frame",
                traced.log.trace_events as f64 / delivered,
            );
            v.set(
                "client.updates_per_session",
                ratio(traced.log.updates, traced.log.sessions),
            );
            if w == Workload::ControlSiso {
                let late = [plain.log.late_ms.as_slice(), &traced.log.late_ms].concat();
                v.set("loadgen.late_p99_ms", late_p99(&late));
                v.set(
                    "loadgen.backlog_max",
                    plain.log.backlog_max.max(traced.log.backlog_max) as f64,
                );
            }
            let session_ns = if w == Workload::TracedSession {
                let obs = layers::probe_observed(cfg, budget, spans)?;
                let obs_frames = obs.frames as f64;
                for (block, work, blocked) in &obs.blocks {
                    if let Some(short) = block.strip_prefix("mimonet_") {
                        v.set(
                            &format!("runtime.{short}.work_ns_per_frame"),
                            *work as f64 / obs_frames,
                        );
                        v.set(
                            &format!("runtime.{short}.blocked_ns_per_frame"),
                            *blocked as f64 / obs_frames,
                        );
                    }
                }
                obs.session_ns as f64 / obs.sessions as f64
            } else {
                direct_session_ns
            };
            (traced.log.mix.clone(), session_ns, false)
        }
    };
    for stage in RxStage::ALL {
        v.set(
            &format!("rx.{}.ns_per_frame", stage.name()),
            stages.0.ns[stage as usize] as f64 / stages.1,
        );
    }

    let codec = layers::probe_codec(&mix, budget, spans)?;
    let msgs = codec.msgs as f64;
    v.set("wire.encode.ns_per_msg", codec.encode_ns as f64 / msgs);
    v.set("wire.decode.ns_per_msg", codec.decode_ns as f64 / msgs);
    let codec_per_session = (codec.encode_ns + codec.decode_ns) as f64 / msgs * mix.len() as f64;
    let accounted_ns = if codec_in_process {
        in_process_ns
    } else {
        in_process_ns + codec_per_session
    };
    v.set(
        "engine.overhead_ms_per_session",
        service_ms - accounted_ns / 1e6,
    );

    if let Some(mb) = peak_rss_mb {
        v.set("bench.peak_rss_mb", mb);
    }
    let plain_fps = plain.frames_per_s();
    v.set(
        "bench.trace_overhead_frac",
        if plain_fps > 0.0 {
            1.0 - traced.frames_per_s() / plain_fps
        } else {
            0.0
        },
    );
    let mut tally = plain.log.tally;
    tally.merge(&traced.log.tally);
    v.set("bench.error_rate", tally.error_rate());
    v.set("bench.latency_samples", plain.log.latency_ms.len() as f64);
    Ok(v.into_list())
}

/// Writes the traced run's spans and per-layer values as one JSON file.
fn write_trace(
    path: &Path,
    epoch: Instant,
    w: Workload,
    seed: u64,
    spans: &SpanLog,
    values: &[(&'static MetricDef, f64)],
) -> Result<(), String> {
    let doc = Value::object(vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::U64(seed)),
        (
            "per_layer",
            Value::Object(
                values
                    .iter()
                    .map(|(def, v)| (def.name.to_string(), Value::F64(*v)))
                    .collect(),
            ),
        ),
        ("trace", spans.to_value(epoch)),
    ]);
    std::fs::write(path, serde::json::to_string(&doc))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
