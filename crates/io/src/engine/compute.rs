//! The engine's compute plane: a fixed worker pool that executes
//! admitted sessions and batches FEC work **across sessions**.
//!
//! A session's DSP is a pure per-frame pipeline (the flowgraph proves
//! it): PSDU → `Transmitter::transmit` → lead-in/out framing →
//! `ChannelSim::apply` (stateful, per-session, burst order) →
//! `Receiver::receive`. The engine exploits that shape directly instead
//! of spinning a flowgraph per session:
//!
//! * a **generation turn** advances one session by a window of frames —
//!   transmit + channel, both cheap — and enqueues one decode job per
//!   burst; the task then goes to the back of the generation queue, so
//!   active sessions round-robin and their bursts interleave;
//! * a **decode turn** drains up to a lane-multiple of decode jobs from
//!   the shared queue — *regardless of which session they came from* —
//!   and runs them through one [`Receiver::receive_batch`] call, whose
//!   deferred-FEC path walks four frames at a time through
//!   [`ViterbiDecoderX4`]. Batch grouping never changes decode results
//!   (pinned bit-identical by `tests/simd_equivalence.rs`), so the
//!   engine's per-session output is byte-identical to the session
//!   flowgraph ([`crate::session::run_session`]) no matter how sessions
//!   interleave.
//!
//! Sessions that need the observability plane (`trace != 0` or
//! `telemetry_every > 0`) fall back to the full flowgraph on the
//! deterministic single-thread scheduler inside one worker — the
//! scheduler-agreement test pins that path byte-identical to the
//! threaded scheduler too, and the worker pool keeps the engine's thread
//! count constant either way.
//!
//! [`ViterbiDecoderX4`]: mimonet_fec::ViterbiDecoderX4

use super::{EngineShared, ShardHandle, TRACE_RING_CAPACITY};
use crate::queue::{BoundedQueue, OverflowPolicy};
use crate::session::{
    run_session_observed, score_decoded, session_psdus, validate_config, Scheduler, SessionError,
    SessionObserver,
};
use crate::store::StoredSession;
use crate::wire::{DecodedFrame, SessionConfig};
use mimonet::blocks::{frame_burst_len, LEAD_IN, LEAD_OUT};
use mimonet::config::RxConfig;
use mimonet::obs::{SloCounts, SloSpec, TraceCollector, TraceEventKind};
use mimonet::tx::Transmitter;
use mimonet::{LinkTracer, Receiver, RxBatch, RxWorkspace};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Frames a generation turn advances one session by. Small enough that
/// many admitted sessions interleave in the decode queue (that is what
/// makes the FEC batches cross-session), large enough to amortize the
/// queue traffic.
const GEN_WINDOW: u32 = 8;

/// Most decode jobs drained into one `receive_batch` call: two full
/// `ViterbiDecoderX4` lane groups.
const BATCH_MAX: usize = 8;

/// Decode queue depth — bounds in-flight burst memory. Must comfortably
/// exceed `workers × GEN_WINDOW` so generation turns never deadlock on
/// their own output.
const DECODE_QUEUE_DEPTH: usize = 1024;

/// Generation queue depth — one slot per admitted session, so it must
/// exceed any plausible admission cap (a full queue would block the
/// shard thread submitting the session).
const GEN_QUEUE_DEPTH: usize = 8192;

/// One admitted session moving through the compute plane.
pub(crate) struct SessionRun {
    /// Owning connection (shard-local id).
    pub conn: u64,
    /// Shard that streams the reply.
    pub shard: usize,
    /// The validated request.
    pub cfg: SessionConfig,
    /// Resume token, assigned at admission (issued in `SessionAccept`).
    pub token: u64,
    /// Overload shed decided at admission: stream control, withhold data.
    pub shed: bool,
    state: Mutex<RunState>,
}

/// A decoded frame's payload: its SNR estimate and PSDU bytes; `None`
/// when the decode failed (frame lost).
type FrameOutcome = Option<(f64, Vec<u8>)>;

struct RunState {
    /// Per-frame decode outcome: `None` = in flight, `Some(..)` =
    /// decode finished (see [`FrameOutcome`]).
    slots: Vec<Option<FrameOutcome>>,
    done: u32,
}

impl SessionRun {
    pub(crate) fn new(conn: u64, shard: usize, cfg: SessionConfig, token: u64, shed: bool) -> Self {
        let n = cfg.n_frames as usize;
        Self {
            conn,
            shard,
            cfg,
            token,
            shed,
            state: Mutex::new(RunState {
                slots: vec![None; n],
                done: 0,
            }),
        }
    }
}

/// What the compute plane hands back to the owning shard.
pub(crate) enum Completion {
    /// Session ran; `session` is parked in the store under `token` and
    /// ready to stream. `updates` are mid-run telemetry rounds (fallback
    /// path only) that go out before `SessionAccept`.
    Done {
        conn: u64,
        token: u64,
        shed: bool,
        session: StoredSession,
        updates: Vec<(u32, String)>,
    },
    /// Session failed; the shard answers with a typed `ErrorReport`.
    Failed { conn: u64, error: SessionError },
}

/// A task on the generation queue.
enum GenTask {
    /// Direct-executor session: per-frame pipeline + batched decode.
    Direct(Box<DirectTask>),
    /// Observability fallback: full flowgraph on one worker.
    Full(Arc<SessionRun>),
}

struct DirectTask {
    run: Arc<SessionRun>,
    tx: Transmitter,
    sim: ChannelSim,
    psdus: Vec<Vec<u8>>,
    burst_len: usize,
    n_streams: usize,
    next: u32,
}

/// One burst awaiting decode — sessions interleave freely here.
struct DecodeJob {
    run: Arc<SessionRun>,
    frame: u32,
    n_streams: usize,
    bufs: Vec<Vec<Complex64>>,
}

/// The worker pool plus its two queues.
pub(crate) struct ComputePlane {
    gen: Arc<BoundedQueue<GenTask>>,
    decode: Arc<BoundedQueue<DecodeJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ComputePlane {
    /// Spawns `n_workers` compute threads draining the shared queues.
    pub(crate) fn spawn(
        n_workers: usize,
        shared: Arc<EngineShared>,
        shards: Vec<ShardHandle>,
    ) -> Self {
        let gen: Arc<BoundedQueue<GenTask>> =
            Arc::new(BoundedQueue::new(GEN_QUEUE_DEPTH, OverflowPolicy::Block));
        let decode: Arc<BoundedQueue<DecodeJob>> =
            Arc::new(BoundedQueue::new(DECODE_QUEUE_DEPTH, OverflowPolicy::Block));
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let gen = gen.clone();
                let decode = decode.clone();
                let shared = shared.clone();
                let shards = shards.clone();
                std::thread::spawn(move || worker_loop(&gen, &decode, &shared, &shards))
            })
            .collect();
        Self {
            gen,
            decode,
            workers,
        }
    }

    /// Admits a session into the plane. Returns the validation error when
    /// the config is invalid (the caller reports `bad-config` without
    /// spending any compute).
    pub(crate) fn submit(&self, run: Arc<SessionRun>) -> Result<(), SessionError> {
        let cfg = &run.cfg;
        if cfg.trace != 0 || cfg.telemetry_every > 0 {
            validate_config(cfg)?;
            self.gen.push(GenTask::Full(run));
            return Ok(());
        }
        let tx_cfg = validate_config(cfg)?;
        let n_streams = tx_cfg.mcs.n_streams;
        let burst_len = frame_burst_len(&tx_cfg, cfg.payload_len as usize);
        let task = DirectTask {
            tx: Transmitter::new(tx_cfg),
            sim: ChannelSim::new(
                ChannelConfig::awgn(n_streams, n_streams, cfg.snr_db),
                cfg.seed,
            ),
            psdus: session_psdus(cfg),
            burst_len,
            n_streams,
            next: 0,
            run,
        };
        self.gen.push(GenTask::Direct(Box::new(task)));
        Ok(())
    }

    /// Closes the queues and joins every worker.
    pub(crate) fn shutdown(self) {
        self.gen.close();
        self.decode.close();
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    gen: &BoundedQueue<GenTask>,
    decode: &BoundedQueue<DecodeJob>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    // Per-stream-count receiver + scratch: sessions with the same
    // antenna count share one batch call even across MCS presets.
    let mut rx_by_streams: HashMap<usize, (Receiver, RxWorkspace, RxBatch)> = HashMap::new();
    let mut jobs: Vec<DecodeJob> = Vec::with_capacity(BATCH_MAX);
    loop {
        // Decode-first: keep the FEC lanes fed before generating more.
        jobs.clear();
        while jobs.len() < BATCH_MAX {
            match decode.try_pop() {
                Some(j) => jobs.push(j),
                None => break,
            }
        }
        if !jobs.is_empty() {
            decode_jobs(&mut jobs, &mut rx_by_streams, shared, shards);
            continue;
        }
        match gen.pop_timeout(Duration::from_millis(10)) {
            Some(GenTask::Direct(task)) => generation_turn(*task, gen, decode),
            Some(GenTask::Full(run)) => full_session(&run, shared, shards),
            None => {
                if gen.is_terminated() && decode.is_terminated() {
                    return;
                }
            }
        }
    }
}

/// Advances one session by up to [`GEN_WINDOW`] frames: transmit +
/// channel per burst (session-ordered — the channel simulator draws one
/// fading realization per burst from the session seed), one decode job
/// per burst. Unfinished tasks rejoin the queue tail so sessions
/// round-robin.
fn generation_turn(
    mut task: DirectTask,
    gen: &BoundedQueue<GenTask>,
    decode: &BoundedQueue<DecodeJob>,
) {
    let end = (task.next + GEN_WINDOW).min(task.run.cfg.n_frames);
    while task.next < end {
        let frame = task.next;
        let psdu = &task.psdus[frame as usize];
        let streams = task.tx.transmit(psdu).expect("validated PSDU");
        let tx_burst: Vec<Vec<Complex64>> = streams
            .into_iter()
            .map(|s| {
                let mut b = Vec::with_capacity(task.burst_len);
                b.resize(LEAD_IN, Complex64::ZERO);
                b.extend_from_slice(&s);
                b.resize(b.len() + LEAD_OUT, Complex64::ZERO);
                b
            })
            .collect();
        let (rx, _) = task.sim.apply(&tx_burst);
        // Channel tails may extend the stream; clip to the burst so the
        // receiver sees exactly what the flowgraph's chunking delivers.
        let bufs: Vec<Vec<Complex64>> = rx
            .into_iter()
            .map(|mut s| {
                s.truncate(task.burst_len);
                s
            })
            .collect();
        decode.push(DecodeJob {
            run: task.run.clone(),
            frame,
            n_streams: task.n_streams,
            bufs,
        });
        task.next += 1;
    }
    if task.next < task.run.cfg.n_frames {
        gen.push(GenTask::Direct(Box::new(task)));
    }
}

/// Decodes a drained batch of jobs — grouped by antenna count, each
/// group one `receive_batch` call, FEC lanes shared across sessions.
fn decode_jobs(
    jobs: &mut Vec<DecodeJob>,
    rx_by_streams: &mut HashMap<usize, (Receiver, RxWorkspace, RxBatch)>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    jobs.sort_by_key(|j| j.n_streams);
    let mut start = 0;
    while start < jobs.len() {
        let n_streams = jobs[start].n_streams;
        let mut end = start + 1;
        while end < jobs.len() && jobs[end].n_streams == n_streams {
            end += 1;
        }
        let group = &jobs[start..end];
        let (rx, ws, batch) = rx_by_streams.entry(n_streams).or_insert_with(|| {
            (
                Receiver::new(RxConfig::new(n_streams)),
                RxWorkspace::new(),
                RxBatch::new(),
            )
        });
        let captures: Vec<&Vec<Vec<Complex64>>> = group.iter().map(|j| &j.bufs).collect();
        rx.receive_batch(&captures, ws, batch);
        shared.stats.decode_batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .decode_batched_frames
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        for (i, job) in group.iter().enumerate() {
            let outcome = batch.result(i).ok().map(|f| (f.snr_db, f.psdu.clone()));
            record_result(job, outcome, shared, shards);
        }
        start = end;
    }
    jobs.clear();
}

/// Lands one frame outcome in its session; the last frame finalizes the
/// session and notifies the owning shard.
fn record_result(
    job: &DecodeJob,
    outcome: Option<(f64, Vec<u8>)>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    let run = &job.run;
    let finished = {
        let mut st = run.state.lock().unwrap();
        let slot = &mut st.slots[job.frame as usize];
        debug_assert!(slot.is_none(), "frame decoded twice");
        *slot = Some(outcome);
        st.done += 1;
        st.done == run.cfg.n_frames
    };
    if !finished {
        return;
    }
    // Assemble the reply exactly as `run_session` does: successes in
    // burst order, re-indexed by decode position (the hub message
    // order), untraced (`trace = 0` — traced sessions take the
    // fallback path).
    let mut decoded = Vec::new();
    {
        let st = run.state.lock().unwrap();
        for slot in &st.slots {
            if let Some(Some((snr_db, psdu))) = slot {
                decoded.push(DecodedFrame {
                    index: decoded.len() as u32,
                    snr_db: *snr_db,
                    psdu: psdu.clone(),
                    trace: 0,
                });
            }
        }
    }
    let psdus = session_psdus(&run.cfg);
    let stats = score_decoded(&psdus, &decoded);
    let session = StoredSession {
        frames: decoded,
        stats_json: serde::json::to_string(&stats.serialize()),
        telemetry_json: engine_telemetry_json(&run.cfg),
        trace: Vec::new(),
    };
    finish(run, session, Vec::new(), shared, shards);
}

/// Observability fallback: the full flowgraph on the single-thread
/// scheduler. Every delivered frame gets a transport-enqueue event, and
/// the traced session is graded against the default link SLO so a
/// scraper sees breaches without pulling the trace itself.
fn full_session(run: &Arc<SessionRun>, shared: &EngineShared, shards: &[ShardHandle]) {
    let cfg = &run.cfg;
    let collector = (cfg.trace != 0)
        .then(|| Arc::new(TraceCollector::from_env(TRACE_RING_CAPACITY, cfg.trace)));
    let tracer = collector.as_ref().map(|c| LinkTracer {
        collector: c.clone(),
        root: cfg.trace,
    });
    let mut updates: Vec<(u32, String)> = Vec::new();
    let mut on_update = |round: u32, json: &str| updates.push((round, json.to_string()));
    let res = run_session_observed(
        cfg,
        Scheduler::SingleThread,
        SessionObserver {
            tracer,
            on_update: (cfg.telemetry_every > 0).then_some(&mut on_update),
        },
    );
    match res {
        Ok(out) => {
            if let Some(c) = &collector {
                for d in &out.decoded {
                    c.record(
                        d.trace,
                        TraceEventKind::TransportEnqueue,
                        d.index,
                        0,
                        d.psdu.len() as u64,
                    );
                }
                let delivered = out.decoded.len() as u64;
                let verdict = SloSpec::link_default().evaluate(
                    &c.events(),
                    &SloCounts {
                        frames_expected: u64::from(cfg.n_frames),
                        frames_delivered: delivered,
                        drops: u64::from(cfg.n_frames) - delivered,
                        resumes: 0,
                        attempts: 1,
                    },
                );
                shared.stats.slo_evaluations.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .slo_breaches
                    .fetch_add(verdict.breaches().len() as u64, Ordering::Relaxed);
            }
            let session = StoredSession {
                frames: out.decoded,
                stats_json: serde::json::to_string(&out.stats.serialize()),
                telemetry_json: serde::json::to_string(&out.telemetry.to_value(false)),
                trace: collector.map(|c| c.events()).unwrap_or_default(),
            };
            finish(run, session, updates, shared, shards);
        }
        Err(error) => deliver(
            run.shard,
            Completion::Failed {
                conn: run.conn,
                error,
            },
            shards,
        ),
    }
}

/// Parks the outcome in the resume store and notifies the owning shard.
fn finish(
    run: &Arc<SessionRun>,
    session: StoredSession,
    updates: Vec<(u32, String)>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    shared
        .store
        .lock()
        .unwrap()
        .insert(shared.config.resume_capacity, run.token, session.clone());
    deliver(
        run.shard,
        Completion::Done {
            conn: run.conn,
            token: run.token,
            shed: run.shed,
            session,
            updates,
        },
        shards,
    );
}

fn deliver(shard: usize, completion: Completion, shards: &[ShardHandle]) {
    let handle = &shards[shard];
    handle.completions.lock().unwrap().push_back(completion);
    handle.waker.wake();
}

/// The engine's per-session telemetry payload: the wire field is opaque
/// JSON, and the direct executor has no flowgraph blocks to snapshot, so
/// it reports its own (deterministic) execution shape instead.
fn engine_telemetry_json(cfg: &SessionConfig) -> String {
    serde::json::to_string(&Value::object(vec![
        (
            "engine",
            Value::object(vec![
                ("scheduler", Value::Str("engine-direct".into())),
                ("frames", Value::U64(u64::from(cfg.n_frames))),
                ("gen_window", Value::U64(u64::from(GEN_WINDOW))),
                ("batch_max", Value::U64(BATCH_MAX as u64)),
            ]),
        ),
        ("blocks", Value::Array(Vec::new())),
    ]))
}
