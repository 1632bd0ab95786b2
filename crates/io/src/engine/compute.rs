//! The engine's compute plane: a fixed worker pool that executes
//! admitted sessions and drains their decode jobs in batches drawn
//! **across sessions**.
//!
//! A session's DSP is a pure per-frame pipeline (the flowgraph proves
//! it): PSDU → transmit with lead-in/out framing → channel (stateful,
//! per-session, burst order) → `Receiver::receive`. The engine exploits
//! that shape directly instead of spinning a flowgraph per session:
//!
//! * a **generation turn** advances one session by a window of frames —
//!   one [`mimonet::burst::generate`] call per burst, through the
//!   worker's reused transmit buffers — and enqueues one decode job per
//!   burst; the task then goes to the back of the generation queue, so
//!   active sessions round-robin and their bursts interleave. Generation
//!   is not cheap: transmit plus channel was about half of a `bulk_mimo`
//!   frame's CPU time before the burst generator dropped their per-frame
//!   re-work, and the channel's Gaussian noise is still a large share;
//! * a **decode turn** drains up to `BATCH_MAX` decode jobs from the
//!   shared queue — *regardless of which session they came from* — and
//!   runs each stream-count group through one
//!   [`Receiver::receive_batch`] call, a loop of one-frame decodes over
//!   one workspace. Every frame decodes on its own, so grouping never
//!   changes a decoded byte (pinned by `tests/simd_equivalence.rs`), and
//!   the engine's per-session output is byte-identical to the session
//!   flowgraph ([`crate::session::run_session`]) no matter how sessions
//!   interleave.
//!
//! The decode queue is what lets one session use two workers: an idle
//! worker decodes a session's queued bursts while another is still
//! generating that session's next window. A one-queue plane (a turn
//! generates a window, requeues the session, then decodes the window in
//! one `receive_batch` call) is 82 lines shorter and was measured
//! against it on `bench_e2e`. `bulk_mimo` throughput stayed flat (617 →
//! 619 frames/s, median of 4 alternating 25 s pairs), but `setup_s`,
//! which times warm-up sessions run one at a time, rose 0.082 → 0.111 s
//! (1.35×, worse in 4 of 4 pairs), past the benchmark's 25% bound.
//! One-frame windows did not recover it (0.065 → 0.070 s, medians of
//! five 6 s runs). So the two queues stay.
//!
//! The two queues share one lock and one condition variable
//! (`Scheduler`). A worker picks its next turn under that lock —
//! decode jobs first, then a generation task — and when both queues
//! are empty it sleeps until a push to either queue or the plane's
//! close wakes it. There is no timer: an idle engine's workers do not
//! wake at all, and a queued burst is picked up as soon as a worker is
//! free. So while one worker generates a lone session's window, the
//! other decodes each burst as it is queued, and that session's decode
//! turns hold about one burst each; batches of several sessions' bursts
//! form when the workers are busy.
//!
//! Every session takes this path, traced (`trace != 0`) and
//! telemetry-streaming (`telemetry_every > 0`) ones included, so the
//! thread set stays constant and a trace describes the executor that
//! serves all traffic. A traced burst carries its generation turn's
//! timing ([`BurstScratch::timing`]) to its decode job, and its decode
//! turn keeps the frame's stage profile ([`RxBatch::profile`]). When the
//! session's last frame lands, its events are recorded in one canonical
//! order — frame by frame in lifecycle order (`TxEncode`,
//! `ChannelApply`, each executed RX stage, `FrameOk`/`FrameFail`), then
//! one `TransportEnqueue` per delivered frame in decode order — each
//! stamped with the end time its turn measured. Two workers may handle
//! one session's frames at once, and a deterministic collector's
//! virtual clock follows record order, so recording at the end is what
//! keeps a deterministic trace byte-stable. The session's telemetry
//! rounds are computed then too, by the same function the in-process
//! run uses (`session::telemetry_rounds`).

use super::{spawn_named, EngineShared, ShardHandle};
use crate::session::{
    score_decoded, session_psdus, telemetry_rounds, validate_config, SessionError,
};
use crate::store::StoredSession;
use crate::wire::{DecodedFrame, SessionConfig};
use mimonet::blocks::{frame_burst_len, LEAD_IN, LEAD_OUT};
use mimonet::burst::{self, BurstScratch, BurstTiming};
use mimonet::config::{RxConfig, TxConfig};
use mimonet::obs::{
    record_receive, SloCounts, SloSpec, TraceCollector, TraceEvent, TraceEventKind,
};
use mimonet::tx::Transmitter;
use mimonet::{frame_trace_id, Receiver, RxBatch, RxStage, RxWorkspace, StageProfile};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Frames a generation turn advances one session by. Small enough that
/// another worker decodes a window's bursts while this session's next
/// window is generated, large enough to amortize the queue traffic.
const GEN_WINDOW: u32 = 8;

/// Most decode jobs one decode turn drains from the queue; each
/// stream-count group of them is one `receive_batch` call.
const BATCH_MAX: usize = 8;

/// Decode queue depth — bounds in-flight burst memory. Must comfortably
/// exceed `workers × GEN_WINDOW` so generation turns never deadlock on
/// their own output.
const DECODE_QUEUE_DEPTH: usize = 1024;

/// Generation queue depth — one slot per admitted session, so it must
/// exceed any plausible admission cap (a full queue would block the
/// shard thread submitting the session).
const GEN_QUEUE_DEPTH: usize = 8192;

/// Most trace events one frame of a session records: `TxEncode`,
/// `ChannelApply`, one per RX stage, `FrameOk` or `FrameFail`, and
/// `TransportEnqueue`. A traced session's collector holds this many per
/// frame, so its ring never overwrites an event.
const TRACE_EVENTS_PER_FRAME: usize = 2 + mimonet::STAGE_COUNT + 2;

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
    /// The validated transmit config.
    tx_cfg: TxConfig,
    /// Samples per burst: the frame plus its lead-in and lead-out.
    burst_len: usize,
    /// The session's PSDUs, drawn once at admission: its generation
    /// turns transmit them and its last decode scores against them.
    psdus: Vec<Vec<u8>>,
    /// A traced session's event collector, sized to the session; `None`
    /// when untraced.
    collector: Option<TraceCollector>,
    state: Mutex<RunState>,
}

/// A decoded frame's payload: its SNR estimate and PSDU bytes; `None`
/// when the decode failed (frame lost).
type FrameOutcome = Option<(f64, Vec<u8>)>;

struct RunState {
    /// Per-frame decode outcome: `None` = in flight, `Some(..)` =
    /// decode finished (see [`FrameOutcome`]).
    slots: Vec<Option<FrameOutcome>>,
    /// Per-frame turn measurements of a traced session (empty when
    /// untraced), recorded as events once every frame has landed.
    traces: Vec<Option<FrameTrace>>,
    done: u32,
}

/// What a traced frame's two turns measured.
struct FrameTrace {
    /// When the generation turn's transmit and channel halves ran.
    burst: BurstTiming,
    /// The frame's RX stage profile.
    profile: StageProfile,
    /// When the frame's decode ended within its decode turn.
    decoded_at: Instant,
    /// The stage that failed, `None` when the frame decoded.
    failed: Option<RxStage>,
}

impl SessionRun {
    /// Validates `cfg` and builds the run. Nothing is sized from the
    /// request before it is validated, so a hostile `n_frames` is a
    /// typed error, not an allocation.
    pub(crate) fn new(
        conn: u64,
        shard: usize,
        cfg: SessionConfig,
        token: u64,
        shed: bool,
    ) -> Result<Self, SessionError> {
        let tx_cfg = validate_config(&cfg)?;
        let n = cfg.n_frames as usize;
        let collector = (cfg.trace != 0)
            .then(|| TraceCollector::from_env(n * TRACE_EVENTS_PER_FRAME, cfg.trace));
        let traces = match collector {
            Some(_) => (0..n).map(|_| None).collect(),
            None => Vec::new(),
        };
        Ok(Self {
            conn,
            shard,
            burst_len: frame_burst_len(&tx_cfg, cfg.payload_len as usize),
            psdus: session_psdus(&cfg),
            collector,
            cfg,
            token,
            shed,
            tx_cfg,
            state: Mutex::new(RunState {
                slots: vec![None; n],
                traces,
                done: 0,
            }),
        })
    }
}

/// A finished session, handed back to the owning shard: `session` is
/// parked in the store under `token` and ready to stream, and `updates`
/// are its telemetry rounds, which go out before `SessionAccept`.
pub(crate) struct Completion {
    pub conn: u64,
    pub token: u64,
    pub shed: bool,
    pub session: StoredSession,
    pub updates: Vec<(u32, String)>,
}

/// A session on the generation queue: its transmitter, its channel and
/// the next frame to generate.
struct GenTask {
    run: Arc<SessionRun>,
    tx: Transmitter,
    sim: ChannelSim,
    next: u32,
}

/// One burst awaiting decode — sessions interleave freely here.
struct DecodeJob {
    run: Arc<SessionRun>,
    frame: u32,
    n_streams: usize,
    bufs: Vec<Vec<Complex64>>,
    /// The generation turn's timing, kept for traced sessions only.
    timing: Option<BurstTiming>,
}

/// The two FIFOs a [`Scheduler`] guards, its close flag and its
/// sleeper count.
struct Queues<G, D> {
    gen: VecDeque<G>,
    decode: VecDeque<D>,
    closed: bool,
    /// Threads waiting on [`Scheduler::wake`]: idle workers and pushers
    /// held by a full queue. A push or a take signals only when one
    /// waits.
    sleepers: usize,
}

/// A worker's next turn, as [`Scheduler::next_turn`] picks it.
enum Turn<G> {
    /// Decode the jobs just moved into the caller's batch.
    Decode,
    /// Advance this session by one window.
    Generate(G),
    /// The plane is closed and both queues are drained.
    Exit,
}

/// The compute plane's run queues: generation tasks and decode jobs,
/// two FIFOs under one lock, with one condition variable that every
/// push and the close signal. A full queue holds its pusher until a
/// turn takes from it, and that take signals too. Generic over the two
/// item types, so its tests push plain integers.
struct Scheduler<G, D> {
    queues: Mutex<Queues<G, D>>,
    wake: Condvar,
}

impl<G, D> Scheduler<G, D> {
    fn new() -> Self {
        Self {
            queues: Mutex::new(Queues {
                gen: VecDeque::new(),
                decode: VecDeque::new(),
                closed: false,
                sleepers: 0,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queues<G, D>> {
        self.queues
            .lock()
            .expect("no thread panics holding the run queues")
    }

    /// Sleeps on the condition variable, counted in `sleepers`.
    fn sleep<'a>(&self, mut q: MutexGuard<'a, Queues<G, D>>) -> MutexGuard<'a, Queues<G, D>> {
        q.sleepers += 1;
        let mut q = self
            .wake
            .wait(q)
            .expect("no thread panics holding the run queues");
        q.sleepers -= 1;
        q
    }

    /// Queues a session for generation: an admission or a requeue.
    fn push_gen(&self, task: G) {
        self.push(task, GEN_QUEUE_DEPTH, |q| &mut q.gen);
    }

    /// Queues a burst for decode.
    fn push_decode(&self, job: D) {
        self.push(job, DECODE_QUEUE_DEPTH, |q| &mut q.decode);
    }

    /// Appends `item` once its queue holds fewer than `depth` items and
    /// wakes one sleeper; a closed plane discards it.
    fn push<T>(&self, item: T, depth: usize, queue: fn(&mut Queues<G, D>) -> &mut VecDeque<T>) {
        let mut q = self.lock();
        while queue(&mut q).len() >= depth && !q.closed {
            q = self.sleep(q);
        }
        if q.closed {
            return;
        }
        queue(&mut q).push_back(item);
        let wake = q.sleepers > 0;
        drop(q);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Picks a worker's next turn: up to [`BATCH_MAX`] decode jobs into
    /// `jobs`, else one generation task, else [`Turn::Exit`] once the
    /// plane is closed, else it sleeps until a push or the close.
    fn next_turn(&self, jobs: &mut Vec<D>) -> Turn<G> {
        let mut q = self.lock();
        while q.decode.is_empty() && q.gen.is_empty() && !q.closed {
            q = self.sleep(q);
        }
        let (turn, was_full) = if !q.decode.is_empty() {
            let was_full = q.decode.len() >= DECODE_QUEUE_DEPTH;
            let n = q.decode.len().min(BATCH_MAX);
            jobs.extend(q.decode.drain(..n));
            (Turn::Decode, was_full)
        } else if let Some(task) = q.gen.pop_front() {
            (Turn::Generate(task), q.gen.len() + 1 >= GEN_QUEUE_DEPTH)
        } else {
            // Closed, and both queues are drained.
            return Turn::Exit;
        };
        // A take from a full queue frees the pushers it holds.
        let wake = was_full && q.sleepers > 0;
        drop(q);
        if wake {
            self.wake.notify_all();
        }
        turn
    }

    /// Closes the plane: pushes are discarded from now on, queued items
    /// still run, and every sleeper wakes.
    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }
}

/// The worker pool plus its run queues.
pub(crate) struct ComputePlane {
    sched: Arc<Scheduler<GenTask, DecodeJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ComputePlane {
    /// Spawns `n_workers` compute threads, `linkd-compute-N`, draining
    /// the run queues.
    pub(crate) fn spawn(
        n_workers: usize,
        shared: Arc<EngineShared>,
        shards: Vec<ShardHandle>,
    ) -> std::io::Result<Self> {
        let sched = Arc::new(Scheduler::new());
        let workers = (0..n_workers)
            .map(|i| {
                let sched = sched.clone();
                let shared = shared.clone();
                let shards = shards.clone();
                spawn_named(format!("linkd-compute-{i}"), move || {
                    worker_loop(&sched, &shared, &shards)
                })
            })
            .collect::<std::io::Result<_>>()?;
        Ok(Self { sched, workers })
    }

    /// Admits a (validated) session into the plane.
    pub(crate) fn submit(&self, run: Arc<SessionRun>) {
        let n_streams = run.tx_cfg.mcs.n_streams;
        self.sched.push_gen(GenTask {
            tx: Transmitter::new(run.tx_cfg.clone()),
            sim: ChannelSim::new(
                ChannelConfig::awgn(n_streams, n_streams, run.cfg.snr_db),
                run.cfg.seed,
            ),
            next: 0,
            run,
        });
    }

    /// Closes the plane and joins every worker.
    pub(crate) fn shutdown(self) {
        self.sched.close();
        for h in self.workers {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    sched: &Scheduler<GenTask, DecodeJob>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    // Per-stream-count receiver + scratch: sessions with the same
    // antenna count share one batch call even across MCS presets.
    let mut rx_by_streams: HashMap<usize, (Receiver, RxWorkspace, RxBatch)> = HashMap::new();
    // Transmit-side burst buffers, shared by every session this worker
    // generates for.
    let mut burst = BurstScratch::default();
    let mut jobs: Vec<DecodeJob> = Vec::with_capacity(BATCH_MAX);
    loop {
        match sched.next_turn(&mut jobs) {
            Turn::Decode => decode_jobs(&mut jobs, &mut rx_by_streams, shared, shards),
            Turn::Generate(task) => generation_turn(task, &mut burst, sched),
            Turn::Exit => return,
        }
    }
}

/// Advances one session by up to [`GEN_WINDOW`] frames: transmit +
/// channel per burst (session-ordered — the channel simulator draws one
/// fading realization per burst from the session seed), one decode job
/// per burst. Unfinished tasks rejoin the queue tail so sessions
/// round-robin.
fn generation_turn(
    mut task: GenTask,
    burst: &mut BurstScratch,
    sched: &Scheduler<GenTask, DecodeJob>,
) {
    let run = &task.run;
    let n_streams = run.tx_cfg.mcs.n_streams;
    let end = (task.next + GEN_WINDOW).min(run.cfg.n_frames);
    while task.next < end {
        let frame = task.next;
        // The only per-burst allocation: the buffers the decode job owns.
        let mut bufs: Vec<Vec<Complex64>> = (0..n_streams)
            .map(|_| Vec::with_capacity(run.burst_len))
            .collect();
        burst::generate(
            &task.tx,
            &mut task.sim,
            std::slice::from_ref(&run.psdus[frame as usize]),
            LEAD_IN,
            LEAD_OUT,
            burst,
            &mut bufs,
        )
        .expect("validated PSDU");
        // Channel tails may extend the stream; clip to the burst so the
        // receiver sees exactly what the flowgraph's chunking delivers.
        for b in &mut bufs {
            b.truncate(run.burst_len);
        }
        sched.push_decode(DecodeJob {
            run: run.clone(),
            frame,
            n_streams,
            bufs,
            timing: burst.timing().filter(|_| run.collector.is_some()),
        });
        task.next += 1;
    }
    if task.next < run.cfg.n_frames {
        sched.push_gen(task);
    }
}

/// Decodes a drained batch of jobs — grouped by antenna count, each
/// group one `receive_batch` call over frames from any session.
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
        let batch_start = Instant::now();
        rx.receive_batch(&captures, ws, batch);
        shared.stats.decode_batches.fetch_add(1, Ordering::Relaxed);
        shared
            .stats
            .decode_batched_frames
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        // The slots decode one after another and their stage spans tile
        // each decode, so slot `i` ended when the spans of slots 0..=i
        // had run.
        let mut decoded_at = batch_start;
        for (i, job) in group.iter().enumerate() {
            let result = batch.result(i);
            decoded_at += Duration::from_nanos(batch.profile(i).total_ns());
            let trace = job.timing.map(|burst| FrameTrace {
                burst,
                profile: batch.profile(i).clone(),
                decoded_at,
                failed: result.err().map(RxStage::of_error),
            });
            let outcome = result.ok().map(|f| (f.snr_db, f.psdu.clone()));
            record_result(job, outcome, trace, shared, shards);
        }
        start = end;
    }
    jobs.clear();
}

/// Lands one frame outcome in its session; the last frame finalizes the
/// session, parks it in the resume store and notifies the owning shard.
fn record_result(
    job: &DecodeJob,
    outcome: FrameOutcome,
    trace: Option<FrameTrace>,
    shared: &EngineShared,
    shards: &[ShardHandle],
) {
    let run = &job.run;
    let frame = job.frame as usize;
    let mut st = run
        .state
        .lock()
        .expect("no worker panics holding a session");
    debug_assert!(st.slots[frame].is_none(), "frame decoded twice");
    st.slots[frame] = Some(outcome);
    if trace.is_some() {
        st.traces[frame] = trace;
    }
    st.done += 1;
    if st.done < run.cfg.n_frames {
        return;
    }
    // Every frame has landed, so no other worker touches the state now.
    // Assemble the reply exactly as `run_session` does: successes in
    // burst order, re-indexed by decode position (the hub message
    // order), each tagged with its burst's trace id when traced.
    let mut decoded = Vec::new();
    for (burst, slot) in st.slots.iter().enumerate() {
        if let Some(Some((snr_db, psdu))) = slot {
            decoded.push(DecodedFrame {
                index: decoded.len() as u32,
                snr_db: *snr_db,
                psdu: psdu.clone(),
                trace: match run.cfg.trace {
                    0 => 0,
                    root => frame_trace_id(root, burst as u32),
                },
            });
        }
    }
    let trace = match &run.collector {
        Some(collector) => {
            record_trace(run, collector, &st.traces, &decoded);
            let events = collector.events();
            grade_slo(&run.cfg, &events, decoded.len(), shared);
            events
        }
        None => Vec::new(),
    };
    drop(st);
    let stats = score_decoded(&run.psdus, &decoded);
    let summary = engine_summary(&run.cfg);
    let updates = telemetry_rounds(decoded.len(), run.cfg.telemetry_every, &summary);
    let session = StoredSession {
        frames: decoded,
        stats_json: serde::json::to_string(&stats.serialize()),
        telemetry_json: serde::json::to_string(&Value::object(summary)),
        trace,
    };
    shared
        .store
        .lock()
        .expect("no thread panics holding the resume store")
        .insert(shared.config.resume_capacity, run.token, session.clone());
    let handle = &shards[run.shard];
    handle
        .completions
        .lock()
        .expect("no thread panics holding a shard's completions")
        .push_back(Completion {
            conn: run.conn,
            token: run.token,
            shed: run.shed,
            session,
            updates,
        });
    handle.waker.wake();
}

/// Records a finished traced session's events in canonical order: frame
/// by frame in lifecycle order, each stamped with the end time its turn
/// measured, then one `TransportEnqueue` per delivered frame in decode
/// order.
fn record_trace(
    run: &SessionRun,
    collector: &TraceCollector,
    traces: &[Option<FrameTrace>],
    decoded: &[DecodedFrame],
) {
    for (frame, t) in traces.iter().enumerate() {
        let t = t.as_ref().expect("every traced frame lands with its trace");
        let frame = frame as u32;
        let id = frame_trace_id(run.cfg.trace, frame);
        collector.record_at(
            id,
            TraceEventKind::TxEncode,
            frame,
            t.burst.transmit_ns(),
            u64::from(run.cfg.payload_len),
            t.burst.transmitted,
        );
        collector.record_at(
            id,
            TraceEventKind::ChannelApply,
            frame,
            t.burst.channel_ns(),
            run.burst_len as u64,
            t.burst.end,
        );
        record_receive(collector, id, frame, &t.profile, t.failed, t.decoded_at);
    }
    for d in decoded {
        collector.record(
            d.trace,
            TraceEventKind::TransportEnqueue,
            d.index,
            0,
            d.psdu.len() as u64,
        );
    }
}

/// Grades a traced session's events against the default link SLO, so a
/// scraper sees breaches without pulling the trace itself.
fn grade_slo(cfg: &SessionConfig, events: &[TraceEvent], delivered: usize, shared: &EngineShared) {
    let delivered = delivered as u64;
    let verdict = SloSpec::link_default().evaluate(
        events,
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

/// The engine's per-session telemetry object, as fields: the wire field
/// is opaque JSON, and the engine has no flowgraph blocks to snapshot,
/// so it reports its own (deterministic) execution shape instead. The
/// final `Telemetry` message carries it as is; each telemetry round
/// carries it behind the round's number and decode count.
fn engine_summary(cfg: &SessionConfig) -> Vec<(&'static str, Value)> {
    vec![
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
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver as Inbox, RecvTimeoutError};
    use std::thread::JoinHandle;

    /// How long a test waits on any one event before calling it lost.
    const WATCHDOG: Duration = Duration::from_secs(10);

    type Plane = Scheduler<u32, u32>;

    /// A turn as a test worker reports it, its decode jobs included.
    #[derive(Debug, PartialEq)]
    enum Took {
        Decode(Vec<u32>),
        Generate(u32),
        Exit,
    }

    fn take(s: &Plane) -> Took {
        let mut jobs = Vec::new();
        match s.next_turn(&mut jobs) {
            Turn::Decode => Took::Decode(jobs),
            Turn::Generate(g) => Took::Generate(g),
            Turn::Exit => Took::Exit,
        }
    }

    fn recv<T>(inbox: &Inbox<T>) -> T {
        match inbox.recv_timeout(WATCHDOG) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => panic!("lost wakeup: nothing within {WATCHDOG:?}"),
            Err(RecvTimeoutError::Disconnected) => panic!("the thread ended early"),
        }
    }

    /// Waits until `n` threads sleep on the plane, so whatever the test
    /// does next is what wakes them.
    fn until_asleep(s: &Plane, n: usize) {
        until(s, |q| q.sleepers == n);
    }

    fn until(s: &Plane, reached: impl Fn(&Queues<u32, u32>) -> bool) {
        let watchdog = Instant::now() + WATCHDOG;
        while !reached(&s.lock()) {
            assert!(Instant::now() < watchdog, "the plane never got there");
            std::thread::yield_now();
        }
    }

    /// A worker that reports every turn it takes until it exits.
    fn worker(s: &Arc<Plane>) -> (Inbox<Took>, JoinHandle<()>) {
        let (tx, inbox) = mpsc::channel();
        let s = s.clone();
        let h = std::thread::spawn(move || loop {
            let took = take(&s);
            let exit = took == Took::Exit;
            tx.send(took).unwrap();
            if exit {
                return;
            }
        });
        (inbox, h)
    }

    #[test]
    fn a_sleeping_worker_wakes_on_a_burst_and_on_a_session() {
        let s = Arc::new(Plane::new());
        let (turns, h) = worker(&s);
        until_asleep(&s, 1);
        s.push_decode(7);
        assert_eq!(recv(&turns), Took::Decode(vec![7]));
        until_asleep(&s, 1);
        s.push_gen(3);
        assert_eq!(recv(&turns), Took::Generate(3));
        until_asleep(&s, 1);
        s.close();
        assert_eq!(recv(&turns), Took::Exit);
        h.join().unwrap();
    }

    #[test]
    fn a_worker_exits_after_close_once_both_queues_drain() {
        let s = Plane::new();
        s.push_gen(1);
        s.push_decode(2);
        s.close();
        // A closed plane discards pushes but runs what it holds.
        s.push_gen(10);
        s.push_decode(20);
        assert_eq!(take(&s), Took::Decode(vec![2]));
        assert_eq!(take(&s), Took::Generate(1));
        assert_eq!(take(&s), Took::Exit);
        assert_eq!(take(&s), Took::Exit);
    }

    #[test]
    fn a_turn_takes_decode_jobs_first_and_at_most_batch_max() {
        let s = Plane::new();
        s.push_gen(100);
        s.push_gen(101);
        let n = 2 * BATCH_MAX as u32 + 3;
        for j in 0..n {
            s.push_decode(j);
        }
        let batch = |r: std::ops::Range<u32>| Took::Decode(r.collect());
        let b = BATCH_MAX as u32;
        assert_eq!(take(&s), batch(0..b));
        assert_eq!(take(&s), batch(b..2 * b));
        assert_eq!(take(&s), batch(2 * b..n));
        assert_eq!(take(&s), Took::Generate(100));
        s.push_decode(n);
        assert_eq!(take(&s), batch(n..n + 1));
        assert_eq!(take(&s), Took::Generate(101));
    }

    #[test]
    fn a_full_decode_queue_holds_its_pusher_until_a_turn_frees_a_slot() {
        let s = Arc::new(Plane::new());
        let depth = DECODE_QUEUE_DEPTH as u32;
        for j in 0..depth {
            s.push_decode(j);
        }
        let (done, pushed) = mpsc::channel();
        let pusher = {
            let s = s.clone();
            std::thread::spawn(move || {
                s.push_decode(depth);
                done.send(()).unwrap();
            })
        };
        until_asleep(&s, 1);
        assert_eq!(
            s.lock().decode.len(),
            DECODE_QUEUE_DEPTH,
            "held, not queued"
        );
        let b = BATCH_MAX as u32;
        assert_eq!(take(&s), Took::Decode((0..b).collect()));
        recv(&pushed);
        pusher.join().unwrap();
        let q = s.lock();
        assert_eq!(q.decode.len(), DECODE_QUEUE_DEPTH - BATCH_MAX + 1);
        assert!(q.decode.iter().copied().eq(b..=depth), "FIFO order kept");
    }

    #[test]
    fn stress_every_item_is_taken_once_and_close_ends_every_worker() {
        const PUSHERS: u32 = 4;
        const PER_PUSHER: u32 = 1_000;
        // A generation turn queues one decode job of its own, as the
        // engine's turns queue their bursts.
        const DERIVED: u32 = 1 << 20;
        // Every third item a pusher queues is a burst, the rest sessions.
        let is_burst = |item: u32| (item % PER_PUSHER).is_multiple_of(3);
        let s = Arc::new(Plane::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (tx, haul) = mpsc::channel();
                let s = s.clone();
                let h = std::thread::spawn(move || {
                    let (mut gens, mut decodes) = (Vec::new(), Vec::new());
                    let mut jobs = Vec::new();
                    loop {
                        match s.next_turn(&mut jobs) {
                            Turn::Decode => decodes.append(&mut jobs),
                            Turn::Generate(g) => {
                                gens.push(g);
                                s.push_decode(g | DERIVED);
                            }
                            Turn::Exit => break,
                        }
                    }
                    tx.send((gens, decodes)).unwrap();
                });
                (haul, h)
            })
            .collect();
        let (done, pushed) = mpsc::channel();
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let s = s.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PUSHER {
                        let item = p * PER_PUSHER + i;
                        if is_burst(item) {
                            s.push_decode(item);
                        } else {
                            s.push_gen(item);
                        }
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..PUSHERS {
            recv(&pushed);
        }
        pushers.into_iter().for_each(|h| h.join().unwrap());
        // Every worker asleep on empty queues: no turn is left to queue
        // a burst that the close would discard. (A woken worker counts
        // as asleep until it retakes the lock, hence the empty check.)
        until(&s, |q| {
            q.sleepers == 3 && q.gen.is_empty() && q.decode.is_empty()
        });
        s.close();
        let (mut gens, mut decodes) = (Vec::new(), Vec::new());
        for (haul, h) in workers {
            let (g, d) = recv(&haul);
            h.join().unwrap();
            gens.extend(g);
            decodes.extend(d);
        }
        gens.sort_unstable();
        decodes.sort_unstable();
        let (mut want_decodes, want_gens): (Vec<u32>, Vec<u32>) =
            (0..PUSHERS * PER_PUSHER).partition(|&i| is_burst(i));
        want_decodes.extend(want_gens.iter().map(|g| g | DERIVED));
        want_decodes.sort_unstable();
        assert_eq!(gens, want_gens, "each session taken exactly once");
        assert_eq!(decodes, want_decodes, "each burst taken exactly once");
    }
}
