//! Flowgraph topology and schedulers.
//!
//! [`Flowgraph`] owns blocks and the directed edges between their stream
//! ports, validates the topology, and runs it to completion with either
//! the deterministic single-threaded scheduler ([`Flowgraph::run`]) or one
//! thread per block connected by bounded channels
//! ([`Flowgraph::run_threaded`]) — the same two execution models GNU Radio
//! offers (single-threaded scheduler vs. thread-per-block).
//!
//! Each output port connects to exactly one input port; use
//! [`crate::block::FanoutBlock`] to duplicate a stream.

// Index-based loops here are the clearer expression of the math
// (matrix/carrier indexing); silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use crate::block::{Block, BlockCtx, BlockError, WorkStatus};
use crate::buffer::{InputBuffer, OutputBuffer};
use crate::message::MessageHub;
use crate::telemetry::{BlockTelemetry, GraphTelemetry};
use std::collections::HashMap;
use std::time::Duration;

/// Identifies a block inside a flowgraph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

/// Topology or execution error.
#[derive(Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Port index out of range for the named block.
    BadPort {
        block: String,
        port: usize,
        is_input: bool,
    },
    /// The port is already connected.
    PortTaken {
        block: String,
        port: usize,
        is_input: bool,
    },
    /// A port was left unconnected at run time.
    Unconnected {
        block: String,
        port: usize,
        is_input: bool,
    },
    /// No block made progress but not all finished — a livelock (usually a
    /// block that never reports `Done`).
    Deadlock { stuck: Vec<String> },
    /// A block thread panicked in the threaded scheduler. `payload` is the
    /// captured panic message (or a placeholder for non-string payloads).
    BlockPanicked { block: String, payload: String },
    /// A block reported a typed [`BlockError`] from `work`.
    BlockFailed { block: String, error: BlockError },
    /// The supervisor's watchdog saw no progress from this block for
    /// longer than the stall timeout while the graph was still unfinished.
    BlockStalled { block: String, idle: Duration },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadPort {
                block,
                port,
                is_input,
            } => write!(
                f,
                "{} port {port} out of range on block '{block}'",
                if *is_input { "input" } else { "output" }
            ),
            GraphError::PortTaken {
                block,
                port,
                is_input,
            } => write!(
                f,
                "{} port {port} on block '{block}' already connected",
                if *is_input { "input" } else { "output" }
            ),
            GraphError::Unconnected {
                block,
                port,
                is_input,
            } => write!(
                f,
                "{} port {port} on block '{block}' is not connected",
                if *is_input { "input" } else { "output" }
            ),
            GraphError::Deadlock { stuck } => {
                write!(
                    f,
                    "flowgraph deadlocked; stuck blocks: {}",
                    stuck.join(", ")
                )
            }
            GraphError::BlockPanicked { block, payload } => {
                write!(f, "block '{block}' panicked: {payload}")
            }
            GraphError::BlockFailed { block, error } => {
                write!(f, "block '{block}' failed: {error}")
            }
            GraphError::BlockStalled { block, idle } => {
                write!(
                    f,
                    "block '{block}' stalled: no progress for {:.3} s",
                    idle.as_secs_f64()
                )
            }
        }
    }
}

/// Supervision knobs for [`Flowgraph::run_threaded_with`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// A non-finished block with no healthy activity for this long is
    /// reported as [`GraphError::BlockStalled`] and the graph cancelled.
    pub stall_timeout: Duration,
    /// How often the supervisor wakes to run the watchdog when no worker
    /// outcome is arriving.
    pub poll_interval: Duration,
    /// After cancellation, how long to wait for workers to acknowledge
    /// before detaching their threads (a thread wedged *inside* one `work`
    /// call cannot be interrupted; it is abandoned so the caller returns).
    pub join_grace: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            stall_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(5),
            join_grace: Duration::from_millis(200),
        }
    }
}

impl std::error::Error for GraphError {}

/// Extracts a human-readable message from a `catch_unwind`/`join` payload.
/// `panic!("...")` and `panic!(String)` cover essentially every panic in
/// practice; anything else gets a placeholder rather than being dropped.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

struct Entry {
    block: Box<dyn Block>,
    name: String,
    n_in: usize,
    n_out: usize,
}

/// A directed flowgraph of blocks.
#[derive(Default)]
pub struct Flowgraph {
    blocks: Vec<Entry>,
    /// (src, src_port) → (dst, dst_port)
    edges: HashMap<(usize, usize), (usize, usize)>,
    /// (dst, dst_port) → (src, src_port)
    redges: HashMap<(usize, usize), (usize, usize)>,
    /// Telemetry registry both schedulers record into, when instrumented.
    telemetry: Option<std::sync::Arc<GraphTelemetry>>,
}

impl Flowgraph {
    /// Creates an empty flowgraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block, returning its id.
    pub fn add(&mut self, block: impl Block + 'static) -> BlockId {
        let name = block.name().to_string();
        let n_in = block.num_inputs();
        let n_out = block.num_outputs();
        self.blocks.push(Entry {
            block: Box::new(block),
            name,
            n_in,
            n_out,
        });
        BlockId(self.blocks.len() - 1)
    }

    /// Connects `src`'s output `src_port` to `dst`'s input `dst_port`.
    pub fn connect(
        &mut self,
        src: BlockId,
        src_port: usize,
        dst: BlockId,
        dst_port: usize,
    ) -> Result<(), GraphError> {
        let se = &self.blocks[src.0];
        if src_port >= se.n_out {
            return Err(GraphError::BadPort {
                block: se.name.clone(),
                port: src_port,
                is_input: false,
            });
        }
        let de = &self.blocks[dst.0];
        if dst_port >= de.n_in {
            return Err(GraphError::BadPort {
                block: de.name.clone(),
                port: dst_port,
                is_input: true,
            });
        }
        if self.edges.contains_key(&(src.0, src_port)) {
            return Err(GraphError::PortTaken {
                block: self.blocks[src.0].name.clone(),
                port: src_port,
                is_input: false,
            });
        }
        if self.redges.contains_key(&(dst.0, dst_port)) {
            return Err(GraphError::PortTaken {
                block: self.blocks[dst.0].name.clone(),
                port: dst_port,
                is_input: true,
            });
        }
        self.edges.insert((src.0, src_port), (dst.0, dst_port));
        self.redges.insert((dst.0, dst_port), (src.0, src_port));
        Ok(())
    }

    /// Attaches a telemetry registry (one [`BlockTelemetry`] per block
    /// already added, in block order) and returns a handle to it. Both
    /// schedulers record into the registry from then on; snapshot it any
    /// time — including after the graph finished — via
    /// [`GraphTelemetry::snapshot`]. Call after the last [`Flowgraph::add`];
    /// blocks added later run uninstrumented.
    pub fn instrument(&mut self) -> std::sync::Arc<GraphTelemetry> {
        let tel = std::sync::Arc::new(GraphTelemetry::new(
            self.blocks.iter().map(|e| (e.name.clone(), e.n_in)),
        ));
        for (entry, slot) in self.blocks.iter_mut().zip(&tel.blocks) {
            entry.block.attach_telemetry(slot);
        }
        self.telemetry = Some(tel.clone());
        tel
    }

    fn validate(&self) -> Result<(), GraphError> {
        for (i, e) in self.blocks.iter().enumerate() {
            for p in 0..e.n_out {
                if !self.edges.contains_key(&(i, p)) {
                    return Err(GraphError::Unconnected {
                        block: e.name.clone(),
                        port: p,
                        is_input: false,
                    });
                }
            }
            for p in 0..e.n_in {
                if !self.redges.contains_key(&(i, p)) {
                    return Err(GraphError::Unconnected {
                        block: e.name.clone(),
                        port: p,
                        is_input: true,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs single-threaded until every block reports `Done`. Deterministic
    /// and easiest to debug; the default for tests and experiments.
    pub fn run(&mut self, hub: &MessageHub) -> Result<(), GraphError> {
        self.validate()?;
        let n = self.blocks.len();
        let mut inputs: Vec<Vec<InputBuffer>> = self
            .blocks
            .iter()
            .map(|e| (0..e.n_in).map(|_| InputBuffer::new()).collect())
            .collect();
        let mut outputs: Vec<Vec<OutputBuffer>> = self
            .blocks
            .iter()
            .map(|e| (0..e.n_out).map(|_| OutputBuffer::new()).collect())
            .collect();
        let mut done = vec![false; n];

        loop {
            let mut progress = false;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let tel: Option<&BlockTelemetry> = self.telemetry.as_ref().map(|t| &*t.blocks[i]);
                let status = {
                    let mut ctx = BlockCtx { msgs: hub };
                    // Split-borrow: take this block's buffers out briefly.
                    let mut my_inputs = std::mem::take(&mut inputs[i]);
                    let mut my_outputs = std::mem::take(&mut outputs[i]);
                    let in_before: usize = my_inputs.iter().map(|b| b.available()).sum();
                    if let Some(t) = tel {
                        for (g, b) in t.input_highwater.iter().zip(&my_inputs) {
                            g.record(b.available() as u64);
                        }
                    }
                    let t0 = tel.map(|_| std::time::Instant::now());
                    let st = self.blocks[i]
                        .block
                        .work(&mut my_inputs, &mut my_outputs, &mut ctx);
                    if let (Some(t), Some(t0)) = (tel, t0) {
                        let ns = t0.elapsed().as_nanos() as u64;
                        t.work_calls.incr();
                        t.work_ns.add(ns);
                        t.work_ns_hist.record(ns);
                        let in_after: usize = my_inputs.iter().map(|b| b.available()).sum();
                        t.items_in.add((in_before - in_after) as u64);
                        t.items_out
                            .add(my_outputs.iter().map(|o| o.pending() as u64).sum());
                        if matches!(st, WorkStatus::Blocked) {
                            t.blocked_calls.incr();
                        }
                    }
                    inputs[i] = my_inputs;
                    outputs[i] = my_outputs;
                    st
                };
                // Ship produced items downstream.
                for p in 0..self.blocks[i].n_out {
                    let (items, tags) = outputs[i][p].drain();
                    if items.is_empty() && tags.is_empty() {
                        continue;
                    }
                    let &(di, dp) = self.edges.get(&(i, p)).expect("validated");
                    inputs[di][dp].push_items(items);
                    for t in tags {
                        inputs[di][dp].push_tag(t);
                    }
                }
                match status {
                    WorkStatus::Progress => progress = true,
                    WorkStatus::Blocked => {}
                    WorkStatus::Done => {
                        done[i] = true;
                        progress = true;
                        for p in 0..self.blocks[i].n_out {
                            let &(di, dp) = self.edges.get(&(i, p)).expect("validated");
                            inputs[di][dp].upstream_done = true;
                        }
                    }
                    WorkStatus::Error(error) => {
                        return Err(GraphError::BlockFailed {
                            block: self.blocks[i].name.clone(),
                            error,
                        });
                    }
                }
            }
            if done.iter().all(|&d| d) {
                return Ok(());
            }
            if !progress {
                let stuck = self
                    .blocks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !done[*i])
                    .map(|(_, e)| e.name.clone())
                    .collect();
                return Err(GraphError::Deadlock { stuck });
            }
        }
    }

    /// Runs one thread per block, edges as bounded channels (the
    /// thread-per-block model), under the default [`SupervisorConfig`].
    /// Results are identical to [`Flowgraph::run`] for well-behaved
    /// blocks; ordering of message-hub publications may differ.
    pub fn run_threaded(self, hub: std::sync::Arc<MessageHub>) -> Result<(), GraphError> {
        self.run_threaded_with(hub, SupervisorConfig::default())
    }

    /// Threaded scheduler with explicit supervision: every block body runs
    /// under `catch_unwind`, a panic or [`WorkStatus::Error`] cancels the
    /// remaining threads promptly, and a watchdog converts a block that
    /// stops making progress into [`GraphError::BlockStalled`] instead of
    /// hanging the caller. The call always terminates — a thread wedged
    /// inside a single `work` invocation is detached after `join_grace`.
    pub fn run_threaded_with(
        self,
        hub: std::sync::Arc<MessageHub>,
        sup: SupervisorConfig,
    ) -> Result<(), GraphError> {
        self.validate()?;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::mpsc::{
            channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError,
            TrySendError,
        };
        use std::sync::Arc;
        use std::time::Instant;
        type Chunk = (Vec<crate::buffer::Item>, Vec<crate::buffer::Tag>);

        /// How a worker thread ended, reported to the supervisor.
        enum Outcome {
            /// The block reported `Done` (or was a starved source).
            Finished,
            /// The worker saw the cancel flag and bailed out.
            Cancelled,
            /// The block returned `WorkStatus::Error`.
            Failed(BlockError),
            /// `work` panicked; the payload was captured.
            Panicked(String),
        }

        let n = self.blocks.len();
        if n == 0 {
            return Ok(());
        }
        let telemetry = self.telemetry.clone();
        // Build channels per edge.
        let mut senders: Vec<Vec<Option<SyncSender<Chunk>>>> = self
            .blocks
            .iter()
            .map(|e| (0..e.n_out).map(|_| None).collect())
            .collect();
        let mut receivers: Vec<Vec<Option<Receiver<Chunk>>>> = self
            .blocks
            .iter()
            .map(|e| (0..e.n_in).map(|_| None).collect())
            .collect();
        for (&(si, sp), &(di, dp)) in &self.edges {
            let (tx, rx) = sync_channel::<Chunk>(64);
            senders[si][sp] = Some(tx);
            receivers[di][dp] = Some(rx);
        }

        let start = Instant::now();
        let cancel = Arc::new(AtomicBool::new(false));
        // Per-block "last healthy activity" timestamp, in ms since `start`.
        let heartbeats: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let (report_tx, report_rx) = channel::<(usize, Outcome)>();

        let mut handles: Vec<Option<std::thread::JoinHandle<()>>> = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        for (i, entry) in self.blocks.into_iter().enumerate() {
            let mut block = entry.block;
            names.push(entry.name.clone());
            let my_senders: Vec<SyncSender<Chunk>> = senders[i]
                .iter_mut()
                .map(|s| s.take().expect("validated"))
                .collect();
            let my_receivers: Vec<Receiver<Chunk>> = receivers[i]
                .iter_mut()
                .map(|r| r.take().expect("validated"))
                .collect();
            let hub = hub.clone();
            let n_in = entry.n_in;
            let n_out = entry.n_out;
            let cancel = cancel.clone();
            let heartbeats = heartbeats.clone();
            let report = report_tx.clone();
            let tel: Option<Arc<BlockTelemetry>> = telemetry.as_ref().map(|t| t.blocks[i].clone());
            handles.push(Some(std::thread::spawn(move || {
                let mut inputs: Vec<InputBuffer> = (0..n_in).map(|_| InputBuffer::new()).collect();
                let mut outputs: Vec<OutputBuffer> =
                    (0..n_out).map(|_| OutputBuffer::new()).collect();
                let beat = |hb: &AtomicU64| {
                    hb.store(start.elapsed().as_millis() as u64, Ordering::Relaxed)
                };
                let outcome = 'life: loop {
                    if cancel.load(Ordering::Relaxed) {
                        break 'life Outcome::Cancelled;
                    }
                    // Drain whatever has arrived.
                    for (buf, rx) in inputs.iter_mut().zip(&my_receivers) {
                        loop {
                            match rx.try_recv() {
                                Ok((items, tags)) => {
                                    buf.push_items(items);
                                    for t in tags {
                                        buf.push_tag(t);
                                    }
                                }
                                Err(TryRecvError::Empty) => break,
                                Err(TryRecvError::Disconnected) => {
                                    buf.upstream_done = true;
                                    break;
                                }
                            }
                        }
                    }
                    let in_before: usize = inputs.iter().map(|b| b.available()).sum();
                    if let Some(t) = &tel {
                        // Queue occupancy seen by this work call — the
                        // per-edge backpressure high-water mark.
                        for (g, b) in t.input_highwater.iter().zip(&inputs) {
                            g.record(b.available() as u64);
                        }
                    }
                    let work_t0 = tel.as_ref().map(|_| Instant::now());
                    let status = {
                        let mut ctx = BlockCtx { msgs: &hub };
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            block.work(&mut inputs, &mut outputs, &mut ctx)
                        })) {
                            Ok(status) => status,
                            Err(payload) => {
                                break 'life Outcome::Panicked(panic_message(&*payload))
                            }
                        }
                    };
                    let produced: usize = outputs.iter().map(|o| o.pending()).sum();
                    let in_after: usize = inputs.iter().map(|b| b.available()).sum();
                    let consumed = in_after < in_before;
                    if let (Some(t), Some(t0)) = (&tel, work_t0) {
                        let ns = t0.elapsed().as_nanos() as u64;
                        t.work_calls.incr();
                        t.work_ns.add(ns);
                        t.work_ns_hist.record(ns);
                        t.items_in.add((in_before - in_after) as u64);
                        t.items_out.add(produced as u64);
                        if matches!(status, WorkStatus::Blocked) {
                            t.blocked_calls.incr();
                        }
                    }
                    // Ship outputs, keeping backpressure waits cancellable.
                    for (out, tx) in outputs.iter_mut().zip(&my_senders) {
                        let (items, tags) = out.drain();
                        if items.is_empty() && tags.is_empty() {
                            continue;
                        }
                        let mut chunk = (items, tags);
                        loop {
                            match tx.try_send(chunk) {
                                Ok(()) => break,
                                Err(TrySendError::Full(c)) => {
                                    if cancel.load(Ordering::Relaxed) {
                                        break 'life Outcome::Cancelled;
                                    }
                                    chunk = c;
                                    let t0 = tel.as_ref().map(|t| {
                                        t.backpressure_events.incr();
                                        Instant::now()
                                    });
                                    std::thread::sleep(Duration::from_micros(200));
                                    if let (Some(t), Some(t0)) = (&tel, t0) {
                                        t.blocked_output_ns.add(t0.elapsed().as_nanos() as u64);
                                    }
                                }
                                Err(TrySendError::Disconnected(c)) => {
                                    // Downstream gone; drop this port's data
                                    // (visible as queue_drops, not silent).
                                    if let Some(t) = &tel {
                                        t.queue_drops.add(c.0.len() as u64);
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    match status {
                        WorkStatus::Done => {
                            beat(&heartbeats[i]);
                            break 'life Outcome::Finished;
                        }
                        WorkStatus::Error(e) => break 'life Outcome::Failed(e),
                        WorkStatus::Progress => {
                            // Progress without consuming or producing is a
                            // busy-loop the watchdog should see through, so
                            // only real activity refreshes the heartbeat.
                            if consumed || produced > 0 {
                                beat(&heartbeats[i]);
                            }
                        }
                        WorkStatus::Blocked => {
                            if my_receivers.is_empty() {
                                // A blocked source can never be unblocked.
                                beat(&heartbeats[i]);
                                break 'life Outcome::Finished;
                            }
                            // Healthy only while some open upstream could
                            // still deliver the missing input; Blocked with
                            // data on every port, or after all upstreams
                            // finished, ages toward the stall timeout.
                            if inputs
                                .iter()
                                .any(|b| b.available() == 0 && !b.is_finished())
                            {
                                beat(&heartbeats[i]);
                            }
                            let t0 = tel.as_ref().map(|_| Instant::now());
                            match my_receivers[0].recv_timeout(Duration::from_millis(1)) {
                                Ok((items, tags)) => {
                                    inputs[0].push_items(items);
                                    for t in tags {
                                        inputs[0].push_tag(t);
                                    }
                                }
                                Err(RecvTimeoutError::Timeout) => {}
                                Err(RecvTimeoutError::Disconnected) => {
                                    inputs[0].upstream_done = true;
                                }
                            }
                            if let (Some(t), Some(t0)) = (&tel, t0) {
                                t.blocked_input_ns.add(t0.elapsed().as_nanos() as u64);
                            }
                        }
                    }
                };
                let _ = report.send((i, outcome));
                // Dropping senders signals downstream completion.
            })));
        }
        drop(report_tx);

        // Supervisor: collect outcomes, run the watchdog, cancel and
        // detach as needed. Never blocks indefinitely.
        let mut first_error: Option<GraphError> = None;
        let mut finished = vec![false; n];
        let mut outcomes = 0usize;
        let mut cancelled_at: Option<Instant> = None;
        let fail = |err: GraphError,
                    first_error: &mut Option<GraphError>,
                    cancelled_at: &mut Option<Instant>| {
            if first_error.is_none() {
                *first_error = Some(err);
            }
            cancel.store(true, Ordering::Relaxed);
            cancelled_at.get_or_insert_with(Instant::now);
        };
        while outcomes < n {
            match report_rx.recv_timeout(sup.poll_interval) {
                Ok((i, outcome)) => {
                    outcomes += 1;
                    finished[i] = true;
                    if let Some(h) = handles[i].take() {
                        let _ = h.join();
                    }
                    match outcome {
                        Outcome::Finished | Outcome::Cancelled => {}
                        Outcome::Failed(error) => fail(
                            GraphError::BlockFailed {
                                block: names[i].clone(),
                                error,
                            },
                            &mut first_error,
                            &mut cancelled_at,
                        ),
                        Outcome::Panicked(payload) => fail(
                            GraphError::BlockPanicked {
                                block: names[i].clone(),
                                payload,
                            },
                            &mut first_error,
                            &mut cancelled_at,
                        ),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(t) = cancelled_at {
                        if t.elapsed() > sup.join_grace {
                            // Stragglers are wedged inside `work`; detach
                            // them so the caller gets its typed error.
                            break;
                        }
                        continue;
                    }
                    // Watchdog: blame the stalest unfinished block.
                    let now_ms = start.elapsed().as_millis() as u64;
                    let stalest = (0..n)
                        .filter(|&i| !finished[i])
                        .map(|i| {
                            let hb = heartbeats[i].load(Ordering::Relaxed);
                            (now_ms.saturating_sub(hb), i)
                        })
                        .max();
                    if let Some((idle_ms, i)) = stalest {
                        if Duration::from_millis(idle_ms) >= sup.stall_timeout {
                            fail(
                                GraphError::BlockStalled {
                                    block: names[i].clone(),
                                    idle: Duration::from_millis(idle_ms),
                                },
                                &mut first_error,
                                &mut cancelled_at,
                            );
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if cancelled_at.is_none() {
            // Clean finish (or a worker died without reporting): join the
            // rest; a join error here means our own scheduler code
            // panicked inside a worker thread.
            for (h, name) in handles.iter_mut().zip(&names) {
                if let Some(h) = h.take() {
                    if let Err(payload) = h.join() {
                        if first_error.is_none() {
                            first_error = Some(GraphError::BlockPanicked {
                                block: name.clone(),
                                payload: panic_message(&*payload),
                            });
                        }
                    }
                }
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{ChunkBlock, FanoutBlock, MapBlock, VectorSink, VectorSource, ZipBlock};
    use crate::buffer::Item;

    #[test]
    fn linear_pipeline_runs() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new((0..100u8).map(Item::Byte).collect()).with_chunk(7));
        let map = fg.add(MapBlock::new("double", |i| {
            Item::Byte(i.byte().wrapping_mul(2))
        }));
        let (sink, handle) = VectorSink::new();
        let sink = fg.add(sink);
        fg.connect(src, 0, map, 0).unwrap();
        fg.connect(map, 0, sink, 0).unwrap();
        fg.run(&MessageHub::new()).unwrap();
        let want: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(2)).collect();
        assert_eq!(handle.bytes(), want);
    }

    #[test]
    fn rate_changing_pipeline() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new((0..64u8).map(Item::Byte).collect()).with_chunk(5));
        // 8:1 decimator summing chunks (wrapping — bytes overflow past 255).
        let dec = fg.add(ChunkBlock::new("sum8", 8, |c| {
            vec![Item::Byte(
                c.iter().fold(0u8, |a, i| a.wrapping_add(i.byte())),
            )]
        }));
        let (sink, handle) = VectorSink::new();
        let sink = fg.add(sink);
        fg.connect(src, 0, dec, 0).unwrap();
        fg.connect(dec, 0, sink, 0).unwrap();
        fg.run(&MessageHub::new()).unwrap();
        assert_eq!(handle.len(), 8);
        assert_eq!(handle.bytes()[0], (0..8u8).sum::<u8>());
    }

    #[test]
    fn fanout_and_zip_topology() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new((1..=10u8).map(Item::Byte).collect()));
        let fan = fg.add(FanoutBlock::new(2));
        let inc = fg.add(MapBlock::new("inc", |i| Item::Byte(i.byte() + 1)));
        let dec = fg.add(MapBlock::new("dec", |i| Item::Byte(i.byte() - 1)));
        let zip = fg.add(ZipBlock::new(2));
        let (sink, handle) = VectorSink::new();
        let sink = fg.add(sink);
        fg.connect(src, 0, fan, 0).unwrap();
        fg.connect(fan, 0, inc, 0).unwrap();
        fg.connect(fan, 1, dec, 0).unwrap();
        fg.connect(inc, 0, zip, 0).unwrap();
        fg.connect(dec, 0, zip, 1).unwrap();
        fg.connect(zip, 0, sink, 0).unwrap();
        fg.run(&MessageHub::new()).unwrap();
        let got = handle.bytes();
        assert_eq!(got.len(), 20);
        assert_eq!(&got[..4], &[2, 0, 3, 1]);
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let build = || {
            let mut fg = Flowgraph::new();
            let src = fg.add(
                VectorSource::new((0..500u32).map(|i| Item::Real(i as f64)).collect())
                    .with_chunk(13),
            );
            let sq = fg.add(MapBlock::new("square", |i| {
                let v = i.real();
                Item::Real(v * v)
            }));
            let (sink, handle) = VectorSink::new();
            let sink = fg.add(sink);
            fg.connect(src, 0, sq, 0).unwrap();
            fg.connect(sq, 0, sink, 0).unwrap();
            (fg, handle)
        };
        let (mut fg1, h1) = build();
        fg1.run(&MessageHub::new()).unwrap();
        let (fg2, h2) = build();
        fg2.run_threaded(std::sync::Arc::new(MessageHub::new()))
            .unwrap();
        assert_eq!(h1.reals(), h2.reals());
    }

    #[test]
    fn unconnected_port_detected() {
        let mut fg = Flowgraph::new();
        let _src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let err = fg.run(&MessageHub::new()).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::Unconnected {
                    is_input: false,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn double_connect_rejected() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let (s1, _h1) = VectorSink::new();
        let (s2, _h2) = VectorSink::new();
        let a = fg.add(s1);
        let b = fg.add(s2);
        fg.connect(src, 0, a, 0).unwrap();
        assert!(matches!(
            fg.connect(src, 0, b, 0),
            Err(GraphError::PortTaken {
                is_input: false,
                ..
            })
        ));
    }

    #[test]
    fn bad_port_rejected() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![]));
        let (sink, _h) = VectorSink::new();
        let sink = fg.add(sink);
        assert!(matches!(
            fg.connect(src, 1, sink, 0),
            Err(GraphError::BadPort {
                is_input: false,
                ..
            })
        ));
        assert!(matches!(
            fg.connect(src, 0, sink, 3),
            Err(GraphError::BadPort { is_input: true, .. })
        ));
    }

    #[test]
    fn deadlock_detected() {
        /// A pathological block that always claims Blocked.
        struct Stuck;
        impl crate::block::Block for Stuck {
            fn name(&self) -> &str {
                "stuck"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                0
            }
            fn work(
                &mut self,
                _i: &mut [InputBuffer],
                _o: &mut [OutputBuffer],
                _c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                WorkStatus::Blocked
            }
        }
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let stuck = fg.add(Stuck);
        fg.connect(src, 0, stuck, 0).unwrap();
        let err = fg.run(&MessageHub::new()).unwrap_err();
        assert!(matches!(err, GraphError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn threaded_scheduler_reports_block_panics() {
        struct Bomb;
        impl crate::block::Block for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                0
            }
            fn work(
                &mut self,
                i: &mut [InputBuffer],
                _o: &mut [OutputBuffer],
                _c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                if i[0].available() > 0 {
                    panic!("boom");
                }
                if i[0].is_finished() {
                    WorkStatus::Done
                } else {
                    WorkStatus::Blocked
                }
            }
        }
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![crate::buffer::Item::Byte(1)]));
        let bomb = fg.add(Bomb);
        fg.connect(src, 0, bomb, 0).unwrap();
        let err = fg
            .run_threaded(std::sync::Arc::new(MessageHub::new()))
            .unwrap_err();
        match err {
            GraphError::BlockPanicked { block, payload } => {
                assert_eq!(block, "bomb");
                assert!(payload.contains("boom"), "payload was {payload:?}");
            }
            other => panic!("unexpected {other}"),
        }
    }

    /// Sink that fails with a typed error on the first delivered item.
    struct Failing;
    impl crate::block::Block for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            0
        }
        fn work(
            &mut self,
            i: &mut [InputBuffer],
            _o: &mut [OutputBuffer],
            _c: &mut BlockCtx<'_>,
        ) -> WorkStatus {
            if i[0].available() > 0 {
                return WorkStatus::Error(crate::block::BlockError::new(
                    "decode",
                    "checksum mismatch",
                ));
            }
            if i[0].is_finished() {
                WorkStatus::Done
            } else {
                WorkStatus::Blocked
            }
        }
    }

    #[test]
    fn single_threaded_scheduler_surfaces_typed_errors() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let bad = fg.add(Failing);
        fg.connect(src, 0, bad, 0).unwrap();
        let err = fg.run(&MessageHub::new()).unwrap_err();
        match err {
            GraphError::BlockFailed { block, error } => {
                assert_eq!(block, "failing");
                assert_eq!(error.kind, "decode");
                assert!(error.to_string().contains("checksum mismatch"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn threaded_scheduler_surfaces_typed_errors() {
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let bad = fg.add(Failing);
        fg.connect(src, 0, bad, 0).unwrap();
        let err = fg
            .run_threaded(std::sync::Arc::new(MessageHub::new()))
            .unwrap_err();
        match err {
            GraphError::BlockFailed { block, error } => {
                assert_eq!(block, "failing");
                assert_eq!(error.kind, "decode");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn watchdog_converts_livelock_into_block_stalled() {
        /// Claims Progress forever without consuming anything: the classic
        /// livelock the single-threaded scheduler cannot distinguish from
        /// useful work and the old threaded scheduler span on forever.
        struct Spinner;
        impl crate::block::Block for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                0
            }
            fn work(
                &mut self,
                _i: &mut [InputBuffer],
                _o: &mut [OutputBuffer],
                _c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                std::thread::sleep(Duration::from_millis(1));
                WorkStatus::Progress
            }
        }
        let mut fg = Flowgraph::new();
        let src = fg.add(VectorSource::new(vec![Item::Byte(1)]));
        let spin = fg.add(Spinner);
        fg.connect(src, 0, spin, 0).unwrap();
        let sup = SupervisorConfig {
            stall_timeout: Duration::from_millis(100),
            ..SupervisorConfig::default()
        };
        let start = std::time::Instant::now();
        let err = fg
            .run_threaded_with(std::sync::Arc::new(MessageHub::new()), sup)
            .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "scheduler failed to terminate promptly"
        );
        match err {
            GraphError::BlockStalled { block, idle } => {
                assert_eq!(block, "spinner");
                assert!(idle >= Duration::from_millis(100));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let mut fg = Flowgraph::new();
        assert!(fg.is_empty());
        fg.run(&MessageHub::new()).unwrap();
        assert_eq!(fg.len(), 0);
    }

    #[test]
    fn tags_travel_with_items() {
        use crate::buffer::{Tag, TagValue};
        /// Source that tags item 3.
        struct TaggingSource {
            sent: bool,
        }
        impl crate::block::Block for TaggingSource {
            fn name(&self) -> &str {
                "tagging_source"
            }
            fn num_inputs(&self) -> usize {
                0
            }
            fn num_outputs(&self) -> usize {
                1
            }
            fn work(
                &mut self,
                _i: &mut [InputBuffer],
                o: &mut [OutputBuffer],
                _c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                if self.sent {
                    return WorkStatus::Done;
                }
                for k in 0..8u8 {
                    if k == 3 {
                        o[0].add_tag(o[0].offset(), "frame_start", TagValue::U64(99));
                    }
                    o[0].push(Item::Byte(k));
                }
                self.sent = true;
                WorkStatus::Progress
            }
        }
        /// Sink that records tag positions.
        struct TagSink {
            seen: std::sync::Arc<std::sync::Mutex<Vec<Tag>>>,
        }
        impl crate::block::Block for TagSink {
            fn name(&self) -> &str {
                "tag_sink"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn num_outputs(&self) -> usize {
                0
            }
            fn work(
                &mut self,
                i: &mut [InputBuffer],
                _o: &mut [OutputBuffer],
                _c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                let n = i[0].available();
                if n == 0 {
                    return if i[0].is_finished() {
                        WorkStatus::Done
                    } else {
                        WorkStatus::Blocked
                    };
                }
                let tags: Vec<Tag> = i[0].tags_in_window(n).into_iter().cloned().collect();
                self.seen.lock().unwrap().extend(tags);
                i[0].take(n);
                WorkStatus::Progress
            }
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut fg = Flowgraph::new();
        let src = fg.add(TaggingSource { sent: false });
        let sink = fg.add(TagSink { seen: seen.clone() });
        fg.connect(src, 0, sink, 0).unwrap();
        fg.run(&MessageHub::new()).unwrap();
        let tags = seen.lock().unwrap();
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].offset, 3);
        assert_eq!(tags[0].key, "frame_start");
    }

    #[test]
    fn messages_published_during_run_are_received() {
        struct Publisher {
            done: bool,
        }
        impl crate::block::Block for Publisher {
            fn name(&self) -> &str {
                "publisher"
            }
            fn num_inputs(&self) -> usize {
                0
            }
            fn num_outputs(&self) -> usize {
                1
            }
            fn work(
                &mut self,
                _i: &mut [InputBuffer],
                o: &mut [OutputBuffer],
                c: &mut BlockCtx<'_>,
            ) -> WorkStatus {
                if self.done {
                    return WorkStatus::Done;
                }
                c.msgs.publish("snr", crate::message::Message::F64(17.0));
                o[0].push(Item::Byte(0));
                self.done = true;
                WorkStatus::Progress
            }
        }
        let mut fg = Flowgraph::new();
        let p = fg.add(Publisher { done: false });
        let (sink, _h) = VectorSink::new();
        let sink = fg.add(sink);
        fg.connect(p, 0, sink, 0).unwrap();
        let hub = MessageHub::new();
        let sub = hub.subscribe("snr");
        fg.run(&hub).unwrap();
        assert_eq!(sub.drain(), vec![crate::message::Message::F64(17.0)]);
    }
}
