//! The block trait and a library of general-purpose blocks.
//!
//! A block mirrors GNU Radio's `general_work`: the scheduler hands it its
//! input buffers and output buffers; the block consumes what it wants,
//! produces what it can, and reports whether it made progress. Rate
//! changes, buffering and multi-port blocks all fall out naturally.

use crate::buffer::{convert, InputBuffer, Item, OutputBuffer};
use crate::message::MessageHub;

/// A typed, recoverable block failure — the alternative to panicking.
///
/// A block that hits an unprocessable condition (malformed header,
/// numerically singular matrix, resource exhaustion) returns
/// [`WorkStatus::Error`] carrying one of these; the scheduler stops the
/// graph and surfaces it as `GraphError::BlockFailed` with the block's
/// name attached, so the failure is diagnosable without a backtrace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockError {
    /// Short machine-matchable failure class, e.g. `"bad-header"`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl BlockError {
    /// Creates an error with a failure class and detail message.
    pub fn new(kind: impl Into<String>, detail: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for BlockError {}

/// What a `work` call accomplished.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkStatus {
    /// Consumed and/or produced something; call again.
    Progress,
    /// Cannot proceed until more input arrives.
    Blocked,
    /// This block will never produce again (source exhausted, or all
    /// upstreams finished and residual input processed).
    Done,
    /// The block failed in a typed, recoverable way; the scheduler stops
    /// the graph and reports `GraphError::BlockFailed`.
    Error(BlockError),
}

/// Context handed to `work` alongside the stream buffers.
pub struct BlockCtx<'a> {
    /// Publish/subscribe message hub shared by the flowgraph (out-of-band
    /// control, decoded-frame announcements, ...).
    pub msgs: &'a MessageHub,
}

/// A signal-processing block.
pub trait Block: Send {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;
    /// Number of input stream ports.
    fn num_inputs(&self) -> usize;
    /// Number of output stream ports.
    fn num_outputs(&self) -> usize;
    /// Processes available input into output.
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus;
    /// Hands the block its telemetry slot when the flowgraph is
    /// instrumented, so blocks with internal machinery (bounded network
    /// queues, reader threads) can surface their own counters — e.g.
    /// overflow drops into `BlockTelemetry::queue_drops`. The default
    /// implementation ignores it; the schedulers record the generic
    /// counters regardless.
    fn attach_telemetry(&mut self, tel: &std::sync::Arc<crate::telemetry::BlockTelemetry>) {
        let _ = tel;
    }
}

/// Emits a fixed item vector once, then finishes.
pub struct VectorSource {
    name: String,
    items: Vec<Item>,
    pos: usize,
    /// Max items emitted per work call (exercises chunked scheduling).
    chunk: usize,
}

impl VectorSource {
    /// Creates a source over `items`.
    pub fn new(items: Vec<Item>) -> Self {
        Self {
            name: "vector_source".into(),
            items,
            pos: 0,
            chunk: 4096,
        }
    }

    /// Creates a source of complex samples.
    pub fn from_complex(xs: &[mimonet_dsp::complex::Complex64]) -> Self {
        Self::new(convert::from_complex(xs))
    }

    /// Creates a source of bytes.
    pub fn from_bytes(bs: &[u8]) -> Self {
        Self::new(convert::from_bytes(bs))
    }

    /// Overrides the per-call chunk size (testing aid).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0);
        self.chunk = chunk;
        self
    }
}

impl Block for VectorSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn work(
        &mut self,
        _inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        if self.pos >= self.items.len() {
            return WorkStatus::Done;
        }
        let end = (self.pos + self.chunk).min(self.items.len());
        outputs[0].push_slice(&self.items[self.pos..end]);
        self.pos = end;
        WorkStatus::Progress
    }
}

/// Collects every received item; read the result through the shared handle
/// after the graph finishes.
pub struct VectorSink {
    name: String,
    store: SinkHandle,
}

/// Shared view of a [`VectorSink`]'s collected items.
#[derive(Clone, Default)]
pub struct SinkHandle(pub(crate) std::sync::Arc<std::sync::Mutex<Vec<Item>>>);

impl SinkHandle {
    /// Snapshot of everything collected so far.
    pub fn items(&self) -> Vec<Item> {
        crate::lock(&self.0).clone()
    }

    /// Collected items as complex samples.
    pub fn complex(&self) -> Vec<mimonet_dsp::complex::Complex64> {
        convert::to_complex(&crate::lock(&self.0))
    }

    /// Collected items as bytes.
    pub fn bytes(&self) -> Vec<u8> {
        convert::to_bytes(&crate::lock(&self.0))
    }

    /// Collected items as reals.
    pub fn reals(&self) -> Vec<f64> {
        convert::to_reals(&crate::lock(&self.0))
    }

    /// Number of items collected.
    pub fn len(&self) -> usize {
        crate::lock(&self.0).len()
    }

    /// `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        crate::lock(&self.0).is_empty()
    }
}

impl VectorSink {
    /// Creates the sink and its read handle.
    pub fn new() -> (Self, SinkHandle) {
        let handle = SinkHandle::default();
        (
            Self {
                name: "vector_sink".into(),
                store: handle.clone(),
            },
            handle,
        )
    }
}

impl Block for VectorSink {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
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
        let n = inputs[0].available();
        if n > 0 {
            let items = inputs[0].take(n);
            crate::lock(&self.store.0).extend(items);
            WorkStatus::Progress
        } else if inputs[0].is_finished() {
            WorkStatus::Done
        } else {
            WorkStatus::Blocked
        }
    }
}

/// Applies a per-item function (a 1:1 "sync block").
pub struct MapBlock {
    name: String,
    f: Box<dyn FnMut(Item) -> Item + Send>,
}

impl MapBlock {
    /// Creates a map block.
    pub fn new(name: impl Into<String>, f: impl FnMut(Item) -> Item + Send + 'static) -> Self {
        Self {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Block for MapBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let n = inputs[0].available();
        if n == 0 {
            return if inputs[0].is_finished() {
                WorkStatus::Done
            } else {
                WorkStatus::Blocked
            };
        }
        for item in inputs[0].take(n) {
            outputs[0].push((self.f)(item));
        }
        WorkStatus::Progress
    }
}

/// Consumes fixed-size input chunks and emits the transformed chunk — the
/// shape of every OFDM-symbol-rate stage (rate-changing "general block").
pub struct ChunkBlock {
    name: String,
    in_chunk: usize,
    #[allow(clippy::type_complexity)]
    f: Box<dyn FnMut(&[Item]) -> Vec<Item> + Send>,
}

impl ChunkBlock {
    /// Creates a block that waits for `in_chunk` items and maps them
    /// through `f` (which may return any number of items).
    pub fn new(
        name: impl Into<String>,
        in_chunk: usize,
        f: impl FnMut(&[Item]) -> Vec<Item> + Send + 'static,
    ) -> Self {
        assert!(in_chunk > 0, "chunk size must be nonzero");
        Self {
            name: name.into(),
            in_chunk,
            f: Box::new(f),
        }
    }
}

impl Block for ChunkBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let mut progressed = false;
        while inputs[0].available() >= self.in_chunk {
            let chunk = inputs[0].take(self.in_chunk);
            let out = (self.f)(&chunk);
            outputs[0].push_slice(&out);
            progressed = true;
        }
        if progressed {
            WorkStatus::Progress
        } else if inputs[0].is_finished() {
            // Residual partial chunk (if any) is dropped, mirroring GNU
            // Radio fixed-rate blocks at flowgraph teardown.
            WorkStatus::Done
        } else {
            WorkStatus::Blocked
        }
    }
}

/// Duplicates one input to N outputs.
pub struct FanoutBlock {
    name: String,
    n: usize,
}

impl FanoutBlock {
    /// Creates a 1-to-`n` duplicator.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            name: "fanout".into(),
            n,
        }
    }
}

impl Block for FanoutBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        self.n
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let n = inputs[0].available();
        if n == 0 {
            return if inputs[0].is_finished() {
                WorkStatus::Done
            } else {
                WorkStatus::Blocked
            };
        }
        let items = inputs[0].take(n);
        for out in outputs.iter_mut() {
            out.push_slice(&items);
        }
        WorkStatus::Progress
    }
}

/// Interleaves N inputs item-by-item into one output (used to merge
/// per-antenna streams); blocks until every input has an item.
pub struct ZipBlock {
    name: String,
    n: usize,
}

impl ZipBlock {
    /// Creates an `n`-to-1 zipper.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            name: "zip".into(),
            n,
        }
    }
}

impl Block for ZipBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn work(
        &mut self,
        inputs: &mut [InputBuffer],
        outputs: &mut [OutputBuffer],
        _ctx: &mut BlockCtx<'_>,
    ) -> WorkStatus {
        let ready = inputs.iter().map(|i| i.available()).min().unwrap_or(0);
        if ready == 0 {
            let all_done = inputs.iter().all(|i| i.is_finished() && i.available() == 0);
            let any_starved_done = inputs.iter().any(|i| i.is_finished() && i.available() == 0);
            return if all_done || any_starved_done {
                // One leg can never deliver again → the zip can never
                // produce another full row.
                WorkStatus::Done
            } else {
                WorkStatus::Blocked
            };
        }
        let columns: Vec<Vec<Item>> = inputs.iter_mut().map(|i| i.take(ready)).collect();
        for row in 0..ready {
            for col in &columns {
                outputs[0].push(col[row]);
            }
        }
        WorkStatus::Progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_hub() -> MessageHub {
        MessageHub::new()
    }

    #[test]
    fn vector_source_emits_in_chunks() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        let mut src = VectorSource::new((0..10u8).map(Item::Byte).collect()).with_chunk(4);
        let mut out = [OutputBuffer::new()];
        assert_eq!(src.work(&mut [], &mut out, &mut ctx), WorkStatus::Progress);
        assert_eq!(out[0].pending(), 4);
        src.work(&mut [], &mut out, &mut ctx);
        src.work(&mut [], &mut out, &mut ctx);
        assert_eq!(out[0].pending(), 10);
        assert_eq!(src.work(&mut [], &mut out, &mut ctx), WorkStatus::Done);
    }

    #[test]
    fn map_block_applies_function() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        let mut map = MapBlock::new("inc", |i| Item::Byte(i.byte() + 1));
        let mut input = InputBuffer::new();
        input.push_items([Item::Byte(1), Item::Byte(2)]);
        let mut inputs = [input];
        let mut outputs = [OutputBuffer::new()];
        assert_eq!(
            map.work(&mut inputs, &mut outputs, &mut ctx),
            WorkStatus::Progress
        );
        let (items, _) = outputs[0].drain();
        assert_eq!(items, vec![Item::Byte(2), Item::Byte(3)]);
        // Starved but upstream alive → Blocked; finished → Done.
        assert_eq!(
            map.work(&mut inputs, &mut outputs, &mut ctx),
            WorkStatus::Blocked
        );
        inputs[0].upstream_done = true;
        assert_eq!(
            map.work(&mut inputs, &mut outputs, &mut ctx),
            WorkStatus::Done
        );
    }

    #[test]
    fn chunk_block_respects_boundaries() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        // Sum each pair into one byte.
        let mut blk = ChunkBlock::new("pairsum", 2, |c| {
            vec![Item::Byte(c[0].byte() + c[1].byte())]
        });
        let mut input = InputBuffer::new();
        input.push_items([Item::Byte(1), Item::Byte(2), Item::Byte(3)]);
        let mut inputs = [input];
        let mut outputs = [OutputBuffer::new()];
        blk.work(&mut inputs, &mut outputs, &mut ctx);
        let (items, _) = outputs[0].drain();
        assert_eq!(items, vec![Item::Byte(3)]); // 1+2; the 3 waits
        assert_eq!(inputs[0].available(), 1);
        // Upstream ends: residual partial chunk dropped, block done.
        inputs[0].upstream_done = true;
        assert_eq!(
            blk.work(&mut inputs, &mut outputs, &mut ctx),
            WorkStatus::Done
        );
    }

    #[test]
    fn fanout_duplicates() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        let mut blk = FanoutBlock::new(3);
        let mut input = InputBuffer::new();
        input.push_items([Item::Real(1.5)]);
        let mut inputs = [input];
        let mut outputs = [
            OutputBuffer::new(),
            OutputBuffer::new(),
            OutputBuffer::new(),
        ];
        blk.work(&mut inputs, &mut outputs, &mut ctx);
        for out in &mut outputs {
            let (items, _) = out.drain();
            assert_eq!(items, vec![Item::Real(1.5)]);
        }
    }

    #[test]
    fn zip_interleaves_rows() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        let mut blk = ZipBlock::new(2);
        let mut a = InputBuffer::new();
        a.push_items([Item::Byte(1), Item::Byte(3)]);
        let mut b = InputBuffer::new();
        b.push_items([Item::Byte(2)]);
        let mut inputs = [a, b];
        let mut outputs = [OutputBuffer::new()];
        blk.work(&mut inputs, &mut outputs, &mut ctx);
        let (items, _) = outputs[0].drain();
        assert_eq!(items, vec![Item::Byte(1), Item::Byte(2)]);
        assert_eq!(inputs[0].available(), 1, "unmatched row stays queued");
    }

    #[test]
    fn sink_handle_reads_across_types() {
        let hub = ctx_hub();
        let mut ctx = BlockCtx { msgs: &hub };
        let (mut sink, handle) = VectorSink::new();
        let mut input = InputBuffer::new();
        input.push_items([Item::Byte(9), Item::Byte(10)]);
        let mut inputs = [input];
        sink.work(&mut inputs, &mut [], &mut ctx);
        assert_eq!(handle.bytes(), vec![9, 10]);
        assert_eq!(handle.len(), 2);
        inputs[0].upstream_done = true;
        assert_eq!(sink.work(&mut inputs, &mut [], &mut ctx), WorkStatus::Done);
    }
}
