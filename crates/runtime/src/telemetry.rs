//! Lock-cheap runtime telemetry: counters, high-water gauges, log-scale
//! histograms, and the per-graph registry both schedulers write into.
//!
//! The primitives are single atomics with `Relaxed` ordering — a recording
//! site costs one uncontended RMW, cheap enough to leave on in production
//! paths. The `telemetry-off` cargo feature compiles every recording
//! method to a no-op (the zero-overhead escape hatch CI builds to prove
//! nothing load-bearing hides in the counters).
//!
//! Snapshots ([`BlockSnapshot`] / [`GraphSnapshot`]) are plain data:
//! mergeable through [`Merge`] (summed counters, maxed gauges) and
//! serializable. Wall-clock
//! fields (`*_ns`, the work-latency histogram) are dropped when a snapshot
//! is rendered with `include_wall = false` — the determinism contract that
//! lets `MIMONET_DETERMINISTIC=1` runs byte-compare their reports while
//! keeping every count.

use mimonet_dsp::stats::Merge;
#[cfg(not(feature = "telemetry-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(#[cfg(not(feature = "telemetry-off"))] AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.0.fetch_add(n, Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        let _ = n;
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count (0 with `telemetry-off`).
    #[inline]
    pub fn get(&self) -> u64 {
        #[cfg(not(feature = "telemetry-off"))]
        return self.0.load(Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        0
    }
}

/// A high-water-mark gauge: `record` keeps the maximum ever seen.
#[derive(Debug, Default)]
pub struct MaxGauge(#[cfg(not(feature = "telemetry-off"))] AtomicU64);

impl MaxGauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation; the gauge keeps the maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.0.fetch_max(v, Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        let _ = v;
    }

    /// Highest value recorded (0 with `telemetry-off`).
    #[inline]
    pub fn get(&self) -> u64 {
        #[cfg(not(feature = "telemetry-off"))]
        return self.0.load(Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        0
    }
}

/// Buckets in a [`LogHistogram`]: bucket `b` counts values in
/// `[2^(b-1), 2^b)` (bucket 0 holds exact zeros), clamped at the top.
pub const HIST_BUCKETS: usize = 64;

/// Fixed-bucket base-2 log-scale histogram of `u64` observations (work
/// call latencies in ns, items per call, ...). Recording is one relaxed
/// `fetch_add`; precision is "within 2x", which is what you want from a
/// latency profile, not percentile exactness.
pub struct LogHistogram {
    #[cfg(not(feature = "telemetry-off"))]
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            #[cfg(not(feature = "telemetry-off"))]
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a value.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Lower edge of bucket `b` (0 for the zero bucket).
    pub fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        let _ = v;
    }

    /// Plain-data copy of the bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            #[cfg(not(feature = "telemetry-off"))]
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            #[cfg(feature = "telemetry-off")]
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

/// Mergeable, serializable copy of a [`LogHistogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Dense bucket counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

/// Element-wise sum of the bucket counts.
impl Merge for HistSnapshot {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

impl HistSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sparse `[bucket_floor, count]` pairs for the non-empty buckets.
    pub fn to_value(&self) -> serde::Value {
        serde::Value::Array(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| {
                    serde::Value::Array(vec![
                        serde::Value::U64(LogHistogram::bucket_floor(b)),
                        serde::Value::U64(c),
                    ])
                })
                .collect(),
        )
    }
}

/// Live per-block telemetry the schedulers record into. All fields are
/// atomics; worker threads share it through the [`GraphTelemetry`] arc.
#[derive(Default)]
pub struct BlockTelemetry {
    /// Block name (diagnostics only).
    pub name: String,
    /// `work` invocations.
    pub work_calls: Counter,
    /// Items consumed across all input ports.
    pub items_in: Counter,
    /// Items produced across all output ports.
    pub items_out: Counter,
    /// Wall time spent inside `work`, ns.
    pub work_ns: Counter,
    /// Wall time spent waiting for input (threaded scheduler), ns.
    pub blocked_input_ns: Counter,
    /// Wall time spent waiting on downstream backpressure, ns.
    pub blocked_output_ns: Counter,
    /// `work` calls that returned `Blocked`.
    pub blocked_calls: Counter,
    /// Output sends that found the edge channel full (threaded only).
    pub backpressure_events: Counter,
    /// Items dropped instead of delivered: sends to a finished downstream
    /// in the threaded scheduler, plus any block-internal bounded-queue
    /// overflow a block mirrors in through `Block::attach_telemetry`.
    pub queue_drops: Counter,
    /// Per-input-port high-water mark of items waiting before a `work`
    /// call — one gauge per inbound edge.
    pub input_highwater: Vec<MaxGauge>,
    /// Per-call `work` latency histogram, ns.
    pub work_ns_hist: LogHistogram,
    /// Frames-per-batch histogram for blocks that drain their input in
    /// multi-frame groups (the untraced receiver block records the
    /// bursts it decoded per `work` call). Counts, not wall clock —
    /// deterministic under the single-threaded scheduler.
    pub batch_frames: LogHistogram,
}

impl BlockTelemetry {
    /// Creates telemetry for a block with `n_in` input ports.
    pub fn new(name: impl Into<String>, n_in: usize) -> Self {
        Self {
            name: name.into(),
            input_highwater: (0..n_in).map(|_| MaxGauge::new()).collect(),
            ..Self::default()
        }
    }

    /// Plain-data copy of every counter.
    pub fn snapshot(&self) -> BlockSnapshot {
        BlockSnapshot {
            name: self.name.clone(),
            work_calls: self.work_calls.get(),
            items_in: self.items_in.get(),
            items_out: self.items_out.get(),
            work_ns: self.work_ns.get(),
            blocked_input_ns: self.blocked_input_ns.get(),
            blocked_output_ns: self.blocked_output_ns.get(),
            blocked_calls: self.blocked_calls.get(),
            backpressure_events: self.backpressure_events.get(),
            queue_drops: self.queue_drops.get(),
            input_highwater: self.input_highwater.iter().map(MaxGauge::get).collect(),
            work_ns_hist: self.work_ns_hist.snapshot(),
            batch_frames: self.batch_frames.snapshot(),
        }
    }
}

/// Per-graph telemetry registry: one [`BlockTelemetry`] per block, in the
/// graph's block order. Obtained from `Flowgraph::instrument`.
pub struct GraphTelemetry {
    /// Per-block telemetry, indexed like the flowgraph's blocks.
    pub blocks: Vec<std::sync::Arc<BlockTelemetry>>,
}

impl GraphTelemetry {
    /// Builds a registry from `(name, n_in)` block descriptors.
    pub fn new(blocks: impl IntoIterator<Item = (String, usize)>) -> Self {
        Self {
            blocks: blocks
                .into_iter()
                .map(|(name, n_in)| std::sync::Arc::new(BlockTelemetry::new(name, n_in)))
                .collect(),
        }
    }

    /// Plain-data copy of the whole registry.
    pub fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot {
            blocks: self.blocks.iter().map(|b| b.snapshot()).collect(),
        }
    }
}

/// Mergeable, serializable copy of one block's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockSnapshot {
    /// Block name.
    pub name: String,
    /// `work` invocations.
    pub work_calls: u64,
    /// Items consumed.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
    /// Time inside `work`, ns (wall-clock; stripped in deterministic
    /// renderings).
    pub work_ns: u64,
    /// Time waiting for input, ns.
    pub blocked_input_ns: u64,
    /// Time waiting on backpressure, ns.
    pub blocked_output_ns: u64,
    /// `work` calls that returned `Blocked`.
    pub blocked_calls: u64,
    /// Full-channel events on output sends.
    pub backpressure_events: u64,
    /// Items dropped (disconnected downstream, bounded-queue overflow).
    pub queue_drops: u64,
    /// Per-input-port queue high-water marks, items.
    pub input_highwater: Vec<u64>,
    /// Work-latency histogram (wall-clock; stripped when deterministic).
    pub work_ns_hist: HistSnapshot,
    /// Frames-per-batch histogram (counts — kept in deterministic
    /// renderings).
    pub batch_frames: HistSnapshot,
}

/// Folds another snapshot of the *same block* into this one: counters
/// add, high-water marks take the max.
impl Merge for BlockSnapshot {
    fn merge(&mut self, other: &Self) {
        if self.name.is_empty() {
            self.name = other.name.clone();
        }
        self.work_calls += other.work_calls;
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.work_ns += other.work_ns;
        self.blocked_input_ns += other.blocked_input_ns;
        self.blocked_output_ns += other.blocked_output_ns;
        self.blocked_calls += other.blocked_calls;
        self.backpressure_events += other.backpressure_events;
        self.queue_drops += other.queue_drops;
        if self.input_highwater.len() < other.input_highwater.len() {
            self.input_highwater.resize(other.input_highwater.len(), 0);
        }
        for (a, b) in self.input_highwater.iter_mut().zip(&other.input_highwater) {
            *a = (*a).max(*b);
        }
        self.work_ns_hist.merge(&other.work_ns_hist);
        self.batch_frames.merge(&other.batch_frames);
    }
}

impl BlockSnapshot {
    /// Serializes; `include_wall = false` drops every wall-clock-derived
    /// field (`*_ns`, the latency histogram) so deterministic runs
    /// byte-compare.
    pub fn to_value(&self, include_wall: bool) -> serde::Value {
        use serde::Serialize;
        let mut fields = vec![
            ("block", self.name.serialize()),
            ("work_calls", self.work_calls.serialize()),
            ("items_in", self.items_in.serialize()),
            ("items_out", self.items_out.serialize()),
            ("blocked_calls", self.blocked_calls.serialize()),
            ("backpressure_events", self.backpressure_events.serialize()),
            ("queue_drops", self.queue_drops.serialize()),
            ("input_highwater", self.input_highwater.serialize()),
            ("batch_frames", self.batch_frames.to_value()),
        ];
        if include_wall {
            fields.push(("work_ns", self.work_ns.serialize()));
            fields.push(("blocked_input_ns", self.blocked_input_ns.serialize()));
            fields.push(("blocked_output_ns", self.blocked_output_ns.serialize()));
            fields.push(("work_ns_hist", self.work_ns_hist.to_value()));
        }
        serde::Value::object(fields)
    }
}

/// Mergeable, serializable copy of a whole graph's telemetry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphSnapshot {
    /// Per-block snapshots, in graph block order.
    pub blocks: Vec<BlockSnapshot>,
}

/// Folds another snapshot of the *same graph topology* into this one
/// (block by block); an empty side adopts the other wholesale, so
/// `Default` is the merge identity.
impl Merge for GraphSnapshot {
    fn merge(&mut self, other: &Self) {
        self.blocks.merge(&other.blocks);
    }
}

impl GraphSnapshot {
    /// Serializes every block; see [`BlockSnapshot::to_value`].
    pub fn to_value(&self, include_wall: bool) -> serde::Value {
        serde::Value::Array(
            self.blocks
                .iter()
                .map(|b| b.to_value(include_wall))
                .collect(),
        )
    }

    /// Total time inside `work` across all blocks, ns.
    pub fn total_work_ns(&self) -> u64 {
        self.blocks.iter().map(|b| b.work_ns).sum()
    }

    /// Renders the per-block profile table — the flamegraph-lite for a
    /// flowgraph. `wall` is the graph's wall-clock run time (items/s
    /// denominator); pass `None` to omit the rate and time-percentage
    /// columns (deterministic mode has no meaningful wall clock).
    pub fn render_table(&self, wall: Option<Duration>) -> String {
        let mut out = String::new();
        let header = format!(
            "{:<16} {:>9} {:>10} {:>10} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7} {:>8} {:>8}\n",
            "block",
            "calls",
            "items_in",
            "items_out",
            "work_ms",
            "%time",
            "blk_in",
            "blk_out",
            "stalls",
            "drops",
            "in_hw",
            "batches"
        );
        out.push_str(&header);
        out.push_str(&format!("{}\n", "-".repeat(header.len().saturating_sub(1))));
        let total_ns = self.total_work_ns().max(1);
        for b in &self.blocks {
            let pct = match wall {
                Some(_) => 100.0 * b.work_ns as f64 / total_ns as f64,
                None => f64::NAN,
            };
            let ms = |ns: u64| ns as f64 / 1e6;
            let fmt_ms = |ns: u64| {
                if wall.is_some() {
                    format!("{:9.3}", ms(ns))
                } else {
                    format!("{:>9}", "-")
                }
            };
            let pct_s = if pct.is_nan() {
                format!("{:>7}", "-")
            } else {
                format!("{pct:6.1}%")
            };
            out.push_str(&format!(
                "{:<16} {:>9} {:>10} {:>10} {} {} {} {} {:>7} {:>7} {:>8} {:>8}\n",
                b.name,
                b.work_calls,
                b.items_in,
                b.items_out,
                fmt_ms(b.work_ns),
                pct_s,
                fmt_ms(b.blocked_input_ns),
                fmt_ms(b.blocked_output_ns),
                b.blocked_calls,
                b.queue_drops,
                b.input_highwater.iter().copied().max().unwrap_or(0),
                b.batch_frames.count(),
            ));
        }
        if let Some(w) = wall {
            let items: u64 = self.blocks.iter().map(|b| b.items_out).sum();
            let s = w.as_secs_f64();
            if s > 0.0 {
                out.push_str(&format!(
                    "# wall {:.3} s, {:.0} items/s aggregate\n",
                    s,
                    items as f64 / s
                ));
            }
        }
        out
    }
}

/// RAII span that adds its elapsed wall time (ns) to a [`Counter`] on
/// drop — the stage-timer building block.
pub struct Span<'a> {
    target: &'a Counter,
    #[cfg(not(feature = "telemetry-off"))]
    start: std::time::Instant,
}

impl<'a> Span<'a> {
    /// Starts a span feeding `target`.
    pub fn new(target: &'a Counter) -> Self {
        Self {
            target,
            #[cfg(not(feature = "telemetry-off"))]
            start: std::time::Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        #[cfg(not(feature = "telemetry-off"))]
        self.target.add(self.start.elapsed().as_nanos() as u64);
        #[cfg(feature = "telemetry-off")]
        let _ = self.target;
    }
}

#[cfg(all(test, not(feature = "telemetry-off")))]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        let g = MaxGauge::new();
        g.record(7);
        g.record(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(3), 4);
        let h = LogHistogram::new();
        h.record(0);
        h.record(5);
        h.record(6);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[3], 2);
    }

    #[test]
    fn span_accumulates_time() {
        let c = Counter::new();
        {
            let _s = Span::new(&c);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(c.get() >= 1_000_000, "span recorded {} ns", c.get());
    }

    #[test]
    fn snapshot_merge_adds_counts_and_maxes_highwater() {
        let t = BlockTelemetry::new("b", 2);
        t.work_calls.add(2);
        t.items_in.add(10);
        t.queue_drops.add(3);
        t.input_highwater[0].record(4);
        t.input_highwater[1].record(9);
        let mut a = t.snapshot();
        let u = BlockTelemetry::new("b", 2);
        u.work_calls.add(1);
        u.queue_drops.add(2);
        u.input_highwater[0].record(6);
        a.merge(&u.snapshot());
        assert_eq!(a.work_calls, 3);
        assert_eq!(a.items_in, 10);
        assert_eq!(a.queue_drops, 5);
        assert_eq!(a.input_highwater, vec![6, 9]);
    }

    #[test]
    fn graph_snapshot_serializes_and_strips_wall_fields() {
        let g = GraphTelemetry::new([("src".to_string(), 0), ("sink".to_string(), 1)]);
        g.blocks[0].work_calls.add(5);
        g.blocks[0].work_ns.add(1234);
        let with = serde::json::to_string(&g.snapshot().to_value(true));
        let without = serde::json::to_string(&g.snapshot().to_value(false));
        assert!(with.contains("work_ns"));
        assert!(!without.contains("work_ns"), "{without}");
        assert!(without.contains("\"work_calls\":5"));
    }

    #[test]
    fn render_table_lists_every_block() {
        let g = GraphTelemetry::new([("tx".to_string(), 1), ("rx".to_string(), 2)]);
        g.blocks[0].work_calls.add(3);
        let table = g.snapshot().render_table(Some(Duration::from_millis(10)));
        assert!(table.contains("tx"));
        assert!(table.contains("rx"));
        assert!(table.contains("items/s"));
        let det = g.snapshot().render_table(None);
        assert!(det.contains("tx") && !det.contains("items/s"));
    }
}
