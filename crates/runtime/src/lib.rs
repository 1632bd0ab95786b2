//! # mimonet-runtime
//!
//! A GNU-Radio-like flowgraph runtime — MIMONet-rs's substitute for the
//! GNU Radio block scheduler the SRIF'14 paper builds on (see DESIGN.md
//! "Substitutions"). It reproduces the programming model the paper's
//! blocks assume:
//!
//! * [`block::Block`] — `general_work`-style processing with arbitrary
//!   consume/produce rates,
//! * [`buffer`] — typed stream items with absolute-offset stream tags,
//! * [`message`] — out-of-band publish/subscribe message ports,
//! * [`graph::Flowgraph`] — topology building plus two schedulers:
//!   deterministic single-threaded and supervised thread-per-block over
//!   bounded channels (panic capture, typed block errors, stall watchdog —
//!   see [`graph::SupervisorConfig`]),
//! * [`faults::FaultInjectorBlock`] — seeded fault injection (corrupt /
//!   stall / panic / typed failure) for chaos-testing the supervisor,
//! * [`telemetry`] — lock-cheap per-block counters, blocked-time spans
//!   and buffer high-water gauges both schedulers record into (see
//!   [`graph::Flowgraph::instrument`]); compiled to no-ops by the
//!   `telemetry-off` feature.

pub mod block;
pub mod buffer;
pub mod faults;
pub mod graph;
pub mod message;
pub mod stdblocks;
pub mod telemetry;

pub use block::{
    Block, BlockCtx, BlockError, ChunkBlock, FanoutBlock, MapBlock, SinkHandle, VectorSink,
    VectorSource, WorkStatus, ZipBlock,
};
pub use buffer::{convert, InputBuffer, Item, OutputBuffer, Tag, TagValue};
pub use faults::{FaultInjectorBlock, FaultMode};
pub use graph::{BlockId, Flowgraph, GraphError, SupervisorConfig};
pub use message::{Message, MessageHub, Subscription};
pub use stdblocks::{AddBlock, HeadBlock, MultiplyConstBlock, NullSink, PowerProbe};
pub use telemetry::{
    BlockSnapshot, BlockTelemetry, Counter, GraphSnapshot, GraphTelemetry, HistSnapshot,
    LogHistogram, MaxGauge, Span,
};

/// Locks `m` even when a holder panicked: a panicking block must not
/// wedge the message hub or a sink for everyone else. Each update made
/// under these locks is one insert, push or extend, so a panic cannot
/// leave the data half-changed.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_stay_usable() {
        let (_sink, items) = VectorSink::new();
        let hub = Arc::new(MessageHub::new());
        let early = hub.subscribe("t");
        let held = items.clone();
        let sink_holder = std::thread::spawn(move || {
            let _guard = lock(&held.0);
            panic!("poison the sink");
        });
        assert!(sink_holder.join().is_err());
        let held = hub.clone();
        let hub_holder = std::thread::spawn(move || {
            let _guard = lock(&held.topics);
            panic!("poison the hub");
        });
        assert!(hub_holder.join().is_err());
        assert!(items.0.is_poisoned() && hub.topics.is_poisoned());

        assert!(items.items().is_empty());
        let late = hub.subscribe("t");
        hub.publish("t", Message::F64(1.0));
        assert_eq!(early.drain(), [Message::F64(1.0)]);
        assert_eq!(late.drain(), [Message::F64(1.0)]);
    }
}
