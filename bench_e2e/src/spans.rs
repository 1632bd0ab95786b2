//! In-memory spans: calls the benchmark timed, kept until the run ends
//! and then written out with the run's per-layer metrics.
//!
//! A span names the layer call it wraps (`tx.transmit`, `wire.decode`,
//! `client.first_reply`, ...). Spans of one session share its `id`; a
//! session's `client.first_reply` and `client.stream` spans are the two
//! halves of its `client.session` span.

use serde::Value;
use std::time::Instant;

/// Most spans one run keeps; later ones are only counted.
pub const MAX_SPANS: usize = 100_000;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `rx.receive`.
    pub name: &'static str,
    /// Session (or probe iteration) the call served.
    pub id: u64,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// A run's spans, bounded by [`MAX_SPANS`].
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// Keeps one span (or counts it as dropped once the log is full).
    pub fn push(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                id,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, id, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    /// Moves every span of `other` into this log.
    pub fn append(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        for s in other.spans {
            self.push(s.name, s.id, s.start, s.end);
        }
    }

    /// Spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no span was kept.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The log as JSON, times in ns since `epoch`.
    pub fn to_value(&self, epoch: Instant) -> Value {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        Value::object(vec![
            ("dropped", Value::U64(self.dropped)),
            (
                "spans",
                Value::Array(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::object(vec![
                                ("name", Value::Str(s.name.into())),
                                ("id", Value::U64(s.id)),
                                ("start_ns", Value::U64(ns(s.start))),
                                ("end_ns", Value::U64(ns(s.end))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_log_counts_what_it_drops() {
        let mut log = SpanLog::default();
        let t = Instant::now();
        for i in 0..MAX_SPANS as u64 + 3 {
            log.push("x", i, t, t);
        }
        assert_eq!(log.len(), MAX_SPANS);
        let v = log.to_value(t);
        assert_eq!(v.get("dropped").and_then(Value::as_u64), Some(3));
    }
}
