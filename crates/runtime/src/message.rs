//! Out-of-band message passing between blocks — the analogue of GNU
//! Radio's message ports.
//!
//! Blocks publish to named topics; anyone holding a subscription handle
//! drains them. The transceiver uses this for decoded-frame announcements
//! and for control (e.g. an SNR probe publishing channel-state messages a
//! rate-adaptation block consumes).

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// A message payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Byte payload (decoded PSDUs).
    Bytes(Vec<u8>),
    /// Float payload (SNR reports, CFO estimates).
    F64(f64),
    /// Key/value-free event marker.
    Event(String),
}

/// A subscription to one topic.
pub struct Subscription {
    rx: Receiver<Message>,
}

impl Subscription {
    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(m) = self.rx.try_recv() {
            out.push(m);
        }
        out
    }

    /// Non-blocking single receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv().ok()
    }
}

/// The flowgraph-wide publish/subscribe hub. Cheap to share by reference;
/// thread-safe for the multi-threaded scheduler.
#[derive(Default)]
pub struct MessageHub {
    pub(crate) topics: Mutex<HashMap<String, Vec<Sender<Message>>>>,
}

impl MessageHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes to `topic`; messages published after this call are
    /// delivered to the returned handle.
    pub fn subscribe(&self, topic: impl Into<String>) -> Subscription {
        let (tx, rx) = channel();
        crate::lock(&self.topics)
            .entry(topic.into())
            .or_default()
            .push(tx);
        Subscription { rx }
    }

    /// Publishes to every current subscriber of `topic`; a no-op without
    /// subscribers.
    pub fn publish(&self, topic: &str, msg: Message) {
        if let Some(subs) = crate::lock(&self.topics).get(topic) {
            for s in subs {
                // A dropped subscriber just misses messages.
                let _ = s.send(msg.clone());
            }
        }
    }

    /// Number of subscribers currently attached to `topic`.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        crate::lock(&self.topics).get(topic).map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_subscribe_roundtrip() {
        let hub = MessageHub::new();
        let sub = hub.subscribe("frames");
        hub.publish("frames", Message::Bytes(vec![1, 2, 3]));
        hub.publish("frames", Message::F64(12.5));
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Message::Bytes(vec![1, 2, 3]));
        assert_eq!(got[1], Message::F64(12.5));
    }

    #[test]
    fn publish_without_subscribers_is_noop() {
        let hub = MessageHub::new();
        hub.publish("nobody", Message::Event("x".into()));
        assert_eq!(hub.subscriber_count("nobody"), 0);
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let hub = MessageHub::new();
        let a = hub.subscribe("t");
        let b = hub.subscribe("t");
        hub.publish("t", Message::Event("e".into()));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
        assert_eq!(hub.subscriber_count("t"), 2);
    }

    #[test]
    fn topics_are_isolated() {
        let hub = MessageHub::new();
        let a = hub.subscribe("a");
        hub.publish("b", Message::F64(1.0));
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn dropped_subscriber_does_not_break_publish() {
        let hub = MessageHub::new();
        let sub = hub.subscribe("t");
        drop(sub);
        hub.publish("t", Message::F64(2.0)); // must not panic
    }

    #[test]
    fn hub_is_shareable_across_threads() {
        let hub = std::sync::Arc::new(MessageHub::new());
        let sub = hub.subscribe("t");
        let h2 = hub.clone();
        let th = std::thread::spawn(move || {
            for i in 0..10 {
                h2.publish("t", Message::F64(i as f64));
            }
        });
        th.join().unwrap();
        assert_eq!(sub.drain().len(), 10);
    }
}
