//! Completed-session outcome store behind session resumption.
//!
//! A served session's full reply — decoded frames, scored stats JSON,
//! telemetry JSON, and (for traced sessions) the lifecycle trace — is
//! parked here keyed by the resume token issued in `SessionAccept`, so a
//! client cut off mid-stream can [`crate::wire::WireMsg::SessionResume`]
//! on a fresh connection and replay only the frames it is missing.
//! Replay is idempotent: the client dedupes by frame index.
//!
//! The store is capacity-bounded LRU: inserting past capacity evicts the
//! oldest entry, and a successful resume refreshes its token's age. The
//! engine ([`crate::engine`]) keeps one store shared by all its shards,
//! so a resume may land on any shard.

use crate::wire::DecodedFrame;
use mimonet::obs::TraceEvent;
use std::collections::{HashMap, VecDeque};

/// A completed session outcome parked for resumption.
#[derive(Clone)]
pub struct StoredSession {
    /// Every frame the session decoded, in stream order.
    pub frames: Vec<DecodedFrame>,
    /// Scored `LinkStats` as the JSON the wire carries.
    pub stats_json: String,
    /// Per-block (or engine) telemetry as the JSON the wire carries.
    pub telemetry_json: String,
    /// Frame-lifecycle trace events when the session ran traced
    /// (`SessionConfig::trace != 0`); empty otherwise.
    pub trace: Vec<TraceEvent>,
}

/// Capacity-bounded LRU store of completed session outcomes, keyed by
/// resume token.
#[derive(Default)]
pub struct SessionStore {
    sessions: HashMap<u64, StoredSession>,
    /// Tokens oldest-first; refreshed on resume hits.
    order: VecDeque<u64>,
}

impl SessionStore {
    /// Parks `s` under `token`, evicting oldest entries past `capacity`.
    /// A capacity of zero disables storage entirely.
    pub fn insert(&mut self, capacity: usize, token: u64, s: StoredSession) {
        if capacity == 0 {
            return;
        }
        while self.sessions.len() >= capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.sessions.remove(&old);
                }
                None => break,
            }
        }
        self.sessions.insert(token, s);
        self.order.push_back(token);
    }

    /// Looks up a stored session without touching its LRU age.
    pub fn get(&self, token: u64) -> Option<&StoredSession> {
        self.sessions.get(&token)
    }

    /// Refreshes `token`'s LRU age (a resume hit keeps it warm).
    pub fn touch(&mut self, token: u64) {
        if let Some(pos) = self.order.iter().position(|&t| t == token) {
            self.order.remove(pos);
            self.order.push_back(token);
        }
    }

    /// Number of resumable sessions currently parked.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(tag: u8) -> StoredSession {
        StoredSession {
            frames: vec![DecodedFrame {
                index: 0,
                snr_db: 30.0,
                psdu: vec![tag],
                trace: 0,
            }],
            stats_json: format!("{{\"tag\":{tag}}}"),
            telemetry_json: "{}".into(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn lru_evicts_oldest_and_touch_refreshes() {
        let mut store = SessionStore::default();
        store.insert(2, 1, stored(1));
        store.insert(2, 2, stored(2));
        store.touch(1); // 1 is now newest
        store.insert(2, 3, stored(3)); // evicts 2
        assert!(store.get(1).is_some());
        assert!(store.get(2).is_none());
        assert!(store.get(3).is_some());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut store = SessionStore::default();
        store.insert(0, 7, stored(7));
        assert!(store.is_empty());
    }
}
