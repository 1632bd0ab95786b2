//! Shard event loop: N shards each own a slice of the connections and
//! multiplex them over one thread with readiness polling.
//!
//! A shard's turn: drain injected connections from the acceptor, drain
//! compute-plane completions (routing each to its connection), poll its
//! socket set (waker + every live connection) for readiness, service
//! ready connections, enforce deadlines, and reap the dead. The waker
//! sits in the poll set, so a completion, an injected connection or
//! shutdown wakes a sleeping shard at once. The poll times out only at
//! the nearest connection deadline; with none, an idle shard sleeps until
//! a socket or its waker is ready.

use super::compute::{Completion, ComputePlane};
use super::conn::{Conn, Ctx};
use super::reactor::{poll_wait, Interest, PollSource, Readiness, Waker};
use super::EngineShared;
use crate::resilience::Deadline;
use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The cross-thread face of one shard: the acceptor injects sockets, the
/// compute plane posts completions, both wake the loop.
#[derive(Clone)]
pub(crate) struct ShardHandle {
    pub injections: Arc<Mutex<VecDeque<TcpStream>>>,
    pub completions: Arc<Mutex<VecDeque<Completion>>>,
    pub waker: Arc<Waker>,
}

impl ShardHandle {
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Self {
            injections: Arc::new(Mutex::new(VecDeque::new())),
            completions: Arc::new(Mutex::new(VecDeque::new())),
            waker: Arc::new(Waker::new()?),
        })
    }
}

/// Runs one shard until `stop` — see module docs for the turn structure.
pub(crate) fn shard_loop(
    shard_idx: usize,
    handle: ShardHandle,
    shared: Arc<EngineShared>,
    compute: Arc<ComputePlane>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut ready: Vec<Readiness> = Vec::new();

    while !stop.load(Ordering::Relaxed) {
        // 1. Adopt connections the acceptor routed here.
        while let Some(stream) = handle.injections.lock().unwrap().pop_front() {
            let deadline = shared.config.connection_deadline.map(Deadline::after);
            if let Ok(conn) = Conn::new(stream, deadline) {
                conns.insert(next_id, conn);
                next_id += 1;
            }
        }

        // 2. Land compute completions on their connections. A completion
        // for a connection that died mid-run still settles the books: it
        // counts as a failed session.
        while let Some(completion) = handle.completions.lock().unwrap().pop_front() {
            let conn_id = completion.conn;
            match conns.get_mut(&conn_id) {
                Some(conn) => {
                    let ctx = Ctx {
                        shared: &shared,
                        compute: &compute,
                        shard: shard_idx,
                        conn_id,
                    };
                    conn.on_completion(completion, &ctx);
                }
                None => {
                    shared.stats.active_sessions.fetch_sub(1, Ordering::Relaxed);
                    shared.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // 3. Poll: waker first, then every live connection.
        let ids: Vec<u64> = conns.keys().copied().collect();
        {
            let mut sources: Vec<(PollSource<'_>, Interest)> = Vec::with_capacity(ids.len() + 1);
            sources.push((PollSource::Udp(handle.waker.poll_half()), Interest::READ));
            for id in &ids {
                let conn = &conns[id];
                let interest = if conn.wants_write() {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                sources.push((PollSource::Tcp(conn.stream()), interest));
            }
            ready.clear();
            ready.resize(sources.len(), Readiness::default());
            let timeout = conns.values().filter_map(Conn::deadline_left).min();
            poll_wait(&sources, &mut ready, timeout);
        }
        handle.waker.drain();

        // 4. Service readiness + deadlines, reap the dead.
        for (slot, id) in ids.iter().enumerate() {
            let r = ready[slot + 1];
            let Some(conn) = conns.get_mut(id) else {
                continue;
            };
            let ctx = Ctx {
                shared: &shared,
                compute: &compute,
                shard: shard_idx,
                conn_id: *id,
            };
            if r.readable {
                conn.on_readable(&ctx);
            }
            if r.writable && conn.wants_write() {
                conn.flush(&ctx);
            }
            conn.check_deadline(&ctx);
            if conn.is_dead() {
                conns.remove(id);
            }
        }
    }
}
