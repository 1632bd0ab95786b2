//! A client connection speaking the wire codec directly.
//!
//! [`mimonet_io::LinkClient`] returns whole sessions; the benchmark needs
//! the moment each reply message lands (`SessionAccept` opens a reply,
//! `Telemetry` ends it) and, for the open loop, requests written by one
//! thread while another reads the replies. Both need only the public
//! codec: [`mimonet_io::wire::encode`] and the incremental
//! [`mimonet_io::wire::decode`].

use mimonet_io::wire::{decode, encode, WireError, WireMsg, WIRE_VERSION};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest silence from the engine before a connection counts as
/// stalled.
pub const STALL: Duration = Duration::from_secs(30);

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// One connection to the engine.
pub struct WireConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded.
    start: usize,
    chunk: Vec<u8>,
    /// Wire bytes received so far.
    pub bytes_in: u64,
    /// Wire bytes sent through [`WireConn::send`] so far.
    pub bytes_out: u64,
}

impl WireConn {
    /// Connects and completes the `Hello` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(STALL))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let mut conn = Self {
            stream,
            buf: Vec::new(),
            start: 0,
            chunk: vec![0; READ_CHUNK],
            bytes_in: 0,
            bytes_out: 0,
        };
        conn.send(&WireMsg::Hello {
            version: WIRE_VERSION,
        })?;
        match conn.recv()? {
            (WireMsg::Hello { version }, _) if version == WIRE_VERSION => Ok(conn),
            _ => Err("the engine refused the Hello handshake".into()),
        }
    }

    /// The socket, for readiness polling.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// A second handle on the socket for a thread that only writes.
    pub fn writer(&self) -> Result<TcpStream, String> {
        self.stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))
    }

    /// Encodes and sends one message.
    pub fn send(&mut self, msg: &WireMsg) -> Result<(), String> {
        let frame = encode(msg);
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        self.bytes_out += frame.len() as u64;
        Ok(())
    }

    /// The next whole message already received, with its size on the
    /// wire; `None` when only part of one (or nothing) is buffered.
    pub fn try_decode(&mut self) -> Result<Option<(WireMsg, usize)>, String> {
        match decode(&self.buf[self.start..]) {
            Ok((msg, n)) => {
                self.start += n;
                self.bytes_in += n as u64;
                Ok(Some((msg, n)))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(format!("wire: {e}")),
        }
    }

    /// One `read` into the buffer: blocks until bytes arrive (returns at
    /// once after a readiness poll said so), at most [`STALL`].
    pub fn fill(&mut self) -> Result<(), String> {
        // Keep only the partial message before reading more.
        self.buf.drain(..self.start);
        self.start = 0;
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("the engine closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(format!("the engine was silent for {STALL:?}"))
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The next whole message, waiting for it.
    pub fn recv(&mut self) -> Result<(WireMsg, usize), String> {
        loop {
            if let Some(m) = self.try_decode()? {
                return Ok(m);
            }
            self.fill()?;
        }
    }

    /// Says `Bye` and waits briefly for the engine's answer.
    pub fn close(mut self) {
        let answered = self.send(&WireMsg::Bye).is_ok()
            && self
                .stream
                .set_read_timeout(Some(Duration::from_secs(1)))
                .is_ok();
        if answered {
            let _ = self.recv();
        }
    }
}
