//! Readiness polling for the async session engine.
//!
//! The engine needs exactly one primitive: "which of these non-blocking
//! sockets can make progress right now, or wake me when one can". On
//! Unix that is `poll(2)`, declared here directly against the system C
//! library (`std` already links it) — no external event-loop crate. On
//! other targets a portable fallback reports every socket as ready and
//! relies on the non-blocking sockets' `WouldBlock` to make the shard
//! loop cheap; correctness is identical, only idle CPU differs.
//!
//! A [`Waker`] lets the compute plane interrupt a shard parked inside
//! `poll`: it is a loopback UDP socket pair registered in the shard's
//! poll set, so a one-byte datagram forces an immediate wakeup without
//! any platform-specific pipe or eventfd plumbing.

use std::net::{TcpListener, TcpStream, UdpSocket};
use std::time::Duration;

/// What a socket in the poll set is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket is readable (or closed/errored).
    pub readable: bool,
    /// Wake when the socket is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a connection with queued output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// Readiness reported for one registered socket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or EOF/error — both surface through a read) is available.
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
}

impl Readiness {
    /// Whether anything at all is ready.
    pub fn any(&self) -> bool {
        self.readable || self.writable
    }
}

/// One pollable endpoint: the engine only ever polls these three.
pub enum PollSource<'a> {
    /// The shard's accepted client connections.
    Tcp(&'a TcpStream),
    /// The acceptor's listening socket.
    Listener(&'a TcpListener),
    /// The shard's wake socket.
    Udp(&'a UdpSocket),
}

#[cfg(unix)]
mod sys {
    use super::{Interest, PollSource, Readiness};
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks up to `timeout` (`None`: until something is ready) for
    /// readiness on `sources`; fills `out` (one slot per source) and
    /// returns how many sources are ready.
    pub fn wait(
        sources: &[(PollSource<'_>, Interest)],
        out: &mut [Readiness],
        timeout: Option<Duration>,
    ) -> usize {
        let mut fds: Vec<PollFd> = sources
            .iter()
            .map(|(s, interest)| {
                let fd = match s {
                    PollSource::Tcp(t) => t.as_raw_fd(),
                    PollSource::Listener(l) => l.as_raw_fd(),
                    PollSource::Udp(u) => u.as_raw_fd(),
                };
                let mut events = 0;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                PollFd {
                    fd,
                    events,
                    revents: 0,
                }
            })
            .collect();
        // Round up, so a wait for a deadline under 1 ms does not spin at 0;
        // -1 blocks with no timeout.
        let ms = timeout.map_or(-1, |t| {
            t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int
        });
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        let mut ready = 0;
        for (slot, fd) in out.iter_mut().zip(&fds) {
            *slot = Readiness::default();
            if rc > 0 {
                // Error/hangup surface as readable: the next read returns
                // the actual error or EOF and the state machine winds down.
                slot.readable = fd.revents & (POLLIN | POLLERR | POLLHUP) != 0;
                slot.writable = fd.revents & (POLLOUT | POLLERR | POLLHUP) != 0;
            }
            if slot.any() {
                ready += 1;
            }
        }
        ready
    }
}

#[cfg(not(unix))]
mod sys {
    use super::{Interest, PollSource, Readiness};
    use std::time::Duration;

    /// Portable fallback: report everything ready after a short nap and
    /// let the non-blocking sockets' `WouldBlock` do the filtering.
    pub fn wait(
        sources: &[(PollSource<'_>, Interest)],
        out: &mut [Readiness],
        timeout: Option<Duration>,
    ) -> usize {
        let nap = Duration::from_millis(2);
        std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
        for (slot, (_, interest)) in out.iter_mut().zip(sources) {
            *slot = Readiness {
                readable: interest.readable,
                writable: interest.writable,
            };
        }
        sources.len()
    }
}

/// Blocks up to `timeout` for readiness on `sources`, filling `out`
/// one-to-one. Returns the number of ready sources (0 on timeout).
///
/// `out.len()` must equal `sources.len()`.
pub fn poll_ready(
    sources: &[(PollSource<'_>, Interest)],
    out: &mut [Readiness],
    timeout: Duration,
) -> usize {
    poll_wait(sources, out, Some(timeout))
}

/// [`poll_ready`] with an optional timeout: `None` blocks until a source
/// is ready, so a set with a [`Waker`] sleeps until something happens.
pub fn poll_wait(
    sources: &[(PollSource<'_>, Interest)],
    out: &mut [Readiness],
    timeout: Option<Duration>,
) -> usize {
    assert_eq!(sources.len(), out.len(), "readiness slots must match");
    if sources.is_empty() {
        let nap = Duration::from_millis(5);
        std::thread::sleep(timeout.map_or(nap, |t| t.min(nap)));
        return 0;
    }
    sys::wait(sources, out, timeout)
}

/// Wakes a shard parked in [`poll_ready`] from another thread.
///
/// The receive half sits in the shard's poll set; [`Waker::wake`] sends
/// a one-byte loopback datagram, making the poll return immediately. The
/// shard drains the socket on wakeup, so spurious extra wakes coalesce.
pub struct Waker {
    tx: UdpSocket,
    rx: UdpSocket,
}

impl Waker {
    /// Binds a loopback socket pair for wakeups.
    pub fn new() -> std::io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_nonblocking(true)?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.set_nonblocking(true)?;
        tx.connect(rx.local_addr()?)?;
        Ok(Self { tx, rx })
    }

    /// The pollable receive half (register with [`Interest::READ`]).
    pub fn poll_half(&self) -> &UdpSocket {
        &self.rx
    }

    /// Sends a wake datagram; best-effort (a full socket buffer means a
    /// wake is already pending, which is just as good).
    pub fn wake(&self) {
        let _ = self.tx.send(&[1]);
    }

    /// Drains pending wake datagrams after a wakeup.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while self.rx.recv(&mut buf).is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn waker_wakes_poll_and_drains() {
        let waker = Waker::new().expect("waker");
        let sources = [(PollSource::Udp(waker.poll_half()), Interest::READ)];
        let mut ready = [Readiness::default()];
        // Nothing pending: a zero-timeout poll reports zero ready (unix);
        // the fallback path reports ready but recv below still filters.
        poll_ready(&sources, &mut ready, Duration::ZERO);
        waker.wake();
        let n = poll_ready(&sources, &mut ready, Duration::from_millis(1000));
        assert!(n >= 1, "wake datagram must make the poll return ready");
        assert!(ready[0].readable);
        waker.drain();
    }

    #[test]
    fn tcp_readability_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        client.write_all(b"ping").expect("write");
        let sources = [(PollSource::Tcp(&server), Interest::READ_WRITE)];
        let mut ready = [Readiness::default()];
        let n = poll_ready(&sources, &mut ready, Duration::from_millis(1000));
        assert!(n >= 1);
        assert!(ready[0].readable, "bytes in flight must report readable");
        assert!(ready[0].writable, "idle socket must report writable");
    }
}
