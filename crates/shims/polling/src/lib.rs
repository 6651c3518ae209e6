//! Offline stand-in for the `polling` crate: level-triggered readiness
//! notification over the POSIX `poll(2)` system call, std-only.
//!
//! The real crate wraps epoll/kqueue/IOCP behind a registry; this shim
//! keeps the *stateless* shape of `poll(2)` itself — the caller hands a
//! fresh [`PollFd`] slice to every [`poll`] call — which is exactly what
//! a server with a per-iteration connection registry wants, and needs no
//! libc crate: `std` already links the C runtime, so the one symbol is
//! declared here directly.
//!
//! Two pieces:
//!
//! * [`poll`] — blocks until any fd in the slice is ready (or the
//!   timeout elapses), filling each entry's `revents`.
//! * [`Waker`] — a `std::io::pipe` pair whose read end participates in
//!   the poll set, so other threads can interrupt a blocked [`poll`]
//!   ([`Waker::wake`] is async-signal-safe cheap: one byte, written only
//!   while no wake is already pending).
//!
//! On non-Unix targets [`poll`] returns `ErrorKind::Unsupported`;
//! callers fall back to blocking I/O (the service crate keeps its legacy
//! thread-per-connection loop for exactly that case).

use std::io;
use std::time::Duration;

/// Readable readiness (POSIX `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable readiness (POSIX `POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (POSIX `POLLERR`; only ever set in `revents`).
pub const POLLERR: i16 = 0x008;
/// Peer hang-up (POSIX `POLLHUP`; only ever set in `revents`).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (POSIX `POLLNVAL`; only ever set in `revents`).
pub const POLLNVAL: i16 = 0x020;

/// One entry of the poll set — ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: i32,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A poll-set entry watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the fd is readable (or has pending hang-up/error state,
    /// which a read will surface).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// True when the fd is writable.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR) != 0
    }

    /// True when any event fired.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use std::ffi::{c_int, c_ulong};
    use std::io;
    use std::time::Duration;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub fn poll_impl(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            // poll(2) takes whole milliseconds; round up so a short
            // positive timeout never becomes a busy-spin 0.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(c_int::MAX as u128) as c_int,
            None => -1,
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `pollfd`-layout entries, which poll(2) may write.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                // A signal woke the call: report "nothing ready" and let
                // the caller loop.
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(unix))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    pub fn poll_impl(_fds: &mut [PollFd], _timeout: Option<Duration>) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poll(2) readiness is only wired up on Unix targets",
        ))
    }
}

/// Blocks until at least one entry is ready or `timeout` elapses
/// (`None` = wait forever). Returns the number of ready entries;
/// `Ok(0)` on timeout or signal interruption. Each ready entry's
/// `revents` is filled in place.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    sys::poll_impl(fds, timeout)
}

/// Cross-thread wakeup for a blocked [`poll`]: register
/// [`Waker::read_fd`] with `POLLIN` in the poll set; any thread calls
/// [`Waker::wake`] to make that entry readable. [`Waker::drain`] resets
/// it (call whenever the entry reports readable).
///
/// At most one wake byte is in flight at a time (an atomic flag
/// suppresses duplicates), so the pipe can never fill up and `wake`
/// never blocks.
pub struct Waker {
    reader: std::io::PipeReader,
    writer: std::io::PipeWriter,
    signaled: std::sync::atomic::AtomicBool,
}

impl Waker {
    /// Builds the pipe pair.
    pub fn new() -> io::Result<Self> {
        let (reader, writer) = std::io::pipe()?;
        Ok(Waker {
            reader,
            writer,
            signaled: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The fd to register with `POLLIN`.
    #[cfg(unix)]
    pub fn read_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.reader.as_raw_fd()
    }

    /// The fd to register with `POLLIN` (unsupported off-Unix).
    #[cfg(not(unix))]
    pub fn read_fd(&self) -> i32 {
        -1
    }

    /// Makes the read end readable, interrupting a blocked [`poll`].
    /// Cheap and non-blocking from any thread.
    pub fn wake(&self) {
        use std::io::Write;
        use std::sync::atomic::Ordering;
        if !self.signaled.swap(true, Ordering::SeqCst) {
            let _ = (&self.writer).write(&[1]);
        }
    }

    /// Consumes pending wake bytes. Call only after a poll reported the
    /// read end readable (the read would block otherwise). Clearing the
    /// flag *before* reading means a `wake` racing this drain leaves the
    /// fd readable for the next poll — wakeups are never lost.
    pub fn drain(&self) {
        use std::io::Read;
        use std::sync::atomic::Ordering;
        self.signaled.store(false, Ordering::SeqCst);
        let mut sink = [0u8; 16];
        let _ = (&self.reader).read(&mut sink);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn timeout_expires_when_nothing_is_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].ready());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn readable_socket_reports_pollin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut a = TcpStream::connect(addr).unwrap();
        let (mut b, _) = listener.accept().unwrap();
        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable(), "peer wrote a byte");
        assert!(fds[0].writable(), "fresh socket has send-buffer space");
        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf[0], b'x');
    }

    #[test]
    fn waker_interrupts_a_blocked_poll_and_drains() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let w = std::sync::Arc::clone(&waker);
        let t0 = Instant::now();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
            w.wake(); // duplicate is suppressed, not queued
        });
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(t0.elapsed() < Duration::from_secs(5), "woke early");
        waker.drain();
        // Drained: the next poll times out instead of spinning readable.
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "drain consumed the wake byte");
        // And a wake after drain is visible again.
        waker.wake();
        let mut fds = [PollFd::new(waker.read_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
    }
}
