//! `poll(2)` and a socket-pair waker: the workspace's one FFI declaration.
//!
//! `std` exposes nonblocking sockets but no way to *wait* on several of
//! them, and the build is offline, so there is no `libc` or `mio` to lean
//! on. `poll` is the smallest portable answer: one function and one
//! `#[repr(C)]` struct whose layout and flag values are the same on Linux,
//! macOS and the BSDs, already linked through the C library `std` itself
//! uses. Everything `unsafe` in the workspace is the single call in
//! [`wait`]; every other crate carries `#![forbid(unsafe_code)]` and this
//! crate `#![deny(unsafe_code)]` with one `#[allow]` on this module.
//!
//! A thread blocked in `poll` cannot be reached through a condvar, so
//! [`Waker`] is a nonblocking `UnixStream` pair: any thread writes a byte
//! to one end, the waiter polls the other for `POLLIN` alongside its
//! sockets and drains it on wake-up.

use std::ffi::{c_int, c_short};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Data can be read without blocking (also set at end-of-stream).
pub(crate) const POLLIN: c_short = 0x001;
/// Data can be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition; reported whether or not it was asked for.
pub(crate) const POLLERR: c_short = 0x008;
/// Both directions are closed; reported whether or not it was asked for.
pub(crate) const POLLHUP: c_short = 0x010;
/// The descriptor is not open; reported whether or not it was asked for.
pub(crate) const POLLNVAL: c_short = 0x020;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

/// One entry of the interest set: C's `struct pollfd`, field for field.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// An entry the kernel skips (negative descriptors are ignored and
    /// report no events) — keeps the indices of its neighbours stable.
    pub(crate) fn vacant() -> PollFd {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }

    pub(crate) fn set_events(&mut self, events: c_short) {
        self.events = events;
    }

    /// What the last [`wait`] reported for this entry.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`:
/// indefinitely) and return how many entries have non-zero `revents`; 0
/// means the timeout expired. `EINTR` is retried with the time that
/// remains. The timeout is rounded *up* to whole milliseconds, so a caller
/// waiting for a deadline never wakes before it.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let millis = match deadline {
            None => -1,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let millis = left.as_nanos().div_ceil(1_000_000);
                c_int::try_from(millis).unwrap_or(c_int::MAX)
            }
        };
        let nfds = NfdsT::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `PollFd`s, laid out as C's `struct pollfd`, and `nfds` is its
        // length, so the kernel reads and writes only inside the slice.
        // `poll` keeps no pointer past its return. Descriptors in the set
        // need not be valid: a closed one is reported as `POLLNVAL`.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, millis) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// Cross-thread wake-up for a thread blocked in [`wait`].
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Make the waiter's next (or current) [`wait`] return. Wakes are
    /// sticky and coalesce: any number of them before the waiter drains
    /// cost it one wake-up. A full socket buffer means thousands of wakes
    /// are already pending, so `WouldBlock` is as good as success.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume every pending wake. Call *before* looking at the state the
    /// wakers published, so a wake that races with the look is not lost.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// The descriptor to poll for `POLLIN`: the read end.
impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn waker_entry(waker: &Waker) -> [PollFd; 1] {
        [PollFd::new(waker, POLLIN)]
    }

    #[test]
    fn timeout_expires_with_nothing_ready_and_never_early() {
        let waker = Waker::new().expect("socket pair");
        let mut fds = waker_entry(&waker);
        let timeout = Duration::from_micros(20_300);
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Some(timeout)).expect("poll"), 0);
        assert!(started.elapsed() >= timeout, "woke before the deadline");
        assert_eq!(fds[0].revents(), 0);
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).expect("poll"), 0);
    }

    #[test]
    fn a_wake_byte_ends_an_indefinite_wait() {
        let waker = Waker::new().expect("socket pair");
        let mut fds = waker_entry(&waker);
        std::thread::scope(|scope| {
            scope.spawn(|| waker.wake());
            assert_eq!(wait(&mut fds, None).expect("poll"), 1);
        });
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }

    #[test]
    fn double_wake_coalesces_into_one_wakeup() {
        let waker = Waker::new().expect("socket pair");
        let mut fds = waker_entry(&waker);
        waker.wake();
        waker.wake();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        waker.drain();
        assert_eq!(
            wait(&mut fds, Some(Duration::from_millis(10))).expect("poll"),
            0,
            "a second wake-up survived the drain"
        );
    }

    #[test]
    fn closed_peer_reports_hangup_without_being_asked() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        // Unread bytes at close make the peer's kernel answer with a reset.
        (&client).write_all(b"unread").expect("write");
        drop(served);
        let mut fds = [PollFd::new(&client, 0), PollFd::vacant()];
        assert_eq!(
            wait(&mut fds, Some(Duration::from_secs(5))).expect("poll"),
            1
        );
        assert_ne!(fds[0].revents() & (POLLHUP | POLLERR), 0);
        assert_eq!(fds[1].revents(), 0, "a vacant entry reported events");
    }
}
