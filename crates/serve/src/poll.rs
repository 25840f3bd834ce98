//! `poll(2)`: the one blocking primitive every live-server thread waits in.
//!
//! `std` has no readiness wait and this crate may take no dependency, so
//! this module declares the libc symbol itself. It is the crate's only
//! `unsafe` (`lib.rs` denies it everywhere else); everything it exports
//! is safe to call with any arguments.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Data may be read without blocking (or the peer closed: a read says).
pub(crate) const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition (output only).
pub(crate) const POLLERR: c_short = 0x008;
/// Peer hung up (output only).
pub(crate) const POLLHUP: c_short = 0x010;
/// The fd is not open (output only).
pub(crate) const POLLNVAL: c_short = 0x020;

/// `struct pollfd`: same fields, order and types on every unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`; a negative `fd` is skipped by the kernel.
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported any of `mask` on this fd.
    pub(crate) fn ready(&self, mask: c_short) -> bool {
        self.revents & mask != 0
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until an fd in `fds` is ready or `timeout` passes (`None`: no
/// limit) and returns how many are ready, 0 on timeout. The timeout is
/// rounded *up* to a millisecond, so the wait never ends early; a signal
/// (`EINTR`) resumes it for the time that is left.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        let ms = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // structs laid out as `struct pollfd`, and its own length is the
        // count passed, so the kernel reads `fd`/`events` and writes
        // `revents` only inside it (an empty slice passes a count of 0
        // and its pointer is never dereferenced). `poll` keeps no pointer
        // after it returns and takes no ownership of the descriptors: a
        // closed or never-opened fd is answered with `POLLNVAL`, not
        // undefined behaviour.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd as _;
    use std::os::unix::net::UnixStream;

    #[test]
    fn times_out_with_zero_ready_and_never_early() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // A sub-millisecond timeout must round up, not down to "return now".
        for timeout in [Duration::from_micros(300), Duration::from_millis(20)] {
            let start = Instant::now();
            assert_eq!(wait(&mut fds, Some(timeout)).unwrap(), 0);
            assert!(
                start.elapsed() >= timeout,
                "woke after {:?}",
                start.elapsed()
            );
            assert!(!fds[0].ready(POLLIN));
        }
    }

    #[test]
    fn reports_readiness_on_the_right_index() {
        let (a, _a_peer) = UnixStream::pair().unwrap();
        let (b, mut b_peer) = UnixStream::pair().unwrap();
        b_peer.write_all(b"x").unwrap();
        let mut fds = [
            PollFd::new(a.as_raw_fd(), POLLIN),
            PollFd::new(-1, POLLIN),
            PollFd::new(b.as_raw_fd(), POLLIN),
        ];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(!fds[0].ready(POLLIN) && !fds[1].ready(!0) && fds[2].ready(POLLIN));
        // Writable and hung-up are told apart from readable.
        drop(b_peer);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN | POLLOUT)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(POLLOUT) && !fds[0].ready(POLLIN | POLLHUP));
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(POLLHUP));
    }

    #[test]
    fn survives_an_empty_set_and_a_dead_fd() {
        let start = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_millis(5))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(5));
        // Far above any descriptor limit, so certainly not open (a closed
        // fd's number could be reused by a test running beside this one).
        let mut fds = [PollFd::new(1 << 30, POLLIN)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(POLLNVAL));
    }
}
