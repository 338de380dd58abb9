//! Minimal readiness shim over `poll(2)` — std-only, in keeping with
//! the workspace shim policy (no external crates; `std` already links
//! libc on every supported target, so the handful of symbols the event
//! loop needs are declared directly).
//!
//! Three things live here:
//!
//! * [`wait`] — level-triggered readiness over a borrowed
//!   [`PollFd`] slice, the only blocking point of the server's I/O
//!   loops (an idle loop sleeps in the kernel, consuming zero CPU);
//! * [`waker_pair`] — a [`UnixStream`] socketpair that lets worker
//!   completion callbacks (or a shutdown) interrupt a parked `poll`;
//! * small socket/rlimit helpers ([`set_send_buffer`],
//!   [`set_recv_buffer`], [`raise_nofile_limit`]) used to bound
//!   kernel-side buffering deterministically in tests and to let
//!   `tests/idle_conns.rs` hold 1k+ connections under a default 1024
//!   fd soft limit.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// One entry in a `poll(2)` set. Field order and width are fixed by the
/// C ABI (`struct pollfd`): do not reorder.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The file descriptor to watch (negative entries are ignored by
    /// the kernel, which is useful for holes).
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT` bits).
    pub events: i16,
    /// Returned events; also reports `POLLERR`/`POLLHUP`/`POLLNVAL`
    /// regardless of what was requested.
    pub revents: i16,
}

impl PollFd {
    /// Watches `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn returned(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

/// Readable (or a peer hangup that a read will observe as EOF).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported).
pub const POLLHUP: i16 = 0x010;
/// Invalid descriptor (always reported).
pub const POLLNVAL: i16 = 0x020;

/// Any condition that means "this connection is finished".
pub const POLLCLOSED: i16 = POLLERR | POLLHUP | POLLNVAL;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;
const RLIMIT_NOFILE: c_int = 7;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// Blocks until at least one entry is ready, the timeout elapses
/// (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)`: the caller
/// loops anyway). `None` sleeps indefinitely. Sub-millisecond timeouts
/// round *up* so a near-deadline caller cannot spin at timeout 0.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(t) if t.is_zero() => 0,
        Some(t) => {
            let ms = t.as_millis();
            let ms = if ms == 0 { 1 } else { ms };
            ms.min(c_int::MAX as u128) as c_int
        }
    };
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}

/// The write half of a wake pipe. Cloning is cheap (shared fd); waking
/// is a single non-blocking one-byte write, and a full pipe is success
/// (a wake is already pending, which is all a level-triggered poller
/// needs).
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupts the paired [`WakeRx`]'s `poll`.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// The read half of a wake pipe: polled (via [`WakeRx::fd`]) alongside
/// the sockets, drained once readable.
pub struct WakeRx {
    rx: UnixStream,
}

impl WakeRx {
    /// The descriptor to include in the poll set with [`POLLIN`].
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wake byte (coalescing bursts into one
    /// loop iteration).
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

/// A connected, non-blocking wake pipe (`UnixStream::pair`, so it stays
/// std-only).
pub fn waker_pair() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, WakeRx { rx }))
}

fn set_buf(fd: RawFd, opt: c_int, bytes: usize) -> io::Result<()> {
    let v: c_int = bytes.min(c_int::MAX as usize) as c_int;
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            (&v as *const c_int).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Caps the kernel send buffer of a socket. Bounding it makes "slow
/// reader" behavior deterministic: a stalled peer backs pressure up
/// into the server's own (bounded) write queue instead of megabytes of
/// autotuned kernel buffer.
pub fn set_send_buffer(sock: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_buf(sock.as_raw_fd(), SO_SNDBUF, bytes)
}

/// Caps the kernel receive buffer of a socket (shrinks the advertised
/// TCP window when applied before connect).
pub fn set_recv_buffer(sock: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    set_buf(sock.as_raw_fd(), SO_RCVBUF, bytes)
}

/// Raises the soft `RLIMIT_NOFILE` toward `want` (clamped to the hard
/// limit) and returns the resulting soft limit. Lets
/// `tests/idle_conns.rs` hold a thousand client sockets plus the
/// in-process server's accepted ends under environments whose default
/// soft limit is 1024.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut rl = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) } != 0 {
        return 0;
    }
    if rl.cur >= want {
        return rl.cur;
    }
    let target = RLimit { cur: want.min(rl.max), max: rl.max };
    if unsafe { setrlimit(RLIMIT_NOFILE, &target) } == 0 {
        target.cur
    } else {
        rl.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn waker_interrupts_an_indefinite_poll() {
        let (waker, wake_rx) = waker_pair().expect("pair");
        let handed = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handed.wake();
        });
        let mut fds = [PollFd::new(wake_rx.fd(), POLLIN)];
        let n = wait(&mut fds, None).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].returned(POLLIN));
        wake_rx.drain();
        // Drained: a short poll now times out instead of spinning.
        let started = Instant::now();
        let mut fds = [PollFd::new(wake_rx.fd(), POLLIN)];
        let n = wait(&mut fds, Some(Duration::from_millis(20))).expect("poll");
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(15));
        t.join().expect("waker thread");
    }

    #[test]
    fn repeated_wakes_coalesce_and_never_block() {
        let (waker, wake_rx) = waker_pair().expect("pair");
        // Far more wakes than the pipe buffers: the excess must be
        // dropped (wake-pending is idempotent), never block.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(wake_rx.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(100))).expect("poll"), 1);
        wake_rx.drain();
        let mut fds = [PollFd::new(wake_rx.fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).expect("poll"), 0);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_to_zero() {
        let (_waker, wake_rx) = waker_pair().expect("pair");
        let started = Instant::now();
        let mut fds = [PollFd::new(wake_rx.fd(), POLLIN)];
        let n = wait(&mut fds, Some(Duration::from_micros(100))).expect("poll");
        assert_eq!(n, 0);
        // Rounded up to 1ms: the call actually slept.
        assert!(started.elapsed() >= Duration::from_micros(500));
    }
}
