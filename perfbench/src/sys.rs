//! The few Linux calls the benchmark needs that the workspace does not
//! expose: a nanosecond-timeout `ppoll` for the open-loop generator, the
//! calling thread's CPU clock (so the generator's own CPU can be taken
//! out of `cpu_us_per_op`), the process's peak RSS, and the thread timer
//! slack (so a generator sleep ends within microseconds of its due time
//! rather than the default 50 µs late); and the machine's CPU ticks, whose
//! steal share tells a run slowed by the virtual machine's host apart from
//! a slow program.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark drives Linux-only calls (ppoll, prctl, clock_gettime)");

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// One `pollfd` entry.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

impl PollFd {
    /// An entry for `fd`, asking for readability and, when `write` is
    /// set, writability.
    #[must_use]
    pub fn new(fd: RawFd, write: bool) -> Self {
        PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        }
    }
}

/// Waits until one of `fds` is ready or `timeout` passes, with nanosecond
/// timeout resolution. Returns the number of ready entries.
///
/// # Errors
///
/// Propagates `ppoll` failures other than `EINTR` (reported as zero).
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `#[repr(C)]` pollfd entries; `ts` outlives the call; a null signal
    // mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}

/// CPU time consumed by the calling thread.
#[must_use]
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc < 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.sec.max(0) as u64, ts.nsec.clamp(0, 999_999_999) as u32)
}

/// Peak resident set size of this process, in bytes.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the kernel's `struct rusage` layout on 64-bit
    // Linux and is writable for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc < 0 {
        return 0;
    }
    // `ru_maxrss` is in kilobytes on Linux.
    (usage.maxrss.max(0) as u64) * 1024
}

/// Sets the calling thread's timer slack, so timed waits end within
/// `slack` of their deadline.
pub fn set_timer_slack(slack: Duration) {
    let ns = u64::try_from(slack.as_nanos()).unwrap_or(u64::MAX).max(1);
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // caller memory; failure only leaves the default slack in place.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
}

/// The machine's (steal, total) CPU ticks from `/proc/stat`; zeros where
/// it cannot be read. Steal is time the host ran something else while a
/// virtual CPU of this machine wanted to run.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}
