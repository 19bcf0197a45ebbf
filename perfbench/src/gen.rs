//! The open-loop load generator: one thread, a few client connections,
//! seeded Poisson arrivals. Requests are sent on schedule whether or not
//! earlier ones have been answered (pipelined on each connection), and
//! each is timed from the moment it was *due*, so a stall in the system
//! also charges the requests queued behind it.
//!
//! The generator speaks the workspace frame format (4-byte little-endian
//! length, then the payload) with its own code, so a change to the
//! program's codec does not change the load. Every payload carries its
//! request id at both ends around a seeded filler; the echo must match the
//! request byte for byte.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;

use crate::sys::{self, PollFd};
use crate::trace::Tracer;

/// A response that differs from its request: a correctness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Request payloads of one size: id, seeded filler, id.
#[derive(Debug, Clone)]
pub struct Payloads {
    template: Vec<u8>,
}

impl Payloads {
    /// Payloads of `len` bytes (at least 16) with filler from `seed`.
    #[must_use]
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(len >= 16, "a payload holds its id twice");
        let mut rng = SplitMix64::new(seed);
        let template = (0..len).map(|_| rng.next_u32() as u8).collect();
        Payloads { template }
    }

    /// Appends request `id` as one frame to `out`.
    pub fn push_frame(&self, id: u64, out: &mut Vec<u8>) {
        let n = self.template.len();
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&self.template[8..n - 8]);
        out.extend_from_slice(&id.to_le_bytes());
    }

    /// The request payload for `id`.
    #[must_use]
    pub fn payload(&self, id: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.template.len() + 4);
        self.push_frame(id, &mut v);
        v.split_off(4)
    }

    /// Whether `frame` is exactly the payload of request `id`.
    #[must_use]
    pub fn matches(&self, id: u64, frame: &[u8]) -> bool {
        let n = self.template.len();
        frame.len() == n
            && frame[..8] == id.to_le_bytes()
            && frame[n - 8..] == id.to_le_bytes()
            && frame[8..n - 8] == self.template[8..n - 8]
    }
}

/// One pipelined client connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_len: usize,
    /// (request id, due ns) of requests awaiting their response, in order.
    inflight: VecDeque<(u64, u64)>,
    dead: bool,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Client {
            addr,
            stream: open(addr)?,
            out: Vec::new(),
            out_pos: 0,
            inbuf: vec![0; 1 << 16],
            in_len: 0,
            inflight: VecDeque::new(),
            dead: false,
        })
    }

    /// Abandons whatever the connection still holds and opens a fresh
    /// one, so a late response to an abandoned request can never pair with
    /// a later request. A failed reconnect leaves the client dead.
    fn reconnect(&mut self) {
        self.out.clear();
        self.out_pos = 0;
        self.in_len = 0;
        self.inflight.clear();
        match open(self.addr) {
            Ok(stream) => self.stream = stream,
            Err(_) => self.dead = true,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "peer closed")),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > (1 << 20) {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what the kernel has; returns `false` on EOF.
    fn fill(&mut self) -> io::Result<bool> {
        loop {
            if self.in_len == self.inbuf.len() {
                let grown = self.inbuf.len() * 2;
                self.inbuf.resize(grown, 0);
            }
            match self.stream.read(&mut self.inbuf[self.in_len..]) {
                Ok(0) => return Ok(false),
                Ok(n) => self.in_len += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one frame and waits for its echo: the set-up probe.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, a timeout, or a wrong echo.
    pub fn round_trip(
        &mut self,
        payloads: &Payloads,
        id: u64,
        timeout: Duration,
    ) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        payloads.push_frame(id, &mut self.out);
        self.inflight.push_back((id, 0));
        while !self.inflight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(ErrorKind::TimedOut, "no echo"));
            }
            self.flush()?;
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), !self.out.is_empty())];
            sys::poll(&mut fds, (deadline - now).min(Duration::from_millis(50)))?;
            if !self.fill()? {
                return Err(io::Error::new(ErrorKind::UnexpectedEof, "closed"));
            }
            let mut bad = false;
            self.take_frames(|fid, frame| bad |= !payloads.matches(fid, frame), |_, _| {});
            if bad {
                return Err(io::Error::new(ErrorKind::InvalidData, "wrong echo"));
            }
        }
        Ok(())
    }

    /// Pops every complete frame, matching it to the oldest in-flight
    /// request: `check(id, frame)` then `done(id, due_ns)`.
    fn take_frames(&mut self, mut check: impl FnMut(u64, &[u8]), mut done: impl FnMut(u64, u64)) {
        let mut pos = 0;
        while self.in_len - pos >= 4 {
            let len =
                u32::from_le_bytes(self.inbuf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if self.in_len - pos - 4 < len {
                if 4 + len > self.inbuf.len() {
                    self.inbuf.resize((4 + len).next_power_of_two(), 0);
                }
                break;
            }
            let frame = &self.inbuf[pos + 4..pos + 4 + len];
            match self.inflight.pop_front() {
                Some((id, due)) => {
                    check(id, frame);
                    done(id, due);
                }
                // A response nobody asked for never matches.
                None => check(u64::MAX, frame),
            }
            pos += 4 + len;
        }
        if pos > 0 {
            self.inbuf.copy_within(pos..self.in_len, 0);
            self.in_len -= pos;
        }
    }
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The generator spins (polling and yielding) rather than sleeps when
/// its next event is closer than this.
pub const SPIN_NS: u64 = 1_000_000;

/// Limits of one step.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Outstanding requests at which the generator holds back due
    /// requests until some complete: the step's backlog is growing, and
    /// its goodput reads the system's capacity. Held-back requests are sent
    /// as the backlog drains, past the window if need be, and keep their
    /// due time; those still unsent at the drain deadline fail.
    pub backlog_cap: usize,
    /// Latency limit of the workload: a response within it, inside the
    /// window, counts toward the step's good rate.
    pub latency_limit: Duration,
    /// How long after the window a request may still be sent or answered
    /// before it counts as failed.
    pub drain_timeout: Duration,
}

/// What one step at one rate measured.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The step's window, s.
    pub window_s: f64,
    /// Requests due in the step (all are attempted).
    pub attempted: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub completed: u64,
    /// Requests answered within the window.
    pub completed_in_window: u64,
    /// Requests answered within the window and the latency limit.
    pub good_in_window: u64,
    /// Requests unsent or unanswered by the drain deadline, or lost to a
    /// dead connection.
    pub failed: u64,
    /// Due → response latency of every answered request, ns.
    pub lat_ns: Vec<u64>,
    /// Send time − due time of every request sent on schedule, ns: the
    /// generator's own lateness. Requests the backlog cap held back are
    /// left out, since their delay is the system's.
    pub lag_ns: Vec<u64>,
    /// Whether the backlog cap held requests back.
    pub backlogged: bool,
    /// CPU the generator thread used during the step.
    pub gen_cpu: Duration,
    /// CPU the whole process used during the step.
    pub proc_cpu: Duration,
}

impl StepStats {
    /// Requests per second answered within the window and the latency
    /// limit.
    #[must_use]
    pub fn good_rate(&self) -> f64 {
        self.good_in_window as f64 / self.window_s.max(1e-9)
    }

    /// Appends a later step at the same rate, as if one step had run both
    /// windows.
    pub fn absorb(&mut self, later: StepStats) {
        self.rate = later.rate;
        self.window_s += later.window_s;
        self.attempted += later.attempted;
        self.sent += later.sent;
        self.completed += later.completed;
        self.completed_in_window += later.completed_in_window;
        self.good_in_window += later.good_in_window;
        self.failed += later.failed;
        self.lat_ns.extend(later.lat_ns);
        self.lag_ns.extend(later.lag_ns);
        self.backlogged |= later.backlogged;
        self.gen_cpu += later.gen_cpu;
        self.proc_cpu += later.proc_cpu;
    }
}

/// Runs one open-loop step: requests due at `offsets` (ns from the start,
/// ascending, all within `window`) go round-robin over `clients`.
///
/// # Errors
///
/// Returns a [`Violation`] when a response differs from its request.
#[allow(clippy::too_many_arguments)]
pub fn run_step(
    clients: &mut [Client],
    payloads: &Payloads,
    rate: f64,
    offsets: &[u64],
    window: Duration,
    id_base: u64,
    limits: Limits,
    tracer: &mut Tracer,
    parent: u32,
) -> Result<StepStats, Violation> {
    sys::set_timer_slack(Duration::from_micros(1));
    let mut st = StepStats {
        rate,
        attempted: offsets.len() as u64,
        window_s: window.as_secs_f64(),
        lat_ns: Vec::with_capacity(offsets.len()),
        lag_ns: Vec::with_capacity(offsets.len()),
        ..StepStats::default()
    };
    let window_ns = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
    let drain_ns = window_ns + u64::try_from(limits.drain_timeout.as_nanos()).unwrap_or(0);
    let limit_ns = u64::try_from(limits.latency_limit.as_nanos()).unwrap_or(u64::MAX);
    let gen_cpu0 = sys::thread_cpu_time();
    let proc_cpu0 = streambal_transport::poll::process_cpu_time();
    let start = Instant::now();
    let step_span = tracer.record("gen.step", parent, start, start);
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut violation: Option<Violation> = None;
    // Whether the requests being sent now were held back by the backlog
    // cap; cleared once the generator is back on schedule.
    let mut held = false;
    let mut fds: Vec<PollFd> = Vec::with_capacity(clients.len());
    // Traced runs keep one request span in this many.
    const SPAN_EVERY: u64 = 16;
    loop {
        let now_ns = ns_since(start);
        while next < offsets.len() && offsets[next] <= now_ns {
            if outstanding >= limits.backlog_cap {
                st.backlogged = true;
                held = true;
                break;
            }
            let c = next % clients.len();
            let id = id_base + next as u64;
            let client = &mut clients[c];
            if client.dead {
                st.failed += 1;
            } else {
                payloads.push_frame(id, &mut client.out);
                client.inflight.push_back((id, offsets[next]));
                outstanding += 1;
                st.sent += 1;
                if !held {
                    st.lag_ns.push(now_ns - offsets[next]);
                }
            }
            next += 1;
        }
        if next >= offsets.len() || offsets[next] > now_ns {
            held = false;
        }
        for c in clients.iter_mut().filter(|c| !c.dead) {
            if c.flush().is_err() {
                kill(c, &mut st, &mut outstanding);
            }
        }
        for c in clients.iter_mut().filter(|c| !c.dead) {
            let open = c.fill();
            let read_ns = ns_since(start);
            c.take_frames(
                |id, frame| {
                    if violation.is_none() && !payloads.matches(id, frame) {
                        violation = Some(Violation(format!(
                            "response for request {id} differs from the request ({} bytes)",
                            frame.len()
                        )));
                    }
                },
                |id, due| {
                    st.completed += 1;
                    outstanding -= 1;
                    let lat = read_ns.saturating_sub(due);
                    st.lat_ns.push(lat);
                    if read_ns <= window_ns {
                        st.completed_in_window += 1;
                        if lat <= limit_ns {
                            st.good_in_window += 1;
                        }
                    }
                    if tracer.enabled() && id % SPAN_EVERY == 0 {
                        let t = |ns: u64| start + Duration::from_nanos(ns);
                        tracer.record("gen.request", step_span, t(due), t(read_ns));
                    }
                },
            );
            if !matches!(open, Ok(true)) {
                kill(c, &mut st, &mut outstanding);
            }
        }
        if let Some(v) = violation {
            return Err(v);
        }
        let now_ns = ns_since(start);
        let sending_done = next >= offsets.len();
        if sending_done && outstanding == 0 {
            break;
        }
        if now_ns >= drain_ns {
            st.failed += (offsets.len() - next) as u64;
            for c in clients.iter_mut().filter(|c| !c.dead) {
                if !c.inflight.is_empty() || c.in_len > 0 {
                    // Its late responses would pair with the next step's
                    // requests.
                    st.failed += c.inflight.len() as u64;
                    c.reconnect();
                }
            }
            break;
        }
        let wake_ns = if sending_done || outstanding >= limits.backlog_cap {
            drain_ns
        } else {
            offsets[next]
        };
        // Sleep only while the next event is far off; near it, poll without
        // blocking and yield, so the generator's CPU never idles into a
        // slow wake-up (milliseconds on a virtual machine) and any system
        // thread that wants the CPU still gets it at once.
        let wait = wake_ns.saturating_sub(now_ns);
        let timeout = if wait > SPIN_NS {
            Duration::from_nanos((wait - SPIN_NS).min(10_000_000))
        } else {
            Duration::ZERO
        };
        fds.clear();
        fds.extend(
            clients
                .iter()
                .filter(|c| !c.dead)
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.out_pos < c.out.len())),
        );
        if fds.is_empty() || sys::poll(&mut fds, timeout).is_err() {
            std::thread::sleep(timeout);
        }
        if timeout.is_zero() {
            std::thread::yield_now();
        }
    }
    st.gen_cpu = sys::thread_cpu_time().saturating_sub(gen_cpu0);
    st.proc_cpu = streambal_transport::poll::process_cpu_time().saturating_sub(proc_cpu0);
    tracer.finish(step_span, Instant::now());
    Ok(st)
}

fn kill(c: &mut Client, st: &mut StepStats, outstanding: &mut usize) {
    st.failed += c.inflight.len() as u64;
    *outstanding -= c.inflight.len();
    c.inflight.clear();
    c.dead = true;
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_match_only_their_own_id() {
        let p = Payloads::new(128, 3);
        let a = p.payload(7);
        assert_eq!(a.len(), 128);
        assert!(p.matches(7, &a));
        assert!(!p.matches(8, &a));
        let mut corrupt = a.clone();
        corrupt[60] ^= 1;
        assert!(!p.matches(7, &corrupt));
        assert!(!p.matches(7, &a[..127]));
    }

    /// An echo peer on loopback for `conns` connections, one thread each.
    /// The first connection holds its first echo back for `delay`.
    fn echo_peer(conns: usize, delay: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let handlers: Vec<_> = (0..conns)
                .map(|i| {
                    let (mut s, _) = listener.accept().expect("accept");
                    let delay = if i == 0 { delay } else { Duration::ZERO };
                    std::thread::spawn(move || {
                        let mut head = [0u8; 4];
                        let mut first = true;
                        while s.read_exact(&mut head).is_ok() {
                            let mut body = vec![0; u32::from_le_bytes(head) as usize];
                            if s.read_exact(&mut body).is_err() {
                                return;
                            }
                            if std::mem::take(&mut first) {
                                std::thread::sleep(delay);
                            }
                            if s.write_all(&head)
                                .and_then(|()| s.write_all(&body))
                                .is_err()
                            {
                                return;
                            }
                        }
                    })
                })
                .collect();
            for h in handlers {
                h.join().expect("echo handler");
            }
        });
        (addr, peer)
    }

    fn limits(cap: usize, drain: Duration) -> Limits {
        Limits {
            backlog_cap: cap,
            latency_limit: Duration::from_secs(1),
            drain_timeout: drain,
        }
    }

    #[test]
    fn a_response_after_the_drain_deadline_never_pairs_with_a_later_request() {
        let (addr, peer) = echo_peer(2, Duration::from_millis(300));
        let p = Payloads::new(64, 5);
        let mut clients = vec![Client::connect(addr).expect("connect")];
        let quiet = &mut Tracer::new(false);
        let window = Duration::from_millis(5);
        let first = run_step(
            &mut clients,
            &p,
            200.0,
            &[0],
            window,
            1,
            limits(16, Duration::from_millis(50)),
            quiet,
            0,
        )
        .expect("no response yet, so nothing to mismatch");
        assert_eq!((first.attempted, first.completed, first.failed), (1, 0, 1));
        // The late echo of request 1 arrives during this step; it must not
        // be read as the answer to request 2.
        let second = run_step(
            &mut clients,
            &p,
            400.0,
            &[0, 1_000_000],
            window,
            2,
            limits(16, Duration::from_secs(2)),
            quiet,
            0,
        )
        .expect("echoes match their requests");
        assert_eq!((second.completed, second.failed), (2, 0));
        drop(clients);
        peer.join().expect("peer");
    }

    #[test]
    fn requests_held_back_by_the_backlog_cap_are_sent_late_and_not_counted_as_lag() {
        let (addr, peer) = echo_peer(1, Duration::from_millis(200));
        let p = Payloads::new(64, 6);
        let mut clients = vec![Client::connect(addr).expect("connect")];
        // Ten requests 1 ms apart; the first echo takes 200 ms and only one
        // request may be outstanding, so requests 2..10 are held back past
        // the 20 ms window.
        let offsets: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let st = run_step(
            &mut clients,
            &p,
            1_000.0,
            &offsets,
            Duration::from_millis(20),
            1,
            limits(1, Duration::from_secs(2)),
            &mut Tracer::new(false),
            0,
        )
        .expect("echoes match their requests");
        assert!(st.backlogged);
        assert_eq!((st.attempted, st.completed, st.failed), (10, 10, 0));
        assert_eq!(
            st.lag_ns.len(),
            1,
            "only the first request went out on schedule"
        );
        assert!(st.lag_ns[0] < 20_000_000, "lag {} ns", st.lag_ns[0]);
        assert!(
            st.lat_ns.iter().all(|&l| l >= 150_000_000),
            "{:?}",
            st.lat_ns
        );
        drop(clients);
        peer.join().expect("peer");
    }
}
