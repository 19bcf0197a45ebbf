//! Side measurements of the traced run, so that each end-to-end latency
//! reads as a floor plus the overhead of the layers above it: the
//! loopback floor (the same generator straight to one echo backend), the
//! frame codec over in-memory streams, `BackendPool::pick` under one and
//! two contending threads, and the `transport::bounded` channel.

use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;
use streambal_proxy::{BackendPool, EchoBackend, FrameReader, FrameWriter, Poll};
use streambal_telemetry::Telemetry;
use streambal_transport::bounded;

use crate::gen::{run_step, Client, Limits, Payloads, Violation};
use crate::proxy;
use crate::report::Report;
use crate::stats::{poisson_offsets, windowed};
use crate::trace::Tracer;

/// Loopback floor: `rate` requests/s of `frame`-byte payloads over two
/// connections straight to one echo backend, for `window`.
///
/// # Errors
///
/// Returns a [`Violation`] on a wrong echo or a set-up failure.
pub fn floor(
    frame: usize,
    rate: f64,
    window: Duration,
    seed: u64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), Violation> {
    let io = |e: std::io::Error| Violation(format!("floor set-up failed: {e}"));
    let mut rng = SplitMix64::new(seed ^ 0x000F_1002);
    let payloads = Payloads::new(frame, rng.next_u64());
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("valid address");
    let echo = EchoBackend::spawn(addr).map_err(io)?;
    let mut clients = (0..proxy::CLIENTS)
        .map(|_| Client::connect(echo.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    for (i, c) in clients.iter_mut().enumerate() {
        c.round_trip(&payloads, u64::MAX - i as u64, Duration::from_secs(5))
            .map_err(io)?;
    }
    let offsets = poisson_offsets(&mut rng, rate, window.as_nanos() as u64);
    let limits = Limits {
        backlog_cap: 4_096,
        latency_limit: Duration::from_secs(1),
        drain_timeout: Duration::from_secs(2),
    };
    let (st, _) = tracer.span("side.floor", 0, || {
        run_step(
            &mut clients,
            &payloads,
            rate,
            &offsets,
            window,
            1,
            limits,
            &mut Tracer::new(false),
            0,
        )
    });
    let st = st?;
    r.set("floor.rtt_p50_us", windowed(&st.lat_ns, 0.5), "us");
    r.set("floor.rtt_p99_us", windowed(&st.lat_ns, 0.99), "us");
    Ok(())
}

/// Median over `reps` repetitions of the time per call of `f`, each
/// repetition calling it for about `budget`, in ns.
fn time_per_call(reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut per: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while calls == 0 || t.elapsed() < budget {
                for _ in 0..16 {
                    f();
                }
                calls += 16;
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2]
}

/// Time per repetition of a side micro-measurement.
const REP: Duration = Duration::from_millis(20);

/// `FrameReader::poll_frame` and `FrameWriter::enqueue`/`write_to` at
/// `frame` bytes, over in-memory streams, reported as
/// `frame.{decode,encode}_ns<suffix>`.
pub fn codec(frame: usize, suffix: &str, tracer: &mut Tracer, r: &mut Report) {
    let payload = Payloads::new(frame, 11).payload(1);
    // Enough frames per pass to amortize the pass set-up.
    let per_pass = (64 * 1024 / frame).clamp(4, 512);
    let mut wire = Vec::with_capacity(per_pass * (frame + 4));
    for _ in 0..per_pass {
        wire.extend_from_slice(&(frame as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    let ((), _) = tracer.span("side.frame_decode", 0, || {
        let ns = time_per_call(9, REP, || {
            let mut reader = FrameReader::new();
            let mut cursor = Cursor::new(&wire[..]);
            for _ in 0..per_pass {
                match reader.poll_frame(&mut cursor) {
                    Ok(Poll::Frame(f)) => {
                        black_box(f);
                    }
                    other => panic!("in-memory stream yields whole frames: {other:?}"),
                }
            }
        });
        r.set(
            &format!("frame.decode_ns{suffix}"),
            ns / per_pass as f64,
            "ns",
        );
    });
    let ((), _) = tracer.span("side.frame_encode", 0, || {
        let mut writer = FrameWriter::new();
        let mut sink: Vec<u8> = Vec::with_capacity(wire.len());
        let ns = time_per_call(9, REP, || {
            sink.clear();
            for _ in 0..per_pass {
                writer.enqueue(black_box(&payload));
            }
            writer
                .write_to(&mut sink)
                .expect("writing to memory succeeds");
            black_box(sink.len());
        });
        r.set(
            &format!("frame.encode_ns{suffix}"),
            ns / per_pass as f64,
            "ns",
        );
    });
}

/// `BackendPool::pick` over three backends, alone and with a second
/// thread picking concurrently.
pub fn pick(tracer: &mut Tracer, r: &mut Report) {
    let addrs: Vec<SocketAddr> = (0..3)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], 9 + i)))
        .collect();
    let pool = BackendPool::new(&addrs);
    let ((), _) = tracer.span("side.pick_1t", 0, || {
        let ns = time_per_call(5, REP, || {
            black_box(pool.pick(&[]));
        });
        r.set("pool.pick_ns.1t", ns, "ns");
    });
    let ((), _) = tracer.span("side.pick_2t", 0, || {
        let barrier = Barrier::new(2);
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        time_per_call(5, REP, || {
                            black_box(pool.pick(&[]));
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pick thread does not panic"))
                .collect()
        });
        r.set(
            "pool.pick_ns.2t",
            per_thread.iter().sum::<f64>() / 2.0,
            "ns",
        );
    });
}

/// `transport::bounded`: an uncontended send (with space, drained by the
/// same thread) and a cross-thread hand-off (half a ping-pong round trip).
pub fn chan(tracer: &mut Tracer, r: &mut Report) {
    let ((), _) = tracer.span("side.chan_send", 0, || {
        let (tx, rx) = bounded::<u64>(64);
        let ns = time_per_call(5, REP, || {
            for i in 0..32 {
                tx.send_recording(black_box(i)).expect("receiver alive");
            }
            for _ in 0..32 {
                black_box(rx.try_recv().expect("just sent"));
            }
        });
        r.set("chan.send_ns", ns / 32.0, "ns");
    });
    let ((), _) = tracer.span("side.chan_handoff", 0, || {
        const TRIPS: u64 = 20_000;
        let (ping_tx, ping_rx) = bounded::<u64>(1);
        let (pong_tx, pong_rx) = bounded::<u64>(1);
        let ns = std::thread::scope(|s| {
            s.spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    if pong_tx.send_recording(v).is_err() {
                        return;
                    }
                }
            });
            let t = Instant::now();
            for i in 0..TRIPS {
                ping_tx.send_recording(i).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo thread alive"));
            }
            let ns = t.elapsed().as_nanos() as f64 / TRIPS as f64 / 2.0;
            drop(ping_tx);
            ns
        });
        r.set("chan.handoff_ns", ns, "ns");
    });
}

/// The paper's loop on real sockets: the proxy with one shard and 64 KiB
/// frames, backend 0 read-gated from the start ([`proxy::STRAGGLER`]),
/// driven at its nominal rate for its warm-up and then `window`. Reports
/// where the load and the weight went and the blocked-write time per
/// backend: `EPOLLOUT`-wait blocking → `BlockingSampler` → control round →
/// WRR weights.
///
/// # Errors
///
/// Returns a [`Violation`] on a wrong echo or a set-up failure.
pub fn straggler(
    window: Duration,
    seed: u64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Result<(), Violation> {
    let io = |e: std::io::Error| Violation(format!("straggler set-up failed: {e}"));
    let spec = proxy::STRAGGLER;
    let mut rng = SplitMix64::new(seed ^ 0x0005_7A66);
    let payloads = Payloads::new(spec.frame, rng.next_u64());
    let telemetry = Telemetry::new();
    let system = proxy::spawn(&spec, telemetry.clone()).map_err(io)?;
    let mut clients = (0..proxy::CLIENTS)
        .map(|_| Client::connect(system.handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    let limits = Limits {
        backlog_cap: spec.backlog_cap,
        latency_limit: Duration::from_secs(1),
        drain_timeout: Duration::from_secs(2),
    };
    let mut id = 1;
    let quiet = &mut Tracer::new(false);
    let offsets = poisson_offsets(&mut rng, spec.nominal, spec.warmup.as_nanos() as u64);
    run_step(
        &mut clients,
        &payloads,
        spec.nominal,
        &offsets,
        spec.warmup,
        id,
        limits,
        quiet,
        0,
    )?;
    id += offsets.len() as u64;
    let offsets = poisson_offsets(&mut rng, spec.nominal, window.as_nanos() as u64);
    let (st, _) = tracer.span("side.straggler", 0, || {
        run_step(
            &mut clients,
            &payloads,
            spec.nominal,
            &offsets,
            window,
            id,
            limits,
            quiet,
            0,
        )
    });
    st?;
    let served: Vec<u64> = system.backends.iter().map(EchoBackend::served).collect();
    let blocked_ms = |j: usize| {
        system
            .handle
            .pool()
            .backend(j)
            .map_or(0, |b| b.counter().cumulative_ns()) as f64
            / 1e6
    };
    let weight = telemetry.registry().gauge("proxy.conn0.weight").get();
    r.set(
        "control.slow_share",
        served[0] as f64 / served.iter().sum::<u64>().max(1) as f64,
        "ratio",
    );
    r.set("control.slow_weight", weight, "count");
    r.set("transport.blocked_ms.slow", blocked_ms(0), "ms");
    r.set(
        "transport.blocked_ms.fast",
        (1..proxy::BACKENDS).map(blocked_ms).sum(),
        "ms",
    );
    drop(clients);
    system.handle.shutdown();
    Ok(())
}
