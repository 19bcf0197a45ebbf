//! `proxy-small`: `streambal-proxy` in front of three `EchoBackend`s on
//! loopback, driven by the open-loop generator over two client
//! connections; and the straggler configuration the traced run measures
//! beside it (see `side::straggler`).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;
use streambal_proxy::{EchoBackend, EchoOptions, Proxy, ProxyConfig, ProxyHandle, ProxyOptions};
use streambal_telemetry::{Telemetry, TraceEvent};

use crate::gen::{run_step, Client, Limits, Payloads, StepStats, Violation};
use crate::replay::{settle_rounds, Replay};
use crate::report::Report;
use crate::stats::{median, poisson_offsets, windowed, LAG_BOUND_US};
use crate::sys;
use crate::trace::Tracer;

/// One proxy workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Payload bytes per request.
    pub frame: usize,
    /// Proxy event-loop shards.
    pub io_threads: usize,
    /// Whether backend 0 is read-gated from the start.
    pub straggler: bool,
    /// The nominal rate, requests per second.
    pub nominal: f64,
    /// The rate ladder, ascending, requests per second.
    pub ladder: &'static [f64],
    /// Latency limit, µs: a response within it counts toward a step's good
    /// rate (`max_rate`).
    pub latency_limit_us: f64,
    /// Outstanding requests at which a step stops sending.
    pub backlog_cap: usize,
    /// Warm-up at the nominal rate before measuring.
    pub warmup: Duration,
}

/// Client connections (and generator concurrency).
pub const CLIENTS: usize = 2;
/// Backends behind the proxy.
pub const BACKENDS: usize = 3;
/// Kernel buffer cap toward and at the gated backend, smaller than one
/// straggler frame.
const STRAGGLER_BUFFER: usize = 32 * 1024;
/// Read gate of the straggler backend.
const STRAGGLER_DELAY: Duration = Duration::from_millis(1);
/// Sweeps of a run. Each sweep takes a piece of the nominal step and then
/// one window at every ladder rate, so every rung's windows and the nominal
/// step are spread over the whole run: a slow spell of the host touches a
/// few windows of each rather than all of one. Each window starts from a
/// drained system, and a rung reads the median good rate of its windows:
/// near capacity a stall of a few ms can tip one window into a backlog it
/// never drains within the latency limit, and the median leaves it out.
const SWEEPS: usize = 5;
/// Set-ups measured per run (the median is reported).
const SETUPS: usize = 15;
/// An answered request slower than this counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(1);

/// `proxy-small`: 128 B frames, two shards, no straggler.
pub const SMALL: Spec = Spec {
    frame: 128,
    io_threads: 2,
    straggler: false,
    nominal: 8_000.0,
    // Rungs 3–4k apart from 36k to 60k, where the knee fell between runs
    // on a 2-vCPU host: a rung that fails near the knee then costs
    // `max_rate` one small step, not the 10k gap to the rung below.
    ladder: &[
        8_000.0, 24_000.0, 36_000.0, 40_000.0, 44_000.0, 47_000.0, 50_000.0, 53_000.0, 56_000.0,
        60_000.0, 66_000.0, 74_000.0,
    ],
    latency_limit_us: 5_000.0,
    backlog_cap: 2_048,
    warmup: Duration::from_millis(500),
};

/// The straggler configuration: 64 KiB frames, one shard, backend 0
/// read-gated. It runs only as a side measurement of the traced run
/// (`side::straggler`), at its nominal rate, so it has no ladder.
pub const STRAGGLER: Spec = Spec {
    frame: 64 * 1024,
    io_threads: 1,
    straggler: true,
    nominal: 1_000.0,
    ladder: &[],
    latency_limit_us: 20_000.0,
    backlog_cap: 128,
    warmup: Duration::from_secs(2),
};

/// A running proxy and its backends.
pub struct System {
    /// The echo backends; index 0 is the straggler when there is one.
    pub backends: Vec<EchoBackend>,
    /// The proxy.
    pub handle: ProxyHandle,
}

/// Spawns the backends and the proxy for `spec`.
///
/// # Errors
///
/// Propagates bind and spawn failures.
pub fn spawn(spec: &Spec, telemetry: Telemetry) -> std::io::Result<System> {
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("valid address");
    let options = EchoOptions {
        recv_buffer: spec.straggler.then_some(STRAGGLER_BUFFER),
    };
    let backends = (0..BACKENDS)
        .map(|_| EchoBackend::spawn_with(loopback, options))
        .collect::<std::io::Result<Vec<_>>>()?;
    if spec.straggler {
        backends[0].set_delay(STRAGGLER_DELAY);
    }
    let mut config = ProxyConfig::new(loopback, backends.iter().map(EchoBackend::addr).collect());
    config.io_threads = spec.io_threads;
    config.backend_send_buffer = spec.straggler.then_some(STRAGGLER_BUFFER);
    let handle = Proxy::spawn(ProxyOptions {
        config,
        config_path: None,
        telemetry: Some(telemetry),
    })?;
    Ok(System { backends, handle })
}

/// Spawn → connect → first correct echo, in seconds.
///
/// # Errors
///
/// Fails when the system cannot start or the first echo is wrong.
pub fn setup_once(spec: &Spec, payloads: &Payloads) -> std::io::Result<f64> {
    let t0 = Instant::now();
    let system = spawn(spec, Telemetry::new())?;
    let mut client = Client::connect(system.handle.addr())?;
    client.round_trip(payloads, 0, Duration::from_secs(5))?;
    let elapsed = t0.elapsed().as_secs_f64();
    drop(client);
    system.handle.shutdown();
    Ok(elapsed)
}

/// The open-loop runs of one workload.
#[derive(Debug, Default)]
pub struct Ladder {
    /// The nominal-rate step, its pieces in run order.
    pub nominal: StepStats,
    /// In a traced run, the untraced half of each nominal piece.
    pub untraced: Option<StepStats>,
    /// Per ladder rate, ascending, its windows.
    pub rungs: Vec<Vec<StepStats>>,
}

impl Ladder {
    /// The highest rate the system served within the latency limit: the
    /// largest rung good rate (answered within the window and the limit, per
    /// second; the median over the rung's windows) over the ladder. Below
    /// capacity a rung's good rate tracks its offered rate; past it the
    /// backlog pushes responses over the limit, so the maximum sits at the
    /// knee.
    #[must_use]
    pub fn max_rate(&self) -> f64 {
        self.rungs
            .iter()
            .map(|windows| {
                let good: Vec<f64> = windows.iter().map(StepStats::good_rate).collect();
                median(&good)
            })
            .fold(0.0, f64::max)
    }

    /// Every ladder window.
    pub fn steps(&self) -> impl Iterator<Item = &StepStats> {
        self.rungs.iter().flatten()
    }
}

/// Runs [`SWEEPS`] sweeps of the nominal step and the ladder over
/// `clients`, splitting `seconds` between them (40% nominal, 60% ladder);
/// requests get consecutive ids from 1. `between_steps` runs after each
/// nominal piece and after each sweep of the ladder.
///
/// # Errors
///
/// Returns a [`Violation`] on a wrong response.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    clients: &mut [Client],
    payloads: &Payloads,
    spec: &Spec,
    seconds: f64,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
    between_steps: &mut dyn FnMut(&mut Tracer),
) -> Result<Ladder, Violation> {
    let limits = limits(spec);
    let piece = Duration::from_secs_f64(seconds * 0.4 / SWEEPS as f64);
    let step_window =
        Duration::from_secs_f64(seconds * 0.6 / (SWEEPS * spec.ladder.len().max(1)) as f64);
    let mut id = 1u64;
    let mut step = |rate: f64, window: Duration, rng: &mut SplitMix64, tracer: &mut Tracer| {
        let span = u64::try_from(window.as_nanos()).unwrap_or(u64::MAX);
        let offsets = poisson_offsets(rng, rate, span);
        let st = run_step(
            clients, payloads, rate, &offsets, window, id, limits, tracer, 0,
        );
        id += offsets.len() as u64;
        st
    };
    let traced = tracer.enabled();
    let mut nominal = StepStats::default();
    // A traced run splits each nominal piece: an untraced half, then a
    // traced half, for the tracing overhead.
    let mut untraced = traced.then(StepStats::default);
    let mut rungs: Vec<Vec<StepStats>> = vec![Vec::with_capacity(SWEEPS); spec.ladder.len()];
    for _ in 0..SWEEPS {
        if let Some(u) = &mut untraced {
            u.absorb(step(spec.nominal, piece / 2, rng, &mut Tracer::new(false))?);
            nominal.absorb(step(spec.nominal, piece / 2, rng, tracer)?);
        } else {
            nominal.absorb(step(spec.nominal, piece, rng, tracer)?);
        }
        between_steps(tracer);
        for (windows, &rate) in rungs.iter_mut().zip(spec.ladder) {
            windows.push(step(rate, step_window, rng, tracer)?);
        }
        between_steps(tracer);
    }
    Ok(Ladder {
        nominal,
        untraced,
        rungs,
    })
}

fn limits(spec: &Spec) -> Limits {
    Limits {
        backlog_cap: spec.backlog_cap,
        latency_limit: Duration::from_secs_f64(spec.latency_limit_us / 1e6),
        drain_timeout: Duration::from_secs(2),
    }
}

/// The controller's per-round rates, from the proxy's trace `Sample`s.
fn sampled_rounds(telemetry: &Telemetry) -> Vec<(u64, Vec<u32>, Vec<f64>)> {
    telemetry
        .trace()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Sample {
                t_ns,
                weights,
                rates,
                ..
            } => Some((t_ns, weights, rates)),
            _ => None,
        })
        .collect()
}

fn rates_of(rounds: &[(u64, Vec<u32>, Vec<f64>)]) -> Vec<(u64, Vec<f64>)> {
    rounds.iter().map(|r| (r.0, r.2.clone())).collect()
}

/// Everything a proxy run observed, for the report.
struct Observed {
    setup: Vec<f64>,
    ladder: Ladder,
    rounds: Vec<(u64, Vec<u32>, Vec<f64>)>,
    replay: Replay,
    inner_p50_ns: u64,
    inner_p99_ns: u64,
    requests: u64,
    retries: u64,
    ejections: u64,
    teardown_ms: f64,
    allocs: crate::alloc::AllocCount,
}

/// Runs a proxy workload for about `seconds`.
///
/// # Errors
///
/// Returns a [`Violation`] on a wrong response; set-up failures are
/// reported as violations too, since no result can be measured.
pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, Violation> {
    let mut rng = SplitMix64::new(seed);
    let payloads = Payloads::new(spec.frame, rng.next_u64());
    let io = |e: std::io::Error| Violation(format!("set-up failed: {e}"));

    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        setup.push(setup_once(spec, &payloads).map_err(io)?);
    }

    let telemetry = Telemetry::with_trace_capacity(1 << 16);
    let system = spawn(spec, telemetry.clone()).map_err(io)?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(system.handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    for (i, c) in clients.iter_mut().enumerate() {
        c.round_trip(&payloads, u64::MAX - i as u64, Duration::from_secs(5))
            .map_err(io)?;
    }
    let offsets = poisson_offsets(&mut rng, spec.nominal, spec.warmup.as_nanos() as u64);
    let quiet = &mut Tracer::new(false);
    run_step(
        &mut clients,
        &payloads,
        spec.nominal,
        &offsets,
        spec.warmup,
        1 << 40,
        limits(spec),
        quiet,
        0,
    )?;

    // The controller replay runs between steps, on the rounds so far, so
    // its timing samples the whole run.
    let mut replay = Replay::default();
    let allocs0 = crate::alloc::snapshot();
    let ladder = drive(
        &mut clients,
        &payloads,
        spec,
        seconds,
        &mut rng,
        tracer,
        &mut |tracer| replay.chunk(BACKENDS, &rates_of(&sampled_rounds(&telemetry)), tracer),
    )?;
    let allocs = crate::alloc::snapshot().since(allocs0);

    let reg = telemetry.registry();
    let latency = reg.histogram("proxy.request_latency_ns");
    drop(clients);
    let t = Instant::now();
    system.handle.shutdown();
    let teardown_ms = t.elapsed().as_secs_f64() * 1e3;
    let obs = Observed {
        setup,
        ladder,
        rounds: sampled_rounds(&telemetry),
        replay,
        inner_p50_ns: latency.quantile(0.5).unwrap_or(0),
        inner_p99_ns: latency.quantile(0.99).unwrap_or(0),
        requests: reg.counter("proxy.requests").get(),
        retries: reg.counter("proxy.retries").get(),
        ejections: reg.counter("proxy.ejections").get(),
        teardown_ms,
        allocs,
    };
    drop(system.backends);
    Ok(report(obs, tracer))
}

fn report(obs: Observed, tracer: &mut Tracer) -> Report {
    let nominal = &obs.ladder.nominal;
    let timeout_ns = u64::try_from(TIMEOUT.as_nanos()).unwrap_or(u64::MAX);
    let late = nominal.lat_ns.iter().filter(|&&l| l > timeout_ns).count() as u64;
    let ok = (nominal.completed - late) as f64 / nominal.attempted.max(1) as f64;
    let p50 = windowed(&nominal.lat_ns, 0.5);
    let p90 = windowed(&nominal.lat_ns, 0.9);
    let p99 = windowed(&nominal.lat_ns, 0.99);
    let lag_p99 = windowed(&nominal.lag_ns, 0.99);
    let cpu = nominal.proc_cpu.saturating_sub(nominal.gen_cpu);
    let cpu_per_op = cpu.as_secs_f64() * 1e6 / nominal.completed.max(1) as f64;
    // Answered within their step's window ÷ offered, over the whole ladder.
    let (served, offered) = obs.ladder.steps().fold((0.0, 0.0), |(s, o), st| {
        (s + st.completed_in_window as f64, o + st.rate * st.window_s)
    });

    // Failed: unsent or unanswered over the whole run, and answered after
    // the timeout at the nominal rate.
    let steps = std::iter::once(nominal).chain(obs.ladder.steps());
    let (mut attempted, mut failed) = (0u64, late);
    for s in steps.chain(obs.ladder.untraced.iter()) {
        attempted += s.attempted;
        failed += s.failed;
    }
    let weights: Vec<Vec<u32>> = obs.rounds.iter().map(|r| r.1.clone()).collect();
    let observed: Vec<Vec<f64>> = obs.rounds.iter().map(|r| r.2.clone()).collect();

    let mut r = Report {
        correct: true,
        attempted,
        failed,
        metrics: Vec::new(),
        invalid: None,
    };
    if !tracer.enabled() {
        r.set("setup_s", median(&obs.setup), "s");
        r.set("lat_p50_us", p50, "us");
        r.set("max_rate", obs.ladder.max_rate(), "1/s");
        r.set("ok_ratio", ok, "ratio");
        r.set("cpu_us_per_op", cpu_per_op, "us");
        r.set("peak_rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB");
        r.set("round_p50_us", obs.replay.round_p50_us(), "us");
        r.set("round_p99_us", obs.replay.round_p99_us(), "us");
        r.set("tput_ratio", served / offered.max(1e-9), "ratio");
        r.set(
            "settle_rounds",
            settle_rounds(&weights, &observed, 0) as f64,
            "count",
        );
    } else {
        let ops = (attempted - failed).max(1) as f64;
        r.set("proxy.inner_p50_us", obs.inner_p50_ns as f64 / 1e3, "us");
        r.set("proxy.inner_p99_us", obs.inner_p99_ns as f64 / 1e3, "us");
        r.set(
            "proxy.retries_per_kreq",
            obs.retries as f64 * 1e3 / obs.requests.max(1) as f64,
            "count",
        );
        r.set("proxy.ejections", obs.ejections as f64, "count");
        r.set("alloc.per_op", obs.allocs.allocs as f64 / ops, "count");
        r.set("alloc.bytes_per_op", obs.allocs.bytes as f64 / ops, "B");
        r.set("gen.lag_p99_us", lag_p99, "us");
        r.set("lat_p90_us", p90, "us");
        r.set("lat_p99_us", p99, "us");
        r.set("region.rounds", obs.rounds.len() as f64, "count");
        r.set("region.teardown_ms", obs.teardown_ms, "ms");
        obs.replay.report_phases(&mut r);
        if let Some(u) = &obs.ladder.untraced {
            let base = windowed(&u.lat_ns, 0.5);
            r.set(
                "trace.overhead_pct",
                (p50 / base.max(1e-9) - 1.0) * 100.0,
                "%",
            );
        }
    }
    if lag_p99 > LAG_BOUND_US {
        r.correct = false;
        r.invalid = Some(format!(
            "generator lag p99 {lag_p99:.1} us over its {LAG_BOUND_US} us bound"
        ));
    }
    r
}
