//! `dataflow-straggler`: the paper's own ordered region on threads. A
//! stamped open-loop source feeds `.parallel(ParallelConfig::new(2), …)`
//! whose operator spins `spin_multiplies`, one replica at three times the
//! cost of the other; a `for_each` sink checks order and times each tuple
//! from its due time. No proxy code runs here.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use streambal_core::SplitMix64;
use streambal_dataflow::{source, FlowReport, ParallelConfig, Source};
use streambal_runtime::workload::spin_multiplies;
use streambal_telemetry::Telemetry;

use crate::gen::Violation;
use crate::replay::{settle_rounds, Replay};
use crate::report::Report;
use crate::stats::{median, windowed, LAG_BOUND_US};
use crate::sys;
use crate::trace::Tracer;

/// Replicas in the region.
pub const REPLICAS: usize = 2;
/// Multiplies per tuple on the fast replica.
pub const COST: u64 = 400_000;
/// The slow replica (replica 0) costs this many times more.
pub const SLOW_FACTOR: u64 = 3;
/// Nominal source rate, tuples per second.
pub const NOMINAL: f64 = 2_000.0;
/// The rate ladder, tuples per second, run from the top down: the
/// overloaded first steps make the balancer converge, so the steps near
/// the knee read the region's capacity, not the balancer's transient after
/// a rate rise. Rungs are close around the adaptive balancer's knee
/// (about 12k here) and reach down past round-robin's (about 6.5k).
pub const LADDER: &[f64] = &[
    16_000.0, 14_000.0, 13_000.0, 12_500.0, 12_000.0, 11_500.0, 11_000.0, 10_000.0, 9_000.0,
    8_000.0, 6_000.0,
];
/// Replay chunks timed after the flow (`round_*`).
const REPLAY_CHUNKS: usize = 15;
/// The latency limit of the workload, µs: arrivals slower than this do
/// not count toward a step's good rate.
pub const LATENCY_LIMIT_US: f64 = 50_000.0;
/// How far behind its schedule the source may fall before it sheds
/// overdue tuples, which count as failed. A step past the region's capacity
/// falls a few seconds behind; this bound only keeps a broken region's run
/// finite.
const MAX_BEHIND_NS: u64 = 10_000_000_000;
/// How long the source waits at a step boundary for the region to drain.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Warm-up at the nominal rate before measuring.
const WARMUP: Duration = Duration::from_secs(2);
/// Set-ups measured per run.
const SETUPS: usize = 15;
/// A tuple slower than this counts as timed out.
const TIMEOUT: Duration = Duration::from_secs(1);

/// One tuple: its sequence number, due time, step and the end of its
/// step's window.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    seq: u64,
    due_ns: u64,
    step: u32,
    window_end_ns: u64,
}

/// A contiguous window of the schedule at one rate. The source shifts a
/// window later when the region was still draining the previous one.
#[derive(Debug, Clone, Copy)]
struct Segment {
    rate: f64,
    start_ns: u64,
    end_ns: u64,
}

/// State the source shares with the sink and the report.
#[derive(Debug, Default)]
struct Shared {
    /// Tuples the sink has received.
    delivered: AtomicU64,
    /// Per segment: generator lag of every tuple emitted on schedule, ns.
    lag_ns: Mutex<Vec<Vec<u64>>>,
    /// Per segment: tuples shed unsent.
    shed: Mutex<Vec<u64>>,
    /// (process CPU, source-thread CPU) at each segment start, and at the end.
    cpu_marks: Mutex<Vec<(Duration, Duration)>>,
}

/// The open-loop source: Poisson arrivals per segment, each tuple due at
/// its arrival time; it sleeps until a tuple is due and emits late tuples
/// at once. Before each segment it waits for the region to drain the
/// previous one, so every step starts unloaded.
struct Stamped {
    segments: Vec<Segment>,
    seg: usize,
    /// How much later than scheduled the current segment started, ns.
    shift_ns: u64,
    next_due: u64,
    seq: u64,
    rng: SplitMix64,
    start: Option<Instant>,
    shared: Arc<Shared>,
    lag: Vec<Vec<u64>>,
    shed: Vec<u64>,
    waited: bool,
    origin: Arc<Mutex<Option<Instant>>>,
}

impl Stamped {
    fn mark_cpu(&self) {
        let mark = (
            streambal_transport::poll::process_cpu_time(),
            sys::thread_cpu_time(),
        );
        lock(&self.shared.cpu_marks).push(mark);
    }

    fn draw_gap(&mut self) -> u64 {
        let rate = self.segments[self.seg].rate;
        (-(1.0 - self.rng.next_f64()).ln() * 1e9 / rate) as u64
    }

    fn finish(&mut self) {
        self.mark_cpu();
        *lock(&self.shared.lag_ns) = std::mem::take(&mut self.lag);
        *lock(&self.shared.shed) = std::mem::take(&mut self.shed);
    }

    /// Waits until the sink has every tuple emitted so far.
    fn drain(&self) {
        let t = Instant::now();
        while self.shared.delivered.load(Ordering::Acquire) < self.seq && t.elapsed() < DRAIN_LIMIT
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Source for Stamped {
    type Item = Tuple;

    fn next_tuple(&mut self) -> Option<Tuple> {
        let start = *self.start.get_or_insert_with(|| {
            sys::set_timer_slack(Duration::from_micros(1));
            let now = Instant::now();
            *lock(&self.origin) = Some(now);
            now
        });
        if self.seq == 0 && self.seg == 0 && self.lag.is_empty() {
            self.lag = vec![Vec::new(); self.segments.len()];
            self.shed = vec![0; self.segments.len()];
            self.mark_cpu();
            self.next_due = self.segments[0].start_ns + self.draw_gap();
        }
        loop {
            if self.seg >= self.segments.len() {
                self.finish();
                return None;
            }
            let end = self.segments[self.seg].end_ns + self.shift_ns;
            if self.next_due >= end {
                // The segment's schedule is done. The next one starts once
                // the region has drained, as late as that takes.
                self.seg += 1;
                if self.seg < self.segments.len() {
                    self.drain();
                    let s = self.segments[self.seg];
                    let now = ns_since(start);
                    self.shift_ns = self.shift_ns.max(now.saturating_sub(s.start_ns));
                    self.mark_cpu();
                    self.next_due = s.start_ns + self.shift_ns + self.draw_gap();
                }
                continue;
            }
            let now = ns_since(start);
            if now < self.next_due {
                wait(self.next_due - now);
                self.waited = true;
                continue;
            }
            if now - self.next_due > MAX_BEHIND_NS {
                while now - self.next_due > MAX_BEHIND_NS && self.next_due < end {
                    self.shed[self.seg] += 1;
                    self.next_due += self.draw_gap();
                }
                continue;
            }
            let t = Tuple {
                seq: self.seq,
                due_ns: self.next_due,
                step: self.seg as u32,
                window_end_ns: end,
            };
            // Only a tuple the source waited for measures the source's own
            // timing; one already overdue on arrival was held up by the
            // region's back-pressure, which its latency already counts.
            if std::mem::take(&mut self.waited) {
                self.lag[self.seg].push(ns_since(start) - self.next_due);
            }
            self.seq += 1;
            self.next_due += self.draw_gap();
            return Some(t);
        }
    }
}

/// A source of one tuple, for set-up timing.
struct One(bool);

impl Source for One {
    type Item = Tuple;

    fn next_tuple(&mut self) -> Option<Tuple> {
        if std::mem::replace(&mut self.0, true) {
            return None;
        }
        Some(Tuple {
            seq: 0,
            due_ns: 0,
            step: 0,
            window_end_ns: 0,
        })
    }
}

/// Waits `ns`. The source sleeps rather than spins: the replicas need
/// every core, and the region's latencies are milliseconds, far above a
/// sleep's wake-up error.
fn wait(ns: u64) {
    std::thread::sleep(Duration::from_nanos(ns.min(10_000_000)));
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-replica work counters of the bench's operator.
#[derive(Debug, Default)]
struct OpCounters {
    next_replica: AtomicUsize,
    tuples: [AtomicU64; REPLICAS],
    busy_ns: [AtomicU64; REPLICAS],
}

fn config(balanced: bool, telemetry: &Telemetry) -> ParallelConfig {
    let cfg = ParallelConfig::new(REPLICAS).telemetry(telemetry);
    if balanced {
        cfg
    } else {
        cfg.round_robin()
    }
}

/// The operator factory: replica 0 (the first built) is the slow one.
fn factory(counters: Arc<OpCounters>) -> impl Fn() -> Box<dyn FnMut(Tuple) -> Tuple + Send> {
    move || {
        let counters = Arc::clone(&counters);
        let idx = counters.next_replica.fetch_add(1, Ordering::Relaxed) % REPLICAS;
        let cost = if idx == 0 { COST * SLOW_FACTOR } else { COST };
        Box::new(move |t: Tuple| {
            let t0 = Instant::now();
            std::hint::black_box(spin_multiplies(cost));
            counters.tuples[idx].fetch_add(1, Ordering::Relaxed);
            counters.busy_ns[idx].fetch_add(ns_since(t0), Ordering::Relaxed);
            t
        })
    }
}

/// Flow build → first tuple at the sink, in seconds.
///
/// # Errors
///
/// Fails when a stage panics or the tuple is wrong.
pub fn setup_once(balanced: bool) -> Result<f64, Violation> {
    let t0 = Instant::now();
    let telemetry = Telemetry::new();
    let counters = Arc::new(OpCounters::default());
    let mut first = None;
    let report = source(One(false))
        .parallel(config(balanced, &telemetry), factory(counters))
        .for_each(|t: Tuple| {
            if first.is_none() && t.seq == 0 {
                first = Some(t0.elapsed().as_secs_f64());
            }
        })
        .map_err(|e| Violation(format!("flow failed: {e:?}")))?;
    if report.delivered() != 1 {
        return Err(Violation("set-up flow lost its tuple".into()));
    }
    first.ok_or_else(|| Violation("set-up flow delivered nothing".into()))
}

/// What the sink saw, per segment.
#[derive(Debug, Default, Clone)]
struct SegmentStats {
    lat_ns: Vec<u64>,
    in_window: u64,
    /// Arrived within the window and the latency limit.
    good: u64,
}

/// Runs `dataflow-straggler` for about `seconds`; `balanced` selects the
/// adaptive balancer (the workload) or round-robin (the sensitivity
/// baseline).
///
/// # Errors
///
/// Returns a [`Violation`] when the sink sees a gap or a reordering, or
/// the delivered count differs from the emitted count.
pub fn run(
    seed: u64,
    seconds: f64,
    balanced: bool,
    tracer: &mut Tracer,
) -> Result<Report, Violation> {
    let mut segments = Vec::new();
    let mut at = 0u64;
    let mut push = |rate: f64, secs: f64| {
        let len = (secs * 1e9) as u64;
        segments.push(Segment {
            rate,
            start_ns: at,
            end_ns: at + len,
        });
        at += len;
    };
    push(NOMINAL, WARMUP.as_secs_f64());
    // A traced run splits the nominal step: an untraced half, then a
    // traced half, for the tracing overhead.
    let traced = tracer.enabled();
    if traced {
        push(NOMINAL, seconds * 0.2);
        push(NOMINAL, seconds * 0.2);
    } else {
        push(NOMINAL, seconds * 0.4);
    }
    let nominal_idx = if traced { 2 } else { 1 };
    for &rate in LADDER {
        push(rate, seconds * 0.6 / LADDER.len() as f64);
    }
    let shared = Arc::new(Shared::default());
    let origin = Arc::new(Mutex::new(None));
    let src = Stamped {
        segments: segments.clone(),
        seg: 0,
        shift_ns: 0,
        next_due: 0,
        seq: 0,
        rng: SplitMix64::new(seed),
        start: None,
        shared: Arc::clone(&shared),
        lag: Vec::new(),
        shed: Vec::new(),
        waited: false,
        origin: Arc::clone(&origin),
    };

    let telemetry = Telemetry::new();
    let counters = Arc::new(OpCounters::default());
    let mut stats = vec![SegmentStats::default(); segments.len()];
    let mut expected = 0u64;
    let mut violation: Option<Violation> = None;
    let mut last_arrival = Instant::now();
    let mut origin_at: Option<Instant> = None;
    let limit_ns = (LATENCY_LIMIT_US * 1e3) as u64;
    let allocs0 = crate::alloc::snapshot();
    let flow_start = Instant::now();
    let flow_span = tracer.record("dataflow.flow", 0, flow_start, flow_start);
    let report: FlowReport = source(src)
        .parallel(config(balanced, &telemetry), factory(Arc::clone(&counters)))
        .for_each(|t: Tuple| {
            let now = Instant::now();
            last_arrival = now;
            shared.delivered.fetch_add(1, Ordering::Release);
            if t.seq != expected && violation.is_none() {
                violation = Some(Violation(format!(
                    "sink saw tuple {} where {expected} was next",
                    t.seq
                )));
            }
            expected = t.seq + 1;
            if origin_at.is_none() {
                origin_at = *lock(&origin);
            }
            let Some(origin) = origin_at else {
                return;
            };
            let arrival = u64::try_from(now.duration_since(origin).as_nanos()).unwrap_or(0);
            let seg = &mut stats[t.step as usize];
            seg.lat_ns.push(arrival.saturating_sub(t.due_ns));
            if traced && t.step as usize >= nominal_idx && t.seq.is_multiple_of(16) {
                let due = origin + Duration::from_nanos(t.due_ns);
                tracer.record("dataflow.tuple", flow_span, due, now);
            }
            if arrival <= t.window_end_ns {
                seg.in_window += 1;
                if arrival - t.due_ns.min(arrival) <= limit_ns {
                    seg.good += 1;
                }
            }
        })
        .map_err(|e| Violation(format!("flow failed: {e:?}")))?;
    let returned = Instant::now();
    tracer.finish(flow_span, returned);
    let allocs = crate::alloc::snapshot().since(allocs0);
    if let Some(v) = violation {
        return Err(v);
    }
    let emitted = report.stages.first().map_or(0, |s| s.emitted);
    if report.delivered() != emitted || expected != emitted {
        return Err(Violation(format!(
            "delivered {} (last seq {expected}) of {emitted} emitted tuples",
            report.delivered()
        )));
    }

    // Segment 0 is the warm-up, then the nominal step (in a traced run
    // preceded by its untraced half), then the ladder.
    let lag = std::mem::take(&mut *lock(&shared.lag_ns));
    let shed = std::mem::take(&mut *lock(&shared.shed));
    let shed_at = |k: usize| shed.get(k).copied().unwrap_or(0);
    let cpu_marks = lock(&shared.cpu_marks).clone();
    // The highest good rate (arrivals within the window and the latency
    // limit, per second) over the ladder; see `proxy::Ladder::max_rate`.
    let max_rate = (nominal_idx + 1..segments.len())
        .map(|k| stats[k].good as f64 / ((segments[k].end_ns - segments[k].start_ns) as f64 / 1e9))
        .fold(0.0, f64::max);
    // Arrived within their step's window ÷ offered, over the whole ladder.
    let (served, offered) = (nominal_idx + 1..segments.len()).fold((0.0, 0.0), |(s, o), k| {
        let window = (segments[k].end_ns - segments[k].start_ns) as f64 / 1e9;
        (s + stats[k].in_window as f64, o + segments[k].rate * window)
    });
    let tput_ratio = served / offered;

    let untraced_p50 = if traced {
        windowed(&stats[1].lat_ns, 0.5)
    } else {
        0.0
    };
    let nominal = &mut stats[nominal_idx];
    let timeout_ns = u64::try_from(TIMEOUT.as_nanos()).unwrap_or(u64::MAX);
    let n_nominal = nominal.lat_ns.len() as u64;
    let late = nominal.lat_ns.iter().filter(|&&l| l > timeout_ns).count() as u64;
    // Scheduled at the nominal rate: delivered or shed.
    let scheduled_nominal = n_nominal + shed_at(nominal_idx);
    let p90 = windowed(&nominal.lat_ns, 0.9);
    let p99 = windowed(&nominal.lat_ns, 0.99);
    let p50 = windowed(&nominal.lat_ns, 0.5);
    let nominal_lag = lag.get(nominal_idx).cloned().unwrap_or_default();
    let lag_p99 = windowed(&nominal_lag, 0.99);
    // cpu_marks[i] is taken as segment i starts.
    let cpu_per_op = match (cpu_marks.get(nominal_idx), cpu_marks.get(nominal_idx + 1)) {
        (Some(a), Some(b)) => {
            let proc = b.0.saturating_sub(a.0);
            let gen = b.1.saturating_sub(a.1);
            proc.saturating_sub(gen).as_secs_f64() * 1e6 / n_nominal.max(1) as f64
        }
        _ => 0.0,
    };

    let rounds = report.regions.first().cloned().unwrap_or_default();
    let weights: Vec<Vec<u32>> = rounds.iter().map(|s| s.weights.clone()).collect();
    let rates: Vec<(u64, Vec<f64>)> = rounds
        .iter()
        .map(|s| (s.elapsed_ms * 1_000_000, s.rates.clone()))
        .collect();
    // The set-ups and the controller replay run after the flow, taking
    // turns, so the replay's timing spans more of the host's states.
    let mut replay = Replay::default();
    let mut setup = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS.max(REPLAY_CHUNKS) {
        if i < SETUPS {
            setup.push(setup_once(balanced)?);
        }
        if i < REPLAY_CHUNKS {
            replay.chunk(REPLICAS, &rates, tracer);
        }
    }

    // Failed: shed over the whole run, and slower than the timeout at the
    // nominal rate.
    let shed_total: u64 = shed.iter().sum();
    let mut r = Report {
        correct: lag_p99 <= LAG_BOUND_US,
        attempted: emitted + shed_total,
        failed: shed_total + late,
        metrics: Vec::new(),
        invalid: None,
    };
    r.invalid = (!r.correct).then(|| format!("generator lag p99 {lag_p99:.1} us over its bound"));
    let op_tuples: Vec<u64> = counters
        .tuples
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let busy: u64 = counters
        .busy_ns
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum();
    if !tracer.enabled() {
        r.set("setup_s", median(&setup), "s");
        r.set("lat_p50_us", p50, "us");
        r.set("max_rate", max_rate, "1/s");
        r.set(
            "ok_ratio",
            (n_nominal - late) as f64 / scheduled_nominal.max(1) as f64,
            "ratio",
        );
        r.set("cpu_us_per_op", cpu_per_op, "us");
        r.set("peak_rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB");
        r.set("round_p50_us", replay.round_p50_us(), "us");
        r.set("round_p99_us", replay.round_p99_us(), "us");
        r.set("tput_ratio", tput_ratio, "ratio");
        let observed: Vec<Vec<f64>> = rounds.iter().map(|s| s.rates.clone()).collect();
        r.set(
            "settle_rounds",
            settle_rounds(&weights, &observed, 0) as f64,
            "count",
        );
    } else {
        let total: u64 = op_tuples.iter().sum();
        let wall = returned.duration_since(flow_start).as_nanos() as f64;
        let reg = telemetry.registry();
        let blocked = |j: usize| {
            reg.counter(&format!("transport.replica{j}.blocked_ns"))
                .get()
        };
        r.set(
            "alloc.per_op",
            allocs.allocs as f64 / emitted.max(1) as f64,
            "count",
        );
        r.set(
            "alloc.bytes_per_op",
            allocs.bytes as f64 / emitted.max(1) as f64,
            "B",
        );
        r.set("gen.lag_p99_us", lag_p99, "us");
        r.set("lat_p90_us", p90, "us");
        r.set("lat_p99_us", p99, "us");
        r.set(
            "region.slow_share",
            op_tuples[0] as f64 / total.max(1) as f64,
            "ratio",
        );
        r.set(
            "control.slow_weight",
            weights.last().map_or(0.0, |w| f64::from(w[0])),
            "count",
        );
        r.set("transport.blocked_ms.slow", blocked(0) as f64 / 1e6, "ms");
        r.set(
            "transport.blocked_ms.fast",
            (1..REPLICAS).map(blocked).sum::<u64>() as f64 / 1e6,
            "ms",
        );
        r.set(
            "region.op_busy_share",
            busy as f64 / (wall * REPLICAS as f64).max(1.0),
            "ratio",
        );
        for stage in &report.stages {
            let name = match stage.name.as_str() {
                "source" => "region.blocked_ms.source",
                "sink" => "region.blocked_ms.sink",
                _ => "region.blocked_ms.parallel",
            };
            r.set(name, stage.upstream_blocked_ns as f64 / 1e6, "ms");
        }
        r.set("region.rounds", rounds.len() as f64, "count");
        r.set(
            "region.teardown_ms",
            returned.duration_since(last_arrival).as_secs_f64() * 1e3,
            "ms",
        );
        replay.report_phases(&mut r);
        r.set(
            "trace.overhead_pct",
            (p50 / untraced_p50.max(1e-9) - 1.0) * 100.0,
            "%",
        );
    }
    Ok(r)
}
