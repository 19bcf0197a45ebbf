//! `control-wide`: a [`ControlPlane`] at 128 connections with default
//! clustering, driven in virtual time by a seeded fluid plant. No sockets
//! and no threads: this is the workload where function rebuild, knee and
//! cluster upkeep and the solve dominate.
//!
//! The plant is an ordered region: the splitter offers tuples at a fixed
//! source rate `S` split by the installed weights, worker `j` serves at
//! capacity `c_j`, and because the merger emits in order, throughput is
//! `min(S, min_j c_j / w_j)`. A worker offered more than its capacity
//! blocks the splitter for the excess share, `1 - c_j / (S w_j)`. Host
//! classes make capacities heterogeneous; partway through, one eighth of
//! the workers lose 75% of their capacity.

use std::time::{Duration, Instant};

use streambal_control::ControlPlane;
use streambal_core::controller::{BalancerConfig, ClusteringConfig};
use streambal_core::SplitMix64;

use crate::alloc;
use crate::gen::Violation;
use crate::replay::{replay_phases, Phases};
use crate::report::Report;
use crate::stats::{iqm, median, quantile_of};
use crate::sys;
use crate::trace::Tracer;

/// Connections in the region: four times the clustering threshold, and
/// few enough that the round's working set (a predicted table of
/// `RESOLUTION + 1` values per connection, 1 MiB here) fits in a core's
/// L2 cache. At 512 and 1024 connections (16 and 64 MiB of tables) the
/// median round time swung 1.3–1.5× between runs of the same seed with
/// the memory the process landed on, while the compute-bound tail did not.
pub const WIDTH: usize = 128;
/// Weight resolution: eight units per connection on average, so the
/// integer allocation can track capacities within a few percent.
pub const RESOLUTION: u32 = 8 * WIDTH as u32;
/// Rounds in one episode (one fresh plane and plant).
pub const ROUNDS: usize = 80;
/// Round at which the capacity drop happens.
pub const DROP_ROUND: usize = 40;
/// Rounds before this one are warm-up and stay out of `tput_ratio`.
pub const WARMUP_ROUNDS: usize = 20;
/// `settle_rounds` ends once `tput_ratio` is back within this fraction of
/// its pre-drop level.
pub const SETTLE_FRACTION: f64 = 0.05;
/// Host classes: (share of workers, relative capacity).
const CLASSES: [(f64, f64); 3] = [(0.5, 1.0), (0.375, 2.0), (0.125, 4.0)];
/// Capacity left to a degraded worker.
const DROP_FACTOR: f64 = 0.25;
/// Multiplicative measurement noise on each blocking rate, ±.
const NOISE: f64 = 0.05;
/// The control interval a round stands for: the plant's blocking rates
/// are one interval's. A round that takes longer misses its deadline and
/// counts as failed.
const INTERVAL: Duration = Duration::from_secs(1);

/// The fluid plant.
#[derive(Debug, Clone)]
pub struct Plant {
    cap: Vec<f64>,
    degraded: Vec<usize>,
    source: f64,
    rng: SplitMix64,
}

impl Plant {
    /// A plant of `n` workers whose class layout and degraded set come
    /// from `rng`.
    #[must_use]
    pub fn new(n: usize, mut rng: SplitMix64) -> Self {
        let mut cap = Vec::with_capacity(n);
        for (i, &(share, c)) in CLASSES.iter().enumerate() {
            let count = if i + 1 == CLASSES.len() {
                n - cap.len()
            } else {
                (share * n as f64).round() as usize
            };
            cap.extend(std::iter::repeat_n(c, count));
        }
        shuffle(&mut cap, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        order.truncate(n / 8);
        order.sort_unstable();
        let source = cap.iter().sum();
        Plant {
            cap,
            degraded: order,
            source,
            rng,
        }
    }

    /// Applies the capacity drop to the degraded workers.
    pub fn drop_capacity(&mut self) {
        for &j in &self.degraded {
            self.cap[j] *= DROP_FACTOR;
        }
    }

    /// The degraded workers.
    #[must_use]
    pub fn degraded(&self) -> &[usize] {
        &self.degraded
    }

    /// Throughput with weights proportional to capacity: `min(S, Σc)`.
    #[must_use]
    pub fn optimum(&self) -> f64 {
        self.source.min(self.cap.iter().sum())
    }

    /// One interval under `units`: fills `rates` with each connection's
    /// blocking rate and returns the region's throughput.
    pub fn step(&mut self, units: &[u32], resolution: u32, rates: &mut [f64]) -> f64 {
        let r = f64::from(resolution);
        let mut tput = self.source;
        for (j, (&u, rate)) in units.iter().zip(rates.iter_mut()).enumerate() {
            *rate = 0.0;
            if u == 0 {
                continue;
            }
            let demand = self.source * f64::from(u) / r;
            let c = self.cap[j];
            tput = tput.min(c * r / f64::from(u));
            if demand > c {
                let noise = 1.0 + NOISE * (2.0 * self.rng.next_f64() - 1.0);
                *rate = (1.0 - c / demand) * noise;
            }
        }
        tput
    }

    /// Share of the throughput carried by the degraded workers under
    /// `units`.
    #[must_use]
    pub fn degraded_share(&self, units: &[u32]) -> f64 {
        let total: u64 = units.iter().map(|&u| u64::from(u)).sum();
        let slow: u64 = self.degraded.iter().map(|&j| u64::from(units[j])).sum();
        slow as f64 / total.max(1) as f64
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// The controller configuration under test.
#[must_use]
pub fn plane_config() -> BalancerConfig {
    BalancerConfig::builder(WIDTH)
        .resolution(RESOLUTION)
        .clustering(ClusteringConfig::default())
        .build()
        .expect("width and resolution are valid")
}

/// What one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Wall time of every round, ns.
    pub round_ns: Vec<u64>,
    /// Plant throughput ÷ optimum, per round.
    pub ratio: Vec<f64>,
    /// Rounds after the drop until the ratio recovered (at least 1).
    pub settle_rounds: u64,
    /// Build plus first round, s.
    pub setup_s: f64,
    /// Rounds whose weights left the simplex or whose ratio left (0, 1].
    pub violations: u64,
    /// Rounds that took longer than [`INTERVAL`].
    pub late_rounds: u64,
    /// Allocations inside post-warm-up rounds.
    pub allocs: alloc::AllocCount,
    /// Rounds in which the cluster assignment changed.
    pub recluster_rounds: u64,
    /// Blocked time (virtual, ms) on degraded / other connections.
    pub blocked_ms_slow: f64,
    /// See `blocked_ms_slow`.
    pub blocked_ms_fast: f64,
    /// Share of weight on degraded workers at the end.
    pub slow_share: f64,
    /// Mean weight (units) of a degraded worker at the end.
    pub slow_weight: f64,
    /// The balancer's solved minimax blocking at the end.
    pub solved_blocking: f64,
    /// Phase replay timings, ns per replay.
    pub phases: Phases,
    /// Time to drop the plane, ms.
    pub teardown_ms: f64,
}

/// Runs one episode from `seed`. With `replay_every > 0`, every that
/// many rounds the round's phases are replayed on its inputs and timed.
pub fn episode(seed: u64, replay_every: usize, tracer: &mut Tracer) -> Episode {
    let mut rng = SplitMix64::new(seed);
    let mut plant = Plant::new(WIDTH, rng.fork());
    let mut out = Episode::default();
    let ep_start = Instant::now();
    let ep_span = tracer.record("control.episode", 0, ep_start, ep_start);

    let t0 = Instant::now();
    let mut plane = ControlPlane::builder(plane_config()).build();
    let mut rates = vec![0.0; WIDTH];
    let mut units = plane.weights().units().to_vec();
    let mut pre_drop = Vec::new();
    let mut prev_assignment: Vec<usize> = Vec::new();
    let mut settled = None;
    for round in 0..ROUNDS {
        if round == DROP_ROUND {
            plant.drop_capacity();
        }
        let tput = plant.step(&units, RESOLUTION, &mut rates);
        let ratio = tput / plant.optimum();
        if !(ratio > 0.0 && ratio <= 1.0 + 1e-12) {
            out.violations += 1;
        }
        for (j, &r) in rates.iter().enumerate() {
            // One virtual second per round.
            let ms = r * 1000.0;
            if plant.degraded().binary_search(&j).is_ok() {
                out.blocked_ms_slow += ms;
            } else {
                out.blocked_ms_fast += ms;
            }
        }
        let allocs_before = alloc::snapshot();
        let start = Instant::now();
        let weights = plane.round(round as u64 * INTERVAL.as_millis() as u64, &rates);
        let end = Instant::now();
        if end - start > INTERVAL {
            out.late_rounds += 1;
        }
        if round >= WARMUP_ROUNDS {
            let d = alloc::snapshot().since(allocs_before);
            out.allocs.allocs += d.allocs;
            out.allocs.bytes += d.bytes;
        }
        tracer.record("control.round", ep_span, start, end);
        units.clear();
        units.extend_from_slice(weights.units());
        if units.iter().map(|&u| u64::from(u)).sum::<u64>() != u64::from(RESOLUTION) {
            out.violations += 1;
        }
        out.round_ns
            .push(u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX));
        if round == 0 {
            out.setup_s = t0.elapsed().as_secs_f64();
        }
        if round >= WARMUP_ROUNDS {
            out.ratio.push(ratio);
            if round < DROP_ROUND {
                pre_drop.push(ratio);
            } else if settled.is_none() {
                let level = pre_drop.iter().sum::<f64>() / pre_drop.len().max(1) as f64;
                if ratio >= level * (1.0 - SETTLE_FRACTION) {
                    settled = Some(round - DROP_ROUND);
                }
            }
        }
        if let Some(c) = plane.balancer().last_clusters() {
            if c.assignment != prev_assignment {
                if !prev_assignment.is_empty() {
                    out.recluster_rounds += 1;
                }
                prev_assignment.clone_from(&c.assignment);
            }
        }
        if replay_every > 0 && round % replay_every == replay_every - 1 {
            replay_phases(&plane, &mut out.phases, tracer, ep_span);
        }
    }
    // Never recovered within the episode: count every post-drop round.
    out.settle_rounds = settled.unwrap_or(ROUNDS - DROP_ROUND) as u64 + 1;
    out.slow_share = plant.degraded_share(&units);
    out.slow_weight = plant
        .degraded()
        .iter()
        .map(|&j| f64::from(units[j]))
        .sum::<f64>()
        / plant.degraded().len().max(1) as f64;
    out.solved_blocking = plane.balancer_mut().solved_blocking();
    let t_drop = Instant::now();
    drop(plane);
    out.teardown_ms = t_drop.elapsed().as_secs_f64() * 1e3;
    tracer.finish(ep_span, Instant::now());
    out
}

/// Runs `control-wide` for about `seconds`: whole episodes from seeds
/// derived from `seed`, at least two. In a traced run the first episode
/// runs untraced, for the tracing overhead.
///
/// # Errors
///
/// Returns a [`Violation`] when a round's weights do not sum to the
/// resolution or the plant's throughput ratio leaves (0, 1].
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, Violation> {
    let mut rng = SplitMix64::new(seed ^ 0xC0A7_701E);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let cpu0 = streambal_transport::poll::process_cpu_time();
    let mut episodes = Vec::new();
    let mut untraced = Tracer::new(false);
    while episodes.len() < 2 || start.elapsed() + estimate(&episodes) <= budget {
        let ep = if tracer.enabled() && !episodes.is_empty() {
            episode(rng.next_u64(), REPLAY_EVERY, tracer)
        } else {
            episode(rng.next_u64(), 0, &mut untraced)
        };
        episodes.push(ep);
    }
    let cpu = streambal_transport::poll::process_cpu_time().saturating_sub(cpu0);
    let violations: u64 = episodes.iter().map(|e| e.violations).sum();
    if violations > 0 {
        return Err(Violation(format!(
            "{violations} rounds left the simplex or the throughput ratio left (0, 1]"
        )));
    }
    Ok(summarize(&episodes, cpu, tracer.enabled()))
}

/// In traced runs, the phases are replayed every this many rounds.
const REPLAY_EVERY: usize = 20;

/// Expected duration of one more episode: the mean so far.
fn estimate(episodes: &[Episode]) -> Duration {
    if episodes.is_empty() {
        return Duration::ZERO;
    }
    let total: u64 = episodes.iter().flat_map(|e| e.round_ns.iter()).sum();
    Duration::from_nanos(total / episodes.len() as u64)
}

fn summarize(episodes: &[Episode], cpu: Duration, traced: bool) -> Report {
    let rounds: u64 = episodes.iter().map(|e| e.round_ns.len() as u64).sum();
    let late: u64 = episodes.iter().map(|e| e.late_rounds).sum();
    // Per-episode quantiles, then their interquartile mean: smooth in the
    // share of the run the host spent in a slow state.
    let per_episode = |q: f64| {
        let v: Vec<f64> = episodes
            .iter()
            .map(|e| {
                let mut ns = e.round_ns.clone();
                quantile_of(&mut ns, q) as f64 / 1e3
            })
            .collect();
        iqm(&v)
    };
    let p50 = per_episode(0.5);
    let p90 = per_episode(0.9);
    let p99 = per_episode(0.99);
    let busy_s = episodes.iter().flat_map(|e| e.round_ns.iter()).sum::<u64>() as f64 / 1e9;
    let ratios: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.ratio.iter().copied())
        .collect();
    let settle: Vec<f64> = episodes.iter().map(|e| e.settle_rounds as f64).collect();
    let setup: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let mean = |f: &dyn Fn(&Episode) -> f64| {
        episodes.iter().map(f).sum::<f64>() / episodes.len().max(1) as f64
    };

    let mut r = Report {
        correct: true,
        attempted: rounds,
        failed: late,
        metrics: Vec::new(),
        invalid: None,
    };
    if !traced {
        r.set("setup_s", median(&setup), "s");
        // The operation here is a round: its latency is its wall time.
        r.set("lat_p50_us", p50, "us");
        r.set("max_rate", rounds as f64 / busy_s.max(1e-9), "1/s");
        r.set(
            "ok_ratio",
            (rounds - late) as f64 / rounds.max(1) as f64,
            "ratio",
        );
        r.set(
            "cpu_us_per_op",
            cpu.as_secs_f64() * 1e6 / rounds.max(1) as f64,
            "us",
        );
        r.set("peak_rss_mb", sys::peak_rss_bytes() as f64 / 1e6, "MB");
        r.set("round_p50_us", p50, "us");
        r.set("round_p99_us", p99, "us");
        r.set(
            "tput_ratio",
            ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
            "ratio",
        );
        r.set("settle_rounds", iqm(&settle), "count");
        return r;
    }
    let post_warmup = (ROUNDS - WARMUP_ROUNDS) as f64;
    let allocs = mean(&|e| e.allocs.allocs as f64) / post_warmup;
    r.set("alloc.per_op", allocs, "count");
    r.set(
        "alloc.bytes_per_op",
        mean(&|e| e.allocs.bytes as f64) / post_warmup,
        "B",
    );
    r.set("control.alloc_per_round", allocs, "count");
    r.set("control.slow_share", mean(&|e| e.slow_share), "ratio");
    r.set("control.slow_weight", mean(&|e| e.slow_weight), "count");
    r.set(
        "transport.blocked_ms.slow",
        mean(&|e| e.blocked_ms_slow),
        "ms",
    );
    r.set(
        "transport.blocked_ms.fast",
        mean(&|e| e.blocked_ms_fast),
        "ms",
    );
    r.set("region.rounds", ROUNDS as f64, "count");
    r.set("lat_p90_us", p90, "us");
    r.set("lat_p99_us", p99, "us");
    r.set("region.teardown_ms", mean(&|e| e.teardown_ms), "ms");
    r.set(
        "core.solved_blocking",
        mean(&|e| e.solved_blocking),
        "ratio",
    );
    r.set(
        "control.recluster_rounds",
        mean(&|e| e.recluster_rounds as f64),
        "count",
    );
    let mut phases = Phases::default();
    for e in episodes {
        phases.rebuild.extend(&e.phases.rebuild);
        phases.knee.extend(&e.phases.knee);
        phases.distance.extend(&e.phases.distance);
        phases.cluster.extend(&e.phases.cluster);
        phases.solve.extend(&e.phases.solve);
    }
    phases.report(&mut r);
    // Episode 0 ran untraced; the rest recorded spans.
    let med = |v: &[u64]| {
        let mut v = v.to_vec();
        quantile_of(&mut v, 0.5) as f64
    };
    let base = med(&episodes[0].round_ns);
    let traced_ns: Vec<u64> = episodes[1..]
        .iter()
        .flat_map(|e| e.round_ns.iter().copied())
        .collect();
    r.set(
        "trace.overhead_pct",
        (med(&traced_ns) / base.max(1.0) - 1.0) * 100.0,
        "%",
    );
    r
}
