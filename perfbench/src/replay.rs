//! Controller replays. A round's phases are replayed on its inputs and
//! timed through the public `core` functions; and for the workloads whose
//! controller runs inside the program (the proxy's, the region's), the
//! rates it observed are replayed through a fresh [`ControlPlane`] of the
//! same width and configuration to time its rounds.

use std::time::Instant;

use streambal_control::ControlPlane;
use streambal_core::cluster::{self, Knee};
use streambal_core::controller::{BalancerConfig, ClusteringConfig};
use streambal_core::function::BlockingRateFunction;
use streambal_core::solver::{fox, Problem};

use crate::alloc;
use crate::report::Report;
use crate::stats::{iqm, median, quantile_of};
use crate::trace::Tracer;

/// Replay timings of the round phases, ns each.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// `BlockingRateFunction::predicted` over rebuilt functions.
    pub rebuild: Vec<u64>,
    /// `knee_of_function`.
    pub knee: Vec<u64>,
    /// `distance::fill_condensed`.
    pub distance: Vec<u64>,
    /// `agglomerative::cluster`.
    pub cluster: Vec<u64>,
    /// `solver::fox::solve` over the pooled cluster functions.
    pub solve: Vec<u64>,
}

/// Replays the phases of a clustered round on the plane's current state,
/// through the public `core` functions, and appends their timings.
pub fn replay_phases(plane: &ControlPlane, phases: &mut Phases, tracer: &mut Tracer, parent: u32) {
    let lb = plane.balancer();
    let n = lb.config().connections();
    let r = lb.config().resolution();

    let t = Instant::now();
    let mut functions: Vec<BlockingRateFunction> = (0..n)
        .map(|j| BlockingRateFunction::from_raw_points(r, 0.5, lb.function(j).raw_points()))
        .collect();
    for f in &mut functions {
        std::hint::black_box(f.predicted());
    }
    phases.rebuild.push(elapsed_ns(t));
    tracer.record("core.function_rebuild", parent, t, Instant::now());

    let t = Instant::now();
    let knees: Vec<Knee> = functions
        .iter_mut()
        .map(cluster::knee_of_function)
        .collect();
    phases.knee.push(elapsed_ns(t));
    tracer.record("core.knee", parent, t, Instant::now());

    let features: Vec<[f64; 3]> = knees.iter().map(|k| cluster::log_features(k, r)).collect();
    let mut condensed = vec![0.0; cluster::condensed_len(n)];
    let t = Instant::now();
    cluster::fill_condensed(&features, &mut condensed);
    phases.distance.push(elapsed_ns(t));
    tracer.record("core.distance_fill", parent, t, Instant::now());

    let mut square = vec![0.0; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d = condensed[cluster::condensed_index(n, i, j)];
            square[i * n + j] = d;
            square[j * n + i] = d;
        }
    }
    let threshold = ClusteringConfig::default().distance_threshold;
    let t = Instant::now();
    let clustering = if n >= ClusteringConfig::default().min_connections {
        cluster::cluster(n, &square, threshold)
    } else {
        cluster::cluster(n, &square, 0.0)
    };
    phases.cluster.push(elapsed_ns(t));
    tracer.record("core.cluster", parent, t, Instant::now());

    // The solve runs over one pooled function per cluster, each counted
    // with its member multiplicity, as the clustered round does.
    let mut pooled: Vec<BlockingRateFunction> = clustering
        .members
        .iter()
        .map(|m| {
            let members: Vec<&BlockingRateFunction> = m.iter().map(|&j| lb.function(j)).collect();
            cluster::aggregate_functions(&members, 0.5)
        })
        .collect();
    let tables: Vec<Vec<f64>> = pooled.iter_mut().map(|f| f.predicted().to_vec()).collect();
    let mult: Vec<u32> = clustering.members.iter().map(|m| m.len() as u32).collect();
    let problem = Problem::new(tables.iter().map(Vec::as_slice).collect(), r)
        .and_then(|p| p.with_multiplicity(mult))
        .expect("pooled tables form a valid problem");
    let t = Instant::now();
    let solved = fox::solve(&problem);
    phases.solve.push(elapsed_ns(t));
    tracer.record("core.solve", parent, t, Instant::now());
    std::hint::black_box(solved.ok());
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Timed rounds of a replayed controller, gathered in chunks (spread over
/// the run where the workload allows, so the figure averages the host's
/// states like the rest of the run).
#[derive(Debug, Clone, Default)]
pub struct Replay {
    chunk_p50_us: Vec<f64>,
    chunk_p99_us: Vec<f64>,
    /// Allocations per steady-state round (first chunk).
    pub allocs_per_round: f64,
    /// Phase replays (traced runs only, first chunk).
    pub phases: Phases,
    /// Solved minimax blocking after the last round of the latest chunk.
    pub solved_blocking: f64,
}

/// Rounds timed per chunk, at least: passes repeat until this many.
pub const CHUNK_ROUNDS: usize = 2_500;
/// Rounds at the start of a pass that stay out of the allocation count.
const REPLAY_WARMUP: usize = 5;

impl Replay {
    /// Replays `rounds` (virtual ns, per-connection rates) through fresh
    /// width-`width` planes configured like the program's (rate cap 10),
    /// as many passes as it takes to time [`CHUNK_ROUNDS`] rounds.
    pub fn chunk(&mut self, width: usize, rounds: &[(u64, Vec<f64>)], tracer: &mut Tracer) {
        let idle = [(0u64, vec![0.0; width])];
        let rounds = if rounds.is_empty() { &idle[..] } else { rounds };
        let first = self.chunk_p50_us.is_empty();
        let mut round_ns = Vec::with_capacity(CHUNK_ROUNDS + rounds.len());
        let mut pass = 0;
        while round_ns.len() < CHUNK_ROUNDS {
            let cfg = BalancerConfig::builder(width)
                .build()
                .expect("a non-empty width is valid");
            let mut plane = ControlPlane::builder(cfg).rate_cap(10.0).build();
            let mut allocs = 0u64;
            for (i, (t_ns, rates)) in rounds.iter().enumerate() {
                if rates.len() != width {
                    continue;
                }
                let a0 = alloc::snapshot();
                let t = Instant::now();
                std::hint::black_box(plane.round(t_ns / 1_000_000, rates));
                round_ns.push(elapsed_ns(t));
                let counting = first && pass == 0;
                if counting && i >= REPLAY_WARMUP {
                    allocs += alloc::snapshot().since(a0).allocs;
                }
                if counting && tracer.enabled() && i % 10 == 0 {
                    replay_phases(&plane, &mut self.phases, tracer, 0);
                }
            }
            if first && pass == 0 {
                let counted = rounds.len().saturating_sub(REPLAY_WARMUP).max(1);
                self.allocs_per_round = allocs as f64 / counted as f64;
            }
            self.solved_blocking = plane.balancer_mut().solved_blocking();
            pass += 1;
        }
        self.chunk_p50_us
            .push(quantile_of(&mut round_ns, 0.5) as f64 / 1e3);
        self.chunk_p99_us
            .push(crate::stats::quantile(&round_ns, 0.99) as f64 / 1e3);
    }

    /// Median round time, µs: the chunks' interquartile mean.
    #[must_use]
    pub fn round_p50_us(&self) -> f64 {
        iqm(&self.chunk_p50_us)
    }

    /// 99th-percentile round time, µs: the chunks' interquartile mean.
    #[must_use]
    pub fn round_p99_us(&self) -> f64 {
        iqm(&self.chunk_p99_us)
    }

    /// Adds the controller per-layer metrics to `r`.
    pub fn report_phases(&self, r: &mut Report) {
        self.phases.report(r);
        r.set("core.solved_blocking", self.solved_blocking, "ratio");
        r.set("control.alloc_per_round", self.allocs_per_round, "count");
        r.set("control.recluster_rounds", 0.0, "count");
    }
}

impl Phases {
    /// Adds the median replay time of each phase to `r`, µs.
    pub fn report(&self, r: &mut Report) {
        let us = |v: &[u64]| median(&v.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
        r.set("core.function_rebuild_us", us(&self.rebuild), "us");
        r.set("core.knee_us", us(&self.knee), "us");
        r.set("core.distance_fill_us", us(&self.distance), "us");
        r.set("core.cluster_us", us(&self.cluster), "us");
        r.set("core.solve_us", us(&self.solve), "us");
    }
}

/// Rounds, counted from the first round that observed any blocking, until
/// slot `slot`'s weight first covered three quarters of the way from the
/// even share to its steady level (the median over the last half of the
/// rounds); at least 1. A slot that never moves more than a tenth of the
/// even share, or a run without blocking, settles in round 1.
#[must_use]
pub fn settle_rounds(weights: &[Vec<u32>], rates: &[Vec<f64>], slot: usize) -> u64 {
    let Some(first) = weights.first() else {
        return 1;
    };
    let Some(start) = rates.iter().position(|r| r.iter().any(|&x| x > 0.0)) else {
        return 1;
    };
    let series: Vec<f64> = weights
        .iter()
        .filter_map(|w| w.get(slot).map(|&u| f64::from(u)))
        .collect();
    let total: f64 = first.iter().map(|&u| f64::from(u)).sum();
    let even = total / first.len().max(1) as f64;
    let steady = median(&series[series.len() / 2..]);
    let gap = steady - even;
    if gap.abs() <= 0.1 * even {
        return 1;
    }
    let target = even + 0.75 * gap;
    let reached = series
        .iter()
        .position(|&w| if gap < 0.0 { w <= target } else { w >= target })
        .unwrap_or(series.len());
    (reached.saturating_sub(start) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_counts_rounds_to_three_quarters_of_the_move() {
        let w = |x: u32| vec![x, 1000 - x];
        let series: Vec<Vec<u32>> = [500, 450, 300, 210, 200, 200, 200, 200]
            .iter()
            .map(|&x| w(x))
            .collect();
        let mut rates = vec![vec![0.0, 0.0]; series.len()];
        rates[1][0] = 0.5;
        // even 500, steady 200: target 275, first reached at index 3, two
        // rounds after the first blocking observation at index 1.
        assert_eq!(settle_rounds(&series, &rates, 0), 2);
        let flat: Vec<Vec<u32>> = (0..8).map(|_| w(500)).collect();
        assert_eq!(settle_rounds(&flat, &rates, 0), 1);
        assert_eq!(settle_rounds(&series, &vec![vec![0.0, 0.0]; 8], 0), 1);
    }
}
