//! streambal's end-to-end and per-layer benchmark. See `README.md` beside
//! this crate for why each workload exists and which layer metric should
//! move which end-to-end metric.

#![deny(unsafe_code)]

pub mod alloc;
pub mod control;
pub mod dataflow;
pub mod gen;
pub mod proxy;
pub mod replay;
pub mod report;
pub mod side;
pub mod stats;
pub mod sys;
pub mod trace;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["proxy-small", "dataflow-straggler", "control-wide"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("max_rate", "1/s"),
    ("ok_ratio", "ratio"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
    ("tput_ratio", "ratio"),
    ("settle_rounds", "count"),
];

/// Per-layer metrics every traced run reports, with units. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("lat_p90_us", "us"),
    ("lat_p99_us", "us"),
    ("floor.rtt_p50_us", "us"),
    ("floor.rtt_p99_us", "us"),
    ("proxy.inner_p50_us", "us"),
    ("proxy.inner_p99_us", "us"),
    ("proxy.retries_per_kreq", "count"),
    ("proxy.ejections", "count"),
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("frame.decode_ns", "ns"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns.64k", "ns"),
    ("frame.encode_ns.64k", "ns"),
    ("pool.pick_ns.1t", "ns"),
    ("pool.pick_ns.2t", "ns"),
    ("gen.lag_p99_us", "us"),
    ("control.slow_share", "ratio"),
    ("control.slow_weight", "count"),
    ("transport.blocked_ms.slow", "ms"),
    ("transport.blocked_ms.fast", "ms"),
    ("region.slow_share", "ratio"),
    ("region.op_busy_share", "ratio"),
    ("region.blocked_ms.source", "ms"),
    ("region.blocked_ms.parallel", "ms"),
    ("region.blocked_ms.sink", "ms"),
    ("region.rounds", "count"),
    ("region.teardown_ms", "ms"),
    ("chan.handoff_ns", "ns"),
    ("chan.send_ns", "ns"),
    ("core.function_rebuild_us", "us"),
    ("core.knee_us", "us"),
    ("core.distance_fill_us", "us"),
    ("core.cluster_us", "us"),
    ("core.solve_us", "us"),
    ("core.solved_blocking", "ratio"),
    ("control.alloc_per_round", "count"),
    ("control.recluster_rounds", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.side_s", "s"),
];
