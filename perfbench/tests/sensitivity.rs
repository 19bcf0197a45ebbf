//! The benchmark's sensitivity self-test: it must see the balancer, and it
//! must refuse a run whose generator could not keep its schedule.
//!
//! Both tests drive real threads and sockets for several seconds, so they
//! run one after the other in a single test function, never concurrently
//! with each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streambal_runtime::workload::spin_multiplies;

use streambal_perfbench::dataflow;
use streambal_perfbench::proxy::{self, Spec};
use streambal_perfbench::trace::Tracer;

fn metric(r: &streambal_perfbench::report::Report, name: &str) -> f64 {
    r.get(name).unwrap_or_else(|| panic!("{name} reported"))
}

fn round_robin_reads_worse_than_the_adaptive_balancer() {
    let seconds = 8.0;
    let adaptive =
        dataflow::run(7, seconds, true, &mut Tracer::new(false)).expect("adaptive run is correct");
    let round_robin = dataflow::run(7, seconds, false, &mut Tracer::new(false))
        .expect("round-robin run is correct");
    let (a, rr) = (
        metric(&adaptive, "max_rate"),
        metric(&round_robin, "max_rate"),
    );
    assert!(
        rr < a,
        "round-robin max_rate {rr:.0}/s should read below the adaptive {a:.0}/s"
    );
}

fn a_generator_past_its_lag_bound_makes_the_run_invalid() {
    // More spinning threads than cores starve the generator thread, so it
    // falls behind its schedule at a rate the proxy serves with ease; the
    // backlog cap is never reached, so nothing is held back by the system.
    let stop = Arc::new(AtomicBool::new(false));
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let hogs: Vec<_> = (0..4 * cores)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(spin_multiplies(10_000));
                }
            })
        })
        .collect();
    let spec = Spec {
        nominal: 2_000.0,
        ladder: &[2_000.0],
        backlog_cap: usize::MAX,
        warmup: Duration::from_millis(200),
        ..proxy::SMALL
    };
    let r = proxy::run(&spec, 3, 2.0, &mut Tracer::new(false));
    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        h.join().expect("hog thread");
    }
    let r = r.expect("echoes stay correct");
    assert!(!r.correct, "a lagging generator must not give a valid run");
    let why = r.invalid.expect("an invalid run says why");
    assert!(why.contains("lag"), "{why}");
}

#[test]
fn sensitivity() {
    round_robin_reads_worse_than_the_adaptive_balancer();
    a_generator_past_its_lag_bound_makes_the_run_invalid();
}
