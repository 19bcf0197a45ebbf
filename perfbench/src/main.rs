//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--meta <json>]
//! ```
//!
//! Prints run metadata, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 1 on a
//! correctness violation (without a result), 2 on bad arguments, and 3
//! when the run is invalid (the result line then says `correct: false`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use streambal_perfbench::alloc::CountingAlloc;
use streambal_perfbench::gen::Violation;
use streambal_perfbench::report::Report;
use streambal_perfbench::trace::Tracer;
use streambal_perfbench::{control, dataflow, proxy, side, sys, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    meta: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        meta: "{}".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--meta" => args.meta = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, Violation> {
    let mut side_report = Report::default();
    let mut seconds = args.seconds;
    if args.trace {
        // The side measurements take part of the run's time.
        let t = Instant::now();
        let small = proxy::SMALL;
        let window = std::time::Duration::from_secs_f64((args.seconds * 0.1).clamp(0.5, 2.0));
        side::floor(
            small.frame,
            small.nominal,
            window,
            args.seed,
            tracer,
            &mut side_report,
        )?;
        side::codec(small.frame, "", tracer, &mut side_report);
        side::codec(proxy::STRAGGLER.frame, ".64k", tracer, &mut side_report);
        side::pick(tracer, &mut side_report);
        side::chan(tracer, &mut side_report);
        if args.workload == "proxy-small" {
            // The straggler's controller loop rides along with the proxy
            // workload's traced run.
            let window = std::time::Duration::from_secs_f64((args.seconds * 0.1).clamp(1.0, 3.0));
            side::straggler(window, args.seed, tracer, &mut side_report)?;
        }
        let side_s = t.elapsed().as_secs_f64();
        side_report.set("trace.side_s", side_s, "s");
        seconds = (args.seconds - side_s).max(1.0);
    }
    let mut r = match args.workload.as_str() {
        "proxy-small" => proxy::run(&proxy::SMALL, args.seed, seconds, tracer)?,
        "dataflow-straggler" => dataflow::run(args.seed, seconds, true, tracer)?,
        _ => control::run(args.seed, seconds, tracer)?,
    };
    for m in side_report.metrics {
        r.set(&m.name, m.value, m.unit);
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let ticks0 = sys::cpu_ticks();
    let mut report = match run(&args, &mut tracer) {
        Ok(r) => r,
        Err(v) => {
            eprintln!("perfbench: correctness violation in {}: {v}", args.workload);
            return ExitCode::from(1);
        }
    };
    let wall = started.elapsed().as_secs_f64();
    let ticks1 = sys::cpu_ticks();
    let steal_pct = (ticks1.0.saturating_sub(ticks0.0)) as f64 * 100.0
        / (ticks1.1.saturating_sub(ticks0.1)).max(1) as f64;
    let (list, kind): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, "per-layer")
    } else {
        (&END_TO_END, "end-to-end")
    };
    if args.trace {
        report.set("trace.spans", tracer.total() as f64, "count");
    }
    // Print exactly the listed metrics, in list order.
    let mut ordered = Report {
        correct: report.correct,
        attempted: report.attempted,
        failed: report.failed,
        metrics: Vec::new(),
        invalid: report.invalid.clone(),
    };
    for &(name, unit) in list {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.set(name, m.value, unit),
            None if args.trace => ordered.set(name, 0.0, unit),
            None => {
                eprintln!(
                    "perfbench: {} did not measure {kind} metric {name}",
                    args.workload
                );
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"wall_s\": {:.3}, \"steal_pct\": {:.2}, \"threads\": {}, \"run\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wall,
        steal_pct,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.meta
    );
    if let Some(path) = &args.trace_out {
        if args.trace {
            let meta = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}}}",
                args.workload, args.seed, args.meta
            );
            if let Err(e) = tracer.write_jsonl(path, &meta) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
    if let Some(why) = &ordered.invalid {
        println!("# invalid: {why}");
    }
    println!("{}", ordered.to_json());
    if ordered.invalid.is_some() {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
