//! visionbench — the visionsim benchmark.
//!
//! ```text
//! visionbench --workload <spatial_sfu|video_2d|serve_churn|fleet>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the seed for about `--seconds` of host time,
//! checks the simulator's outputs, and prints one JSON result as the
//! last line: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a traced run (spans written to
//! `.bench_spans/<workload>-<seed>.tsv`). METRICS.md defines every
//! metric.

mod alloc;
mod clock;
mod common;
mod fleet;
#[cfg(test)]
mod json;
mod replay;
mod report;
mod serve;
mod sessions;
mod spans;

use common::{Layers, Opts, Tally, WORKLOADS};
use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn usage(problem: &str) -> ! {
    eprintln!("visionbench: {problem}");
    eprintln!(
        "usage: visionbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: common::DEV_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage(&format!("unknown workload {:?}", opts.workload));
    }
    opts
}

fn main() {
    let opts = parse_args();
    // No thread may outnumber the host's cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    visionsim_core::par::set_threads(Some(cores));
    println!(
        "visionbench workload={} seed={} seconds={} trace={} threads={cores}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );

    let mut tally = Tally::default();
    let metrics = if opts.trace {
        let mut layers = Layers::new();
        let rec = match opts.workload.as_str() {
            "spatial_sfu" | "video_2d" => sessions::trace(&opts, &mut tally, &mut layers),
            "serve_churn" => serve::trace(&opts, &mut tally, &mut layers),
            _ => fleet::trace(&opts, &mut tally, &mut layers),
        };
        layers.insert("core.trace.spans", rec.spans().len() as f64);
        let path = std::path::PathBuf::from(".bench_spans")
            .join(format!("{}-{}.tsv", opts.workload, opts.seed));
        match rec.write(&path) {
            Ok(()) => println!("spans: {} written to {}", rec.spans().len(), path.display()),
            Err(e) => tally.fail_last(format!("writing {}: {e}", path.display())),
        }
        common::per_layer(&layers).unwrap_or_else(|e| {
            eprintln!("visionbench: {e}");
            std::process::exit(1);
        })
    } else {
        let m = match opts.workload.as_str() {
            "spatial_sfu" | "video_2d" => sessions::measure(&opts, &mut tally),
            "serve_churn" => serve::measure(&opts, &mut tally),
            _ => fleet::measure(&opts, &mut tally),
        };
        common::end_to_end(&opts.workload, &m, &mut tally)
    };

    for p in tally.problems.iter().take(20) {
        println!("FAILED {p}");
    }
    let report = Report {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    };
    for m in &report.metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    match report.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("visionbench: {e}");
            std::process::exit(1);
        }
    }
}
