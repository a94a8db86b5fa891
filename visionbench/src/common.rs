//! Options, failure accounting, metric tables and the end-to-end
//! summary every workload shares.

use crate::clock::thread_cpu_ns;
use crate::report::{percentile, Metric};
use std::collections::BTreeMap;

/// The seed later claims are developed against; the stored output
/// digests are taken at it.
pub const DEV_SEED: u64 = 2024;

pub const WORKLOADS: [&str; 4] = ["spatial_sfu", "video_2d", "serve_churn", "fleet"];

/// Groups measured at least, even past `--seconds`.
pub const MIN_GROUPS: usize = 3;

/// CPU seconds of one set-up: `setup` is repeated until at least 2 ms
/// have passed, so a microsecond set-up is still far above the clock's
/// resolution, and the mean per call is returned. `setup` gets the
/// sample index.
fn setup_sample(setup: &mut impl FnMut(usize), index: usize) -> f64 {
    let t = thread_cpu_ns();
    let mut calls = 0u32;
    while calls == 0 || thread_cpu_ns() - t < 2_000_000 {
        setup(index);
        calls += 1;
    }
    (thread_cpu_ns() - t) as f64 / 1e9 / calls as f64
}

/// Closed loop: measure one group after another until `seconds` have
/// passed and at least `MIN_GROUPS` groups are in, or 3 × `seconds`
/// have passed. One set-up sample is taken before every group, so the
/// `setup_s` median spans the whole run, not just its first moments.
pub fn closed_loop(
    seconds: f64,
    mut setup: impl FnMut(usize),
    mut group: impl FnMut(u64) -> Option<Group>,
) -> Measured {
    let start = std::time::Instant::now();
    let mut setups = Vec::new();
    let mut groups = Vec::new();
    let mut index = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && groups.len() >= MIN_GROUPS) || elapsed >= 3.0 * seconds {
            break;
        }
        setups.push(setup_sample(&mut setup, setups.len()));
        groups.extend(group(index));
        index += 1;
    }
    let setup_s = median(&setups);
    println!(
        "setup_s = {setup_s:.9} s: median of {} samples, {:.9}..{:.9}",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    Measured { setup_s, groups }
}

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, with the reasons for failures.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; it fails when `problems` is non-empty.
    pub fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.problems.push(format!("{label}: {p}"));
            }
        }
    }

    /// A failed check that belongs to no single operation (for example
    /// a digest mismatch): it fails one more operation, as long as one
    /// that has not failed yet remains.
    pub fn fail_last(&mut self, problem: String) {
        self.attempted = self.attempted.max(1);
        self.failed = (self.failed + 1).min(self.attempted);
        self.problems.push(problem);
    }
}

/// Share of a group's process CPU time that may run off the threads
/// whose clocks time the ticks and steps.
const OFF_THREAD_SLACK: f64 = 0.05;

/// Fail the group when the process spent more CPU time than the timed
/// threads did: then work ran on threads whose time no tick or step
/// sample includes, and those samples would read as a false gain.
pub fn check_on_thread(label: &str, process_s: f64, threads_s: f64, tally: &mut Tally) {
    if process_s > threads_s * (1.0 + OFF_THREAD_SLACK) {
        tally.fail_last(format!(
            "{label}: the process used {process_s:.4} CPU s but the timed threads only \
             {threads_s:.4}, so tick and step times miss work done on other threads"
        ));
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One group of operations measured together: a `core::par` batch of
/// sessions, a serve episode, or a fleet run. Host time is CPU time
/// (see `clock`).
#[derive(Default, Debug)]
pub struct Group {
    /// Simulated session-seconds completed.
    pub session_s: f64,
    /// Process CPU seconds the group took, summed over threads.
    pub cpu_s: f64,
    /// World virtual seconds advanced (each batch session is a world of
    /// its own).
    pub virtual_s: f64,
    /// Sessions completed (fleet: arrivals simulated).
    pub sessions: f64,
    /// CPU ms per session tick.
    pub tick_ms: Vec<f64>,
    /// CPU ms per 20 ms of virtual time.
    pub step_ms: Vec<f64>,
    /// Wall-clock ms of the same ticks and steps, printed beside the
    /// CPU percentiles.
    pub tick_wall_ms: Vec<f64>,
    pub step_wall_ms: Vec<f64>,
}

/// What a workload measured for the end-to-end metrics. Every metric is
/// the median over groups of the group's own figure, so a stretch of
/// host interference moves one group, not the result.
#[derive(Default, Debug)]
pub struct Measured {
    pub setup_s: f64,
    pub groups: Vec<Group>,
}

/// Percentile metrics a workload must resolve (≥ 10 samples beyond, in
/// every group) before it counts as measured: `tick_*` on `spatial_sfu`,
/// `step_*` on `serve_churn`.
pub fn home_percentiles(workload: &str) -> &'static [&'static str] {
    match workload {
        "spatial_sfu" => &["tick_p50_ms", "tick_p99_ms"],
        "serve_churn" => &["step_p50_ms", "step_p99_ms"],
        _ => &[],
    }
}

fn e2e(name: &str, value: f64) -> Metric {
    let &(_, unit, _) = END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .expect("declared end-to-end metric");
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// End-to-end metrics, in BENCHMARK.json order. Prints each percentile
/// with its sample counts first.
pub fn end_to_end(workload: &str, m: &Measured, tally: &mut Tally) -> Vec<Metric> {
    let rate = |f: &dyn Fn(&Group) -> f64| {
        median(&m.groups.iter().map(|g| f(g) / g.cpu_s).collect::<Vec<_>>())
    };
    let mut pct = |name: &str,
                   samples: &dyn Fn(&Group) -> &Vec<f64>,
                   wall: &dyn Fn(&Group) -> &Vec<f64>,
                   q: f64|
     -> Metric {
        let per_group: Vec<_> = m
            .groups
            .iter()
            .filter_map(|g| percentile(&mut samples(g).clone(), q))
            .collect();
        if per_group.is_empty() {
            tally.fail_last(format!("{name}: no samples"));
            return e2e(name, f64::NAN);
        }
        let unresolved = per_group.iter().filter(|p| !p.resolved()).count();
        let value = median(&per_group.iter().map(|p| p.value).collect::<Vec<_>>());
        let wall_value = median(
            &m.groups
                .iter()
                .filter_map(|g| percentile(&mut wall(g).clone(), q))
                .map(|p| p.value)
                .collect::<Vec<_>>(),
        );
        println!(
            "{name} = {value:.6} ms: median of {} group percentiles over {} samples, \
             each with {}..{} beyond{}; wall-clock {wall_value:.6} ms",
            per_group.len(),
            per_group.iter().map(|p| p.n).sum::<usize>(),
            per_group.iter().map(|p| p.beyond).min().unwrap_or(0),
            per_group.iter().map(|p| p.beyond).max().unwrap_or(0),
            if unresolved > 0 {
                format!(" ({unresolved} unresolved)")
            } else {
                String::new()
            },
        );
        if unresolved > 0 && home_percentiles(workload).contains(&name) {
            tally.fail_last(format!("{name} unresolved in {unresolved} groups"));
        }
        e2e(name, value)
    };
    let tick_p50 = pct("tick_p50_ms", &|g| &g.tick_ms, &|g| &g.tick_wall_ms, 50.0);
    let tick_p99 = pct("tick_p99_ms", &|g| &g.tick_ms, &|g| &g.tick_wall_ms, 99.0);
    let step_p50 = pct("step_p50_ms", &|g| &g.step_ms, &|g| &g.step_wall_ms, 50.0);
    let step_p99 = pct("step_p99_ms", &|g| &g.step_ms, &|g| &g.step_wall_ms, 99.0);
    vec![
        e2e("sim_s_per_s", rate(&|g| g.session_s)),
        tick_p50,
        tick_p99,
        e2e("rtf", rate(&|g| g.virtual_s)),
        step_p50,
        step_p99,
        e2e("sessions_per_s", rate(&|g| g.sessions)),
        e2e("setup_s", m.setup_s),
        e2e(
            "peak_rss_mb",
            crate::alloc::peak_rss_mb().unwrap_or(f64::NAN),
        ),
    ]
}

/// Name, unit and direction of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("sim_s_per_s", "s/s", "higher"),
    ("tick_p50_ms", "ms", "lower"),
    ("tick_p99_ms", "ms", "lower"),
    ("rtf", "x", "higher"),
    ("step_p50_ms", "ms", "lower"),
    ("step_p99_ms", "ms", "lower"),
    ("sessions_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Name, unit and direction of every per-layer metric. `*.ns` is mean
/// host ns per call; counts are totals over the traced reference
/// operations, which are the same at any host speed.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("semantic.encode.calls", "count", "lower"),
    ("semantic.encode.ns", "ns", "lower"),
    ("semantic.encode.self_ns", "ns", "lower"),
    ("semantic.encode.hot_ns", "ns", "lower"),
    ("semantic.encode.alloc_bytes", "B", "lower"),
    ("semantic.encode.payload_bytes", "B", "lower"),
    ("semantic.decode.calls", "count", "lower"),
    ("semantic.decode.ns", "ns", "lower"),
    ("semantic.decode.self_ns", "ns", "lower"),
    ("semantic.decode.hot_ns", "ns", "lower"),
    ("semantic.decode.alloc_bytes", "B", "lower"),
    ("semantic.decode.errors", "count", "lower"),
    ("semantic.decode.unique_ratio", "ratio", "higher"),
    ("semantic.split.ns", "ns", "lower"),
    ("semantic.assemble.ns", "ns", "lower"),
    ("semantic.assembler.abandoned", "count", "lower"),
    ("semantic.assembler.evicted", "count", "lower"),
    ("semantic.step_tick_share", "ratio", "lower"),
    ("compress.compress.ns", "ns", "lower"),
    ("compress.compress.alloc_bytes", "B", "lower"),
    ("compress.decompress.ns", "ns", "lower"),
    ("compress.decompress.alloc_bytes", "B", "lower"),
    ("sensor.next_frame.calls", "count", "lower"),
    ("sensor.next_frame.ns", "ns", "lower"),
    ("transport.quic_send.ns", "ns", "lower"),
    ("transport.quic_parse.ns", "ns", "lower"),
    ("transport.seal.ns_per_kb", "ns/KiB", "lower"),
    ("net.packets_sent", "count", "lower"),
    ("net.ns_per_packet", "ns", "lower"),
    ("net.batch_size_mean", "count", "higher"),
    ("net.batch_drains", "count", "lower"),
    ("net.packets_dropped", "count", "lower"),
    ("net.queue_dropped_bytes", "B", "lower"),
    ("net.queue_delay_us_p99", "us", "lower"),
    ("render.evaluate.ns", "ns", "lower"),
    ("render.cost_frame.ns", "ns", "lower"),
    ("render.triangles_mean", "count", "lower"),
    ("vca.step_tick.ns", "ns", "lower"),
    ("vca.step_tick.self_ns", "ns", "lower"),
    ("vca.step_tick.coverage", "ratio", "higher"),
    ("vca.adaptation.on_report.ns", "ns", "lower"),
    ("vca.pli_sent", "count", "lower"),
    ("vca.mode_switches", "count", "lower"),
    ("vca.failovers", "count", "lower"),
    ("vca.reconnect_attempts", "count", "lower"),
    ("vca.admission_rejects", "count", "lower"),
    ("capture.analysis.ns", "ns", "lower"),
    ("capture.tap_records", "count", "lower"),
    ("service.advance_to.ns", "ns", "lower"),
    ("service.command.ns", "ns", "lower"),
    ("service.live_sessions_mean", "count", "higher"),
    ("service.heap_growth_bytes_per_s", "B/s", "lower"),
    ("core.par.cells", "count", "lower"),
    ("core.shard.barrier_rounds", "count", "lower"),
    ("core.shard.xsite_msgs", "count", "lower"),
    ("core.shard.ns_per_round", "ns", "lower"),
    ("core.sanitizer.violations", "count", "lower"),
    ("core.trace.overhead_ratio", "ratio", "lower"),
    ("core.trace.spans", "count", "lower"),
];

/// Per-layer values a workload measured; names it did not measure read
/// as 0 (the layer did not run).
pub type Layers = BTreeMap<&'static str, f64>;

pub fn per_layer(layers: &Layers) -> Result<Vec<Metric>, String> {
    if let Some(unknown) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _, _)| n == *k))
    {
        return Err(format!("layer metric {unknown} is not declared"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name: name.into(),
            unit,
            value: layers.get(name).copied().unwrap_or(0.0),
        })
        .collect())
}

/// Read the Sim-class registry counter `name` (0 when never registered).
pub fn counter(name: &str) -> f64 {
    visionsim_core::metrics::counter_value(name).unwrap_or(0) as f64
}

/// The 20 ms pacing step of `serve` (the `ServeOptions` default).
pub const STEP_NS: u64 = 20_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::report::valid_name;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn table(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric table")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_prints() {
        let v = benchmark_json();
        let owned = |rows: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            rows.iter()
                .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
                .collect()
        };
        assert_eq!(table(&v, "end_to_end"), owned(&END_TO_END));
        assert_eq!(table(&v, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn benchmark_json_stays_inside_its_limits() {
        let v = benchmark_json();
        let mut names = std::collections::HashSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for m in v.get(key).and_then(Value::as_array).unwrap() {
                let name = m.get("name").and_then(Value::as_str).unwrap();
                assert!(valid_name(name), "{name}");
                assert!(
                    names.insert(name.to_string()) || key == "workloads",
                    "{name} twice"
                );
                if let Some(why) = m.get("why").and_then(Value::as_str) {
                    assert!(
                        why.len() <= 200 && !why.contains('\n'),
                        "{name}: why too long"
                    );
                }
                if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                    assert!(unit.len() <= 16, "{name}: unit {unit}");
                }
            }
        }
        let bounds: Vec<(String, f64)> = v
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).unwrap().to_string();
                (name, m.get("bound").and_then(Value::as_number).unwrap())
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
            assert!(
                *bound <= setup,
                "{name}: setup_s must have the largest bound"
            );
        }
        let secs = v.get("run_seconds").and_then(Value::as_number).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    }

    fn group(cpu_s: f64, ticks: usize) -> Group {
        Group {
            session_s: 6.0,
            cpu_s,
            virtual_s: 6.0,
            sessions: 1.0,
            tick_ms: (1..=ticks).map(|i| i as f64).collect(),
            step_ms: vec![1.0; 20],
            ..Group::default()
        }
    }

    #[test]
    fn end_to_end_takes_medians_over_groups() {
        let m = Measured {
            setup_s: 0.5,
            groups: vec![group(1.0, 1_000), group(2.0, 1_000), group(100.0, 1_000)],
        };
        let mut tally = Tally::default();
        let metrics = end_to_end("spatial_sfu", &m, &mut tally);
        let get = |n: &str| metrics.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(
            get("sim_s_per_s"),
            3.0,
            "the slow group does not drag the median"
        );
        assert_eq!(get("tick_p99_ms"), 990.0);
        assert_eq!(tally.failed, 0);
        let names: Vec<&str> = metrics.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _, _)| n));
    }

    #[test]
    fn only_home_percentiles_must_resolve() {
        let short = Measured {
            setup_s: 0.5,
            groups: vec![group(1.0, 999)],
        };
        let mut tally = Tally::default();
        end_to_end("spatial_sfu", &short, &mut tally);
        assert_eq!(tally.failed, 1, "{:?}", tally.problems);
        let mut tally = Tally::default();
        end_to_end("fleet", &short, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
    }

    #[test]
    fn work_off_the_timed_threads_fails_the_group() {
        let mut tally = Tally::default();
        tally.op("batch", vec![]);
        check_on_thread("batch", 1.04, 1.0, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
        check_on_thread("batch", 1.2, 1.0, &mut tally);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn tally_counts_failed_operations_once() {
        let mut t = Tally::default();
        t.op("a", vec![]);
        t.op("b", vec!["x".into(), "y".into()]);
        assert_eq!((t.attempted, t.failed, t.problems.len()), (2, 1, 2));
        t.fail_last("digest".into());
        assert_eq!((t.attempted, t.failed), (2, 2));
        t.fail_last("again".into());
        assert_eq!((t.attempted, t.failed, t.problems.len()), (2, 2, 4));
    }
}
