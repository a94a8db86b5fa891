//! `fleet`: the paper-scale sharded fleet, `fleet::run_with` at 8 shards,
//! run back to back (closed loop). No packet and no codec runs here;
//! `core::shard` and `vca::fleet` do all the work.

use crate::common::{self, Group, Layers, Measured, Opts, Tally, DEV_SEED};
use crate::spans::Recorder;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use visionsim_core::par::derive_seed;
use visionsim_core::{metrics, sanitizer};
use visionsim_experiments::harness::fnv1a64;
use visionsim_geo::propagation::LatencyModel;
use visionsim_net::xshard::LinkMatrix;
use visionsim_vca::fleet::{FleetConfig, FleetOutcome};

pub const SHARDS: usize = 8;
/// The scale floors `experiments::fleet::run` asserts.
const PEAK_SESSIONS_FLOOR: u64 = 100_000;
const PEAK_PARTICIPANTS_FLOOR: u64 = 500_000;

/// Output digest of run 0 at [`DEV_SEED`].
const FLEET_DIGEST: u64 = 0x8dbc_6392_68d2_79dd;

fn config(seed: u64, index: u64) -> FleetConfig {
    FleetConfig::paper_scale(derive_seed(seed, "fleet", index))
}

fn check(out: &FleetOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    for s in &out.sites {
        if s.arrivals != s.admitted_sessions + s.rejected_sessions {
            problems.push(format!(
                "site {}: {} arrivals != {} admitted + {} rejected",
                s.label, s.arrivals, s.admitted_sessions, s.rejected_sessions
            ));
        }
    }
    let (sessions, participants) = out.peak_concurrency();
    if sessions < PEAK_SESSIONS_FLOOR || participants < PEAK_PARTICIPANTS_FLOOR {
        problems.push(format!(
            "peak {sessions} sessions / {participants} participants is below the floors"
        ));
    }
    if out.rounds == 0 {
        problems.push("no barrier rounds".into());
    }
    problems
}

fn digest(out: &FleetOutcome) -> u64 {
    let mut s = String::new();
    for site in &out.sites {
        let _ = writeln!(
            s,
            "{} a{} as{} rs{} ap{} rp{} dp{} w{} ps{} pp{} p50{:x} p99{:x} n{} {:?}",
            site.label,
            site.arrivals,
            site.admitted_sessions,
            site.rejected_sessions,
            site.admitted_participants,
            site.rejected_participants,
            site.departed_sessions,
            site.admitted_in_window,
            site.peak_sessions,
            site.peak_participants,
            site.join_p50_ms.to_bits(),
            site.join_p99_ms.to_bits(),
            site.join_samples.len(),
            site.samples,
        );
    }
    let _ = write!(s, "rounds {} msgs {}", out.rounds, out.messages);
    fnv1a64(s.as_bytes())
}

/// One fleet run under `catch_unwind` at the default width (`nproc`
/// shard workers), with the CPU seconds all its threads spent and its
/// wall-clock seconds; a panic is a failed operation.
fn run(
    opts: &Opts,
    index: u64,
    tally: &mut Tally,
    rec: Option<&mut Recorder>,
) -> Option<(FleetOutcome, f64, f64)> {
    let cfg = config(opts.seed, index);
    let wall = Instant::now();
    let t = crate::clock::process_cpu_ns();
    let result = catch_unwind(AssertUnwindSafe(|| match rec {
        Some(r) => {
            r.time("vca.fleet.run_fleet", index, None, || {
                visionsim_experiments::fleet::run_with(&cfg, SHARDS)
            })
            .0
        }
        None => visionsim_experiments::fleet::run_with(&cfg, SHARDS),
    }));
    let cpu_s = (crate::clock::process_cpu_ns() - t) as f64 / 1e9;
    let wall_s = wall.elapsed().as_secs_f64();
    let label = format!("fleet/{index}");
    match result {
        Ok(out) => {
            tally.op(&label, check(&out));
            if index == 0 {
                let d = digest(&out);
                println!("digest run0 = {d:#018x}");
                if opts.seed == DEV_SEED && d != FLEET_DIGEST {
                    tally.fail_last(format!(
                        "run 0 digest {d:#018x} differs from the stored {FLEET_DIGEST:#018x}"
                    ));
                }
            }
            Some((out, cpu_s, wall_s))
        }
        Err(_) => {
            tally.op(&label, vec!["panicked".into()]);
            None
        }
    }
}

pub fn measure(opts: &Opts, tally: &mut Tally) -> Measured {
    // Set-up: the fleet configuration and the backbone latency matrix
    // its lookahead comes from (the worlds themselves are built inside
    // `run_fleet`, so they count as measured work).
    let setup = |i: usize| {
        let cfg = config(opts.seed, 1_000 + i as u64);
        let sites = cfg.registry.sites();
        let model = LatencyModel::default();
        let matrix = LinkMatrix::from_fn(sites.len(), |a, b| {
            model.one_way(&sites[a].location(), &sites[b].location())
        });
        std::hint::black_box((matrix.min_latency(), cfg));
    };
    common::closed_loop(opts.seconds, setup, |index| {
        let (out, cpu_s, wall_s) = run(opts, index, tally, None)?;
        let virtual_s = out.duration.as_secs_f64();
        println!(
            "run {index}: {cpu_s:.4} CPU s, {wall_s:.4} wall s, {} rounds",
            out.rounds
        );
        let per_step = common::STEP_NS as f64 / 1e9 / virtual_s;
        Some(Group {
            // Session-seconds: concurrent sessions sampled once a second.
            session_s: out
                .sites
                .iter()
                .flat_map(|s| s.samples.iter().map(|&(_, n, _)| n as f64))
                .sum(),
            cpu_s,
            virtual_s,
            sessions: out.sites.iter().map(|s| s.arrivals).sum::<u64>() as f64,
            tick_ms: vec![cpu_s * 1e3 / out.rounds as f64],
            step_ms: vec![cpu_s * 1e3 * per_step],
            tick_wall_ms: vec![wall_s * 1e3 / out.rounds as f64],
            step_wall_ms: vec![wall_s * 1e3 * per_step],
        })
    })
}

/// Traced run: run 0 untraced, then traced with the sanitizer and the
/// registry on.
pub fn trace(opts: &Opts, tally: &mut Tally, layers: &mut Layers) -> Recorder {
    let epoch = Instant::now();
    let plain = run(opts, 0, &mut Tally::default(), None);
    metrics::force(Some(true));
    metrics::reset();
    sanitizer::force(Some(true));
    sanitizer::reset();
    let mut rec = Recorder::new(epoch);
    let traced = run(opts, 0, tally, Some(&mut rec));
    let violations = sanitizer::total();
    for v in sanitizer::take().iter().take(5) {
        tally.fail_last(format!("sanitizer: {v:?}"));
    }
    layers.insert("core.sanitizer.violations", violations as f64);
    layers.insert("core.par.cells", common::counter("par/cells"));
    metrics::force(None);
    sanitizer::force(None);
    if let (Some((_, plain_s, _)), Some((out, traced_s, _))) = (plain, traced) {
        layers.insert("core.shard.barrier_rounds", out.rounds as f64);
        layers.insert("core.shard.xsite_msgs", out.messages as f64);
        layers.insert(
            "core.shard.ns_per_round",
            traced_s * 1e9 / out.rounds as f64,
        );
        layers.insert("core.trace.overhead_ratio", traced_s / plain_s);
    }
    rec
}
