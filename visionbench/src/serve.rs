//! `serve_churn`: a `ServiceWorld` driven through
//! `server::handle_command` with metrics and trace forced on, as `serve`
//! runs it, advanced in 20 ms pacing steps as fast as the host allows
//! (closed loop in host time). Each episode is a fresh world fed a
//! seeded command schedule over a fixed span of virtual time, so its
//! memory footprint does not depend on host speed.

use crate::alloc;
use crate::common::{self, Group, Layers, Measured, Opts, Tally, DEV_SEED, STEP_NS};
use crate::replay;
use crate::sessions;
use crate::spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use visionsim_core::par::derive_seed;
use visionsim_core::rng::SimRng;
use visionsim_core::time::SimDuration;
use visionsim_core::{metrics, sanitizer, trace};
use visionsim_experiments::harness::fnv1a64;
use visionsim_service::server::handle_command;
use visionsim_service::world::ServiceWorld;

/// Virtual length of one episode.
pub const EPISODE_SECS: u64 = 20;
const EPISODE_NS: u64 = EPISODE_SECS * 1_000_000_000;
const TICK_NS: u64 = SimDuration::FRAME_90FPS.as_nanos();
const FAULTS: [&str; 5] = ["flap", "rate-cliff", "delay-spike", "burst-loss", "outage"];

/// Output digest of episode 0 at [`DEV_SEED`].
const SERVE_DIGEST: u64 = 0x4594_7bc3_2d17_c123;

/// One joined session as the schedule planned it.
#[derive(Clone, Debug)]
struct Plan {
    preset: &'static str,
    n: usize,
    secs: u64,
}

#[derive(Clone, Debug)]
struct Cmd {
    at_ns: u64,
    line: String,
}

/// Churn lanes: each lane runs `PER_LANE` sessions of its preset, each
/// `CHURN_SECS` long, back to back with short random gaps. So the live
/// mix stays two long-lived sessions plus one session per lane, and
/// every episode does about the same work whatever the seed; the seed
/// moves the joins, and picks which sessions are faulted or leave.
const LANES: [(&str, usize); 4] = [
    ("facetime", 2),
    ("facetime", 2),
    ("facetime", 3),
    ("mixed", 2),
];
const PER_LANE: usize = 8;
const CHURN_SECS: u64 = 2;
/// Early leaves, each at 70% of the session's length.
const LEAVES: usize = 6;
/// Each fault kind hits this many churn sessions.
const FAULTS_PER_KIND: usize = 2;

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The seeded command schedule of one episode: two long-lived sessions
/// from t = 0, the churn lanes, faults of every kind and a few early
/// leaves against live churn sessions, and a snapshot every two seconds.
fn schedule(seed: u64, episode: u64) -> (Vec<Cmd>, Vec<Plan>) {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "serve_churn", episode));
    let mut joins: Vec<(u64, Plan)> = vec![
        (
            0,
            Plan {
                preset: "facetime",
                n: 2,
                secs: EPISODE_SECS + 2,
            },
        ),
        (
            0,
            Plan {
                preset: "mixed",
                n: 2,
                secs: EPISODE_SECS + 2,
            },
        ),
    ];
    // A lane holds at most 0.3 + 8 × (2 + 0.3) = 18.7 s: every churn
    // session ends before the episode does.
    for &(preset, n) in &LANES {
        let mut at = rng.uniform_range(0.02, 0.3);
        for _ in 0..PER_LANE {
            joins.push((
                (at * 1e9) as u64,
                Plan {
                    preset,
                    n,
                    secs: CHURN_SECS,
                },
            ));
            at += CHURN_SECS as f64 + rng.uniform_range(0.1, 0.3);
        }
    }
    // The world numbers sessions in join order.
    joins.sort_by_key(|(at, _)| *at);
    let mut cmds: Vec<Cmd> = joins
        .iter()
        .map(|(at, plan)| Cmd {
            at_ns: *at,
            line: format!(
                "join {} {} {} {}",
                plan.preset,
                plan.n,
                rng.next_u64() % 1_000_000,
                plan.secs
            ),
        })
        .collect();
    let mut churn: Vec<usize> = (0..joins.len()).filter(|&i| joins[i].0 > 0).collect();
    shuffle(&mut churn, &mut rng);
    let leaving = churn[..LEAVES].to_vec();
    shuffle(&mut churn, &mut rng);
    let faulted = &churn[..FAULTS_PER_KIND * FAULTS.len()];
    // Faults land before any leave of the same session, and both at
    // least 0.3 s before the session's own end, so they find it live.
    for (id, (at, plan)) in joins.iter().enumerate() {
        let leave_at = leaving.contains(&id).then_some(plan.secs as f64 * 0.7);
        if let Some(k) = faulted.iter().position(|&f| f == id) {
            let latest = leave_at.unwrap_or(plan.secs as f64 - 0.3) - 0.1;
            let fault_at = rng.uniform_range(0.1, latest);
            cmds.push(Cmd {
                at_ns: at + (fault_at * 1e9) as u64,
                line: format!(
                    "fault {id} {} {}",
                    rng.index(plan.n),
                    FAULTS[k % FAULTS.len()]
                ),
            });
        }
        if let Some(leave_at) = leave_at {
            cmds.push(Cmd {
                at_ns: at + (leave_at * 1e9) as u64,
                line: format!("leave {id}"),
            });
        }
    }
    for s in (2..EPISODE_SECS).step_by(2) {
        cmds.push(Cmd {
            at_ns: s * 1_000_000_000,
            line: "snapshot".into(),
        });
    }
    cmds.sort_by_key(|c| c.at_ns);
    (cmds, joins.into_iter().map(|(_, p)| p).collect())
}

/// A fresh world with the instruments forced on, as `serve` starts.
fn fresh_world() -> ServiceWorld {
    metrics::force(Some(true));
    metrics::reset();
    trace::force(Some(true));
    trace::reset();
    trace::reset_epoch();
    ServiceWorld::new()
}

/// The virtual-time model of one live session: ticks it has stepped by
/// world time `t` (it steps while `base + ticks·tick < t`).
#[derive(Clone, Copy, Debug)]
struct Live {
    base_ns: u64,
    total: u64,
    left_at: Option<u64>,
}

impl Live {
    fn ticks_by(&self, t: u64) -> u64 {
        let t = self.left_at.map_or(t, |l| l.min(t));
        t.saturating_sub(self.base_ns)
            .div_ceil(TICK_NS)
            .min(self.total)
    }
}

/// One episode's measurements.
#[derive(Default)]
struct Episode {
    /// Process CPU seconds of the whole episode: steps, commands and
    /// checks.
    cpu_s: f64,
    session_s: f64,
    sessions: u64,
    step_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    step_wall_ms: Vec<f64>,
    tick_wall_ms: Vec<f64>,
    ticks: u64,
    live_sum: f64,
    /// (virtual s, live heap bytes) per step.
    heap: Vec<(f64, f64)>,
    digest: u64,
    plans: Vec<Plan>,
}

fn run_episode(
    seed: u64,
    episode: u64,
    mut rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Episode {
    let (cmds, plans) = schedule(seed, episode);
    let mut world = fresh_world();
    let mut ep = Episode::default();
    let mut sessions: BTreeMap<u64, Live> = BTreeMap::new();
    let mut digest_text = String::new();
    let mut next = 0;
    let mut joined = 0u64;
    let steps = EPISODE_NS / STEP_NS;
    let start = crate::clock::process_cpu_ns();
    let thread_start = crate::clock::thread_cpu_ns();
    for step in 0..=steps {
        let target = step * STEP_NS;
        if step > 0 {
            let prev = target - STEP_NS;
            let wall = Instant::now();
            let cpu = crate::clock::thread_cpu_ns();
            match rec.as_deref_mut() {
                Some(r) => {
                    r.time("service.advance_to", episode, None, || {
                        world.advance_to(target)
                    });
                }
                None => world.advance_to(target),
            }
            let ms = (crate::clock::thread_cpu_ns() - cpu) as f64 / 1e6;
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let ticks: u64 = sessions
                .values()
                .map(|s| s.ticks_by(target) - s.ticks_by(prev))
                .sum();
            ep.step_ms.push(ms);
            ep.step_wall_ms.push(wall_ms);
            if ticks > 0 {
                ep.tick_ms.push(ms / ticks as f64);
                ep.tick_wall_ms.push(wall_ms / ticks as f64);
            }
            ep.ticks += ticks;
            ep.live_sum += world.live_sessions() as f64;
            ep.heap.push((target as f64 / 1e9, alloc::live() as f64));
        }
        while next < cmds.len() && cmds[next].at_ns <= target {
            let line = &cmds[next].line;
            next += 1;
            let (reply, _) = match rec.as_deref_mut() {
                Some(r) => {
                    r.time("service.command", episode, None, || {
                        handle_command(&mut world, line)
                    })
                    .0
                }
                None => handle_command(&mut world, line),
            };
            let mut problems = Vec::new();
            let verb = line.split(' ').next().unwrap_or("");
            if !reply.starts_with(&format!("ok {verb}")) {
                problems.push(format!("{line:?} → {reply:?}"));
            }
            match verb {
                "join" => {
                    let plan = &plans[joined as usize];
                    if reply != format!("ok join {joined}") {
                        problems.push(format!("join got {reply:?}, want id {joined}"));
                    }
                    sessions.insert(
                        joined,
                        Live {
                            base_ns: target,
                            total: plan.secs * 1_000_000_000 / TICK_NS,
                            left_at: None,
                        },
                    );
                    joined += 1;
                }
                "leave" => {
                    let id: u64 = line[6..].parse().expect("scheduled leave id");
                    let s = sessions.get_mut(&id).expect("leave of a joined session");
                    s.left_at = Some(target);
                    let want = format!("ok leave {id} ticks={} ", s.ticks_by(target));
                    if !reply.starts_with(&want) {
                        problems.push(format!("{reply:?}, want {want:?}…"));
                    }
                }
                _ => {}
            }
            if verb != "snapshot" {
                let _ = writeln!(digest_text, "{target} {reply}");
            }
            tally.op(&format!("serve_churn/{episode}/{line}"), problems);
        }
    }
    let live = world.live_sessions();
    let (reply, _) = handle_command(&mut world, "quiesce");
    tally.op(
        &format!("serve_churn/{episode}/quiesce"),
        if reply == format!("ok quiesce finished={live}") {
            vec![]
        } else {
            vec![format!("{reply:?} with {live} live")]
        },
    );
    ep.cpu_s = (crate::clock::process_cpu_ns() - start) as f64 / 1e9;
    common::check_on_thread(
        &format!("serve_churn/{episode}"),
        ep.cpu_s,
        (crate::clock::thread_cpu_ns() - thread_start) as f64 / 1e9,
        tally,
    );

    // Every session's stepped ticks must match the virtual-time model.
    let mut problems = Vec::new();
    for s in world.completed() {
        let model = sessions[&s.id];
        let want = model.ticks_by(EPISODE_NS);
        if s.ticks != want {
            problems.push(format!(
                "session {} stepped {} ticks, model says {want}",
                s.id, s.ticks
            ));
        }
        ep.session_s += s.ticks as f64 * TICK_NS as f64 / 1e9;
        let _ = writeln!(
            digest_text,
            "{} {} {} {} {}",
            s.id, s.ticks, s.failovers, s.pli_sent, s.left_early
        );
    }
    if world.completed().len() as u64 != joined {
        problems.push(format!(
            "{} of {joined} sessions completed",
            world.completed().len()
        ));
    }
    tally.op(&format!("serve_churn/{episode}/accounting"), problems);
    ep.sessions = joined;
    ep.plans = plans;
    for name in [
        "net/link_packets_sent",
        "net/packets_dropped",
        "net/queue_dropped_bytes",
        "vca/pli_sent",
        "vca/mode_switches",
        "vca/failovers",
        "vca/reconnect_attempts",
        "vca/admission_rejects",
        "vca/fault_onsets",
    ] {
        let _ = writeln!(digest_text, "{name}={}", common::counter(name));
    }
    ep.digest = fnv1a64(digest_text.as_bytes());
    ep
}

/// `run_episode` under `catch_unwind`: a panic inside the world fails
/// the episode and drops it, and the run goes on with a fresh world.
fn supervised_episode(
    seed: u64,
    episode: u64,
    rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Option<Episode> {
    let result = catch_unwind(AssertUnwindSafe(|| run_episode(seed, episode, rec, tally)));
    if result.is_err() {
        tally.op(&format!("serve_churn/{episode}"), vec!["panicked".into()]);
    }
    result.ok()
}

fn check_digest(opts: &Opts, ep: &Episode, tally: &mut Tally) {
    println!("digest episode0 = {:#018x}", ep.digest);
    if opts.seed == DEV_SEED && ep.digest != SERVE_DIGEST {
        tally.fail_last(format!(
            "episode 0 digest {:#018x} differs from the stored {SERVE_DIGEST:#018x}",
            ep.digest
        ));
    }
}

pub fn measure(opts: &Opts, tally: &mut Tally) -> Measured {
    // Set-up: a fresh instrumented world, the episode schedule, and the
    // joins due at t = 0.
    let setup = |i: usize| {
        let (cmds, _) = schedule(opts.seed, 1_000 + i as u64);
        let mut world = fresh_world();
        for c in cmds.iter().take_while(|c| c.at_ns == 0) {
            std::hint::black_box(handle_command(&mut world, &c.line));
        }
    };
    let measured = common::closed_loop(opts.seconds, setup, |episode| {
        let ep = supervised_episode(opts.seed, episode, None, tally)?;
        if episode == 0 {
            check_digest(opts, &ep, tally);
        }
        Some(Group {
            session_s: ep.session_s,
            cpu_s: ep.cpu_s,
            virtual_s: EPISODE_SECS as f64,
            sessions: ep.sessions as f64,
            tick_ms: ep.tick_ms,
            step_ms: ep.step_ms,
            tick_wall_ms: ep.tick_wall_ms,
            step_wall_ms: ep.step_wall_ms,
        })
    });
    metrics::force(None);
    trace::force(None);
    measured
}

/// Least-squares slope of y over x.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let (num, den) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Traced run: episode 0 untraced, then traced with the sanitizer on,
/// then the semantic pipeline and congestion controller replayed for
/// the episode's sessions.
pub fn trace(opts: &Opts, tally: &mut Tally, layers: &mut Layers) -> Recorder {
    let epoch = Instant::now();
    let plain = supervised_episode(opts.seed, 0, None, tally);
    sanitizer::force(Some(true));
    sanitizer::reset();
    let mut rec = Recorder::new(epoch);
    let traced = supervised_episode(opts.seed, 0, Some(&mut rec), tally);
    let violations = sanitizer::total();
    for v in sanitizer::take().iter().take(5) {
        tally.fail_last(format!("sanitizer: {v:?}"));
    }
    layers.insert("core.sanitizer.violations", violations as f64);
    for (name, key) in [
        ("vca.pli_sent", "vca/pli_sent"),
        ("vca.mode_switches", "vca/mode_switches"),
        ("vca.failovers", "vca/failovers"),
        ("vca.reconnect_attempts", "vca/reconnect_attempts"),
        ("vca.admission_rejects", "vca/admission_rejects"),
    ] {
        layers.insert(name, common::counter(key));
    }
    sessions::net_registry(layers);
    sanitizer::force(None);
    metrics::force(None);
    trace::force(None);
    let (Some(plain), Some(traced)) = (plain, traced) else {
        return rec; // the tally has the panic
    };
    check_digest(opts, &traced, tally);

    let steps = traced.step_ms.len() as f64;
    let advance_ns = rec.total("service.advance_to").1 as f64;
    layers.insert("service.advance_to.ns", rec.mean_ns("service.advance_to"));
    layers.insert("service.command.ns", rec.mean_ns("service.command"));
    layers.insert("service.live_sessions_mean", traced.live_sum / steps);
    layers.insert("service.heap_growth_bytes_per_s", slope(&plain.heap));
    let step_tick_ns = advance_ns / traced.ticks.max(1) as f64;
    layers.insert("vca.step_tick.ns", step_tick_ns);
    layers.insert("core.trace.overhead_ratio", traced.cpu_s / plain.cpu_s);

    // Replay the spatial pipeline of the episode's `facetime` sessions
    // (bounded: at most 3 simulated seconds each) and the congestion
    // controller, one report per sender per 500 ms, for every session.
    let mut total = replay::SpatialReplay::default();
    let mut spatial_ticks = 0u64;
    let mut intervals = 0u64;
    for (k, plan) in traced.plans.iter().enumerate() {
        let seed = derive_seed(opts.seed, "serve_churn/replay", k as u64);
        let secs = plan.secs.min(EPISODE_SECS);
        intervals += plan.n as u64 * 2 * secs;
        if plan.preset == "facetime" {
            total.add(&replay::spatial(
                plan.n,
                secs.min(3) * 90,
                seed,
                k as u64,
                &mut rec,
            ));
            spatial_ticks += secs * 90;
        }
    }
    replay::adaptation(intervals, opts.seed, true, 0, &mut rec);
    layers.insert(
        "vca.adaptation.on_report.ns",
        rec.mean_ns("vca.adaptation.on_report"),
    );
    let per_spatial_tick = sessions::spatial_layers(&rec, &total, step_tick_ns, tally, layers);
    let share = spatial_ticks as f64 / traced.ticks.max(1) as f64;
    let attributed = per_spatial_tick * share
        + rec.total("vca.adaptation.on_report").1 as f64 / traced.ticks.max(1) as f64;
    layers.insert(
        "semantic.step_tick_share",
        layers["semantic.step_tick_share"] * share,
    );
    layers.insert("vca.step_tick.coverage", attributed / step_tick_ns);
    layers.insert(
        "vca.step_tick.self_ns",
        (step_tick_ns - attributed).max(0.0),
    );
    rec
}
