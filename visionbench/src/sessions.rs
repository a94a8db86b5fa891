//! `spatial_sfu` and `video_2d`: batch-stepped sessions fanned out over
//! `core::par`, closed loop (a new batch starts when the last one ends,
//! until the time budget is spent).

use crate::common::{self, Group, Layers, Measured, Opts, Tally, DEV_SEED, STEP_NS};
use crate::replay;
use crate::spans::Recorder;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;
use visionsim_capture::analysis::CaptureAnalysis;
use visionsim_core::par::{self, derive_seed, Cell};
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::DataRate;
use visionsim_core::{metrics, sanitizer};
use visionsim_device::device::DeviceKind;
use visionsim_experiments::harness::fnv1a64;
use visionsim_geo::cities;
use visionsim_geo::sites::Provider;
use visionsim_net::fault::{FaultPlan, GeConfig};
use visionsim_vca::profile::{PersonaType, Topology};
use visionsim_vca::session::{ParticipantSpec, SessionConfig, SessionOutcome, SessionSim};

/// Users per spatial session: Figure 6's largest size.
pub const SPATIAL_USERS: usize = 5;
/// Simulated length of one spatial session.
pub const SPATIAL_SECS: u64 = 6;
/// Simulated length of one 2D session.
pub const VIDEO_SECS: u64 = 20;
/// Sessions in one `video_2d` batch.
const VIDEO_BATCH: u64 = 8;

/// Output digests of operation 0 at [`DEV_SEED`].
const SPATIAL_DIGEST: u64 = 0xfb70_0cb4_9beb_48e8;
const VIDEO_DIGEST: u64 = 0xb76c_8f89_4f1e_b4c2;

/// One session to run and what it must satisfy.
#[derive(Clone, Debug)]
pub struct Op {
    pub index: u64,
    pub label: String,
    pub cfg: SessionConfig,
    pub expect_topology: Topology,
    pub expect_persona: PersonaType,
}

fn spatial_batch(seed: u64, batch: u64, width: usize) -> Vec<Op> {
    (0..width as u64)
        .map(|k| {
            let index = batch * width as u64 + k;
            let mut cfg = SessionConfig::facetime_avp(
                SPATIAL_USERS,
                &cities::us_vantages(),
                derive_seed(seed, "spatial_sfu", index),
            );
            cfg.duration = SimDuration::from_secs(SPATIAL_SECS);
            Op {
                index,
                label: format!("spatial_sfu/{index}"),
                cfg,
                expect_topology: Topology::Sfu,
                expect_persona: PersonaType::Spatial,
            }
        })
        .collect()
}

/// The fixed mix of one `video_2d` batch: two-party AVP↔MacBook calls
/// on every app, two 5-user SFU calls, and two congestion-controlled
/// calls over shaped uplinks with burst loss.
fn video_batch(seed: u64, batch: u64) -> Vec<Op> {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let ny = cities::by_name("New York, NY").expect("registry city");
    let vantages = cities::us_vantages();
    let group = |provider: Provider, n: usize, seed: u64| {
        let mut cfg = SessionConfig::facetime_avp(n, &vantages, seed);
        cfg.provider = provider;
        cfg.participants = (0..n)
            .map(|i| ParticipantSpec {
                name: format!("U{}", i + 1),
                device: if i == 0 {
                    DeviceKind::VisionPro
                } else {
                    DeviceKind::MacBook
                },
                city: vantages[i % vantages.len()],
            })
            .collect();
        cfg
    };
    let pair = |provider: Provider, seed: u64| {
        SessionConfig::two_party(
            provider,
            (DeviceKind::VisionPro, sf),
            (DeviceKind::MacBook, ny),
            seed,
        )
    };
    let index = |k: u64| batch * VIDEO_BATCH + k;
    let seed_of = |k: u64| derive_seed(seed, "video_2d", index(k));
    let mut zoom_cc = pair(Provider::Zoom, seed_of(6));
    congested(&mut zoom_cc, DataRate::from_kbps(1_500), 1);
    let mut webex_cc = group(Provider::Webex, 5, seed_of(7));
    congested(&mut webex_cc, DataRate::from_kbps(2_000), 2);
    let mix = [
        (
            "facetime-2",
            Topology::P2P,
            pair(Provider::FaceTime, seed_of(0)),
        ),
        ("zoom-2", Topology::P2P, pair(Provider::Zoom, seed_of(1))),
        ("webex-2", Topology::Sfu, pair(Provider::Webex, seed_of(2))),
        ("teams-2", Topology::Sfu, pair(Provider::Teams, seed_of(3))),
        (
            "zoom-5",
            Topology::Sfu,
            group(Provider::Zoom, 5, seed_of(4)),
        ),
        (
            "webex-5",
            Topology::Sfu,
            group(Provider::Webex, 5, seed_of(5)),
        ),
        ("zoom-2-cc", Topology::P2P, zoom_cc),
        ("webex-5-cc", Topology::Sfu, webex_cc),
    ];
    mix.into_iter()
        .zip(0..)
        .map(|((name, topology, mut cfg), k)| {
            cfg.duration = SimDuration::from_secs(VIDEO_SECS);
            Op {
                index: index(k),
                label: format!("video_2d/{}/{name}", index(k)),
                cfg,
                expect_topology: topology,
                expect_persona: PersonaType::TwoD,
            }
        })
        .collect()
}

/// Close the congestion loop over a shaped uplink for participant 0 and
/// give participant `lossy` a 5 s burst-loss episode.
fn congested(cfg: &mut SessionConfig, uplink: DataRate, lossy: usize) {
    cfg.congestion_control = true;
    cfg.uplink_limits = vec![(0, uplink)];
    cfg.fault_plans = vec![(
        lossy,
        FaultPlan::burst_loss(
            SimTime::from_secs(VIDEO_SECS / 3),
            GeConfig::wifi_bursts(),
            SimDuration::from_secs(5),
        ),
    )];
}

fn batch(opts: &Opts, index: u64) -> Vec<Op> {
    match opts.workload.as_str() {
        // At least two sessions, so a batch holds the 1,000 ticks a
        // resolved p99 needs.
        "spatial_sfu" => spatial_batch(opts.seed, index, par::threads().max(2)),
        _ => video_batch(opts.seed, index),
    }
}

/// One session, stepped tick by tick with each tick timed on the CPU
/// clock of the thread that steps it, and on the wall clock.
pub struct Run {
    pub outcome: SessionOutcome,
    pub tick_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub tick_wall_ms: Vec<f64>,
    pub step_wall_ms: Vec<f64>,
    /// CPU seconds of this thread over the whole session, `new` to
    /// `finish`.
    pub thread_cpu_s: f64,
    pub ticks: u64,
    pub spans: Option<Recorder>,
}

fn run_session(op: &Op, epoch: Option<Instant>) -> Run {
    let start = crate::clock::thread_cpu_ns();
    let mut rec = epoch.map(Recorder::new);
    let mut sim = match rec.as_mut() {
        Some(r) => {
            r.time("vca.session.new", op.index, None, || {
                SessionSim::new(op.cfg.clone())
            })
            .0
        }
        None => SessionSim::new(op.cfg.clone()),
    };
    let (_, total) = sim.progress();
    let mut tick_ms = Vec::with_capacity(total as usize);
    let mut tick_wall_ms = Vec::with_capacity(total as usize);
    let (mut step_ms, mut step_wall_ms) = (Vec::new(), Vec::new());
    let (mut window, mut acc, mut acc_wall) = (0u64, 0.0f64, 0.0f64);
    while !sim.done() {
        let w = sim.now().as_nanos() / STEP_NS;
        if w != window {
            step_ms.push(acc);
            step_wall_ms.push(acc_wall);
            (window, acc, acc_wall) = (w, 0.0, 0.0);
        }
        let wall = Instant::now();
        let cpu = crate::clock::thread_cpu_ns();
        match rec.as_mut() {
            Some(r) => {
                r.time("vca.step_tick", op.index, None, || sim.step_tick());
            }
            None => sim.step_tick(),
        }
        let ms = (crate::clock::thread_cpu_ns() - cpu) as f64 / 1e6;
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        tick_ms.push(ms);
        tick_wall_ms.push(wall_ms);
        acc += ms;
        acc_wall += wall_ms;
    }
    step_ms.push(acc);
    step_wall_ms.push(acc_wall);
    let (ticks, _) = sim.progress();
    let outcome = match rec.as_mut() {
        Some(r) => {
            r.time("vca.session.finish", op.index, None, || sim.finish())
                .0
        }
        None => sim.finish(),
    };
    Run {
        outcome,
        tick_ms,
        step_ms,
        tick_wall_ms,
        step_wall_ms,
        thread_cpu_s: (crate::clock::thread_cpu_ns() - start) as f64 / 1e9,
        ticks,
        spans: rec,
    }
}

/// Invariants readable from the outcome.
fn check(op: &Op, run: &Run) -> Vec<String> {
    let o = &run.outcome;
    let n = op.cfg.participants.len();
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    expect(
        o.persona_type == op.expect_persona,
        format!("persona {:?}", o.persona_type),
    );
    expect(
        o.topology == op.expect_topology,
        format!("topology {:?}", o.topology),
    );
    let ticks = op.cfg.duration.as_nanos() / SimDuration::FRAME_90FPS.as_nanos();
    expect(
        run.ticks == ticks,
        format!("stepped {} of {ticks} ticks", run.ticks),
    );
    expect(
        o.taps.iter().all(|t| !t.is_empty()),
        "a participant's AP tap is empty".into(),
    );
    expect(
        o.failovers.is_empty(),
        format!("{} failovers without a server fault", o.failovers.len()),
    );
    match op.expect_persona {
        PersonaType::Spatial => {
            // Open loop (no congestion control): every sender emits one
            // semantic frame per tick.
            let frames = o.semantic_frame_sizes.len() as u64;
            expect(
                frames == n as u64 * run.ticks,
                format!(
                    "{frames} semantic frames, want n·fps·secs = {}",
                    n as u64 * run.ticks
                ),
            );
            for (r, lat) in o.e2e_latency_ms.iter().enumerate() {
                let got = lat.count() as u64;
                expect(
                    got > 0 && got <= (n as u64 - 1) * run.ticks,
                    format!("receiver {r} completed {got} frames"),
                );
            }
            for (r, c) in o.counters.iter().enumerate() {
                expect(
                    c.frames().len() as u64 == run.ticks,
                    format!("participant {r} rendered {} frames", c.frames().len()),
                );
            }
        }
        PersonaType::TwoD => {
            expect(
                o.semantic_frame_sizes.is_empty(),
                "2D session produced semantic frames".into(),
            );
            expect(
                o.final_quality.iter().all(|q| *q > 0.0 && *q <= 1.0),
                format!("encoder quality out of (0, 1]: {:?}", o.final_quality),
            );
        }
    }
    problems
}

/// FNV-1a digest of the Sim-class outputs of one session.
pub fn digest(o: &SessionOutcome) -> u64 {
    let mut s = format!(
        "{:?} {:?} {:?}\n",
        o.persona_type, o.topology, o.semantic_frame_sizes
    );
    for i in 0..o.taps.len() {
        let bytes: u64 = o.taps[i].iter().map(|t| t.wire_size.as_bytes()).sum();
        let frames = o.counters[i].frames();
        let tri: usize = frames.iter().map(|f| f.triangles).sum();
        let gpu: f64 = frames.iter().map(|f| f.gpu_ms).sum();
        let lat: f64 = o.e2e_latency_ms[i].samples().iter().sum();
        let _ = writeln!(
            s,
            "{i} taps={} bytes={bytes} frames={} tri={tri} gpu={:x} lat={}/{:x} avail={} modes={} fb={} q={:x}/{} pli={} kf={}",
            o.taps[i].len(),
            frames.len(),
            gpu.to_bits(),
            o.e2e_latency_ms[i].count(),
            lat.to_bits(),
            o.availability[i].len(),
            o.mode_log[i].len(),
            o.fallbacks[i],
            o.final_quality[i].to_bits(),
            o.quality_log[i].len(),
            o.pli_sent[i],
            o.keyframes_forced[i],
        );
    }
    let _ = write!(
        s,
        "failovers={:?} reconnects={} rejects={}",
        o.failovers,
        o.reconnects.len(),
        o.admission_rejects
    );
    fnv1a64(s.as_bytes())
}

fn stored_digest(workload: &str) -> u64 {
    if workload == "spatial_sfu" {
        SPATIAL_DIGEST
    } else {
        VIDEO_DIGEST
    }
}

/// Run one batch under `core::par` supervision; panics become failed
/// operations. Also returns the process CPU seconds the batch took, and
/// fails the batch when they exceed the stepping threads' own.
fn run_batch(ops: &[Op], epoch: Option<Instant>, tally: &mut Tally) -> (Vec<(Op, Run)>, f64) {
    // `SessionConfig` is `Send` but not `Sync`; each cell owns its copy.
    let cells: Vec<Cell<Mutex<Op>>> = ops
        .iter()
        .map(|op| Cell::new(op.label.clone(), op.cfg.seed, Mutex::new(op.clone())))
        .collect();
    let cpu = crate::clock::process_cpu_ns();
    let results = par::try_par_map(cells, |cell| {
        // The guard lives only for the clone, so no panic can poison it.
        let op = cell
            .input
            .lock()
            .expect("op mutex held only to clone")
            .clone();
        run_session(&op, epoch)
    });
    let cpu_s = (crate::clock::process_cpu_ns() - cpu) as f64 / 1e9;
    let mut runs = Vec::new();
    for (op, result) in ops.iter().zip(results) {
        match result {
            Ok(run) => {
                tally.op(&op.label, check(op, &run));
                runs.push((op.clone(), run));
            }
            Err(e) => tally.op(&op.label, vec![format!("panicked: {}", e.payload)]),
        }
    }
    if runs.len() == ops.len() {
        let threads_s = runs.iter().map(|(_, r)| r.thread_cpu_s).sum();
        common::check_on_thread(&ops[0].label, cpu_s, threads_s, tally);
    }
    (runs, cpu_s)
}

fn check_digest(opts: &Opts, runs: &[(Op, Run)], tally: &mut Tally) {
    if let Some((_, run)) = runs.iter().find(|(op, _)| op.index == 0) {
        let d = digest(&run.outcome);
        println!("digest op0 = {d:#018x}");
        if opts.seed == DEV_SEED && d != stored_digest(&opts.workload) {
            tally.fail_last(format!(
                "op0 digest {d:#018x} differs from the stored {:#018x}",
                stored_digest(&opts.workload)
            ));
        }
    }
}

pub fn measure(opts: &Opts, tally: &mut Tally) -> Measured {
    // Set-up: one batch's configurations and session worlds.
    let setup = |i: usize| {
        let sims: Vec<SessionSim> = batch(opts, 1_000 + i as u64)
            .into_iter()
            .map(|op| SessionSim::new(op.cfg))
            .collect();
        drop(std::hint::black_box(sims));
    };
    common::closed_loop(opts.seconds, setup, |index| {
        let (runs, cpu_s) = run_batch(&batch(opts, index), None, tally);
        if index == 0 {
            check_digest(opts, &runs, tally);
        }
        let mut g = Group {
            cpu_s,
            ..Group::default()
        };
        for (op, run) in runs {
            let secs = op.cfg.duration.as_secs_f64();
            g.session_s += secs;
            g.virtual_s += secs;
            g.sessions += 1.0;
            g.tick_ms.extend(run.tick_ms);
            g.step_ms.extend(run.step_ms);
            g.tick_wall_ms.extend(run.tick_wall_ms);
            g.step_wall_ms.extend(run.step_wall_ms);
        }
        (g.sessions > 0.0).then_some(g)
    })
}

/// Traced run: batch 0 once untraced and once traced, then the layer
/// replays on batch 0's inputs.
pub fn trace(opts: &Opts, tally: &mut Tally, layers: &mut Layers) -> Recorder {
    let epoch = Instant::now();
    let ops = batch(opts, 0);
    let ticks_of = |runs: &[(Op, Run)]| -> (u64, f64) {
        runs.iter().fold((0, 0.0), |(t, ms), (_, r)| {
            (t + r.ticks, ms + r.tick_ms.iter().sum::<f64>())
        })
    };
    let (plain_ticks, plain_ms) = ticks_of(&run_batch(&ops, None, &mut Tally::default()).0);

    metrics::force(Some(true));
    metrics::reset();
    sanitizer::force(Some(true));
    sanitizer::reset();
    let (runs, _) = run_batch(&ops, Some(epoch), tally);
    check_digest(opts, &runs, tally);
    let violations = sanitizer::total();
    for v in sanitizer::take().iter().take(5) {
        tally.fail_last(format!("sanitizer: {v:?}"));
    }
    let mut rec = Recorder::new(epoch);
    let (traced_ticks, traced_ms) = ticks_of(&runs);
    layers.insert("core.sanitizer.violations", violations as f64);
    layers.insert("core.par.cells", common::counter("par/cells"));
    for (name, key) in [
        ("vca.pli_sent", "vca/pli_sent"),
        ("vca.mode_switches", "vca/mode_switches"),
        ("vca.failovers", "vca/failovers"),
        ("vca.reconnect_attempts", "vca/reconnect_attempts"),
        ("vca.admission_rejects", "vca/admission_rejects"),
    ] {
        layers.insert(name, common::counter(key));
    }
    net_registry(layers);
    metrics::force(None);
    sanitizer::force(None);
    if runs.is_empty() {
        return rec; // every session panicked; the tally has them
    }

    // Outcome-derived counts and the capture analysis over every tap.
    let mut taps = 0u64;
    let (mut tri, mut rendered) = (0u64, 0u64);
    for (op, run) in &runs {
        let o = &run.outcome;
        for (p, records) in o.taps.iter().enumerate() {
            taps += records.len() as u64;
            rec.time("capture.analysis", op.index, None, || {
                CaptureAnalysis::new(records.iter(), o.client_addrs[p])
            });
        }
        for c in &o.counters {
            tri += c.frames().iter().map(|f| f.triangles as u64).sum::<u64>();
            rendered += c.frames().len() as u64;
        }
    }
    layers.insert("capture.tap_records", taps as f64);
    layers.insert("capture.analysis.ns", rec.mean_ns("capture.analysis"));
    if rendered > 0 {
        layers.insert("render.triangles_mean", tri as f64 / rendered as f64);
    }

    // Layer replays, attributed per tick. The datapath replay covers
    // every session of the batch.
    let all_ticks: u64 = runs.iter().map(|(_, r)| r.ticks).sum();
    let packets: u64 = runs
        .iter()
        .map(|(op, run)| replay::net(&run.outcome, op.cfg.seed, op.index, &mut rec))
        .sum();
    let net_ns = rec.total("net.replay").1 as f64;
    layers.insert("net.ns_per_packet", net_ns / packets.max(1) as f64);
    let mut attributed_per_tick = net_ns / all_ticks as f64;
    // Replay spans are wall-clock, so coverage compares them with the
    // wall-clock `step_tick` spans of the traced pass.
    let (tick_calls, tick_ns) = runs
        .iter()
        .filter_map(|(_, r)| r.spans.as_ref())
        .map(|r| r.total("vca.step_tick"))
        .fold((0, 0), |(n, ns), (c, t)| (n + c, ns + t));
    let step_tick_ns = tick_ns as f64 / tick_calls.max(1) as f64;
    let (op0, run0) = &runs[0];
    if opts.workload == "spatial_sfu" {
        // The semantic pipeline of operation 0 (every session of the
        // batch has the same shape).
        let r = replay::spatial(
            op0.cfg.participants.len(),
            run0.ticks,
            op0.cfg.seed,
            op0.index,
            &mut rec,
        );
        attributed_per_tick += spatial_layers(&rec, &r, step_tick_ns, tally, layers);
        program_codec_counts(&runs, layers);
    } else {
        // One receiver report per 500 ms feedback interval per sender,
        // through the controller each session runs.
        for (op, _) in &runs {
            let intervals = op.cfg.participants.len() as u64 * 2 * VIDEO_SECS;
            replay::adaptation(
                intervals,
                op.cfg.seed,
                op.cfg.congestion_control,
                op.index,
                &mut rec,
            );
        }
        layers.insert(
            "vca.adaptation.on_report.ns",
            rec.mean_ns("vca.adaptation.on_report"),
        );
        attributed_per_tick += rec.total("vca.adaptation.on_report").1 as f64 / all_ticks as f64;
    }
    layers.insert("vca.step_tick.ns", step_tick_ns);
    layers.insert("vca.step_tick.coverage", attributed_per_tick / step_tick_ns);
    layers.insert(
        "vca.step_tick.self_ns",
        (step_tick_ns - attributed_per_tick).max(0.0),
    );
    layers.insert(
        "core.trace.overhead_ratio",
        (traced_ms / traced_ticks as f64) / (plain_ms / plain_ticks as f64),
    );
    for (_, run) in runs {
        if let Some(r) = run.spans {
            rec.absorb(r);
        }
    }
    rec
}

/// Semantic, compress, sensor, transport and render metrics from a
/// spatial replay. Returns the replayed host ns per tick those layers
/// account for.
pub fn spatial_layers(
    rec: &Recorder,
    r: &replay::SpatialReplay,
    step_tick_ns: f64,
    tally: &mut Tally,
    layers: &mut Layers,
) -> f64 {
    if r.mismatches + r.decode_errors > 0 {
        tally.fail_last(format!(
            "replay: {} decoded frames differ from the encoded ones, {} decode errors",
            r.mismatches, r.decode_errors
        ));
    }
    let ticks = r.ticks.max(1) as f64;
    let semantic: f64 = ["semantic.encode", "semantic.decode"]
        .iter()
        .map(|n| rec.total(n).1 as f64)
        .sum();
    let attributed: f64 = replay::SPATIAL_TICK_LAYERS
        .iter()
        .map(|n| rec.total(n).1 as f64)
        .sum();
    // Replayed calls: the divisors of the replay's per-call figures.
    let (enc_calls, _) = rec.total("semantic.encode");
    let (dec_calls, _) = rec.total("semantic.decode");
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    for (name, value) in [
        ("semantic.encode.ns", rec.mean_ns("semantic.encode")),
        (
            "semantic.encode.self_ns",
            per(rec.self_ns("semantic.encode"), enc_calls),
        ),
        (
            "semantic.encode.alloc_bytes",
            per(r.encode_alloc, enc_calls),
        ),
        (
            "semantic.encode.payload_bytes",
            per(r.payload_bytes, enc_calls),
        ),
        ("semantic.encode.hot_ns", rec.mean_ns("semantic.encode.hot")),
        ("semantic.decode.ns", rec.mean_ns("semantic.decode")),
        ("semantic.decode.hot_ns", rec.mean_ns("semantic.decode.hot")),
        (
            "semantic.decode.self_ns",
            per(rec.self_ns("semantic.decode"), dec_calls),
        ),
        (
            "semantic.decode.alloc_bytes",
            per(r.decode_alloc, dec_calls),
        ),
        ("semantic.decode.errors", r.decode_errors as f64),
        ("semantic.split.ns", rec.mean_ns("semantic.split")),
        ("semantic.assemble.ns", rec.mean_ns("semantic.assemble")),
        ("semantic.assembler.abandoned", r.abandoned as f64),
        ("semantic.assembler.evicted", r.evicted as f64),
        ("semantic.step_tick_share", semantic / ticks / step_tick_ns),
        ("compress.compress.ns", rec.mean_ns("compress.compress")),
        (
            "compress.compress.alloc_bytes",
            per(r.compress_alloc, enc_calls),
        ),
        ("compress.decompress.ns", rec.mean_ns("compress.decompress")),
        (
            "compress.decompress.alloc_bytes",
            per(r.decompress_alloc, dec_calls),
        ),
        (
            "sensor.next_frame.calls",
            rec.total("sensor.next_frame").0 as f64,
        ),
        ("sensor.next_frame.ns", rec.mean_ns("sensor.next_frame")),
        ("transport.quic_send.ns", rec.mean_ns("transport.quic_send")),
        (
            "transport.quic_parse.ns",
            rec.mean_ns("transport.quic_parse"),
        ),
        (
            "transport.seal.ns_per_kb",
            rec.total("transport.seal").1 as f64 / (r.sealed_bytes.max(1) as f64 / 1024.0),
        ),
        ("render.evaluate.ns", rec.mean_ns("render.evaluate")),
        ("render.cost_frame.ns", rec.mean_ns("render.cost_frame")),
    ] {
        layers.insert(name, value);
    }
    attributed / ticks
}

/// The program's own codec call counts, from the session outcomes: one
/// encode per semantic frame sent, and one decode per frame a receiver
/// completed (each completion pushes one `e2e_latency_ms` sample). Every
/// frame sent is a distinct (sender, frame_id) pair.
fn program_codec_counts(runs: &[(Op, Run)], layers: &mut Layers) {
    let (encodes, decodes) = runs.iter().fold((0u64, 0u64), |(e, d), (_, run)| {
        let o = &run.outcome;
        let received: usize = o.e2e_latency_ms.iter().map(|l| l.count()).sum();
        (e + o.semantic_frame_sizes.len() as u64, d + received as u64)
    });
    layers.insert("semantic.encode.calls", encodes as f64);
    layers.insert("semantic.decode.calls", decodes as f64);
    if decodes > 0 {
        layers.insert(
            "semantic.decode.unique_ratio",
            encodes as f64 / decodes as f64,
        );
    }
}

/// Datapath counters from the Sim-class registry.
pub fn net_registry(layers: &mut Layers) {
    use visionsim_core::metrics::{histogram, Class};
    layers.insert("net.packets_sent", common::counter("net/link_packets_sent"));
    layers.insert("net.batch_drains", common::counter("net/batch_drains"));
    layers.insert(
        "net.packets_dropped",
        common::counter("net/packets_dropped"),
    );
    layers.insert(
        "net.queue_dropped_bytes",
        common::counter("net/queue_dropped_bytes"),
    );
    let batch = histogram("net/batch_size", Class::Sim);
    if batch.count() > 0 {
        layers.insert(
            "net.batch_size_mean",
            batch.sum() as f64 / batch.count() as f64,
        );
    }
    // p99 from the log2 buckets: the upper edge (2^i − 1) of the bucket
    // holding the 99th-percentile observation.
    let delay = histogram("net/queue_delay_us", Class::Sim);
    let total = delay.count();
    if total > 0 {
        let want = (total as f64 * 0.99).ceil() as u64;
        let mut seen = 0;
        for (i, c) in delay.buckets().iter().enumerate() {
            seen += c;
            if seen >= want {
                layers.insert("net.queue_delay_us_p99", ((1u128 << i) - 1) as f64);
                break;
            }
        }
    }
}
