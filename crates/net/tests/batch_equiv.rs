//! Scalar-vs-batched datapath equivalence.
//!
//! The batched drain loop (`DrainMode::Batched`) is a pure performance
//! transformation: tick-cohort draining, run-accumulated cohort events,
//! the netem batch kernel, and bulk slot retirement must be invisible in
//! every observable — delivery order, per-packet verdicts (drops,
//! corruption flags, duplication), per-link counters, tap captures, and
//! the impairment RNG's position in its stream. This test replays 32
//! randomized chaos scenarios (fault plans flipping links down, cliffing
//! rates, spiking delay, injecting Gilbert–Elliott bursts, reordering and
//! duplicating) through both loops and requires bit-identical digests.

use visionsim_core::par::derive_seed;
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};
use visionsim_geo::coords::GeoPoint;
use visionsim_net::fault::{apply_to_netem, FaultPlan, GeConfig};
use visionsim_net::link::{LinkConfig, LinkId};
use visionsim_net::netem::Netem;
use visionsim_net::shaper::{QueueLimit, ShaperConfig};
use visionsim_net::network::{DrainMode, Network, NodeId};
use visionsim_net::packet::PortPair;

const SEEDS: u64 = 32;

/// One chaos scenario, fully determined by `seed`, executed under the
/// given drain mode. Returns a digest of everything observable.
fn scenario_digest(seed: u64, mode: DrainMode) -> String {
    // Scenario shape comes from its own rng so both modes see identical
    // topology, traffic, and fault schedules.
    let mut shape = SimRng::seed_from_u64(derive_seed(0xBA7C4, "batch_equiv", seed));
    let mut net = Network::new(seed);
    net.set_drain_mode(mode);

    // Client → AP → core → SFU, SFU fanning out to subscribers.
    let client = net.add_node("client", "t", GeoPoint::new(37.77, -122.42));
    let ap = net.add_node("ap", "t", GeoPoint::new(37.77, -122.41));
    let sfu = net.add_node("sfu", "t", GeoPoint::new(40.71, -74.01));
    let subs: Vec<NodeId> = (0..4)
        .map(|s| net.add_node(&format!("sub{s}"), "t", GeoPoint::new(34.05, -118.24 + s as f64)))
        .collect();
    net.add_duplex(client, ap, LinkConfig::wifi_access());
    net.add_duplex(
        ap,
        sfu,
        LinkConfig::core(SimDuration::from_millis(1 + shape.uniform_u64(0, 20))),
    );
    for &s in &subs {
        net.add_duplex(
            sfu,
            s,
            LinkConfig::core(SimDuration::from_millis(1 + shape.uniform_u64(0, 30))),
        );
    }
    let n_links = 2 * (2 + subs.len());

    // Random static impairments on a few links, covering every batch-path
    // branch: independent loss, GE, jitter, reorder/duplicate/corrupt,
    // a netem token bucket, and a link shaper.
    for lid in 0..n_links {
        match shape.uniform_u64(0, 8) {
            0 => net.netem_mut(LinkId(lid)).loss = 0.02 + shape.uniform() * 0.2,
            1 => {
                let netem = net.netem_mut(LinkId(lid));
                netem.jitter = SimDuration::from_micros(shape.uniform_u64(10, 3_000));
                netem.corrupt = shape.uniform() * 0.1;
            }
            2 => {
                let netem = net.netem_mut(LinkId(lid));
                netem.reorder = shape.uniform() * 0.3;
                netem.reorder_extra = SimDuration::from_millis(shape.uniform_u64(1, 20));
                netem.duplicate = shape.uniform() * 0.2;
            }
            3 => {
                // Netem token bucket, the shaper a `RateCliff` fault
                // installs: delays and drops on the netem verdict path.
                *net.netem_mut(LinkId(lid)) =
                    Netem::with_rate_limit(DataRate::from_kbps(300 + shape.uniform_u64(0, 4_000)));
            }
            4 => {
                // Token-bucket link shaper with a finite FIFO queue: forces
                // every admission off the passthrough fast arms and
                // produces real queue drops in both drain modes.
                let rate = DataRate::from_kbps(400 + shape.uniform_u64(0, 3_600));
                let queue = match shape.uniform_u64(0, 2) {
                    0 => QueueLimit::Auto,
                    1 => QueueLimit::Bytes(ByteSize::from_kb(4 + shape.uniform_u64(0, 60))),
                    _ => QueueLimit::Packets(4 + shape.uniform_u64(0, 28) as u32),
                };
                net.set_shaper(LinkId(lid), Some(ShaperConfig::with_queue(rate, queue)));
            }
            _ => {}
        }
    }
    let tap = net.add_tap(ap);

    // A chaos fault plan targeting the AP→SFU link.
    let target = LinkId(2);
    let mut plan = FaultPlan::merged(vec![
        FaultPlan::flap(
            SimTime::from_millis(400 + shape.uniform_u64(0, 400)),
            SimDuration::from_millis(100 + shape.uniform_u64(0, 300)),
        ),
        FaultPlan::rate_cliff(
            SimTime::from_millis(900 + shape.uniform_u64(0, 300)),
            DataRate::from_kbps(400 + shape.uniform_u64(0, 600)),
            SimDuration::from_millis(300),
        ),
        FaultPlan::delay_spike(
            SimTime::from_millis(1_400 + shape.uniform_u64(0, 300)),
            SimDuration::from_millis(shape.uniform_u64(5, 100)),
            SimDuration::from_millis(200),
        ),
        FaultPlan::burst_loss(
            SimTime::from_millis(1_800 + shape.uniform_u64(0, 300)),
            GeConfig::wifi_bursts(),
            SimDuration::from_millis(400),
        ),
        FaultPlan::reorder_episode(
            SimTime::from_millis(2_300 + shape.uniform_u64(0, 200)),
            0.2,
            SimDuration::from_millis(10),
            SimDuration::from_millis(300),
        ),
        FaultPlan::duplicate_episode(
            SimTime::from_millis(2_700 + shape.uniform_u64(0, 200)),
            0.3,
            SimDuration::from_millis(300),
        ),
    ]);

    // Drive traffic in 50 ms steps for 3.5 s of virtual time, relaying
    // everything the SFU receives out to every subscriber (fan-out bursts
    // are what build deep same-link admission runs).
    let mut digest = String::new();
    let mut relay: Vec<visionsim_net::network::Delivered> = Vec::new();
    let mut now = SimTime::ZERO;
    for step in 0..70u64 {
        for ev in plan.due(now) {
            apply_to_netem(net.netem_mut(target), &ev.kind);
        }
        let burst = 1 + shape.uniform_u64(0, 12);
        for k in 0..burst {
            net.send(
                client,
                sfu,
                PortPair::new(5_000, 6_000),
                vec![(step + k) as u8; 64 + (k as usize % 3) * 300],
            );
        }
        now += SimDuration::from_millis(50);
        net.run_until(now);
        relay.clear();
        relay.extend(net.drain_delivered(sfu));
        for d in &relay {
            digest.push_str(&format!(
                "sfu:{}@{}c{};",
                d.packet.seq,
                d.at.as_nanos(),
                d.packet.corrupted as u8
            ));
            for &s in &subs {
                net.send(sfu, s, PortPair::new(6_000, 7_000), d.packet.payload.clone());
            }
        }
    }
    net.run_until(SimTime::from_secs(5));

    for (si, &s) in subs.iter().enumerate() {
        for d in net.drain_delivered(s) {
            digest.push_str(&format!(
                "s{si}:{}@{}c{};",
                d.packet.seq,
                d.at.as_nanos(),
                d.packet.corrupted as u8
            ));
        }
    }
    for lid in 0..n_links {
        digest.push_str(&format!("l{lid}:{:?};", net.link_stats(LinkId(lid))));
    }
    digest.push_str(&format!("dropped:{};", net.total_dropped()));
    digest.push_str(&format!("taps:{:?};", net.tap_records(tap)));
    digest.push_str(&format!("rng:{:016x};", net.rng_fingerprint()));
    digest
}

/// The tentpole invariant: for every seed, the batched loop's digest —
/// delivery order, verdicts, stats, taps, and RNG stream position — is
/// byte-identical to the scalar loop's.
#[test]
fn batched_datapath_is_observationally_identical_to_scalar() {
    for seed in 0..SEEDS {
        let scalar = scenario_digest(seed, DrainMode::Scalar);
        let batched = scenario_digest(seed, DrainMode::Batched);
        assert_eq!(
            scalar, batched,
            "seed {seed}: batched datapath diverged from the scalar reference"
        );
    }
}

/// Mode switching mid-run strands nothing: events queued by one loop are
/// drained correctly by the other.
#[test]
fn mid_run_mode_switch_drains_cleanly() {
    for seed in 0..8 {
        let mut net = Network::new(seed);
        net.set_drain_mode(DrainMode::Batched);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(10)));
        for k in 0..64 {
            net.send(a, b, PortPair::new(1, 2), vec![k as u8; 100]);
        }
        // Switch before anything drains: the open admission run must be
        // closed by the switch and the scalar loop must process cohorts.
        net.set_drain_mode(DrainMode::Scalar);
        net.run_until(SimTime::from_millis(5));
        for k in 0..64 {
            net.send(a, b, PortPair::new(1, 2), vec![k as u8; 100]);
        }
        net.set_drain_mode(DrainMode::Batched);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.drain_delivered(b).count(), 128);
        assert_eq!(net.total_dropped(), 0);
        let s = net.link_stats(LinkId(0));
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.in_flight, 0);
    }
}

/// `send_batch` is observationally identical to a per-frame `send` loop:
/// same sequence numbers, delivery order, verdicts, stats, and RNG
/// stream position — in both drain modes, on both the passthrough fast
/// arm and the impaired fallback arm.
#[test]
fn send_batch_matches_per_frame_send() {
    use std::sync::Arc;
    let digest = |seed: u64, mode: DrainMode, batch: bool| -> String {
        let mut net = Network::new(seed);
        net.set_drain_mode(mode);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(39.0, -98.0));
        let c = net.add_node("c", "t", GeoPoint::new(40.71, -74.01));
        let d = net.add_node("d", "t", GeoPoint::new(34.05, -118.24));
        // a→b passthrough (fast arm), b→c impaired second hop, a→d
        // impaired first hop (fallback arm even in batched mode).
        net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(5)));
        net.add_duplex(b, c, LinkConfig::core(SimDuration::from_millis(7)));
        net.add_duplex(a, d, LinkConfig::core(SimDuration::from_millis(9)));
        {
            let netem = net.netem_mut(LinkId(2));
            netem.loss = 0.1;
            netem.duplicate = 0.1;
            netem.jitter = SimDuration::from_micros(800);
        }
        {
            let netem = net.netem_mut(LinkId(4));
            netem.loss = 0.15;
            netem.jitter = SimDuration::from_micros(500);
        }
        let mut shape = SimRng::seed_from_u64(derive_seed(0x5B47C, "send_batch", seed));
        for step in 0..40u64 {
            for &dst in &[b, c, d] {
                let burst = 1 + shape.uniform_u64(0, 6);
                let frames: Vec<(PortPair, Arc<[u8]>)> = (0..burst)
                    .map(|k| {
                        (
                            PortPair::new(1_000, 2_000 + k as u16),
                            Arc::from(vec![(step + k) as u8; 64 + (k as usize % 4) * 200]),
                        )
                    })
                    .collect();
                if batch {
                    net.send_batch(a, dst, frames);
                } else {
                    for (ports, payload) in frames {
                        net.send(a, dst, ports, payload);
                    }
                }
            }
            net.run_until(SimTime::from_millis((step + 1) * 25));
        }
        net.run_until(SimTime::from_secs(3));
        let mut out = String::new();
        for (ni, &n) in [b, c, d].iter().enumerate() {
            for dv in net.drain_delivered(n) {
                out.push_str(&format!(
                    "n{ni}:{}@{}c{};",
                    dv.packet.seq,
                    dv.at.as_nanos(),
                    dv.packet.corrupted as u8
                ));
            }
        }
        for lid in 0..6 {
            out.push_str(&format!("l{lid}:{:?};", net.link_stats(LinkId(lid))));
        }
        out.push_str(&format!("dropped:{};", net.total_dropped()));
        out.push_str(&format!("rng:{:016x};", net.rng_fingerprint()));
        out
    };
    for seed in 0..8 {
        let reference = digest(seed, DrainMode::Scalar, false);
        for (mode, batch) in [
            (DrainMode::Scalar, true),
            (DrainMode::Batched, false),
            (DrainMode::Batched, true),
        ] {
            assert_eq!(
                reference,
                digest(seed, mode, batch),
                "seed {seed}: {mode:?}/batch={batch} diverged from the scalar send loop"
            );
        }
    }
}

/// Passthrough fan-out (the bench shape) batches into real cohorts and
/// still conserves per-link bytes with zero drops.
#[test]
fn fanout_cohorts_conserve_and_deliver_everything() {
    let mut net = Network::new(7);
    net.set_drain_mode(DrainMode::Batched);
    let src = net.add_node("src", "t", GeoPoint::new(37.77, -122.42));
    let hub = net.add_node("hub", "t", GeoPoint::new(39.0, -98.0));
    let dsts: Vec<NodeId> = (0..8)
        .map(|k| net.add_node(&format!("d{k}"), "t", GeoPoint::new(40.0, -80.0 + k as f64)))
        .collect();
    net.add_duplex(src, hub, LinkConfig::core(SimDuration::from_millis(5)));
    for &d in &dsts {
        net.add_duplex(hub, d, LinkConfig::core(SimDuration::from_millis(7)));
    }
    for round in 0..50u64 {
        for &d in &dsts {
            for k in 0..16u64 {
                net.send(src, d, PortPair::new(1, 2), vec![(round + k) as u8; 200]);
            }
        }
        net.run_until(SimTime::from_millis((round + 1) * 20));
    }
    net.run_until(SimTime::from_secs(2));
    let total: usize = dsts
        .iter()
        .map(|&d| {
            let mut n = 0usize;
            for _ in net.drain_delivered(d) {
                n += 1;
            }
            n
        })
        .sum();
    assert_eq!(total, 50 * 8 * 16);
    assert_eq!(net.total_dropped(), 0);
}
