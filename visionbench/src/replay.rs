//! Layer replays for the traced run.
//!
//! The simulator has no spans inside it, so the traced run calls each
//! layer's public functions itself, on the inputs the workload uses and
//! in the mix the workload uses them, and times every call as a span.
//! A spatial tick is, per sender, `RgbdCapture::next_frame` →
//! `SemanticCodec::encode` → `Packetizer::split` →
//! `QuicStreamSender::send`; then, per receiver, `QuicPacket::parse` →
//! `Fragment::parse` + `FrameAssembler::push` → `SemanticCodec::decode`;
//! then `VisibilityPipeline::evaluate` and `CostModel::frame` per viewer.

use crate::alloc;
use crate::spans::Recorder;
use std::sync::Arc;
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::DataRate;
use visionsim_mesh::geometry::Vec3;
use visionsim_net::link::LinkConfig;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::{PortPair, IP_UDP_OVERHEAD_BYTES};
use visionsim_render::{CostModel, PersonaInstance, VisibilityFlags, VisibilityPipeline};
use visionsim_semantic::packetize::Fragment;
use visionsim_semantic::{FrameAssembler, Packetizer, SemanticCodec, SemanticConfig};
use visionsim_sensor::{MotionConfig, RgbdCapture};
use visionsim_transport::cipher;
use visionsim_transport::quic::{QuicFrame, QuicPacket, QuicStreamSender};
use visionsim_vca::adaptation::{
    CongestionController, CongestionSignals, RateController, ReceiverReport,
};
use visionsim_vca::session::SessionOutcome;
use visionsim_vca::{GazeDynamics, SeatingLayout};

const KEY: cipher::Key = [0x5E; 32];
/// Back-to-back calls per spatial replay for the tight-loop codec figures.
const HOT_CALLS: usize = 200;

/// Spans whose time the replays attribute to a spatial tick.
pub const SPATIAL_TICK_LAYERS: [&str; 9] = [
    "sensor.next_frame",
    "semantic.encode",
    "semantic.split",
    "transport.quic_send",
    "transport.quic_parse",
    "semantic.assemble",
    "semantic.decode",
    "render.evaluate",
    "render.cost_frame",
];

/// What the spatial replay counted and checked.
#[derive(Default, Debug)]
pub struct SpatialReplay {
    pub ticks: u64,
    pub encode_alloc: u64,
    pub decode_alloc: u64,
    pub compress_alloc: u64,
    pub decompress_alloc: u64,
    pub payload_bytes: u64,
    pub sealed_bytes: u64,
    pub decode_errors: u64,
    pub abandoned: u64,
    pub evicted: u64,
    /// `decode(encode(f)) != f` occurrences.
    pub mismatches: u64,
}

impl SpatialReplay {
    pub fn add(&mut self, o: &SpatialReplay) {
        self.ticks += o.ticks;
        self.encode_alloc += o.encode_alloc;
        self.decode_alloc += o.decode_alloc;
        self.compress_alloc += o.compress_alloc;
        self.decompress_alloc += o.decompress_alloc;
        self.payload_bytes += o.payload_bytes;
        self.sealed_bytes += o.sealed_bytes;
        self.decode_errors += o.decode_errors;
        self.abandoned += o.abandoned;
        self.evicted += o.evicted;
        self.mismatches += o.mismatches;
    }
}

/// Replay `ticks` ticks of an `n`-user all-Vision-Pro spatial session
/// (default `CodecMode::Absolute`) on seed `seed`, recording spans
/// tagged with operation `op`.
pub fn spatial(n: usize, ticks: u64, seed: u64, op: u64, rec: &mut Recorder) -> SpatialReplay {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = SpatialReplay {
        ticks,
        ..SpatialReplay::default()
    };
    let mut captures: Vec<RgbdCapture> = (0..n)
        .map(|_| RgbdCapture::new(MotionConfig::default()))
        .collect();
    let mut encoders: Vec<SemanticCodec> = (0..n)
        .map(|_| SemanticCodec::new(SemanticConfig::default()))
        .collect();
    let mut packetizers: Vec<Packetizer> = (0..n).map(|_| Packetizer::new()).collect();
    let mut quic: Vec<QuicStreamSender> = (0..n)
        .map(|i| {
            let mut dcid = *b"PRSN\0\0\0\0";
            dcid[4..].copy_from_slice(&(i as u32).to_le_bytes());
            QuicStreamSender::new(dcid, 0, KEY)
        })
        .collect();
    // Receiver r keeps one assembler and one decoder per remote sender.
    let mut assemblers: Vec<Vec<FrameAssembler>> = (0..n)
        .map(|_| (0..n).map(|_| FrameAssembler::new()).collect())
        .collect();
    let mut decoders: Vec<Vec<SemanticCodec>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| SemanticCodec::new(SemanticConfig::default()))
                .collect()
        })
        .collect();
    let positions: Vec<Vec3> = SeatingLayout::Arc.positions(n - 1, 1.4);
    let personas: Vec<PersonaInstance> = positions
        .iter()
        .map(|&p| PersonaInstance::paper_ladder(p))
        .collect();
    let ambient = Vec3::new(0.5, -0.8, -1.0);
    let mut gazes: Vec<GazeDynamics> = (0..n)
        .map(|_| GazeDynamics::new(positions.clone()).with_ambient(ambient, 0.15))
        .collect();
    let pipeline = VisibilityPipeline::new(VisibilityFlags::vision_pro());
    let cost_model = CostModel::default();
    let dt = SimDuration::FRAME_90FPS.as_secs_f64();
    let mut last_frame = None;
    let mut compress_jobs: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut decompress_jobs: Vec<(usize, Vec<u8>)> = Vec::new();

    for tick in 0..ticks {
        let mut frames = Vec::with_capacity(n);
        let mut wires: Vec<Vec<Arc<[u8]>>> = Vec::with_capacity(n);
        for s in 0..n {
            let (frame, _) = rec.time("sensor.next_frame", op, None, || {
                captures[s].next_frame(&mut rng).persona_subset()
            });
            let before = alloc::allocated();
            let (payload, enc) =
                rec.time("semantic.encode", op, None, || encoders[s].encode(&frame));
            out.encode_alloc += alloc::allocated() - before;
            compress_jobs.push((enc, frame.to_bytes()));
            out.payload_bytes += payload.len() as u64;

            let nonce = cipher::packet_nonce(s as u32, tick);
            rec.time("transport.seal", op, None, || {
                cipher::seal(&KEY, &nonce, &payload)
            });
            out.sealed_bytes += payload.len() as u64;

            let (frags, _) = rec.time("semantic.split", op, None, || {
                packetizers[s].split(&payload)
            });
            let mut sent = Vec::with_capacity(frags.len());
            for frag in frags {
                let bytes = frag.to_bytes();
                let (wire, _) = rec.time("transport.quic_send", op, None, || quic[s].send(bytes));
                sent.push(wire);
            }
            wires.push(sent);
            frames.push(frame);
        }
        last_frame = frames.last().cloned();
        for r in 0..n {
            for s in (0..n).filter(|&s| s != r) {
                for wire in &wires[s] {
                    let (pkt, _) = rec.time("transport.quic_parse", op, None, || {
                        QuicPacket::parse(wire, &KEY)
                    });
                    let Some(
                        QuicPacket::Short { frames: qf, .. } | QuicPacket::Long { frames: qf, .. },
                    ) = pkt
                    else {
                        out.decode_errors += 1;
                        continue;
                    };
                    for f in qf {
                        let QuicFrame::Stream { data, .. } = f else {
                            continue;
                        };
                        let (done, _) = rec.time("semantic.assemble", op, None, || {
                            Fragment::parse(&data).and_then(|frag| assemblers[r][s].push(frag))
                        });
                        let Some((_, payload)) = done else {
                            continue;
                        };
                        let before = alloc::allocated();
                        let (decoded, dec) = rec.time("semantic.decode", op, None, || {
                            decoders[r][s].decode(&payload)
                        });
                        out.decode_alloc += alloc::allocated() - before;
                        decompress_jobs.push((dec, payload));
                        match decoded {
                            Ok(f) if f == frames[s] => {}
                            Ok(_) => out.mismatches += 1,
                            Err(_) => out.decode_errors += 1,
                        }
                    }
                }
            }
            let viewer = gazes[r].step(dt, &mut rng);
            let (renders, _) = rec.time("render.evaluate", op, None, || {
                pipeline.evaluate(&viewer, &personas)
            });
            let rx: usize = (0..n)
                .filter(|&s| s != r)
                .map(|s| wires[s].iter().map(|w| w.len()).sum::<usize>())
                .sum();
            rec.time("render.cost_frame", op, None, || {
                cost_model.frame(&renders, rx, &mut rng)
            });
        }
    }
    // The codec's compressor on the same bytes, as children of the encode
    // and decode spans (encode/decode self time is the rest). They run
    // after the ticks so their own 768 KB tables do not evict the
    // codec's working set in the middle of the replayed mix.
    for (parent, raw) in compress_jobs {
        let before = alloc::allocated();
        rec.time("compress.compress", op, Some(parent), || {
            visionsim_compress::compress(&raw)
        });
        out.compress_alloc += alloc::allocated() - before;
    }
    for (parent, payload) in decompress_jobs {
        let before = alloc::allocated();
        let (raw, _) = rec.time("compress.decompress", op, Some(parent), || {
            visionsim_compress::decompress(&payload[1..])
        });
        out.decompress_alloc += alloc::allocated() - before;
        if raw.is_err() {
            out.decode_errors += 1;
        }
    }
    // The same frame encoded, and its payload decoded, back to back:
    // the tight-loop case `cargo bench --bench codecs` measures.
    if let Some(frame) = last_frame {
        let mut codec = SemanticCodec::new(SemanticConfig::default());
        let payload = codec.encode(&frame);
        for _ in 0..HOT_CALLS {
            rec.time("semantic.encode.hot", op, None, || codec.encode(&frame));
        }
        for _ in 0..HOT_CALLS {
            let (decoded, _) = rec.time("semantic.decode.hot", op, None, || codec.decode(&payload));
            if decoded.as_ref() != Ok(&frame) {
                out.mismatches += 1;
            }
        }
    }
    for row in &assemblers {
        for a in row {
            out.abandoned += a.abandoned();
            out.evicted += a.evicted();
        }
    }
    out
}

/// Replay the packets every participant sent and received in a finished
/// session through a fresh datapath: client ↔ AP ↔ hub over the same
/// access and core link models, with a tap on every AP as the session
/// has. Uplink packets go client → hub and downlink packets hub →
/// client, each at its capture time with its wire size, one 90 Hz tick
/// at a time. Returns the packets sent.
pub fn net(outcome: &SessionOutcome, seed: u64, op: u64, rec: &mut Recorder) -> u64 {
    let mut net = Network::new(seed);
    let here = visionsim_geo::cities::us_vantages()[0].location;
    let hub = net.add_node("hub", "server", here);
    let mut clients = Vec::new();
    for i in 0..outcome.client_addrs.len() {
        let client = net.add_node(&format!("U{i}"), "client", here);
        let ap = net.add_node(&format!("U{i} AP"), "access", here);
        net.add_duplex(client, ap, LinkConfig::wifi_access());
        net.add_duplex(ap, hub, LinkConfig::core(SimDuration::from_millis(10)));
        net.add_tap(ap);
        clients.push(client);
    }
    struct Packet {
        at_ns: u64,
        src: NodeId,
        dst: NodeId,
        ports: PortPair,
        payload: Arc<[u8]>,
    }
    let mut sends: Vec<Packet> = Vec::new();
    for (i, taps) in outcome.taps.iter().enumerate() {
        let me = outcome.client_addrs[i];
        for t in taps.iter().filter(|t| t.src == me || t.dst == me) {
            let (src, dst) = if t.src == me {
                (clients[i], hub)
            } else {
                (hub, clients[i])
            };
            let len = (t.wire_size.as_bytes() as usize)
                .saturating_sub(IP_UDP_OVERHEAD_BYTES as usize)
                .max(1);
            sends.push(Packet {
                at_ns: t.at.as_nanos(),
                src,
                dst,
                ports: t.ports,
                payload: vec![0u8; len].into(),
            });
        }
    }
    sends.sort_by_key(|p| p.at_ns);
    let tick = SimDuration::FRAME_90FPS.as_nanos();
    let span = rec.enter("net.replay", op, None);
    let mut next = 0;
    let mut delivered = 0u64;
    let end = sends.last().map_or(0, |p| p.at_ns) + 200_000_000;
    let mut t = 0;
    while t <= end {
        t += tick;
        while let Some(p) = sends.get(next).filter(|p| p.at_ns < t) {
            net.send(p.src, p.dst, p.ports, p.payload.clone());
            next += 1;
        }
        net.run_until(SimTime::from_nanos(t));
        delivered += net.drain_delivered(hub).count() as u64;
        for &c in &clients {
            delivered += net.drain_delivered(c).count() as u64;
        }
    }
    rec.exit(span);
    std::hint::black_box(delivered);
    sends.len() as u64
}

/// Replay the 2D rate controller on one receiver report per feedback
/// interval of every video sender, with loss drawn from the seed.
pub fn adaptation(intervals: u64, seed: u64, congestion: bool, op: u64, rec: &mut Recorder) {
    let mut rng = SimRng::seed_from_u64(seed);
    let max = DataRate::from_kbps(2_500);
    let min = DataRate::from_kbps(150);
    let mut rate = RateController::new(max, min);
    let mut ctrl = CongestionController::new(op, max, min, DataRate::from_kbps(50));
    for i in 0..intervals {
        let loss = if rng.chance(0.2) {
            rng.uniform_range(0.0, 0.2)
        } else {
            0.0
        };
        if congestion {
            let sig = CongestionSignals {
                loss,
                arrival: DataRate::from_kbps(rng.uniform_u64(300, 2_500)),
                queue_delay_us: rng.uniform_u64(0, 80_000),
            };
            let now = SimTime::from_millis(i * 500);
            rec.time("vca.adaptation.on_report", op, None, || {
                ctrl.on_report(now, &sig)
            });
        } else {
            let report = ReceiverReport {
                received_bytes: rng.uniform_u64(20_000, 160_000),
                loss,
                interval_s: 0.5,
            };
            rec.time("vca.adaptation.on_report", op, None, || {
                rate.on_report(&report)
            });
        }
    }
}
