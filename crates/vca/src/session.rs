//! The telepresence session runner.
//!
//! Builds the full measured system end-to-end on the simulated network:
//!
//! ```text
//! sensors → semantic/video encoder → packetizer → QUIC/RTP framing
//!   → client ──WiFi── AP ──WAN── SFU server ──WAN── AP ──WiFi── client
//!   → reassembly → decode → visibility pipeline → frame-cost model
//! ```
//!
//! with Wireshark-style taps at every AP, per-second receiver feedback
//! (in-band RTCP receiver reports for 2D sessions) driving rate
//! adaptation, the receiver-side persona availability state machine for
//! spatial sessions (faithful to the paper: the semantic sender has no
//! feedback loop to close — "poor connection" is a receiver UI state),
//! Opus-class audio alongside every video/persona stream, and `tc`-style
//! impairments attachable to any participant's uplink.

use crate::adaptation::{
    CongestionController, CongestionSignals, DegradationLadder, PersonaAvailability, PersonaMode,
    PersonaState, RateController, ReceiverReport,
};
use crate::encoder::{VideoEncoder, VideoEncoderConfig};
use crate::profile::{AppProfile, PersonaType, Topology};
use crate::scene::{GazeDynamics, SeatingLayout};
use crate::server::{
    failover_site, resilience_metrics, AdmissionVerdict, AssignmentPolicy, ReconnectPhase,
    Reconnector, ResilienceConfig, ServerAssignment, SiteDirectory,
};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use visionsim_core::metrics::{self, Class};
use visionsim_core::rng::SimRng;
use visionsim_core::sanitizer;
use visionsim_core::stats::Percentiles;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::trace::{self, TraceKind};
use visionsim_core::units::DataRate;
use visionsim_device::device::{Device, DeviceKind};
use visionsim_geo::cities::City;
use visionsim_geo::coords::GeoPoint;
use visionsim_geo::geodb::{GeoDb, NetAddr};
use visionsim_geo::propagation::LatencyModel;
use visionsim_geo::sites::{Provider, ServerSite, SiteRegistry};
use visionsim_mesh::geometry::Vec3;
use visionsim_net::fault::{apply_to_netem, FaultKind, FaultPlan};
use visionsim_net::link::{LinkConfig, LinkId};
use visionsim_net::netem::Netem;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::PortPair;
use visionsim_net::tap::{TapId, TapRecord};
use visionsim_render::cost::CostModel;
use visionsim_render::counters::SessionCounters;
use visionsim_render::visibility::{PersonaInstance, VisibilityFlags, VisibilityPipeline};
use visionsim_semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim_semantic::packetize::{Fragment, FrameAssembler, Packetizer};
use visionsim_sensor::capture::RgbdCapture;
use visionsim_sensor::motion::MotionConfig;
use visionsim_transport::cipher;
use visionsim_transport::quic::{QuicFrame, QuicPacket, QuicStreamSender};
use visionsim_transport::rtcp::{PliPacket, ReceiverReportPacket, XrPacket};
use visionsim_transport::rtp::{RtpPacket, RtpStream};

/// Cached handles into the metrics registry for the session layer. All
/// [`Class::Sim`]: derived purely from seeded simulation state.
struct VcaMetrics {
    pli_sent: metrics::Counter,
    keyframes_forced: metrics::Counter,
    mode_switches: metrics::Counter,
    failovers: metrics::Counter,
    fault_onsets: metrics::Counter,
    fault_recoveries: metrics::Counter,
}

fn vca_metrics() -> &'static VcaMetrics {
    static M: OnceLock<VcaMetrics> = OnceLock::new();
    M.get_or_init(|| VcaMetrics {
        pli_sent: metrics::counter("vca/pli_sent", Class::Sim),
        keyframes_forced: metrics::counter("vca/keyframes_forced", Class::Sim),
        mode_switches: metrics::counter("vca/mode_switches", Class::Sim),
        failovers: metrics::counter("vca/failovers", Class::Sim),
        fault_onsets: metrics::counter("vca/fault_onsets", Class::Sim),
        fault_recoveries: metrics::counter("vca/fault_recoveries", Class::Sim),
    })
}

/// One participant's specification.
#[derive(Clone, Debug)]
pub struct ParticipantSpec {
    /// Display name ("U1").
    pub name: String,
    /// Device kind.
    pub device: DeviceKind,
    /// Where the participant is.
    pub city: City,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Which application.
    pub provider: Provider,
    /// Participants; index 0 initiates the session.
    pub participants: Vec<ParticipantSpec>,
    /// Session length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Server assignment policy.
    pub policy: AssignmentPolicy,
    /// Uplink shaping, per participant: (participant index, rate) —
    /// `tc tbf` on each listed uplink. Any subset of participants may be
    /// shaped in the same session.
    pub uplink_limits: Vec<(usize, DataRate)>,
    /// Chaos schedules, per participant: (participant index, plan). Netem
    /// events mutate that participant's access link as virtual time
    /// advances; `ServerDown` events take out the SFU site the participant
    /// is attached to (the session then fails over).
    pub fault_plans: Vec<(usize, FaultPlan)>,
    /// Close the congestion loop: receivers send RTCP XR reports
    /// (jitter + arrival rate) alongside their RRs, every sender runs a
    /// delay+loss [`CongestionController`], spatial senders pace to its
    /// target, and the degradation ladder folds sustained congestion into
    /// its spatial→2D decision. Shaped uplinks get a finite-queue token
    /// bucket (real drops) instead of the open-loop netem rate limit.
    pub congestion_control: bool,
    /// Control-plane resilience: site capacity + admission control, a
    /// probe-driven health view with per-site circuit breakers, and a
    /// per-participant reconnect state machine (capped exponential
    /// backoff with seeded jitter, rejoin budget). `None` keeps the
    /// legacy single next-nearest reattach, byte-identical to before.
    pub resilience: Option<ResilienceConfig>,
}

impl SessionConfig {
    /// A two-party session between `a_city` and `b_city` on `provider`,
    /// with the given device kinds. The first participant initiates.
    pub fn two_party(
        provider: Provider,
        a: (DeviceKind, City),
        b: (DeviceKind, City),
        seed: u64,
    ) -> Self {
        SessionConfig::with_users(provider, vec![a, b], seed)
    }

    /// An all-Vision-Pro FaceTime session with `n` users in the given
    /// cities (cycled if fewer cities than users).
    pub fn facetime_avp(n: usize, cities: &[City], seed: u64) -> Self {
        assert!(n >= 2, "a session needs at least two users");
        let users = (0..n)
            .map(|i| (DeviceKind::VisionPro, cities[i % cities.len()]))
            .collect();
        SessionConfig::with_users(Provider::FaceTime, users, seed)
    }

    /// A 30 s session between users `U1`, `U2`, … placed nearest to the
    /// initiator, with no impairments.
    fn with_users(provider: Provider, users: Vec<(DeviceKind, City)>, seed: u64) -> Self {
        let participants = users
            .into_iter()
            .enumerate()
            .map(|(i, (device, city))| ParticipantSpec {
                name: format!("U{}", i + 1),
                device,
                city,
            })
            .collect();
        SessionConfig {
            provider,
            participants,
            duration: SimDuration::from_secs(30),
            seed,
            policy: AssignmentPolicy::NearestToInitiator,
            uplink_limits: Vec::new(),
            fault_plans: Vec::new(),
            congestion_control: false,
            resilience: None,
        }
    }
}

/// What a finished session exposes to the measurement tooling.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The persona type the session delivered.
    pub persona_type: PersonaType,
    /// The media topology used.
    pub topology: Topology,
    /// Server assignment (None for P2P).
    pub assignment: Option<ServerAssignment>,
    /// AP tap captures, per participant.
    pub taps: Vec<Vec<TapRecord>>,
    /// Client addresses, per participant (the capture "subject").
    pub client_addrs: Vec<NetAddr>,
    /// Render counters per participant (populated for Vision Pro receivers
    /// in spatial sessions).
    pub counters: Vec<SessionCounters>,
    /// Persona availability timeline per participant (receiver side).
    pub availability: Vec<Vec<(SimTime, PersonaState)>>,
    /// Encoded semantic frame sizes observed at senders (spatial only).
    pub semantic_frame_sizes: Vec<usize>,
    /// End-to-end semantic-frame latency samples per receiving
    /// participant, milliseconds: capture tick → frame fully reassembled
    /// (spatial sessions only). Motion-to-photon adds up to one display
    /// frame plus the ~12 ms passthrough pipeline on top.
    pub e2e_latency_ms: Vec<Percentiles>,
    /// The geolocation database covering every node in the session.
    pub geodb: GeoDb,
    /// Final encoder quality per participant (2D only; 1.0 otherwise).
    pub final_quality: Vec<f64>,
    /// Rendering-mode timeline per participant (spatial sessions): the
    /// graceful-degradation ladder's decisions at each feedback interval.
    pub mode_log: Vec<Vec<(SimTime, PersonaMode)>>,
    /// Spatial→2D fallback transitions per participant.
    pub fallbacks: Vec<u32>,
    /// Encoder quality per feedback interval per participant (2D only).
    pub quality_log: Vec<Vec<(SimTime, f64)>>,
    /// SFU failovers that happened: (completion time, new site label).
    pub failovers: Vec<(SimTime, String)>,
    /// PLI keyframe requests sent per participant (as receiver).
    pub pli_sent: Vec<u64>,
    /// Keyframes forced by incoming PLIs per participant (as sender).
    pub keyframes_forced: Vec<u64>,
    /// Reconnect episodes (resilience sessions only; empty otherwise).
    /// A participant appears once per outage that hit their site.
    pub reconnects: Vec<ReconnectSummary>,
    /// Admissions refused fleet-wide (resilience sessions only).
    pub admission_rejects: u64,
}

/// One participant's reconnect episode, summarized for the tooling.
#[derive(Clone, Debug)]
pub struct ReconnectSummary {
    /// Which participant.
    pub participant: usize,
    /// Attempts fired.
    pub attempts: u32,
    /// Attempts refused (admission reject or no live candidate).
    pub rejected: u32,
    /// Where the machine ended: reattached, abandoned, or still waiting
    /// when the session closed.
    pub phase: ReconnectPhase,
    /// Site death → reattached, when the episode completed.
    pub rejoin: Option<SimDuration>,
}

impl SessionOutcome {
    /// Fraction of the session each participant's incoming personas were
    /// available.
    pub fn availability_fraction(&self, participant: usize) -> f64 {
        fraction(&self.availability[participant], |s| {
            s == PersonaState::Available
        })
    }

    /// Fraction of the session a participant rendered the full spatial
    /// persona (1.0 when the mode log is empty — 2D sessions have no
    /// ladder).
    pub fn spatial_fraction(&self, participant: usize) -> f64 {
        fraction(&self.mode_log[participant], |m| m == PersonaMode::Spatial)
    }
}

/// Share of a timeline's entries that satisfy `hit` (1.0 when empty).
fn fraction<T: Copy>(timeline: &[(SimTime, T)], hit: impl Fn(T) -> bool) -> f64 {
    if timeline.is_empty() {
        return 1.0;
    }
    let hits = timeline.iter().filter(|&&(_, v)| hit(v)).count();
    hits as f64 / timeline.len() as f64
}

/// Per-sender media state.
#[allow(clippy::large_enum_variant)] // one Spatial per participant; boxing buys nothing
enum SenderState {
    Spatial {
        capture: RgbdCapture,
        codec: SemanticCodec,
        packetizer: Packetizer,
        quic: QuicStreamSender,
    },
    Video {
        encoder: VideoEncoder,
        rtp: RtpStream,
        controller: RateController,
    },
}

/// Per-receiver bookkeeping for one remote sender.
struct ReceiverPeer {
    assembler: FrameAssembler,
    codec: SemanticCodec,
    /// RTP loss tracking.
    last_seq: Option<u16>,
    lost: u64,
    received: u64,
    /// Bytes received this feedback interval.
    interval_bytes: u64,
    /// Semantic-frame loss tracking: highest completed frame id, and this
    /// interval's completed/lost counts. Loss is inferred from id gaps —
    /// the way a real receiver tells loss from latency.
    last_frame_id: Option<u64>,
    frames_completed_interval: u64,
    frames_lost_interval: u64,
    abandoned_snapshot: u64,
    /// When the last PLI was sent toward this sender (rate-limits keyframe
    /// requests during a sustained loss burst).
    last_pli_at: Option<SimTime>,
    /// Congestion-signal tracking for XR extended reports: bytes this XR
    /// interval, last packet arrival, and the RFC 3550-style smoothed
    /// interarrival jitter (µs) — the receiver's queue-delay observable.
    xr_bytes: u64,
    last_arrival: Option<SimTime>,
    mean_gap_us: f64,
    jitter_us: f64,
}

impl ReceiverPeer {
    fn new() -> Self {
        ReceiverPeer {
            assembler: FrameAssembler::new(),
            codec: SemanticCodec::new(SemanticConfig::default()),
            last_seq: None,
            lost: 0,
            received: 0,
            interval_bytes: 0,
            last_frame_id: None,
            frames_completed_interval: 0,
            frames_lost_interval: 0,
            abandoned_snapshot: 0,
            last_pli_at: None,
            xr_bytes: 0,
            last_arrival: None,
            mean_gap_us: 0.0,
            jitter_us: 0.0,
        }
    }

    /// Record a media arrival for the congestion observables.
    fn on_arrival(&mut self, at: SimTime, wire_bytes: u64) {
        self.interval_bytes += wire_bytes;
        self.xr_bytes += wire_bytes;
        if let Some(last) = self.last_arrival {
            let gap = at.since(last).as_nanos() as f64 / 1_000.0;
            if self.mean_gap_us == 0.0 {
                self.mean_gap_us = gap;
            }
            let dev = (gap - self.mean_gap_us).abs();
            // RFC 3550 §6.4.1-shaped smoothing (gain 1/16).
            self.jitter_us += (dev - self.jitter_us) / 16.0;
            self.mean_gap_us += (gap - self.mean_gap_us) / 16.0;
        }
        self.last_arrival = Some(at);
    }

    /// Track an RTP sequence number. Returns true when a gap broke decode
    /// state and the PLI cooldown (at most two a second per sender) has
    /// elapsed: the caller should ask for a keyframe now.
    fn on_rtp_seq(&mut self, seq: u16, now: SimTime) -> bool {
        let mut gap_seen = false;
        if let Some(last) = self.last_seq {
            let gap = seq.wrapping_sub(last) as u64;
            if gap > 1 && gap < 1_000 {
                self.lost += gap - 1;
                gap_seen = true;
            }
        }
        self.last_seq = Some(seq);
        self.received += 1;
        let cooled = self
            .last_pli_at
            .is_none_or(|at| now.since(at) >= SimDuration::from_millis(500));
        if gap_seen && cooled {
            self.last_pli_at = Some(now);
        }
        gap_seen && cooled
    }

    /// This interval's receiver report from `r` on sender `s`, draining
    /// the byte and RTP loss counters. Spatial receivers report
    /// semantic-frame loss from id gaps (those counters drain later, in
    /// [`take_interval_completeness`](Self::take_interval_completeness));
    /// 2D receivers report RTP sequence-gap loss.
    fn take_rr(&mut self, spatial: bool, r: usize, s: usize) -> ReceiverReportPacket {
        let (lost, arrived, highest_seq) = if spatial {
            let highest = self.last_frame_id.unwrap_or(0) as u32;
            (
                self.frames_lost_interval,
                self.frames_completed_interval,
                highest,
            )
        } else {
            (self.lost, self.received, self.last_seq.unwrap_or(0) as u32)
        };
        let total = arrived + lost;
        let loss = if total == 0 {
            0.0
        } else {
            lost as f64 / total as f64
        };
        let rr = ReceiverReportPacket {
            reporter_ssrc: r as u32 + 1,
            source_ssrc: s as u32 + 1,
            fraction_lost: ReceiverReportPacket::q8_loss(loss),
            cumulative_lost: lost as u32,
            highest_seq,
            received_bytes: self.interval_bytes as u32,
        };
        self.interval_bytes = 0;
        self.lost = 0;
        self.received = 0;
        rr
    }

    /// This interval's XR payload: (jitter µs, arrival kbps), draining the
    /// byte counter. `interval_s` is the XR cadence.
    fn take_xr(&mut self, interval_s: f64) -> (u32, u32) {
        let kbps = (self.xr_bytes as f64 * 8.0 / 1_000.0 / interval_s).round() as u32;
        self.xr_bytes = 0;
        (self.jitter_us.round() as u32, kbps)
    }

    /// Record a completed semantic frame, inferring losses from id gaps.
    fn on_frame_complete(&mut self, frame_id: u64) {
        if let Some(last) = self.last_frame_id {
            if frame_id > last + 1 {
                self.frames_lost_interval += frame_id - last - 1;
            }
        }
        self.last_frame_id = Some(self.last_frame_id.unwrap_or(0).max(frame_id));
        self.frames_completed_interval += 1;
    }

    /// This interval's completeness, draining the interval counters.
    fn take_interval_completeness(&mut self) -> f64 {
        let abandoned_now = self.assembler.abandoned();
        let abandoned_delta = abandoned_now - self.abandoned_snapshot;
        self.abandoned_snapshot = abandoned_now;
        let complete = self.frames_completed_interval;
        let lost = self.frames_lost_interval + abandoned_delta;
        self.frames_completed_interval = 0;
        self.frames_lost_interval = 0;
        if complete + lost == 0 {
            // Total starvation: nothing even attempted to arrive.
            return 0.0;
        }
        complete as f64 / (complete + lost) as f64
    }
}

/// The session engine.
pub struct SessionRunner {
    config: SessionConfig,
}

const QUIC_PORT: u16 = 443;
const RTP_PORT: u16 = 5_004;
/// RTCP rides on the RTP port + 1, per convention.
const RTCP_PORT: u16 = 5_005;
const MEDIA_PORT_BASE: u16 = 5_000;
const AUDIO_PORT_BASE: u16 = 5_200;
const RTCP_PORT_BASE: u16 = 5_400;
const SESSION_KEY: cipher::Key = [0x5E; 32];

/// Which stream a source port identifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamKind {
    /// The persona/video media stream.
    Media,
    /// The Opus-class audio stream.
    Audio,
    /// RTCP feedback.
    Feedback,
}

/// Decode a source port into (sender index, stream kind).
fn sender_of(src_port: u16, n: usize) -> Option<(usize, StreamKind)> {
    for (base, kind) in [
        (MEDIA_PORT_BASE, StreamKind::Media),
        (AUDIO_PORT_BASE, StreamKind::Audio),
        (RTCP_PORT_BASE, StreamKind::Feedback),
    ] {
        if src_port >= base && ((src_port - base) as usize) < n {
            return Some(((src_port - base) as usize, kind));
        }
    }
    None
}

/// Opus-class audio: one ~88 B frame every other display tick (≈45 pps,
/// ≈32 kbps before encapsulation).
const AUDIO_PAYLOAD: usize = 88;
const AUDIO_EVERY_TICKS: u64 = 2;

/// Uplink rate below which the spatial persona cannot be sustained
/// (paper §4.3: the persona needs ~0.67 Mbps; below ~700 kbps it fails).
/// The congestion loop feeds `target / floor` into the degradation ladder.
const SPATIAL_FLOOR_KBPS: u64 = 700;

impl SessionRunner {
    /// A runner for `config`.
    pub fn new(config: SessionConfig) -> Self {
        assert!(
            config.participants.len() >= 2,
            "a session needs at least two participants"
        );
        SessionRunner { config }
    }

    /// Run the session to completion: builds a [`SessionSim`] and steps
    /// it to the end in a tight loop.
    pub fn run(self) -> SessionOutcome {
        let mut sim = SessionSim::new(self.config);
        while !sim.done() {
            sim.step_tick();
        }
        sim.finish()
    }
}

/// The simulated network and where each participant is wired into it:
/// clients, APs and their taps, SFU sites and the backbone between them.
/// SFU failover rewires it mid-run.
struct Fabric {
    net: Network,
    topology: Topology,
    latency: LatencyModel,
    registry: SiteRegistry,
    clients: Vec<NodeId>,
    aps: Vec<NodeId>,
    tap_ids: Vec<TapId>,
    /// Access link ids per participant (uplink, downlink) — the chaos
    /// engine's fault plans mutate these mid-run.
    access_links: Vec<(LinkId, LinkId)>,
    locations: Vec<GeoPoint>,
    site_nodes: HashMap<&'static str, NodeId>,
    backbone_pairs: HashSet<(NodeId, NodeId)>,
    assignment: Option<ServerAssignment>,
    /// The SFU node each participant sends to (empty for P2P).
    servers: Vec<NodeId>,
    /// Sites taken out by `ServerDown`, and their nodes, which forward
    /// nothing more.
    dead_sites: Vec<&'static str>,
    dead_nodes: HashSet<NodeId>,
    /// Every reattachment: (completion time, new site label).
    failovers: Vec<(SimTime, String)>,
}

impl Fabric {
    fn new(cfg: &SessionConfig, topology: Topology) -> Fabric {
        let n = cfg.participants.len();
        let latency = LatencyModel::default();
        let mut net = Network::new(cfg.seed ^ 0x005E_5510);
        let mut clients = Vec::with_capacity(n);
        let mut aps = Vec::with_capacity(n);
        let mut tap_ids = Vec::with_capacity(n);
        let mut access_links = Vec::with_capacity(n);
        for p in &cfg.participants {
            let client = net.add_node(
                &format!("{} ({})", p.name, p.device),
                "client",
                p.city.location,
            );
            let ap = net.add_node(&format!("{} AP", p.name), "access", p.city.location);
            let (up, down) = net.add_duplex(client, ap, LinkConfig::wifi_access());
            // tc attaches at the client's uplink egress. With the
            // congestion loop closed, the limit is a real token bucket
            // with a finite queue (tc tbf): overload produces drops and
            // queuing delay the receiver can observe and report, instead
            // of the open-loop netem serializer.
            for (idx, rate) in &cfg.uplink_limits {
                if *idx == clients.len() {
                    if cfg.congestion_control {
                        net.set_shaper(up, Some(visionsim_net::shaper::ShaperConfig::new(*rate)));
                    } else {
                        *net.netem_mut(up) = Netem::with_rate_limit(*rate);
                    }
                }
            }
            tap_ids.push(net.add_tap(ap));
            clients.push(client);
            aps.push(ap);
            access_links.push((up, down));
        }

        // The measured system only has the US fleet; the geo-distributed
        // policy (the paper's proposed fix) brings the worldwide fleet.
        let registry = match cfg.policy {
            AssignmentPolicy::NearestToInitiator => SiteRegistry::us_fleet(),
            AssignmentPolicy::GeoDistributed => SiteRegistry::geo_distributed(cfg.provider),
        };
        let locations: Vec<_> = cfg.participants.iter().map(|p| p.city.location).collect();
        let mut site_nodes = HashMap::new();
        let mut backbone_pairs = HashSet::new();
        let (assignment, servers) = match topology {
            Topology::P2P => {
                // Direct AP↔AP core path.
                for i in 0..n {
                    for j in i + 1..n {
                        let d = latency.one_way(&locations[i], &locations[j]);
                        net.add_duplex(aps[i], aps[j], LinkConfig::core(d));
                    }
                }
                (None, vec![])
            }
            Topology::Sfu => {
                let assignment = ServerAssignment::assign_with_salt(
                    cfg.policy,
                    &registry,
                    cfg.provider,
                    &locations,
                    cfg.seed,
                );
                // One node per distinct site; APs link to their attachment.
                let distinct = assignment.distinct_sites();
                for site in &distinct {
                    let node = net.add_node(
                        &format!("{} {}", site.provider, site.label),
                        &format!("{}", site.provider),
                        site.location(),
                    );
                    site_nodes.insert(site.label, node);
                }
                let mut attach_nodes = Vec::with_capacity(n);
                for (i, site) in assignment.attachments.iter().enumerate() {
                    let node = site_nodes[site.label];
                    let d = latency.one_way(&locations[i], &site.location());
                    net.add_duplex(aps[i], node, LinkConfig::core(d));
                    attach_nodes.push(node);
                }
                // Private backbone between distinct sites (lower stretch).
                for i in 0..distinct.len() {
                    for j in i + 1..distinct.len() {
                        let (a, b) = (site_nodes[distinct[i].label], site_nodes[distinct[j].label]);
                        let d = latency
                            .one_way(&distinct[i].location(), &distinct[j].location())
                            .mul_f64(0.8);
                        net.add_duplex(a, b, LinkConfig::core(d));
                        backbone_pairs.insert((a.min(b), a.max(b)));
                    }
                }
                (Some(assignment), attach_nodes)
            }
        };
        Fabric {
            net,
            topology,
            latency,
            registry,
            clients,
            aps,
            tap_ids,
            access_links,
            locations,
            site_nodes,
            backbone_pairs,
            assignment,
            servers,
            dead_sites: Vec::new(),
            dead_nodes: HashSet::new(),
            failovers: Vec::new(),
        }
    }

    /// Send from participant `i` toward its media peer: its SFU, or the
    /// other client in a P2P call.
    fn send_up(&mut self, i: usize, ports: PortPair, wire: impl Into<std::sync::Arc<[u8]>>) {
        let dst = match self.topology {
            Topology::Sfu => self.servers[i],
            Topology::P2P => self.clients[1 - i],
        };
        self.net.send(self.clients[i], dst, ports, wire);
    }

    /// Take out the SFU site `participant` is attached to. Returns the
    /// site's label and everyone attached there, or `None` when there is
    /// no SFU or the site is already dead.
    fn kill_server(&mut self, participant: usize) -> Option<(&'static str, Vec<usize>)> {
        if self.topology != Topology::Sfu {
            return None;
        }
        let victim = self.servers[participant];
        if !self.dead_nodes.insert(victim) {
            return None;
        }
        let (&label, _) = self
            .site_nodes
            .iter()
            .find(|(_, &node)| node == victim)
            .expect("every SFU node is a site node");
        self.dead_sites.push(label);
        for lid in self.net.links_of(victim) {
            self.net.set_down(lid, true);
        }
        let affected = (0..self.servers.len())
            .filter(|&p| self.servers[p] == victim)
            .collect();
        Some((label, affected))
    }

    /// Reattach `participants` to `site`: add the site's node if it is
    /// new, link each participant's AP to it, extend the backbone to every
    /// other live site (in node order, so link ids never depend on hash
    /// order), and log one failover.
    fn reattach(&mut self, site: ServerSite, participants: &[usize], now: SimTime) {
        let node = *self.site_nodes.entry(site.label).or_insert_with(|| {
            self.net.add_node(
                &format!("{} {}", site.provider, site.label),
                &format!("{}", site.provider),
                site.location(),
            )
        });
        for &p in participants {
            let d = self.latency.one_way(&self.locations[p], &site.location());
            self.net.add_duplex(self.aps[p], node, LinkConfig::core(d));
            self.servers[p] = node;
        }
        let mut others: Vec<NodeId> = self
            .site_nodes
            .values()
            .copied()
            .filter(|&s| s != node && !self.dead_nodes.contains(&s))
            .collect();
        others.sort_unstable();
        for other in others {
            if self
                .backbone_pairs
                .insert((node.min(other), node.max(other)))
            {
                let other_at = self
                    .net
                    .geodb()
                    .lookup(self.net.addr(other))
                    .map(|e| e.location)
                    .unwrap_or_else(|| site.location());
                let d = self
                    .latency
                    .one_way(&site.location(), &other_at)
                    .mul_f64(0.8);
                self.net.add_duplex(node, other, LinkConfig::core(d));
            }
        }
        vca_metrics().failovers.inc();
        if trace::enabled() {
            trace::record(
                TraceKind::SfuFailover,
                now.as_nanos(),
                trace::intern(site.label),
                participants.len() as u64,
                0,
                0,
            );
        }
        self.failovers.push((now, site.label.to_string()));
    }
}

/// How a session reattaches participants stranded by a `ServerDown`.
/// Both schedulers rewire through [`Fabric::reattach`]; they differ in
/// who moves together and where to (DESIGN.md §13).
#[allow(clippy::large_enum_variant)] // one per session; boxing buys nothing
enum Failover {
    /// Legacy: each outage queues its whole cohort for one reattach, after
    /// the fault's detect + reconnect gap, to the live site nearest the
    /// initiator. One failover per cohort.
    Cohort {
        /// (due time, cohort) per outage. Overlapping outages each queue
        /// their own cohort — an earlier one is never overwritten.
        pending: Vec<(SimTime, Vec<usize>)>,
        /// Participants whose cohort found no live site: dark for the rest
        /// of the session — degraded, not aborted.
        stranded: Vec<usize>,
    },
    /// Resilience layer: a probe-driven site directory plus one reconnect
    /// machine per stranded participant, each reattaching to the site
    /// nearest that participant through admission. One failover per
    /// participant.
    Reconnect {
        config: ResilienceConfig,
        directory: SiteDirectory,
        reconnectors: Vec<Reconnector>,
        next_probe: SimTime,
    },
}

impl Failover {
    fn new(cfg: &SessionConfig, fabric: &Fabric) -> Failover {
        let Some(config) = cfg.resilience else {
            return Failover::Cohort {
                pending: Vec::new(),
                stranded: Vec::new(),
            };
        };
        // Seed the directory with the initial attachments so admission
        // sees real load.
        let mut directory = SiteDirectory::new(&fabric.registry, cfg.provider, config);
        if let Some(a) = &fabric.assignment {
            for (p, site) in a.attachments.iter().enumerate() {
                directory.try_admit(site.label, 0, p as u64, SimTime::ZERO);
            }
        }
        Failover::Reconnect {
            config,
            directory,
            reconnectors: Vec::new(),
            next_probe: SimTime::ZERO,
        }
    }

    /// A site died at `now`, stranding `affected`; the first reattach
    /// attempt is due at `due`.
    fn on_server_down(
        &mut self,
        label: &'static str,
        affected: Vec<usize>,
        now: SimTime,
        due: SimTime,
        seed: u64,
    ) {
        match self {
            Failover::Cohort { pending, .. } => pending.push((due, affected)),
            Failover::Reconnect {
                config,
                directory,
                reconnectors,
                ..
            } => {
                // The directory learns the outage (ground truth; probes
                // lag), and every stranded participant not already
                // waiting gets a reconnect machine.
                directory.set_site_up(label, false);
                for _ in &affected {
                    directory.detach(label, 0);
                }
                for &p in &affected {
                    let waiting = reconnectors.iter().any(|r| {
                        r.participant() == p as u64
                            && matches!(r.phase(), ReconnectPhase::Waiting { .. })
                    });
                    if !waiting {
                        reconnectors.push(Reconnector::new(
                            p as u64,
                            now,
                            due,
                            config.backoff,
                            config.rejoin_budget,
                            seed,
                        ));
                    }
                }
            }
        }
    }

    /// Fire every reattach due at `now`, wiring each through
    /// [`Fabric::reattach`].
    fn reattach_due(&mut self, fabric: &mut Fabric, provider: Provider, now: SimTime) {
        match self {
            Failover::Cohort { pending, stranded } => {
                // Reattach each due cohort to the next-nearest live site
                // once its reconnection gap elapses.
                while let Some(pos) = pending.iter().position(|(due, _)| now >= *due) {
                    let (_, cohort) = pending.remove(pos);
                    match failover_site(
                        &fabric.registry,
                        provider,
                        &fabric.locations[0],
                        &fabric.dead_sites,
                    ) {
                        Some(site) => fabric.reattach(site, &cohort, now),
                        None => stranded.extend(cohort),
                    }
                }
            }
            Failover::Reconnect {
                config,
                directory,
                reconnectors,
                next_probe,
            } => {
                // Probe the fleet on its cadence, then fire every due
                // reconnect attempt — candidate selection routes around
                // dead/observed-down/breaker-open sites, and admission may
                // still refuse (capacity, sessions, or a zombie site that
                // feeds the breaker). Refusals reschedule per backoff until
                // the rejoin budget runs out.
                if now >= *next_probe {
                    directory.probe_tick(now);
                    *next_probe = now + config.probe_every;
                }
                for rec in reconnectors.iter_mut() {
                    if !rec.due(now) {
                        continue;
                    }
                    let p = rec.participant() as usize;
                    let attempt = rec.take_attempt();
                    resilience_metrics().reconnect_attempts.inc();
                    let candidate =
                        directory.candidate(&fabric.locations[p], &fabric.dead_sites, now);
                    let mut admitted = None;
                    let verdict_code = match candidate {
                        None => {
                            rec.on_rejected(now);
                            2
                        }
                        Some(site) => match directory.try_admit(site.label, 0, p as u64, now) {
                            AdmissionVerdict::Admitted => {
                                admitted = Some(site);
                                0
                            }
                            AdmissionVerdict::Rejected(_) => {
                                rec.on_rejected(now);
                                1
                            }
                        },
                    };
                    if trace::enabled() {
                        trace::record(
                            TraceKind::ReconnectAttempt,
                            now.as_nanos(),
                            trace::intern(candidate.map(|s| s.label).unwrap_or("")),
                            p as u64,
                            attempt as u64,
                            verdict_code,
                        );
                    }
                    if matches!(rec.phase(), ReconnectPhase::Abandoned { .. }) {
                        resilience_metrics().reconnects_abandoned.inc();
                    }
                    let Some(site) = admitted else { continue };
                    fabric.reattach(site, &[p], now);
                    rec.on_admitted(now);
                    if let Some(lat) = rec.rejoin_latency() {
                        resilience_metrics()
                            .rejoin_ms
                            .observe(lat.as_nanos() / 1_000_000);
                    }
                }
            }
        }
    }

    /// Where a participant cut off from its site stands: `Some(true)`
    /// while a reattach is still coming, `Some(false)` once abandoned,
    /// `None` if nothing accounts for them.
    fn waiting(&self, p: usize) -> Option<bool> {
        match self {
            Failover::Cohort { pending, stranded } => {
                if pending.iter().any(|(_, cohort)| cohort.contains(&p)) {
                    Some(true)
                } else {
                    stranded.contains(&p).then_some(false)
                }
            }
            Failover::Reconnect { reconnectors, .. } => match reconnectors
                .iter()
                .rev()
                .find(|r| r.participant() == p as u64)
                .map(|r| r.phase())
            {
                Some(ReconnectPhase::Waiting { .. }) => Some(true),
                Some(ReconnectPhase::Abandoned { .. }) => Some(false),
                _ => None,
            },
        }
    }
}

/// Send- and receive-side media state, per participant.
struct Media {
    senders: Vec<SenderState>,
    /// Audio senders: a QUIC stream alongside the persona stream for
    /// spatial sessions, an RTP/Opus flow otherwise.
    audio_quic: Vec<QuicStreamSender>,
    audio_rtp: Vec<RtpStream>,
    /// `receivers[r][s]`: receiver `r`'s state for sender `s` (`None` for
    /// `r == s`). Indexed, so feedback goes out in sender order.
    receivers: Vec<Vec<Option<ReceiverPeer>>>,
    /// One delay+loss controller per sender when the loop is closed.
    controllers: Vec<Option<CongestionController>>,
    /// Loss fraction from the newest RR, paired with the next XR into one
    /// controller signal.
    last_rr_loss: Vec<f64>,
    /// Spatial pacing: a per-sender byte budget refilled at the controller
    /// target; capture ticks are skipped while it is spent.
    pace_budget: Vec<f64>,
    /// Capture instant of each semantic frame, per sender (frame ids are
    /// sequential), so receivers can measure end-to-end latency.
    frame_sent_at: Vec<Vec<SimTime>>,
}

impl Media {
    fn new(cfg: &SessionConfig, profile: &AppProfile, persona_type: PersonaType) -> Media {
        let n = cfg.participants.len();
        let video = || {
            VideoEncoderConfig::new(
                profile.resolution_2d,
                profile.fps_2d,
                profile.bits_per_pixel,
            )
        };
        let senders = (0..n)
            .map(|i| match persona_type {
                PersonaType::Spatial => SenderState::Spatial {
                    capture: RgbdCapture::new(MotionConfig::default()),
                    codec: SemanticCodec::new(SemanticConfig::default()),
                    packetizer: Packetizer::new(),
                    quic: QuicStreamSender::new(sender_dcid(i), 0, SESSION_KEY),
                },
                PersonaType::TwoD => {
                    let enc_cfg = video();
                    let full = enc_cfg.bitrate_at(1.0);
                    SenderState::Video {
                        encoder: VideoEncoder::new(enc_cfg),
                        rtp: RtpStream::video(profile.video_pt, i as u32 + 1),
                        controller: RateController::new(full, DataRate::from_kbps(150)),
                    }
                }
            })
            .collect();
        // The spatial ceiling sits above the nominal ~0.67 Mbps persona
        // rate so an unconstrained uplink keeps full fidelity; the 2D
        // ceiling is the encoder's own top rung.
        let controllers = (0..n)
            .map(|i| {
                if !cfg.congestion_control {
                    return None;
                }
                let (max, min, start) = match persona_type {
                    PersonaType::Spatial => (
                        DataRate::from_kbps(1_200),
                        DataRate::from_kbps(200),
                        DataRate::from_kbps(800),
                    ),
                    PersonaType::TwoD => {
                        let full = video().bitrate_at(1.0);
                        (full, DataRate::from_kbps(150), full)
                    }
                };
                Some(
                    CongestionController::new(i as u64, max, min, DataRate::from_kbps(50))
                        .with_initial(start),
                )
            })
            .collect();
        Media {
            senders,
            audio_quic: (0..n)
                .map(|i| QuicStreamSender::new(sender_dcid(i), 1, SESSION_KEY))
                .collect(),
            audio_rtp: (0..n)
                .map(|i| {
                    RtpStream::new(
                        visionsim_transport::rtp::PayloadType::OpusAudio,
                        0x1000 + i as u32,
                        48_000,
                    )
                })
                .collect(),
            receivers: (0..n)
                .map(|r| (0..n).map(|s| (s != r).then(ReceiverPeer::new)).collect())
                .collect(),
            controllers,
            last_rr_loss: vec![0.0; n],
            pace_budget: vec![0.0; n],
            frame_sent_at: vec![Vec::new(); n],
        }
    }
}

/// What each headset renders: remote persona seats, gaze, the visibility
/// pipeline and cost model, and the per-viewer persona state machines the
/// feedback interval drives.
struct RenderState {
    persona_positions: Vec<Vec3>,
    seat_drift: Vec<Vec3>,
    pipeline: VisibilityPipeline,
    cost_model: CostModel,
    gazes: Vec<GazeDynamics>,
    /// Bytes received since each viewer's last frame.
    rx_bytes_since_frame: Vec<usize>,
    availability: Vec<PersonaAvailability>,
    /// Graceful degradation: spatial → 2D fallback per participant.
    ladders: Vec<DegradationLadder>,
}

impl RenderState {
    fn new(cfg: &SessionConfig, rng: &mut SimRng) -> RenderState {
        let n = cfg.participants.len();
        // Seating with natural irregularity: nobody sits on an exact arc.
        // Radius and azimuth jitter per persona, plus slow in-seat drift
        // during the session — together these give Figure 6(a)'s triangle
        // distributions their spread.
        let persona_positions: Vec<Vec3> = SeatingLayout::Arc
            .positions(n - 1, 1.4)
            .into_iter()
            .map(|p| {
                let scale = rng.jitter(1.0, 0.12) as f32;
                Vec3::new(
                    p.x * scale + rng.normal(0.0, 0.08) as f32,
                    p.y + rng.normal(0.0, 0.03) as f32,
                    p.z * scale,
                )
            })
            .collect();
        // Gaze targets: the remote personas, plus a shared-content window
        // off to the side attended ~15% of the time (FaceTime sessions
        // share apps/whiteboards; attention regularly leaves every
        // persona, which is what gives foveation its Figure 6 bite even in
        // two-party calls).
        let ambient = Vec3::new(0.5, -0.8, -1.0);
        let gazes = (0..n)
            .map(|_| {
                let mut g =
                    GazeDynamics::new(persona_positions.clone()).with_ambient(ambient, 0.15);
                // Attention shifts quicken as the group grows (more people
                // to track in conversation).
                g.mean_dwell_s = if n > 2 { 1.4 } else { 2.0 };
                g
            })
            .collect();
        RenderState {
            persona_positions,
            seat_drift: vec![Vec3::ZERO; n - 1],
            pipeline: VisibilityPipeline::new(VisibilityFlags::vision_pro()),
            cost_model: CostModel::default(),
            gazes,
            rx_bytes_since_frame: vec![0; n],
            availability: (0..n).map(|_| PersonaAvailability::new()).collect(),
            ladders: (0..n).map(|_| DegradationLadder::new()).collect(),
        }
    }
}

/// What the session reports in its [`SessionOutcome`], accumulated tick
/// by tick.
struct Accounting {
    counters: Vec<SessionCounters>,
    availability_log: Vec<Vec<(SimTime, PersonaState)>>,
    semantic_frame_sizes: Vec<usize>,
    e2e_latency_ms: Vec<Percentiles>,
    mode_log: Vec<Vec<(SimTime, PersonaMode)>>,
    quality_log: Vec<Vec<(SimTime, f64)>>,
    pli_sent: Vec<u64>,
    keyframes_forced: Vec<u64>,
}

impl Accounting {
    fn new(n: usize) -> Accounting {
        Accounting {
            counters: (0..n).map(|_| SessionCounters::new()).collect(),
            availability_log: vec![Vec::new(); n],
            semantic_frame_sizes: Vec::new(),
            e2e_latency_ms: (0..n).map(|_| Percentiles::new()).collect(),
            mode_log: vec![Vec::new(); n],
            quality_log: vec![Vec::new(); n],
            pli_sent: vec![0; n],
            keyframes_forced: vec![0; n],
        }
    }
}

/// The session engine as an incremental stepper.
///
/// [`SessionRunner::run`] drives it to completion for the batch path; the
/// live service drives it one [`step_tick`](SessionSim::step_tick) at a
/// time, slaved to a wall clock, injecting faults between ticks via
/// [`inject_fault`](SessionSim::inject_fault). Each tick runs a fixed
/// sequence of phases over the owned sub-states; one `rng` is shared by
/// the send and render phases, in that order.
pub struct SessionSim {
    config: SessionConfig,
    n: usize,
    persona_type: PersonaType,
    rng: SimRng,
    fabric: Fabric,
    fault_plans: Vec<(usize, FaultPlan)>,
    failover: Failover,
    media: Media,
    render: RenderState,
    acct: Accounting,
    tick: SimDuration,
    total_ticks: u64,
    feedback_every: u64,
    t: u64,
}

impl SessionSim {
    /// Build the session world: topology, media state, chaos state, and
    /// the congestion loop — everything up to (but not including) the
    /// first tick.
    pub fn new(config: SessionConfig) -> SessionSim {
        assert!(
            config.participants.len() >= 2,
            "a session needs at least two participants"
        );
        let n = config.participants.len();
        let profile = AppProfile::of(config.provider);
        let devices: Vec<Device> = config
            .participants
            .iter()
            .map(|p| Device::new(p.device, &p.name))
            .collect();
        let persona_type = profile.persona_type(&devices);
        let topology = profile.topology(&devices);
        let mut rng = SimRng::seed_from_u64(config.seed);
        let fabric = Fabric::new(&config, topology);
        let media = Media::new(&config, &profile, persona_type);
        let render = RenderState::new(&config, &mut rng);
        let failover = Failover::new(&config, &fabric);
        let tick = SimDuration::FRAME_90FPS;
        SessionSim {
            n,
            persona_type,
            rng,
            fabric,
            fault_plans: config.fault_plans.clone(),
            failover,
            media,
            render,
            acct: Accounting::new(n),
            tick,
            total_ticks: config.duration.as_nanos() / tick.as_nanos(),
            feedback_every: 90, // ~1 s
            t: 0,
            config,
        }
    }

    /// Whether every tick has been stepped.
    pub fn done(&self) -> bool {
        self.t >= self.total_ticks
    }

    /// Simulated time at the *next* tick boundary (the time `step_tick`
    /// will advance through).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.t * self.tick.as_nanos())
    }

    /// Display-tick period (the step quantum).
    pub fn tick_duration(&self) -> SimDuration {
        self.tick
    }

    /// Ticks stepped so far and the configured total.
    pub fn progress(&self) -> (u64, u64) {
        (self.t, self.total_ticks)
    }

    /// Participant count.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Queue a fault plan against `participant`, effective from the next
    /// tick — the live service's `fault` command lands here between
    /// pacing ticks. Events already in the past fire on the next step.
    pub fn inject_fault(&mut self, participant: usize, plan: FaultPlan) {
        assert!(
            participant < self.n,
            "fault target {participant} out of range (session has {} participants)",
            self.n
        );
        self.fault_plans.push((participant, plan));
    }

    /// Advance the session by one display tick (1/90 s of simulated
    /// time). A no-op once [`done`](SessionSim::done) reports true.
    pub fn step_tick(&mut self) {
        if self.done() {
            return;
        }
        let now = self.now();
        self.apply_faults(now);
        self.run_control_plane(now);
        self.send_media(now);
        self.send_audio(now);
        // Let the network move everything submitted this tick.
        self.fabric.net.run_until(now + self.tick);
        self.forward();
        self.receive(now);
        self.render_frames(now);
        if self.feedback_due() {
            self.feedback(now);
        }
        self.t += 1;
    }

    /// Whether this tick closes a feedback interval (~1 s).
    fn feedback_due(&self) -> bool {
        self.t > 0 && self.t.is_multiple_of(self.feedback_every)
    }

    /// Chaos engine: apply every fault event due by `now`.
    fn apply_faults(&mut self, now: SimTime) {
        for (idx, plan) in self.fault_plans.iter_mut() {
            for ev in plan.due(now) {
                if ev.kind.is_recovery() {
                    vca_metrics().fault_recoveries.inc();
                } else {
                    vca_metrics().fault_onsets.inc();
                }
                if trace::enabled() {
                    let kind = if ev.kind.is_recovery() {
                        TraceKind::FaultRecovery
                    } else {
                        TraceKind::FaultOnset
                    };
                    let name = trace::intern(ev.kind.name());
                    trace::record(kind, now.as_nanos(), name, *idx as u64, 0, 0);
                }
                let (up, down) = self.fabric.access_links[*idx];
                let net = &mut self.fabric.net;
                match ev.kind {
                    // Take out the SFU site this participant is attached
                    // to; everyone attached there goes dark until the
                    // failover scheduler reattaches them.
                    FaultKind::ServerDown { detect, reconnect } => {
                        if let Some((label, affected)) = self.fabric.kill_server(*idx) {
                            let due = now + detect + reconnect;
                            self.failover.on_server_down(
                                label,
                                affected,
                                now,
                                due,
                                self.config.seed,
                            );
                        }
                    }
                    // Radio outages cut both directions of the access
                    // link; every other impairment applies at the uplink
                    // egress, where tc attaches.
                    FaultKind::LinkDown | FaultKind::LinkUp => {
                        apply_to_netem(net.netem_mut(up), &ev.kind);
                        apply_to_netem(net.netem_mut(down), &ev.kind);
                    }
                    _ => apply_to_netem(net.netem_mut(up), &ev.kind),
                }
            }
        }
    }

    /// Control plane: run the session's failover scheduler, then (on the
    /// feedback cadence) check participant conservation.
    fn run_control_plane(&mut self, now: SimTime) {
        self.failover
            .reattach_due(&mut self.fabric, self.config.provider, now);
        if self.fabric.topology == Topology::Sfu && self.feedback_due() {
            self.check_conservation();
        }
    }

    /// Participant conservation: nobody has vanished — every participant
    /// is attached to a live site, waiting on a reattach, or abandoned.
    fn check_conservation(&self) {
        let (mut attached, mut reconnecting, mut abandoned) = (0usize, 0usize, 0usize);
        for (p, server) in self.fabric.servers.iter().enumerate() {
            if !self.fabric.dead_nodes.contains(server) {
                attached += 1;
                continue;
            }
            match self.failover.waiting(p) {
                Some(true) => reconnecting += 1,
                Some(false) => abandoned += 1,
                None => {}
            }
        }
        let n = self.n;
        sanitizer::check(
            attached + reconnecting + abandoned == n,
            "vca/participant_conservation",
            || {
                format!(
                    "attached {attached} + reconnecting {reconnecting} \
                     + abandoned {abandoned} != joined {n}"
                )
            },
        );
    }

    /// Send phase, media: one semantic frame per tick (paced when the
    /// congestion loop is closed) or one 2D video frame every third tick.
    fn send_media(&mut self, now: SimTime) {
        let media = &mut self.media;
        for (i, state) in media.senders.iter_mut().enumerate() {
            match state {
                SenderState::Spatial {
                    capture,
                    codec,
                    packetizer,
                    quic,
                } => {
                    // Controller pacing: the budget refills at the target
                    // rate (capped at ~100 ms of burst) and a frame spends
                    // its wire bytes; capture ticks are skipped while the
                    // budget is in deficit. Frame ids stay aligned because
                    // a skipped tick assigns no id.
                    let paced = media.controllers[i].is_some();
                    if let Some(ctrl) = &media.controllers[i] {
                        let refill = ctrl.target().as_bps() as f64 / 8.0 * self.tick.as_secs_f64();
                        let budget = &mut media.pace_budget[i];
                        *budget = (*budget + refill).min(refill * 9.0);
                        if *budget < 0.0 {
                            continue;
                        }
                    }
                    let frame = capture.next_frame(&mut self.rng).persona_subset();
                    let payload = codec.encode(&frame);
                    self.acct.semantic_frame_sizes.push(payload.len());
                    media.frame_sent_at[i].push(now);
                    let ports = PortPair::new(MEDIA_PORT_BASE + i as u16, QUIC_PORT);
                    for frag in packetizer.split(&payload) {
                        let wire = quic.send(frag.to_bytes());
                        if paced {
                            media.pace_budget[i] -= wire.len() as f64;
                        }
                        self.fabric.send_up(i, ports, wire);
                    }
                }
                SenderState::Video { encoder, rtp, .. } => {
                    // 2D persona runs at 30 FPS: every third tick.
                    if !self.t.is_multiple_of(3) {
                        continue;
                    }
                    let size = encoder.next_frame(&mut self.rng).as_bytes() as usize;
                    let chunks = size.div_ceil(1_200).max(1);
                    for c in 0..chunks {
                        let last = c + 1 == chunks;
                        let len = if last {
                            size - 1_200 * (chunks - 1)
                        } else {
                            1_200
                        };
                        let pkt = rtp.packetize(now.as_secs_f64(), vec![0xAB; len], last);
                        let ports = PortPair::new(MEDIA_PORT_BASE + i as u16, RTP_PORT);
                        self.fabric.send_up(i, ports, pkt.to_bytes());
                    }
                }
            }
        }
    }

    /// Send phase, audio: every participant talks intermittently; the
    /// audio stream runs regardless of persona availability.
    fn send_audio(&mut self, now: SimTime) {
        if !self.t.is_multiple_of(AUDIO_EVERY_TICKS) {
            return;
        }
        for i in 0..self.n {
            // Both framers hand back one shared wire image per frame; the
            // network send shares it without copying.
            let (wire, dst_port): (std::sync::Arc<[u8]>, u16) = match self.persona_type {
                PersonaType::Spatial => (
                    self.media.audio_quic[i].send(vec![0x0A; AUDIO_PAYLOAD]),
                    QUIC_PORT,
                ),
                PersonaType::TwoD => (
                    self.media.audio_rtp[i]
                        .packetize(now.as_secs_f64(), vec![0x0A; AUDIO_PAYLOAD], true)
                        .to_bytes()
                        .into(),
                    RTP_PORT,
                ),
            };
            let ports = PortPair::new(AUDIO_PORT_BASE + i as u16, dst_port);
            self.fabric.send_up(i, ports, wire);
        }
    }

    /// SFU forwarding: live servers relay to every other participant; dead
    /// sites forward nothing, and whatever was in flight toward them is
    /// dropped.
    fn forward(&mut self) {
        let fabric = &mut self.fabric;
        if fabric.topology != Topology::Sfu {
            return;
        }
        for &dn in &fabric.dead_nodes {
            fabric.net.drain_delivered(dn).for_each(drop);
        }
        let mut server_list = fabric.servers.clone();
        server_list.sort_unstable();
        server_list.dedup();
        for server in server_list {
            if fabric.dead_nodes.contains(&server) {
                continue;
            }
            for d in fabric.net.poll_delivered(server) {
                let Some((sender, _)) = sender_of(d.packet.ports.src, self.n) else {
                    continue;
                };
                for (r, &client) in fabric.clients.iter().enumerate() {
                    if r != sender {
                        fabric
                            .net
                            .send(server, client, d.packet.ports, d.packet.payload.clone());
                    }
                }
            }
        }
        fabric.net.run_until(fabric.net.now());
    }

    /// Receive phase: media into each receiver's per-sender state, and
    /// RTCP into the sender it reports on.
    fn receive(&mut self, now: SimTime) {
        for r in 0..self.n {
            for d in self.fabric.net.poll_delivered(self.fabric.clients[r]) {
                let Some((sender, kind)) = sender_of(d.packet.ports.src, self.n) else {
                    continue;
                };
                if kind == StreamKind::Feedback {
                    if !d.packet.corrupted {
                        self.on_rtcp(r, &d.packet.payload, now);
                    }
                    continue;
                }
                let Some(peer) = self.media.receivers[r][sender].as_mut() else {
                    continue;
                };
                peer.on_arrival(d.at, d.packet.wire_size().as_bytes());
                self.render.rx_bytes_since_frame[r] += d.packet.payload.len();
                if d.packet.corrupted || kind == StreamKind::Audio {
                    continue; // audio decodes out of band of this study
                }
                match self.persona_type {
                    PersonaType::Spatial => {
                        let Some(quic_pkt) = QuicPacket::parse(&d.packet.payload, &SESSION_KEY)
                        else {
                            continue;
                        };
                        let (QuicPacket::Short { frames, .. } | QuicPacket::Long { frames, .. }) =
                            quic_pkt;
                        for f in frames {
                            let QuicFrame::Stream { data, .. } = f else {
                                continue;
                            };
                            let Some(frag) = Fragment::parse(&data) else {
                                continue;
                            };
                            let Some((frame_id, payload)) = peer.assembler.push(frag) else {
                                continue;
                            };
                            peer.on_frame_complete(frame_id);
                            if let Some(&sent) =
                                self.media.frame_sent_at[sender].get(frame_id as usize)
                            {
                                self.acct.e2e_latency_ms[r].push(d.at.since(sent).as_millis_f64());
                            }
                            let _ = peer.codec.decode(&payload);
                        }
                    }
                    PersonaType::TwoD => {
                        let Some(pkt) = RtpPacket::parse(&d.packet.payload) else {
                            continue;
                        };
                        // A gap means decode state is broken until the
                        // next I-frame: ask the sender for one.
                        if peer.on_rtp_seq(pkt.header.seq, now) {
                            self.acct.pli_sent[r] += 1;
                            vca_metrics().pli_sent.inc();
                            let pli = PliPacket {
                                reporter_ssrc: r as u32 + 1,
                                source_ssrc: sender as u32 + 1,
                            };
                            self.fabric.net.send(
                                self.fabric.clients[r],
                                self.fabric.clients[sender],
                                PortPair::new(RTCP_PORT_BASE + r as u16, RTCP_PORT),
                                pli.to_bytes().to_vec(),
                            );
                        }
                    }
                }
            }
        }
    }

    /// RTCP arriving at participant `r` reports on `r`'s own outgoing
    /// stream: close the loop.
    fn on_rtcp(&mut self, r: usize, payload: &[u8], now: SimTime) {
        let ssrc = r as u32 + 1;
        // PLI: the remote receiver lost decode state and asks this sender
        // for a fresh keyframe.
        if let Some(pli) = PliPacket::parse(payload) {
            if pli.source_ssrc == ssrc {
                if let SenderState::Video { encoder, .. } = &mut self.media.senders[r] {
                    encoder.force_keyframe();
                    self.acct.keyframes_forced[r] += 1;
                    vca_metrics().keyframes_forced.inc();
                }
            }
            return;
        }
        if let Some(rr) = ReceiverReportPacket::parse(payload) {
            if rr.source_ssrc == ssrc {
                self.media.last_rr_loss[r] = rr.loss();
                if let SenderState::Video {
                    encoder,
                    controller,
                    ..
                } = &mut self.media.senders[r]
                {
                    let report = ReceiverReport {
                        received_bytes: rr.received_bytes as u64,
                        loss: rr.loss(),
                        interval_s: 1.0,
                    };
                    encoder.adapt_to(controller.on_report(&report));
                }
            }
            return;
        }
        // XR extended report: the delay/rate half of the congestion
        // signal. Paired with the loss from the RR that rode the same
        // cadence (it arrives just ahead on the same FIFO path).
        let Some(xr) = XrPacket::parse(payload).filter(|xr| xr.source_ssrc == ssrc) else {
            return;
        };
        let media = &mut self.media;
        let Some(ctrl) = &mut media.controllers[r] else {
            return;
        };
        let loss = media.last_rr_loss[r];
        let sig = CongestionSignals {
            loss,
            arrival: DataRate::from_kbps(xr.arrival_kbps as u64),
            queue_delay_us: xr.jitter_us as u64,
        };
        let target = ctrl.on_report(now, &sig);
        if trace::enabled() {
            trace::record(
                TraceKind::RtcpReport,
                now.as_nanos(),
                0,
                r as u64,
                (loss * 1_000.0).round() as u64,
                xr.arrival_kbps as u64,
            );
        }
        if let SenderState::Video { encoder, .. } = &mut media.senders[r] {
            encoder.adapt_to(target);
        }
    }

    /// Render phase (spatial sessions, per Vision Pro viewer): step gaze
    /// and seat drift, run the visibility pipeline, and cost the frame.
    fn render_frames(&mut self, now: SimTime) {
        if self.persona_type != PersonaType::Spatial {
            return;
        }
        let rs = &mut self.render;
        let dt = self.tick.as_secs_f64();
        for r in 0..self.n {
            if self.config.participants[r].device != DeviceKind::VisionPro {
                continue;
            }
            let viewer = rs.gazes[r].step(dt, &mut self.rng);
            // Slow in-seat drift (OU process, ~10 cm scale).
            let pull = 0.5 * dt as f32;
            let dt_sqrt = (dt as f32).sqrt();
            for d in rs.seat_drift.iter_mut() {
                d.x = d.x * (1.0 - pull) + self.rng.normal(0.0, 0.05) as f32 * dt_sqrt;
                d.y = d.y * (1.0 - pull) + self.rng.normal(0.0, 0.02) as f32 * dt_sqrt;
                d.z = d.z * (1.0 - pull) + self.rng.normal(0.0, 0.05) as f32 * dt_sqrt;
            }
            let personas: Vec<PersonaInstance> = rs
                .persona_positions
                .iter()
                .zip(rs.seat_drift.iter())
                .map(|(&p, &d)| PersonaInstance::paper_ladder(p + d))
                .collect();
            // Unavailable personas are not rendered; a participant
            // degraded to the 2D fallback renders no spatial geometry
            // either (the fallback stream replaces it).
            let renders = if rs.availability[r].is_available() && rs.ladders[r].is_spatial() {
                rs.pipeline.evaluate(&viewer, &personas)
            } else {
                Vec::new()
            };
            let cost = rs
                .cost_model
                .frame(&renders, rs.rx_bytes_since_frame[r], &mut self.rng);
            self.acct.counters[r].record(now, &cost);
            rs.rx_bytes_since_frame[r] = 0;
        }
    }

    /// Feedback phase, once per interval: receiver reports toward each
    /// sender, then the spatial persona state machines or the 2D quality
    /// log.
    fn feedback(&mut self, now: SimTime) {
        for r in 0..self.n {
            // 2D receivers always report in band (adaptation happens when,
            // and if, the report arrives). A spatial stream is open-loop
            // unless the congestion loop is closed.
            if self.persona_type == PersonaType::TwoD || self.config.congestion_control {
                self.send_reports(r);
            }
            match self.persona_type {
                PersonaType::Spatial => self.update_persona_mode(r, now),
                PersonaType::TwoD => {
                    if let SenderState::Video { encoder, .. } = &self.media.senders[r] {
                        self.acct.quality_log[r].push((now, encoder.quality()));
                    }
                }
            }
        }
    }

    /// Receiver `r`'s RTCP toward each sender, in sender order: an RR,
    /// plus an XR (jitter and arrival rate) when the congestion loop is
    /// closed.
    fn send_reports(&mut self, r: usize) {
        let spatial = self.persona_type == PersonaType::Spatial;
        let xr_interval_s = self
            .config
            .congestion_control
            .then(|| (self.feedback_every * self.tick.as_nanos()) as f64 / 1e9);
        let ports = PortPair::new(RTCP_PORT_BASE + r as u16, RTCP_PORT);
        let fabric = &mut self.fabric;
        for (s, peer) in self.media.receivers[r].iter_mut().enumerate() {
            let Some(peer) = peer else { continue };
            let (from, to) = (fabric.clients[r], fabric.clients[s]);
            let rr = peer.take_rr(spatial, r, s);
            fabric.net.send(from, to, ports, rr.to_bytes().to_vec());
            if let Some(interval_s) = xr_interval_s {
                let (jitter_us, arrival_kbps) = peer.take_xr(interval_s);
                let xr = XrPacket {
                    reporter_ssrc: r as u32 + 1,
                    source_ssrc: s as u32 + 1,
                    jitter_us,
                    arrival_kbps,
                };
                fabric.net.send(from, to, ports, xr.to_bytes().to_vec());
            }
        }
    }

    /// Viewer `r`'s persona availability and degradation ladder, from this
    /// interval's worst per-sender completeness.
    fn update_persona_mode(&mut self, r: usize, now: SimTime) {
        // Per-interval completeness from frame-id gaps (delay is not loss;
        // the stream is open-loop).
        let mut worst: f64 = 1.0;
        for peer in self.media.receivers[r].iter_mut().flatten() {
            worst = worst.min(peer.take_interval_completeness());
        }
        let state = self.render.availability[r].on_interval(worst);
        self.acct.availability_log[r].push((now, state));
        // The same observable drives graceful degradation, with stickier
        // recovery — and, with the loop closed, the sender's own
        // controller folds in: a target below the ~700 kbps spatial floor
        // (§4.3) reads as congestion, settling the ladder into 2D instead
        // of oscillating on a noisy completeness signal.
        let ladder_input = match &self.media.controllers[r] {
            Some(ctrl) => {
                let head = ctrl.target().as_bps() as f64
                    / DataRate::from_kbps(SPATIAL_FLOOR_KBPS).as_bps() as f64;
                worst.min(head.min(1.0))
            }
            None => worst,
        };
        let mode = self.render.ladders[r].on_interval(ladder_input);
        let mode_log = &mut self.acct.mode_log[r];
        if mode_log.last().is_some_and(|&(_, prev)| prev != mode) {
            vca_metrics().mode_switches.inc();
            if trace::enabled() {
                let code = match mode {
                    PersonaMode::Spatial => 0,
                    PersonaMode::TwoDFallback => 1,
                };
                trace::record(TraceKind::ModeSwitch, now.as_nanos(), 0, r as u64, code, 0);
            }
        }
        mode_log.push((now, mode));
    }

    /// Tear down and summarize: consumes the stepper and produces the
    /// same [`SessionOutcome`] the batch runner returns. Callable at any
    /// point — the live service finishes sessions early on `leave`.
    pub fn finish(self) -> SessionOutcome {
        let SessionSim {
            persona_type,
            fabric,
            failover,
            media,
            render,
            acct,
            ..
        } = self;
        let net = &fabric.net;
        let taps = fabric
            .tap_ids
            .iter()
            .map(|&t| net.tap_records(t).to_vec())
            .collect();
        let client_addrs = fabric.clients.iter().map(|&c| net.addr(c)).collect();
        let final_quality = media
            .senders
            .iter()
            .map(|s| match s {
                SenderState::Video { encoder, .. } => encoder.quality(),
                SenderState::Spatial { .. } => 1.0,
            })
            .collect();
        let (reconnects, admission_rejects) = match &failover {
            Failover::Cohort { .. } => (Vec::new(), 0),
            Failover::Reconnect {
                directory,
                reconnectors,
                ..
            } => (
                reconnectors
                    .iter()
                    .map(|r| ReconnectSummary {
                        participant: r.participant() as usize,
                        attempts: r.attempts(),
                        rejected: r.rejected(),
                        phase: r.phase(),
                        rejoin: r.rejoin_latency(),
                    })
                    .collect(),
                directory.total_rejects(),
            ),
        };
        SessionOutcome {
            persona_type,
            topology: fabric.topology,
            taps,
            client_addrs,
            geodb: net.geodb().clone(),
            assignment: fabric.assignment,
            counters: acct.counters,
            availability: acct.availability_log,
            semantic_frame_sizes: acct.semantic_frame_sizes,
            e2e_latency_ms: acct.e2e_latency_ms,
            final_quality,
            mode_log: acct.mode_log,
            fallbacks: render.ladders.iter().map(|l| l.fallbacks()).collect(),
            quality_log: acct.quality_log,
            failovers: fabric.failovers,
            pli_sent: acct.pli_sent,
            keyframes_forced: acct.keyframes_forced,
            reconnects,
            admission_rejects,
        }
    }
}

/// The 8-byte QUIC connection id encoding the sender index.
fn sender_dcid(i: usize) -> [u8; 8] {
    let mut d = *b"PRSN\0\0\0\0";
    d[4..].copy_from_slice(&(i as u32).to_le_bytes());
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_capture::analysis::CaptureAnalysis;
    use visionsim_geo::cities;

    fn sf() -> City {
        cities::by_name("San Francisco, CA").unwrap()
    }
    fn nyc() -> City {
        cities::by_name("New York, NY").unwrap()
    }

    fn short(cfg: &mut SessionConfig) {
        cfg.duration = SimDuration::from_secs(8);
    }

    #[test]
    fn facetime_both_avp_is_spatial_quic_via_server() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            1,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.persona_type, PersonaType::Spatial);
        assert_eq!(out.topology, Topology::Sfu);
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        assert!(a.dominant_protocol().is_quic(), "{:?}", a.dominant_protocol());
        // Spatial persona uplink lands in the sub-Mbps band (paper: 0.67).
        let up = a.uplink_rate().as_mbps_f64();
        assert!((0.3..1.2).contains(&up), "uplink {up} Mbps");
    }

    #[test]
    fn facetime_mixed_devices_fall_back_to_rtp_p2p() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            2,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.persona_type, PersonaType::TwoD);
        assert_eq!(out.topology, Topology::P2P);
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        assert!(a.dominant_protocol().is_rtp());
        // FaceTime 2D persona ≈ 2 Mbps — more than spatial.
        let up = a.uplink_rate().as_mbps_f64();
        assert!((1.2..3.0).contains(&up), "uplink {up} Mbps");
    }

    #[test]
    fn webex_needs_most_bandwidth_zoom_least() {
        let run = |provider| {
            let mut cfg = SessionConfig::two_party(
                provider,
                (DeviceKind::VisionPro, sf()),
                (DeviceKind::VisionPro, nyc()),
                3,
            );
            short(&mut cfg);
            let out = SessionRunner::new(cfg).run();
            let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
            a.uplink_rate().as_mbps_f64()
        };
        let webex = run(Provider::Webex);
        let zoom = run(Provider::Zoom);
        let teams = run(Provider::Teams);
        assert!(webex > 4.0, "webex {webex}");
        assert!((1.0..2.2).contains(&zoom), "zoom {zoom}");
        assert!(zoom < teams && teams < webex, "ordering: z {zoom} t {teams} w {webex}");
    }

    #[test]
    fn sfu_peer_is_the_provider_server_p2p_peer_is_the_client() {
        // Webex (SFU): the subject's peer is a Webex node.
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            4,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let peers = a.peers(&out.geodb);
        assert!(peers.iter().any(|p| p.org.as_deref() == Some("Webex")));
        // Zoom (P2P at 2 users): the peer is the other client.
        let mut cfg = SessionConfig::two_party(
            Provider::Zoom,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            5,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let peers = a.peers(&out.geodb);
        assert!(peers.iter().all(|p| p.org.as_deref() == Some("client")));
    }

    #[test]
    fn constrained_uplink_kills_the_spatial_persona() {
        // §4.3: below ~700 kbps the persona becomes unavailable.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            6,
        );
        cfg.duration = SimDuration::from_secs(12);
        cfg.uplink_limits = vec![(0, DataRate::from_kbps(400))];
        let out = SessionRunner::new(cfg).run();
        // The receiver of the constrained sender (participant 1) sees the
        // persona go down.
        let frac = out.availability_fraction(1);
        assert!(frac < 0.7, "persona stayed up: {frac}");
    }

    #[test]
    fn unconstrained_spatial_session_stays_available() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            7,
        );
        cfg.duration = SimDuration::from_secs(12);
        let out = SessionRunner::new(cfg).run();
        assert!(out.availability_fraction(0) > 0.9);
        assert!(out.availability_fraction(1) > 0.9);
    }

    #[test]
    fn constrained_uplink_degrades_2d_quality_instead() {
        // The adaptive path: Webex under a 1 Mbps uplink drops quality but
        // keeps flowing.
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            8,
        );
        cfg.duration = SimDuration::from_secs(15);
        cfg.uplink_limits = vec![(0, DataRate::from_mbps(1))];
        let out = SessionRunner::new(cfg).run();
        assert!(
            out.final_quality[0] < 0.5,
            "encoder never adapted: q = {}",
            out.final_quality[0]
        );
    }

    #[test]
    fn closed_loop_congestion_settles_the_ladder_without_oscillating() {
        // A spatial sender behind a 400 kbps finite-queue uplink, with the
        // congestion loop closed: the controller throttles toward the
        // bottleneck, its utilization folds into the ladder, and the
        // session settles in the 2D fallback instead of flapping.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            31,
        );
        cfg.duration = SimDuration::from_secs(24);
        cfg.uplink_limits = vec![(0, DataRate::from_kbps(400))];
        cfg.congestion_control = true;
        let out = SessionRunner::new(cfg).run();
        // The constrained participant degraded at all (anti-vacuity)…
        assert!(out.fallbacks[0] >= 1, "ladder never degraded");
        assert!(
            out.spatial_fraction(0) < 0.6,
            "spent too long spatial: {}",
            out.spatial_fraction(0)
        );
        // …and gracefully: after convergence (12 s in), at most one mode
        // switch per 10 simulated seconds.
        let converged: Vec<_> = out.mode_log[0]
            .iter()
            .filter(|(at, _)| *at >= SimTime::from_secs(12))
            .collect();
        let switches = converged
            .windows(2)
            .filter(|w| w[0].1 != w[1].1)
            .count();
        assert!(
            switches <= 1,
            "ladder oscillated after convergence: {switches} switches in 12 s \
             ({:?})",
            out.mode_log[0]
        );
    }

    #[test]
    fn closed_loop_unconstrained_session_stays_spatial() {
        // The loop must not tax a clean session: with headroom everywhere
        // the controller probes to its ceiling and the ladder never fires.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            32,
        );
        cfg.duration = SimDuration::from_secs(16);
        cfg.congestion_control = true;
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.fallbacks[0], 0, "mode log: {:?}", out.mode_log[0]);
        assert_eq!(out.fallbacks[1], 0, "mode log: {:?}", out.mode_log[1]);
        assert!(out.availability_fraction(0) > 0.9);
        assert!(out.availability_fraction(1) > 0.9);
    }

    #[test]
    fn five_user_session_renders_in_the_figure6_band() {
        let cities: Vec<City> = visionsim_geo::cities::us_vantages();
        let mut cfg = SessionConfig::facetime_avp(5, &cities, 9);
        cfg.duration = SimDuration::from_secs(8);
        let out = SessionRunner::new(cfg).run();
        let gpu = out.counters[0].gpu_boxplot();
        assert!(
            (5.0..11.0).contains(&gpu.mean),
            "five-user GPU mean {} ms",
            gpu.mean
        );
        let tris = out.counters[0].triangles_boxplot();
        assert!(tris.mean > 78_030.0, "triangles {tris}");
    }

    #[test]
    fn audio_flows_alongside_media_in_both_modes() {
        // Spatial: audio rides QUIC (same connection, stream 1).
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            21,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let audio_pkts = out.taps[0]
            .iter()
            .filter(|r| r.src == out.client_addrs[0] && r.ports.src == AUDIO_PORT_BASE)
            .count();
        assert!(audio_pkts > 200, "audio packets: {audio_pkts}");
        // Audio frames classify as QUIC too (same encrypted transport).
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        for (key, proto) in a.protocols() {
            if key.ports.src == AUDIO_PORT_BASE {
                assert!(proto.is_quic(), "spatial audio spoke {proto:?}");
            }
        }

        // 2D: audio is an RTP/Opus flow (PT 111).
        let mut cfg = SessionConfig::two_party(
            Provider::Zoom,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            22,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let audio_proto = a
            .protocols()
            .into_iter()
            .find(|(k, _)| k.ports.src == AUDIO_PORT_BASE && k.src == out.client_addrs[0])
            .map(|(_, p)| p)
            .expect("audio flow present");
        assert_eq!(
            audio_proto,
            visionsim_transport::classify::WireProtocol::Rtp(
                visionsim_transport::rtp::PayloadType::OpusAudio
            )
        );
    }

    #[test]
    fn rtcp_feedback_is_in_band_and_classified() {
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            23,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        // U2's AP sees the RTCP reports U2 sends toward U1.
        let a = CaptureAnalysis::new(out.taps[1].iter(), out.client_addrs[1]);
        let rtcp_flows = a
            .protocols()
            .into_iter()
            .filter(|(k, p)| {
                k.ports.dst == RTCP_PORT
                    && *p == visionsim_transport::classify::WireProtocol::Rtcp
            })
            .count();
        assert!(rtcp_flows >= 1, "no classified RTCP flow at U2's AP");
        // RTCP byte volume must be tiny vs media (it is feedback, not a
        // stream of its own).
        let rtcp_bytes: u64 = out.taps[1]
            .iter()
            .filter(|r| r.ports.dst == RTCP_PORT)
            .map(|r| r.wire_size.as_bytes())
            .sum();
        let media_bytes: u64 = out.taps[1]
            .iter()
            .filter(|r| r.ports.dst != RTCP_PORT)
            .map(|r| r.wire_size.as_bytes())
            .sum();
        assert!(rtcp_bytes * 50 < media_bytes, "RTCP overhead too large");
    }

    #[test]
    fn fluctuating_uplink_flaps_the_persona() {
        // Two 6 s starved spells inside 24 s: the persona must flap —
        // down during dips, recovered during clear spells.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            77,
        );
        cfg.duration = SimDuration::from_secs(24);
        let dip =
            |at| FaultPlan::rate_cliff(at, DataRate::from_kbps(200), SimDuration::from_secs(6));
        cfg.fault_plans = vec![(
            0,
            FaultPlan::merged([dip(SimTime::from_secs(6)), dip(SimTime::from_secs(18))]),
        )];
        let out = SessionRunner::new(cfg).run();
        let frac = out.availability_fraction(1);
        assert!(
            (0.15..0.85).contains(&frac),
            "persona should flap, availability {frac}"
        );
        // The timeline actually transitions both ways.
        let transitions = out.availability[1]
            .windows(2)
            .filter(|w| w[0].1 != w[1].1)
            .count();
        assert!(transitions >= 2, "only {transitions} transitions");
    }

    #[test]
    fn downlink_scales_with_participant_count() {
        let cities: Vec<City> = visionsim_geo::cities::us_vantages();
        let rate_for = |users: usize| {
            let mut cfg = SessionConfig::facetime_avp(users, &cities, 10 + users as u64);
            cfg.duration = SimDuration::from_secs(8);
            let out = SessionRunner::new(cfg).run();
            let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
            a.downlink_rate().as_mbps_f64()
        };
        let two = rate_for(2);
        let four = rate_for(4);
        // Figure 6(c): ~linear in the number of remote personas.
        let ratio = four / two;
        assert!((2.0..4.5).contains(&ratio), "scaling ratio {ratio}");
    }

    /// Regression: two staggered ServerDown faults on *different* sites,
    /// the second landing while the first cohort's reattach is still
    /// pending. The old single-slot `pending_failover` overwrote the
    /// earlier cohort, silently stranding it; the queue reattaches both.
    #[test]
    fn staggered_server_down_faults_reattach_both_cohorts() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            77,
        );
        // Geo-distributed placement puts the coasts on distinct sites, so
        // the two faults kill two different servers.
        cfg.policy = AssignmentPolicy::GeoDistributed;
        cfg.duration = SimDuration::from_secs(10);
        // Cohort 1's reattach is due at 2.5 s; the second site dies at
        // 2 s, inside that window.
        cfg.fault_plans = vec![
            (
                0,
                FaultPlan::server_outage(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(1),
                    SimDuration::from_millis(500),
                ),
            ),
            (
                1,
                FaultPlan::server_outage(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(1),
                    SimDuration::from_millis(500),
                ),
            ),
        ];
        let out = SessionRunner::new(cfg).run();
        // Both cohorts are accounted for while they wait: the sanitizer
        // (on in debug builds and under VISIONSIM_SANITIZE=1) checks
        // participant conservation on the legacy scheduler too.
        let violations: Vec<_> = sanitizer::take()
            .into_iter()
            .filter(|v| v.site == "vca/participant_conservation")
            .collect();
        assert!(violations.is_empty(), "{violations:?}");
        let sites: Vec<&str> = out
            .assignment
            .as_ref()
            .unwrap()
            .attachments
            .iter()
            .map(|s| s.label)
            .collect();
        assert_ne!(sites[0], sites[1], "test needs distinct initial sites");
        assert_eq!(
            out.failovers.len(),
            2,
            "both cohorts must reattach: {:?}",
            out.failovers
        );
        for (_, label) in &out.failovers {
            assert!(
                !sites.contains(&label.as_str()),
                "reattached to a dead site: {label}"
            );
        }
    }

    /// Receiver reports leave in sender order, so a group call's AP
    /// captures are a pure function of its config: two identical runs in
    /// one process record the same packets at the same instants.
    #[test]
    fn group_call_taps_are_identical_across_runs() {
        let cities: Vec<City> = visionsim_geo::cities::us_vantages();
        let mut cfg = SessionConfig::facetime_avp(5, &cities, 12);
        cfg.provider = Provider::Zoom;
        cfg.duration = SimDuration::from_secs(4);
        let capture = |out: &SessionOutcome| -> Vec<Vec<(u64, String)>> {
            out.taps
                .iter()
                .map(|tap| tap.iter().map(|r| (r.at.as_nanos(), format!("{r:?}"))).collect())
                .collect()
        };
        let a = SessionRunner::new(cfg.clone()).run();
        let b = SessionRunner::new(cfg).run();
        assert_eq!(a.topology, Topology::Sfu);
        for (p, (ta, tb)) in capture(&a).iter().zip(&capture(&b)).enumerate() {
            assert!(ta == tb, "participant {p}: taps differ between identical runs");
        }
    }

    /// With resilience on, a ServerDown spawns per-participant reconnect
    /// machines instead of the legacy cohort slot: everyone reattaches
    /// through admission, the episode summaries land in the outcome, and
    /// an idle fleet refuses nobody.
    #[test]
    fn resilience_reconnects_all_participants_after_server_down() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            78,
        );
        cfg.duration = SimDuration::from_secs(10);
        cfg.resilience = Some(ResilienceConfig::default());
        cfg.fault_plans = vec![(
            0,
            FaultPlan::server_outage(
                SimTime::from_secs(2),
                SimDuration::from_secs(1),
                SimDuration::from_millis(500),
            ),
        )];
        let out = SessionRunner::new(cfg).run();
        // NearestToInitiator puts both participants on one site, so one
        // outage strands both.
        assert_eq!(out.reconnects.len(), 2, "{:?}", out.reconnects);
        for r in &out.reconnects {
            assert!(
                matches!(r.phase, ReconnectPhase::Reattached { .. }),
                "{r:?}"
            );
            assert_eq!(r.attempts, 1, "{r:?}");
            assert_eq!(r.rejected, 0, "{r:?}");
            let rejoin = r.rejoin.expect("rejoin latency once reattached");
            assert!(rejoin >= SimDuration::from_millis(1_500), "{rejoin:?}");
        }
        assert_eq!(out.admission_rejects, 0);
        assert_eq!(out.failovers.len(), 2, "{:?}", out.failovers);
    }
}
