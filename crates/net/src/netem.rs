//! `tc netem`/`tbf`-style link impairments.
//!
//! The paper uses Linux `tc` twice: to inject 0–1000 ms of extra delay for
//! the display-latency experiment (§4.3) and to constrain uplink bandwidth
//! for the rate-adaptation experiment (also §4.3, the 700 kbps cliff).
//! [`Netem`] reproduces those knobs, plus the loss/corruption injection the
//! session guides' reference stack exposes for robustness testing. Knobs
//! that change over a run are driven by a [`crate::fault::FaultPlan`].

use crate::fault::{DrawPlan, GilbertElliott};
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};

/// How many uniform words the loss-only batch path generates per
/// [`SimRng::next_u64_chunk`] call — sized to keep the xoshiro state in
/// registers without spilling the output buffer out of L1.
const RNG_CHUNK: usize = 64;

/// Impairment configuration for one link direction.
#[derive(Clone, Debug, Default)]
pub struct Netem {
    /// Fixed extra one-way delay (the `tc netem delay` knob).
    pub extra_delay: SimDuration,
    /// Uniform jitter added on top of `extra_delay`: each packet gets
    /// `U[0, jitter]`.
    pub jitter: SimDuration,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
    /// Independent per-packet corruption probability in `[0, 1]`; corrupted
    /// packets are delivered but flagged.
    pub corrupt: f64,
    /// Optional token-bucket shaper (the `tc tbf` knob). Packets exceeding
    /// the bucket are delayed until tokens accrue.
    pub shaper: Option<TokenBucket>,
    /// Link administratively/physically down: every packet dropped (the
    /// chaos engine's link-flap knob).
    pub down: bool,
    /// Optional Gilbert–Elliott bursty-loss channel, stepped per packet.
    /// Applied on top of (before) the independent `loss` probability.
    pub ge: Option<GilbertElliott>,
    /// Fraction of packets held back by `reorder_extra` (the `tc netem
    /// reorder` analogue: held packets arrive after later ones).
    pub reorder: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_extra: SimDuration,
    /// Fraction of packets delivered twice (`tc netem duplicate`).
    pub duplicate: f64,
}

impl Netem {
    /// No impairment.
    pub fn none() -> Self {
        Netem::default()
    }

    /// Only a rate limit (the bandwidth-cliff experiment). Burst defaults
    /// to 32 KB, `tc tbf`'s common configuration for ~Mbps-class shaping.
    pub fn with_rate_limit(rate: DataRate) -> Self {
        Netem {
            shaper: Some(TokenBucket::new(rate, ByteSize::from_kb(32))),
            ..Netem::default()
        }
    }

    /// True when no knob except `extra_delay` is active: the verdict is a
    /// constant `Deliver` and zero randomness is drawn. This is the common
    /// case on the forwarding fast path and the precondition for the
    /// constant-fill branch of [`Netem::apply_batch`].
    #[inline]
    pub fn is_transparent(&self) -> bool {
        !self.down
            && self.ge.is_none()
            && self.loss == 0.0
            && self.jitter.is_zero()
            && self.shaper.is_none()
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.duplicate == 0.0
    }

    /// Sample the impairment's verdict for one packet.
    pub fn apply(&mut self, now: SimTime, size: ByteSize, rng: &mut SimRng) -> NetemVerdict {
        // Fused transparent-config check: an unimpaired link takes one
        // predictable branch and draws no randomness. The fall-through
        // handles every knob in the same order as always, so RNG draw
        // sequence — and therefore artifact determinism — is unchanged.
        if self.is_transparent() {
            return NetemVerdict::Deliver {
                delay: self.extra_delay,
                corrupt: false,
            };
        }
        if self.down {
            return NetemVerdict::Drop;
        }
        self.apply_impaired(now, size, rng)
    }

    /// The knob-by-knob verdict for a non-transparent, non-down config —
    /// the single source of truth for impairment ordering and RNG draw
    /// order, shared by the scalar [`Netem::apply`] and the general branch
    /// of [`Netem::apply_batch`].
    fn apply_impaired(&mut self, now: SimTime, size: ByteSize, rng: &mut SimRng) -> NetemVerdict {
        if let Some(ge) = &mut self.ge {
            if ge.sample_drop(rng) {
                return NetemVerdict::Drop;
            }
        }
        if self.loss > 0.0 && rng.chance(self.loss) {
            return NetemVerdict::Drop;
        }
        let mut delay = self.extra_delay;
        if !self.jitter.is_zero() {
            delay += SimDuration::from_nanos(rng.uniform_u64(0, self.jitter.as_nanos()));
        }
        if let Some(shaper) = &mut self.shaper {
            match shaper.admit(now, size) {
                Admission::Forward => {}
                Admission::DelayUntil(t) => delay += t.since(now),
                Admission::Drop => return NetemVerdict::Drop,
            }
        }
        if self.reorder > 0.0 && rng.chance(self.reorder) {
            // Held back: this packet will pop out behind packets sent
            // after it — reordering without loss.
            delay += self.reorder_extra;
        }
        let corrupt = self.corrupt > 0.0 && rng.chance(self.corrupt);
        if self.duplicate > 0.0 && rng.chance(self.duplicate) {
            // The duplicate trails the original by a wire-time-scale gap,
            // the way a retransmitting link layer duplicates.
            return NetemVerdict::Duplicate {
                delay,
                dup_delay: delay + SimDuration::from_micros(500),
                corrupt,
            };
        }
        NetemVerdict::Deliver { delay, corrupt }
    }

    /// Sample verdicts for a batch of packets admitted at the same instant,
    /// writing them into a reusable output buffer.
    ///
    /// Draw-order contract: the verdict stream and the RNG stream position
    /// afterwards are bit-identical to calling [`Netem::apply`] once per
    /// packet in slice order. Fast paths only exist where that equivalence
    /// is provable:
    ///
    /// - transparent config — zero draws, constant fill;
    /// - link down — zero draws, constant fill;
    /// - independent loss only — exactly one uniform per packet, so the
    ///   words can be generated in register-resident chunks;
    /// - Gilbert–Elliott (plus optional independent loss) — draw count is
    ///   state-dependent, so no chunking, but the transition table and
    ///   channel state hoist out of the per-packet loop;
    /// - anything else — the scalar `apply_impaired` per packet.
    pub fn apply_batch(
        &mut self,
        now: SimTime,
        sizes: &[ByteSize],
        rng: &mut SimRng,
        out: &mut NetemBatch,
    ) {
        out.verdicts.clear();
        out.verdicts.reserve(sizes.len());
        if self.is_transparent() {
            let v = NetemVerdict::Deliver {
                delay: self.extra_delay,
                corrupt: false,
            };
            out.verdicts.resize(sizes.len(), v);
            return;
        }
        if self.down {
            out.verdicts.resize(sizes.len(), NetemVerdict::Drop);
            return;
        }
        let only_stochastic = self.jitter.is_zero()
            && self.shaper.is_none()
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.duplicate == 0.0;
        if only_stochastic {
            let deliver = NetemVerdict::Deliver {
                delay: self.extra_delay,
                corrupt: false,
            };
            match (&mut self.ge, DrawPlan::of(self.loss)) {
                (None, DrawPlan::Draw(p)) => {
                    // Independent loss alone draws exactly one uniform per
                    // packet, so the words can be pre-generated in chunks.
                    // The comparison reproduces `SimRng::uniform` bit-for-bit.
                    let mut words = [0u64; RNG_CHUNK];
                    let mut remaining = sizes.len();
                    while remaining > 0 {
                        let n = remaining.min(RNG_CHUNK);
                        rng.next_u64_chunk(&mut words[..n]);
                        for &w in &words[..n] {
                            let u = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                            out.verdicts
                                .push(if u < p { NetemVerdict::Drop } else { deliver });
                        }
                        remaining -= n;
                    }
                    return;
                }
                (Some(ge), loss_plan) => {
                    // Hoist the transition table and channel state out of
                    // the loop; `||` short-circuits exactly like the scalar
                    // path (a GE drop never evaluates the loss draw).
                    let kernel = ge.kernel();
                    let mut state = ge.state_index();
                    for _ in sizes {
                        let dropped = kernel.step(&mut state, rng) || loss_plan.eval(rng);
                        out.verdicts
                            .push(if dropped { NetemVerdict::Drop } else { deliver });
                    }
                    ge.set_state_index(state);
                    return;
                }
                // loss ≥ 1 with no GE: rare, let the general loop decide.
                _ => {}
            }
        }
        for &size in sizes {
            let v = self.apply_impaired(now, size, rng);
            out.verdicts.push(v);
        }
    }
}

/// Reusable output buffer for [`Netem::apply_batch`]: one verdict per
/// admitted packet, in admission order. Allocated once and recycled so the
/// batch kernel stays inside the datapath's per-hop allocation budget.
#[derive(Debug, Default)]
pub struct NetemBatch {
    verdicts: Vec<NetemVerdict>,
}

impl NetemBatch {
    /// An empty buffer.
    pub fn new() -> Self {
        NetemBatch::default()
    }

    /// Number of verdicts from the last `apply_batch`.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// True when no verdicts are buffered.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// The verdicts, in admission order.
    pub fn verdicts(&self) -> &[NetemVerdict] {
        &self.verdicts
    }
}

/// Outcome of applying impairments to one packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetemVerdict {
    /// Packet dropped.
    Drop,
    /// Packet delivered after `delay`, possibly corrupted.
    Deliver {
        /// Total extra delay to add.
        delay: SimDuration,
        /// Whether to flag the payload as corrupted.
        corrupt: bool,
    },
    /// Packet delivered twice: the original after `delay`, a byte-identical
    /// copy after `dup_delay`.
    Duplicate {
        /// Extra delay for the original.
        delay: SimDuration,
        /// Extra delay for the duplicate copy.
        dup_delay: SimDuration,
        /// Whether to flag both copies as corrupted.
        corrupt: bool,
    },
}

/// Shaper admission outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Admission {
    Forward,
    DelayUntil(SimTime),
    Drop,
}

/// A token-bucket rate shaper (the `tc tbf` analogue).
///
/// Tokens are bytes; the bucket refills continuously at `rate` and holds at
/// most `burst` bytes. A packet needing more tokens than the bucket can ever
/// hold is dropped; otherwise it is scheduled for the instant enough tokens
/// will have accrued. A bounded backlog horizon (default 500 ms worth of
/// tokens) drop-tails sustained overload, as a real shaper's queue would.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: DataRate,
    burst: ByteSize,
    /// Token level, in bytes, at `updated`. May go negative (borrowed
    /// tokens) down to the backlog horizon.
    tokens: f64,
    updated: SimTime,
    /// How many bytes of deficit we allow before drop-tailing.
    backlog_limit: f64,
}

impl TokenBucket {
    /// A bucket with the given sustained rate and burst size.
    pub fn new(rate: DataRate, burst: ByteSize) -> Self {
        assert!(rate > DataRate::ZERO, "shaper needs a positive rate");
        let backlog_limit = rate.as_bps() as f64 / 8.0 * 0.5; // 500 ms of data
        TokenBucket {
            rate,
            burst,
            tokens: burst.as_bytes() as f64,
            updated: SimTime::ZERO,
            backlog_limit,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.updated).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate.as_bps() as f64 / 8.0)
            .min(self.burst.as_bytes() as f64);
        self.updated = now;
    }

    fn admit(&mut self, now: SimTime, size: ByteSize) -> Admission {
        self.refill(now);
        let need = size.as_bytes() as f64;
        if need > self.burst.as_bytes() as f64 + self.backlog_limit {
            return Admission::Drop;
        }
        self.tokens -= need;
        if self.tokens >= 0.0 {
            Admission::Forward
        } else if -self.tokens > self.backlog_limit {
            // Refund and drop: the backlog is full.
            self.tokens += need;
            Admission::Drop
        } else {
            // Delay until the deficit is repaid.
            let wait_s = -self.tokens / (self.rate.as_bps() as f64 / 8.0);
            Admission::DelayUntil(now + SimDuration::from_secs_f64(wait_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_impairment_delivers_immediately() {
        let mut n = Netem::none();
        let mut rng = SimRng::seed_from_u64(1);
        let v = n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng);
        assert_eq!(
            v,
            NetemVerdict::Deliver {
                delay: SimDuration::ZERO,
                corrupt: false
            }
        );
    }

    #[test]
    fn fixed_delay_is_applied_exactly() {
        let mut n = Netem {
            extra_delay: SimDuration::from_millis(250),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(2);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Deliver { delay, .. } => {
                assert_eq!(delay, SimDuration::from_millis(250))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let mut n = Netem {
            loss: 0.3,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let drops = (0..10_000)
            .filter(|_| {
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) == NetemVerdict::Drop
            })
            .count();
        assert!((drops as f64 / 10_000.0 - 0.3).abs() < 0.02, "{drops}");
    }

    #[test]
    fn corruption_flags_but_delivers() {
        let mut n = Netem {
            corrupt: 1.0,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(4);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Deliver { corrupt, .. } => assert!(corrupt),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jitter_stays_within_bound() {
        let mut n = Netem {
            extra_delay: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            if let NetemVerdict::Deliver { delay, .. } =
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng)
            {
                assert!(delay >= SimDuration::from_millis(10));
                assert!(delay <= SimDuration::from_millis(15));
            }
        }
    }

    #[test]
    fn token_bucket_passes_within_burst() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(1), ByteSize::from_kb(32));
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
    }

    #[test]
    fn token_bucket_delays_when_exhausted() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(8), ByteSize::from_kb(10));
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
        // Bucket is empty; 1 KB needs 1 ms at 8 Mbps (= 1 MB/s).
        match tb.admit(SimTime::ZERO, ByteSize::from_kb(1)) {
            Admission::DelayUntil(t) => {
                assert!((t.as_millis_f64() - 1.0).abs() < 0.01, "{t:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(8), ByteSize::from_kb(10));
        tb.admit(SimTime::ZERO, ByteSize::from_kb(10));
        // After 10 ms at 1 MB/s, 10 KB of tokens are back.
        assert_eq!(
            tb.admit(SimTime::from_millis(10), ByteSize::from_kb(10)),
            Admission::Forward
        );
    }

    #[test]
    fn token_bucket_drops_sustained_overload() {
        let mut tb = TokenBucket::new(DataRate::from_kbps(100), ByteSize::from_kb(4));
        // Flood far beyond the 500 ms backlog horizon.
        let mut dropped = false;
        for _ in 0..100 {
            if tb.admit(SimTime::ZERO, ByteSize::from_kb(4)) == Admission::Drop {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "sustained overload must eventually drop");
    }

    #[test]
    fn link_down_drops_everything() {
        let mut n = Netem {
            down: true,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng),
                NetemVerdict::Drop
            );
        }
    }

    #[test]
    fn gilbert_elliott_episode_drops_in_bursts() {
        use crate::fault::{GeConfig, GilbertElliott};
        let mut n = Netem {
            ge: Some(GilbertElliott::new(GeConfig {
                good_to_bad: 0.05,
                bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            })),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(8);
        let verdicts: Vec<bool> = (0..5_000)
            .map(|_| {
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) == NetemVerdict::Drop
            })
            .collect();
        let drops = verdicts.iter().filter(|d| **d).count();
        // Stationary loss = 0.05/(0.05+0.2) = 0.2.
        assert!((drops as f64 / 5_000.0 - 0.2).abs() < 0.05, "{drops}");
        // Bursts: a drop is followed by another drop far more often than
        // the marginal rate alone would predict.
        let pairs = verdicts.windows(2).filter(|w| w[0]).count();
        let repeats = verdicts.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(
            repeats as f64 / pairs as f64 > 0.5,
            "loss not bursty: {repeats}/{pairs}"
        );
    }

    #[test]
    fn reorder_holds_back_a_subset() {
        let mut n = Netem {
            reorder: 0.25,
            reorder_extra: SimDuration::from_millis(40),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(9);
        let mut held = 0u32;
        for _ in 0..4_000 {
            match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
                NetemVerdict::Deliver { delay, .. } => {
                    if delay == SimDuration::from_millis(40) {
                        held += 1;
                    } else {
                        assert_eq!(delay, SimDuration::ZERO);
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((held as f64 / 4_000.0 - 0.25).abs() < 0.03, "{held}");
    }

    #[test]
    fn duplicate_emits_trailing_copy() {
        let mut n = Netem {
            duplicate: 1.0,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(10);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Duplicate {
                delay, dup_delay, ..
            } => {
                assert!(dup_delay > delay);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn apply_batch_matches_scalar_stream_for_every_config_shape() {
        use crate::fault::{GeConfig, GilbertElliott};
        let ge = || {
            GilbertElliott::new(GeConfig {
                good_to_bad: 0.05,
                bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            })
        };
        let configs = vec![
            Netem::none(),
            Netem {
                extra_delay: SimDuration::from_millis(20),
                ..Netem::default()
            },
            Netem {
                down: true,
                loss: 0.5,
                ..Netem::default()
            },
            Netem {
                loss: 0.3,
                ..Netem::default()
            },
            Netem {
                loss: 1.5,
                ..Netem::default()
            },
            Netem {
                ge: Some(ge()),
                ..Netem::default()
            },
            Netem {
                ge: Some(ge()),
                loss: 0.1,
                ..Netem::default()
            },
            Netem {
                jitter: SimDuration::from_millis(5),
                loss: 0.2,
                corrupt: 0.1,
                duplicate: 0.15,
                reorder: 0.1,
                reorder_extra: SimDuration::from_millis(30),
                ..Netem::default()
            },
            Netem::with_rate_limit(DataRate::from_kbps(700)),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            let sizes: Vec<ByteSize> = (0..257)
                .map(|k| ByteSize::from_bytes(100 + (k % 5) * 300))
                .collect();
            let now = SimTime::from_millis(7);
            let mut scalar = config.clone();
            let mut batched = config;
            let mut rng_s = SimRng::seed_from_u64(42 + i as u64);
            let mut rng_b = SimRng::seed_from_u64(42 + i as u64);
            let want: Vec<NetemVerdict> = sizes
                .iter()
                .map(|&s| scalar.apply(now, s, &mut rng_s))
                .collect();
            let mut out = NetemBatch::new();
            batched.apply_batch(now, &sizes, &mut rng_b, &mut out);
            assert_eq!(out.verdicts(), &want[..], "verdicts diverged for config {i}");
            assert_eq!(
                rng_s.state_fingerprint(),
                rng_b.state_fingerprint(),
                "rng stream position diverged for config {i}"
            );
        }
    }

    #[test]
    fn shaped_netem_long_run_rate_matches_config() {
        // Push 2x the shaped rate for 10 s; delivered volume must match the
        // shaper rate, not the offered rate.
        let rate = DataRate::from_kbps(700);
        let mut n = Netem::with_rate_limit(rate);
        let mut rng = SimRng::seed_from_u64(6);
        let pkt = ByteSize::from_bytes(875); // 7,000 bits
        let mut delivered: u64 = 0;
        let mut t = SimTime::ZERO;
        // Offered: one packet every 5 ms = 1.4 Mbps.
        for _ in 0..2_000 {
            if let NetemVerdict::Deliver { .. } = n.apply(t, pkt, &mut rng) {
                delivered += pkt.as_bytes();
            }
            t += SimDuration::from_millis(5);
        }
        let achieved = ByteSize::from_bytes(delivered)
            .rate_over(SimDuration::from_secs(10))
            .as_kbps_f64();
        assert!(
            (achieved - 700.0).abs() < 75.0,
            "achieved {achieved} kbps, want ~700"
        );
    }
}
