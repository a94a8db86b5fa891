//! Conservative parallel discrete-event simulation (PDES) over sharded
//! event queues.
//!
//! The fleet-scale workloads (100k+ concurrent sessions) cannot funnel
//! through one [`crate::event::EventQueue`]: a single heap serializes the
//! whole simulation onto one core. This module partitions the world into
//! *shards* — each owning its own queue and state — and synchronizes them
//! with the classic conservative-lookahead protocol (Chandy–Misra–Bryant
//! flavored, barrier-stepped):
//!
//! 1. Compute the global *floor*: the earliest pending event time across
//!    every shard queue and every in-flight cross-shard envelope.
//! 2. Advance every shard independently (in parallel) to the *horizon*
//!    `min(floor + lookahead − 1ns, end)`.
//! 3. Barrier; exchange the cross-shard envelopes produced in step 2.
//!
//! Safety argument: every cross-shard message takes at least `lookahead`
//! of link latency (enforced by the sanitizer on every routed envelope),
//! so a message *sent* inside the window `[floor, floor + L − 1]` is
//! *delivered* at `≥ floor + L`, strictly after the horizon. No shard can
//! therefore receive an event in its past, and `EventQueue::schedule`'s
//! monotonicity panic doubles as a hard backstop.
//!
//! Determinism argument (byte-identical at any thread count AND any shard
//! count): the floor/horizon sequence is a global property independent of
//! the partition; shard state is partitioned by *site*, never shared;
//! every site-to-site message is routed through the barrier even when
//! source and destination happen to live in the same shard; and each
//! shard sorts its ingress by `(deliver_at, src_site, src_seq)` before
//! delivery. Per-site event order is thus invariant.

use crate::metrics::{self, Class};
use crate::par;
use crate::sanitizer;
use crate::time::{SimDuration, SimTime};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// A cross-shard message in flight between two sites.
///
/// The `(deliver_at, src_site, src_seq)` triple is a total order over all
/// envelopes ever addressed to one site, which is what makes ingress
/// delivery deterministic regardless of which shard (or worker) produced
/// them, in which round, in which order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Virtual time the source site emitted the message.
    pub sent_at: SimTime,
    /// Virtual time the destination site must see it (≥ `sent_at` + link
    /// latency ≥ `sent_at` + lookahead).
    pub deliver_at: SimTime,
    /// Emitting site index.
    pub src_site: u32,
    /// Destination site index.
    pub dst_site: u32,
    /// Per-source-site monotone sequence number (deterministic tiebreak).
    pub src_seq: u64,
    /// Payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// The deterministic ingress sort key.
    pub fn order_key(&self) -> (SimTime, u32, u64) {
        (self.deliver_at, self.src_site, self.src_seq)
    }
}

/// One shard of the simulated world, owning the state of one or more
/// sites plus a private event queue.
pub trait ShardWorld: Send {
    /// Cross-shard message payload.
    type Msg: Send;

    /// Earliest pending local event, if any. Consulted by the engine to
    /// compute the global floor; must not mutate state.
    fn next_event(&self) -> Option<SimTime>;

    /// Accept one cross-shard envelope. Envelopes arrive in
    /// `(deliver_at, src_site, src_seq)` order and always satisfy
    /// `deliver_at` > the shard's current clock.
    fn deliver(&mut self, env: Envelope<Self::Msg>);

    /// Process every local event with time ≤ `horizon`, pushing any
    /// cross-site messages produced onto `out`. Implementations must not
    /// deliver site-to-site messages locally — even when both sites live
    /// in this shard — or shard-count invariance breaks.
    fn advance(&mut self, horizon: SimTime, out: &mut Vec<Envelope<Self::Msg>>);
}

/// What one `run_until` did, for reporting in artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Barrier rounds executed (lookahead windows).
    pub rounds: u64,
    /// Cross-site envelopes routed through the barrier.
    pub messages: u64,
}

struct Slot<W: ShardWorld> {
    world: W,
    inbox: Vec<Envelope<W::Msg>>,
    outbox: Vec<Envelope<W::Msg>>,
}

/// The conservative-PDES engine: a set of shards, a site→shard map, and
/// the lookahead that makes windowed parallel advancement safe.
pub struct ConservativeEngine<W: ShardWorld> {
    slots: Vec<Mutex<Slot<W>>>,
    site_shard: Vec<usize>,
    lookahead: SimDuration,
}

impl<W: ShardWorld> ConservativeEngine<W> {
    /// Build an engine over `worlds`. `site_shard[s]` names the shard
    /// hosting site `s`; `lookahead` must be positive and no larger than
    /// the minimum inter-site link latency (the sanitizer checks the
    /// latter on every routed envelope).
    pub fn new(worlds: Vec<W>, site_shard: Vec<usize>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "engine needs at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative PDES requires positive lookahead"
        );
        let n = worlds.len();
        for (site, &shard) in site_shard.iter().enumerate() {
            assert!(shard < n, "site {site} mapped to nonexistent shard {shard}");
        }
        let slots = worlds
            .into_iter()
            .map(|world| {
                Mutex::new(Slot {
                    world,
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                })
            })
            .collect();
        ConservativeEngine {
            slots,
            site_shard,
            lookahead,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Tear down and hand back the worlds, in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.slots
            .into_iter()
            .map(|m| m.into_inner().expect("no shard worker panicked").world)
            .collect()
    }

    /// Run every shard to `end` (inclusive), exchanging cross-shard
    /// envelopes at each lookahead window. Uses up to
    /// [`par::threads()`] persistent workers; output is byte-identical at
    /// any worker count.
    pub fn run_until(&mut self, end: SimTime) -> EngineReport {
        let n = self.slots.len();
        let workers = par::threads().min(n).max(1);

        // Next-event times, one atomic per shard, u64::MAX = idle.
        // Seeded here; republished by whichever worker advanced the shard.
        let next: Vec<AtomicU64> = self
            .slots
            .iter_mut()
            .map(|slot| {
                let world = &slot.get_mut().expect("unpoisoned").world;
                AtomicU64::new(world.next_event().map_or(u64::MAX, SimTime::as_nanos))
            })
            .collect();

        let report = if workers <= 1 {
            self.run_rounds_inline(end, &next)
        } else {
            self.run_rounds_pooled(end, &next, workers)
        };

        metrics::counter("shard/barrier_rounds", Class::Sim).add(report.rounds);
        metrics::counter("shard/xsite_msgs", Class::Sim).add(report.messages);
        report
    }

    /// Single-worker path: same round structure, no pool, no locking
    /// overhead beyond the uncontended mutexes.
    fn run_rounds_inline(&mut self, end: SimTime, next: &[AtomicU64]) -> EngineReport {
        let n = self.slots.len();
        let mut inbox_min = vec![u64::MAX; n];
        let mut report = EngineReport::default();
        while let Some(horizon) = next_horizon(next, &inbox_min, self.lookahead, end) {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                let slot = slot.get_mut().expect("unpoisoned");
                process_shard(slot, horizon);
                next[i].store(
                    slot.world.next_event().map_or(u64::MAX, SimTime::as_nanos),
                    Ordering::Relaxed,
                );
            }
            inbox_min.iter_mut().for_each(|m| *m = u64::MAX);
            report.messages += route_round(
                &self.slots,
                &self.site_shard,
                self.lookahead,
                horizon,
                &mut inbox_min,
            );
            report.rounds += 1;
        }
        report
    }

    /// Parallel path: a persistent pool of `workers` threads stepped by a
    /// shared barrier, two waits per round. Shard `i` is always advanced
    /// by worker `i % workers`, so no shard is ever touched by two
    /// workers in one round; the coordinator alone routes envelopes, in
    /// shard-index order, keeping the exchange deterministic.
    fn run_rounds_pooled(&mut self, end: SimTime, next: &[AtomicU64], workers: usize) -> EngineReport {
        let n = self.slots.len();
        let slots = &self.slots;
        let barrier = Barrier::new(workers + 1);
        let horizon_ns = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let poisoned = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for w in 0..workers {
                let barrier = &barrier;
                let horizon_ns = &horizon_ns;
                let done = &done;
                let poisoned = &poisoned;
                scope.spawn(move || loop {
                    barrier.wait(); // A: round begins (or shutdown).
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let horizon = SimTime::from_nanos(horizon_ns.load(Ordering::Acquire));
                    let mut i = w;
                    while i < n {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let mut slot = slots[i].lock().expect("unpoisoned");
                            process_shard(&mut slot, horizon);
                            slot.world.next_event().map_or(u64::MAX, SimTime::as_nanos)
                        }));
                        match outcome {
                            Ok(t) => next[i].store(t, Ordering::Release),
                            Err(_) => poisoned.store(true, Ordering::Release),
                        }
                        i += workers;
                    }
                    barrier.wait(); // B: round's shard work complete.
                });
            }

            let mut inbox_min = vec![u64::MAX; n];
            let mut report = EngineReport::default();
            let mut failure: Option<&'static str> = None;
            while let Some(horizon) = next_horizon(next, &inbox_min, self.lookahead, end) {
                horizon_ns.store(horizon.as_nanos(), Ordering::Release);
                barrier.wait(); // A
                barrier.wait(); // B
                if poisoned.load(Ordering::Acquire) {
                    failure = Some("a shard worker panicked mid-round");
                    break;
                }
                inbox_min.iter_mut().for_each(|m| *m = u64::MAX);
                report.messages += route_round(
                    slots,
                    &self.site_shard,
                    self.lookahead,
                    horizon,
                    &mut inbox_min,
                );
                report.rounds += 1;
            }
            done.store(true, Ordering::Release);
            barrier.wait(); // release workers into shutdown
            if let Some(msg) = failure {
                resume_unwind(Box::new(msg));
            }
            report
        })
    }
}

/// Global floor → horizon for the next round, or `None` when every queue
/// and inbox is drained past `end`.
fn next_horizon(
    next: &[AtomicU64],
    inbox_min: &[u64],
    lookahead: SimDuration,
    end: SimTime,
) -> Option<SimTime> {
    let queue_floor = next.iter().map(|t| t.load(Ordering::Acquire)).min();
    let inbox_floor = inbox_min.iter().copied().min();
    let floor = queue_floor
        .into_iter()
        .chain(inbox_floor)
        .min()
        .unwrap_or(u64::MAX);
    if floor == u64::MAX || floor > end.as_nanos() {
        return None;
    }
    let window_end = SimTime::from_nanos(floor)
        .saturating_add(lookahead)
        .as_nanos()
        .saturating_sub(1);
    Some(SimTime::from_nanos(window_end.min(end.as_nanos())))
}

/// One shard's round: sorted ingress delivery, then local advancement.
fn process_shard<W: ShardWorld>(slot: &mut Slot<W>, horizon: SimTime) {
    let Slot {
        world,
        inbox,
        outbox,
    } = slot;
    inbox.sort_by_key(Envelope::order_key);
    for env in inbox.drain(..) {
        world.deliver(env);
    }
    world.advance(horizon, outbox);
}

/// Move every outbox envelope to its destination shard's inbox, in shard
/// index order (deterministic), checking the causality identities and
/// tracking the earliest pending delivery per destination shard.
fn route_round<W: ShardWorld>(
    slots: &[Mutex<Slot<W>>],
    site_shard: &[usize],
    lookahead: SimDuration,
    horizon: SimTime,
    inbox_min: &mut [u64],
) -> u64 {
    let mut moved = 0u64;
    for i in 0..slots.len() {
        let mut outbox = {
            let mut slot = slots[i].lock().expect("unpoisoned");
            std::mem::take(&mut slot.outbox)
        };
        for env in outbox.drain(..) {
            sanitizer::check(
                env.deliver_at >= env.sent_at.saturating_add(lookahead),
                "shard/causality",
                || {
                    format!(
                        "envelope {} -> {} delivers {} ns after send, below lookahead {} ns",
                        env.src_site,
                        env.dst_site,
                        env.deliver_at.since(env.sent_at).as_nanos(),
                        lookahead.as_nanos()
                    )
                },
            );
            sanitizer::check(env.deliver_at > horizon, "shard/causality", || {
                format!(
                    "envelope {} -> {} delivers at {} ns, inside the closed window ending {} ns",
                    env.src_site,
                    env.dst_site,
                    env.deliver_at.as_nanos(),
                    horizon.as_nanos()
                )
            });
            let dst = site_shard[env.dst_site as usize];
            inbox_min[dst] = inbox_min[dst].min(env.deliver_at.as_nanos());
            slots[dst].lock().expect("unpoisoned").inbox.push(env);
            moved += 1;
        }
        // Hand the drained buffer back so its capacity is reused.
        slots[i].lock().expect("unpoisoned").outbox = outbox;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventQueue, ScratchBatch};

    /// Toy world: sites pass a token around a ring with a fixed one-way
    /// latency; each site stamps the token with its hop count.
    struct RingShard {
        sites: Vec<u32>,       // site ids owned by this shard
        n_sites: u32,          // ring size
        latency: SimDuration,  // one-way link latency
        queue: EventQueue<(u32, u64)>, // (site, hops)
        seq: Vec<u64>,         // per-site egress sequence, indexed by local pos
        log: Vec<(u64, u32, u64)>, // (time_ns, site, hops)
        max_hops: u64,
        scratch: ScratchBatch<(u32, u64)>,
    }

    impl RingShard {
        fn new(sites: Vec<u32>, n_sites: u32, latency: SimDuration, max_hops: u64) -> Self {
            RingShard {
                sites,
                n_sites,
                latency,
                queue: EventQueue::new(),
                seq: Vec::new(),
                log: Vec::new(),
                max_hops,
                scratch: ScratchBatch::new(),
            }
        }
    }

    impl ShardWorld for RingShard {
        type Msg = u64; // hop count

        fn next_event(&self) -> Option<SimTime> {
            self.queue.peek_time()
        }

        fn deliver(&mut self, env: Envelope<u64>) {
            assert!(
                self.sites.contains(&env.dst_site),
                "envelope routed to wrong shard"
            );
            self.queue.schedule(env.deliver_at, (env.dst_site, env.msg));
        }

        fn advance(&mut self, horizon: SimTime, out: &mut Vec<Envelope<u64>>) {
            while self.queue.drain_due_into(horizon, &mut self.scratch) > 0 {
                for k in 0..self.scratch.len() {
                    let at = self.scratch.at(k);
                    let (site, hops) = *self.scratch.payload(k);
                    self.log.push((at.as_nanos(), site, hops));
                    if hops >= self.max_hops {
                        continue;
                    }
                    let local = self.sites.iter().position(|&s| s == site).unwrap();
                    if self.seq.len() <= local {
                        self.seq.resize(local + 1, 0);
                    }
                    let dst = (site + 1) % self.n_sites;
                    self.seq[local] += 1;
                    out.push(Envelope {
                        sent_at: at,
                        deliver_at: at.saturating_add(self.latency),
                        src_site: site,
                        dst_site: dst,
                        src_seq: self.seq[local],
                        msg: hops + 1,
                    });
                }
            }
        }
    }

    fn run_ring(n_sites: u32, n_shards: usize, latency_ns: u64, max_hops: u64) -> Vec<(u64, u32, u64)> {
        let latency = SimDuration::from_nanos(latency_ns);
        let site_shard: Vec<usize> = (0..n_sites as usize).map(|s| s % n_shards).collect();
        let mut worlds: Vec<RingShard> = (0..n_shards)
            .map(|sh| {
                let mine: Vec<u32> = (0..n_sites).filter(|&s| s as usize % n_shards == sh).collect();
                RingShard::new(mine, n_sites, latency, max_hops)
            })
            .collect();
        // Kick off one token at site 0, t = 1 ms.
        worlds[0]
            .queue
            .schedule(SimTime::from_millis(1), (0, 0));
        let mut engine = ConservativeEngine::new(worlds, site_shard, latency);
        let report = engine.run_until(SimTime::from_secs(10));
        assert!(report.rounds > 0, "the ring must take at least one round");
        let mut log: Vec<(u64, u32, u64)> = engine
            .into_worlds()
            .into_iter()
            .flat_map(|w| w.log)
            .collect();
        log.sort_unstable();
        log
    }

    #[test]
    fn ring_token_visits_every_site_in_order() {
        let log = run_ring(5, 2, 1_000_000, 12);
        assert_eq!(log.len(), 13, "token observed once per hop plus origin");
        for (k, &(t, site, hops)) in log.iter().enumerate() {
            assert_eq!(hops, k as u64);
            assert_eq!(site, (k as u32) % 5);
            assert_eq!(t, 1_000_000 + k as u64 * 1_000_000);
        }
    }

    #[test]
    fn shard_and_thread_count_do_not_change_the_event_order() {
        let _guard = par::override_guard();
        let baseline = run_ring(7, 1, 250_000, 40);
        for shards in [2usize, 3, 7] {
            for threads in [1usize, 4, 8] {
                par::set_threads(Some(threads));
                let log = run_ring(7, shards, 250_000, 40);
                assert_eq!(
                    log, baseline,
                    "{shards} shards x {threads} threads diverged from 1x1"
                );
            }
        }
        par::set_threads(None);
    }

    #[test]
    fn causality_all_deliveries_respect_lookahead() {
        // The sanitizer is process-global: serialize with the other tests
        // that force and reset it.
        let _guard = par::override_guard();
        sanitizer::force(Some(true));
        sanitizer::reset();
        let log = run_ring(6, 3, 500_000, 30);
        assert_eq!(
            sanitizer::total(),
            0,
            "causality identities must hold: {:?}",
            sanitizer::take()
        );
        assert!(!log.is_empty());
        sanitizer::force(None);
        sanitizer::reset();
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let world = RingShard::new(vec![0], 1, SimDuration::ZERO, 1);
        let _ = ConservativeEngine::new(vec![world], vec![0], SimDuration::ZERO);
    }

    #[test]
    fn idle_engine_terminates_immediately() {
        let world = RingShard::new(vec![0], 1, SimDuration::from_millis(1), 1);
        let mut engine =
            ConservativeEngine::new(vec![world], vec![0], SimDuration::from_millis(1));
        let report = engine.run_until(SimTime::from_secs(1));
        assert_eq!(report, EngineReport::default());
    }
}
