//! Property tests for the failover control plane.
//!
//! Three invariants the resilience layer must hold under seeded chaos:
//!
//! 1. [`SiteDirectory::candidate`] never hands out a site that is in the
//!    caller's dead list, observed `Down`, or sitting behind an open
//!    circuit breaker — across randomized up/down flips, probe cadences,
//!    and admission attempts.
//! 2. Session-level failover targets never name a killed site, with the
//!    legacy queue and with the full resilience layer, across chaos seeds.
//! 3. Reconnect backoff sequences are byte-identical at 1, 4, and 8
//!    worker threads: jitter comes from `derive_seed`, never from the
//!    schedule.

use std::collections::{BTreeMap, BTreeSet};
use visionsim_core::par::{self, derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_geo::cities::{self, City};
use visionsim_geo::sites::{Provider, SiteRegistry};
use visionsim_net::fault::FaultPlan;
use visionsim_net::probe::SiteHealth;
use visionsim_vca::server::{AdmissionVerdict, BackoffPolicy, ResilienceConfig, SiteDirectory};
use visionsim_vca::session::{SessionConfig, SessionRunner};
use visionsim_vca::AssignmentPolicy;

/// Chaos-drive a [`SiteDirectory`]: random ground-truth flips, the probe
/// cadence, and admission attempts that feed breakers. After every step
/// the candidate the directory hands out must be safe — not in the dead
/// list, not observed Down, and not behind an open breaker (tracked
/// through a shadow model of the open→half-open timers).
#[test]
fn candidate_never_selects_dead_or_breaker_open_site() {
    let registry = SiteRegistry::geo_distributed(Provider::FaceTime);
    let vantages = cities::us_vantages();
    let cfg = ResilienceConfig::default();
    let open_for = cfg.breaker.open_for;
    let tick = SimDuration::from_millis(100);

    for seed in 0..24u64 {
        let mut dir = SiteDirectory::new(&registry, Provider::FaceTime, cfg);
        let labels = dir.labels();
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, "failover-props", 0));
        // Shadow model: label → deadline before which the breaker is
        // open. `candidate` half-opens an elapsed timer itself, so an
        // expired entry is no longer excluded.
        let mut open_until: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        let mut opens_seen: BTreeMap<&'static str, u32> =
            labels.iter().map(|&l| (l, 0)).collect();
        let mut next_probe = SimTime::ZERO;

        for step in 0..400u64 {
            let now = SimTime::ZERO + tick * step;
            // ~10% of ticks flip one site's ground truth.
            if rng.chance(0.1) {
                let label = labels[rng.index(labels.len())];
                let up = rng.chance(0.5);
                dir.set_site_up(label, up);
            }
            while now >= next_probe {
                dir.probe_tick(next_probe);
                next_probe += cfg.probe_every;
            }
            // ~30% of ticks hammer a random site with an admission
            // attempt; attempts against ground-truth-down sites feed
            // that site's breaker.
            if rng.chance(0.3) {
                let label = labels[rng.index(labels.len())];
                let participant = rng.uniform_u64(0, 1 << 20);
                let verdict = dir.try_admit(label, 0, participant, now);
                let opens = dir.breaker_opens(label);
                if opens > opens_seen[label] {
                    opens_seen.insert(label, opens);
                    open_until.insert(label, now + open_for);
                }
                if verdict == AdmissionVerdict::Admitted {
                    // A successful trial closes the breaker.
                    open_until.remove(label);
                }
            }
            open_until.retain(|_, until| now < *until);

            // The caller's dead list: every ground-truth-down site (the
            // session engine passes exactly this knowledge).
            let dead: Vec<&str> = labels.iter().copied().filter(|&l| !dir.is_up(l)).collect();
            let anchor = vantages[rng.index(vantages.len())];
            if let Some(site) = dir.candidate(&anchor.location, &dead, now) {
                assert!(
                    !dead.contains(&site.label),
                    "seed {seed} step {step}: candidate {} is in the dead list",
                    site.label
                );
                assert_ne!(
                    dir.health(site.label),
                    SiteHealth::Down,
                    "seed {seed} step {step}: candidate {} observed Down",
                    site.label
                );
                assert!(
                    !open_until.contains_key(site.label),
                    "seed {seed} step {step}: candidate {} has an open breaker until {:?}",
                    site.label,
                    open_until.get(site.label)
                );
            }
        }
    }
}

/// A breaker opened against a zombie site keeps that site out of
/// candidate selection even after ground truth recovers — until the
/// deterministic open timer elapses into half-open.
#[test]
fn open_breaker_outlives_ground_truth_recovery() {
    let registry = SiteRegistry::geo_distributed(Provider::FaceTime);
    let cfg = ResilienceConfig::default();
    let mut dir = SiteDirectory::new(&registry, Provider::FaceTime, cfg);
    let sf = cities::US_WEST[0].location;
    let t0 = SimTime::from_secs(1);
    let west = dir
        .candidate(&sf, &[], SimTime::ZERO)
        .expect("an idle fleet always has a candidate")
        .label;

    // Kill the site but never probe: the observed view stays Healthy, so
    // only the breaker can protect reconnecting clients from the zombie.
    dir.set_site_up(west, false);
    for i in 0..cfg.breaker.failure_threshold {
        let v = dir.try_admit(west, 0, u64::from(i), t0);
        assert!(matches!(v, AdmissionVerdict::Rejected(_)), "{v:?}");
    }
    assert_eq!(dir.breaker_opens(west), 1, "threshold failures trip it");

    // Ground truth recovers immediately — the breaker must still hold.
    dir.set_site_up(west, true);
    let blocked = dir.candidate(&sf, &[], t0 + SimDuration::from_millis(100));
    assert_ne!(
        blocked.map(|s| s.label),
        Some(west),
        "open breaker must exclude the site"
    );
    // After `open_for` the timer half-opens and the site is a trial
    // candidate again.
    let retry_at = t0 + cfg.breaker.open_for;
    let trial = dir.candidate(&sf, &[], retry_at).expect("fleet is up");
    assert_eq!(trial.label, west, "half-open readmits the nearest site");
    assert_eq!(
        dir.try_admit(west, 0, 99, retry_at),
        AdmissionVerdict::Admitted,
        "successful trial closes the breaker"
    );
}

/// Build the staggered outage used by the regression test in
/// `session.rs`, parameterized by seed, resilience mode and the
/// participants' cities: the sites of participants 0 and 1 die at 1 s and
/// 2 s.
fn staggered_outage_config(seed: u64, resilience: bool, at: &[City]) -> SessionConfig {
    let mut cfg = SessionConfig::facetime_avp(at.len(), at, seed);
    cfg.policy = AssignmentPolicy::GeoDistributed;
    cfg.duration = SimDuration::from_secs(10);
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
    if resilience {
        cfg.resilience = Some(ResilienceConfig::default());
    }
    cfg
}

/// Across chaos seeds and both reattach implementations (legacy queue,
/// resilience layer), no failover ever lands on a killed site. The
/// four-site input makes the first reattach open a new site while two
/// other sites are live, so the backbone extension has an order to get
/// right.
#[test]
fn failover_targets_never_name_a_killed_site_across_seeds() {
    let two_sites = [cities::US_WEST[0], cities::US_EAST[0]];
    let four_sites = [
        cities::US_WEST[0],
        cities::US_EAST[0],
        cities::WORLD[0],
        cities::WORLD[2],
    ];
    for seed in [3u64, 11, 42, 77, 1_000, 65_535] {
        for resilience in [false, true] {
            for at in [&two_sites[..], &four_sites[..]] {
                let out = SessionRunner::new(staggered_outage_config(seed, resilience, at)).run();
                let initial: Vec<&str> = out
                    .assignment
                    .as_ref()
                    .expect("SFU session has an assignment")
                    .attachments
                    .iter()
                    .map(|s| s.label)
                    .collect();
                let distinct: BTreeSet<&str> = initial.iter().copied().collect();
                assert_eq!(
                    distinct.len(),
                    at.len(),
                    "seed {seed}: need {} distinct sites",
                    at.len()
                );
                assert!(
                    !out.failovers.is_empty(),
                    "seed {seed} resilience={resilience}: outages must trigger failovers"
                );
                let killed = &initial[..2];
                for (_, label) in &out.failovers {
                    assert!(
                        !killed.contains(&label.as_str()),
                        "seed {seed} resilience={resilience}: reattached to killed site {label}"
                    );
                }
            }
        }
    }
}

/// One participant's full backoff schedule: attempt delays in
/// nanoseconds, long enough to cross the exponential cap.
fn backoff_schedule(seed: u64, participant: u64) -> Vec<u64> {
    let policy = BackoffPolicy::default();
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "reconnect", participant));
    (0..12).map(|a| policy.delay(a, &mut rng).as_nanos()).collect()
}

/// Backoff jitter must come from `derive_seed(seed, "reconnect", p)` and
/// nothing else: the per-participant sequences are byte-identical whether
/// the fleet is computed on 1, 4, or 8 workers — and so is a full
/// resilience session's reconnect ledger.
#[test]
fn reconnect_backoff_is_byte_identical_across_thread_counts() {
    let _guard = par::override_guard();
    let participants: Vec<u64> = (0..48).collect();

    let mut baseline: Option<(String, String)> = None;
    for threads in [1usize, 4, 8] {
        par::set_threads(Some(threads));
        let schedules = format!(
            "{:?}",
            par_map(participants.clone(), |p| backoff_schedule(2024, p))
        );
        let at = [cities::US_WEST[0], cities::US_EAST[0]];
        let out = SessionRunner::new(staggered_outage_config(7, true, &at)).run();
        let ledger = format!("{:?} rejects={}", out.reconnects, out.admission_rejects);
        match &baseline {
            None => baseline = Some((schedules, ledger)),
            Some((s0, l0)) => {
                assert_eq!(&schedules, s0, "{threads} threads: backoff diverged");
                assert_eq!(&ledger, l0, "{threads} threads: reconnect ledger diverged");
            }
        }
    }
    par::set_threads(None);
}

/// Freshly seeded participants never share a jitter stream: adjacent
/// participants' schedules differ, the same participant replays
/// identically, and every delay stays inside the jitter envelope of the
/// capped exponential.
#[test]
fn backoff_streams_are_stable_and_participant_disjoint() {
    let a = backoff_schedule(9, 0);
    let b = backoff_schedule(9, 1);
    let a_again = backoff_schedule(9, 0);
    assert_eq!(a, a_again, "same (seed, participant) must replay");
    assert_ne!(a, b, "participants must not share a jitter stream");
    let policy = BackoffPolicy::default();
    for (i, &d) in a.iter().enumerate() {
        let nominal = policy
            .base
            .as_nanos()
            .saturating_mul(1u64 << i.min(32))
            .min(policy.cap.as_nanos()) as f64;
        let lo = nominal * (1.0 - policy.jitter_frac);
        let hi = nominal * (1.0 + policy.jitter_frac);
        assert!(
            (d as f64) >= lo - 1.0 && (d as f64) <= hi + 1.0,
            "attempt {i}: delay {d} outside jitter envelope [{lo}, {hi}]"
        );
    }
}
