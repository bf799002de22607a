//! Chaos soak: randomized fault injection over the full protocol stack.
//!
//! The churn soak ([`crate::churn`]) stresses *policy* dynamics on a
//! healthy network; this module stresses the *fabric*. A seeded fault
//! schedule — partitions, flap cycles, windowed burst loss, latency
//! spikes — plays out against the six-phase flow while the resilience
//! machinery is armed end to end: requester retry + multi-AM failover,
//! Host→AM retry, circuit breaker, fallback AM, and the stale-grace
//! degraded mode.
//!
//! Policy-epoch propagation is **asynchronous**: each AM delivers epoch
//! advances to the Host over the simulated network through its push
//! channel (`ucam_am::push`), with deterministic retry/backoff when the
//! fabric drops the message. Every push carries the AM's signed
//! capability sieve (DESIGN.md §12), so the Host serves sieve hits
//! under the same faults; the Host's delegation names AM-A's secret, so
//! every sieve AM-B signs is rejected at the door while its plain epoch
//! parameters still apply. The soak therefore keeps **two** ground
//! truth tables: `truth_now` (updated the instant a mutation lands at
//! the AMs) and `truth_visible` (updated once the corresponding epoch
//! push has been delivered to the Host). The gap between them is the
//! **revocation-visibility window**, which the soak measures instead of
//! assuming it is zero.
//!
//! Two invariants are checked and must hold on **every** access:
//!
//! 1. **Soundness** — a granted access implies the requester is entitled
//!    under `truth_now` *or* under `truth_visible` (an undelivered
//!    revocation may legitimately leave a cached permit alive until the
//!    push lands or the TTL expires). Faults may cause spurious
//!    *denials* (fail-closed is always acceptable) but never grants that
//!    both tables deny. `lookup_stale` refuses epoch-stale entries
//!    outright, so a *delivered* revocation kills the grace window too.
//! 2. **Bounded staleness** — the Host's high-water staleness gauge
//!    never exceeds the configured grace window: no permit is ever
//!    served beyond `expires_at + stale_grace_ms`. End to end, a
//!    revocation is enforced within `cache_ttl + stale_grace +
//!    revocation_visibility` milliseconds, with the last term measured
//!    by the push channel's delivery-lag gauge (DESIGN.md §10).
//!
//! After the scripted steps, every fault is healed, the push channels
//! drain to empty, the clock runs past every grace window, breaker
//! cooldown and flap period, and a full verification sweep asserts that
//! each (reader, resource) pair gets *exactly* the ground-truth outcome:
//! every outage ends recovered or fail-closed, never wedged.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucam_am::AuthorizationManager;
use ucam_host::{BreakerConfig, DelegationConfig, ResilienceConfig, WebStorage};
use ucam_policy::{Action, PolicyBody, ResourceRef, Rule, RulePolicy, Subject};
use ucam_requester::{AccessOutcome, AccessSpec, RequesterClient};
use ucam_webenv::identity::IdentityProvider;
use ucam_webenv::{FlapSchedule, LatencyModel, Method, Request, RetryPolicy, SimNet, Url};

/// Authority of the primary Authorization Manager.
const AM_A: &str = "am-a.example";
/// Authority of the mirrored fallback Authorization Manager.
const AM_B: &str = "am-b.example";
/// Authority of the Host under test.
const HOST: &str = "storage.example";
/// The single resource owner (the paper's Bob).
const OWNER: &str = "bob";

/// Configuration of a chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Number of potential readers.
    pub readers: usize,
    /// Resources owned by the single owner.
    pub resources: usize,
    /// Randomized steps to execute (roughly half are accesses).
    pub steps: usize,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Decision-cache TTL installed at both AMs (kept short so cached
    /// permits actually expire into the grace window during the run).
    pub cache_ttl_ms: u64,
    /// Degraded-mode grace window on the Host's decision cache.
    pub stale_grace_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            readers: 4,
            resources: 4,
            steps: 2_400,
            seed: 42,
            cache_ttl_ms: 400,
            stale_grace_ms: 15_000,
        }
    }
}

/// The outcome of a chaos run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Accesses attempted during the fault phase.
    pub accesses: u64,
    /// Accesses granted during the fault phase.
    pub granted: u64,
    /// Accesses denied or failed during the fault phase.
    pub denied: u64,
    /// Denials of a ground-truth-entitled reader (fail-closed under
    /// faults; acceptable during the fault phase, forbidden after heal).
    pub fail_closed: u64,
    /// Invariant violations (MUST be zero): spurious grants during the
    /// fault phase, any mismatch during the final healed sweep, or a
    /// staleness-gauge reading beyond the grace window.
    pub violations: u64,
    /// Reader grant events (mirrored to both AMs).
    pub grants: u64,
    /// Reader revocation events (mirrored to both AMs).
    pub revocations: u64,
    /// Partition events injected (single- or dual-AM).
    pub partitions: u64,
    /// Flap schedules installed.
    pub flaps: u64,
    /// Burst-loss reconfigurations.
    pub bursts: u64,
    /// Heal-everything events.
    pub heals: u64,
    /// Expired permits served inside the grace window (Host gauge).
    pub stale_served: u64,
    /// Decision queries answered by the fallback AM.
    pub fallback_queries: u64,
    /// Decision queries fast-failed by an open circuit.
    pub breaker_fast_fails: u64,
    /// Host-side retry attempts beyond the first.
    pub host_retries: u64,
    /// Requester-side retry attempts beyond the first.
    pub requester_retries: u64,
    /// Requester authorize calls failed over to the secondary AM.
    pub requester_failovers: u64,
    /// High-water staleness served, in ms past TTL (≤ grace window).
    pub max_served_staleness_ms: u64,
    /// Epoch pushes delivered to the Host across both AMs, over the AMs'
    /// lifetime: the set-up drain counts too. Read from the same
    /// `EpochPushStats` snapshot as `sieves_pushed`.
    pub pushes_delivered: u64,
    /// Push delivery attempts lost to the fabric and retried.
    pub push_retries: u64,
    /// Measured revocation-visibility window: the worst
    /// schedule-to-delivery lag of any epoch push, in ms.
    pub revocation_visibility_ms: u64,
    /// Accesses in the final healed verification sweep (all must match
    /// ground truth exactly).
    pub verified_accesses: u64,
    /// Accesses granted by the Host's tier-1 capability sieve.
    pub sieve_hits: u64,
    /// Sieve bodies the Host verified and installed.
    pub sieve_installs: u64,
    /// Sieve bodies the Host rejected fail-closed. With the mirror AM
    /// signing under its *own* delegation secret, every one of its
    /// bodies lands here — forged-signer coverage for free.
    pub sieve_rejects: u64,
    /// Delivered epoch pushes that carried a sieve body (both AMs), over
    /// the same window as `pushes_delivered`, so never more than it.
    pub sieves_pushed: u64,
    /// Decision queries that left for the primary AM with an `if_epoch`
    /// precondition (DESIGN.md §16); fast-failed ones and their fallback
    /// queries do not count.
    pub revalidations: u64,
    /// Conditional queries answered *unchanged* that re-armed the
    /// expired cached permit.
    pub revalidations_unchanged: u64,
}

/// Everything the soak needs to drive and judge one run.
struct Rig {
    net: SimNet,
    host: Arc<WebStorage>,
    am_a: Arc<AuthorizationManager>,
    am_b: Arc<AuthorizationManager>,
    clients: Vec<RequesterClient>,
    readers: Vec<String>,
    resources: Vec<String>,
}

/// Applies one PAP mutation identically to both AMs (they are mirrors;
/// applying in lockstep also keeps their policy epochs aligned).
fn pap_both<F>(rig: &Rig, f: F)
where
    F: Fn(&mut ucam_am::Account),
{
    rig.am_a.pap(OWNER, &f).expect("owner registered at AM-A");
    rig.am_b.pap(OWNER, &f).expect("owner registered at AM-B");
}

/// Gives both AMs' push channels one delivery round over the (possibly
/// faulty) fabric.
fn pump_pushes(rig: &Rig) {
    rig.am_a.pump_epoch_pushes(&rig.net);
    rig.am_b.pump_epoch_pushes(&rig.net);
}

/// Whether every scheduled epoch push from *either* AM has been
/// delivered. The AMs mutate in lockstep, so their epochs are aligned
/// and one fully-drained channel means the Host holds the newest epoch.
fn pushes_visible(rig: &Rig) -> bool {
    rig.am_a.pending_epoch_pushes() == 0 || rig.am_b.pending_epoch_pushes() == 0
}

/// Drains both push channels to empty on a healthy fabric, advancing the
/// clock through retry backoff as needed.
fn drain_pushes(rig: &Rig) {
    for _ in 0..10_000 {
        pump_pushes(rig);
        if rig.am_a.pending_epoch_pushes() == 0 && rig.am_b.pending_epoch_pushes() == 0 {
            return;
        }
        rig.net.clock().advance_ms(50);
    }
    panic!("push channels failed to drain on a healed fabric");
}

fn build_rig(config: &ChaosConfig) -> Rig {
    let net = SimNet::new();
    net.trace().set_enabled(false);
    let clock = net.clock().clone();

    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am_a = Arc::new(AuthorizationManager::new(AM_A, clock.clone()));
    let am_b = Arc::new(AuthorizationManager::new(AM_B, clock.clone()));
    am_a.set_identity_verifier(idp.verifier());
    am_b.set_identity_verifier(idp.verifier());
    // Epoch propagation is a real network message from here on: every
    // policy change schedules a push to the Host, delivered (and retried)
    // by `pump_pushes` as the run advances. Both AMs compile sieves, but
    // the Host's delegation for the owner names AM-A's secret: AM-B's
    // bodies must all be rejected at the door while its plain epoch
    // params still apply.
    am_a.subscribe_epoch_push(HOST, OWNER);
    am_b.subscribe_epoch_push(HOST, OWNER);
    let host = WebStorage::new(HOST, clock);
    host.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am_a.clone());
    net.register(am_b.clone());
    net.register(host.clone());

    // A small baseline latency plus a periodic spike on the decision
    // edge: every 7th Host→AM-A message stalls. Latency only charges the
    // shared clock, so this shakes TTL/flap alignment without touching
    // delivery.
    net.set_latency(LatencyModel::constant(2).with_spike(HOST, AM_A, 7, 40));

    idp.register_user(OWNER, "pw");
    am_a.register_user(OWNER);
    am_b.register_user(OWNER);
    let assertion = idp.login(OWNER, "pw").unwrap().token;

    // Primary delegation at AM-A; mirrored delegation at AM-B wired in as
    // the Host's fallback for AM-A outages.
    let (delegation_a, token_a) = am_a.establish_delegation(HOST, OWNER).unwrap();
    host.shell().core.set_user_delegation(
        OWNER,
        DelegationConfig {
            am: AM_A.into(),
            host_token: token_a,
            delegation_id: delegation_a.id,
        },
    );
    let (delegation_b, token_b) = am_b.establish_delegation(HOST, OWNER).unwrap();

    // Arm the Host's resilience machinery in one atomic application.
    host.shell().core.set_resilience(
        ResilienceConfig::new()
            .with_fallback_am(
                AM_A,
                DelegationConfig {
                    am: AM_B.into(),
                    host_token: token_b,
                    delegation_id: delegation_b.id,
                },
            )
            .with_breaker(BreakerConfig::default())
            .with_am_retry(RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 10,
                max_backoff_ms: 80,
                jitter_ms: 5,
                seed: config.seed ^ 0x9e37,
                budget_ms: 1_000,
                attempt_timeout_ms: 50,
            })
            .with_stale_grace_ms(config.stale_grace_ms),
    );

    let resources: Vec<String> = (0..config.resources)
        .map(|r| format!("files/{OWNER}/res-{r}.txt"))
        .collect();
    for r in 0..config.resources {
        let path = format!("{OWNER}/res-{r}.txt");
        let resp = net.dispatch(
            &format!("browser:{OWNER}"),
            Request::new(Method::Post, &format!("https://{HOST}/files"))
                .with_param("path", &path)
                .with_param("subject_token", &assertion)
                .with_body(format!("content of {path}")),
        );
        assert!(resp.status.is_success(), "{}", resp.body);
    }

    let rig = Rig {
        net,
        host,
        am_a,
        am_b,
        clients: Vec::new(),
        readers: (0..config.readers).map(|i| format!("reader-{i}")).collect(),
        resources,
    };

    // One group-based read policy, mirrored at both AMs.
    let ttl = config.cache_ttl_ms;
    let n_resources = config.resources;
    pap_both(&rig, |account| {
        account.set_cache_ttl_ms(ttl);
        let id = account.create_policy(
            "readers",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Group("readers".into()))
                        .for_action(Action::Read),
                ),
            ),
        );
        let realm = "everything";
        for r in 0..n_resources {
            account.assign_realm(
                ResourceRef::new(HOST, &format!("files/{OWNER}/res-{r}.txt")),
                realm,
            );
        }
        account.link_general(realm, &id).unwrap();
    });
    // Deliver the setup-time epoch advances before the run starts.
    drain_pushes(&rig);

    let mut rig = rig;
    for (i, reader) in rig.readers.clone().iter().enumerate() {
        idp.register_user(reader, "pw");
        let assertion = idp.login(reader, "pw").unwrap().token;
        let mut client = RequesterClient::new(&format!("requester:{reader}"));
        client.set_subject_token(Some(assertion));
        client.set_resilience(
            ucam_requester::ResilienceConfig::new()
                .with_retry(RetryPolicy {
                    max_attempts: 3,
                    base_backoff_ms: 10,
                    max_backoff_ms: 80,
                    jitter_ms: 5,
                    seed: config.seed ^ (i as u64).wrapping_mul(0x85eb_ca6b),
                    budget_ms: 1_000,
                    attempt_timeout_ms: 50,
                })
                .with_fallback_am(AM_A, AM_B),
        );
        rig.clients.push(client);
    }
    rig
}

/// Clears every injected fault: partitions, flap schedules, burst loss.
fn heal_all(rig: &Rig) {
    rig.net.set_offline(AM_A, false);
    rig.net.set_offline(AM_B, false);
    rig.net.set_flap(AM_A, None);
    rig.net.set_burst_loss(0, 0, 0);
}

/// One reader access judged against ground truth. Returns `true` when
/// the outcome violates soundness (a grant that both `truth_now` and
/// `truth_visible` deny, or — when `exact` — any deviation at all,
/// including fail-closed denials).
#[allow(clippy::too_many_arguments)]
fn judge_access(
    rig: &mut Rig,
    truth_now: &HashSet<String>,
    truth_visible: &HashSet<String>,
    reader_idx: usize,
    resource_idx: usize,
    exact: bool,
    report: &mut ChaosReport,
) -> bool {
    let reader = rig.readers[reader_idx].clone();
    let resource = rig.resources[resource_idx].clone();
    let expected = truth_now.contains(&reader);
    let spec = AccessSpec::read(Url::new(HOST, &format!("/{resource}")));
    let outcome = rig.clients[reader_idx].access(&rig.net, &spec);
    let granted = outcome.is_granted();
    if granted {
        report.granted += 1;
    } else {
        report.denied += 1;
        if expected {
            report.fail_closed += 1;
        }
    }
    if granted && !expected && !truth_visible.contains(&reader) {
        // A grant both tables deny: even an undelivered epoch push cannot
        // excuse it. Unconditional soundness violation.
        return true;
    }
    if exact && granted != expected {
        return true; // Healed network must reproduce ground truth exactly.
    }
    // On a healed network, non-grants must be clean policy denials.
    if exact && !granted && !matches!(outcome, AccessOutcome::Denied(_)) {
        return true;
    }
    false
}

/// Runs the chaos soak. See the [module docs](self).
///
/// # Panics
///
/// Panics when the rig cannot be constructed (zero readers/resources).
#[must_use]
pub fn run(config: &ChaosConfig) -> ChaosReport {
    assert!(config.readers > 0 && config.resources > 0, "need actors");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rig = build_rig(config);
    let mut truth_now: HashSet<String> = HashSet::new();
    let mut truth_visible: HashSet<String> = HashSet::new();
    let mut report = ChaosReport::default();

    for step in 0..config.steps {
        // Time always moves: flap phases rotate, cached permits age
        // toward (and through) their TTL into the grace window.
        rig.net.clock().advance_ms(rng.gen_range(20..=80));
        // Give the push channels their delivery round *before* the step's
        // event: epoch advances travel the same faulty fabric as
        // everything else, and their delivery lag IS the
        // revocation-visibility window.
        pump_pushes(&rig);
        if pushes_visible(&rig) {
            truth_visible.clone_from(&truth_now);
        }
        match rng.gen_range(0..20u32) {
            // Policy churn: grant a reader at both AMs. Churn is kept
            // rare relative to the cache TTL: every delivered epoch push
            // kills the owner's cached permits, and permits that never
            // age past their TTL can never exercise the grace window.
            0 => {
                let reader = rig.readers[rng.gen_range(0..rig.readers.len())].clone();
                pap_both(&rig, |account| {
                    account.add_group_member("readers", &reader);
                });
                truth_now.insert(reader);
                report.grants += 1;
            }
            // Policy churn: revoke a reader at both AMs. Until the epoch
            // push lands at the Host, a cached permit may legitimately
            // keep serving — that gap is measured, not assumed away.
            1 => {
                let reader = rig.readers[rng.gen_range(0..rig.readers.len())].clone();
                pap_both(&rig, |account| {
                    account.remove_group_member("readers", &reader);
                });
                truth_now.remove(&reader);
                report.revocations += 1;
            }
            // Partition the primary AM (fallback AM keeps answering).
            2 => {
                rig.net.set_offline(AM_A, true);
                report.partitions += 1;
            }
            // Full outage: both AMs dark. Only fresh cache hits and the
            // stale-grace degraded mode can still grant.
            3 => {
                rig.net.set_offline(AM_A, true);
                rig.net.set_offline(AM_B, true);
                report.partitions += 1;
            }
            // Flap cycle on the primary: down for the first 120 ms of
            // every 300 ms period, phase drawn per event.
            4 => {
                rig.net.set_flap(
                    AM_A,
                    Some(FlapSchedule {
                        period_ms: 300,
                        down_ms: 120,
                        phase_ms: rng.gen_range(0..300),
                    }),
                );
                report.flaps += 1;
            }
            // Windowed burst loss across the whole fabric.
            5 => {
                rig.net.set_burst_loss(8, 20, config.seed ^ step as u64);
                report.bursts += 1;
            }
            // Heal everything.
            6..=7 => {
                heal_all(&rig);
                report.heals += 1;
            }
            // Access: a random reader reads a random resource.
            _ => {
                let reader_idx = rng.gen_range(0..rig.readers.len());
                let resource_idx = rng.gen_range(0..rig.resources.len());
                report.accesses += 1;
                if judge_access(
                    &mut rig,
                    &truth_now,
                    &truth_visible,
                    reader_idx,
                    resource_idx,
                    false,
                    &mut report,
                ) {
                    report.violations += 1;
                }
            }
        }
    }

    // Heal-and-verify sweep: with every fault cleared, the push channels
    // drained to empty (every revocation visible), and the clock run past
    // the grace window, breaker cooldown and flap period, every
    // (reader, resource) pair must land exactly on ground truth.
    heal_all(&rig);
    drain_pushes(&rig);
    truth_visible.clone_from(&truth_now);
    rig.net
        .clock()
        .advance_ms(config.stale_grace_ms + config.cache_ttl_ms + 10_000);
    for reader_idx in 0..rig.readers.len() {
        for resource_idx in 0..rig.resources.len() {
            report.verified_accesses += 1;
            if judge_access(
                &mut rig,
                &truth_now,
                &truth_visible,
                reader_idx,
                resource_idx,
                true,
                &mut report,
            ) {
                report.violations += 1;
            }
        }
    }

    // Bounded staleness: the Host's high-water gauge must stay inside
    // the configured grace window.
    report.max_served_staleness_ms = rig.host.shell().core.max_served_staleness_ms();
    if report.max_served_staleness_ms > config.stale_grace_ms {
        report.violations += 1;
    }

    let push_a = rig.am_a.epoch_push_stats();
    let push_b = rig.am_b.epoch_push_stats();
    report.pushes_delivered = push_a.delivered + push_b.delivered;
    report.push_retries = push_a.retries + push_b.retries;
    report.revocation_visibility_ms = push_a.max_lag_ms.max(push_b.max_lag_ms);

    report.sieves_pushed = push_a.sieved + push_b.sieved;

    let pep = rig.host.shell().core.stats();
    report.sieve_hits = pep.sieve_hits;
    report.sieve_installs = pep.sieve_installs;
    report.sieve_rejects = pep.sieve_rejects;
    report.stale_served = pep.stale_served;
    report.fallback_queries = pep.fallback_queries;
    report.breaker_fast_fails = pep.breaker_fast_fails;
    report.host_retries = pep.am_retries;
    report.revalidations = pep.revalidations;
    report.revalidations_unchanged = pep.revalidations_unchanged;
    report.requester_retries = rig.clients.iter().map(|c| c.stats().retries).sum();
    report.requester_failovers = rig.clients.iter().map(|c| c.stats().failovers).sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_holds_invariants() {
        // The two-tier edge must be semantically invisible: the same
        // ground-truth tables and the same soundness and staleness
        // invariants hold with every epoch push carrying a sieve.
        let report = run(&ChaosConfig::default());
        assert_eq!(report.violations, 0, "{report:?}");
        assert!(report.accesses >= 1_000, "{report:?}");
        assert!(report.granted > 0, "{report:?}");
        assert!(report.denied > 0, "{report:?}");
        assert!(report.partitions > 0 && report.flaps > 0 && report.bursts > 0);
        // The resilience paths must actually carry load, not just exist.
        assert!(report.fallback_queries > 0, "{report:?}");
        assert!(report.requester_retries > 0, "{report:?}");
        assert!(report.host_retries > 0, "{report:?}");
        // Expired permits were re-armed by conditional queries under
        // the same faults.
        assert!(report.revalidations_unchanged > 0, "{report:?}");
        assert!(
            report.max_served_staleness_ms <= ChaosConfig::default().stale_grace_ms,
            "{report:?}"
        );
        // The epoch push channel carried real traffic over the faulty
        // fabric: every mutation was delivered, some deliveries needed
        // retries, and the visibility window was actually measured.
        assert!(report.pushes_delivered > 0, "{report:?}");
        assert!(report.revocation_visibility_ms > 0, "{report:?}");
        // A permit can outlive a revocation by at most TTL + grace +
        // the measured push lag; the gauge itself stays within grace.
        assert!(
            report.max_served_staleness_ms
                <= ChaosConfig::default().stale_grace_ms + report.revocation_visibility_ms,
            "{report:?}"
        );
        // The sieve actually carried load end to end: pushed, installed,
        // and serving hits.
        assert!(report.sieves_pushed > 0, "{report:?}");
        // Both push counters read one window.
        assert!(
            report.sieves_pushed <= report.pushes_delivered,
            "{report:?}"
        );
        assert!(report.sieve_installs > 0, "{report:?}");
        assert!(report.sieve_hits > 0, "{report:?}");
        // AM-B signs under its own secret, so every one of its bodies is
        // rejected — and its plain epoch params still got applied (the
        // run would violate soundness otherwise).
        assert!(report.sieve_rejects > 0, "{report:?}");
    }

    /// Sixteen seeds at the default shape: zero violations and bounded
    /// staleness on each. The load counters are not asserted — some
    /// seeds see no unchanged re-arm. Release builds only (CI's
    /// `full-verify` runs it); a debug build skips it to keep the
    /// workspace suite quick.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "release only: seconds per seed in a debug build"
    )]
    fn chaos_soak_holds_across_seeds() {
        let grace = ChaosConfig::default().stale_grace_ms;
        for seed in 1..=16 {
            let report = run(&ChaosConfig {
                seed,
                ..ChaosConfig::default()
            });
            assert_eq!(report.violations, 0, "seed {seed}: {report:?}");
            assert!(
                report.max_served_staleness_ms <= grace,
                "seed {seed}: {report:?}"
            );
            assert!(
                report.sieves_pushed <= report.pushes_delivered,
                "seed {seed}: {report:?}"
            );
        }
    }

    #[test]
    fn chaos_soak_is_deterministic_per_seed() {
        let config = ChaosConfig {
            steps: 400,
            seed: 7,
            ..ChaosConfig::default()
        };
        assert_eq!(run(&config), run(&config));
    }

    #[test]
    fn chaos_soak_exercises_degraded_and_failover_paths() {
        // A seed/shape chosen so the rarer paths all fire: stale-grace
        // serving, breaker fast-fails and requester failovers.
        let report = run(&ChaosConfig {
            steps: 3_000,
            seed: 1,
            ..ChaosConfig::default()
        });
        assert_eq!(report.violations, 0, "{report:?}");
        assert!(report.stale_served > 0, "{report:?}");
        assert!(report.breaker_fast_fails > 0, "{report:?}");
        assert!(report.requester_failovers > 0, "{report:?}");
        assert!(report.fail_closed > 0, "{report:?}");
    }
}
