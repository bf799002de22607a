//! Cold-miss-storm harness: what one small policy edit costs the fabric.
//!
//! Every policy edit advances the owner's epoch, and the delivered push
//! purges the owner's cached permits *owner-wide* at the Host — a
//! one-grant edit against an owner with a hundred cached permits turns
//! the next access wave into a hundred cold decision queries (the
//! cold-miss storm). The same push carries the owner's recompiled
//! capability sieve (DESIGN.md §12–13, §16): the bystanders the edit
//! left alone are served from it, and the wave re-queries only the
//! entries the edit actually killed.
//!
//! Two probes, each measured on both transport backends with the same
//! machine-independent [work counts](crate::saturation::WorkCounts)
//! discipline as the saturation harness:
//!
//! * [`run_cold_miss_storm`] — prime N cached permits, make one
//!   single-realm policy edit, deliver the push, then replay the access
//!   wave. With the pushed sieve the wave re-queries only the realm the
//!   edit touched. The epoch-only baseline drops the Host's sieve
//!   before the wave, by re-installing the owner's unchanged
//!   delegation, so its wave is all AM queries.
//! * [`run_revalidation_probe`] — prime N cached permits, let them age
//!   past their TTL with *no* policy change, then replay the wave. The
//!   Host revalidates each expired permit with an `if_epoch` query that
//!   collapses to the tiny *unchanged* reply; the unconditional baseline
//!   flushes the Host's decision cache before the wave, so every query
//!   travels without a precondition. The probe is the live source of
//!   the conditional-vs-unconditional bytes-on-wire gate.

use std::sync::Arc;

use ucam_am::AuthorizationManager;
use ucam_host::{DelegationConfig, WebStorage};
use ucam_policy::{Action, PolicyBody, ResourceRef, Rule, RulePolicy, Subject};
use ucam_requester::{AccessSpec, RequesterClient};
use ucam_webenv::identity::IdentityProvider;
use ucam_webenv::{Method, Request, Transport, Url};

pub use crate::saturation::TransportKind;

/// Host authority of the storm rig.
const HOST: &str = "storage.example";
/// AM authority of the storm rig.
const AM: &str = "am.example";
/// Resource owner.
const OWNER: &str = "bob";
/// The reader whose cached permits the storm replays.
const READER: &str = "reader-0";

/// One cold-miss-storm run's shape.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Which transport backend carries the messages.
    pub transport: TransportKind,
    /// Which row to measure: `true` keeps the sieve the edit's push
    /// installed (`storm_sieve`); `false` drops it before the wave, so
    /// only the owner-wide purge acts (`storm_epoch_only`).
    pub sieve: bool,
    /// Cached permits primed before the edit (≥ 2; one dies with the
    /// edited realm, the rest are bystanders).
    pub resources: usize,
}

/// One measured storm row (`BENCH_PR2.json` row form).
#[derive(Debug, Clone)]
pub struct StormRow {
    /// `storm_epoch_only` / `storm_sieve`, with the transport suffix.
    pub bench: String,
    /// Cached permits primed before the edit.
    pub resources: u64,
    /// Accesses in the measured second wave (= `resources`).
    pub wave_accesses: u64,
    /// Decision queries the second wave sent to the AM — the storm
    /// gauge. Epoch-only purges make this `resources`; the pushed sieve
    /// collapses it to the single edited entry.
    pub am_queries: u64,
    /// Second-wave permits served from the decision cache.
    pub cache_hits: u64,
    /// Second-wave accesses granted by the pushed sieve.
    pub sieve_hits: u64,
    /// Round trips the second wave put on the wire.
    pub wire_rts: u64,
    /// Exact serialized bytes the second wave put on the wire.
    pub bytes_on_wire: u64,
}

impl StormRow {
    /// Renders the row as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"resources\":{},\"wave_accesses\":{},\"am_queries\":{},\
             \"cache_hits\":{},\"sieve_hits\":{},\"wire_rts\":{},\"bytes_on_wire\":{}}}",
            self.bench,
            self.resources,
            self.wave_accesses,
            self.am_queries,
            self.cache_hits,
            self.sieve_hits,
            self.wire_rts,
            self.bytes_on_wire
        )
    }
}

/// One revalidation-probe row (`BENCH_PR2.json` row form).
#[derive(Debug, Clone)]
pub struct RevalRow {
    /// `reval_unconditional` / `reval_conditional`, with the transport
    /// suffix.
    pub bench: String,
    /// Cached permits primed (and TTL-expired) before the wave.
    pub resources: u64,
    /// Decision queries the wave sent to the AM (always `resources`:
    /// conditional queries still travel, they just shrink).
    pub am_queries: u64,
    /// Queries that carried an `if_epoch` precondition.
    pub revalidations: u64,
    /// Conditional queries the AM collapsed to an *unchanged* reply.
    pub revalidations_unchanged: u64,
    /// Round trips the wave put on the wire.
    pub wire_rts: u64,
    /// Exact serialized bytes the wave put on the wire — the gated
    /// column: conditional must beat unconditional strictly.
    pub bytes_on_wire: u64,
}

impl RevalRow {
    /// Renders the row as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"resources\":{},\"am_queries\":{},\"revalidations\":{},\
             \"revalidations_unchanged\":{},\"wire_rts\":{},\"bytes_on_wire\":{}}}",
            self.bench,
            self.resources,
            self.am_queries,
            self.revalidations,
            self.revalidations_unchanged,
            self.wire_rts,
            self.bytes_on_wire
        )
    }
}

/// The assembled rig: one AM, one Host, one reader.
struct Rig {
    net: Arc<dyn Transport>,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    /// The owner's delegation as the Host holds it.
    delegation: DelegationConfig,
    client: RequesterClient,
    resources: usize,
}

/// Builds the rig: `resources` files under two realms — `files/bob/r0`
/// alone in realm `special`, the rest in realm `shared` — each realm
/// linked to its own open-read policy so unlinking `special` kills
/// exactly one cached permit and bumps the epoch once.
fn build_rig(transport: TransportKind, resources: usize) -> Rig {
    assert!(resources >= 2, "need a special resource plus bystanders");
    let net: Arc<dyn Transport> = transport.build();
    net.trace().set_enabled(false);
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am = Arc::new(AuthorizationManager::new(AM, clock.clone()));
    am.set_identity_verifier(idp.verifier());
    am.subscribe_epoch_push(HOST, OWNER);
    let host = WebStorage::new(HOST, clock);
    host.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am.clone());
    net.register(host.clone());

    idp.register_user(OWNER, "pw");
    am.register_user(OWNER);
    let (delegation, host_token) = am.establish_delegation(HOST, OWNER).unwrap();
    let delegation = DelegationConfig {
        am: AM.into(),
        host_token,
        delegation_id: delegation.id,
    };
    host.shell()
        .core
        .set_user_delegation(OWNER, delegation.clone());

    let owner_assertion = idp.login(OWNER, "pw").unwrap().token;
    for r in 0..resources {
        let resp = net.dispatch(
            &format!("browser:{OWNER}"),
            Request::new(Method::Post, &format!("https://{HOST}/files"))
                .with_param("path", &format!("{OWNER}/r{r}.txt"))
                .with_param("subject_token", &owner_assertion)
                .with_body(format!("content {r}")),
        );
        assert!(resp.status.is_success(), "upload failed: {}", resp.body);
    }

    am.pap(OWNER, |account| {
        // Permits live long enough that nothing expires mid-probe; the
        // revalidation probe overrides this with a short TTL.
        account.set_cache_ttl_ms(600_000);
        for (realm, range) in [("special", 0..1), ("shared", 1..resources)] {
            let policy = account.create_policy(
                &format!("open-read-{realm}"),
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Authenticated)
                            .for_action(Action::Read),
                    ),
                ),
            );
            for r in range {
                account.assign_realm(
                    ResourceRef::new(HOST, &format!("files/{OWNER}/r{r}.txt")),
                    realm,
                );
            }
            account.link_general(realm, &policy).unwrap();
        }
    })
    .unwrap();
    drain_pushes(&am, net.as_ref());

    idp.register_user(READER, "pw");
    let assertion = idp.login(READER, "pw").unwrap().token;
    let mut client = RequesterClient::new(&format!("requester:{READER}"));
    client.set_subject_token(Some(assertion));

    Rig {
        net,
        am,
        host,
        delegation,
        client,
        resources,
    }
}

/// Drains the AM's push channel to empty on the healthy fabric.
fn drain_pushes(am: &AuthorizationManager, net: &dyn Transport) {
    for _ in 0..1_000 {
        am.pump_epoch_pushes(net);
        if am.pending_epoch_pushes() == 0 {
            return;
        }
        net.clock().advance_ms(50);
    }
    panic!("pushes failed to drain on a healthy fabric");
}

fn spec_for(r: usize) -> AccessSpec {
    AccessSpec::read(Url::new(HOST, &format!("/files/{OWNER}/r{r}.txt")))
}

/// Primes one cached permit per resource (every access must be granted).
fn prime(rig: &mut Rig) {
    for r in 0..rig.resources {
        let outcome = rig.client.access(rig.net.as_ref(), &spec_for(r));
        assert!(outcome.is_granted(), "priming r{r} denied: {outcome:?}");
    }
}

/// Runs the cold-miss-storm probe: prime, edit one realm, deliver the
/// push, replay the wave. See the [module docs](self).
///
/// # Panics
///
/// Panics when the rig misbehaves: a priming access denied, the edited
/// resource still granted after the push, or a bystander denied.
#[must_use]
pub fn run_cold_miss_storm(config: &StormConfig) -> StormRow {
    let mut rig = build_rig(config.transport, config.resources);
    prime(&mut rig);

    // The single-grant edit: unlink the `special` realm's policy. One
    // epoch bump; exactly one primed permit (r0) stops holding.
    rig.am
        .pap(OWNER, |account| {
            account.unlink_general("special").expect("realm linked");
        })
        .unwrap();
    drain_pushes(&rig.am, rig.net.as_ref());
    if !config.sieve {
        // The epoch-only baseline: re-installing the unchanged
        // delegation purges the owner's sieve, leaving the purge alone.
        rig.host
            .shell()
            .core
            .set_user_delegation(OWNER, rig.delegation.clone());
    }
    rig.net.reset_stats();
    rig.host.shell().core.reset_stats();

    // The second access wave: r0 must now be denied, every bystander
    // still granted.
    for r in 0..rig.resources {
        let outcome = rig.client.access(rig.net.as_ref(), &spec_for(r));
        if r == 0 {
            assert!(!outcome.is_granted(), "edited r0 still granted");
        } else {
            assert!(outcome.is_granted(), "bystander r{r} denied: {outcome:?}");
        }
    }

    let pep = rig.host.shell().core.stats();
    let net_stats = rig.net.stats();
    StormRow {
        bench: format!(
            "storm_{}{}",
            if config.sieve { "sieve" } else { "epoch_only" },
            config.transport.bench_suffix()
        ),
        resources: rig.resources as u64,
        wave_accesses: rig.resources as u64,
        am_queries: pep.am_queries,
        cache_hits: pep.cache_hits,
        sieve_hits: pep.sieve_hits,
        wire_rts: net_stats.round_trips,
        bytes_on_wire: net_stats.bytes_on_wire,
    }
}

/// Runs the revalidation probe: prime under a short TTL, age every
/// permit past it with no policy change, replay the wave. Unless
/// `conditional` is set, the Host's decision cache is flushed before
/// the wave, so no query carries `if_epoch`. See the
/// [module docs](self).
///
/// # Panics
///
/// Panics when any access is denied, or when `conditional` is set and
/// any second-wave query failed to collapse to an *unchanged* reply.
#[must_use]
pub fn run_revalidation_probe(transport: TransportKind, conditional: bool) -> RevalRow {
    const RESOURCES: usize = 24;
    const TTL_MS: u64 = 1_000;
    let mut rig = build_rig(transport, RESOURCES);
    rig.am
        .pap(OWNER, |account| account.set_cache_ttl_ms(TTL_MS))
        .unwrap();
    drain_pushes(&rig.am, rig.net.as_ref());
    prime(&mut rig);

    // Everything expires; nothing changed policy-side.
    rig.net.clock().advance_ms(TTL_MS + 10);
    if !conditional {
        rig.host.shell().core.flush_decision_cache();
    }
    rig.net.reset_stats();
    rig.host.shell().core.reset_stats();

    for r in 0..RESOURCES {
        let outcome = rig.client.access(rig.net.as_ref(), &spec_for(r));
        assert!(
            outcome.is_granted(),
            "revalidation r{r} denied: {outcome:?}"
        );
    }

    let pep = rig.host.shell().core.stats();
    let net_stats = rig.net.stats();
    if conditional {
        assert_eq!(
            pep.revalidations_unchanged, RESOURCES as u64,
            "every conditional query must collapse to unchanged"
        );
    }
    RevalRow {
        bench: format!(
            "reval_{}{}",
            if conditional {
                "conditional"
            } else {
                "unconditional"
            },
            transport.bench_suffix()
        ),
        resources: RESOURCES as u64,
        am_queries: pep.am_queries,
        revalidations: pep.revalidations,
        revalidations_unchanged: pep.revalidations_unchanged,
        wire_rts: net_stats.round_trips,
        bytes_on_wire: net_stats.bytes_on_wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RESOURCES: usize = 120;

    #[test]
    fn sieve_push_cuts_the_cold_miss_storm() {
        // EXPERIMENTS.md E17: after a single-grant edit against an owner
        // with ≥100 cached permits, the next wave's AM decision queries
        // drop ≥90% versus the epoch-bump-only purge.
        let epoch_only = run_cold_miss_storm(&StormConfig {
            transport: TransportKind::Sim,
            sieve: false,
            resources: RESOURCES,
        });
        let sieve = run_cold_miss_storm(&StormConfig {
            transport: TransportKind::Sim,
            sieve: true,
            resources: RESOURCES,
        });

        // Epoch-only: the purge costs the whole wave.
        assert_eq!(epoch_only.am_queries, RESOURCES as u64, "{epoch_only:?}");
        assert_eq!(epoch_only.cache_hits, 0, "{epoch_only:?}");
        assert_eq!(epoch_only.sieve_hits, 0, "{epoch_only:?}");

        // Sieve: only the edited entry re-queries; the pushed sieve
        // serves every bystander.
        assert_eq!(sieve.am_queries, 1, "{sieve:?}");
        assert_eq!(sieve.cache_hits, 0, "{sieve:?}");
        assert_eq!(sieve.sieve_hits, RESOURCES as u64 - 1, "{sieve:?}");

        assert!(
            sieve.am_queries * 10 <= epoch_only.am_queries,
            "storm cut below 90%: {} vs {}",
            sieve.am_queries,
            epoch_only.am_queries
        );
        assert!(
            sieve.bytes_on_wire < epoch_only.bytes_on_wire,
            "{sieve:?} vs {epoch_only:?}"
        );
    }

    #[test]
    fn storm_work_counts_are_identical_across_transports() {
        for sieve in [false, true] {
            let run = |transport| {
                run_cold_miss_storm(&StormConfig {
                    transport,
                    sieve,
                    resources: RESOURCES,
                })
            };
            let (sim, http) = (run(TransportKind::Sim), run(TransportKind::Http));
            assert_eq!(sim.am_queries, http.am_queries);
            assert_eq!(sim.cache_hits, http.cache_hits);
            assert_eq!(sim.sieve_hits, http.sieve_hits);
            assert_eq!(sim.wire_rts, http.wire_rts);
            assert_eq!(sim.bytes_on_wire, http.bytes_on_wire);
            assert!(sim.bytes_on_wire > 0, "bytes_on_wire not counted");
        }
    }

    #[test]
    fn conditional_revalidation_saves_bytes_on_the_wire() {
        let unconditional = run_revalidation_probe(TransportKind::Sim, false);
        let conditional = run_revalidation_probe(TransportKind::Sim, true);

        // Same number of queries travel either way — the saving is size,
        // not count.
        assert_eq!(unconditional.am_queries, conditional.am_queries);
        assert_eq!(unconditional.revalidations, 0, "{unconditional:?}");
        assert_eq!(
            conditional.revalidations_unchanged, conditional.resources,
            "{conditional:?}"
        );
        // The gated column: the conditional exchange must be strictly
        // smaller, request overhead included.
        assert!(
            conditional.bytes_on_wire < unconditional.bytes_on_wire,
            "{conditional:?} vs {unconditional:?}"
        );
    }

    #[test]
    fn revalidation_work_counts_are_identical_across_transports() {
        for conditional in [false, true] {
            let sim = run_revalidation_probe(TransportKind::Sim, conditional);
            let http = run_revalidation_probe(TransportKind::Http, conditional);
            assert_eq!(sim.am_queries, http.am_queries);
            assert_eq!(sim.revalidations, http.revalidations);
            assert_eq!(sim.revalidations_unchanged, http.revalidations_unchanged);
            assert_eq!(sim.wire_rts, http.wire_rts);
            assert_eq!(sim.bytes_on_wire, http.bytes_on_wire);
        }
    }

    #[test]
    fn storm_rows_render_as_json() {
        let row = run_cold_miss_storm(&StormConfig {
            transport: TransportKind::Sim,
            sieve: true,
            resources: 8,
        });
        let json = row.to_json();
        assert!(json.contains("\"bench\":\"storm_sieve\""), "{json}");
        assert!(json.contains("\"resources\":8"), "{json}");
        let reval = run_revalidation_probe(TransportKind::Sim, true).to_json();
        assert!(reval.contains("\"bench\":\"reval_conditional\""), "{reval}");
    }
}
