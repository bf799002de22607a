//! Transport-conformance suite: every protocol scenario must produce
//! identical outcomes over the deterministic in-process fabric
//! (`SimNet`) and the loopback-HTTP backend (`HttpTransport`).
//!
//! The transport is an implementation detail of the message edge
//! (DESIGN.md §14): decisions, 401/403 sequencing, epoch visibility,
//! sieve install/reject, and failure classification are protocol
//! properties and may not depend on whether a message crossed a function
//! call or a TCP socket. Each test here runs one scenario over both
//! backends and diffs the outcome logs line for line.
//!
//! Fault injection is backend-specific — `SimNet` flips a partition
//! bit, `HttpTransport` kills or stalls a real listener — but the
//! *observable classification* (`x-error-kind: unreachable` / `timeout`)
//! must be the same, so the resilience layers above (retry, breaker,
//! fallback AM, stale grace) behave identically on both.

use std::sync::Arc;

use ucam::am::AuthorizationManager;
use ucam::crypto::SigningKey;
use ucam::host::{
    AccessAttempt, BreakerConfig, DelegationConfig, Enforcement, ResilienceConfig, WebPics,
};
use ucam::policy::prelude::*;
use ucam::requester::{
    AccessOutcome, AccessSpec, BatchAuthorize, PreAuthorization, RequesterClient,
};
use ucam::sim::world::{World, AM, HOSTS};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::{HttpTransport, Method, Request, SimNet, Status, Transport, Url, WebApp};

/// Client-side socket timeout for the HTTP backend. Short, so
/// hung-listener scenarios resolve in well under a second of real time;
/// generous enough that a healthy loopback round trip never trips it.
const HTTP_TIMEOUT_MS: u64 = 400;

fn backends() -> [Arc<dyn Transport>; 2] {
    let http = HttpTransport::new();
    http.set_client_timeout_ms(HTTP_TIMEOUT_MS);
    [Arc::new(SimNet::new()), Arc::new(http)]
}

/// Runs `scenario` over both backends, asserts the outcome logs are
/// identical line for line, and returns the (shared) log so callers can
/// pin it against a golden expectation — conformance alone would also
/// pass if a scenario were equally broken on both backends.
///
/// Beyond the outcome log, the two backends must agree bit-exactly on
/// `bytes_on_wire`: `SimNet` computes the canonical HTTP/1.1 framing
/// arithmetically (`webenv::codec`), `HttpTransport` moves those
/// literal bytes over loopback TCP, and failed round trips contribute
/// zero on both. Token material is random per run, but every token is
/// length-deterministic, so the serialized byte count of a scenario is
/// a protocol property — any divergence means one backend framed,
/// retried, or counted a message the other did not.
fn assert_conformance(scenario: impl Fn(Arc<dyn Transport>) -> Vec<String>) -> Vec<String> {
    let [sim, http] = backends();
    let sim_log = scenario(sim.clone());
    let http_log = scenario(http.clone());
    eprintln!("--- outcome log ---\n{}", sim_log.join("\n"));
    assert!(!sim_log.is_empty(), "scenario produced no observations");
    assert_eq!(
        sim_log, http_log,
        "protocol outcomes diverged between SimNet and HttpTransport"
    );
    let (sim_stats, http_stats) = (sim.stats(), http.stats());
    assert!(
        sim_stats.bytes_on_wire > 0,
        "scenario moved no bytes over the wire"
    );
    assert_eq!(
        sim_stats.bytes_on_wire, http_stats.bytes_on_wire,
        "bytes_on_wire diverged between SimNet ({} round trips) and \
         HttpTransport ({} round trips)",
        sim_stats.round_trips, http_stats.round_trips
    );
    sim_log
}

fn label(outcome: &AccessOutcome) -> String {
    match outcome {
        AccessOutcome::Granted(_) => "granted".into(),
        AccessOutcome::Denied(_) => "denied".into(),
        AccessOutcome::Failed(resp) => {
            format!(
                "failed({} {:?})",
                resp.status.code(),
                resp.transport_error()
            )
        }
        AccessOutcome::PendingConsent { .. } => "pending-consent".into(),
        AccessOutcome::NeedsClaims(_) => "needs-claims".into(),
    }
}

fn enforcement_label(e: &Enforcement) -> String {
    match e {
        Enforcement::Grant => "grant".into(),
        Enforcement::Block(resp) => format!("block({})", resp.status.code()),
    }
}

/// Partitions `authority` away: a simulated outage on `SimNet`, a killed
/// listener (the kernel then refuses connects) on `HttpTransport`.
fn make_unreachable(net: &dyn Transport, authority: &str) {
    if let Some(sim) = net.as_any().downcast_ref::<SimNet>() {
        sim.set_offline(authority, true);
    } else if let Some(http) = net.as_any().downcast_ref::<HttpTransport>() {
        http.kill_listener(authority);
    } else {
        panic!("unknown transport backend {}", net.name());
    }
}

/// Heals the partition. On HTTP the application is registered again,
/// which binds a fresh listener on a new port — recovery must not
/// depend on the old address coming back.
fn heal(net: &dyn Transport, app: Arc<dyn WebApp>) {
    if let Some(sim) = net.as_any().downcast_ref::<SimNet>() {
        sim.set_offline(app.authority(), false);
    } else {
        net.register(app);
    }
}

/// Makes the named authority accept messages but never answer them:
/// total message loss on `SimNet`, stalled handlers on `HttpTransport`.
/// Both must classify as a `timeout`.
fn make_hang(net: &dyn Transport, authority: &str) {
    if let Some(sim) = net.as_any().downcast_ref::<SimNet>() {
        sim.set_loss_every(1, 0);
    } else if let Some(http) = net.as_any().downcast_ref::<HttpTransport>() {
        http.set_stall(authority, true);
    } else {
        panic!("unknown transport backend {}", net.name());
    }
}

fn clear_hang(net: &dyn Transport, authority: &str) {
    if let Some(sim) = net.as_any().downcast_ref::<SimNet>() {
        sim.set_loss_every(0, 0);
    } else if let Some(http) = net.as_any().downcast_ref::<HttpTransport>() {
        http.set_stall(authority, false);
    }
}

/// Drains the AM's pending epoch/sieve pushes over the transport under
/// test, advancing the shared clock through retry backoff.
fn drain_pushes(world: &World) -> bool {
    for _ in 0..1_000 {
        world.am.pump_epoch_pushes(world.net.as_ref());
        if world.am.pending_epoch_pushes() == 0 {
            return true;
        }
        world.net.clock().advance_ms(50);
    }
    false
}

fn shared_world(net: Arc<dyn Transport>) -> World {
    let mut world = World::bootstrap_on(net);
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world.share_with_friends("bob", &["alice"]);
    world
}

#[test]
fn full_protocol_flow_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let mut world = shared_world(net);
        let mut log = Vec::new();
        // Phases 1–6 end to end: alice reads from all three hosts.
        for (host, path) in [
            (HOSTS[0], "/photos/rome/photo-0"),
            (HOSTS[1], "/files/trips/file-0.txt"),
            (HOSTS[2], "/docs/trips/report-0"),
        ] {
            let outcome = world.friend_reads("alice", host, path);
            log.push(format!("alice {host}{path}: {}", label(&outcome)));
        }
        // A stranger runs the same phases and is denied.
        let outcome = world.friend_reads("chris", HOSTS[0], "/photos/rome/photo-0");
        log.push(format!("stranger: {}", label(&outcome)));
        // The policy grants read/list only; the write-mapped route denies.
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0/rotate");
        log.push(format!("write: {}", label(&outcome)));
        // The warm path costs exactly one wire round trip on either
        // backend — the cross-transport work-count invariant.
        world.net.reset_stats();
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        log.push(format!(
            "warm: {} in {} round trips",
            label(&outcome),
            world.net.stats().round_trips
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "alice webpics.example/photos/rome/photo-0: granted",
            "alice webstorage.example/files/trips/file-0.txt: granted",
            "alice webdocs.example/docs/trips/report-0: granted",
            "stranger: denied",
            "write: denied",
            "warm: granted in 1 round trips",
        ]
    );
}

#[test]
fn error_status_sequencing_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let mut world = shared_world(net);
        let mut log = Vec::new();
        let resource = "https://webpics.example/photos/rome/photo-0";
        // Token-less access: the PEP challenges/redirects, never serves.
        let resp = world.net.dispatch(
            "requester:probe",
            Request::new(Method::Get, resource).with_header("x-requester", "requester:probe"),
        );
        log.push(format!("bare: {}", resp.status.code()));
        // A forged bearer token is a 401.
        let forged = SigningKey::generate().seal(b"kind=authz;res=albums/rome/photo-0");
        let resp = world.net.dispatch(
            "requester:probe",
            Request::new(Method::Get, resource)
                .with_header("x-requester", "requester:probe")
                .with_bearer(&forged),
        );
        log.push(format!("forged: {}", resp.status.code()));
        // The legitimate sequence: authorize at the AM (Fig. 5), then
        // access with the minted token (Fig. 6).
        let subject_token = world.assertion("alice");
        let authorize = Url::new(AM, "/authorize")
            .with_query("host", HOSTS[0])
            .with_query("owner", "bob")
            .with_query("resource", "albums/rome/photo-0")
            .with_query("requester", "requester:alice-agent")
            .with_query("subject_token", &subject_token);
        let resp = world.net.dispatch(
            "requester:alice-agent",
            Request::to_url(Method::Get, authorize),
        );
        log.push(format!("authorize: {}", resp.status.code()));
        let token = resp.body.clone();
        let resp = world.net.dispatch(
            "requester:alice-agent",
            Request::new(Method::Get, resource)
                .with_header("x-requester", "requester:alice-agent")
                .with_bearer(&token),
        );
        log.push(format!("authorized read: {}", resp.status.code()));
        // The same token presented by a different requester violates the
        // §V.B.3 binding: 401, on either wire.
        let resp = world.net.dispatch(
            "requester:mallory",
            Request::new(Method::Get, resource)
                .with_header("x-requester", "requester:mallory")
                .with_bearer(&token),
        );
        log.push(format!("stolen token: {}", resp.status.code()));
        log
    });
    assert_eq!(
        log,
        vec![
            "bare: 302",
            "forged: 401",
            "authorize: 200",
            "authorized read: 200",
            "stolen token: 401",
        ]
    );
}

#[test]
fn batched_decisions_are_transport_agnostic() {
    let log = assert_conformance(|net| {
        let mut world = shared_world(net);
        // Mint alice's token for photo-0 directly.
        let subject_token = world.assertion("alice");
        let authorize = Url::new(AM, "/authorize")
            .with_query("host", HOSTS[0])
            .with_query("owner", "bob")
            .with_query("resource", "albums/rome/photo-0")
            .with_query("requester", "requester:alice-agent")
            .with_query("subject_token", &subject_token);
        let resp = world.net.dispatch(
            "requester:alice-agent",
            Request::to_url(Method::Get, authorize),
        );
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        let token = resp.body.clone();

        let attempt = |resource: &str, action: Action, bearer: Option<&str>| AccessAttempt {
            requester: "requester:alice-agent".into(),
            subject: None,
            resource_id: resource.into(),
            action,
            bearer: bearer.map(str::to_owned),
            return_url: Url::new(HOSTS[0], "/photos/rome/photo-0"),
        };
        let attempts = vec![
            attempt("albums/rome/photo-0", Action::Read, Some(&token)),
            // Same token, write action: the policy only grants read/list.
            attempt("albums/rome/photo-0", Action::Write, Some(&token)),
            // Token bound to a different resource: the mismatched bearer
            // is ignored and a fresh AM query decides (the sharing policy
            // covers the whole album tree, so this is a grant).
            attempt("album-meta/rome", Action::Read, Some(&token)),
            // No token at all: redirected into the authorization flow.
            attempt("albums/rome/photo-0", Action::Read, None),
        ];
        let core = &world.pics.shell().core;
        core.reset_stats();
        let batched: Vec<String> = core
            .enforce_batch(world.net.as_ref(), &attempts, 8)
            .iter()
            .map(enforcement_label)
            .collect();
        let stats = core.stats();
        vec![
            format!("batch: {}", batched.join(", ")),
            format!(
                "work: {} am queries, {} batch flushes",
                stats.am_queries, stats.batch_flushes
            ),
        ]
    });
    assert_eq!(
        log,
        vec![
            "batch: grant, block(403), grant, block(302)",
            // Three of the four attempts need an AM decision; batching
            // collapses them into one wire query, flushed once.
            "work: 1 am queries, 1 batch flushes",
        ]
    );
}

#[test]
fn epoch_push_revocation_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let mut world = shared_world(net);
        // Harness wiring: the hosts subscribe to Bob's asynchronous
        // epoch pushes over the transport under test.
        for host in HOSTS {
            world.am.subscribe_epoch_push(host, "bob");
        }
        let mut log = Vec::new();
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        log.push(format!("prime: {}", label(&outcome)));
        // Bob deletes the sharing policy; the AM queues fresh epochs for
        // every subscribed host.
        world
            .am
            .pap("bob", |account| {
                let ids: Vec<_> = account
                    .list_policies()
                    .iter()
                    .map(|p| p.id.clone())
                    .collect();
                for id in ids {
                    account.delete_policy(&id).unwrap();
                }
            })
            .unwrap();
        log.push(format!(
            "pushes pending: {}, drained: {}",
            world.am.pending_epoch_pushes(),
            drain_pushes(&world)
        ));
        // The pushed epoch invalidated the cached permit: the next access
        // re-queries the AM and is denied — no TTL wait, on either wire.
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        log.push(format!("after revocation: {}", label(&outcome)));
        log
    });
    assert_eq!(
        log,
        vec![
            "prime: granted",
            "pushes pending: 3, drained: true",
            "after revocation: denied",
        ]
    );
}

#[test]
fn sieve_install_and_reject_are_transport_agnostic() {
    let log = assert_conformance(|net| {
        // The compiler replays every token the AM issued, alice's
        // included.
        let mut world = World::bootstrap_on(net);
        for host in HOSTS {
            world.am.subscribe_epoch_push(host, "bob");
        }
        world.upload_content(1);
        world.delegate_all_hosts("bob");
        world.share_with_friends("bob", &["alice"]);
        let mut log = Vec::new();
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        log.push(format!("prime: {}", label(&outcome)));
        // The AM compiles and pushes capability sieves to its hosts.
        world.am.schedule_sieve_refresh();
        log.push(format!("sieve pushed: {}", drain_pushes(&world)));
        // With the sieve installed, the warm access is served by the
        // tier-1 snapshot: no decision cache, no AM query.
        let core = &world.pics.shell().core;
        core.flush_decision_cache();
        core.reset_stats();
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        let stats = world.pics.shell().core.stats();
        log.push(format!(
            "sieve-served: {} ({} sieve hits, {} am queries)",
            label(&outcome),
            stats.sieve_hits,
            stats.am_queries
        ));
        // A foreign sieve — well-formed but signed under a key the host
        // never shared — is dropped fail-closed over the wire.
        let forged = ucam::webenv::protocol::SieveBody::build(
            "bob",
            2,
            Vec::new(),
            &ucam::crypto::HmacKey::new(b"not-the-host-token"),
        );
        let resp = world.net.dispatch(
            AM,
            Request::new(
                Method::Post,
                &format!(
                    "https://{}{}",
                    HOSTS[0],
                    ucam::webenv::protocol::EPOCH_PUSH_PATH
                ),
            )
            .with_param("owner", "bob")
            .with_param("epoch", "2")
            .with_body(forged.to_json()),
        );
        let stats = world.pics.shell().core.stats();
        log.push(format!(
            "foreign sieve: {} ({} installed, {} rejected)",
            resp.status.code(),
            stats.sieve_installs,
            stats.sieve_rejects
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "prime: granted",
            "sieve pushed: true",
            "sieve-served: granted (1 sieve hits, 0 am queries)",
            "foreign sieve: 200 (0 installed, 1 rejected)",
        ]
    );
}

#[test]
fn failure_classification_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let world = World::bootstrap_on(net.clone());
        let mut log = Vec::new();
        let probe = || Request::new(Method::Get, &format!("https://{AM}/authorize"));
        let observe = |tag: &str, resp: ucam::webenv::Response| {
            format!("{tag}: {} {:?}", resp.status.code(), resp.transport_error())
        };
        // Healthy: the application answers (an error status, but an
        // *application* answer — no transport classification).
        log.push(observe("healthy", world.net.dispatch("probe", probe())));
        // Dead listener / partition: immediate, classified unreachable.
        make_unreachable(net.as_ref(), AM);
        log.push(observe("dead", world.net.dispatch("probe", probe())));
        // Healing brings the authority back (on HTTP: a fresh listener
        // on a fresh port).
        heal(net.as_ref(), world.am.clone());
        log.push(observe("healed", world.net.dispatch("probe", probe())));
        // Hung listener / total loss: the caller waits it out — timeout.
        make_hang(net.as_ref(), AM);
        log.push(observe("hung", world.net.dispatch("probe", probe())));
        clear_hang(net.as_ref(), AM);
        log.push(observe("recovered", world.net.dispatch("probe", probe())));
        // An authority nobody ever registered: unreachable.
        log.push(observe(
            "unknown",
            world.net.dispatch(
                "probe",
                Request::new(Method::Get, "https://nowhere.example/x"),
            ),
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "healthy: 400 None",
            "dead: 503 Some(Unreachable)",
            "healed: 400 None",
            "hung: 503 Some(Timeout)",
            "recovered: 400 None",
            "unknown: 503 Some(Unreachable)",
        ]
    );
}

// ---------------------------------------------------------------------
// Resilience parity: the breaker, fallback-AM failover and stale-grace
// layers consume the transport-failure classification. Against killed
// and hung real listeners they must behave exactly as they do against
// simulated partitions.
// ---------------------------------------------------------------------

/// A transport-generic two-AM rig (mirrors `tests/multi_am.rs`).
struct TwoAmRig {
    net: Arc<dyn Transport>,
    pics: Arc<WebPics>,
    am_a: Arc<AuthorizationManager>,
    am_b: Arc<AuthorizationManager>,
    idp: Arc<IdentityProvider>,
}

fn rig_on(net: Arc<dyn Transport>) -> TwoAmRig {
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am_a = Arc::new(AuthorizationManager::new("am-a.example", clock.clone()));
    let am_b = Arc::new(AuthorizationManager::new("am-b.example", clock.clone()));
    let pics = WebPics::new("pics.example", clock);
    for user in ["bob", "alice"] {
        idp.register_user(user, "pw");
        am_a.register_user(user);
        am_b.register_user(user);
    }
    am_a.set_identity_verifier(idp.verifier());
    am_b.set_identity_verifier(idp.verifier());
    pics.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am_a.clone());
    net.register(am_b.clone());
    net.register(pics.clone());

    let token = idp.login("bob", "pw").unwrap().token;
    net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://pics.example/albums")
            .with_param("name", "rome")
            .with_param("subject_token", &token),
    );
    let image = ucam::host::Image::gradient(4, 4);
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://pics.example/photos")
            .with_param("album", "rome")
            .with_param("id", "p1")
            .with_param("subject_token", &token)
            .with_body(ucam::crypto::base64url_encode(&image.to_bytes())),
    );
    assert_eq!(resp.status, Status::Created, "{}", resp.body);

    let (delegation, host_token) = am_a.establish_delegation("pics.example", "bob").unwrap();
    pics.shell().core.set_user_delegation(
        "bob",
        DelegationConfig {
            am: "am-a.example".into(),
            host_token,
            delegation_id: delegation.id,
        },
    );
    TwoAmRig {
        net,
        pics,
        am_a,
        am_b,
        idp,
    }
}

fn permit_alice(am: &AuthorizationManager, resource_id: &str) {
    am.pap("bob", |account| {
        let id = account.create_policy(
            "alice-read",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::User("alice".into()))
                        .for_action(Action::Read),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new("pics.example", resource_id), &id)
            .unwrap();
    })
    .unwrap();
}

fn alice_client(rig: &TwoAmRig) -> RequesterClient {
    let assertion = rig.idp.login("alice", "pw").unwrap().token;
    let mut client = RequesterClient::new("requester:alice-agent");
    client.set_subject_token(Some(assertion));
    client
}

fn alice_reads(rig: &TwoAmRig, client: &mut RequesterClient) -> AccessOutcome {
    client.access(
        rig.net.as_ref(),
        &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
    )
}

#[test]
fn fallback_am_failover_works_against_dead_listeners() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        permit_alice(&rig.am_b, "albums/rome/p1");
        let (delegation_b, token_b) = rig
            .am_b
            .establish_delegation("pics.example", "bob")
            .unwrap();
        rig.pics
            .shell()
            .core
            .set_resilience(ResilienceConfig::new().with_fallback_am(
                "am-a.example",
                DelegationConfig {
                    am: "am-b.example".into(),
                    host_token: token_b,
                    delegation_id: delegation_b.id,
                },
            ));

        // The primary AM dies before alice ever authorizes.
        make_unreachable(net.as_ref(), "am-a.example");
        let mut client = alice_client(&rig);
        client.set_resilience(
            ucam::requester::ResilienceConfig::new()
                .with_fallback_am("am-a.example", "am-b.example"),
        );
        let outcome = alice_reads(&rig, &mut client);
        let mut log = vec![format!(
            "failover: {} ({} requester failovers, {} host fallback queries)",
            label(&outcome),
            client.stats().failovers,
            rig.pics.shell().core.stats().fallback_queries
        )];

        // Back online, the primary serves natively again.
        heal(net.as_ref(), rig.am_a.clone());
        let mut native = alice_client(&rig);
        native.set_resilience(
            ucam::requester::ResilienceConfig::new()
                .with_fallback_am("am-a.example", "am-b.example"),
        );
        let outcome = alice_reads(&rig, &mut native);
        log.push(format!(
            "healed: {} ({} failovers)",
            label(&outcome),
            native.stats().failovers
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "failover: granted (1 requester failovers, 1 host fallback queries)",
            "healed: granted (0 failovers)",
        ]
    );
}

#[test]
fn breaker_trips_identically_against_dead_listeners() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        rig.pics.shell().core.set_decision_cache_capacity(0);
        rig.pics
            .shell()
            .core
            .set_resilience(ResilienceConfig::new().with_breaker(BreakerConfig::default()));
        let mut client = alice_client(&rig);
        let mut log = vec![format!("prime: {}", label(&alice_reads(&rig, &mut client)))];

        // The AM dies. Consecutive transport failures open the circuit;
        // once open, the host answers 503 without dispatching.
        make_unreachable(net.as_ref(), "am-a.example");
        for i in 0..5 {
            let outcome = alice_reads(&rig, &mut client);
            log.push(format!("dark {i}: {}", label(&outcome)));
        }
        log.push(format!(
            "breaker fast-fails: {}",
            rig.pics.shell().core.stats().breaker_fast_fails
        ));

        // Heal and wait out the cooldown: the half-open probe closes the
        // circuit and service resumes.
        heal(net.as_ref(), rig.am_a.clone());
        rig.net
            .clock()
            .advance_ms(BreakerConfig::default().cooldown_ms + 1);
        log.push(format!(
            "recovered: {}",
            label(&alice_reads(&rig, &mut client))
        ));
        log
    });
    // 5 dark reads: 3 real transport failures trip the breaker
    // (failure_threshold), the remaining 2 fast-fail without touching
    // the wire — identically on both backends.
    assert_eq!(
        log,
        vec![
            "prime: granted",
            "dark 0: failed(503 None)",
            "dark 1: failed(503 None)",
            "dark 2: failed(503 None)",
            "dark 3: failed(503 None)",
            "dark 4: failed(503 None)",
            "breaker fast-fails: 2",
            "recovered: granted",
        ]
    );
}

#[test]
fn stale_grace_serves_identically_against_dead_listeners() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        rig.pics
            .shell()
            .core
            .set_resilience(ResilienceConfig::new().with_stale_grace_ms(120_000));
        let mut client = alice_client(&rig);
        let mut log = vec![format!("prime: {}", label(&alice_reads(&rig, &mut client)))];

        // The cached permit expires, then the AM dies. Within the grace
        // window the expired permit still serves.
        rig.net.clock().advance_ms(61_000);
        make_unreachable(net.as_ref(), "am-a.example");
        let outcome = alice_reads(&rig, &mut client);
        log.push(format!(
            "stale-grace: {} ({} stale served)",
            label(&outcome),
            rig.pics.shell().core.stats().stale_served
        ));

        // Past the window: fail closed.
        rig.net.clock().advance_ms(150_000);
        let outcome = alice_reads(&rig, &mut client);
        log.push(format!("past window: {}", label(&outcome)));

        // Healing restores normal service.
        heal(net.as_ref(), rig.am_a.clone());
        let outcome = alice_reads(&rig, &mut client);
        log.push(format!("healed: {}", label(&outcome)));
        log
    });
    assert_eq!(
        log,
        vec![
            "prime: granted",
            "stale-grace: granted (1 stale served)",
            "past window: failed(503 None)",
            "healed: granted",
        ]
    );
}

// ---------------------------------------------------------------------
// Protocol v2 parity (DESIGN.md §16): conditional decision queries,
// sieve push after an edit, batch authorize, and the dynamic
// registration lifecycle must produce identical outcomes on both
// backends — including fail-closed handling of malformed v2 bodies.
// ---------------------------------------------------------------------

use ucam::webenv::protocol;

/// Drains one AM's push channel over the transport under test.
fn drain_am_pushes(net: &dyn Transport, am: &AuthorizationManager) -> bool {
    for _ in 0..1_000 {
        am.pump_epoch_pushes(net);
        if am.pending_epoch_pushes() == 0 {
            return true;
        }
        net.clock().advance_ms(50);
    }
    false
}

#[test]
fn dynamic_registration_lifecycle_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        let bob = rig.idp.login("bob", "pw").unwrap().token;
        let mut log = Vec::new();
        // Open registration issues per-registrant credentials…
        let resp = rig.net.dispatch(
            "pics.example",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::REGISTER_PATH),
            )
            .with_body(
                protocol::RegisterBody {
                    kind: "host".into(),
                    authority: "pics.example".into(),
                }
                .to_json(),
            ),
        );
        log.push(format!("register: {}", resp.status.code()));
        let creds = protocol::RegistrationReply::from_json(&resp.body).unwrap();
        // …which authenticate the Host for a credentialed delegation —
        // still gated on the user's own assertion.
        let delegate = |id: &str, secret: &str| {
            rig.net.dispatch(
                "pics.example",
                Request::new(
                    Method::Post,
                    &format!("https://am-a.example{}", protocol::DELEGATE_V2_PATH),
                )
                .with_param("registrant_id", id)
                .with_param("secret", secret)
                .with_param("user", "bob")
                .with_param("subject_token", &bob)
                .with_param("subscribe", "1"),
            )
        };
        let resp = delegate(&creds.registrant_id, &creds.secret);
        log.push(format!("delegate: {}", resp.status.code()));
        let issued = protocol::DelegateReply::from_json(&resp.body).unwrap();
        rig.pics.shell().core.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am-a.example".into(),
                host_token: issued.host_token,
                delegation_id: issued.delegation_id,
            },
        );
        let mut client = alice_client(&rig);
        log.push(format!(
            "read under dynamic delegation: {}",
            label(&alice_reads(&rig, &mut client))
        ));
        // Rotation retires the old secret with the response.
        let resp = rig.net.dispatch(
            "pics.example",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::REGISTER_ROTATE_PATH),
            )
            .with_param("registrant_id", &creds.registrant_id)
            .with_param("secret", &creds.secret),
        );
        log.push(format!("rotate: {}", resp.status.code()));
        let rotated = protocol::RegistrationReply::from_json(&resp.body).unwrap();
        log.push(format!(
            "old secret: {}",
            delegate(&creds.registrant_id, &creds.secret).status.code()
        ));
        // Deregistration revokes the ability to obtain *new* credentials;
        // the live delegation stays owner-revocable, not registrant-bound.
        let resp = rig.net.dispatch(
            "pics.example",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::REGISTER_DEREGISTER_PATH),
            )
            .with_param("registrant_id", &rotated.registrant_id)
            .with_param("secret", &rotated.secret),
        );
        log.push(format!("deregister: {}", resp.status.code()));
        log.push(format!(
            "after deregister: {}",
            delegate(&rotated.registrant_id, &rotated.secret)
                .status
                .code()
        ));
        let mut survivor = alice_client(&rig);
        log.push(format!(
            "delegation survives: {}",
            label(&alice_reads(&rig, &mut survivor))
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "register: 201",
            "delegate: 201",
            "read under dynamic delegation: granted",
            "rotate: 200",
            "old secret: 401",
            "deregister: 200",
            "after deregister: 401",
            "delegation survives: granted",
        ]
    );
}

#[test]
fn conditional_revalidation_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        let mut client = alice_client(&rig);
        let mut log = vec![format!("prime: {}", label(&alice_reads(&rig, &mut client)))];
        // The cached permit ages past its TTL with no policy change: the
        // expired entry turns the re-query conditional, and the AM
        // collapses it to the tiny *unchanged* reply.
        rig.net.clock().advance_ms(61_000);
        rig.pics.shell().core.reset_stats();
        rig.net.reset_stats();
        let outcome = alice_reads(&rig, &mut client);
        let stats = rig.pics.shell().core.stats();
        log.push(format!(
            "revalidated: {} ({} conditional, {} unchanged, {} round trips)",
            label(&outcome),
            stats.revalidations,
            stats.revalidations_unchanged,
            rig.net.stats().round_trips
        ));
        // Re-armed in place: the next access is a plain cache hit.
        rig.net.reset_stats();
        let outcome = alice_reads(&rig, &mut client);
        log.push(format!(
            "re-armed: {} in {} round trips",
            label(&outcome),
            rig.net.stats().round_trips
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "prime: granted",
            "revalidated: granted (1 conditional, 1 unchanged, 2 round trips)",
            "re-armed: granted in 1 round trips",
        ]
    );
}

#[test]
fn sieve_push_after_an_edit_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        rig.am_a.subscribe_epoch_push("pics.example", "bob");
        // A second photo so the push has a bystander to spare.
        let bob = rig.idp.login("bob", "pw").unwrap().token;
        let image = ucam::host::Image::gradient(4, 4);
        let resp = rig.net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://pics.example/photos")
                .with_param("album", "rome")
                .with_param("id", "p2")
                .with_param("subject_token", &bob)
                .with_body(ucam::crypto::base64url_encode(&image.to_bytes())),
        );
        assert_eq!(resp.status, Status::Created, "{}", resp.body);
        // One policy per photo, so one deletion kills exactly one permit.
        let mut p1_policy = None;
        rig.am_a
            .pap("bob", |account| {
                for (name, resource) in [
                    ("alice-p1", "albums/rome/p1"),
                    ("alice-p2", "albums/rome/p2"),
                ] {
                    let id = account.create_policy(
                        name,
                        PolicyBody::Rules(
                            RulePolicy::new().with_rule(
                                Rule::permit()
                                    .for_subject(Subject::User("alice".into()))
                                    .for_action(Action::Read),
                            ),
                        ),
                    );
                    account
                        .link_specific(ResourceRef::new("pics.example", resource), &id)
                        .unwrap();
                    if name == "alice-p1" {
                        p1_policy = Some(id);
                    }
                }
            })
            .unwrap();
        assert!(drain_am_pushes(rig.net.as_ref(), &rig.am_a));
        let mut client = alice_client(&rig);
        let mut log = Vec::new();
        for path in ["/photos/rome/p1", "/photos/rome/p2"] {
            let outcome = client.access(
                rig.net.as_ref(),
                &AccessSpec::read(Url::new("pics.example", path)),
            );
            log.push(format!("prime {path}: {}", label(&outcome)));
        }
        // Bob deletes p1's policy: one epoch bump. The push purges Bob's
        // cached permits and carries a sieve delta that vouches for the
        // bystander alone.
        rig.pics.shell().core.reset_stats();
        rig.am_a
            .pap("bob", |account| {
                account.delete_policy(&p1_policy.clone().unwrap()).unwrap();
            })
            .unwrap();
        assert!(drain_am_pushes(rig.net.as_ref(), &rig.am_a));
        let stats = rig.pics.shell().core.stats();
        log.push(format!(
            "push: {} sieve delta installs, {} cached permits left",
            stats.sieve_delta_installs,
            rig.pics.shell().core.decision_cache_len()
        ));
        rig.pics.shell().core.reset_stats();
        rig.net.reset_stats();
        let outcome = client.access(
            rig.net.as_ref(),
            &AccessSpec::read(Url::new("pics.example", "/photos/rome/p2")),
        );
        let stats = rig.pics.shell().core.stats();
        log.push(format!(
            "bystander: {} ({} sieve hits, {} am queries, {} round trips)",
            label(&outcome),
            stats.sieve_hits,
            stats.am_queries,
            rig.net.stats().round_trips
        ));
        let outcome = client.access(
            rig.net.as_ref(),
            &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
        );
        log.push(format!("revoked: {}", label(&outcome)));
        log
    });
    assert_eq!(
        log,
        vec![
            "prime /photos/rome/p1: granted",
            "prime /photos/rome/p2: granted",
            "push: 1 sieve delta installs, 0 cached permits left",
            "bystander: granted (1 sieve hits, 0 am queries, 1 round trips)",
            "revoked: denied",
        ]
    );
}

#[test]
fn batch_authorize_is_transport_agnostic() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        let mut client = alice_client(&rig);
        let items = vec![
            BatchAuthorize {
                spec: AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
                owner: "bob".into(),
                resource: "albums/rome/p1".into(),
            },
            // No policy covers p9: a per-item denial that must not
            // poison its granted neighbor.
            BatchAuthorize {
                spec: AccessSpec::read(Url::new("pics.example", "/photos/rome/p9")),
                owner: "bob".into(),
                resource: "albums/rome/p9".into(),
            },
        ];
        let outcomes =
            client.authorize_batch(rig.net.as_ref(), "am-a.example", "pics.example", &items);
        let labels: Vec<&str> = outcomes
            .iter()
            .map(|o| match o {
                PreAuthorization::Authorized => "authorized",
                PreAuthorization::Denied(_) => "denied",
                PreAuthorization::PendingConsent { .. } => "pending",
                PreAuthorization::NeedsClaims(_) => "needs-claims",
                PreAuthorization::Failed(_) => "failed",
            })
            .collect();
        let mut log = vec![
            format!("batch: {}", labels.join(", ")),
            format!("work: {} token requests", client.stats().token_requests),
        ];
        // The pre-authorized token skips the token dance on first
        // access: one wire hop to the Host plus the Host's first
        // decision query — batch authorize fills the requester's token
        // cache, not the Host's decision cache.
        rig.net.reset_stats();
        rig.pics.shell().core.reset_stats();
        let outcome = client.access(
            rig.net.as_ref(),
            &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
        );
        let pep = rig.pics.shell().core.stats();
        log.push(format!(
            "warm: {} in {} round trips ({} token requests total, {} cache hits, {} am queries)",
            label(&outcome),
            rig.net.stats().round_trips,
            client.stats().token_requests,
            pep.cache_hits,
            pep.am_queries
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "batch: authorized, denied",
            "work: 1 token requests",
            "warm: granted in 2 round trips (1 token requests total, 0 cache hits, 1 am queries)",
        ]
    );
}

#[test]
fn malformed_v2_bodies_fail_closed_identically() {
    let log = assert_conformance(|net| {
        let rig = rig_on(net.clone());
        permit_alice(&rig.am_a, "albums/rome/p1");
        let mut client = alice_client(&rig);
        assert!(alice_reads(&rig, &mut client).is_granted());
        let mut log = Vec::new();
        // Garbage registration body.
        let resp = rig.net.dispatch(
            "probe",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::REGISTER_PATH),
            )
            .with_body("not json"),
        );
        log.push(format!("garbage register: {}", resp.status.code()));
        // Garbage batch-authorize body (params present, body broken).
        let resp = rig.net.dispatch(
            "probe",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::BATCH_AUTHORIZE_PATH),
            )
            .with_param("host", "pics.example")
            .with_param("requester", "probe")
            .with_body("{\"oops\":"),
        );
        log.push(format!("garbage batch: {}", resp.status.code()));
        // Unparseable if_epoch: malformed, not unconditional.
        let resp = rig.net.dispatch(
            "pics.example",
            Request::new(
                Method::Post,
                &format!("https://am-a.example{}", protocol::DECISION_V2_PATH),
            )
            .with_param("host_token", "whatever")
            .with_param("token", "t")
            .with_param("resource", "albums/rome/p1")
            .with_param("requester", "probe")
            .with_param("if_epoch", "yes"),
        );
        log.push(format!("bad if_epoch: {}", resp.status.code()));
        // A forged sieve body — well-formed, signed under a key the Host
        // never shared — must be dropped fail-closed while the plain
        // epoch note it rides still applies (the owner-wide purge keeps
        // the push sound even when the sieve is rejected).
        let forged = protocol::SieveBody::build(
            "bob",
            99,
            Vec::new(),
            &ucam::crypto::HmacKey::new(b"not-the-host-token"),
        );
        let resp = rig.net.dispatch(
            "am-a.example",
            Request::new(
                Method::Post,
                &format!("https://pics.example{}", protocol::EPOCH_PUSH_PATH),
            )
            .with_param("owner", "bob")
            .with_param("epoch", "99")
            .with_body(forged.to_json()),
        );
        let stats = rig.pics.shell().core.stats();
        log.push(format!(
            "forged sieve: {} ({} rejected)",
            resp.status.code(),
            stats.sieve_rejects
        ));
        // The rejected body fell through to the plain epoch note: the
        // primed permit is gone and the next read re-queries the AM.
        rig.pics.shell().core.reset_stats();
        let outcome = alice_reads(&rig, &mut client);
        log.push(format!(
            "after purge: {} ({} am queries)",
            label(&outcome),
            rig.pics.shell().core.stats().am_queries
        ));
        log
    });
    assert_eq!(
        log,
        vec![
            "garbage register: 400",
            "garbage batch: 400",
            "bad if_epoch: 400",
            "forged sieve: 200 (1 rejected)",
            "after purge: granted (1 am queries)",
        ]
    );
}

/// Gives alice read access to one of bob's webpics photos through a
/// specific policy guarded by `condition`; nothing else is shared.
fn permit_alice_while(world: &World, resource_id: &str, condition: Condition) {
    world
        .am
        .pap("bob", |account| {
            let id = account.create_policy(
                resource_id,
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(condition),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], resource_id), &id)
                .unwrap();
        })
        .unwrap();
}

/// Moves the shared clock forward to `at_ms`.
fn advance_to(world: &World, at_ms: u64) {
    let clock = world.net.clock();
    clock.advance_ms(at_ms.saturating_sub(clock.now_ms()));
}

/// One read by alice of a webpics photo, labelled with the Host tier
/// that answered it.
fn alice_reads_photo(world: &mut World, photo: &str) -> String {
    world.pics.shell().core.reset_stats();
    let outcome = world.friend_reads("alice", HOSTS[0], &format!("/photos/rome/{photo}"));
    let stats = world.pics.shell().core.stats();
    format!(
        "{} ({} sieve hits, {} cache hits, {} am queries)",
        label(&outcome),
        stats.sieve_hits,
        stats.cache_hits,
        stats.am_queries
    )
}

#[test]
fn conditioned_permits_expire_with_their_conditions() {
    let log = assert_conformance(|net| {
        let mut world = World::bootstrap_on(net);
        world.upload_content(2);
        world.delegate_all_hosts("bob");
        let t = world.net.clock().now_ms();
        permit_alice_while(&world, "albums/rome/photo-0", Condition::MaxUses(2));
        permit_alice_while(
            &world,
            "albums/rome/photo-1",
            Condition::ValidUntil(t + 10_000),
        );
        let mut log = Vec::new();
        // Every use of a use-limited permit reaches the AM to be counted:
        // no read is served from the decision cache.
        for read in 1..=5 {
            log.push(format!(
                "max-uses read {read}: {}",
                alice_reads_photo(&mut world, "photo-0")
            ));
        }
        // A deadline permit is cached only until its deadline.
        for offset_s in [0, 5, 20] {
            advance_to(&world, t + offset_s * 1_000);
            log.push(format!(
                "valid-until read at +{offset_s}s: {}",
                alice_reads_photo(&mut world, "photo-1")
            ));
        }
        log
    });
    assert_eq!(
        log,
        vec![
            "max-uses read 1: granted (0 sieve hits, 0 cache hits, 1 am queries)",
            "max-uses read 2: granted (0 sieve hits, 0 cache hits, 1 am queries)",
            "max-uses read 3: denied (0 sieve hits, 0 cache hits, 1 am queries)",
            "max-uses read 4: denied (0 sieve hits, 0 cache hits, 1 am queries)",
            "max-uses read 5: denied (0 sieve hits, 0 cache hits, 1 am queries)",
            "valid-until read at +0s: granted (0 sieve hits, 0 cache hits, 1 am queries)",
            "valid-until read at +5s: granted (0 sieve hits, 1 cache hits, 0 am queries)",
            "valid-until read at +20s: denied (0 sieve hits, 0 cache hits, 1 am queries)",
        ]
    );
}

#[test]
fn conditioned_sieve_entries_expire_with_their_conditions() {
    let log = assert_conformance(|net| {
        // The compiler replays every issued token, alice's included.
        let mut world = World::bootstrap_on(net);
        world.am.subscribe_epoch_push(HOSTS[0], "bob");
        world.upload_content(1);
        world.delegate_all_hosts("bob");
        let t = world.net.clock().now_ms();
        permit_alice_while(
            &world,
            "albums/rome/photo-0",
            Condition::ValidUntil(t + 10_000),
        );
        let mut log = vec![format!(
            "prime: {}",
            alice_reads_photo(&mut world, "photo-0")
        )];
        world.am.schedule_sieve_refresh();
        log.push(format!("sieve pushed: {}", drain_pushes(&world)));
        world.pics.shell().core.flush_decision_cache();
        for offset_s in [5, 20] {
            advance_to(&world, t + offset_s * 1_000);
            log.push(format!(
                "read at +{offset_s}s: {}",
                alice_reads_photo(&mut world, "photo-0")
            ));
        }
        log
    });
    assert_eq!(
        log,
        vec![
            "prime: granted (0 sieve hits, 0 cache hits, 1 am queries)",
            "sieve pushed: true",
            "read at +5s: granted (1 sieve hits, 0 cache hits, 0 am queries)",
            "read at +20s: denied (0 sieve hits, 0 cache hits, 1 am queries)",
        ]
    );
}
