//! Thread-safety stress tests: the simulated Web is `Sync`, so many
//! requesters can hammer the same AM and Hosts concurrently. The
//! authorization outcome must stay correct under contention, and the
//! counters must not lose updates.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use ucam::am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, DecisionQuery};
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::protocol::{self, PushBody};
use ucam::webenv::{Method, Request, Response, SimNet, Transport, Url, WebApp};

const THREADS: usize = 8;
const ACCESSES_PER_THREAD: usize = 50;

struct Rig {
    net: Arc<SimNet>,
    idp: Arc<IdentityProvider>,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    read_policy: PolicyId,
}

fn build_rig() -> Rig {
    let net = Arc::new(SimNet::new());
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am = Arc::new(AuthorizationManager::new("am.example", clock.clone()));
    am.set_identity_verifier(idp.verifier());
    let host = WebStorage::new("storage.example", clock);
    host.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am.clone());
    net.register(host.clone());

    idp.register_user("bob", "pw");
    am.register_user("bob");
    let (delegation, host_token) = am.establish_delegation("storage.example", "bob").unwrap();
    host.shell().core.set_user_delegation(
        "bob",
        DelegationConfig {
            am: "am.example".into(),
            host_token,
            delegation_id: delegation.id,
        },
    );
    // Upload one file per thread.
    let bob = idp.login("bob", "pw").unwrap().token;
    for t in 0..THREADS {
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, "https://storage.example/files")
                .with_param("path", &format!("shared/f{t}.txt"))
                .with_param("subject_token", &bob)
                .with_body(format!("file {t}")),
        );
        assert!(resp.status.is_success());
    }
    // Everyone authenticated may read.
    let read_policy = am
        .pap("bob", |account| {
            let id = account.create_policy(
                "open-read",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Authenticated)
                            .for_action(Action::Read),
                    ),
                ),
            );
            let realm = "shared";
            for t in 0..THREADS {
                account.assign_realm(
                    ResourceRef::new("storage.example", &format!("files/shared/f{t}.txt")),
                    realm,
                );
            }
            account.link_general(realm, &id).unwrap();
            id
        })
        .unwrap();
    for t in 0..THREADS {
        idp.register_user(&format!("reader-{t}"), "pw");
    }
    Rig {
        net,
        idp,
        am,
        host,
        read_policy,
    }
}

#[test]
fn concurrent_readers_all_granted() {
    let rig = build_rig();
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let net = Arc::clone(&rig.net);
        let assertion = rig.idp.login(&format!("reader-{t}"), "pw").unwrap().token;
        handles.push(std::thread::spawn(move || {
            let mut client = RequesterClient::new(&format!("requester:reader-{t}"));
            client.set_subject_token(Some(assertion));
            let spec = AccessSpec::read(Url::new(
                "storage.example",
                &format!("/files/shared/f{t}.txt"),
            ));
            let mut granted = 0usize;
            for _ in 0..ACCESSES_PER_THREAD {
                if client.access(net.as_ref(), &spec).is_granted() {
                    granted += 1;
                }
            }
            granted
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(
        total,
        THREADS * ACCESSES_PER_THREAD,
        "every access must succeed"
    );
    // Round-trip accounting lost nothing: every thread produced at least
    // one access round trip per iteration.
    assert!(rig.net.stats().round_trips >= (THREADS * ACCESSES_PER_THREAD) as u64);
}

#[test]
fn concurrent_policy_edits_and_reads_do_not_deadlock() {
    let rig = build_rig();
    let net = Arc::clone(&rig.net);
    let mut handles = Vec::new();
    for t in 0..4 {
        let net = Arc::clone(&net);
        let assertion = rig.idp.login(&format!("reader-{t}"), "pw").unwrap().token;
        handles.push(std::thread::spawn(move || {
            let mut client = RequesterClient::new(&format!("requester:reader-{t}"));
            client.set_subject_token(Some(assertion));
            let spec = AccessSpec::read(Url::new(
                "storage.example",
                &format!("/files/shared/f{t}.txt"),
            ));
            for _ in 0..30 {
                let _ = client.access(net.as_ref(), &spec);
            }
        }));
    }
    // Meanwhile, the owner hammers the policy export endpoint (read lock)
    // and the ACL route (write paths) through the network.
    let net2 = Arc::clone(&net);
    let bob = rig.idp.login("bob", "pw").unwrap().token;
    handles.push(std::thread::spawn(move || {
        for _ in 0..30 {
            let resp = net2.dispatch(
                "browser:bob",
                Request::new(Method::Get, "https://am.example/policies/export")
                    .with_param("owner", "bob")
                    .with_param("subject_token", &bob)
                    .with_param("format", "json"),
            );
            assert!(resp.status.is_success(), "{}", resp.body);
        }
    }));
    for handle in handles {
        handle.join().expect("no panics or deadlocks");
    }
}

/// Hammers one Host from many threads while the owner's policy flips
/// between "everyone may read" and "nobody may read". After each flip
/// the AM's policy epoch for the owner advances and is pushed to the
/// Host, so a permit cached during an allow phase must never be served
/// once a deny phase starts — that would be a stale-cache grant. Rounds
/// are barrier-synchronized so every access has an unambiguous expected
/// outcome.
#[test]
fn epoch_churn_never_serves_stale_cached_permit() {
    const ROUNDS: usize = 6;
    const HAMMER: usize = 20;

    let rig = build_rig();
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let expect_grant = Arc::new(AtomicBool::new(true));
    let stale_grants = Arc::new(AtomicUsize::new(0));
    let missed_grants = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let net = Arc::clone(&rig.net);
        let barrier = Arc::clone(&barrier);
        let expect_grant = Arc::clone(&expect_grant);
        let stale_grants = Arc::clone(&stale_grants);
        let missed_grants = Arc::clone(&missed_grants);
        let assertion = rig.idp.login(&format!("reader-{t}"), "pw").unwrap().token;
        handles.push(std::thread::spawn(move || {
            let mut client = RequesterClient::new(&format!("requester:reader-{t}"));
            client.set_subject_token(Some(assertion));
            let spec = AccessSpec::read(Url::new(
                "storage.example",
                &format!("/files/shared/f{t}.txt"),
            ));
            for _ in 0..ROUNDS {
                barrier.wait(); // owner has flipped the policy
                let want = expect_grant.load(Ordering::SeqCst);
                for _ in 0..HAMMER {
                    let granted = client.access(net.as_ref(), &spec).is_granted();
                    if granted && !want {
                        stale_grants.fetch_add(1, Ordering::SeqCst);
                    }
                    if !granted && want {
                        missed_grants.fetch_add(1, Ordering::SeqCst);
                    }
                }
                barrier.wait(); // phase over; owner may flip again
            }
        }));
    }

    for round in 0..ROUNDS {
        let allow = round % 2 == 0;
        if round > 0 {
            // Flip the policy link; every `pap` call advances bob's epoch.
            let policy = rig.read_policy.clone();
            rig.am
                .pap("bob", |account| {
                    if allow {
                        account.link_general("shared", &policy).unwrap();
                    } else {
                        account.unlink_general("shared");
                    }
                })
                .unwrap();
        }
        // Push the fresh epoch to the Host, as the notification channel
        // (§V.B.6) would: stale cached permits for bob die here.
        rig.host
            .shell()
            .core
            .note_policy_epoch("bob", rig.am.policy_epoch("bob"));
        expect_grant.store(allow, Ordering::SeqCst);
        barrier.wait(); // release the readers
        barrier.wait(); // wait for the phase to drain
    }
    for handle in handles {
        handle.join().expect("no panics or deadlocks");
    }

    assert_eq!(
        stale_grants.load(Ordering::SeqCst),
        0,
        "a cached permit outlived a policy-epoch advance"
    );
    assert_eq!(
        missed_grants.load(Ordering::SeqCst),
        0,
        "allowed accesses must all be granted"
    );
    // The cache must have actually carried load during allow phases,
    // otherwise this test proves nothing about cached permits.
    assert!(
        rig.host.shell().core.stats().cache_hits > 0,
        "expected warm decision-cache hits during allow phases"
    );
}

/// Owners whose delegations the key-replacement test revokes and
/// re-establishes while other threads decide and pump.
const KEYED_OWNERS: [&str; 4] = ["o0", "o1", "o2", "o3"];
const KEYED_HOST: &str = "pics.example";
const KEYED_FILE: &str = "doc";
const KEYED_REQUESTER: &str = "requester:r";

/// The delegations (id and host token) one owner was issued, oldest
/// first, how many of the oldest are dead (revoked or replaced), and how
/// many were replaced by a newer one. A token is listed, and counted, only
/// once the AM's call has returned. A revoked delegation that is not yet
/// replaced still signs its pair's pushes: the empty sieve that carries
/// the revocation.
#[derive(Default)]
struct Ledger {
    tokens: Mutex<Vec<(String, String)>>,
    dead: AtomicUsize,
    replaced: AtomicUsize,
}

/// Stands at [`KEYED_HOST`] and keeps every push body it receives.
#[derive(Default)]
struct PushLog {
    bodies: Mutex<Vec<String>>,
}

impl WebApp for PushLog {
    fn authority(&self) -> &str {
        KEYED_HOST
    }

    fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
        self.bodies.lock().unwrap().push(req.body.clone());
        Response::ok()
    }
}

/// The owner a push body names, and whether `key` signed it.
fn signed_under<'a>(body: &'a PushBody, key: &[u8]) -> (&'a str, bool) {
    match body {
        PushBody::Sieve(b) => (&b.owner, b.verify(key)),
        PushBody::Delta(d) => (&d.owner, d.verify(key)),
    }
}

/// Decisions on four threads, beside a thread that pumps pushes and one
/// that revokes and re-establishes the same owners' delegations, each a
/// fresh host token and push key. No decision may accept a host token
/// that was dead before it started, and no push compiled after a key was
/// replaced may be signed under the replaced key. Every thread works in
/// each round, so each round's changes land among its decisions and
/// pumps.
#[test]
fn no_decision_or_push_outlives_a_replaced_delegation() {
    const DECIDERS: usize = 4;
    const ROUNDS: usize = 40;
    const DECISIONS_PER_ROUND: usize = 60;
    const PUMPS_PER_ROUND: usize = 4;
    let net = SimNet::new();
    let am = AuthorizationManager::new("am.example", net.clock().clone());
    let log = Arc::new(PushLog::default());
    net.register(log.clone());
    let ledgers: Vec<Ledger> = KEYED_OWNERS.iter().map(|_| Ledger::default()).collect();
    let mut authz = Vec::new();
    for (owner, ledger) in KEYED_OWNERS.iter().zip(&ledgers) {
        am.register_user(owner);
        let (delegation, token) = am.establish_delegation(KEYED_HOST, owner).unwrap();
        ledger.tokens.lock().unwrap().push((delegation.id, token));
        am.subscribe_epoch_push(KEYED_HOST, owner);
        am.pap(owner, |account| {
            let read = Rule::permit()
                .for_subject(Subject::Public)
                .for_action(Action::Read);
            let id =
                account.create_policy("open", PolicyBody::Rules(RulePolicy::new().with_rule(read)));
            let file = ResourceRef::new(KEYED_HOST, KEYED_FILE);
            account.link_specific(file, &id).unwrap();
        })
        .unwrap();
        let request =
            AuthorizeRequest::new(KEYED_HOST, owner, KEYED_FILE, Action::Read, KEYED_REQUESTER);
        match am.authorize(&request) {
            AuthorizeOutcome::Token { token, .. } => authz.push(token),
            other => panic!("the open policy grants {owner}: {other:?}"),
        }
    }
    let round_over = Barrier::new(DECIDERS + 2);
    let (accepted, refused, signed) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );

    std::thread::scope(|scope| {
        for t in 0..DECIDERS {
            let (am, ledgers, authz, round_over) = (&am, &ledgers, &authz, &round_over);
            let (accepted, refused) = (&accepted, &refused);
            scope.spawn(move || {
                for j in 0..ROUNDS * DECISIONS_PER_ROUND {
                    let i = j * DECIDERS + t;
                    let o = i % KEYED_OWNERS.len();
                    let dead = ledgers[o].dead.load(Ordering::SeqCst);
                    let (generation, host_token) = {
                        let tokens = ledgers[o].tokens.lock().unwrap();
                        // The newest token half the time, an older one else.
                        let g = if i.is_multiple_of(2) {
                            tokens.len() - 1
                        } else {
                            i % tokens.len()
                        };
                        (g, tokens[g].1.clone())
                    };
                    let query = DecisionQuery {
                        host_token: &host_token,
                        authz_token: &authz[o],
                        resource_id: KEYED_FILE,
                        action: Action::Read,
                        requester: KEYED_REQUESTER,
                    };
                    let decision = am.decide(&query);
                    if generation < dead {
                        assert!(
                            decision.is_err(),
                            "{}: a decision accepted dead host token {generation}",
                            KEYED_OWNERS[o]
                        );
                    }
                    let counter = if decision.is_ok() { accepted } else { refused };
                    counter.fetch_add(1, Ordering::Relaxed);
                    if (j + 1).is_multiple_of(DECISIONS_PER_ROUND) {
                        round_over.wait();
                    }
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                for _ in 0..PUMPS_PER_ROUND {
                    let replaced: Vec<usize> = (ledgers.iter())
                        .map(|l| l.replaced.load(Ordering::SeqCst))
                        .collect();
                    am.pump_epoch_pushes(&net);
                    for body in std::mem::take(&mut *log.bodies.lock().unwrap()) {
                        let body = protocol::parse_push_body(&body).expect("a signed push body");
                        let owner = signed_under(&body, b"").0;
                        let o = KEYED_OWNERS.iter().position(|n| *n == owner).unwrap();
                        let tokens = ledgers[o].tokens.lock().unwrap();
                        let key = (tokens.iter())
                            .position(|(_, token)| signed_under(&body, token.as_bytes()).1)
                            .expect("every push is signed under one of its owner's keys");
                        assert!(
                            key >= replaced[o],
                            "{owner}: a push compiled after key {key} was replaced is signed under it"
                        );
                        signed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                round_over.wait();
            }
        });
        for round in 0..ROUNDS {
            for (owner, ledger) in KEYED_OWNERS.iter().zip(&ledgers) {
                // The token is listed under the ledger's lock, so a pump
                // that used the new key finds it listed.
                let mut tokens = ledger.tokens.lock().unwrap();
                if round % 2 == 0 {
                    let id = &tokens.last().unwrap().0;
                    assert!(am.revoke_delegation(owner, id));
                    ledger.dead.store(tokens.len(), Ordering::SeqCst);
                }
                let (delegation, token) = am.establish_delegation(KEYED_HOST, owner).unwrap();
                tokens.push((delegation.id, token));
                ledger.dead.store(tokens.len() - 1, Ordering::SeqCst);
                ledger.replaced.store(tokens.len() - 1, Ordering::SeqCst);
            }
            am.schedule_sieve_refresh();
            round_over.wait();
        }
    });
    let (accepted, refused, signed) = (
        accepted.into_inner(),
        refused.into_inner(),
        signed.into_inner(),
    );
    println!(
        "concurrency: {accepted} decisions accepted, {refused} refused, {signed} pushes checked"
    );
    assert!(accepted > 0 && refused > 0, "both outcomes were exercised");
    assert!(signed > 0, "pushes were delivered and checked");
}
