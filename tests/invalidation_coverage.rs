//! A revocation must reach every permit a Host may still cache. The
//! capability sieve (DESIGN.md §12–13) is the one channel that keeps a
//! Host fresh after an edit: every epoch push purges the owner's cached
//! permits, and a sieve body vouches again only for what the AM still
//! permits. A token that newer grants pushed off the AM's capped
//! issued-grants registry is in no sieve, so its permit falls back to
//! that owner-wide purge. A deleted resource takes its cached permits
//! along, whoever later creates one under the same id.

use std::sync::Arc;

use ucam::am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest};
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::{Method, Request, SimNet, Status, Url};

const HOST: &str = "storage.example";
const FILE: &str = "files/shared/f0.txt";

struct Rig {
    net: Arc<SimNet>,
    idp: Arc<IdentityProvider>,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    alice: RequesterClient,
}

/// Bob delegates one Host subscribed to his pushes, uploads one file
/// and lets every authenticated user read it (default 60 s decision
/// cache). Alice holds a read token and reads once, so the Host caches
/// the AM's permit.
fn rig_with_cached_permit() -> Rig {
    let net = Arc::new(SimNet::new());
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am = Arc::new(AuthorizationManager::new("am.example", clock.clone()));
    am.set_identity_verifier(idp.verifier());
    let host = WebStorage::new(HOST, clock);
    host.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am.clone());
    net.register(host.clone());

    idp.register_user("bob", "pw");
    idp.register_user("alice", "pw");
    am.register_user("bob");
    am.subscribe_epoch_push(HOST, "bob");
    delegate(&am, &host, "bob");
    upload(&net, &idp, "bob", "secret");
    am.pap("bob", |account| {
        let policy = account.create_policy(
            "open-read",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Authenticated)
                        .for_action(Action::Read),
                ),
            ),
        );
        account.link_specific(ResourceRef::new(HOST, FILE), &policy)
    })
    .unwrap()
    .unwrap();
    drain_pushes(&net, &am);

    let mut alice = RequesterClient::new("requester:alice");
    alice.set_subject_token(Some(idp.login("alice", "pw").unwrap().token));
    let mut rig = Rig {
        net,
        idp,
        am,
        host,
        alice,
    };
    assert!(alice_reads(&mut rig), "the policy grants Alice");
    let hits = rig.host.shell().core.stats().cache_hits;
    assert!(alice_reads(&mut rig));
    assert_eq!(
        rig.host.shell().core.stats().cache_hits,
        hits + 1,
        "the Host caches Alice's permit"
    );
    rig
}

/// `user` delegates the Host to the AM.
fn delegate(am: &AuthorizationManager, host: &WebStorage, user: &str) {
    let (delegation, host_token) = am.establish_delegation(HOST, user).unwrap();
    host.shell().core.set_user_delegation(
        user,
        DelegationConfig {
            am: "am.example".into(),
            host_token,
            delegation_id: delegation.id,
        },
    );
}

/// `user` uploads `data` as the file, from their browser.
fn upload(net: &SimNet, idp: &IdentityProvider, user: &str, data: &str) {
    let session = idp.login(user, "pw").unwrap().token;
    let resp = net.dispatch(
        &format!("browser:{user}"),
        Request::new(Method::Post, &format!("https://{HOST}/files"))
            .with_param("path", "shared/f0.txt")
            .with_param("subject_token", &session)
            .with_body(data),
    );
    assert!(resp.status.is_success(), "upload failed: {}", resp.body);
}

/// Alice reads the file, presenting the token she holds.
fn alice_reads(rig: &mut Rig) -> bool {
    let spec = AccessSpec::read(Url::new(HOST, &format!("/{FILE}")));
    rig.alice.access(rig.net.as_ref(), &spec).is_granted()
}

/// Pumps the push channel to empty on the healthy fabric.
fn drain_pushes(net: &SimNet, am: &AuthorizationManager) {
    for _ in 0..1_000 {
        am.pump_epoch_pushes(net);
        if am.pending_epoch_pushes() == 0 {
            return;
        }
        net.clock().advance_ms(50);
    }
    panic!("epoch pushes failed to drain on a healthy fabric");
}

/// Bob withdraws the file's policy and the pushes drain.
fn revoke(rig: &Rig) {
    rig.am
        .pap("bob", |account| {
            account.unlink_specific(&ResourceRef::new(HOST, FILE))
        })
        .unwrap()
        .expect("the file had a policy");
    drain_pushes(&rig.net, &rig.am);
}

/// Bob links a fresh read policy to the file again and the pushes drain.
fn restore(rig: &Rig) {
    rig.am
        .pap("bob", |account| {
            let policy = account.create_policy(
                "open-read-again",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Authenticated)
                            .for_action(Action::Read),
                    ),
                ),
            );
            account.link_specific(ResourceRef::new(HOST, FILE), &policy)
        })
        .unwrap()
        .unwrap();
    drain_pushes(&rig.net, &rig.am);
}

/// The AM's registry of issued tokens, which the sieve compiler
/// replays, keeps Bob's newest 4,096. Once newer grants push Alice's
/// token off it, no sieve names her: a refreshed sieve leaves her read
/// to her cached permit, and after a revocation the epoch note purges
/// that permit, so the revoked read is refused.
#[test]
fn permit_pushed_off_the_issued_registry_is_refused_after_a_revocation() {
    let mut rig = rig_with_cached_permit();
    for _ in 0..4_096 {
        let request = AuthorizeRequest::new(HOST, "bob", FILE, Action::Read, "requester:carol")
            .with_subject("carol");
        assert!(matches!(
            rig.am.authorize(&request),
            AuthorizeOutcome::Token { .. }
        ));
    }
    let before = rig.host.shell().core.stats();
    rig.am.schedule_sieve_refresh();
    drain_pushes(&rig.net, &rig.am);
    assert!(alice_reads(&mut rig), "the cached permit still holds");
    let after = rig.host.shell().core.stats();
    assert!(
        after.sieve_installs + after.sieve_delta_installs
            > before.sieve_installs + before.sieve_delta_installs,
        "a sieve rode the refresh"
    );
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "served from the cache"
    );
    assert_eq!(after.sieve_hits, 0, "no sieve names Alice's token");

    revoke(&rig);
    assert!(!alice_reads(&mut rig), "the revoked read must be refused");
    assert_eq!(rig.host.shell().core.stats().sieve_hits, 0);
}

/// The revocation's sieve drops Alice and the epoch note purges her
/// cached permit; the restore's sieve names her again, and the sieve
/// serves her next read.
#[test]
fn sieve_pushed_permit_is_revoked_then_restored() {
    let mut rig = rig_with_cached_permit();
    revoke(&rig);
    assert!(!alice_reads(&mut rig), "the revoked read must be refused");
    assert_eq!(rig.host.shell().core.stats().sieve_hits, 0);

    restore(&rig);
    assert!(alice_reads(&mut rig), "the restored read is granted again");
    assert_eq!(
        rig.host.shell().core.stats().sieve_hits,
        1,
        "the restore's sieve serves it"
    );
}

/// Bob deletes the file, and Carol uploads her own at the same path.
/// WebStorage ids are `files/{path}`, so hers is the same resource id,
/// and she delegates to the same AM. Alice's token was earned under
/// Bob's policy: the permit it cached died with Bob's file, so her next
/// read goes to the AM, which owes her nothing of Carol's.
#[test]
fn a_deleted_file_takes_its_cached_permit_along() {
    let mut rig = rig_with_cached_permit();
    let bob = rig.idp.login("bob", "pw").unwrap().token;
    let resp = rig.net.dispatch(
        "browser:bob",
        Request::new(Method::Delete, &format!("https://{HOST}/{FILE}"))
            .with_param("subject_token", &bob),
    );
    assert_eq!(resp.status, Status::NoContent, "delete: {}", resp.body);

    rig.idp.register_user("carol", "pw");
    rig.am.register_user("carol");
    upload(&rig.net, &rig.idp, "carol", "carol's private notes");
    delegate(&rig.am, &rig.host, "carol");
    let core = &rig.host.shell().core;
    assert_eq!(core.resource(FILE).unwrap().owner, "carol");

    let before = core.stats();
    assert!(!alice_reads(&mut rig), "a permit outlived its file");
    let after = rig.host.shell().core.stats();
    assert_eq!(after.cache_hits, before.cache_hits, "no cache hit");
    assert!(after.am_queries > before.am_queries, "the AM was asked");
}
