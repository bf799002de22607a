//! A pushed decision invalidation (DESIGN.md §16) claims to be exact:
//! the Host evicts the fingerprints it names and re-stamps every other
//! cached permit of the signing AM to the new epoch. The AM may claim
//! that only while every permit a Host may still cache is in its decided
//! registry. Permits answered while no list could ride (invalidation
//! push off, or sieve push on) are not recorded, so until their cache
//! lifetime has passed, pushes go out plain and the Host purges the
//! owner's cached permits.

use std::sync::Arc;

use ucam::am::AuthorizationManager;
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::{Method, Request, SimNet, Url};

const HOST: &str = "storage.example";
const FILE: &str = "files/shared/f0.txt";

struct Rig {
    net: Arc<SimNet>,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
    alice: RequesterClient,
}

/// Bob delegates one Host subscribed to his pushes, uploads one file
/// and lets every authenticated user read it (default 60 s decision
/// cache). Alice holds a read token and reads once, so the Host caches
/// the AM's permit: the AM answers it under `sieve_push` and
/// `invalidation_push` as given.
fn rig_with_cached_permit(sieve_push: bool, invalidation_push: bool) -> Rig {
    let net = Arc::new(SimNet::new());
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am = Arc::new(AuthorizationManager::new("am.example", clock.clone()));
    am.set_identity_verifier(idp.verifier());
    am.set_sieve_push(sieve_push);
    am.set_invalidation_push(invalidation_push);
    let host = WebStorage::new(HOST, clock);
    host.shell().set_identity_verifier(idp.verifier());
    net.register(idp.clone());
    net.register(am.clone());
    net.register(host.clone());

    idp.register_user("bob", "pw");
    idp.register_user("alice", "pw");
    am.register_user("bob");
    am.subscribe_epoch_push(HOST, "bob");
    let (delegation, host_token) = am.establish_delegation(HOST, "bob").unwrap();
    host.shell().core.set_user_delegation(
        "bob",
        DelegationConfig {
            am: "am.example".into(),
            host_token,
            delegation_id: delegation.id,
        },
    );
    let bob = idp.login("bob", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, &format!("https://{HOST}/files"))
            .with_param("path", "shared/f0.txt")
            .with_param("subject_token", &bob)
            .with_body("secret"),
    );
    assert!(resp.status.is_success(), "upload failed: {}", resp.body);
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

/// A permit answered while invalidation push was off is not in the
/// decided registry. Once the push is on, an edit that withdraws it must
/// not ship an (empty) list claimed exact: the Host would re-stamp the
/// cached permit to the new epoch and keep granting the revoked read.
#[test]
fn permit_answered_before_invalidation_push_is_purged_by_a_later_revocation() {
    let mut rig = rig_with_cached_permit(false, false);
    rig.am.set_invalidation_push(true);
    revoke(&rig);
    assert!(!alice_reads(&mut rig), "the revoked read must be refused");
    assert_eq!(
        rig.am.epoch_push_stats().invalidations,
        0,
        "no list may claim to cover the unrecorded permit"
    );
}

/// With sieve push on, every push carries a sieve body, so the registry
/// records nothing. After sieve push is turned off, a revocation purges
/// owner-wide; once the unrecorded permits' cache lifetime has passed,
/// the next edit ships an exact invalidation list again.
#[test]
fn permits_answered_under_sieve_push_defer_exact_lists_until_they_expire() {
    let mut rig = rig_with_cached_permit(true, true);
    rig.am.set_sieve_push(false);
    revoke(&rig);
    assert_eq!(
        rig.am.epoch_push_stats().invalidations,
        0,
        "owner-wide purge"
    );
    assert_eq!(rig.host.shell().core.stats().invalidations_applied, 0);
    assert!(!alice_reads(&mut rig), "the revoked read must be refused");

    rig.net
        .clock()
        .advance_ms(ucam::am::pap::DEFAULT_CACHE_TTL_MS + 1);
    restore(&rig);
    assert_eq!(rig.am.epoch_push_stats().invalidations, 1, "an exact list");
    assert_eq!(rig.host.shell().core.stats().invalidations_applied, 1);
    assert!(alice_reads(&mut rig), "the restored read is granted again");
}
