//! End-to-end sieve delta shipping (DESIGN.md §12): the AM ships a full
//! capability sieve on first contact with a `(host, owner)` pair, then
//! O(changes) deltas diffed against the last confirmed delivery, and
//! falls back to a full reship when the Host answers `sieve-resync`.

use std::sync::Arc;

use ucam::am::AuthorizationManager;
use ucam::host::{DelegationConfig, WebStorage};
use ucam::policy::prelude::*;
use ucam::requester::{AccessSpec, RequesterClient};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::{Method, Request, SimNet, Url};

const HOST: &str = "storage.example";

struct Rig {
    net: Arc<SimNet>,
    idp: Arc<IdentityProvider>,
    am: Arc<AuthorizationManager>,
    host: Arc<WebStorage>,
}

/// Bob delegates one Host, uploads two files, and links an
/// authenticated-read policy. The AM compiles sieves into every epoch
/// push, and the Host is subscribed to Bob's pushes.
fn build_rig() -> Rig {
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
    for t in 0..2 {
        let resp = net.dispatch(
            "browser:bob",
            Request::new(Method::Post, &format!("https://{HOST}/files"))
                .with_param("path", &format!("shared/f{t}.txt"))
                .with_param("subject_token", &bob)
                .with_body(format!("file {t}")),
        );
        assert!(resp.status.is_success(), "upload failed: {}", resp.body);
    }
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
        for t in 0..2 {
            account.assign_realm(
                ResourceRef::new(HOST, &format!("files/shared/f{t}.txt")),
                "shared",
            );
        }
        account.link_general("shared", &policy).unwrap();
    })
    .unwrap();
    idp.register_user("alice", "pw");

    Rig { net, idp, am, host }
}

/// Pumps the push channel to empty on the healthy fabric.
fn drain_pushes(rig: &Rig) {
    for _ in 0..1_000 {
        rig.am.pump_epoch_pushes(rig.net.as_ref());
        if rig.am.pending_epoch_pushes() == 0 {
            return;
        }
        rig.net.clock().advance_ms(50);
    }
    panic!("epoch pushes failed to drain on a healthy fabric");
}

#[test]
fn full_ship_then_deltas_then_resync_recovery() {
    let rig = build_rig();

    // The PAP writes above queued pushes; the first confirmed delivery
    // to this (host, owner) pair carries a full sieve body.
    drain_pushes(&rig);
    let stats = rig.host.shell().core.stats();
    assert_eq!(stats.sieve_installs, 1, "first ship must be a full body");
    assert_eq!(stats.sieve_delta_installs, 0);

    // Alice obtains a real grant; the refresh now diffs against the
    // shipped state and arrives as a delta adding her entry.
    let assertion = rig.idp.login("alice", "pw").unwrap().token;
    let mut client = RequesterClient::new("requester:alice");
    client.set_subject_token(Some(assertion));
    let spec = AccessSpec::read(Url::new(HOST, "/files/shared/f0.txt"));
    assert!(client.access(rig.net.as_ref(), &spec).is_granted());
    rig.am.schedule_sieve_refresh();
    drain_pushes(&rig);
    let stats = rig.host.shell().core.stats();
    assert_eq!(stats.sieve_installs, 1, "no second full body");
    assert_eq!(stats.sieve_delta_installs, 1, "second ship is a delta");
    assert_eq!(stats.sieve_resyncs, 0);
    assert_eq!(rig.am.epoch_push_stats().resyncs, 0);

    // With the delta installed, her access serves on the tier-1 sieve.
    let hits_before = rig.host.shell().core.stats().sieve_hits;
    assert!(client.access(rig.net.as_ref(), &spec).is_granted());
    assert!(rig.host.shell().core.stats().sieve_hits > hits_before);

    // A policy edit advances bob's epoch at the AM. Before the push
    // lands, the Host learns the new epoch out-of-band (as a decision
    // response would teach it) and purges its installed sieve — the
    // delta's base is gone.
    rig.am
        .pap("bob", |account| {
            account.assign_realm(ResourceRef::new(HOST, "files/shared/f1.txt"), "shared");
        })
        .unwrap();
    rig.host
        .shell()
        .core
        .note_policy_epoch("bob", rig.am.policy_epoch("bob"));

    // The delta is refused with `sieve-resync`; the AM forgets the
    // pair's shipped state and the next pump ships a full body again.
    drain_pushes(&rig);
    let stats = rig.host.shell().core.stats();
    assert_eq!(stats.sieve_resyncs, 1, "purged base must refuse the delta");
    assert_eq!(stats.sieve_installs, 2, "recovery reships the full body");
    assert_eq!(rig.am.epoch_push_stats().resyncs, 1);
    assert_eq!(stats.sieve_rejects, 0, "resync is not a validation failure");

    // The reshipped sieve serves tier-1 again.
    let hits_before = rig.host.shell().core.stats().sieve_hits;
    assert!(client.access(rig.net.as_ref(), &spec).is_granted());
    assert!(rig.host.shell().core.stats().sieve_hits > hits_before);
}
