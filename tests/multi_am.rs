//! Multiple Authorization Managers (§V.D extension): "We recognize
//! different settings which may require multiple AMs for different Hosts,
//! for different resources hosted by a single Host…" — and multiple users
//! each choosing their own AM, the OpenID-style freedom of choice (R1).

use std::sync::Arc;

use ucam::am::AuthorizationManager;
use ucam::host::{DelegationConfig, ResilienceConfig, WebPics};
use ucam::policy::prelude::*;
use ucam::requester::{AccessOutcome, AccessSpec, RequesterClient};
use ucam::webenv::identity::IdentityProvider;
use ucam::webenv::protocol::DECISION_V2_PATH;
use ucam::webenv::{Method, Request, SimNet, Status, Url};

/// Builds a net with one host, one IdP, and two independent AMs.
struct TwoAmRig {
    net: SimNet,
    pics: Arc<WebPics>,
    am_a: Arc<AuthorizationManager>,
    am_b: Arc<AuthorizationManager>,
    idp: Arc<IdentityProvider>,
}

fn rig() -> TwoAmRig {
    let net = SimNet::new();
    let clock = net.clock().clone();
    let idp = Arc::new(IdentityProvider::new("idp.example", clock.clone()));
    let am_a = Arc::new(AuthorizationManager::new("am-a.example", clock.clone()));
    let am_b = Arc::new(AuthorizationManager::new("am-b.example", clock.clone()));
    let pics = WebPics::new("pics.example", clock);

    for user in ["bob", "carol", "alice"] {
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
    TwoAmRig {
        net,
        pics,
        am_a,
        am_b,
        idp,
    }
}

fn upload(rig: &TwoAmRig, owner: &str, album: &str, photo: &str) {
    let token = rig.idp.login(owner, "pw").unwrap().token;
    rig.net.dispatch(
        &format!("browser:{owner}"),
        Request::new(Method::Post, "https://pics.example/albums")
            .with_param("name", album)
            .with_param("subject_token", &token),
    );
    let image = ucam::host::Image::gradient(4, 4);
    let resp = rig.net.dispatch(
        &format!("browser:{owner}"),
        Request::new(Method::Post, "https://pics.example/photos")
            .with_param("album", album)
            .with_param("id", photo)
            .with_param("subject_token", &token)
            .with_body(ucam::crypto::base64url_encode(&image.to_bytes())),
    );
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
}

fn permit_alice(am: &AuthorizationManager, owner: &str, resource_id: &str) {
    am.pap(owner, |account| {
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

fn delegate(rig: &TwoAmRig, user: &str, am: &AuthorizationManager) {
    let (delegation, host_token) = am.establish_delegation("pics.example", user).unwrap();
    rig.pics.shell().core.set_user_delegation(
        user,
        DelegationConfig {
            am: if std::ptr::eq(am, rig.am_a.as_ref()) {
                "am-a.example".into()
            } else {
                "am-b.example".into()
            },
            host_token,
            delegation_id: delegation.id,
        },
    );
}

fn alice_reads(rig: &TwoAmRig, path: &str) -> AccessOutcome {
    let assertion = rig.idp.login("alice", "pw").unwrap().token;
    let mut client = RequesterClient::new("requester:alice-agent");
    client.set_subject_token(Some(assertion));
    client.access(&rig.net, &AccessSpec::read(Url::new("pics.example", path)))
}

#[test]
fn different_users_choose_different_ams_on_one_host() {
    let rig = rig();
    upload(&rig, "bob", "rome", "p1");
    upload(&rig, "carol", "oslo", "p1");

    // Bob trusts AM-A; Carol trusts AM-B — on the *same* host (R1).
    delegate(&rig, "bob", &rig.am_a);
    delegate(&rig, "carol", &rig.am_b);
    permit_alice(&rig.am_a, "bob", "albums/rome/p1");
    permit_alice(&rig.am_b, "carol", "albums/oslo/p1");

    assert!(alice_reads(&rig, "/photos/rome/p1").is_granted());
    assert!(alice_reads(&rig, "/photos/oslo/p1").is_granted());

    // Each AM audited only its own user's traffic.
    rig.am_a.audit(|log| {
        assert!(!log.for_owner("bob").is_empty());
        assert!(log.for_owner("carol").is_empty());
    });
    rig.am_b.audit(|log| {
        assert!(!log.for_owner("carol").is_empty());
        assert!(log.for_owner("bob").is_empty());
    });
}

#[test]
fn per_resource_am_override() {
    let rig = rig();
    upload(&rig, "bob", "rome", "p1");
    upload(&rig, "bob", "rome", "p2");

    // Bob's default AM is A, but photo p2 specifically is protected by B
    // ("delegate access control for different resources to different
    // AMs", §V.A.3).
    delegate(&rig, "bob", &rig.am_a);
    let (delegation_b, token_b) = rig
        .am_b
        .establish_delegation("pics.example", "bob")
        .unwrap();
    rig.pics.shell().core.set_resource_delegation(
        "albums/rome/p2",
        DelegationConfig {
            am: "am-b.example".into(),
            host_token: token_b,
            delegation_id: delegation_b.id,
        },
    );
    permit_alice(&rig.am_a, "bob", "albums/rome/p1");
    permit_alice(&rig.am_b, "bob", "albums/rome/p2");

    assert!(alice_reads(&rig, "/photos/rome/p1").is_granted());
    assert!(alice_reads(&rig, "/photos/rome/p2").is_granted());

    // AM-A knows nothing about p2 — policies there would not help: remove
    // B's policy and p2 is locked even though A would have permitted.
    rig.am_b
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
    rig.pics.shell().core.flush_decision_cache();
    let outcome = alice_reads(&rig, "/photos/rome/p2");
    assert!(matches!(outcome, AccessOutcome::Denied(_)), "{outcome:?}");
}

#[test]
fn requester_bounced_by_offline_primary_am_completes_against_secondary() {
    let rig = rig();
    upload(&rig, "bob", "rome", "p1");

    // Bob's AMs mirror each other: the same delegation and policy exist
    // at both, and the Host will fail a decision query over from A to B.
    delegate(&rig, "bob", &rig.am_a);
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
    permit_alice(&rig.am_a, "bob", "albums/rome/p1");
    permit_alice(&rig.am_b, "bob", "albums/rome/p1");

    // The primary AM goes dark before Alice ever authorizes.
    rig.net.set_offline("am-a.example", true);

    let assertion = rig.idp.login("alice", "pw").unwrap().token;
    let mut client = RequesterClient::new("requester:alice-agent");
    client.set_subject_token(Some(assertion));
    client.set_resilience(
        ucam::requester::ResilienceConfig::new().with_fallback_am("am-a.example", "am-b.example"),
    );

    // Phase 3: the Host's redirect still points at AM-A; the requester
    // is bounced off it at the transport level, re-homes the authorize
    // URL onto AM-B, and obtains the token there. Phase 5/6: the Host's
    // decision query also fails over to AM-B, which recognizes its own
    // token. The access completes with the primary fully dark.
    let outcome = client.access(
        &rig.net,
        &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
    );
    assert!(outcome.is_granted(), "{outcome:?}");
    assert_eq!(client.stats().failovers, 1);
    assert_eq!(rig.pics.shell().core.stats().fallback_queries, 1);

    // Back online, the primary serves the next authorization natively
    // and the secondary is no longer consulted.
    rig.net.set_offline("am-a.example", false);
    let mut native = RequesterClient::new("requester:alice-agent");
    native.set_subject_token(Some(rig.idp.login("alice", "pw").unwrap().token));
    native.set_resilience(
        ucam::requester::ResilienceConfig::new().with_fallback_am("am-a.example", "am-b.example"),
    );
    assert!(native
        .access(
            &rig.net,
            &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
        )
        .is_granted());
    assert_eq!(native.stats().failovers, 0);
    assert_eq!(rig.pics.shell().core.stats().fallback_queries, 1);
}

#[test]
fn multi_owner_fallbacks_route_to_each_owners_own_mirror() {
    // Regression: the fallback map used to be keyed on the primary AM
    // alone, so when two owners shared a primary, whichever mirror was
    // registered last silently served *both* owners' failovers — wrong
    // mirror, wrong delegation, wrong audit trail. Fallbacks are now
    // keyed on (primary AM, owner).
    let rig = rig();
    upload(&rig, "bob", "rome", "p1");
    upload(&rig, "carol", "oslo", "p1");

    // Both owners delegate to AM-A as primary; each mirrors to a
    // *different* secondary: bob to AM-B, carol to a third AM.
    let am_c = Arc::new(AuthorizationManager::new(
        "am-c.example",
        rig.net.clock().clone(),
    ));
    am_c.register_user("carol");
    am_c.register_user("alice");
    am_c.set_identity_verifier(rig.idp.verifier());
    rig.net.register(am_c.clone());

    delegate(&rig, "bob", &rig.am_a);
    delegate(&rig, "carol", &rig.am_a);
    let (delegation_b, token_b) = rig
        .am_b
        .establish_delegation("pics.example", "bob")
        .unwrap();
    let (delegation_c, token_c) = am_c.establish_delegation("pics.example", "carol").unwrap();
    rig.pics.shell().core.set_resilience(
        ResilienceConfig::new()
            .with_fallback_am_for_owner(
                "am-a.example",
                "bob",
                DelegationConfig {
                    am: "am-b.example".into(),
                    host_token: token_b,
                    delegation_id: delegation_b.id,
                },
            )
            .with_fallback_am_for_owner(
                "am-a.example",
                "carol",
                DelegationConfig {
                    am: "am-c.example".into(),
                    host_token: token_c,
                    delegation_id: delegation_c.id,
                },
            ),
    );

    // Policies exist at the primary and at each owner's own mirror.
    permit_alice(&rig.am_a, "bob", "albums/rome/p1");
    permit_alice(&rig.am_a, "carol", "albums/oslo/p1");
    permit_alice(&rig.am_b, "bob", "albums/rome/p1");
    permit_alice(&am_c, "carol", "albums/oslo/p1");

    // Authorize both readers while the primary is still healthy, so each
    // holds a token minted by a mirror-recognized AM…
    let mut bob_reader = RequesterClient::new("requester:alice-agent");
    bob_reader.set_subject_token(Some(rig.idp.login("alice", "pw").unwrap().token));
    bob_reader.set_resilience(
        ucam::requester::ResilienceConfig::new().with_fallback_am("am-a.example", "am-b.example"),
    );
    let mut carol_reader = RequesterClient::new("requester:alice-agent");
    carol_reader.set_subject_token(Some(rig.idp.login("alice", "pw").unwrap().token));
    carol_reader.set_resilience(
        ucam::requester::ResilienceConfig::new().with_fallback_am("am-a.example", "am-c.example"),
    );

    // …then darken the primary. Every decision query must fail over to
    // the mirror holding *that owner's* delegation, or the mirror will
    // reject the token and the access dies.
    rig.net.set_offline("am-a.example", true);
    let bob_outcome = bob_reader.access(
        &rig.net,
        &AccessSpec::read(Url::new("pics.example", "/photos/rome/p1")),
    );
    assert!(bob_outcome.is_granted(), "{bob_outcome:?}");
    let carol_outcome = carol_reader.access(
        &rig.net,
        &AccessSpec::read(Url::new("pics.example", "/photos/oslo/p1")),
    );
    assert!(carol_outcome.is_granted(), "{carol_outcome:?}");
    assert_eq!(rig.pics.shell().core.stats().fallback_queries, 2);
}

#[test]
fn ams_do_not_accept_each_others_tokens() {
    let rig = rig();
    upload(&rig, "bob", "rome", "p1");
    delegate(&rig, "bob", &rig.am_a);
    permit_alice(&rig.am_a, "bob", "albums/rome/p1");

    // Alice legitimately gets a token from AM-A.
    let assertion = rig.idp.login("alice", "pw").unwrap().token;
    let resp = rig.net.dispatch(
        "requester:alice-agent",
        Request::new(Method::Get, "https://am-a.example/authorize")
            .with_param("host", "pics.example")
            .with_param("owner", "bob")
            .with_param("resource", "albums/rome/p1")
            .with_param("requester", "requester:alice-agent")
            .with_param("subject_token", &assertion),
    );
    assert_eq!(resp.status, Status::Ok);
    let token = resp.body;

    // Presenting AM-A's token to AM-B's decision endpoint fails — the
    // delegation at B does not even exist.
    let (_, host_token_b) = rig
        .am_b
        .establish_delegation("pics.example", "bob")
        .unwrap();
    let check = rig.net.dispatch(
        "pics.example",
        Request::to_url(Method::Post, Url::new("am-b.example", DECISION_V2_PATH))
            .with_param("host_token", &host_token_b)
            .with_param("token", &token)
            .with_param("resource", "albums/rome/p1")
            .with_param("requester", "requester:alice-agent"),
    );
    assert_eq!(check.status, Status::Unauthorized);
}
