//! Failure-injection tests: the system must fail closed and reject every
//! form of forged, stale, or misdirected credential.

use ucam::am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, DecisionQuery};
use ucam::crypto::SigningKey;
use ucam::policy::prelude::*;
use ucam::requester::AccessOutcome;
use ucam::sim::world::{World, AM, HOSTS};
use ucam::webenv::{Method, Request, SimClock, Status};

fn shared_world() -> World {
    let mut world = World::bootstrap();
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world.share_with_friends("bob", &["alice"]);
    world
}

#[test]
fn am_outage_fails_closed_but_recovers() {
    let mut world = shared_world();
    // Prime alice's token, then flush the host decision caches so every
    // access needs the AM.
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
    world.set_decision_caches(false);

    world.simnet().set_offline(AM, true);
    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
    assert!(
        matches!(outcome, AccessOutcome::Failed(ref resp) if resp.status == Status::Unavailable),
        "must fail closed during AM outage: {outcome:?}"
    );

    world.simnet().set_offline(AM, false);
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
}

#[test]
fn fabric_failures_are_transport_classified_but_app_errors_are_not() {
    // Regression for the `set_offline` blind spot: dispatches into a
    // partition used to be indistinguishable from application 503s, so
    // retry/failover layers could not tell what is safe to retry.
    let world = shared_world();
    world.set_decision_caches(false);

    // Partition -> Unreachable.
    world.simnet().set_offline(AM, true);
    let resp = world.net.dispatch(
        "requester:alice-agent",
        Request::new(Method::Get, &format!("https://{AM}/authorize")),
    );
    assert_eq!(resp.status, Status::Unavailable);
    assert_eq!(
        resp.transport_error(),
        Some(ucam::webenv::TransportError::Unreachable)
    );
    world.simnet().set_offline(AM, false);

    // Message loss -> Timeout.
    world.simnet().set_loss_every(1, 0);
    let resp = world.net.dispatch(
        "requester:alice-agent",
        Request::new(Method::Get, &format!("https://{AM}/authorize")),
    );
    assert_eq!(resp.status, Status::Unavailable);
    assert_eq!(
        resp.transport_error(),
        Some(ucam::webenv::TransportError::Timeout)
    );
    world.simnet().set_loss_every(0, 0);

    // A healthy dispatch that the *application* answers — even with an
    // error status — carries no transport classification: it must never
    // be retried or failed over.
    let resp = world.net.dispatch(
        "requester:alice-agent",
        Request::new(Method::Get, &format!("https://{AM}/no-such-endpoint")),
    );
    assert!(!resp.status.is_success());
    assert_eq!(resp.transport_error(), None);
}

#[test]
fn host_outage_reported_to_requester() {
    let mut world = shared_world();
    world.simnet().set_offline(HOSTS[0], true);
    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
    assert!(matches!(outcome, AccessOutcome::Failed(_)));
}

#[test]
fn forged_bearer_token_rejected() {
    let world = shared_world();
    let forged = SigningKey::generate().seal(b"kind=authz;res=albums/rome/photo-0");
    let resp = world.net.dispatch(
        "requester:attacker",
        Request::new(Method::Get, "https://webpics.example/photos/rome/photo-0")
            .with_header("x-requester", "requester:attacker")
            .with_bearer(&forged),
    );
    assert_eq!(resp.status, Status::Unauthorized);
}

#[test]
fn stolen_token_fails_for_other_requester() {
    let mut world = shared_world();
    // Alice legitimately obtains a token.
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
    // Extract alice's token by replaying the authorize step manually.
    let subject_token = world.assertion("alice");
    let authorize = ucam::webenv::Url::new(AM, "/authorize")
        .with_query("host", HOSTS[0])
        .with_query("owner", "bob")
        .with_query("resource", "albums/rome/photo-0")
        .with_query("requester", "requester:alice-agent")
        .with_query("subject_token", &subject_token);
    let resp = world.net.dispatch(
        "requester:alice-agent",
        Request::to_url(Method::Get, authorize),
    );
    let alices_token = resp.body.clone();
    assert_eq!(resp.status, Status::Ok);

    // Mallory presents alice's token: binding check fails (401), because
    // the token names requester:alice-agent (§V.B.3 binding).
    world.set_decision_caches(false);
    world.pics.shell().core.flush_decision_cache();
    let resp = world.net.dispatch(
        "requester:mallory",
        Request::new(Method::Get, "https://webpics.example/photos/rome/photo-0")
            .with_header("x-requester", "requester:mallory")
            .with_bearer(&alices_token),
    );
    assert_eq!(resp.status, Status::Unauthorized, "{}", resp.body);
}

#[test]
fn token_for_one_resource_rejected_for_another() {
    let clock = SimClock::new();
    let am = AuthorizationManager::new("solo-am.example", clock);
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation("h.example", "bob").unwrap();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "open",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new("h.example", "r1"), &id)
            .unwrap();
        account
            .link_specific(ResourceRef::new("h.example", "r2"), &id)
            .unwrap();
    })
    .unwrap();

    let AuthorizeOutcome::Token { token, .. } = am.authorize(&AuthorizeRequest::new(
        "h.example",
        "bob",
        "r1",
        Action::Read,
        "req",
    )) else {
        panic!("expected token");
    };
    // Valid for r1...
    assert!(am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: "r1",
            action: Action::Read,
            requester: "req",
        })
        .is_ok());
    // ...but rejected outright for r2 (no realm in the grant).
    assert!(am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: "r2",
            action: Action::Read,
            requester: "req",
        })
        .is_err());
}

#[test]
fn redelegation_invalidates_old_host_token() {
    let mut world = shared_world();
    let old = world
        .pics
        .shell()
        .core
        .delegation_for("x", "bob")
        .expect("delegated");
    // Bob re-establishes the delegation (e.g. rotating trust).
    world.delegate_host("bob", HOSTS[0]);
    // The old host token no longer validates.
    assert!(world.am.check_host_token(&old.host_token).is_err());
    // The new one does, and the protocol still works end to end.
    world.flush_all_caches();
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
}

#[test]
fn revoked_delegation_blocks_everyone_until_reestablished() {
    let mut world = shared_world();
    let config = world
        .pics
        .shell()
        .core
        .delegation_for("x", "bob")
        .expect("delegated");
    assert!(world.am.revoke_delegation("bob", &config.delegation_id));
    world.flush_all_caches();

    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
    assert!(
        !outcome.is_granted(),
        "revoked delegation must block: {outcome:?}"
    );
}

#[test]
fn consent_denial_keeps_blocking() {
    let mut world = World::bootstrap();
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world
        .am
        .pap("bob", |account| {
            let id = account.create_policy(
                "guarded",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(Condition::RequiresConsent),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();

    let AccessOutcome::PendingConsent { consent_id, .. } =
        world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
    else {
        panic!("expected pending consent");
    };
    world.am.deny_consent(&consent_id).unwrap();
    assert_eq!(
        world.friend_polls_consent("alice", AM, &consent_id),
        Some(false)
    );
    // Retrying opens a new pending request; access is still not granted.
    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
    assert!(matches!(outcome, AccessOutcome::PendingConsent { .. }));
}

#[test]
fn lossy_network_never_grants_spuriously() {
    let mut world = shared_world();
    world.set_decision_caches(false); // force AM involvement per access
                                      // Drop every 5th message.
    world.simnet().set_loss_every(5, 2);
    let mut granted = 0;
    let mut failed = 0;
    for _ in 0..40 {
        match world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0") {
            AccessOutcome::Granted(_) => granted += 1,
            AccessOutcome::Failed(_) | AccessOutcome::Denied(_) => failed += 1,
            other => panic!("unexpected outcome under loss: {other:?}"),
        }
    }
    assert!(granted > 0, "some accesses must get through");
    assert!(failed > 0, "some accesses must fail under 20% loss");

    // Mallory under the same lossy network stays locked out entirely.
    let outcomes: Vec<bool> = (0..20)
        .map(|_| {
            world
                .friend_reads("chris", HOSTS[0], "/photos/rome/photo-0")
                .is_granted()
        })
        .collect();
    assert!(
        outcomes.iter().all(|granted| !granted),
        "loss must never flip a deny into a grant"
    );

    // Healing the network restores clean service.
    world.simnet().set_loss_every(0, 0);
    assert!(world
        .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
}

#[test]
fn unanswered_consent_requests_expire() {
    let mut world = World::bootstrap();
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world.am.set_consent_ttl_ms(60_000); // one simulated minute
    world
        .am
        .pap("bob", |account| {
            let id = account.create_policy(
                "guarded",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(Condition::RequiresConsent),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();

    let AccessOutcome::PendingConsent { consent_id, .. } =
        world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
    else {
        panic!("expected pending consent");
    };
    // Bob never answers; the request expires after the TTL.
    world.net.clock().advance_ms(61_000);
    assert_eq!(
        world.am.consent_state(&consent_id),
        Some(ucam::am::consent::ConsentState::Expired)
    );
    // Bob's pending queue is clean, and a late grant is refused.
    assert!(world.am.pending_consents("bob").is_empty());
    assert!(world.am.grant_consent(&consent_id).is_err());
    // The requester's next attempt opens a fresh request.
    let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
    let AccessOutcome::PendingConsent {
        consent_id: fresh, ..
    } = outcome
    else {
        panic!("expected a fresh pending request: {outcome:?}");
    };
    assert_ne!(fresh, consent_id);
}

/// Installs a consent-gated policy for alice on HOSTS[0] (§V.D).
fn consent_gated_world() -> World {
    let mut world = World::bootstrap();
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world
        .am
        .pap("bob", |account| {
            let id = account.create_policy(
                "guarded",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(Condition::RequiresConsent),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();
    world
}

#[test]
fn pending_consent_flow_survives_partitions_and_loss() {
    let mut world = consent_gated_world();

    // Phase 1: the AM is partitioned away. The consent gate cannot even be
    // discovered, and — judged against ground truth (consent not granted) —
    // nothing may be served.
    world.simnet().set_offline(AM, true);
    for _ in 0..5 {
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        assert!(
            matches!(outcome, AccessOutcome::Failed(_)),
            "partitioned AM must fail the attempt, got {outcome:?}"
        );
    }
    world.simnet().set_offline(AM, false);

    // Phase 2: the partition heals into a lossy network. Attempts now reach
    // the AM often enough to open a pending-consent request, but loss may
    // still fail individual rounds. Ground truth stays "deny": no grant ever.
    world.simnet().set_burst_loss(4, 35, 0xC0FF_EE01);
    let mut consent_id = None;
    let mut failed = 0u32;
    for _ in 0..30 {
        match world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0") {
            AccessOutcome::PendingConsent { consent_id: id, .. } => consent_id = Some(id),
            AccessOutcome::Failed(_) => failed += 1,
            other => panic!("consent gate must hold under loss: {other:?}"),
        }
        world.net.clock().advance_ms(50);
    }
    let consent_id = consent_id.expect("burst loss must not starve the consent flow entirely");
    assert!(failed > 0, "35% burst loss must fail some rounds");

    // Polling under loss is equally safe: it reports pending or fails, but
    // never fabricates an answer.
    for _ in 0..10 {
        let polled = world.friend_polls_consent("alice", AM, &consent_id);
        assert_ne!(
            polled,
            Some(true),
            "unanswered consent must not read granted"
        );
        world.net.clock().advance_ms(50);
    }

    // Phase 3: bob grants. Ground truth flips to "permit"; under the same
    // lossy network the requester may need retries but must converge, and
    // once the network heals access is clean.
    world
        .am
        .grant_consent(&consent_id)
        .expect("pending consent");
    let granted_under_loss = (0..30).any(|_| {
        let granted = world
            .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
            .is_granted();
        world.net.clock().advance_ms(50);
        granted
    });
    world.simnet().set_burst_loss(0, 0, 0);
    assert!(
        granted_under_loss
            || world
                .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
                .is_granted(),
        "granted consent must eventually serve"
    );

    // An uninvolved reader is still denied — loss never widened the grant.
    assert!(!world
        .friend_reads("chris", HOSTS[0], "/photos/rome/photo-0")
        .is_granted());
}

#[test]
fn claims_gate_under_burst_loss_never_grants_without_claim() {
    use ucam::am::claims::ClaimIssuer;

    let payments = ClaimIssuer::new("payments.example");
    let mut world = World::bootstrap();
    world.upload_content(1);
    world.delegate_all_hosts("bob");
    world
        .am
        .pap("bob", |account| {
            let id = account.create_policy(
                "paywalled",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::User("alice".into()))
                            .for_action(Action::Read)
                            .with_condition(Condition::RequiresClaims(vec![
                                ClaimRequirement::from_issuer("payment", "payments.example"),
                            ])),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOSTS[0], "albums/rome/photo-0"), &id)
                .unwrap();
        })
        .unwrap();
    world.am.trust_claim_issuer(&payments);

    // Ground truth phase 1: no claim presented -> deny. Under burst loss the
    // requester sees either the terms (NeedsClaims) or a transport failure;
    // a grant would be a violation.
    world.simnet().set_burst_loss(5, 40, 0xBEEF_0002);
    let mut saw_terms = false;
    for _ in 0..30 {
        match world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0") {
            AccessOutcome::NeedsClaims(terms) => {
                assert!(terms.contains("payment"), "{terms}");
                saw_terms = true;
            }
            AccessOutcome::Failed(_) => {}
            other => panic!("claims gate must hold under loss: {other:?}"),
        }
        world.net.clock().advance_ms(50);
    }
    assert!(saw_terms, "the terms must get through between bursts");

    // A forged receipt (untrusted issuer) changes nothing: still deny.
    let forger = ClaimIssuer::new("shady.example");
    world
        .client("alice")
        .add_claim_token(&forger.issue("payment", "ref-000"));
    for _ in 0..10 {
        let outcome = world.friend_reads("alice", HOSTS[0], "/photos/rome/photo-0");
        assert!(
            !outcome.is_granted(),
            "forged claim must never grant: {outcome:?}"
        );
        world.net.clock().advance_ms(50);
    }

    // Ground truth phase 2: a real receipt flips truth to permit. Loss may
    // delay the grant but the flow converges, and heals cleanly.
    world
        .client("alice")
        .add_claim_token(&payments.issue("payment", "ref-829"));
    let granted_under_loss = (0..30).any(|_| {
        let granted = world
            .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
            .is_granted();
        world.net.clock().advance_ms(50);
        granted
    });
    world.simnet().set_burst_loss(0, 0, 0);
    assert!(
        granted_under_loss
            || world
                .friend_reads("alice", HOSTS[0], "/photos/rome/photo-0")
                .is_granted(),
        "paid-up requester must eventually be served"
    );
}

#[test]
fn identity_assertion_expiry_blocks_authorization() {
    let mut world = shared_world();
    // Capture alice's assertion, then let it expire (1 simulated hour).
    let stale = world.assertion("alice");
    world.net.clock().advance_ms(2 * 60 * 60 * 1000);

    let authorize = ucam::webenv::Url::new(AM, "/authorize")
        .with_query("host", HOSTS[0])
        .with_query("owner", "bob")
        .with_query("resource", "albums/rome/photo-0")
        .with_query("requester", "requester:alice-agent")
        .with_query("subject_token", &stale);
    let resp = world.net.dispatch(
        "requester:alice-agent",
        Request::to_url(Method::Get, authorize),
    );
    assert_eq!(resp.status, Status::Unauthorized);
    assert!(resp.body.contains("identity"), "{}", resp.body);
}
