//! Tests of the Authorization Manager's native API and Web interface.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use ucam_am::claims::ClaimIssuer;
use ucam_am::consent::ConsentState;
use ucam_am::tokens::AUTHZ_TOKEN_TTL_MS;
use ucam_am::{AuthorizationManager, AuthorizeOutcome, AuthorizeRequest, Decision, DecisionQuery};
use ucam_policy::prelude::*;
use ucam_webenv::identity::IdentityProvider;
use ucam_webenv::protocol::{self, SieveBody, DECISION_V2_PATH};
use ucam_webenv::{Method, Request, Response, SimClock, SimNet, Status, Transport, Url, WebApp};

const HOST: &str = "webpics.example";
const PHOTO: &str = "photo-1";

fn am_with_bob() -> (AuthorizationManager, String) {
    let am = AuthorizationManager::new("am.example", SimClock::new());
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
    (am, host_token)
}

fn friends_read_policy(am: &AuthorizationManager) {
    am.pap("bob", |account| {
        account.add_group_member("friends", "alice");
        let id = account.create_policy(
            "friends-read",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Group("friends".into()))
                        .for_action(Action::Read),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();
}

fn alice_request() -> AuthorizeRequest {
    AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, "requester:editor")
        .with_subject("alice")
}

#[test]
fn authorize_then_decide_permit() {
    let (am, host_token) = am_with_bob();
    friends_read_policy(&am);

    let outcome = am.authorize(&alice_request());
    let AuthorizeOutcome::Token { token, grant } = outcome else {
        panic!("expected token, got {outcome:?}");
    };
    assert_eq!(grant.owner, "bob");
    assert_eq!(grant.subject.as_deref(), Some("alice"));

    let decision = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:editor",
        })
        .unwrap();
    assert!(decision.is_permit());
}

#[test]
fn authorize_denies_strangers() {
    let (am, _) = am_with_bob();
    friends_read_policy(&am);
    let req = AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, "requester:editor")
        .with_subject("mallory");
    assert!(matches!(am.authorize(&req), AuthorizeOutcome::Denied(_)));
}

#[test]
fn authorize_denies_without_delegation() {
    let am = AuthorizationManager::new("am.example", SimClock::new());
    am.register_user("bob");
    friends_read_policy(&am);
    let outcome = am.authorize(&alice_request());
    let AuthorizeOutcome::Denied(reason) = outcome else {
        panic!("expected denial, got {outcome:?}");
    };
    assert!(reason.contains("not delegated"), "{reason}");
}

#[test]
fn decide_rejects_revoked_delegation() {
    let (am, host_token) = am_with_bob();
    friends_read_policy(&am);
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token");
    };
    // Bob withdraws the delegation; the cached host token must die with it.
    let delegation_id = am.check_host_token(&host_token).unwrap().delegation_id;
    assert!(am.revoke_delegation("bob", &delegation_id));
    let err = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:editor",
        })
        .unwrap_err();
    assert!(err.to_string().contains("revoked"), "{err}");
}

#[test]
fn decide_rejects_token_for_other_resource() {
    let (am, host_token) = am_with_bob();
    friends_read_policy(&am);
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token");
    };
    let err = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: "photo-2",
            action: Action::Read,
            requester: "requester:editor",
        })
        .unwrap_err();
    assert!(err.to_string().contains("binding"), "{err}");
}

#[test]
fn decide_denies_wrong_action_even_with_valid_token() {
    let (am, host_token) = am_with_bob();
    friends_read_policy(&am);
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token");
    };
    // The token was minted for Read; a Write decision query re-evaluates
    // policies and must come back "deny" (policy covers Read only).
    let decision = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Write,
            requester: "requester:editor",
        })
        .unwrap();
    assert!(matches!(decision, Decision::Deny { .. }));
}

#[test]
fn consent_flow_end_to_end() {
    let (am, host_token) = am_with_bob();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "consent-gate",
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
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();

    // First attempt parks the request pending consent…
    let AuthorizeOutcome::PendingConsent { consent_id } = am.authorize(&alice_request()) else {
        panic!("expected pending consent");
    };
    assert_eq!(am.consent_state(&consent_id), Some(ConsentState::Pending));
    // …and notifies Bob out-of-band (simulated e-mail, §V.D).
    let notified = am.outbox(|outbox| outbox.for_user("bob").len());
    assert_eq!(notified, 1);

    // Polling again does not duplicate the request.
    let AuthorizeOutcome::PendingConsent { consent_id: again } = am.authorize(&alice_request())
    else {
        panic!("expected still pending");
    };
    assert_eq!(again, consent_id);

    // Bob grants; the requester's next attempt yields a token.
    am.grant_consent(&consent_id).unwrap();
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token after consent");
    };
    let decision = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:editor",
        })
        .unwrap();
    assert!(decision.is_permit());
}

#[test]
fn consent_denied_blocks() {
    let (am, _) = am_with_bob();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "consent-gate",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::User("alice".into()))
                        .with_condition(Condition::RequiresConsent),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();

    let AuthorizeOutcome::PendingConsent { consent_id } = am.authorize(&alice_request()) else {
        panic!("expected pending consent");
    };
    am.deny_consent(&consent_id).unwrap();
    // A retry opens a *new* pending request rather than granting.
    let outcome = am.authorize(&alice_request());
    assert!(matches!(outcome, AuthorizeOutcome::PendingConsent { .. }));
}

#[test]
fn claims_flow_payment_gate() {
    let (am, host_token) = am_with_bob();
    let payments = ClaimIssuer::new("payments.example");
    am.trust_claim_issuer(&payments);
    am.pap("bob", |account| {
        let id = account.create_policy(
            "paid-download",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read)
                        .with_condition(Condition::RequiresClaims(vec![
                            ClaimRequirement::from_issuer("payment", "payments.example"),
                        ])),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();

    // Without a payment claim: the AM names its terms.
    let bare = AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, "requester:buyer");
    let AuthorizeOutcome::NeedsClaims(required) = am.authorize(&bare) else {
        panic!("expected claims requirement");
    };
    assert_eq!(required[0].kind, "payment");

    // A claim from an untrusted issuer does not help.
    let forged = ClaimIssuer::new("payments.example"); // different key!
    let outcome = am.authorize(
        &bare
            .clone()
            .with_claim_token(&forged.issue("payment", "fake-ref")),
    );
    assert!(matches!(outcome, AuthorizeOutcome::NeedsClaims(_)));

    // The real payment confirmation unlocks the resource.
    let paid = bare.with_claim_token(&payments.issue("payment", "ref-829"));
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&paid) else {
        panic!("expected token after payment");
    };
    // And the decision query still permits (claims were cached at the AM).
    let decision = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:buyer",
        })
        .unwrap();
    assert!(decision.is_permit());
}

#[test]
fn max_uses_enforced_across_decisions() {
    let (am, host_token) = am_with_bob();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "two-uses",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::User("alice".into()))
                        .with_condition(Condition::MaxUses(2)),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();

    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token");
    };
    let query = DecisionQuery {
        host_token: &host_token,
        authz_token: &token,
        resource_id: PHOTO,
        action: Action::Read,
        requester: "requester:editor",
    };
    assert!(am.decide(&query).unwrap().is_permit());
    assert!(am.decide(&query).unwrap().is_permit());
    // Third use exceeds MaxUses(2).
    assert!(matches!(am.decide(&query).unwrap(), Decision::Deny { .. }));
}

#[test]
fn audit_correlates_across_hosts() {
    let am = AuthorizationManager::new("am.example", SimClock::new());
    am.register_user("bob");
    let (_, t1) = am.establish_delegation("webpics.example", "bob").unwrap();
    let (_, t2) = am.establish_delegation("webdocs.example", "bob").unwrap();
    am.pap("bob", |account| {
        let id = account.create_policy(
            "public",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new("webpics.example", "r1"), &id)
            .unwrap();
        account
            .link_specific(ResourceRef::new("webdocs.example", "r2"), &id)
            .unwrap();
    })
    .unwrap();

    for (host, res, ht) in [
        ("webpics.example", "r1", &t1),
        ("webdocs.example", "r2", &t2),
    ] {
        let req = AuthorizeRequest::new(host, "bob", res, Action::Read, "requester:crawler");
        let AuthorizeOutcome::Token { token, .. } = am.authorize(&req) else {
            panic!("expected token");
        };
        am.decide(&DecisionQuery {
            host_token: ht,
            authz_token: &token,
            resource_id: res,
            action: Action::Read,
            requester: "requester:crawler",
        })
        .unwrap();
    }

    // One central query correlates the requester across both hosts (C4).
    am.audit(|log| {
        let correlated = log.correlate_requester("requester:crawler");
        assert_eq!(correlated.len(), 4); // 2 token requests + 2 decisions
        assert_eq!(
            log.hosts_seen("bob"),
            vec!["webdocs.example".to_owned(), "webpics.example".to_owned()]
        );
        assert_eq!(log.decision_counts("bob"), (2, 0));
    });
}

#[test]
fn pap_errors_for_unknown_user() {
    let am = AuthorizationManager::new("am.example", SimClock::new());
    assert!(am.pap("ghost", |_| ()).is_err());
    assert!(am.pap_ref("ghost", |_| ()).is_err());
    assert!(am.establish_delegation("h", "ghost").is_err());
}

// ---------------------------------------------------------------------------
// Web interface
// ---------------------------------------------------------------------------

fn web_setup() -> (SimNet, Arc<AuthorizationManager>, String) {
    let net = SimNet::new();
    let am = Arc::new(AuthorizationManager::new("am.example", net.clock().clone()));
    am.register_user("bob");
    let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
    friends_read_policy(&am);
    net.register(am.clone());
    (net, am, host_token)
}

#[test]
fn web_delegate_redirects_with_token() {
    let (net, am, _) = web_setup();
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/delegate")
            .with_param("host", "webdocs.example")
            .with_param("user", "bob")
            .with_param("return", "https://webdocs.example/delegation/done"),
    );
    assert_eq!(resp.status, Status::Found);
    let location = resp.location().unwrap();
    assert_eq!(location.authority(), "webdocs.example");
    let token = location.query("host_token").unwrap();
    assert_eq!(am.check_host_token(token).unwrap().host, "webdocs.example");
}

#[test]
fn web_authorize_issues_token_and_decision_permits() {
    let (net, am, host_token2) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("alice", "pw");
    let assertion = idp.login("alice", "pw").unwrap();
    // The AM must be told to trust this IdP.
    am.set_identity_verifier(idp.verifier());

    let resp = net.dispatch(
        "requester:editor",
        Request::new(Method::Post, "https://am.example/authorize")
            .with_param("host", HOST)
            .with_param("owner", "bob")
            .with_param("resource", PHOTO)
            .with_param("action", "read")
            .with_param("requester", "requester:editor")
            .with_param("subject_token", &assertion.token),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    let token = resp.body.clone();

    let resp = net.dispatch(
        HOST,
        Request::to_url(Method::Post, Url::new("am.example", DECISION_V2_PATH))
            .with_param("host_token", &host_token2)
            .with_param("token", &token)
            .with_param("resource", PHOTO)
            .with_param("action", "read")
            .with_param("requester", "requester:editor"),
    );
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.body.contains("\"permit\""), "{}", resp.body);
}

#[test]
fn web_authorize_rejects_bad_identity_assertion() {
    let (net, am, _) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    am.set_identity_verifier(idp.verifier());
    let resp = net.dispatch(
        "requester:editor",
        Request::new(Method::Post, "https://am.example/authorize")
            .with_param("host", HOST)
            .with_param("owner", "bob")
            .with_param("resource", PHOTO)
            .with_param("requester", "requester:editor")
            .with_param("subject_token", "forged.token"),
    );
    assert_eq!(resp.status, Status::Unauthorized);
}

#[test]
fn web_policy_export_import_roundtrip() {
    let (net, _, _) = web_setup();
    let exported = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/policies/export")
            .with_param("owner", "bob")
            .with_param("format", "xml"),
    );
    assert_eq!(exported.status, Status::Ok);
    assert!(exported.body.contains("<policies>"));

    let imported = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am.example/policies/import")
            .with_param("owner", "bob")
            .with_param("format", "xml")
            .with_body(exported.body),
    );
    assert_eq!(imported.status, Status::Ok);
    assert!(imported.body.contains("imported 1"), "{}", imported.body);
}

#[test]
fn web_decision_rejects_forged_tokens() {
    let (net, _, host_token) = web_setup();
    let resp = net.dispatch(
        HOST,
        Request::to_url(Method::Post, Url::new("am.example", DECISION_V2_PATH))
            .with_param("host_token", &host_token)
            .with_param("token", "forged.token")
            .with_param("resource", PHOTO)
            .with_param("requester", "requester:editor"),
    );
    assert_eq!(resp.status, Status::Unauthorized);
}

#[test]
fn web_unknown_route_404() {
    let (net, _, _) = web_setup();
    let resp = net.dispatch("x", Request::new(Method::Get, "https://am.example/nope"));
    assert_eq!(resp.status, Status::NotFound);
}

#[test]
fn web_owner_routes_require_authentication_when_idp_configured() {
    let (net, am, _) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("bob", "pw");
    idp.register_user("mallory", "pw");
    am.set_identity_verifier(idp.verifier());

    // Anonymous delegation confirmation: 401.
    let resp = net.dispatch(
        "browser:anon",
        Request::new(Method::Get, "https://am.example/delegate")
            .with_param("host", "webdocs.example")
            .with_param("user", "bob"),
    );
    assert_eq!(resp.status, Status::Unauthorized);

    // Mallory confirming *Bob's* delegation: 403.
    let mallory = idp.login("mallory", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:mallory",
        Request::new(Method::Get, "https://am.example/delegate")
            .with_param("host", "webdocs.example")
            .with_param("user", "bob")
            .with_param("subject_token", &mallory),
    );
    assert_eq!(resp.status, Status::Forbidden);

    // Mallory exporting Bob's policies: 403.
    let resp = net.dispatch(
        "browser:mallory",
        Request::new(Method::Get, "https://am.example/policies/export")
            .with_param("owner", "bob")
            .with_param("subject_token", &mallory),
    );
    assert_eq!(resp.status, Status::Forbidden);

    // Bob himself: fine.
    let bob = idp.login("bob", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/delegate")
            .with_param("host", "webdocs.example")
            .with_param("user", "bob")
            .with_param("subject_token", &bob),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);

    // An account snapshot for Bob that makes his photo public-read.
    let forge = AuthorizationManager::new("forge.example", SimClock::new());
    forge.register_user("bob");
    forge
        .pap("bob", |account| {
            let id = account.create_policy(
                "public-read",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Public)
                            .for_action(Action::Read),
                    ),
                ),
            );
            account
                .link_specific(ResourceRef::new(HOST, PHOTO), &id)
                .unwrap();
        })
        .unwrap();
    let snapshot = forge.export_account("bob").unwrap();
    let import = |subject_token: Option<&str>| {
        let mut req =
            Request::new(Method::Post, "https://am.example/account/import").with_body(&snapshot);
        if let Some(token) = subject_token {
            req = req.with_param("subject_token", token);
        }
        net.dispatch("browser:importer", req)
    };
    let mallory_reads = || {
        am.authorize(&AuthorizeRequest::new(
            HOST,
            "bob",
            PHOTO,
            Action::Read,
            "requester:mallory",
        ))
    };
    let before = am.export_account("bob").unwrap();

    // Anonymous import: 401. Mallory importing *Bob's* account: 403, and
    // Bob's policies stay as they were.
    assert_eq!(import(None).status, Status::Unauthorized);
    assert_eq!(import(Some(&mallory)).status, Status::Forbidden);
    assert_eq!(am.export_account("bob").unwrap(), before);
    assert!(matches!(mallory_reads(), AuthorizeOutcome::Denied(_)));

    // Bob importing his own snapshot: 201, and it takes effect.
    let resp = import(Some(&bob));
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    assert!(matches!(mallory_reads(), AuthorizeOutcome::Token { .. }));

    // Bob's pending consent requests are his to list, not Mallory's.
    am.pap("bob", |account| {
        let id = account.create_policy(
            "gate",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read)
                        .with_condition(Condition::RequiresConsent),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, "guarded"), &id)
            .unwrap();
    })
    .unwrap();
    let AuthorizeOutcome::PendingConsent { consent_id } = am.authorize(&AuthorizeRequest::new(
        HOST,
        "bob",
        "guarded",
        Action::Read,
        "requester:x",
    )) else {
        panic!("expected pending consent");
    };
    let pending = |subject_token: &str| {
        net.dispatch(
            "browser:lister",
            Request::new(Method::Get, "https://am.example/consent/pending")
                .with_param("owner", "bob")
                .with_param("subject_token", subject_token),
        )
    };
    assert_eq!(pending(&mallory).status, Status::Forbidden);
    let resp = pending(&bob);
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    assert_eq!(resp.body, consent_id);
}

#[test]
fn web_audit_view_renders_decisions() {
    let (net, am, host_token) = web_setup();
    // Produce a decision.
    let AuthorizeOutcome::Token { token, .. } = am.authorize(
        &AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, "requester:editor")
            .with_subject("alice"),
    ) else {
        panic!("expected token");
    };
    am.decide(&DecisionQuery {
        host_token: &host_token,
        authz_token: &token,
        resource_id: PHOTO,
        action: Action::Read,
        requester: "requester:editor",
    })
    .unwrap();

    let view = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/audit/view").with_param("owner", "bob"),
    );
    assert_eq!(view.status, Status::Ok);
    assert!(view.body.contains(PHOTO), "{}", view.body);
    assert!(view.body.contains("permit"), "{}", view.body);

    // Filtered by requester: still present for the editor, absent for a
    // requester that never appeared.
    let filtered = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/audit/view")
            .with_param("owner", "bob")
            .with_param("requester", "requester:nobody"),
    );
    assert!(filtered.body.is_empty(), "{}", filtered.body);
}

#[test]
fn web_group_management_roundtrip() {
    let (net, am, host_token) = web_setup();
    // Add dave to friends over the wire; he immediately gains access
    // through the existing friends-read policy.
    let add = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am.example/groups/add")
            .with_param("owner", "bob")
            .with_param("group", "friends")
            .with_param("member", "dave"),
    );
    assert_eq!(add.status, Status::Ok, "{}", add.body);
    am.pap_ref("bob", |account| {
        assert!(account.groups().contains("friends", "dave"));
    })
    .unwrap();

    let outcome = am.authorize(
        &AuthorizeRequest::new(HOST, "bob", PHOTO, Action::Read, "requester:dave-agent")
            .with_subject("dave"),
    );
    let AuthorizeOutcome::Token { token, .. } = outcome else {
        panic!("dave should be authorized after group add: {outcome:?}");
    };
    assert!(am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: &token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:dave-agent",
        })
        .unwrap()
        .is_permit());

    // Remove him again.
    let remove = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am.example/groups/remove")
            .with_param("owner", "bob")
            .with_param("group", "friends")
            .with_param("member", "dave"),
    );
    assert_eq!(remove.status, Status::Ok);
    // Removing a non-member 404s.
    let again = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am.example/groups/remove")
            .with_param("owner", "bob")
            .with_param("group", "friends")
            .with_param("member", "dave"),
    );
    assert_eq!(again.status, Status::NotFound);
}

#[test]
fn web_compose_allows_custodian() {
    let (net, am, _) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("chris", "pw");
    am.set_identity_verifier(idp.verifier());
    am.pap("bob", |account| account.add_custodian("chris"))
        .unwrap();
    let pid = am
        .pap("bob", |account| {
            account.create_policy(
                "by-custodian",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Public)
                            .for_action(Action::Read),
                    ),
                ),
            )
        })
        .unwrap();

    let chris = idp.login("chris", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:chris",
        Request::new(Method::Get, "https://am.example/compose")
            .with_param("owner", "bob")
            .with_param("host", HOST)
            .with_param("resource", "photo-77")
            .with_param("policy", pid.as_str())
            .with_param("subject_token", &chris),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
}

#[test]
fn web_consent_settle_restricted_to_owner() {
    let (net, am, _) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("bob", "pw");
    idp.register_user("mallory", "pw");
    am.set_identity_verifier(idp.verifier());
    // Gate a resource behind consent and park a request.
    am.pap("bob", |account| {
        let id = account.create_policy(
            "gate",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Public)
                        .for_action(Action::Read)
                        .with_condition(Condition::RequiresConsent),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, "guarded"), &id)
            .unwrap();
    })
    .unwrap();
    let outcome = am.authorize(&AuthorizeRequest::new(
        HOST,
        "bob",
        "guarded",
        Action::Read,
        "requester:x",
    ));
    let AuthorizeOutcome::PendingConsent { consent_id } = outcome else {
        panic!("expected pending consent");
    };

    // Mallory cannot grant Bob's consent request.
    let mallory = idp.login("mallory", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:mallory",
        Request::new(Method::Post, "https://am.example/consent/grant")
            .with_param("id", &consent_id)
            .with_param("subject_token", &mallory),
    );
    assert_eq!(resp.status, Status::Forbidden);

    // Bob can.
    let bob = idp.login("bob", "pw").unwrap().token;
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am.example/consent/grant")
            .with_param("id", &consent_id)
            .with_param("subject_token", &bob),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
}

#[test]
fn web_account_export_import_roundtrip() {
    let (net, _, _) = web_setup();
    let exported = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/account/export").with_param("owner", "bob"),
    );
    assert_eq!(exported.status, Status::Ok);
    assert!(exported.body.contains("friends-read"));

    // Import the snapshot at a second AM registered on the same net.
    let other = Arc::new(AuthorizationManager::new(
        "am2.example",
        net.clock().clone(),
    ));
    net.register(other.clone());
    let imported = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am2.example/account/import").with_body(exported.body),
    );
    assert_eq!(imported.status.code(), 201, "{}", imported.body);
    assert_eq!(imported.body, "bob");
    other
        .pap_ref("bob", |account| {
            assert_eq!(account.list_policies().len(), 1);
        })
        .unwrap();

    // Garbage import is rejected.
    let bad = net.dispatch(
        "browser:bob",
        Request::new(Method::Post, "https://am2.example/account/import").with_body("{nope"),
    );
    assert_eq!(bad.status, Status::BadRequest);
    // Unknown owner export is rejected.
    let missing = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/account/export").with_param("owner", "ghost"),
    );
    assert_eq!(missing.status, Status::BadRequest);
}

#[test]
fn web_compose_links_policy() {
    let (net, am, _) = web_setup();
    // Create a policy to link.
    let pid = am
        .pap("bob", |account| {
            account.create_policy(
                "extra",
                PolicyBody::Rules(
                    RulePolicy::new().with_rule(
                        Rule::permit()
                            .for_subject(Subject::Public)
                            .for_action(Action::Read),
                    ),
                ),
            )
        })
        .unwrap();
    let resp = net.dispatch(
        "browser:bob",
        Request::new(Method::Get, "https://am.example/compose")
            .with_param("owner", "bob")
            .with_param("host", HOST)
            .with_param("resource", "photo-9")
            .with_param("realm", "trip")
            .with_param("general", pid.as_str())
            .with_param("policy", pid.as_str())
            .with_param("return", "https://webpics.example/photos/photo-9"),
    );
    assert_eq!(resp.status, Status::Found, "{}", resp.body);
    am.pap_ref("bob", |account| {
        let r = ResourceRef::new(HOST, "photo-9");
        assert_eq!(account.policies().realm_of(&r), Some("trip"));
        assert_eq!(account.policies().specific_binding(&r), Some(&pid));
    })
    .unwrap();
}

/// Dispatches a decision query with `params` to `path` at the AM and
/// returns `(status, body)`.
fn decision_at(net: &SimNet, path: &str, params: &[(&str, &str)]) -> (Status, String) {
    let mut req = Request::new(Method::Post, &format!("https://am.example{path}"));
    for (k, v) in params {
        req = req.with_param(k, v);
    }
    let resp = net.dispatch(HOST, req);
    (resp.status, resp.body)
}

#[test]
fn one_decision_route_fails_closed_and_the_retired_routes_answer_404() {
    // `/protection/v2/decision` is the one single-decision route. For
    // permits, denies, token rejections and malformed queries alike it
    // fails closed, and the retired v1 route and `/decision` alias
    // answer every one of them with 404.
    use ucam_webenv::protocol::{DECISION_PATH, LEGACY_DECISION_PATH};
    let (net, am, host_token) = web_setup();
    let token = issue_token(&net, &am);

    let cases: Vec<(&str, Vec<(&str, &str)>)> = vec![
        (
            "permit",
            vec![
                ("host_token", host_token.as_str()),
                ("token", token.as_str()),
                ("resource", PHOTO),
                ("action", "read"),
                ("requester", "requester:editor"),
            ],
        ),
        (
            "deny (unpermitted action)",
            vec![
                ("host_token", host_token.as_str()),
                ("token", token.as_str()),
                ("resource", PHOTO),
                ("action", "write"),
                ("requester", "requester:editor"),
            ],
        ),
        (
            "garbage bearer token",
            vec![
                ("host_token", host_token.as_str()),
                ("token", "garbage"),
                ("resource", PHOTO),
                ("action", "read"),
                ("requester", "requester:editor"),
            ],
        ),
        (
            "forged host token",
            vec![
                ("host_token", "forged"),
                ("token", token.as_str()),
                ("resource", PHOTO),
                ("action", "read"),
                ("requester", "requester:editor"),
            ],
        ),
        (
            "malformed (missing resource)",
            vec![
                ("host_token", host_token.as_str()),
                ("token", token.as_str()),
                ("action", "read"),
                ("requester", "requester:editor"),
            ],
        ),
        ("malformed (no params at all)", vec![]),
    ];

    for (label, params) in &cases {
        for retired in [DECISION_PATH, LEGACY_DECISION_PATH] {
            let (status, body) = decision_at(&net, retired, params);
            assert_eq!(
                status,
                Status::NotFound,
                "{retired} answered {label}: {body}"
            );
        }
    }

    // The error cases block; the permit case alone carries a permit.
    let permit = decision_at(&net, DECISION_V2_PATH, &cases[0].1);
    assert_eq!(permit.0, Status::Ok);
    assert!(permit.1.contains("\"permit\""), "{}", permit.1);
    let deny = decision_at(&net, DECISION_V2_PATH, &cases[1].1);
    assert_eq!(deny.0, Status::Ok);
    assert!(deny.1.contains("\"deny\""), "{}", deny.1);
    for (label, params) in &cases[2..] {
        let (status, body) = decision_at(&net, DECISION_V2_PATH, params);
        assert_ne!(status, Status::Ok, "{label} must fail closed: {body}");
        assert!(!body.contains("\"permit\""), "{label} leaked a permit");
    }
}

#[test]
fn the_pdp_trace_note_names_the_verdict_the_am_reached() {
    // The verdict in the `PDP decision` note is the one the AM computed,
    // never a reading of the response: a refused query whose requester
    // is spelled like a permit body is still traced as refused.
    use ucam_webenv::TraceKind;
    let (net, am, host_token) = web_setup();
    let token = issue_token(&net, &am);
    let epoch = am.policy_epoch("bob").to_string();
    let spoof = "\"decision\":\"permit\"";
    let cases = [
        ("read", "requester:editor", None, Status::Ok, "permit"),
        ("write", "requester:editor", None, Status::Ok, "deny"),
        (
            "read",
            "requester:editor",
            Some(epoch.as_str()),
            Status::Ok,
            "unchanged",
        ),
        ("read", spoof, None, Status::Unauthorized, "refused"),
    ];
    net.trace().set_enabled(true);
    for (action, requester, if_epoch, status, verdict) in cases {
        let mut params = vec![
            ("host_token", host_token.as_str()),
            ("token", token.as_str()),
            ("resource", PHOTO),
            ("action", action),
            ("requester", requester),
        ];
        params.extend(if_epoch.map(|epoch| ("if_epoch", epoch)));
        net.trace().clear();
        let (got, body) = decision_at(&net, DECISION_V2_PATH, &params);
        assert_eq!(got, status, "{verdict}: {body}");
        let notes: Vec<String> = net
            .trace()
            .events()
            .into_iter()
            .filter(|e| e.kind == TraceKind::Note)
            .map(|e| e.label)
            .collect();
        let want = format!("PDP decision for {requester} on {PHOTO}: {verdict}");
        assert_eq!(notes, [want]);
    }
}

// ---------------------------------------------------------------------------
// Protocol v2 (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// Issues alice an authorization token over the web surface (IdP-backed).
fn issue_token(net: &SimNet, am: &AuthorizationManager) -> String {
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("alice", "pw");
    let assertion = idp.login("alice", "pw").unwrap();
    am.set_identity_verifier(idp.verifier());
    let resp = net.dispatch(
        "requester:editor",
        Request::new(Method::Post, "https://am.example/authorize")
            .with_param("host", HOST)
            .with_param("owner", "bob")
            .with_param("resource", PHOTO)
            .with_param("action", "read")
            .with_param("requester", "requester:editor")
            .with_param("subject_token", &assertion.token),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    resp.body
}

#[test]
fn v2_conditional_decision_collapses_to_unchanged() {
    use ucam_webenv::protocol::{UnchangedBody, DECISION_V2_PATH};
    let (net, am, host_token) = web_setup();
    let token = issue_token(&net, &am);
    let base: Vec<(&str, &str)> = vec![
        ("host_token", host_token.as_str()),
        ("token", token.as_str()),
        ("resource", PHOTO),
        ("action", "read"),
        ("requester", "requester:editor"),
    ];

    // Unconditional v2 query: byte-identical to the v1 verdict.
    let (status, full) = decision_at(&net, DECISION_V2_PATH, &base);
    assert_eq!(status, Status::Ok);
    assert!(full.contains("\"permit\""), "{full}");
    let epoch = am.policy_epoch("bob");

    // Conditional with the current epoch: the compact unchanged body.
    let mut cond = base.clone();
    let epoch_s = epoch.to_string();
    cond.push(("if_epoch", epoch_s.as_str()));
    let (status, body) = decision_at(&net, DECISION_V2_PATH, &cond);
    assert_eq!(status, Status::Ok);
    let unchanged = UnchangedBody::from_json(&body).expect("unchanged body parses");
    assert!(unchanged.cacheable_ms > 0, "{body}");
    assert!(
        body.len() < full.len(),
        "conditional reply ({}B) must undercut the full permit ({}B)",
        body.len(),
        full.len()
    );

    // A stale epoch gets the full verdict back — never a false "unchanged".
    let stale = (epoch - 1).to_string();
    let mut with_stale = base.clone();
    with_stale.push(("if_epoch", stale.as_str()));
    let (status, body) = decision_at(&net, DECISION_V2_PATH, &with_stale);
    assert_eq!(status, Status::Ok);
    assert_eq!(body, full, "stale if_epoch must re-ship the verdict");

    // Malformed if_epoch fails closed, and a deny never collapses.
    let mut bad = base.clone();
    bad.push(("if_epoch", "not-a-number"));
    let (status, body) = decision_at(&net, DECISION_V2_PATH, &bad);
    assert_eq!(status, Status::BadRequest, "{body}");
    let mut deny = base.clone();
    deny[3] = ("action", "write");
    deny.push(("if_epoch", epoch_s.as_str()));
    let (status, body) = decision_at(&net, DECISION_V2_PATH, &deny);
    assert_eq!(status, Status::Ok);
    assert!(body.contains("\"deny\""), "deny must ship in full: {body}");
}

#[test]
fn v2_conditional_decision_bumps_use_counts_like_v1() {
    // The conditional path answers from a full evaluation — a use-limited
    // policy must exhaust at the same rate whether replies collapse or not.
    let (am, host_token) = am_with_bob();
    am.pap("bob", |account| {
        account.add_group_member("friends", "alice");
        let id = account.create_policy(
            "two-reads",
            PolicyBody::Rules(
                RulePolicy::new().with_rule(
                    Rule::permit()
                        .for_subject(Subject::Group("friends".into()))
                        .for_action(Action::Read)
                        .with_condition(Condition::MaxUses(2)),
                ),
            ),
        );
        account
            .link_specific(ResourceRef::new(HOST, PHOTO), &id)
            .unwrap();
    })
    .unwrap();
    let AuthorizeOutcome::Token { token, .. } = am.authorize(&alice_request()) else {
        panic!("expected token");
    };

    let net = SimNet::new();
    let am = Arc::new(am);
    net.register(am.clone());
    let epoch = am.policy_epoch("bob").to_string();
    let params: Vec<(&str, &str)> = vec![
        ("host_token", host_token.as_str()),
        ("token", token.as_str()),
        ("resource", PHOTO),
        ("action", "read"),
        ("requester", "requester:editor"),
        ("if_epoch", epoch.as_str()),
    ];
    use ucam_webenv::protocol::DECISION_V2_PATH;
    let (_, first) = decision_at(&net, DECISION_V2_PATH, &params);
    assert!(first.contains("\"unchanged\""), "{first}");
    let (_, second) = decision_at(&net, DECISION_V2_PATH, &params);
    assert!(second.contains("\"unchanged\""), "{second}");
    let (_, third) = decision_at(&net, DECISION_V2_PATH, &params);
    assert!(
        third.contains("\"deny\""),
        "third use must exceed max_uses(2) exactly as on v1: {third}"
    );
}

#[test]
fn v2_batch_authorize_mixed_outcomes() {
    use ucam_webenv::protocol::{AuthorizeItem, AuthorizeReply, BATCH_AUTHORIZE_PATH};
    let (net, am, host_token) = web_setup();
    let idp = IdentityProvider::new("idp.example", net.clock().clone());
    idp.register_user("alice", "pw");
    let assertion = idp.login("alice", "pw").unwrap();
    am.set_identity_verifier(idp.verifier());

    let items = vec![
        AuthorizeItem {
            owner: "bob".into(),
            resource: PHOTO.into(),
            action: "read".into(),
        },
        AuthorizeItem {
            owner: "bob".into(),
            resource: "photo-unlinked".into(),
            action: "read".into(),
        },
    ];
    let resp = net.dispatch(
        "requester:editor",
        Request::new(
            Method::Post,
            &format!("https://am.example{BATCH_AUTHORIZE_PATH}"),
        )
        .with_param("host", HOST)
        .with_param("requester", "requester:editor")
        .with_param("subject_token", &assertion.token)
        .with_body(ucam_webenv::protocol::encode_authorize_request(&items)),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    let replies = ucam_webenv::protocol::parse_authorize_response(&resp.body).unwrap();
    assert_eq!(replies.len(), 2);
    let AuthorizeReply::Token(token) = &replies[0] else {
        panic!("item 0 should mint a token: {:?}", replies[0]);
    };
    assert!(matches!(&replies[1], AuthorizeReply::Denied(_)));

    // The minted token is a real one: it answers a decision query.
    let decision = am
        .decide(&DecisionQuery {
            host_token: &host_token,
            authz_token: token,
            resource_id: PHOTO,
            action: Action::Read,
            requester: "requester:editor",
        })
        .unwrap();
    assert!(decision.is_permit());

    // Malformed bodies fail closed — no partial processing.
    for bad in ["", "{", "[{\"owner\":1}]", "[{}]"] {
        let resp = net.dispatch(
            "requester:editor",
            Request::new(
                Method::Post,
                &format!("https://am.example{BATCH_AUTHORIZE_PATH}"),
            )
            .with_param("host", HOST)
            .with_param("requester", "requester:editor")
            .with_body(bad),
        );
        assert_eq!(
            resp.status,
            Status::BadRequest,
            "body {bad:?}: {}",
            resp.body
        );
    }
}

#[test]
fn v2_registration_lifecycle_register_rotate_delegate_deregister() {
    use ucam_webenv::protocol::{
        DelegateReply, RegisterBody, RegistrationReply, DELEGATE_V2_PATH, REGISTER_DEREGISTER_PATH,
        REGISTER_PATH, REGISTER_ROTATE_PATH,
    };
    let (net, am, _) = web_setup();
    let at = |path: &str| format!("https://am.example{path}");

    // Register a new Host at runtime.
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(REGISTER_PATH)).with_body(
            RegisterBody {
                kind: "host".into(),
                authority: "newhost.example".into(),
            }
            .to_json(),
        ),
    );
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    let reg = RegistrationReply::from_json(&resp.body).unwrap();

    // Rotate: the old secret dies with the response.
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(REGISTER_ROTATE_PATH))
            .with_param("registrant_id", &reg.registrant_id)
            .with_param("secret", &reg.secret),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    let rotated = RegistrationReply::from_json(&resp.body).unwrap();
    assert_ne!(rotated.secret, reg.secret);
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(DELEGATE_V2_PATH))
            .with_param("registrant_id", &reg.registrant_id)
            .with_param("secret", &reg.secret)
            .with_param("user", "bob"),
    );
    assert_eq!(resp.status, Status::Unauthorized, "stale secret must die");

    // Delegate with the fresh secret: a live host token comes back and
    // the push subscription rides the same round trip.
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(DELEGATE_V2_PATH))
            .with_param("registrant_id", &rotated.registrant_id)
            .with_param("secret", &rotated.secret)
            .with_param("user", "bob")
            .with_param("subscribe", "1"),
    );
    assert_eq!(resp.status, Status::Created, "{}", resp.body);
    let delegated = DelegateReply::from_json(&resp.body).unwrap();
    let grant = am.check_host_token(&delegated.host_token).unwrap();
    assert_eq!(grant.host, "newhost.example");
    assert_eq!(grant.user, "bob");
    assert_eq!(grant.delegation_id, delegated.delegation_id);

    // Unknown users and non-host registrants are refused.
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(DELEGATE_V2_PATH))
            .with_param("registrant_id", &rotated.registrant_id)
            .with_param("secret", &rotated.secret)
            .with_param("user", "nobody"),
    );
    assert_eq!(resp.status, Status::BadRequest, "{}", resp.body);
    let resp = net.dispatch(
        "req.example",
        Request::new(Method::Post, &at(REGISTER_PATH)).with_body(
            RegisterBody {
                kind: "requester".into(),
                authority: "req.example".into(),
            }
            .to_json(),
        ),
    );
    let requester_reg = RegistrationReply::from_json(&resp.body).unwrap();
    let resp = net.dispatch(
        "req.example",
        Request::new(Method::Post, &at(DELEGATE_V2_PATH))
            .with_param("registrant_id", &requester_reg.registrant_id)
            .with_param("secret", &requester_reg.secret)
            .with_param("user", "bob"),
    );
    assert_eq!(resp.status, Status::Forbidden, "{}", resp.body);

    // Deregister: management credentials die, existing delegations live.
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(REGISTER_DEREGISTER_PATH))
            .with_param("registrant_id", &rotated.registrant_id)
            .with_param("secret", &rotated.secret),
    );
    assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    let resp = net.dispatch(
        "newhost.example",
        Request::new(Method::Post, &at(DELEGATE_V2_PATH))
            .with_param("registrant_id", &rotated.registrant_id)
            .with_param("secret", &rotated.secret)
            .with_param("user", "bob"),
    );
    assert_eq!(resp.status, Status::Unauthorized);
    assert!(
        am.check_host_token(&delegated.host_token).is_ok(),
        "deregistration must not revoke live delegations"
    );

    // Malformed registration bodies fail closed.
    for bad in ["", "{}", "{\"kind\":\"other\",\"authority\":\"x\"}"] {
        let resp = net.dispatch(
            "x",
            Request::new(Method::Post, &at(REGISTER_PATH)).with_body(bad),
        );
        assert_eq!(resp.status, Status::BadRequest, "body {bad:?}");
    }
}

// ---------------------------------------------------------------------------
// Compiled pushes agree with `decide`
// ---------------------------------------------------------------------------

/// Stands at the Host's authority and records the body of every epoch
/// push the AM delivers.
struct PushCapture {
    bodies: Mutex<Vec<String>>,
}

impl WebApp for PushCapture {
    fn authority(&self) -> &str {
        HOST
    }

    fn handle(&self, _net: &dyn Transport, req: &Request) -> Response {
        if req.url.path() == protocol::EPOCH_PUSH_PATH && !req.body.is_empty() {
            self.bodies.lock().unwrap().push(req.body.clone());
        }
        Response::ok().with_body("epoch noted")
    }
}

/// One access tuple a compiled push may name.
struct PushTuple {
    token: String,
    requester: &'static str,
    resource: &'static str,
    action: Action,
}

impl PushTuple {
    fn fingerprint(&self) -> protocol::SieveFingerprint {
        protocol::sieve_fingerprint(
            &self.token,
            self.resource,
            &self.action.to_string(),
            self.requester,
        )
    }

    fn query<'a>(&'a self, host_token: &'a str) -> DecisionQuery<'a> {
        DecisionQuery {
            host_token,
            authz_token: &self.token,
            resource_id: self.resource,
            action: self.action.clone(),
            requester: self.requester,
        }
    }
}

/// Every resource the push rig's owner holds at `HOST`.
const PUSH_RESOURCES: [&str; 8] = [
    "album/1", "album/2", "doc", "shared", "guarded", "paid", "dated", "counted",
];

/// The `dated` grant's deadline: after the sieve half's compile, and
/// before that compile's cache TTL runs out, so it bounds the entry.
const DATED_UNTIL_MS: u64 = AUTHZ_TOKEN_TTL_MS + 30_000;

/// Bob, delegated to `HOST`, under one policy of every kind a compiled
/// push must agree with `decide` on: a realm grant (`album/*`), a
/// per-resource policy (`doc`), a group subject (`shared`), a consent
/// gate (`guarded`), a claims gate (`paid`), a deadline (`dated`) and a
/// use limit (`counted`). The use limit is far off: `decide` bumps use
/// counts, which must not move later answers.
struct PushRig {
    net: SimNet,
    am: Arc<AuthorizationManager>,
    capture: Arc<PushCapture>,
    host_token: String,
    payments: ClaimIssuer,
}

impl PushRig {
    fn new() -> Self {
        let net = SimNet::new();
        let am = Arc::new(AuthorizationManager::new("am.example", net.clock().clone()));
        let capture = Arc::new(PushCapture {
            bodies: Mutex::new(Vec::new()),
        });
        net.register(am.clone());
        net.register(capture.clone());
        am.register_user("bob");
        let (_, host_token) = am.establish_delegation(HOST, "bob").unwrap();
        let payments = ClaimIssuer::new("payments.example");
        am.trust_claim_issuer(&payments);
        let read_for =
            |subject: Subject| Rule::permit().for_subject(subject).for_action(Action::Read);
        am.pap("bob", |account| {
            let mut policy = |name: &str, rule: Rule| {
                account.create_policy(name, PolicyBody::Rules(RulePolicy::new().with_rule(rule)))
            };
            let album = policy("album", read_for(Subject::User("alice".into())));
            let public = policy("public", read_for(Subject::Public));
            let friends = policy("friends", read_for(Subject::Group("friends".into())));
            let gate = policy(
                "gate",
                read_for(Subject::User("dave".into())).with_condition(Condition::RequiresConsent),
            );
            let paid = policy(
                "paid",
                read_for(Subject::Public).with_condition(Condition::RequiresClaims(vec![
                    ClaimRequirement::from_issuer("payment", "payments.example"),
                ])),
            );
            let dated = policy(
                "dated",
                read_for(Subject::User("erin".into()))
                    .with_condition(Condition::ValidUntil(DATED_UNTIL_MS)),
            );
            let counted = policy(
                "counted",
                read_for(Subject::User("frank".into())).with_condition(Condition::MaxUses(100)),
            );
            account.add_group_member("friends", "carol");
            account.assign_realm(ResourceRef::new(HOST, "album/1"), "album");
            account.assign_realm(ResourceRef::new(HOST, "album/2"), "album");
            account.link_general("album", &album).unwrap();
            for (resource, id) in [
                ("doc", &public),
                ("shared", &friends),
                ("guarded", &gate),
                ("paid", &paid),
                ("dated", &dated),
                ("counted", &counted),
            ] {
                account
                    .link_specific(ResourceRef::new(HOST, resource), id)
                    .unwrap();
            }
        })
        .unwrap();
        PushRig {
            net,
            am,
            capture,
            host_token,
            payments,
        }
    }

    /// Issues a read token for `requester` (driven by `subject`) on
    /// `resource`.
    fn token(
        &self,
        resource: &'static str,
        requester: &'static str,
        subject: Option<&str>,
    ) -> PushTuple {
        let mut req = AuthorizeRequest::new(HOST, "bob", resource, Action::Read, requester);
        req.subject = subject.map(str::to_owned);
        if resource == "paid" {
            req = req.with_claim_token(&self.payments.issue("payment", "ref-1"));
        }
        let outcome = self.am.authorize(&req);
        let AuthorizeOutcome::Token { token, .. } = outcome else {
            panic!("expected a token for {resource}: {outcome:?}");
        };
        PushTuple {
            token,
            requester,
            resource,
            action: Action::Read,
        }
    }

    /// One token per policy kind (Bob grants Dave's consent first).
    fn tokens(&self) -> Vec<PushTuple> {
        let parked = self.am.authorize(
            &AuthorizeRequest::new(HOST, "bob", "guarded", Action::Read, "requester:dave-app")
                .with_subject("dave"),
        );
        let AuthorizeOutcome::PendingConsent { consent_id } = parked else {
            panic!("expected pending consent: {parked:?}");
        };
        self.am.grant_consent(&consent_id).unwrap();
        vec![
            self.token("album/1", "requester:alice-app", Some("alice")),
            self.token("doc", "requester:anon", None),
            self.token("shared", "requester:carol-app", Some("carol")),
            self.token("guarded", "requester:dave-app", Some("dave")),
            self.token("paid", "requester:buyer", None),
            self.token("dated", "requester:erin-app", Some("erin")),
            self.token("counted", "requester:frank-app", Some("frank")),
        ]
    }

    /// Subscribes `HOST` to Bob's pushes, runs `trigger`, pumps, and
    /// returns the last pushed body.
    fn push(&self, trigger: impl FnOnce()) -> String {
        self.am.subscribe_epoch_push(HOST, "bob");
        trigger();
        assert_eq!(self.am.pump_epoch_pushes(&self.net), 1);
        self.capture
            .bodies
            .lock()
            .unwrap()
            .pop()
            .expect("a push body")
    }
}

/// Every entry of a full sieve body is a cacheable permit `decide`
/// agrees with.
#[test]
fn compiled_pushes_agree_with_decide() {
    let rig = PushRig::new();
    // A token that expires before the compile must not be listed.
    let expired = rig.token("doc", "requester:early", None);
    rig.net.clock().advance_ms(AUTHZ_TOKEN_TTL_MS + 1);
    let issued = rig.tokens();

    let body = rig.push(|| rig.am.schedule_sieve_refresh());
    let sieve = SieveBody::from_json(&body).unwrap();
    assert!(sieve.verify(rig.host_token.as_bytes()));

    // Every tuple the issued tokens could name, by fingerprint.
    let mut known = HashMap::new();
    for t in issued.iter().chain([&expired]) {
        for resource in PUSH_RESOURCES {
            for action in Action::BUILTIN {
                let tuple = PushTuple {
                    token: t.token.clone(),
                    requester: t.requester,
                    resource,
                    action,
                };
                known.insert(tuple.fingerprint(), tuple);
            }
        }
    }
    // Each entry must be a cacheable permit `decide` agrees with, and
    // expire no later than that permit's cache lifetime. (Only this
    // direction holds: a realm token also passes `decide` outside its
    // realm, which the compiler never lists.)
    let now = rig.net.clock().now_ms();
    let mut covered = HashSet::new();
    for entry in &sieve.entries {
        let tuple = known
            .get(&entry.fingerprint)
            .expect("every entry names an issued tuple");
        assert_eq!(entry.resource, tuple.resource);
        match rig.am.decide(&tuple.query(&rig.host_token)) {
            Ok(Decision::Permit { cacheable_ms, .. }) => {
                assert!(cacheable_ms > 0, "{} {}", tuple.requester, tuple.resource);
                assert!(entry.expires_at_ms <= now + cacheable_ms);
                if tuple.resource == "dated" {
                    assert!(
                        entry.expires_at_ms <= DATED_UNTIL_MS,
                        "outlives its deadline"
                    );
                }
            }
            other => panic!(
                "sieve lists {} {} for {}; decide says {other:?}",
                tuple.action, tuple.resource, tuple.requester
            ),
        }
        covered.insert(tuple.resource);
    }
    // Every policy kind contributed, the realm grant for both members —
    // except the use limit: each use must reach `decide` to be counted.
    assert!(!covered.contains("counted"), "{covered:?}");
    assert_eq!(covered.len(), PUSH_RESOURCES.len() - 1, "{covered:?}");
}
