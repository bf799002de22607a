//! Shared Web plumbing for the concrete Host applications.
//!
//! Every Host in the paper exposes the same protocol-facing surface:
//! delegation setup (Fig. 3), the "Share …" redirect to the AM's policy
//! editor (Fig. 4), and PEP enforcement on resource routes (Figs. 5–6).
//! [`AppShell`] implements that surface once; WebPics, WebStorage and
//! WebDocs embed a shell and add their domain routes.

use parking_lot::RwLock;

use ucam_policy::{Action, Subject};
use ucam_webenv::identity::IdentityVerifier;
use ucam_webenv::{protocol, Request, Response, SimClock, Status, Transport, Url};

use crate::core::{DelegationConfig, Enforcement, HostCore, SieveDeltaOutcome};

/// The common Host application shell.
pub struct AppShell {
    /// The framework core (resources + PEP).
    pub core: HostCore,
    idp: RwLock<Option<IdentityVerifier>>,
}

impl std::fmt::Debug for AppShell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppShell")
            .field("core", &self.core)
            .finish()
    }
}

impl AppShell {
    /// Creates a shell for a host at `authority`.
    #[must_use]
    pub fn new(authority: &str, clock: SimClock) -> Self {
        AppShell {
            core: HostCore::new(authority, clock),
            idp: RwLock::new(None),
        }
    }

    /// Configures the identity provider whose assertions this host accepts
    /// for user sessions.
    pub fn set_identity_verifier(&self, verifier: IdentityVerifier) {
        *self.idp.write() = Some(verifier);
    }

    /// Resolves the authenticated user behind `req`, from the
    /// `subject_token` parameter or the `ident` cookie (both carry IdP
    /// assertions).
    #[must_use]
    pub fn subject_of(&self, req: &Request) -> Option<String> {
        let token = req
            .param("subject_token")
            .map(str::to_owned)
            .or_else(|| req.cookie("ident").map(str::to_owned))?;
        self.idp.read().as_ref()?.verify(&token).ok()
    }

    /// The requester label for `req`: the `x-requester` header when the
    /// caller is an application, else a browser label derived from the
    /// session, else anonymous.
    #[must_use]
    pub fn requester_of(req: &Request, subject: Option<&str>) -> String {
        if let Some(r) = req.header("x-requester") {
            return r.to_owned();
        }
        match subject {
            Some(user) => format!("browser:{user}"),
            None => "browser:anonymous".to_owned(),
        }
    }

    /// Handles the shared routes; returns `None` when `req` is not one of
    /// them (the app then tries its domain routes).
    #[must_use]
    pub fn route_common(&self, net: &dyn Transport, req: &Request) -> Option<Response> {
        match req.url.path() {
            "/delegate/setup" => Some(self.delegate_setup(req)),
            "/delegate/done" => Some(self.delegate_done(req)),
            "/share" => Some(self.share(req)),
            "/shared" => {
                Some(Response::ok().with_body("policy linked at your authorization manager"))
            }
            "/acl" => Some(self.edit_acl(net, req)),
            "/.well-known/host-meta" => Some(self.host_meta(req)),
            p if p == protocol::EPOCH_PUSH_PATH => Some(self.epoch_push(req)),
            _ => None,
        }
    }

    /// AM→Host policy-epoch push (`/protection/v1/epoch`): advances the
    /// decision cache's view of `owner`'s policy epoch. The plain epoch
    /// parameters are unauthenticated by design — epochs are monotonic,
    /// so a forged push can only invalidate cached permits, never grant
    /// anything. A push may also carry a compiled capability sieve in its
    /// body (DESIGN.md §12); that *raises* trust, so it is HMAC-signed
    /// and [`HostCore::install_sieve`] verifies it fail-closed. A body
    /// that fails to parse or verify is silently dropped — the epoch note
    /// above already happened, so the Host is never left trusting
    /// anything a bad body claimed.
    fn epoch_push(&self, req: &Request) -> Response {
        let Some(owner) = req.param("owner") else {
            return Response::bad_request("owner required");
        };
        let Some(epoch) = req.param("epoch").and_then(|e| e.parse::<u64>().ok()) else {
            return Response::bad_request("numeric epoch required");
        };
        // One parse tells the two body kinds apart (their field sets are
        // disjoint).
        let body = if req.body.is_empty() {
            None
        } else {
            protocol::parse_push_body(&req.body).ok()
        };
        match body {
            Some(protocol::PushBody::Delta(delta)) => {
                // A delta must apply *before* the plain epoch note:
                // noting first would purge the very base the delta
                // builds on.
                let outcome = self.core.install_sieve_delta(&delta);
                self.core.note_policy_epoch(owner, epoch);
                match outcome {
                    SieveDeltaOutcome::BaseMismatch => {
                        // Delivery confirmed, delta refused: ask the AM
                        // for a full-body reship.
                        Response::ok().with_body(protocol::SIEVE_RESYNC)
                    }
                    // A rejected delta is dropped fail-closed, exactly
                    // like a rejected full body — silently.
                    SieveDeltaOutcome::Installed | SieveDeltaOutcome::Rejected => {
                        Response::ok().with_body("epoch noted")
                    }
                }
            }
            body => {
                self.core.note_policy_epoch(owner, epoch);
                if let Some(protocol::PushBody::Sieve(sieve)) = body {
                    self.core.install_sieve(&sieve);
                }
                Response::ok().with_body("epoch noted")
            }
        }
    }

    /// XRD/LRDD-based discovery (§VII): "a Requester learns the location
    /// of the correct AM and orchestrates the flow". The host publishes,
    /// per resource, an XRD document linking to the protecting AM.
    fn host_meta(&self, req: &Request) -> Response {
        let Some(resource_id) = req.param("resource") else {
            return Response::bad_request("resource required");
        };
        let Some(resource) = self.core.resource(resource_id) else {
            return Response::not_found(resource_id);
        };
        let mut xrd = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<XRD>\n");
        xrd.push_str(&format!(
            "  <Subject>https://{}/{}</Subject>\n",
            self.core.authority(),
            resource_id
        ));
        xrd.push_str(&format!(
            "  <Property type=\"owner\">{}</Property>\n",
            resource.owner
        ));
        if let Some(delegation) = self.core.delegation_for(resource_id, &resource.owner) {
            xrd.push_str(&format!(
                "  <Link rel=\"authorization-manager\" href=\"https://{}/authorize\"/>\n",
                delegation.am
            ));
        }
        xrd.push_str("</XRD>\n");
        Response::ok()
            .with_header("content-type", "application/xrd+xml")
            .with_body(xrd)
    }

    /// Fig. 3 step 1: the User provides the URL of their preferred AM; the
    /// Host redirects them there to confirm the delegation.
    fn delegate_setup(&self, req: &Request) -> Response {
        let (user, am) = match (req.param("user"), req.param("am")) {
            (Some(u), Some(a)) => (u, a),
            _ => return Response::bad_request("user and am required"),
        };
        let back = Url::new(self.core.authority(), "/delegate/done")
            .with_query("user", user)
            .with_query("am", am);
        let target = Url::new(am, "/delegate")
            .with_query("host", self.core.authority())
            .with_query("user", user)
            .with_query("return", &back.to_string());
        Response::redirect(&target)
    }

    /// Fig. 3 step 3: the AM redirected the User back with the host access
    /// token; the Host stores the delegation. With an IdP configured only
    /// that user's own session may store it (401 without a session, 403
    /// for anyone else); without one the route stays open, like the AM's
    /// owner routes.
    fn delegate_done(&self, req: &Request) -> Response {
        let fields = (
            req.param("user"),
            req.param("am"),
            req.param("host_token"),
            req.param("delegation_id"),
        );
        let (user, am, token, delegation_id) = match fields {
            (Some(u), Some(a), Some(t), Some(d)) => (u, a, t, d),
            _ => return Response::bad_request("user, am, host_token, delegation_id required"),
        };
        if !is_bare_authority(am) {
            return Response::bad_request("am must be a bare authority");
        }
        if self.idp.read().is_some() {
            match self.require_subject(req) {
                Err(resp) => return resp,
                Ok(subject) if subject != user => {
                    return Response::forbidden(&format!("{subject} may not delegate for {user}"));
                }
                Ok(_) => {}
            }
        }
        self.core.set_user_delegation(
            user,
            DelegationConfig {
                am: am.to_owned(),
                host_token: token.to_owned(),
                delegation_id: delegation_id.to_owned(),
            },
        );
        Response::ok().with_body(format!(
            "access control for {user} on {} now delegated to {am}",
            self.core.authority()
        ))
    }

    /// Fig. 4: clicking "Share" on a delegated resource redirects the User
    /// to the AM's policy editor instead of a local configuration menu.
    fn share(&self, req: &Request) -> Response {
        let resource_id = match req.param("resource") {
            Some(r) => r,
            None => return Response::bad_request("resource required"),
        };
        let Some(resource) = self.core.resource(resource_id) else {
            return Response::not_found(resource_id);
        };
        match self.core.delegation_for(resource_id, &resource.owner) {
            Some(delegation) => {
                let back = Url::new(self.core.authority(), "/shared");
                let mut target = Url::new(&delegation.am, "/compose")
                    .with_query("owner", &resource.owner)
                    .with_query("host", self.core.authority())
                    .with_query("resource", resource_id)
                    .with_query("return", &back.to_string());
                // Pass through policy-linking parameters chosen in the UI.
                for key in ["policy", "realm", "general"] {
                    if let Some(v) = req.param(key) {
                        target = target.with_query(key, v);
                    }
                }
                Response::redirect(&target)
            }
            None => Response::ok()
                .with_body("resource is not delegated; use the built-in sharing menu (/acl)"),
        }
    }

    /// The built-in sharing menu of the status quo (§III): the owner edits
    /// the host-local ACL for one resource.
    fn edit_acl(&self, _net: &dyn Transport, req: &Request) -> Response {
        let subject_user = self.subject_of(req);
        let (resource_id, grantee, action) = match (
            req.param("resource"),
            req.param("grantee"),
            req.param("action"),
        ) {
            (Some(r), Some(g), Some(a)) => (r, g, a),
            _ => return Response::bad_request("resource, grantee, action required"),
        };
        let Some(resource) = self.core.resource(resource_id) else {
            return Response::not_found(resource_id);
        };
        if subject_user.as_deref() != Some(resource.owner.as_str()) {
            return Response::forbidden("only the owner may edit sharing");
        }
        let grantee_subject = parse_subject(grantee);
        let action = parse_action(action);
        let mut acl = self.core.legacy_acl(resource_id).unwrap_or_default();
        acl.insert(grantee_subject, action);
        self.core.set_legacy_acl(resource_id, acl);
        Response::ok().with_body("acl updated")
    }

    /// Runs the PEP for a resource route. On grant returns `Ok(subject)`;
    /// otherwise the response to send (redirect to AM, 403, 404, …).
    ///
    /// # Errors
    ///
    /// Returns the blocking [`Response`] when access is not granted.
    pub fn enforce_web(
        &self,
        net: &dyn Transport,
        req: &Request,
        resource_id: &str,
        action: &Action,
    ) -> Result<Option<String>, Response> {
        let subject = self.subject_of(req);
        // Borrow the requester label straight from the header on the warm
        // application path; only browser sessions need an owned label.
        let browser_label;
        let requester = match req.header("x-requester") {
            Some(r) => r,
            None => {
                browser_label = Self::requester_of(req, subject.as_deref());
                browser_label.as_str()
            }
        };
        match self.core.enforce(
            net,
            requester,
            subject.as_deref(),
            resource_id,
            action,
            req.bearer_token(),
            &req.url,
        ) {
            Enforcement::Grant => Ok(subject),
            Enforcement::Block(resp) => Err(resp),
        }
    }

    /// Convenience: requires an authenticated session, for owner-only
    /// routes like uploads.
    ///
    /// # Errors
    ///
    /// Returns `401 Unauthorized` when no valid session is attached.
    pub fn require_subject(&self, req: &Request) -> Result<String, Response> {
        self.subject_of(req)
            .ok_or_else(|| Response::with_status(Status::Unauthorized).with_body("login required"))
    }
}

/// Whether `am` can stand as a URL's authority by itself: non-empty, with
/// no path, query or fragment delimiter and no whitespace.
fn is_bare_authority(am: &str) -> bool {
    !am.is_empty()
        && !am
            .chars()
            .any(|c| matches!(c, '/' | '?' | '#') || c.is_whitespace())
}

fn parse_subject(spec: &str) -> Subject {
    match spec.split_once(':') {
        Some(("user", name)) => Subject::User(name.to_owned()),
        Some(("group", name)) => Subject::Group(name.to_owned()),
        Some(("app", name)) => Subject::App(name.to_owned()),
        _ if spec == "public" => Subject::Public,
        _ if spec == "authenticated" => Subject::Authenticated,
        _ => Subject::User(spec.to_owned()),
    }
}

/// Parses an action name, defaulting unknown names to custom actions.
#[must_use]
pub fn parse_action(name: &str) -> Action {
    match name {
        "read" => Action::Read,
        "write" => Action::Write,
        "delete" => Action::Delete,
        "list" => Action::List,
        "share" => Action::Share,
        other => Action::Custom(other.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::Method;
    use ucam_webenv::SimNet;

    fn shell_with_idp() -> (AppShell, IdentityProvider) {
        let clock = SimClock::new();
        let shell = AppShell::new("h.example", clock.clone());
        let idp = IdentityProvider::new("idp.example", clock);
        idp.register_user("bob", "pw");
        shell.set_identity_verifier(idp.verifier());
        (shell, idp)
    }

    #[test]
    fn subject_from_param_and_cookie() {
        let (shell, idp) = shell_with_idp();
        let assertion = idp.login("bob", "pw").unwrap();
        let via_param = Request::new(Method::Get, "https://h.example/x")
            .with_param("subject_token", &assertion.token);
        assert_eq!(shell.subject_of(&via_param).as_deref(), Some("bob"));
        let via_cookie = Request::new(Method::Get, "https://h.example/x")
            .with_header("cookie", &format!("ident={}", assertion.token));
        assert_eq!(shell.subject_of(&via_cookie).as_deref(), Some("bob"));
        let forged = Request::new(Method::Get, "https://h.example/x")
            .with_param("subject_token", "fake.token");
        assert_eq!(shell.subject_of(&forged), None);
    }

    #[test]
    fn subject_none_without_idp() {
        let shell = AppShell::new("h.example", SimClock::new());
        let req = Request::new(Method::Get, "https://h.example/x")
            .with_param("subject_token", "anything");
        assert_eq!(shell.subject_of(&req), None);
    }

    #[test]
    fn requester_label_priority() {
        let req = Request::new(Method::Get, "https://h.example/x")
            .with_header("x-requester", "requester:printer");
        assert_eq!(
            AppShell::requester_of(&req, Some("bob")),
            "requester:printer"
        );
        let plain = Request::new(Method::Get, "https://h.example/x");
        assert_eq!(AppShell::requester_of(&plain, Some("bob")), "browser:bob");
        assert_eq!(AppShell::requester_of(&plain, None), "browser:anonymous");
    }

    #[test]
    fn delegate_setup_redirects_to_am() {
        let (shell, _) = shell_with_idp();
        let net = SimNet::new();
        let req = Request::new(Method::Get, "https://h.example/delegate/setup")
            .with_param("user", "bob")
            .with_param("am", "am.example");
        let resp = shell.route_common(&net, &req).unwrap();
        assert_eq!(resp.status, Status::Found);
        let loc = resp.location().unwrap();
        assert_eq!(loc.authority(), "am.example");
        assert_eq!(loc.path(), "/delegate");
        assert_eq!(loc.query("host"), Some("h.example"));
        assert!(loc.query("return").unwrap().contains("/delegate/done"));
    }

    /// A Fig. 3 step-3 return for bob, delegating to `am`.
    fn delegate_done_for_bob(am: &str) -> Request {
        Request::new(Method::Get, "https://h.example/delegate/done")
            .with_param("user", "bob")
            .with_param("am", am)
            .with_param("host_token", "ht-1")
            .with_param("delegation_id", "d-1")
    }

    #[test]
    fn delegate_done_stores_config() {
        let (shell, idp) = shell_with_idp();
        let net = SimNet::new();
        let bob = idp.login("bob", "pw").unwrap();
        let req = delegate_done_for_bob("am.example").with_param("subject_token", &bob.token);
        let resp = shell.route_common(&net, &req).unwrap();
        assert_eq!(resp.status, Status::Ok);
        let config = shell.core.delegation_for("any", "bob").unwrap();
        assert_eq!(config.am, "am.example");
        assert_eq!(config.host_token, "ht-1");
    }

    #[test]
    fn delegate_done_requires_the_users_own_session() {
        let (shell, idp) = shell_with_idp();
        idp.register_user("alice", "pw");
        let net = SimNet::new();
        let stored = |shell: &AppShell| shell.core.delegation_for("any", "bob").map(|d| d.am);

        // Anonymous: 401, nothing stored.
        let anonymous = delegate_done_for_bob("evil-am.example");
        let resp = shell.route_common(&net, &anonymous).unwrap();
        assert_eq!(resp.status, Status::Unauthorized);
        assert_eq!(stored(&shell), None);

        // Alice's session cannot re-point bob's delegation: 403.
        let alice = idp.login("alice", "pw").unwrap();
        let as_alice = delegate_done_for_bob("evil-am.example")
            .with_header("cookie", &format!("ident={}", alice.token));
        let resp = shell.route_common(&net, &as_alice).unwrap();
        assert_eq!(resp.status, Status::Forbidden);
        assert_eq!(stored(&shell), None);

        // Bob's own session stores it.
        let bob = idp.login("bob", "pw").unwrap();
        let as_bob = delegate_done_for_bob("am.example")
            .with_header("cookie", &format!("ident={}", bob.token));
        let resp = shell.route_common(&net, &as_bob).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(stored(&shell).as_deref(), Some("am.example"));
    }

    #[test]
    fn delegate_done_is_open_without_an_idp() {
        let shell = AppShell::new("h.example", SimClock::new());
        let net = SimNet::new();
        let resp = shell
            .route_common(&net, &delegate_done_for_bob("am.example"))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(shell.core.delegation_for("any", "bob").is_some());
    }

    /// An `am` that cannot stand as a URL authority by itself is refused
    /// before anything is stored, with or without a session.
    #[test]
    fn delegate_done_refuses_an_am_that_is_not_a_bare_authority() {
        let (shell, idp) = shell_with_idp();
        let open = AppShell::new("h.example", SimClock::new());
        let net = SimNet::new();
        let bob = idp.login("bob", "pw").unwrap();
        for am in [
            "",
            "am.example/x",
            "am.example?x=1",
            "am.example#x",
            "am example",
            " am.example",
            "am.example\t",
            "am.example\n",
        ] {
            let as_bob = delegate_done_for_bob(am).with_param("subject_token", &bob.token);
            for (shell, req) in [(&shell, as_bob), (&open, delegate_done_for_bob(am))] {
                let resp = shell.route_common(&net, &req).unwrap();
                assert_eq!(resp.status, Status::BadRequest, "am {am:?}");
                assert!(
                    shell.core.delegation_for("any", "bob").is_none(),
                    "am {am:?}"
                );
            }
        }
    }

    #[test]
    fn share_redirects_to_compose_for_delegated() {
        let (shell, _) = shell_with_idp();
        shell
            .core
            .put_resource("r1", "bob", "file", vec![])
            .unwrap();
        shell.core.set_user_delegation(
            "bob",
            DelegationConfig {
                am: "am.example".into(),
                host_token: "t".into(),
                delegation_id: "d".into(),
            },
        );
        let net = SimNet::new();
        let req = Request::new(Method::Get, "https://h.example/share")
            .with_param("resource", "r1")
            .with_param("policy", "p-1");
        let resp = shell.route_common(&net, &req).unwrap();
        assert_eq!(resp.status, Status::Found);
        let loc = resp.location().unwrap();
        assert_eq!(loc.path(), "/compose");
        assert_eq!(loc.query("policy"), Some("p-1"));
        assert_eq!(loc.query("owner"), Some("bob"));
    }

    #[test]
    fn share_falls_back_for_undelegated() {
        let (shell, _) = shell_with_idp();
        shell
            .core
            .put_resource("r1", "bob", "file", vec![])
            .unwrap();
        let net = SimNet::new();
        let req = Request::new(Method::Get, "https://h.example/share").with_param("resource", "r1");
        let resp = shell.route_common(&net, &req).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("built-in"));
    }

    #[test]
    fn acl_edit_owner_only() {
        let (shell, idp) = shell_with_idp();
        idp.register_user("mallory", "pw");
        shell
            .core
            .put_resource("r1", "bob", "file", vec![])
            .unwrap();
        let net = SimNet::new();

        let bob = idp.login("bob", "pw").unwrap();
        let ok = Request::new(Method::Post, "https://h.example/acl")
            .with_param("subject_token", &bob.token)
            .with_param("resource", "r1")
            .with_param("grantee", "user:alice")
            .with_param("action", "read");
        assert_eq!(shell.route_common(&net, &ok).unwrap().status, Status::Ok);
        assert_eq!(shell.core.legacy_acl("r1").unwrap().len(), 1);

        let mallory = idp.login("mallory", "pw").unwrap();
        let bad = Request::new(Method::Post, "https://h.example/acl")
            .with_param("subject_token", &mallory.token)
            .with_param("resource", "r1")
            .with_param("grantee", "user:mallory")
            .with_param("action", "read");
        assert_eq!(
            shell.route_common(&net, &bad).unwrap().status,
            Status::Forbidden
        );
    }

    #[test]
    fn parse_subject_forms() {
        assert_eq!(parse_subject("public"), Subject::Public);
        assert_eq!(parse_subject("authenticated"), Subject::Authenticated);
        assert_eq!(parse_subject("user:a"), Subject::User("a".into()));
        assert_eq!(parse_subject("group:g"), Subject::Group("g".into()));
        assert_eq!(parse_subject("app:x"), Subject::App("x".into()));
        assert_eq!(parse_subject("bare"), Subject::User("bare".into()));
    }

    #[test]
    fn require_subject_401s_without_session() {
        let (shell, _) = shell_with_idp();
        let req = Request::new(Method::Get, "https://h.example/x");
        let err = shell.require_subject(&req).unwrap_err();
        assert_eq!(err.status, Status::Unauthorized);
    }
}
