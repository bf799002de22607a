//! Shared Web plumbing for the concrete Host applications.
//!
//! Every Host in the paper exposes the same protocol-facing surface:
//! delegation setup (Fig. 3), the "Share …" redirect to the AM's policy
//! editor (Fig. 4), and PEP enforcement on resource routes (Figs. 5–6).
//! [`AppShell`] implements that surface once; WebPics, WebStorage, WebDocs
//! and WebVideos embed a shell and add their domain routes.
//!
//! Routes are data (DESIGN.md §17). Each app declares one table of
//! `Route` rows, and the shell declares the common rows every Host
//! serves first. A row names the method it matches (`None`: any), its
//! path (one ending in `/` matches as a prefix), its `Caller` class and
//! its handler. One dispatcher, `AppShell::serve`, checks the row's class
//! before the handler runs and hands the handler the principal it found
//! in a `Call`, so no handler authenticates anyone itself. A Host acting
//! as a Requester (`AppShell::fetch_for`) builds a fresh client for each
//! call, carrying only the calling user's own assertion.

use parking_lot::RwLock;

use ucam_policy::{Action, Subject};
use ucam_requester::{AccessOutcome, AccessSpec, RequesterClient};
use ucam_webenv::identity::IdentityVerifier;
use ucam_webenv::protocol::{self, EPOCH_PUSH_PATH};
use ucam_webenv::{Method, Request, Response, SimClock, Status, Transport, Url};

use crate::core::{DelegationConfig, Enforcement, HostCore, SieveDeltaOutcome};
use Caller::{Anyone, ResourceOwner, SessionFor};

/// Who may call a Host route (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Caller {
    /// Anyone; nothing is checked.
    Anyone,
    /// A resource route: the handler's [`AppShell::enforce_web`] call
    /// decides, with the session this class resolved (if any).
    Pep,
    /// A logged-in user: 401 `login required` without a session. The
    /// handler gets the user and the assertion that authenticated them.
    Session,
    /// With an IdP configured, only the session of the user the param
    /// names (401 without a session, 403 for anyone else). Without one
    /// the route stays open, like the AM's owner routes.
    SessionFor(&'static str),
    /// The session of the owner of the resource the `resource` param
    /// names (404 for an unknown resource, 403 for anyone else).
    ResourceOwner,
}

/// One handler call: the request, the transport, and the principal the
/// row's [`Caller`] class found.
pub(crate) struct Call<'a> {
    pub(crate) req: &'a Request,
    pub(crate) net: &'a dyn Transport,
    /// The session's user: always set on `Session` and `ResourceOwner`
    /// rows and, with an IdP, on `SessionFor` rows; set on `Pep` rows when
    /// the caller has a session; never resolved on `Anyone` rows.
    pub(crate) subject: Option<String>,
    /// The identity assertion that authenticated `subject`'s session.
    pub(crate) assertion: Option<&'a str>,
}

impl Call<'_> {
    /// The session's user, or `""` where none was resolved.
    pub(crate) fn user(&self) -> &str {
        self.subject.as_deref().unwrap_or_default()
    }
}

/// One Host route: method (`None`: any), path (a trailing `/` matches as
/// a prefix), caller class and handler.
pub(crate) type Route<A> = (
    Option<Method>,
    &'static str,
    Caller,
    fn(&A, Call<'_>) -> Response,
);

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
    /// The routes every Host serves before its own.
    pub(crate) const ROUTES: &'static [Route<AppShell>] = &[
        (None, "/delegate/setup", Anyone, Self::delegate_setup),
        (None, "/delegate/done", SessionFor("user"), Self::delegated),
        (None, "/share", Anyone, Self::share),
        (None, "/shared", Anyone, Self::shared),
        (None, "/acl", ResourceOwner, Self::edit_acl),
        (None, "/.well-known/host-meta", Anyone, Self::host_meta),
        (None, EPOCH_PUSH_PATH, Anyone, Self::epoch_push),
    ];

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
    fn subject_of(&self, req: &Request) -> Option<String> {
        let token = assertion_of(req)?;
        self.idp.read().as_ref()?.verify(token).ok()
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

    /// Serves `req` for `app`: the first of the common rows, then of the
    /// app's `routes`, whose method and path match.
    pub(crate) fn serve<A>(
        &self,
        app: &A,
        routes: &[Route<A>],
        net: &dyn Transport,
        req: &Request,
    ) -> Response {
        if let Some(resp) = self.route_common(net, req) {
            return resp;
        }
        match find(routes, req) {
            Some(row) => self.call(app, row, net, req),
            None => Response::not_found(req.url.path()),
        }
    }

    /// Serves the common rows; `None` when `req` matches none of them.
    fn route_common(&self, net: &dyn Transport, req: &Request) -> Option<Response> {
        let row = find(Self::ROUTES, req)?;
        Some(self.call(self, row, net, req))
    }

    /// Checks `row`'s caller class, then runs its handler on `target`.
    fn call<A>(&self, target: &A, row: &Route<A>, net: &dyn Transport, req: &Request) -> Response {
        let (.., caller, handler) = *row;
        let subject = match self.authenticate(caller, req) {
            Ok(subject) => subject,
            Err(resp) => return resp,
        };
        let assertion = subject.as_ref().and_then(|_| assertion_of(req));
        handler(
            target,
            Call {
                req,
                net,
                subject,
                assertion,
            },
        )
    }

    /// Checks `caller` for `req` and returns the session's user it found,
    /// or the response that refuses the call.
    fn authenticate(&self, caller: Caller, req: &Request) -> Result<Option<String>, Response> {
        match caller {
            Caller::Anyone => Ok(None),
            Caller::Pep => Ok(self.subject_of(req)),
            Caller::Session => self.require_subject(req).map(Some),
            Caller::SessionFor(_) if self.idp.read().is_none() => Ok(None),
            Caller::SessionFor(param) => {
                let subject = self.require_subject(req)?;
                match req.param(param) {
                    Some(user) if user != subject => Err(Response::forbidden(&format!(
                        "{subject} may not delegate for {user}"
                    ))),
                    _ => Ok(Some(subject)),
                }
            }
            Caller::ResourceOwner => {
                let Some(resource_id) = req.param("resource") else {
                    return Err(Response::bad_request("resource required"));
                };
                let Some(owner) = self.core.owner_of(resource_id) else {
                    return Err(Response::not_found(resource_id));
                };
                match self.subject_of(req) {
                    Some(subject) if subject == owner => Ok(Some(subject)),
                    _ => Err(Response::forbidden("only the owner may edit sharing")),
                }
            }
        }
    }

    /// Requires an authenticated session.
    ///
    /// # Errors
    ///
    /// Returns `401 Unauthorized` when no valid session is attached.
    fn require_subject(&self, req: &Request) -> Result<String, Response> {
        self.subject_of(req)
            .ok_or_else(|| Response::with_status(Status::Unauthorized).with_body("login required"))
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
    fn epoch_push(&self, c: Call<'_>) -> Response {
        let req = c.req;
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
    fn host_meta(&self, c: Call<'_>) -> Response {
        let Some(resource_id) = c.req.param("resource") else {
            return Response::bad_request("resource required");
        };
        let Some(owner) = self.core.owner_of(resource_id) else {
            return Response::not_found(resource_id);
        };
        let mut xrd = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<XRD>\n");
        xrd.push_str(&format!(
            "  <Subject>https://{}/{}</Subject>\n",
            self.core.authority(),
            resource_id
        ));
        xrd.push_str(&format!("  <Property type=\"owner\">{owner}</Property>\n"));
        if let Some(delegation) = self.core.delegation_for(resource_id, &owner) {
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
    fn delegate_setup(&self, c: Call<'_>) -> Response {
        let (user, am) = match (c.req.param("user"), c.req.param("am")) {
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

    /// Fig. 3 step 3 (`/delegate/done`): the AM redirected the User back
    /// with the host access token; the Host stores the delegation. The
    /// row's class let only that user's own session through, when an IdP
    /// is configured.
    fn delegated(&self, c: Call<'_>) -> Response {
        let req = c.req;
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
    fn share(&self, c: Call<'_>) -> Response {
        let Some(resource_id) = c.req.param("resource") else {
            return Response::bad_request("resource required");
        };
        let Some(owner) = self.core.owner_of(resource_id) else {
            return Response::not_found(resource_id);
        };
        match self.core.delegation_for(resource_id, &owner) {
            Some(delegation) => {
                let back = Url::new(self.core.authority(), "/shared");
                let mut target = Url::new(&delegation.am, "/compose")
                    .with_query("owner", &owner)
                    .with_query("host", self.core.authority())
                    .with_query("resource", resource_id)
                    .with_query("return", &back.to_string());
                // Pass through policy-linking parameters chosen in the UI.
                for key in ["policy", "realm", "general"] {
                    if let Some(v) = c.req.param(key) {
                        target = target.with_query(key, v);
                    }
                }
                Response::redirect(&target)
            }
            None => Response::ok()
                .with_body("resource is not delegated; use the built-in sharing menu (/acl)"),
        }
    }

    /// Where the AM's policy editor returns the User after Fig. 4.
    fn shared(&self, _: Call<'_>) -> Response {
        Response::ok().with_body("policy linked at your authorization manager")
    }

    /// The built-in sharing menu of the status quo (§III): the owner edits
    /// the host-local ACL for one resource (the row's class checked that
    /// the caller owns it).
    fn edit_acl(&self, c: Call<'_>) -> Response {
        let req = c.req;
        let (resource_id, grantee, action) = match (
            req.param("resource"),
            req.param("grantee"),
            req.param("action"),
        ) {
            (Some(r), Some(g), Some(a)) => (r, g, a),
            _ => return Response::bad_request("resource, grantee, action required"),
        };
        let mut acl = self.core.legacy_acl(resource_id).unwrap_or_default();
        acl.insert(parse_subject(grantee), parse_action(action));
        self.core.set_legacy_acl(resource_id, acl);
        Response::ok().with_body("acl updated")
    }

    /// Runs the PEP for a resource route of a `Pep` row, with the session
    /// the row's class resolved.
    ///
    /// # Errors
    ///
    /// Returns the blocking [`Response`] (redirect to AM, 403, 404, …)
    /// when access is not granted.
    pub(crate) fn enforce_web(
        &self,
        c: &Call<'_>,
        resource_id: &str,
        action: &Action,
    ) -> Result<(), Response> {
        let subject = c.subject.as_deref();
        // Borrow the requester label straight from the header on the warm
        // application path; only browser sessions need an owned label.
        let browser_label;
        let requester = match c.req.header("x-requester") {
            Some(r) => r,
            None => {
                browser_label = Self::requester_of(c.req, subject);
                browser_label.as_str()
            }
        };
        match self.core.enforce(
            c.net,
            requester,
            subject,
            resource_id,
            action,
            c.req.bearer_token(),
            &c.req.url,
        ) {
            Enforcement::Grant => Ok(()),
            Enforcement::Block(resp) => Err(resp),
        }
    }

    /// Stores a new resource `id` for the session's user: 201 with the
    /// id, or 409 when it exists.
    pub(crate) fn create(&self, c: &Call<'_>, id: String, kind: &str, data: Vec<u8>) -> Response {
        match self.core.put_resource(&id, c.user(), kind, data) {
            Ok(()) => Response::with_status(Status::Created).with_body(id),
            Err(e) => Response::with_status(Status::Conflict).with_body(e.to_string()),
        }
    }

    /// Acting as a Requester (§VI) for the session's user: reads `/src`
    /// at the Host `from` through the full token flow and returns the
    /// body. Each call builds a fresh client whose subject token is the
    /// assertion that authenticated this session, so no token or identity
    /// passes from one user to the next.
    ///
    /// # Errors
    ///
    /// Returns the response for any outcome but a grant.
    pub(crate) fn fetch_for(
        &self,
        c: &Call<'_>,
        from: &str,
        src: &str,
    ) -> Result<String, Response> {
        let mut client = RequesterClient::new(&format!("requester:{}", self.core.authority()));
        client.set_subject_token(c.assertion.map(str::to_owned));
        match client.access(c.net, &AccessSpec::read(Url::new(from, &format!("/{src}")))) {
            AccessOutcome::Granted(resp) => Ok(resp.body),
            AccessOutcome::Denied(reason) => Err(Response::forbidden(&reason)),
            AccessOutcome::PendingConsent { consent_id, .. } => {
                Err(Response::with_status(Status::Accepted).with_body(consent_id))
            }
            AccessOutcome::NeedsClaims(msg) => {
                Err(Response::with_status(Status::PaymentRequired).with_body(msg))
            }
            AccessOutcome::Failed(resp) => Err(resp),
        }
    }
}

/// The first row of `routes` whose method and path match `req`.
fn find<'r, A>(routes: &'r [Route<A>], req: &Request) -> Option<&'r Route<A>> {
    let path = req.url.path();
    routes.iter().find(|(method, pattern, ..)| {
        method.is_none_or(|m| m == req.method)
            && (path == *pattern || (pattern.ends_with('/') && path.starts_with(pattern)))
    })
}

/// The identity assertion `req` carries: the `subject_token` param, else
/// the `ident` cookie.
fn assertion_of(req: &Request) -> Option<&str> {
    req.param("subject_token").or_else(|| req.cookie("ident"))
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

#[cfg(test)]
pub(crate) mod route_matrix {
    //! The Host route-authorization matrix (DESIGN.md §17). One rig holds
    //! the AM, the IdP and all four apps with Bob's content, delegated;
    //! every row of a table, sent well-formed by each caller with an IdP
    //! configured, must answer the status its test pins. The lists are
    //! written out by hand and keyed by the row's path, so a row added
    //! without its outcomes fails its test.

    use std::sync::Arc;

    use ucam_am::AuthorizationManager;
    use ucam_policy::{PolicyBody, ResourceRef, Rule, RulePolicy};
    use ucam_webenv::identity::IdentityProvider;
    use ucam_webenv::{SimNet, WebApp};

    use super::*;
    use crate::{Image, Video, WebDocs, WebPics, WebStorage, WebVideos};

    /// The callers, in the order of each list's columns. A Host knows no
    /// registrant and no host token, so both must open nothing.
    pub(crate) const CALLERS: [&str; 6] = [
        "anonymous",
        "another user",
        "the owner",
        "a host registrant",
        "the delegated host",
        "a forged credential",
    ];

    /// One pinned row: the table row's path, the method, target (path and
    /// query) and body of its well-formed request, a target the owner
    /// calls first (if any), and each caller's status.
    pub(crate) struct Expect<'a> {
        row: &'a str,
        method: Method,
        target: &'a str,
        body: &'a str,
        first: Option<&'a str>,
        status: [u16; 6],
    }

    /// Pins `method target` on the row `row` to `status`.
    pub(crate) fn pin<'a>(
        row: &'a str,
        method: Method,
        target: &'a str,
        status: [u16; 6],
    ) -> Expect<'a> {
        Expect {
            row,
            method,
            target,
            body: "",
            first: None,
            status,
        }
    }

    impl<'a> Expect<'a> {
        /// The request carries `body`.
        pub(crate) fn with_body(self, body: &'a str) -> Self {
            Expect { body, ..self }
        }

        /// The owner sends `first`, same method and body, before the
        /// caller's request.
        pub(crate) fn after_owner(self, first: &'a str) -> Self {
            Expect {
                first: Some(first),
                ..self
            }
        }
    }

    /// Bob's world: his content on all four apps, each delegated to the
    /// AM, which lets Bob read his gallery photo and his stored file
    /// through the Requester flow and lets nobody else.
    pub(crate) struct Rig {
        pub(crate) net: SimNet,
        pub(crate) pics: Arc<WebPics>,
        pub(crate) storage: Arc<WebStorage>,
        pub(crate) docs: Arc<WebDocs>,
        pub(crate) videos: Arc<WebVideos>,
        idp: IdentityProvider,
        host_token: String,
    }

    impl Rig {
        pub(crate) fn new() -> Rig {
            let net = SimNet::new();
            let clock = net.clock().clone();
            let idp = IdentityProvider::new("idp.example", clock.clone());
            let am = Arc::new(AuthorizationManager::new("am.example", clock.clone()));
            for user in ["bob", "mallory"] {
                idp.register_user(user, "pw");
                am.register_user(user);
            }
            am.set_identity_verifier(idp.verifier());
            let pics = WebPics::new("webpics.example", clock.clone());
            let storage = WebStorage::new("webstorage.example", clock.clone());
            let docs = WebDocs::new("webdocs.example", clock.clone());
            let videos = WebVideos::new("webvideos.example", clock);
            let image = Image::gradient(4, 4).to_bytes();
            let video = Video::test_pattern(2, 2, 2).to_bytes();
            let content = [
                (pics.shell(), "album-meta/rome", "album", vec![]),
                (pics.shell(), "albums/rome/p1", "photo", image),
                (storage.shell(), "dirs/trips", "dir", vec![]),
                (storage.shell(), "files/a.txt", "file", b"notes".to_vec()),
                (docs.shell(), "folder-meta/trips", "folder", vec![]),
                (
                    docs.shell(),
                    "docs/trips/report",
                    "document",
                    b"report".to_vec(),
                ),
                (
                    videos.shell(),
                    "collection-meta/trips",
                    "collection",
                    vec![],
                ),
                (videos.shell(), "collections/trips/clip", "video", video),
            ];
            for (shell, id, kind, data) in content {
                shell.core.put_resource(id, "bob", kind, data).unwrap();
            }
            let mut host_token = String::new();
            for shell in [pics.shell(), storage.shell(), docs.shell(), videos.shell()] {
                shell.set_identity_verifier(idp.verifier());
                let (delegation, token) = am
                    .establish_delegation(shell.core.authority(), "bob")
                    .unwrap();
                shell.core.set_user_delegation(
                    "bob",
                    DelegationConfig {
                        am: "am.example".into(),
                        host_token: token.clone(),
                        delegation_id: delegation.id,
                    },
                );
                host_token = token;
            }
            am.pap("bob", |account| {
                let mine = account.create_policy(
                    "bob-reads",
                    PolicyBody::Rules(
                        RulePolicy::new().with_rule(
                            Rule::permit()
                                .for_subject(Subject::User("bob".into()))
                                .for_action(Action::Read),
                        ),
                    ),
                );
                for (host, id) in [
                    ("webpics.example", "albums/rome/p1"),
                    ("webstorage.example", "files/a.txt"),
                ] {
                    account
                        .link_specific(ResourceRef::new(host, id), &mine)
                        .unwrap();
                }
            })
            .unwrap();
            net.register(am);
            net.register(pics.clone());
            net.register(storage.clone());
            net.register(docs.clone());
            net.register(videos.clone());
            Rig {
                net,
                pics,
                storage,
                docs,
                videos,
                idp,
                host_token,
            }
        }

        /// `req` with caller `caller`'s credentials added.
        fn as_caller(&self, caller: usize, req: Request) -> Request {
            let login = |user: &str| self.idp.login(user, "pw").unwrap().token;
            match CALLERS[caller] {
                "anonymous" => req,
                "another user" => req.with_param("subject_token", &login("mallory")),
                "the owner" => req.with_param("subject_token", &login("bob")),
                "a host registrant" => req
                    .with_param("registrant_id", "reg-1")
                    .with_param("secret", "s3cret"),
                "the delegated host" => req.with_param("host_token", &self.host_token),
                _ => req.with_param("subject_token", "forged.assertion"),
            }
        }
    }

    /// Sends every row of `routes` as each caller, each on a fresh rig,
    /// through `app`'s `handle`, and fails listing each status that
    /// differs from `expected`, each row missing from it and each entry
    /// that matches no row.
    pub(crate) fn check<T, A: WebApp>(
        routes: &[Route<T>],
        expected: &[Expect],
        app: fn(&Rig) -> &A,
    ) {
        let mut failures = Vec::new();
        for &(_, path, ..) in routes {
            let pinned: Vec<&Expect> = expected.iter().filter(|e| e.row == path).collect();
            if pinned.is_empty() {
                failures.push(format!("{path}: a row with no expected outcomes"));
            }
            for e in pinned {
                for (caller, &want) in e.status.iter().enumerate() {
                    let rig = Rig::new();
                    let app = app(&rig);
                    let request = |target: &str| {
                        let url = format!("https://{}{target}", app.authority());
                        Request::new(e.method, &url).with_body(e.body)
                    };
                    if let Some(first) = e.first {
                        app.handle(&rig.net, &rig.as_caller(2, request(first)));
                    }
                    let resp = app.handle(&rig.net, &rig.as_caller(caller, request(e.target)));
                    if resp.status.code() != want {
                        failures.push(format!(
                            "{} {} by {}{}: {}, expected {want} ({})",
                            e.method,
                            e.target,
                            CALLERS[caller],
                            e.first
                                .map_or(String::new(), |f| format!(" after the owner's {f}")),
                            resp.status.code(),
                            resp.body
                        ));
                    }
                }
            }
        }
        for e in expected {
            if !routes.iter().any(|row| row.1 == e.row) {
                failures.push(format!("{}: expected outcomes for no row", e.row));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// The shell's common rows, served through WebStorage. The
    /// `/delegate/done` row pins a hole once found by reading code:
    /// another user's session re-pointed Bob's delegation.
    #[test]
    fn every_common_route_answers_each_caller_as_pinned() {
        use ucam_webenv::Method::Get;
        const DONE: &str = "/delegate/done?user=bob&am=am.example&host_token=ht&delegation_id=d";
        const ACL: &str = "/acl?resource=files/a.txt&grantee=user:mallory&action=read";
        const META: &str = "/.well-known/host-meta?resource=files/a.txt";
        // Columns: anonymous, another user, the owner, a host registrant,
        // the delegated host, a forged credential.
        let expected = [
            pin(
                "/delegate/setup",
                Get,
                "/delegate/setup?user=bob&am=am.example",
                [302; 6],
            ),
            pin("/delegate/done", Get, DONE, [401, 403, 200, 401, 401, 401]),
            pin("/share", Get, "/share?resource=files/a.txt", [302; 6]),
            pin("/shared", Get, "/shared", [200; 6]),
            pin("/acl", Get, ACL, [403, 403, 200, 403, 403, 403]),
            pin("/.well-known/host-meta", Get, META, [200; 6]),
            pin(
                EPOCH_PUSH_PATH,
                Get,
                "/protection/v1/epoch?owner=bob&epoch=9",
                [200; 6],
            ),
        ];
        check(AppShell::ROUTES, &expected, |rig| &*rig.storage);
    }
}
